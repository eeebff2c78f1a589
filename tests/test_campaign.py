"""Campaign engine: spec expansion, hashing, seeding, store, rollups."""

from __future__ import annotations

import json

import pytest

from repro.api.engine import Engine
from repro.api.registries import MACHINES
from repro.campaign.executor import RunResult, execute_run
from repro.campaign.rollup import (
    CSV_COLUMNS,
    render_rollup,
    results_to_csv,
    rollup_results,
    write_results_jsonl,
)
from repro.campaign.spec import (
    DEFAULT_SCHEDULERS,
    CampaignSpec,
    MachineVariant,
    RunSpec,
    SchedulerSpec,
    build_campaign_workload,
    parse_workload_ref,
    resolve_machine_preset,
)
from repro.campaign.store import ResultStore
from repro.errors import CampaignError
from repro.experiments.runner import group_comparisons
from repro.sim.config import MachineConfig
from repro.util.units import KIB

#: A tiny machine variant so campaign cells stay fast under test.
TINY = MachineVariant.from_overrides(
    "tiny",
    num_cores=2,
    cache_size_bytes=1 * KIB,
    quantum_cycles=500,
    context_switch_cycles=10,
)


def tiny_campaign(**kwargs) -> CampaignSpec:
    defaults = dict(
        workloads=("MxM",),
        machines=(TINY,),
        schedulers=(SchedulerSpec("RS"), SchedulerSpec("LS")),
        seeds=(0,),
        scale=0.25,
        name="tiny",
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class TestWorkloadRefs:
    def test_suite_names_accepted(self):
        assert parse_workload_ref("MxM") == ("app", None)

    def test_mix_forms(self):
        assert parse_workload_ref("mix:3") == ("mix", 3)
        assert parse_workload_ref("random-mix:4") == ("random-mix", 4)

    @pytest.mark.parametrize(
        "bad", ["nope", "mix:0", "mix:7", "mix:x", "random-mix:99", 3, None]
    )
    def test_bad_refs_rejected(self, bad):
        with pytest.raises(CampaignError):
            parse_workload_ref(bad)

    def test_build_app_and_mix(self):
        app = build_campaign_workload("MxM", scale=0.25)
        mix = build_campaign_workload("mix:2", scale=0.25)
        assert len(list(app)) > 0
        assert len(list(mix)) > len(list(app))

    def test_random_mix_deterministic_per_seed(self):
        a = build_campaign_workload("random-mix:3", scale=0.25, seed=7)
        b = build_campaign_workload("random-mix:3", scale=0.25, seed=7)
        c = build_campaign_workload("random-mix:3", scale=0.25, seed=8)
        assert sorted(a.pids) == sorted(b.pids)
        # a different seed picks a different subset/order (with 6C3 * 3!
        # possibilities, seeds 7 and 8 differ for this fixed test vector)
        assert sorted(a.pids) != sorted(c.pids)


class TestMachineVariant:
    def test_build_applies_overrides(self):
        machine = TINY.build()
        assert machine.num_cores == 2
        assert machine.cache_size_bytes == 1 * KIB

    def test_from_config_round_trips(self):
        config = MachineConfig(num_cores=4, memory_latency_cycles=50)
        variant = MachineVariant.from_config("x", config)
        assert variant.build() == config
        assert dict(variant.overrides) == {
            "num_cores": 4,
            "memory_latency_cycles": 50,
        }

    def test_unknown_field_rejected(self):
        with pytest.raises(CampaignError):
            MachineVariant.from_overrides("bad", no_such_field=1)

    def test_invalid_value_rejected_at_spec_time(self):
        with pytest.raises(CampaignError, match="invalid"):
            MachineVariant.from_overrides("bad", num_cores="eight")
        with pytest.raises(CampaignError, match="invalid"):
            MachineVariant.from_overrides("bad", cache_size_bytes=3000)

    def test_presets_all_build(self):
        for name in MACHINES:
            assert resolve_machine_preset(name).build() is not None

    def test_unknown_preset_rejected(self):
        with pytest.raises(CampaignError):
            resolve_machine_preset("warp-drive")


class TestSchedulerSpec:
    def test_unknown_name_rejected(self):
        with pytest.raises(CampaignError):
            SchedulerSpec("XYZ")

    def test_bad_params_rejected_at_build(self):
        spec = SchedulerSpec.of("LS", bogus_param=1)
        with pytest.raises(CampaignError):
            spec.build(0)

    def test_rs_receives_cell_seed(self):
        scheduler = SchedulerSpec("RS").build(41)
        assert scheduler.seed == 41

    def test_label_defaults_to_name(self):
        assert SchedulerSpec("LSM").effective_label == "LSM"
        assert SchedulerSpec.of("LSM", label="T0").effective_label == "T0"

    def test_dict_round_trip(self):
        spec = SchedulerSpec.of("LSM", label="T0", conflict_threshold=0.0)
        assert SchedulerSpec.from_dict(spec.to_dict()) == spec


class TestExpansion:
    def test_cross_product_size(self):
        spec = CampaignSpec(
            workloads=("MxM", "Radar", "mix:2"),
            machines=(MachineVariant(), TINY),
            schedulers=DEFAULT_SCHEDULERS,
            seeds=(0, 1, 2),
        )
        runs = spec.expand()
        assert len(runs) == spec.num_cells == 3 * 2 * 4 * 3

    def test_default_cli_campaign_is_48_cells(self):
        from repro.cli import _build_parser, _campaign_spec_from_args

        spec = _campaign_spec_from_args(_build_parser().parse_args(["campaign"]))
        assert spec.name == "suite"
        assert spec.num_cells == 48

    def test_expansion_deterministic(self):
        spec = tiny_campaign(seeds=(0, 1))
        assert spec.expand() == spec.expand()

    def test_cell_keys_unique(self):
        spec = CampaignSpec(
            workloads=("MxM", "mix:2"),
            machines=(MachineVariant(), TINY),
            schedulers=DEFAULT_SCHEDULERS,
            seeds=(0, 1),
        )
        keys = [run.cell_key() for run in spec.expand()]
        assert len(set(keys)) == len(keys)

    def test_duplicate_axis_entries_rejected(self):
        with pytest.raises(CampaignError):
            tiny_campaign(workloads=("MxM", "MxM"))
        with pytest.raises(CampaignError):
            tiny_campaign(seeds=(0, 0))

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignError):
            tiny_campaign(workloads=())

    def test_derived_seed_stable_and_decorrelated(self):
        run_a, run_b = tiny_campaign().expand()
        assert run_a.derived_seed("jitter") == run_a.derived_seed("jitter")
        assert run_a.derived_seed("jitter") != run_b.derived_seed("jitter")
        assert run_a.derived_seed("jitter") != run_a.derived_seed("other")


class TestSpecHash:
    def test_stable_across_instances(self):
        assert tiny_campaign().spec_hash() == tiny_campaign().spec_hash()

    def test_sensitive_to_every_axis(self):
        base = tiny_campaign()
        variants = [
            tiny_campaign(workloads=("Radar",)),
            tiny_campaign(seeds=(1,)),
            tiny_campaign(scale=0.5),
            tiny_campaign(machines=(MachineVariant(),)),
            tiny_campaign(schedulers=(SchedulerSpec("RS"),)),
        ]
        for variant in variants:
            assert variant.spec_hash() != base.spec_hash()

    def test_insensitive_to_override_ordering(self):
        a = MachineVariant.from_overrides("m", num_cores=2, quantum_cycles=500)
        b = MachineVariant.from_overrides("m", quantum_cycles=500, num_cores=2)
        assert tiny_campaign(machines=(a,)).spec_hash() == tiny_campaign(
            machines=(b,)
        ).spec_hash()

    def test_json_round_trip_preserves_hash(self, tmp_path):
        spec = tiny_campaign()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert CampaignSpec.from_file(path).spec_hash() == spec.spec_hash()


class TestExecutor:
    def test_single_cell_matches_simulator_run(self):
        from repro.sched.random_sched import RandomScheduler
        from repro.sim.simulator import MPSoCSimulator
        from repro.workloads.suite import build_task
        from repro.procgraph.graph import ExtendedProcessGraph

        run = tiny_campaign().expand()[0]  # MxM / tiny / RS / seed 0
        result = execute_run(run)
        epg = ExtendedProcessGraph.from_tasks([build_task("MxM", scale=0.25)])
        expected = MPSoCSimulator(TINY.build()).run(epg, RandomScheduler(seed=0))
        assert result.seconds == expected.seconds
        assert result.miss_rate == expected.miss_rate
        assert (result.hits, result.misses) == (
            expected.total_cache.hits,
            expected.total_cache.misses,
        )
        assert result.utilization == expected.core_utilization()

    def test_run_campaign_deterministic(self):
        spec = tiny_campaign(seeds=(0, 1))
        a = Engine().run_campaign(spec).results
        b = Engine().run_campaign(spec).results
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_parallel_matches_serial(self):
        spec = tiny_campaign(seeds=(0, 1))
        serial = Engine(jobs=1).run_campaign(spec).results
        parallel = Engine(jobs=2).run_campaign(spec).results
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_results_in_expansion_order(self):
        spec = tiny_campaign(seeds=(0, 1))
        outcome = Engine().run_campaign(spec)
        assert [r.key for r in outcome.results] == [
            run.cell_key() for run in spec.expand()
        ]

    def test_bad_jobs_rejected(self):
        with pytest.raises(CampaignError):
            Engine(jobs=0).run_campaign(tiny_campaign())


class TestStoreAndResume:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        outcome = Engine(store=store).run_campaign(tiny_campaign())
        loaded = store.load()
        assert set(loaded) == {r.key for r in outcome.results}
        assert loaded[outcome.results[0].key].to_dict() == outcome.results[0].to_dict()

    def test_resume_skips_completed(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        spec = tiny_campaign(seeds=(0, 1))
        first = Engine(store=store).run_campaign(spec)
        assert (first.executed, first.skipped) == (4, 0)
        second = Engine(store=store, resume=True).run_campaign(spec)
        assert (second.executed, second.skipped) == (0, 4)
        assert [r.to_dict() for r in second.results] == [
            r.to_dict() for r in first.results
        ]

    def test_resume_after_partial_failure(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        spec = tiny_campaign(seeds=(0, 1))
        full = Engine(store=store).run_campaign(spec)
        # simulate a crash: drop the last complete row, leave a torn write
        lines = store.path.read_text().splitlines()
        store.path.write_text(
            "\n".join(lines[:2]) + '\n{"key": "torn-mid-wr'
        )
        resumed = Engine(store=store, resume=True).run_campaign(spec)
        assert (resumed.executed, resumed.skipped) == (2, 2)
        assert [r.to_dict() for r in resumed.results] == [
            r.to_dict() for r in full.results
        ]
        # the store has healed: every cell parseable again
        assert len(store.load()) == 4

    def test_stale_keys_ignored_on_resume(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        spec = tiny_campaign()
        Engine(store=store).run_campaign(spec)
        other = tiny_campaign(workloads=("Radar",))
        outcome = Engine(store=store, resume=True).run_campaign(other)
        assert outcome.skipped == 0
        assert outcome.executed == other.num_cells

    def test_fresh_run_truncates_store(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        spec = tiny_campaign()
        Engine(store=store).run_campaign(spec)
        Engine(store=store).run_campaign(spec)  # no resume: starts over
        assert len(store.path.read_text().splitlines()) == spec.num_cells

    def test_fresh_run_backs_up_previous_results(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        spec = tiny_campaign()
        Engine(store=store).run_campaign(spec)
        original = store.path.read_text()
        Engine(store=store).run_campaign(spec)  # forgot --resume: old results survive
        assert (tmp_path / "r.jsonl.bak").read_text() == original


class TestRollupAndExports:
    @pytest.fixture(scope="class")
    def results(self) -> list[RunResult]:
        spec = tiny_campaign(
            schedulers=DEFAULT_SCHEDULERS, seeds=(0, 1), name="rollup"
        )
        return Engine().run_campaign(spec).results

    def test_rollup_speedups_vs_baselines(self, results):
        rows = {row.scheduler: row for row in rollup_results(results)}
        assert rows["RS"].speedup_vs_rs == pytest.approx(1.0)
        assert rows["RRS"].speedup_vs_rrs == pytest.approx(1.0)
        assert rows["LS"].speedup_vs_rs is not None
        assert rows["LS"].runs == 2
        assert rows["RS"].miss_delta_vs_rs == pytest.approx(0.0)

    def test_render_rollup(self, results):
        rendered = render_rollup(results)
        assert "vs RS" in rendered and "MxM" in rendered

    def test_csv_columns(self, results):
        text = results_to_csv(results)
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert len(text.splitlines()) == len(results) + 1

    def test_jsonl_export_round_trips(self, results, tmp_path):
        path = write_results_jsonl(results, tmp_path / "out.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(results)
        assert RunResult.from_dict(json.loads(lines[0])).key == results[0].key

    def test_empty_rollup_rejected(self):
        with pytest.raises(CampaignError):
            rollup_results([])

    def test_group_comparisons_shape(self, results):
        seed0 = [r for r in results if r.seed == 0]
        comparisons = group_comparisons(seed0)
        assert [c.label for c in comparisons] == ["MxM"]
        assert set(comparisons[0].results) == {"RS", "RRS", "LS", "LSM"}
        # a second seed collides per (group, scheduler): grouping is for
        # single-seed figure grids and must refuse ambiguous input
        with pytest.raises(CampaignError):
            group_comparisons(results)
