"""The Scenario/Engine facade: normalization, hash stability, plugins."""

from __future__ import annotations

import math

import pytest

from repro.api import (
    MACHINES,
    SCHEDULERS,
    WORKLOADS,
    Engine,
    Scenario,
    register_machine,
    register_scheduler,
    register_workload,
)
from repro.campaign.executor import clear_cell_memo, execute_run
from repro.campaign.spec import (
    DEFAULT_SCHEDULERS,
    CampaignSpec,
    MachineVariant,
    RunSpec,
    SchedulerSpec,
    workload_seed_sensitive,
)
from repro.errors import CampaignError
from repro.procgraph import pipeline_task
from repro.procgraph.task import Task
from repro.programs import AffineAccess, ArraySpec, LoopNest, ProgramFragment
from repro.presburger import var
from repro.sched.base import PlanMode, Scheduler, SchedulerPlan
from repro.util.units import KIB

#: Keep facade-run cells tiny (mirrors test_campaign.TINY).
TINY = MachineVariant.from_overrides(
    "tiny",
    num_cores=2,
    cache_size_bytes=1 * KIB,
    quantum_cycles=500,
    context_switch_cycles=10,
)


class TestScenarioNormalization:
    def test_defaults_match_campaign_defaults(self):
        spec = Scenario().workload("MxM").to_campaign()
        assert spec == CampaignSpec(workloads=("MxM",))
        assert spec.machines == (MachineVariant(),)
        assert spec.schedulers == DEFAULT_SCHEDULERS
        assert spec.seeds == (0,)

    def test_spec_hash_identical_to_hand_built_spec(self):
        by_hand = CampaignSpec(
            workloads=("MxM", "mix:2"),
            machines=(TINY,),
            schedulers=(SchedulerSpec("RS"), SchedulerSpec("LS")),
            seeds=(0, 1),
            scale=0.25,
            name="grid",
        )
        fluent = (
            Scenario()
            .workload("MxM", "mix:2")
            .machine(TINY)
            .scheduler("RS", "LS")
            .seed(0, 1)
            .scale(0.25)
            .name("grid")
            .to_campaign()
        )
        assert fluent == by_hand
        assert fluent.spec_hash() == by_hand.spec_hash()

    def test_run_spec_cell_key_stable(self):
        run = (
            Scenario()
            .workload("MxM")
            .machine(TINY)
            .scheduler("LSM", label="T0", conflict_threshold=0.0)
            .seed(7)
            .scale(0.25)
            .to_run_spec()
        )
        by_hand = RunSpec(
            workload="MxM",
            machine=TINY,
            scheduler=SchedulerSpec.of("LSM", label="T0", conflict_threshold=0.0),
            seed=7,
            scale=0.25,
        )
        assert run == by_hand
        assert run.cell_key() == by_hand.cell_key()

    def test_builder_is_immutable(self):
        base = Scenario().workload("MxM")
        widened = base.workload("Radar")
        assert base.workloads == ("MxM",)
        assert widened.workloads == ("MxM", "Radar")

    def test_machine_accepts_preset_name_and_aliases(self):
        spec = (
            Scenario()
            .workload("MxM")
            .machine("cache-16k")
            .machine(cache_kib=8, cores=4)
            .to_campaign()
        )
        first, second = spec.machines
        assert dict(first.overrides) == {"cache_size_bytes": 16 * KIB}
        assert dict(second.overrides) == {
            "cache_size_bytes": 8 * KIB,
            "num_cores": 4,
        }

    def test_machine_variant_honors_rename(self):
        spec = (
            Scenario()
            .workload("MxM")
            .machine(TINY, name="renamed")
            .to_campaign()
        )
        (variant,) = spec.machines
        assert variant.name == "renamed"
        assert variant.overrides == TINY.overrides

    def test_machine_overrides_stack_on_preset(self):
        spec = (
            Scenario()
            .workload("MxM")
            .machine("cache-16k", cores=4, name="bigger")
            .to_campaign()
        )
        (variant,) = spec.machines
        assert variant.name == "bigger"
        assert dict(variant.overrides) == {
            "cache_size_bytes": 16 * KIB,
            "num_cores": 4,
        }

    def test_unknown_workload_fails_fast_with_hint(self):
        with pytest.raises(CampaignError, match="did you mean 'MxM'"):
            Scenario().workload("mxm")

    def test_unknown_preset_fails_fast(self):
        with pytest.raises(CampaignError, match="machine preset"):
            Scenario().workload("MxM").machine("warp-drive")

    def test_empty_scenario_rejected(self):
        with pytest.raises(CampaignError, match="at least one workload"):
            Scenario().to_campaign()

    def test_to_run_spec_rejects_grids(self):
        with pytest.raises(CampaignError, match="4 cells"):
            Scenario().workload("MxM").scheduler("RS").seed(0, 1, 2, 3).to_run_spec()

    def test_scheduler_params_need_single_name(self):
        with pytest.raises(CampaignError, match="exactly one"):
            Scenario().scheduler("RS", "LS", label="x")

    def test_scheduler_params_rejected_on_prebuilt_spec(self):
        with pytest.raises(CampaignError, match="already carries"):
            Scenario().scheduler(
                SchedulerSpec("LSM"), label="T0", conflict_threshold=0.0
            )


class TestEngine:
    def test_run_single_cell_matches_execute_run(self):
        scenario = (
            Scenario().workload("MxM").machine(TINY).scheduler("LS").scale(0.25)
        )
        facade = Engine().run(scenario)
        direct = execute_run(scenario.to_run_spec())
        assert facade == direct

    def test_run_rejects_grids(self):
        with pytest.raises(CampaignError, match="exactly one cell"):
            Engine().run(Scenario().workload("MxM", "Radar"))

    def test_policies_agree(self):
        scenario = (
            Scenario()
            .workload("MxM")
            .machine(TINY)
            .scheduler("RS", "LS")
            .seed(0, 1)
            .scale(0.25)
        )
        runs = scenario.expand()
        serial = Engine().run_many(runs)
        threads = Engine(jobs=2, policy="threads").run_many(runs)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in threads]

    def test_run_many_preserves_declaration_order(self):
        runs = (
            Scenario()
            .workload("MxM")
            .machine(TINY)
            .scheduler("RS", "LS", "RRS")
            .scale(0.25)
            .expand()
        )
        results = Engine(jobs=2, policy="threads").run_many(runs)
        assert [r.scheduler for r in results] == ["RS", "LS", "RRS"]

    def test_on_result_streams_every_cell(self):
        seen = []
        runs = Scenario().workload("MxM").machine(TINY).scale(0.25).expand()
        Engine().run_many(runs, on_result=seen.append)
        assert len(seen) == len(runs)

    def test_compare_returns_comparison(self):
        comparison = Engine().compare(
            Scenario()
            .workload("MxM")
            .machine(TINY)
            .scheduler("RS", "LS")
            .scale(0.25)
        )
        assert comparison.label == "MxM"
        assert set(comparison.results) == {"RS", "LS"}
        assert comparison.speedup("RS", "LS") > 0

    def test_compare_rejects_multi_workload_grids(self):
        with pytest.raises(CampaignError, match="one workload"):
            Engine().compare(Scenario().workload("MxM", "Radar").machine(TINY))

    def test_compare_rejects_same_named_distinct_machines(self):
        runs = [
            RunSpec("MxM", MachineVariant.from_overrides("m", num_cores=4),
                    SchedulerSpec("RS"), 0, 0.25),
            RunSpec("MxM", MachineVariant.from_overrides("m", num_cores=8),
                    SchedulerSpec("LS"), 0, 0.25),
        ]
        with pytest.raises(CampaignError, match="2 distinct cells"):
            Engine().compare(runs)

    def test_bad_policy_rejected(self):
        with pytest.raises(CampaignError, match="execution policy"):
            Engine(policy="carrier-pigeon")


def _toy_task(name: str, n: int = 36, width: int = 9) -> Task:
    """A minimal single-phase task for plugin tests."""
    x, y = var("x"), var("y")
    array = ArraySpec(f"{name}.A", (n, n))
    fragment = ProgramFragment(
        "f",
        LoopNest([("x", 0, n - 1), ("y", 0, n - 1)]),
        [AffineAccess(array, [x, y], is_write=True)],
    )
    return pipeline_task(name, [(fragment, width)], pattern=[])


class TestPlugins:
    def test_scheduler_plugin_runs_in_campaign(self):
        @register_scheduler("test-greedy", description="first ready pid")
        class GreedyScheduler(Scheduler):
            name = "test-greedy"
            seed_sensitive = False

            def prepare(self, epg, machine, layout):
                return SchedulerPlan(
                    scheduler_name=self.name,
                    mode=PlanMode.DYNAMIC,
                    layout=layout,
                    picker=lambda core_id, ready, last_pid, running: ready[0],
                )

        try:
            outcome = Engine().run_campaign(
                Scenario()
                .workload("MxM")
                .machine(TINY)
                .scheduler("RS", "test-greedy")
                .scale(0.25)
                .name("plugin")
            )
            by_scheduler = {r.scheduler: r for r in outcome.results}
            assert by_scheduler["test-greedy"].seconds > 0
            assert math.isfinite(by_scheduler["test-greedy"].miss_rate)
        finally:
            SCHEDULERS.unregister("test-greedy")

    def test_workload_plugin_round_trip(self):
        @register_workload(
            "test-toy", description="toy plugin task", seed_sensitive=False
        )
        def build_toy(scale: float = 1.0) -> Task:
            return _toy_task("Toy")

        try:
            assert "test-toy" in WORKLOADS
            assert not workload_seed_sensitive("test-toy")
            result = Engine().run(
                Scenario().workload("test-toy").machine(TINY).scheduler("LS")
            )
            assert result.workload == "test-toy"
            assert result.seconds > 0
        finally:
            WORKLOADS.unregister("test-toy")
            clear_cell_memo()

    def test_plugin_workload_defaults_to_seed_sensitive(self):
        @register_workload("test-seeded", description="seeded toy")
        def build_seeded(seed: int = 0) -> Task:
            return _toy_task("Seeded")

        try:
            assert workload_seed_sensitive("test-seeded")
        finally:
            WORKLOADS.unregister("test-seeded")

    def test_machine_preset_plugin_resolves_on_cli_path(self):
        register_machine("test-wide", num_cores=16, description="wide variant")
        try:
            spec = (
                Scenario()
                .workload("MxM")
                .machine("test-wide")
                .to_campaign()
            )
            assert dict(spec.machines[0].overrides) == {"num_cores": 16}
        finally:
            MACHINES.unregister("test-wide")

    def test_builtin_overwrite_requires_flag(self):
        with pytest.raises(Exception, match="already registered"):
            register_scheduler("RS", lambda seed, **p: None)

    def test_parameterized_workload_needs_count_parameter(self):
        from repro.errors import RegistryError

        with pytest.raises(RegistryError, match="'count' parameter"):
            @register_workload("test-fam", parameterized=True, max_count=5)
            def build_fam(scale: float = 1.0) -> Task:
                return _toy_task("Fam")

        assert "test-fam" not in WORKLOADS
