"""Experiment harnesses: Figure 2 exactness, Figure 6/7 structure, tables,
sensitivity and ablation plumbing (all at reduced scale)."""

from __future__ import annotations

import pytest

from repro.experiments.ablation import render_ablation, run_ablation
from repro.experiments.figure2 import (
    figure2_mappings,
    figure2_sharing_matrix,
    mapping_sharing_total,
    render_figure2,
)
from repro.experiments.figure6 import render_figure6, run_figure6
from repro.experiments.figure7 import render_figure7, run_figure7
from repro.api import Engine, Scenario
from repro.campaign.spec import DEFAULT_SCHEDULERS
from repro.experiments.export import comparisons_to_rows
from repro.experiments.runner import SCHEDULER_ORDER
from repro.experiments.sensitivity import render_sensitivity, run_sensitivity
from repro.experiments.tables import render_table1, render_table2
from repro.sim.config import MachineConfig
from repro.util.units import KIB

SMALL_MACHINE = MachineConfig(
    num_cores=4,
    cache_size_bytes=2 * KIB,
    cache_associativity=2,
    cache_line_size=32,
    quantum_cycles=2000,
    context_switch_cycles=100,
)
SCALE = 0.25


class TestFigure2Exact:
    """The Section-2 example must reproduce the paper's numbers exactly."""

    def test_matrix_values(self):
        matrix = figure2_sharing_matrix()
        assert matrix.shared("P0", "P0") == 3000
        assert matrix.shared("P0", "P1") == 2000
        assert matrix.shared("P0", "P2") == 1000
        assert matrix.shared("P0", "P3") == 0
        assert matrix.shared("P3", "P5") == 1000

    def test_matrix_band_structure(self):
        matrix = figure2_sharing_matrix()
        for i in range(8):
            for j in range(8):
                gap = abs(i - j)
                expected = {0: 3000, 1: 2000, 2: 1000}.get(gap, 0)
                assert matrix.shared(f"P{i}", f"P{j}") == expected

    def test_good_mapping_pairs_neighbours(self):
        mappings = figure2_mappings()
        assert mappings["good"] == [
            ["P0", "P1"],
            ["P2", "P3"],
            ["P4", "P5"],
            ["P6", "P7"],
        ]

    def test_good_beats_poor(self):
        matrix = figure2_sharing_matrix()
        mappings = figure2_mappings()
        good = mapping_sharing_total(mappings["good"], matrix)
        poor = mapping_sharing_total(mappings["poor"], matrix)
        assert good == 8000
        assert poor == 0

    def test_render_contains_both_mappings(self):
        rendered = render_figure2()
        assert "Figure 2(a)" in rendered
        assert "Figure 2(b)" in rendered
        assert "Figure 2(c)" in rendered


def _small_scenario() -> Scenario:
    return (
        Scenario().workload("MxM").machine(SMALL_MACHINE, name="small").scale(SCALE)
    )


class TestRunner:
    @pytest.fixture(scope="class")
    def comparison(self):
        return Engine().compare(_small_scenario())

    def test_default_scheduler_order(self, comparison):
        assert SCHEDULER_ORDER == tuple(s.name for s in DEFAULT_SCHEDULERS)
        assert comparison.ordered_names() == list(SCHEDULER_ORDER)

    def test_comparison_records_all(self, comparison):
        assert comparison.label == "MxM"
        assert set(comparison.results) == set(SCHEDULER_ORDER)
        for name in SCHEDULER_ORDER:
            assert comparison.seconds(name) > 0
            assert 0 <= comparison.miss_rate(name) <= 1

    def test_speedup(self, comparison):
        assert comparison.speedup("RS", "RS") == pytest.approx(1.0)

    def test_unknown_scheduler_rejected(self, comparison):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            comparison.seconds("nope")

    def test_schedulers_outside_the_legend_are_kept(self):
        # Legend order first, then the rest in the order they were added.
        comparison = Engine().compare(
            _small_scenario().scheduler("FCFS", "LS", "ETF")
        )
        assert comparison.ordered_names() == ["LS", "FCFS", "ETF"]
        assert [name for name, _ in comparison.ordered_seconds()] == [
            "LS", "FCFS", "ETF",
        ]
        rows = comparisons_to_rows([comparison])
        assert [row["scheduler"] for row in rows] == ["LS", "FCFS", "ETF"]


class TestFigure6:
    @pytest.fixture(scope="class")
    def comparisons(self):
        return run_figure6(machine=SMALL_MACHINE, scale=SCALE)

    def test_all_six_applications(self, comparisons):
        assert [c.label for c in comparisons] == [
            "Med-Im04", "MxM", "Radar", "Shape", "Track", "Usonic",
        ]

    def test_locality_wins_on_average(self, comparisons):
        """The paper's headline: LS beats RS overall in isolation."""
        total_rs = sum(c.seconds("RS") for c in comparisons)
        total_ls = sum(c.seconds("LS") for c in comparisons)
        assert total_ls < total_rs

    def test_ls_and_lsm_close_in_isolation(self, comparisons):
        """Paper: 'the difference between LS and LSM is not too great'
        when applications run in isolation.  Aggregated over the suite the
        two stay within a narrow band (individual tiny-scale apps can
        wobble more)."""
        total_ls = sum(c.seconds("LS") for c in comparisons)
        total_lsm = sum(c.seconds("LSM") for c in comparisons)
        assert 0.8 < total_lsm / total_ls < 1.2

    def test_render(self, comparisons):
        rendered = render_figure6(comparisons)
        assert "Figure 6" in rendered
        assert "MxM" in rendered


class TestFigure7:
    @pytest.fixture(scope="class")
    def comparisons(self):
        return run_figure7(machine=SMALL_MACHINE, scale=SCALE, max_tasks=3)

    def test_labels(self, comparisons):
        assert [c.label for c in comparisons] == ["|T|=1", "|T|=2", "|T|=3"]

    def test_completion_grows_with_pressure(self, comparisons):
        for name in SCHEDULER_ORDER:
            times = [c.seconds(name) for c in comparisons]
            assert times[-1] > times[0]

    def test_locality_wins_under_pressure(self, comparisons):
        last = comparisons[-1]
        assert last.seconds("LS") < last.seconds("RS") * 1.05

    def test_render(self, comparisons):
        rendered = render_figure7(comparisons)
        assert "Figure 7" in rendered
        assert "|T|=3" in rendered


class TestTables:
    def test_table1_lists_all_apps(self):
        rendered = render_table1(scale=SCALE)
        for name in ("Med-Im04", "MxM", "Radar", "Shape", "Track", "Usonic"):
            assert name in rendered

    def test_table2_lists_parameters(self):
        rendered = render_table2()
        assert "8" in rendered
        assert "200 MHz" in rendered
        assert "75 cycles" in rendered


class TestSensitivityAndAblation:
    def test_sensitivity_single_sweep(self):
        points = run_sensitivity(
            num_tasks=2,
            scale=SCALE,
            sweeps=(("cache size", "cache_size_bytes", (2 * KIB, 4 * KIB)),),
        )
        assert len(points) == 2
        rendered = render_sensitivity(points)
        assert "cache size" in rendered

    def test_sensitivity_rejects_bad_tasks(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run_sensitivity(num_tasks=0)

    def test_ablation_rows_cover_studies(self):
        rows = run_ablation(num_tasks=2, scale=SCALE, machine=SMALL_MACHINE)
        studies = {row.study for row in rows}
        assert studies == {"dispatch model", "trim policy", "re-layout threshold"}
        rendered = render_ablation(rows)
        assert "dispatch model" in rendered
