"""The CI bench gate's pass/fail rule, fed synthetic timings.

``scripts/bench_gate.py`` times real passes; its decision is the pure
function :func:`verdict`, checked here without timing anything.
"""

from __future__ import annotations

import importlib.util
import statistics
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("bench_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OVERHEADS = {"bus": 1.05, "noc": 1.09}


def pairs(gate, head_s, base_s=0.40):
    return [(head_s, base_s)] * gate.PAIRS


class TestVerdict:
    def test_fixed_settings(self, gate):
        assert gate.TOLERANCE == 0.20
        assert gate.PAIRS >= 7
        assert gate.ROUNDS >= 30

    def test_equal_trees_pass(self, gate):
        assert gate.verdict(pairs(gate, 0.40), OVERHEADS, OVERHEADS) == []

    def test_head_15_percent_slower_passes(self, gate):
        assert gate.verdict(pairs(gate, 0.46), OVERHEADS, OVERHEADS) == []

    def test_head_30_percent_slower_fails(self, gate):
        failures = gate.verdict(pairs(gate, 0.52), OVERHEADS, OVERHEADS)
        assert len(failures) == 1 and failures[0].startswith("figure7: median")

    def test_faster_head_passes(self, gate):
        assert gate.verdict(pairs(gate, 0.20), OVERHEADS, OVERHEADS) == []

    @pytest.mark.parametrize("crashed", [(None, 0.40), (0.40, None), (None, None)])
    def test_a_crashed_pass_fails(self, gate, crashed):
        timings = pairs(gate, 0.40)
        timings[3] = crashed
        failures = gate.verdict(timings, OVERHEADS, OVERHEADS)
        assert failures == [
            f"figure7: {gate.PAIRS - 1} of {gate.PAIRS} pairs have both passes"
        ]

    def test_a_missing_pair_fails(self, gate):
        failures = gate.verdict(pairs(gate, 0.40)[:-1], OVERHEADS, OVERHEADS)
        assert len(failures) == 1 and failures[0].startswith("figure7:")

    def test_no_pairs_fail(self, gate):
        assert gate.verdict([], OVERHEADS, OVERHEADS)

    def test_ratios_are_taken_within_each_pair(self, gate):
        """A slow spell of the host that catches the head's pass in a few
        pairs moves the head's median but not the per-pair median."""
        n = gate.PAIRS
        mixed = n // 5
        slow = (n - mixed) // 2
        fast = n - mixed - slow
        timings = [(1.0, 1.0)] * fast + [(1.5, 1.5)] * slow + [(1.5, 1.0)] * mixed
        heads = [head for head, _ in timings]
        bases = [base for _, base in timings]
        # Comparing the two trees' medians would read a 50% slowdown.
        assert statistics.median(heads) / statistics.median(bases) == 1.5
        assert gate.verdict(timings, OVERHEADS, OVERHEADS) == []

    def test_every_pair_slower_fails_whatever_the_host_speed(self, gate):
        speeds = [1.0, 1.6] * gate.PAIRS
        timings = [(1.3 * s, s) for s in speeds[: gate.PAIRS]]
        assert gate.verdict(timings, OVERHEADS, OVERHEADS)


class TestContention:
    @pytest.mark.parametrize("model", ["bus", "noc"])
    def test_head_overhead_30_percent_higher_fails(self, gate, model):
        head = dict(OVERHEADS, **{model: OVERHEADS[model] * 1.3})
        failures = gate.verdict(pairs(gate, 0.40), head, OVERHEADS)
        assert len(failures) == 1 and failures[0].startswith(
            f"contention: head {model}"
        )

    @pytest.mark.parametrize("model", ["bus", "noc"])
    def test_head_overhead_15_percent_higher_passes(self, gate, model):
        head = dict(OVERHEADS, **{model: OVERHEADS[model] * 1.15})
        assert gate.verdict(pairs(gate, 0.40), head, OVERHEADS) == []

    @pytest.mark.parametrize("side", ["head", "base"])
    def test_a_crashed_probe_fails(self, gate, side):
        overheads = {"head": OVERHEADS, "base": OVERHEADS, side: None}
        failures = gate.verdict(
            pairs(gate, 0.40), overheads["head"], overheads["base"]
        )
        assert len(failures) == 2
        assert all(failure.startswith("contention: no") for failure in failures)


def test_usage_without_a_base(gate, capsys):
    assert gate.main([]) == 2
    assert "BASE_DIR" in capsys.readouterr().err
