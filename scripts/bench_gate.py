#!/usr/bin/env python
"""CI bench gate: is this tree slower than a base tree on the same machine?

Usage: python scripts/bench_gate.py BASE_DIR

``BASE_DIR`` is a checkout of the base commit (CI adds it as a git
worktree); the tree that holds this script is the head.  Both trees run
here, alternately, so the machine's speed cancels out of every ratio:

1. one untimed figure-7 cold pass per tree, since the first simulation of
   a kernel source compiles the kernel;
2. :data:`PAIRS` pairs of fresh-process figure-7 cold passes, flipping
   which tree goes first; each pass runs the head's
   ``perfbench/pass_main.py`` against that tree's ``src/`` with an empty
   memo dir and reads ``pass_s``;
3. one fresh process per tree times RRS on ``mix:4`` under the ``none``,
   ``bus`` and ``noc`` machines over :data:`ROUNDS` interleaved rounds,
   rotating their order each round, and takes each contended machine's
   overhead as the median over the rounds of its time over the ``none``
   time of the same round.

:func:`verdict` decides.  The gate fails when the median of the per-pair
head/base ratios exceeds ``1 + TOLERANCE``, when the head's ``bus`` or
``noc`` overhead exceeds the base's by more than ``TOLERANCE``, or when
any pass or probe crashed, the base's included.  The exit code is 0 only
when it passes.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Mapping, Sequence

HEAD = Path(__file__).resolve().parents[1]
SCRIPTS = Path(__file__).resolve().parent
PASS_MAIN = HEAD / "perfbench" / "pass_main.py"

#: Largest slowdown the gate lets through, for figure 7 and contention.
TOLERANCE = 0.20

#: Timed figure-7 pairs.
PAIRS = 31

#: Interleaved rounds of the contention probe.
ROUNDS = 60

#: The contended machines, each against the ``none`` machine.
CONTENDED = ("bus", "noc")

#: A pass or probe that runs longer than this counts as crashed.
TIMEOUT_S = 600

#: One figure-7 pair: the head's and the base's ``pass_s``, ``None`` for a
#: pass that crashed.
Pair = tuple[float | None, float | None]


def pair_ratios(pairs: Sequence[Pair]) -> list[float]:
    """Head/base ratio of each pair in which both passes ran."""
    return [head / base for head, base in pairs if head and base]


def verdict(
    pairs: Sequence[Pair],
    head_overheads: Mapping[str, float] | None,
    base_overheads: Mapping[str, float] | None,
) -> list[str]:
    """Why the gate fails; an empty list when it passes.

    Each overheads mapping gives the ``bus`` and ``noc`` time ratios over
    ``none``, or is ``None`` when that tree's probe crashed.
    """
    failures = []
    ratios = pair_ratios(pairs)
    if len(ratios) < max(len(pairs), PAIRS):
        failures.append(f"figure7: {len(ratios)} of {PAIRS} pairs have both passes")
    elif statistics.median(ratios) > 1 + TOLERANCE:
        failures.append(
            f"figure7: median head/base ratio {statistics.median(ratios):.3f} "
            f"exceeds {1 + TOLERANCE:.2f}"
        )
    for model in CONTENDED:
        head = (head_overheads or {}).get(model)
        base = (base_overheads or {}).get(model)
        if head is None or base is None:
            failures.append(f"contention: no {model} overhead for both trees")
        elif head > base * (1 + TOLERANCE):
            failures.append(
                f"contention: head {model} overhead x{head:.3f} exceeds the "
                f"base's x{base:.3f} by more than {TOLERANCE:.0%}"
            )
    return failures


def contention_probe() -> dict[str, float]:
    """Median per-round ``bus`` and ``noc`` overheads of RRS on ``mix:4``.

    Runs in a probe process whose ``repro`` is the tree under test, so it
    touches only API that both trees have.  The three runs of a round are
    adjacent, so a spell in which the host runs slow or fast moves them
    together and their ratio cancels it; comparing each machine's fastest
    run over all rounds does not, because one lucky run decides it.
    """
    from repro.campaign.spec import build_campaign_workload
    from repro.sched.round_robin import RoundRobinScheduler
    from repro.sim.config import MachineConfig
    from repro.sim.simulator import MPSoCSimulator

    paper = MachineConfig.paper_default()
    simulators = {
        "none": MPSoCSimulator(paper),
        "bus": MPSoCSimulator(
            paper.with_overrides(
                contention="bus", contention_params={"lines_per_quantum": 64}
            )
        ),
        "noc": MPSoCSimulator(
            paper.with_overrides(contention="noc", contention_params={"hop_cycles": 4})
        ),
    }
    epg = build_campaign_workload("mix:4", scale=1.0, seed=0)
    scheduler = RoundRobinScheduler()
    for simulator in simulators.values():
        simulator.run(epg, scheduler)  # builds the traces and plans
    names = list(simulators)
    ratios: dict[str, list[float]] = {model: [] for model in CONTENDED}
    for k in range(ROUNDS):
        seconds = {}
        for name in names[k % 3 :] + names[: k % 3]:
            start = time.perf_counter()
            simulators[name].run(epg, scheduler)
            seconds[name] = time.perf_counter() - start
        for model in CONTENDED:
            ratios[model].append(seconds[model] / seconds["none"])
    return {model: statistics.median(ratios[model]) for model in CONTENDED}


class Runner:
    """Fresh processes of either tree, all inside one scratch directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._count = 0
        self.cwd = self.fresh("cwd")
        # No engine switch, fault plan or memo dir from the caller; a
        # private kernel cache; the program's temporary files in here.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["XDG_CACHE_HOME"] = str(self.fresh("xdg"))
        self.env["TMPDIR"] = str(self.fresh("tmp"))

    def fresh(self, label: str) -> Path:
        self._count += 1
        path = self.root / f"{label}-{self._count}"
        path.mkdir()
        return path

    def last_line(self, tree: Path, command: list[str], path: str = "") -> str | None:
        """The last stdout line of ``command`` run on ``tree``'s ``src/``;
        ``None`` when it fails."""
        env = dict(self.env, PYTHONPATH=str(tree / "src") + path)
        try:
            proc = subprocess.run(
                command, cwd=self.cwd, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"bench gate: timed out on {tree}", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench gate: failed on {tree}:", file=sys.stderr)
            print(proc.stderr[-2000:], file=sys.stderr)
            return None
        return lines[-1]

    def figure7_pass(self, tree: Path) -> float | None:
        """``pass_s`` of one cold figure-7 pass; ``None`` if it crashed."""
        memo = self.fresh("memo")
        line = self.last_line(
            tree,
            [
                sys.executable, str(PASS_MAIN), "--workload", "figure7",
                "--seed", "0", "--memo-dir", str(memo),
            ],
        )
        if line is None:
            return None
        data = json.loads(line)
        return float(data["pass_s"]) if data["failures"] == 0 else None

    def overheads(self, tree: Path) -> dict[str, float] | None:
        """The probe's ``bus`` and ``noc`` overheads; ``None`` if it crashed."""
        probe = (
            "import bench_gate, json; "
            "print(json.dumps(bench_gate.contention_probe()))"
        )
        command = [sys.executable, "-c", probe]
        line = self.last_line(tree, command, os.pathsep + str(SCRIPTS))
        return None if line is None else dict(json.loads(line))


def _seconds(value: float | None) -> str:
    return "crashed" if value is None else f"{value:.3f} s"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/bench_gate.py BASE_DIR", file=sys.stderr)
        return 2
    trees = {"head": HEAD, "base": Path(argv[0]).resolve()}
    root = Path(tempfile.mkdtemp(prefix="bench-gate-"))
    try:
        runner = Runner(root)
        for tree in trees.values():
            runner.figure7_pass(tree)
        pairs: list[Pair] = []
        for k in range(PAIRS):
            order = ("head", "base") if k % 2 == 0 else ("base", "head")
            seconds = {name: runner.figure7_pass(trees[name]) for name in order}
            pairs.append((seconds["head"], seconds["base"]))
            print(
                f"figure7 pair {k + 1}/{PAIRS}, {order[0]} first: "
                f"head {_seconds(seconds['head'])}, base {_seconds(seconds['base'])}"
            )
        overheads = {name: runner.overheads(tree) for name, tree in trees.items()}
    finally:
        shutil.rmtree(root, ignore_errors=True)
    ratios = pair_ratios(pairs)
    if ratios:
        print(f"figure7 median head/base ratio: {statistics.median(ratios):.3f}")
    for name, tree_overheads in overheads.items():
        print(f"contention overheads, {name}: {tree_overheads}")
    failures = verdict(pairs, overheads["head"], overheads["base"])
    for failure in failures:
        print(f"bench gate: FAIL {failure}", file=sys.stderr)
    if not failures:
        print("bench gate: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
