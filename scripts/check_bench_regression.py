#!/usr/bin/env python
"""Fail CI when the figure-7 cold wall-clock regresses vs the baseline.

Usage::

    python scripts/check_bench_regression.py FRESH.json \
        [--baseline BENCH_PR12.json] [--tolerance 0.20]

Compares the fresh bench run's ``figure7.cold_seconds`` against the
committed baseline, normalized by relative machine speed (the scalar
cache kernel's accesses/second is the yardstick: a machine that runs the
scalar kernel at half the baseline's speed is allowed twice the
wall-clock).  A fresh run more than ``tolerance`` slower than the
normalized baseline fails with exit code 1.

When BOTH files carry a ``contention`` section, the contention-charging
overhead ratios (contended wall-clock / uncontended wall-clock, already
machine-independent) are gated with the same tolerance.  A baseline
predating the contention axis is simply skipped, so older committed
baselines (BENCH_PR5.json) stay valid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"cannot read bench results {path}: {exc}")


def check_contention(fresh: dict, baseline: dict, tolerance: float) -> int:
    """Gate the contention-model charging overhead, if both runs have it."""
    fresh_con = fresh.get("contention")
    base_con = baseline.get("contention")
    if not isinstance(fresh_con, dict) or not isinstance(base_con, dict):
        print("contention: section absent from fresh or baseline, skipped")
        return 0
    failures = 0
    for key in ("bus_overhead", "noc_overhead"):
        try:
            fresh_ratio = float(fresh_con[key])
            base_ratio = float(base_con[key])
        except (KeyError, TypeError, ValueError):
            print(f"contention: {key} missing, skipped")
            continue
        limit = base_ratio * (1.0 + tolerance)
        verdict = "OK" if fresh_ratio <= limit else "REGRESSION"
        print(
            f"contention {key}: fresh x{fresh_ratio:.2f} vs baseline "
            f"x{base_ratio:.2f} (limit x{limit:.2f}) -> {verdict}"
        )
        if fresh_ratio > limit:
            failures += 1
    if failures:
        print(
            "contention charging overhead regressed more than "
            f"{tolerance:.0%} vs the committed baseline", file=sys.stderr
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="bench JSON produced by this CI run")
    parser.add_argument(
        "--baseline", default="BENCH_PR12.json",
        help="committed reference bench JSON",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional slowdown after machine normalization",
    )
    args = parser.parse_args(argv)

    fresh = load(args.fresh)
    baseline = load(args.baseline)

    fresh_fig = fresh.get("figure7", {})
    base_fig = baseline.get("figure7", {})
    if fresh_fig.get("max_tasks") != base_fig.get("max_tasks"):
        sys.exit(
            "bench shapes differ (max_tasks "
            f"{fresh_fig.get('max_tasks')} vs {base_fig.get('max_tasks')}): "
            "run the same bench mode as the committed baseline"
        )
    try:
        fresh_cold = float(fresh_fig["cold_seconds"])
        base_cold = float(base_fig["cold_seconds"])
        fresh_kernels = fresh["cache_kernels"]["random"]
        base_kernels = baseline["cache_kernels"]["random"]
        # figure7 mixes pure-Python driver work with vectorized kernels,
        # so normalize by the geometric mean of both throughput ratios.
        scalar_ratio = float(base_kernels["scalar_mps"]) / float(
            fresh_kernels["scalar_mps"]
        )
        vector_ratio = float(base_kernels["vectorized_mps"]) / float(
            fresh_kernels["vectorized_mps"]
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        sys.exit(f"bench results missing expected fields: {exc!r}")

    machine_factor = (scalar_ratio * vector_ratio) ** 0.5
    limit = base_cold * machine_factor * (1.0 + args.tolerance)
    verdict = "OK" if fresh_cold <= limit else "REGRESSION"
    print(
        f"figure7 cold: fresh {fresh_cold:.3f}s vs baseline {base_cold:.3f}s "
        f"(machine factor {machine_factor:.2f}, normalized limit "
        f"{limit:.3f}s) -> {verdict}"
    )
    failed = check_contention(fresh, baseline, args.tolerance) > 0
    if fresh_cold > limit:
        print(
            "figure7 cold wall-clock regressed more than "
            f"{args.tolerance:.0%} vs the committed baseline", file=sys.stderr
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
