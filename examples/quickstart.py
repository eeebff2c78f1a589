"""Quickstart: schedule one application under all four strategies.

Everything goes through the ``repro.api`` facade: a fluent ``Scenario``
describes *what* to run (the paper's MxM task on the Table-2 MPSoC under
RS, RRS, LS, and LSM), and the ``Engine`` runs it, returning the same
typed records the figure harnesses use.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import MachineConfig
from repro.api import Engine, Scenario


def main() -> None:
    machine = MachineConfig.paper_default()
    print("Machine (Table 2):")
    for parameter, value in machine.describe():
        print(f"  {parameter}: {value}")

    # One workload, one machine, one seed, four schedulers -> one
    # comparison.  Axes left unset take the paper's defaults, so
    # .scheduler(...) below is only spelled out for the tour.
    scenario = (
        Scenario()
        .workload("MxM")
        .scheduler("RS", "RRS", "LS", "LSM")
        .seed(1)
    )
    comparison = Engine().compare(scenario)

    print("\nResults:")
    baseline = None
    for name, seconds in comparison.ordered_seconds():
        result = comparison.results[name]
        if baseline is None:
            baseline = seconds
        print(
            f"  {name:>4}: {seconds * 1e3:7.3f} ms"
            f"  (miss rate {result.miss_rate:.3f},"
            f" utilisation {result.utilization:.2f},"
            f" {baseline / seconds:.2f}x vs RS)"
        )

    print(
        f"\nLS is {comparison.speedup('RS', 'LS'):.2f}x faster than RS; "
        f"LSM reaches {comparison.speedup('RS', 'LSM'):.2f}x."
    )


if __name__ == "__main__":
    main()
