"""Command-line interface: regenerate any paper artefact from a shell.

The usage block below is appended to this docstring at import time by
:func:`render_cli_usage`, generated from the argparse parser itself so
the documented flags can never drift from the real ones.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import CampaignError, ReproError

#: Exit status of a gracefully interrupted run (128 + SIGINT, the shell
#: convention), distinct from usage errors (2) and quarantine (3).
EXIT_INTERRUPTED = 130

# The experiment and campaign machinery (and numpy underneath) is
# imported inside the dispatch functions: building the parser must stay
# cheap so ``python -m repro <cmd>`` spends its wall time on the command,
# and a usage error costs milliseconds.
if TYPE_CHECKING:
    from repro.campaign.executor import RunResult
    from repro.campaign.spec import CampaignSpec


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Locality-Aware Process Scheduling for "
            "Embedded MPSoCs' (DATE 2005): regenerate the paper's tables "
            "and figures, or sweep arbitrary scenario grids."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}",
        help="print the build version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_memo_dir(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--memo-dir", type=str, default=None, dest="memo_dir",
            help=(
                "attach a persistent cross-process memo store (trace "
                "analyses + campaign cells); also via REPRO_MEMO_DIR"
            ),
        )

    def add_robustness(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--max-retries", type=int, default=0, dest="max_retries",
            help=(
                "re-attempt a failing cell up to N times with exponential "
                "backoff before quarantining it"
            ),
        )
        subparser.add_argument(
            "--cell-timeout", type=float, default=None, dest="cell_timeout",
            help="per-cell wall-clock budget in seconds (default: none)",
        )
        subparser.add_argument(
            "--keep-going", action="store_true", dest="keep_going",
            help=(
                "quarantine failing cells and finish the rest instead of "
                "aborting on the first failure; --resume repairs them later"
            ),
        )

    sub.add_parser("tables", help="print Tables 1 and 2")
    sub.add_parser("figure2", help="print the Figure-2 worked example")

    memo = sub.add_parser(
        "memo",
        help="inspect, verify, or clear the persistent memo store",
    )
    memo.add_argument(
        "action", choices=("stats", "verify", "clear"),
        help=(
            "show entry counts and size, run an integrity check, or drop "
            "every persisted entry"
        ),
    )
    add_memo_dir(memo)

    check = sub.add_parser(
        "check",
        help=(
            "run the static-analysis rules (determinism, pickle-safety, "
            "worker-state invariants) over the source tree"
        ),
    )
    from repro.analysis.cli import add_check_arguments

    add_check_arguments(check)

    lst = sub.add_parser(
        "list",
        help="list the registered schedulers, workloads, or machine presets",
    )
    lst.add_argument(
        "what",
        choices=("schedulers", "workloads", "machines", "arrivals", "contentions"),
        help="which registry to list",
    )

    fig6 = sub.add_parser("figure6", help="run the isolated-application figure")
    fig6.add_argument("--scale", type=float, default=1.0)
    fig6.add_argument("--seed", type=int, default=0)
    fig6.add_argument("--jobs", type=int, default=1)
    fig6.add_argument("--csv", type=str, default=None)
    add_memo_dir(fig6)

    fig7 = sub.add_parser("figure7", help="run the concurrent-mix figure")
    fig7.add_argument("--scale", type=float, default=1.0)
    fig7.add_argument("--seed", type=int, default=0)
    fig7.add_argument("--max-tasks", type=int, default=6)
    fig7.add_argument("--jobs", type=int, default=1)
    fig7.add_argument("--csv", type=str, default=None)
    add_memo_dir(fig7)

    sens = sub.add_parser("sensitivity", help="run the parameter sweeps")
    sens.add_argument("--tasks", type=int, default=3)
    sens.add_argument("--scale", type=float, default=1.0)
    sens.add_argument("--jobs", type=int, default=1)
    add_memo_dir(sens)

    abl = sub.add_parser("ablation", help="run the design ablations")
    abl.add_argument("--tasks", type=int, default=4)
    abl.add_argument("--scale", type=float, default=1.0)
    abl.add_argument("--jobs", type=int, default=1)
    add_memo_dir(abl)

    osys = sub.add_parser(
        "open-system",
        help="run the open-system arrival experiment (beyond the paper)",
    )
    osys.add_argument(
        "--apps", type=int, default=8,
        help="application instances in the arrival stream (stream:N)",
    )
    osys.add_argument(
        "--rates", type=str, default="1000,2000,4000",
        help="comma list of arrival rates in apps/second (one grid axis)",
    )
    osys.add_argument(
        "--process", type=str, default="poisson",
        help="arrival process name (see 'repro list arrivals')",
    )
    osys.add_argument(
        "--schedulers", type=str, default="RS,LS,ETF,WS,LA",
        help="comma list of scheduler names (dynamic or shared-queue)",
    )
    osys.add_argument("--seeds", type=str, default="0,1")
    osys.add_argument("--scale", type=float, default=0.5)
    osys.add_argument("--machine", type=str, default=None,
                      help="machine preset (e.g. big-little)")
    osys.add_argument("--jobs", type=int, default=1)
    osys.add_argument(
        "--resume", action="store_true",
        help="skip cells already present in the result store",
    )
    osys.add_argument(
        "--store", type=str, default=None,
        help="result store path (default: .repro-campaign/<spec-hash>.jsonl)",
    )
    osys.add_argument("--csv", type=str, default=None,
                      help="also export per-run open metrics as CSV")
    osys.add_argument(
        "--smoke", action="store_true",
        help="CI-smoke sizes (a few seconds, still 3 rates x 3+ schedulers)",
    )
    osys.add_argument("--quiet", action="store_true")
    add_robustness(osys)
    add_memo_dir(osys)

    bench = sub.add_parser(
        "bench",
        help="time the cache kernels and one figure-7 mix; write JSON",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="CI-smoke sizes (seconds, not minutes)",
    )
    bench.add_argument(
        "--output", type=str, default=".repro-bench.json",
        help="where to write the JSON results (default: the untracked "
        ".repro-bench.json; committed baselines are BENCH_*.json)",
    )

    camp = sub.add_parser(
        "campaign",
        help="run a declarative (workload x machine x scheduler x seed) grid",
    )
    camp.add_argument(
        "--spec", type=str, default=None,
        help="JSON campaign spec file (overrides the inline grid flags)",
    )
    camp.add_argument(
        "--workloads", type=str, default="all",
        help="comma list: app names, 'all', 'mix:N', 'random-mix:N'",
    )
    camp.add_argument(
        "--machines", type=str, default="paper",
        help="comma list of machine presets (e.g. paper,cache-16k,cores-4)",
    )
    camp.add_argument(
        "--schedulers", type=str, default="RS,RRS,LS,LSM",
        help="comma list of scheduler names (RS,RRS,LS,LSM,LS-static,FCFS)",
    )
    camp.add_argument(
        "--seeds", type=str, default="0,1",
        help="comma list of integer seeds (one grid axis)",
    )
    camp.add_argument("--scale", type=float, default=1.0)
    camp.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the parallel executor",
    )
    camp.add_argument(
        "--resume", action="store_true",
        help="skip cells already present in the result store",
    )
    camp.add_argument(
        "--store", type=str, default=None,
        help="result store path (default: .repro-campaign/<spec-hash>.jsonl)",
    )
    camp.add_argument(
        "--csv", type=str, default=None,
        help="also export per-run rows as CSV",
    )
    camp.add_argument(
        "--jsonl", type=str, default=None,
        help="also export per-run rows as JSON lines",
    )
    camp.add_argument(
        "--quiet", action="store_true",
        help="suppress per-cell progress lines",
    )
    add_robustness(camp)
    add_memo_dir(camp)

    serve = sub.add_parser(
        "serve",
        help=(
            "run the campaign service: accept spec submissions over a "
            "local socket and stream per-cell progress back as JSON lines"
        ),
    )
    serve.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="interface to bind (local by design)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 picks an ephemeral port, announced on stdout",
    )
    serve.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes per running campaign",
    )
    serve.add_argument(
        "--max-active", type=int, default=2, dest="max_active",
        help="campaigns executing concurrently",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=8, dest="queue_limit",
        help=(
            "bounded admission queue: campaigns admitted but unfinished; "
            "past it, submissions get a structured retry-after reject"
        ),
    )
    serve.add_argument(
        "--max-retries", type=int, default=2, dest="max_retries",
        help="per-cell retry budget (services absorb transient failure)",
    )
    serve.add_argument(
        "--cell-timeout", type=float, default=120.0, dest="cell_timeout",
        help="per-attempt wall-clock budget in seconds",
    )
    serve.add_argument(
        "--lease", type=float, default=15.0, dest="lease_seconds",
        help=(
            "worker-liveness lease in seconds: a worker silent this long "
            "has its cell resubmitted"
        ),
    )
    serve.add_argument(
        "--store-root", type=str, default=".repro-campaign", dest="store_root",
        help="directory of the JSONL result stores and spec sidecars",
    )
    add_memo_dir(serve)
    return parser


def render_cli_usage() -> str:
    """The docstring usage block, generated from the parser.

    One line per subcommand with every optional flag and its metavar, so
    the documentation is definitionally in sync with the parser.
    """
    parser = _build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return _render_usage_lines(subparsers)


def _render_usage_lines(subparsers: argparse._SubParsersAction) -> str:
    lines = ["Usage (after ``pip install -e .``)::", ""]
    for name, subparser in subparsers.choices.items():
        flags = []
        for action in subparser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if not action.option_strings:  # positional argument
                if action.choices:
                    flags.append("{" + ",".join(map(str, action.choices)) + "}")
                else:
                    flags.append(action.dest.upper())
                continue
            option = action.option_strings[-1]
            if action.nargs == 0:
                flags.append(f"[{option}]")
            else:
                flags.append(f"[{option} {action.dest.upper()}]")
        suffix = (" " + " ".join(flags)) if flags else ""
        lines.append(f"    python -m repro {name}{suffix}")
    lines += [
        "",
        "Every subcommand prints a rendered ASCII artefact; ``--csv`` also",
        "writes raw rows for post-processing, and ``campaign`` keeps a",
        "resumable JSON-lines result store keyed by the spec hash.",
    ]
    return "\n".join(lines)


# The generation walks argparse internals (_actions and friends); if a
# future Python changes them, degrade to the plain docstring rather than
# breaking every CLI invocation at import time.
try:
    __doc__ = (__doc__ or "").rstrip() + "\n\n" + render_cli_usage() + "\n"
except Exception:  # pragma: no cover - depends on the Python version
    pass


def _split_csv_flag(raw: str, flag: str) -> list[str]:
    items = [item.strip() for item in raw.split(",") if item.strip()]
    if not items:
        raise CampaignError(f"--{flag} must name at least one entry")
    return items


def _campaign_spec_from_args(args: argparse.Namespace) -> "CampaignSpec":
    """Build the campaign spec a ``campaign`` invocation describes.

    The inline grid flags assemble a :class:`~repro.api.scenario.Scenario`
    — the CLI is just another facade client — and normalize it to the
    same frozen spec a JSON file or library caller would produce.
    """
    from repro.api.scenario import Scenario
    from repro.campaign.spec import CampaignSpec

    if args.spec is not None:
        return CampaignSpec.from_file(args.spec)
    try:
        seeds = [int(s) for s in _split_csv_flag(args.seeds, "seeds")]
    except ValueError:
        raise CampaignError(
            f"--seeds must be a comma list of integers, got {args.seeds!r}"
        ) from None
    workload_items = _split_csv_flag(args.workloads, "workloads")
    workloads: list[str] = []
    for item in workload_items:
        if item == "all":
            from repro.workloads.suite import workload_names

            workloads.extend(workload_names())
        else:
            workloads.append(item)
    scenario = (
        Scenario()
        .workload(*workloads)
        .scheduler(*_split_csv_flag(args.schedulers, "schedulers"))
        .seed(*seeds)
        .scale(args.scale)
        # "--workloads all" is the classic suite sweep; keep its historic
        # campaign name so spec hashes (and store paths) stay stable.
        .name("suite" if workload_items == ["all"] else "campaign")
    )
    for name in _split_csv_flag(args.machines, "machines"):
        scenario = scenario.machine(name)
    return scenario.to_campaign()


def _run_list_command(args: argparse.Namespace) -> int:
    from repro.api.registries import (
        list_arrivals,
        list_contentions,
        list_machines,
        list_schedulers,
        list_workloads,
    )

    rows = {
        "schedulers": list_schedulers,
        "workloads": list_workloads,
        "machines": list_machines,
        "arrivals": list_arrivals,
        "contentions": list_contentions,
    }[args.what]()
    print(f"registered {args.what} ({len(rows)}):")
    width = max(len(name) for name, _, _ in rows)
    for name, origin, description in rows:
        marker = "" if origin == "builtin" else f" [{origin}]"
        print(f"  {name:<{width}}  {description}{marker}")
    if args.what == "workloads":
        print(
            "\n'name:N' entries are parameterized families; reference them "
            "with a count (e.g. mix:3)."
        )
    return 0


@contextlib.contextmanager
def _graceful_signals() -> Iterator[None]:
    """Route SIGTERM onto the KeyboardInterrupt path SIGINT already takes.

    Long campaign runs are sent SIGTERM by schedulers and CI harnesses
    at least as often as a human presses Ctrl-C; both must exit through
    the same code path that prints the partial-progress resume hint.
    Off the main thread (or where signals are unavailable) this is a
    no-op — the run simply has no graceful-interrupt window.
    """

    def raise_interrupt(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous: dict[int, object] = {}
    with contextlib.suppress(ValueError, OSError, RuntimeError):
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, raise_interrupt)
    try:
        yield
    finally:
        for signum, handler in previous.items():
            with contextlib.suppress(ValueError, OSError, RuntimeError):
                signal.signal(signum, handler)  # type: ignore[arg-type]


def _report_interrupt(command: str, spec_hash: str, store_path: object) -> int:
    """The graceful-interrupt epilogue: where the progress went, how to resume."""
    print(
        "\ninterrupted: completed cells are flushed to the result store; "
        "nothing is lost."
    )
    print(f"[store: {store_path}]")
    print(
        f"resume with: python -m repro {command} ... --resume   "
        f"(spec hash {spec_hash})"
    )
    return EXIT_INTERRUPTED


def _report_failures(outcome, quiet: bool) -> int:
    """Print the quarantine report; return the process exit code.

    A campaign that quarantined cells exits 3 (distinct from usage
    errors) so CI and scripts can detect partial completion; rerunning
    with ``--resume`` re-attempts exactly the quarantined cells.
    """
    from repro.campaign.rollup import render_failures

    if outcome.downgraded and not quiet:
        print(
            f"\n{outcome.downgraded} cell(s) downgraded to the scalar "
            "engine after a fast-path error (results are identical; see "
            "the 'downgraded' field in the store)."
        )
    if not outcome.failures:
        return 0
    print()
    print(render_failures(outcome.failures))
    print(
        f"\n{len(outcome.failures)} of {outcome.total} cells quarantined "
        "after exhausting retries; rerun with --resume to re-attempt them."
    )
    if not quiet and any(f.injected for f in outcome.failures):
        print("(* = injected by the active REPRO_FAULT_PLAN)")
    return 3


def _run_campaign_command(args: argparse.Namespace) -> int:
    from repro.api.engine import Engine
    from repro.campaign.executor import RunResult
    from repro.campaign.rollup import (
        render_rollup,
        write_results_csv,
        write_results_jsonl,
    )
    from repro.campaign.store import ResultStore

    spec = _campaign_spec_from_args(args)
    store = ResultStore(
        args.store
        if args.store is not None
        else ResultStore.default_path(spec.spec_hash())
    )

    def progress(result: "RunResult", done: int, total: int) -> None:
        if not args.quiet:
            print(
                f"  [{done}/{total}] {result.workload} @ {result.machine} "
                f"/ {result.scheduler} seed={result.seed}: "
                f"{result.seconds * 1e3:.3f} ms, miss {result.miss_rate:.4f}"
            )

    print(
        f"campaign {spec.name!r} ({spec.spec_hash()}): {spec.num_cells} cells "
        f"({len(spec.workloads)} workloads x {len(spec.machines)} machines x "
        f"{len(spec.schedulers)} schedulers x {len(spec.seeds)} seeds), "
        f"jobs={args.jobs}"
    )
    try:
        with _graceful_signals():
            outcome = Engine(
                jobs=args.jobs,
                store=store,
                resume=args.resume,
                progress=progress,
                max_retries=args.max_retries,
                cell_timeout=args.cell_timeout,
                keep_going=args.keep_going,
            ).run_campaign(spec)
    except KeyboardInterrupt:
        return _report_interrupt("campaign", spec.spec_hash(), store.path)
    if outcome.skipped:
        print(f"  [resume] skipped {outcome.skipped} completed cells")
    print()
    if outcome.results:
        print(render_rollup(outcome.results, title=f"Campaign rollup: {spec.name}"))
    else:
        print("(no completed cells to roll up)")
    print(f"\n[store: {outcome.store_path}]")
    if args.csv and outcome.results:
        print(f"[csv written to {write_results_csv(outcome.results, args.csv)}]")
    if args.jsonl and outcome.results:
        print(f"[jsonl written to {write_results_jsonl(outcome.results, args.jsonl)}]")
    return _report_failures(outcome, args.quiet)


def _run_open_system_command(args: argparse.Namespace) -> int:
    from repro.campaign.executor import RunResult
    from repro.experiments.open_system import (
        render_open_system,
        run_open_system,
        write_open_csv,
    )

    try:
        rates = [float(r) for r in _split_csv_flag(args.rates, "rates")]
        seeds = [int(s) for s in _split_csv_flag(args.seeds, "seeds")]
    except ValueError:
        raise CampaignError(
            "--rates and --seeds must be comma lists of numbers"
        ) from None
    schedulers = _split_csv_flag(args.schedulers, "schedulers")
    apps, scale = args.apps, args.scale
    if args.smoke:
        # Small enough for CI, still >= 3 rates x 3 schedulers so the
        # artefact shape matches the full run.
        apps, scale, seeds = min(apps, 4), min(scale, 0.25), seeds[:1]

    def progress(result: "RunResult", done: int, total: int) -> None:
        if not args.quiet and result.open is not None:
            print(
                f"  [{done}/{total}] {result.arrival} / {result.scheduler} "
                f"seed={result.seed}: resp "
                f"{result.open['response_mean_ms']:.3f} ms, "
                f"p99 {result.open['response_p99_ms']:.3f} ms"
            )

    try:
        with _graceful_signals():
            outcome = run_open_system(
                apps=apps,
                rates=rates,
                schedulers=schedulers,
                seeds=seeds,
                scale=scale,
                process=args.process,
                machine=args.machine,
                jobs=args.jobs,
                store=args.store,
                resume=args.resume,
                progress=progress,
                max_retries=args.max_retries,
                cell_timeout=args.cell_timeout,
                keep_going=args.keep_going,
            )
    except KeyboardInterrupt:
        from repro.campaign.store import ResultStore
        from repro.experiments.open_system import campaign_spec_open_system

        spec_hash = campaign_spec_open_system(
            apps=apps,
            rates=rates,
            schedulers=schedulers,
            seeds=seeds,
            scale=scale,
            process=args.process,
            machine=args.machine,
        ).spec_hash()
        store_path = (
            args.store
            if args.store is not None
            else ResultStore.default_path(spec_hash)
        )
        return _report_interrupt("open-system", spec_hash, store_path)
    if outcome.skipped:
        print(f"  [resume] skipped {outcome.skipped} completed cells")
    print()
    if outcome.results:
        print(render_open_system(outcome))
    else:
        print("(no completed cells to report)")
    print(f"\n[store: {outcome.store_path}]")
    if args.csv and outcome.results:
        print(f"[csv written to {write_open_csv(outcome, args.csv)}]")
    return _report_failures(outcome, args.quiet)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code (2 on a usage error)."""
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _run_memo_command(args: argparse.Namespace) -> int:
    from repro.cache.store import MemoStore, active_memo_store

    # ``stats`` and ``verify`` attach read-only so inspecting a mistyped
    # path cannot create a stray directory and database.
    mode = "rw" if args.action == "clear" else "ro"
    if args.memo_dir is not None:
        store = MemoStore(args.memo_dir, mode=mode)
    else:
        store = active_memo_store()
        if store is None:
            store = MemoStore(".repro-memo", mode=mode)
    if args.action == "clear":
        store.clear()
        print(f"cleared persistent memo store at {store.path}")
        return 0
    if args.action == "verify":
        report = store.verify()
        print(f"persistent memo store: {report['path']}")
        print(f"  status: {report['status']}")
        print(f"  integrity: {report['integrity'] or '(no database)'}")
        if report["status"] in ("ok", "stale"):
            print(
                f"  schema version: {report['version'] or '(unstamped)'}"
                + ("" if report["version_ok"] else " [stale]")
            )
        if report["entries"]:
            print(f"  entries: {sum(report['entries'].values())}")
        if report["status"] == "corrupt":
            print(
                "  a read-write attach will quarantine this database "
                "(rename it aside) and rebuild a fresh one"
            )
        return 0 if report["status"] == "ok" else 3
    stats = store.stats()
    entries = stats["entries"]
    print(f"persistent memo store: {stats['path']}")
    print(f"  schema version: {stats['version']}")
    print(f"  size: {stats['size_bytes'] / 1024:.1f} KiB")
    print(f"  trace analyses: {entries.get('analysis', 0)}")
    print(f"  sharing matrices: {entries.get('sharing', 0)}")
    print(f"  campaign cells: {entries.get('cell', 0)}")
    if stats["health"]["status"] != "ok":
        print(
            f"  health: {stats['health']['status']} "
            f"({stats['health']['detail']})"
        )
    return 0


def _run_serve_command(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.serve.server import run_server
    from repro.serve.service import ServeConfig

    config = ServeConfig(
        store_root=Path(args.store_root),
        jobs=args.jobs,
        max_active=args.max_active,
        queue_limit=args.queue_limit,
        max_retries=args.max_retries,
        cell_timeout=args.cell_timeout if args.cell_timeout > 0 else None,
        lease_seconds=args.lease_seconds if args.lease_seconds > 0 else None,
    )

    def announce(evt: dict) -> None:
        # One machine-readable line: clients of --port 0 read the bound
        # port from here.
        print(json.dumps(evt, sort_keys=True), flush=True)

    code = run_server(host=args.host, port=args.port, config=config,
                      announce=announce)
    print("campaign service drained and stopped.", flush=True)
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if getattr(args, "memo_dir", None) is not None and args.command != "memo":
        from repro.cache.store import configure_memo_store

        configure_memo_store(args.memo_dir)
    if args.command == "memo":
        return _run_memo_command(args)
    if args.command == "check":
        from repro.analysis.cli import run_check_command

        return run_check_command(args)
    if args.command == "tables":
        from repro.experiments.tables import render_table1, render_table2

        print(render_table1())
        print()
        print(render_table2())
    elif args.command == "figure2":
        from repro.experiments.figure2 import render_figure2

        print(render_figure2())
    elif args.command == "list":
        return _run_list_command(args)
    elif args.command == "figure6":
        from repro.experiments.export import write_csv
        from repro.experiments.figure6 import render_figure6, run_figure6

        comparisons = run_figure6(scale=args.scale, seed=args.seed, jobs=args.jobs)
        print(render_figure6(comparisons))
        if args.csv:
            print(f"\n[csv written to {write_csv(comparisons, args.csv)}]")
    elif args.command == "figure7":
        from repro.experiments.export import write_csv
        from repro.experiments.figure7 import render_figure7, run_figure7

        comparisons = run_figure7(
            scale=args.scale, seed=args.seed, max_tasks=args.max_tasks, jobs=args.jobs
        )
        print(render_figure7(comparisons))
        if args.csv:
            print(f"\n[csv written to {write_csv(comparisons, args.csv)}]")
    elif args.command == "sensitivity":
        from repro.experiments.sensitivity import (
            render_sensitivity,
            run_sensitivity,
        )

        print(
            render_sensitivity(
                run_sensitivity(num_tasks=args.tasks, scale=args.scale, jobs=args.jobs)
            )
        )
    elif args.command == "ablation":
        from repro.experiments.ablation import render_ablation, run_ablation

        print(
            render_ablation(
                run_ablation(num_tasks=args.tasks, scale=args.scale, jobs=args.jobs)
            )
        )
    elif args.command == "open-system":
        return _run_open_system_command(args)
    elif args.command == "bench":
        from repro.bench import render_bench, run_bench, write_bench

        results = run_bench(quick=args.quick)
        print(render_bench(results))
        print(f"\n[json written to {write_bench(results, args.output)}]")
    elif args.command == "campaign":
        return _run_campaign_command(args)
    elif args.command == "serve":
        return _run_serve_command(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
