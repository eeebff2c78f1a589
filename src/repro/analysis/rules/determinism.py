"""Rules guarding byte-identical artefacts: RNG, clocks, iteration order.

The reproduction's headline guarantee is that every artefact —
figure 6/7, the tables, the sensitivity and ablation sweeps — is a pure
function of ``(spec, seed)``.  Three things silently break that: global
RNG state, wall-clock reads in simulated time, and iteration over
unordered sets feeding order-sensitive consumers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, dotted_name
from repro.analysis.registry import register_rule

#: The only module allowed to touch ``numpy.random`` machinery: the
#: deterministic wrapper everything else draws through.
_RNG_HOME = "repro.util.rng"

#: ``numpy.random`` attributes that *construct* explicitly-seeded
#: generators rather than touching the hidden global state.
_NP_RANDOM_CONSTRUCTORS = frozenset(
    {
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "SeedSequence",
        "default_rng",
    }
)

#: Wall-clock and entropy reads banned from the simulation hot paths.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "datetime.now",
        "datetime.utcnow",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
    }
)

#: Packages whose modules are simulation/hot-path code: the outputs they
#: influence must be pure functions of the spec, never of the clock.
_HOT_PACKAGES = ("repro.sim", "repro.cache", "repro.sched")

#: Set-method calls that produce a new (unordered) set.
_SET_PRODUCING_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)


@register_rule(
    "unseeded-rng",
    description=(
        "no global random/np.random state outside repro.util.rng — "
        "artefacts must be pure functions of (spec, seed)"
    ),
)
def unseeded_rng(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag stdlib-``random`` use and unseeded ``numpy.random`` state."""
    if ctx.module_name == _RNG_HOME:
        return
    for node in ctx.walk():
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            yield ctx.finding(
                node,
                "unseeded-rng",
                "importing from the stdlib 'random' module pulls in hidden "
                "global state; draw from repro.util.rng.DeterministicRng",
            )
            continue
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted is None:
            continue
        if dotted.startswith("random."):
            yield ctx.finding(
                node,
                "unseeded-rng",
                f"call to stdlib '{dotted}' uses hidden global RNG state; "
                "draw from repro.util.rng.DeterministicRng instead",
            )
            continue
        for prefix in ("np.random.", "numpy.random."):
            if not dotted.startswith(prefix):
                continue
            attr = dotted[len(prefix):]
            if attr not in _NP_RANDOM_CONSTRUCTORS:
                yield ctx.finding(
                    node,
                    "unseeded-rng",
                    f"'{dotted}' touches numpy's hidden global RNG state; "
                    "construct an explicitly-seeded Generator "
                    "(repro.util.rng.DeterministicRng) instead",
                )
            elif attr == "default_rng" and not (node.args or node.keywords):
                yield ctx.finding(
                    node,
                    "unseeded-rng",
                    "'default_rng()' with no seed draws OS entropy; pass an "
                    "explicit seed (or use repro.util.rng.DeterministicRng)",
                )


@register_rule(
    "wall-clock",
    description=(
        "no wall-clock or entropy reads (time.time, datetime.now, "
        "os.urandom) inside the sim/cache/sched hot paths"
    ),
)
def wall_clock(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag clock/entropy reads inside the simulation packages.

    Timing belongs to the harness layers (the engine's retry clocks,
    ``perfbench/``); anything under ``sim``/``cache``/``sched`` feeds
    simulated time and memo keys, where a clock read is nondeterminism.
    """
    if not ctx.in_package(*_HOT_PACKAGES):
        return
    for node in ctx.walk():
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            yield ctx.finding(
                node,
                "wall-clock",
                f"'{dotted}' reads the wall clock (or OS entropy) inside a "
                "simulation hot path; results must depend only on the spec "
                "— move timing to the bench/engine harness layer",
            )


def _is_set_producing(node: ast.AST) -> bool:
    """Whether ``node`` syntactically evaluates to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_PRODUCING_METHODS
            and _is_set_producing(node.func.value)
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return _is_set_producing(node.left) or _is_set_producing(node.right)
    return False


def _set_iteration_sites(ctx: ModuleContext) -> Iterator[tuple[ast.AST, ast.AST]]:
    """``(anchor, iterable)`` pairs where a set is iterated directly."""
    for node in ctx.walk():
        if isinstance(node, ast.For) and _is_set_producing(node.iter):
            yield node.iter, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                if _is_set_producing(generator.iter):
                    yield generator.iter, generator.iter
        elif isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted in ("list", "tuple", "enumerate", "iter") and any(
                _is_set_producing(arg) for arg in node.args
            ):
                yield node, node


@register_rule(
    "unordered-iteration",
    description=(
        "no direct iteration over set expressions — wrap in sorted() so "
        "downstream schedules and hashes are order-stable"
    ),
)
def unordered_iteration(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``for x in set(...)``-shaped iteration without ``sorted``.

    Set iteration order follows hash values, which for strings vary
    with ``PYTHONHASHSEED`` — a loop over a set feeding a schedule, a
    log, or a hash input is a latent nondeterminism even when today's
    consumer happens to be commutative.  Order-insensitive consumers
    (``len``, ``sum``, ``min``…) are allowed; everything else wraps the
    set in ``sorted(...)``.
    """
    for anchor, _ in _set_iteration_sites(ctx):
        yield ctx.finding(
            anchor,
            "unordered-iteration",
            "iterating a set directly follows hash order (varies with "
            "PYTHONHASHSEED); wrap the expression in sorted(...) to pin "
            "a deterministic order",
        )
