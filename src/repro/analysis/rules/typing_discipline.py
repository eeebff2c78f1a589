"""Rule enforcing the ``mypy --strict`` typing discipline on the core.

CI gates the core packages under ``mypy --strict`` (see
``pyproject.toml``), but mypy only runs where it is installed; this rule
keeps the two loudest strictness requirements — every def fully
annotated, no bare generic annotations — enforceable by ``repro check``
alone, so a contributor without the dev extras still cannot land an
unannotated core function.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext
from repro.analysis.registry import register_rule

#: The packages/modules gated under ``mypy --strict``; keep in sync with
#: ``[tool.mypy]`` in pyproject.toml.
STRICT_CORE = (
    "repro.analysis",
    "repro.api",
    "repro.campaign",
    "repro.cache.native",
    "repro.cache.store",
    "repro.serve",
    "repro.sim.contention",
    "repro.sim.qplan",
    "repro.util",
)

#: Generic types that must never appear unparameterized in annotations
#: (mypy strict's ``disallow_any_generics``).
_BARE_GENERICS = frozenset(
    {
        "dict",
        "list",
        "set",
        "frozenset",
        "tuple",
        "type",
        "Callable",
        "OrderedDict",
        "defaultdict",
        "deque",
    }
)

_SELF_NAMES = frozenset({"self", "cls"})


def _unannotated_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """Parameter names missing annotations (``self``/``cls`` exempt)."""
    params = [
        *node.args.posonlyargs,
        *node.args.args,
        *node.args.kwonlyargs,
    ]
    missing = [
        arg.arg
        for index, arg in enumerate(params)
        if arg.annotation is None
        and not (index == 0 and arg.arg in _SELF_NAMES)
    ]
    for star in (node.args.vararg, node.args.kwarg):
        if star is not None and star.annotation is None:
            missing.append(star.arg)
    return missing


def _subscripted_values(annotation: ast.expr) -> set[int]:
    """ids of Name nodes that are the value of a Subscript (parameterized)."""
    out: set[int] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Subscript):
            target = node.value
            if isinstance(target, ast.Name):
                out.add(id(target))
            elif isinstance(target, ast.Attribute):
                out.add(id(target))
    return out


def _annotation_findings(
    ctx: ModuleContext, annotation: ast.expr, where: str
) -> Iterator[Finding]:
    if _is_string_annotation(annotation):
        return
    parameterized = _subscripted_values(annotation)
    for node in ast.walk(annotation):
        if (
            isinstance(node, ast.Name)
            and node.id in _BARE_GENERICS
            and id(node) not in parameterized
        ):
            yield ctx.finding(
                node,
                "untyped-def",
                f"bare generic {node.id!r} in {where}: parameterize it "
                f"({node.id}[...]) — mypy strict rejects implicit-Any "
                "generics",
            )


def _is_string_annotation(annotation: ast.expr) -> bool:
    return isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    )


@register_rule(
    "untyped-def",
    description=(
        "core modules (the mypy --strict set) must annotate every "
        "parameter and return, with no bare generic annotations"
    ),
)
def untyped_def(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag unannotated defs and bare generics in the strict core."""
    if not ctx.in_package(*STRICT_CORE):
        return
    for node in ctx.walk():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            missing = _unannotated_params(node)
            if missing:
                yield ctx.finding(
                    node,
                    "untyped-def",
                    f"function {node.name!r} leaves parameter(s) "
                    f"{', '.join(repr(m) for m in missing)} unannotated; "
                    "the core is gated under mypy --strict",
                )
            if node.returns is None:
                yield ctx.finding(
                    node,
                    "untyped-def",
                    f"function {node.name!r} has no return annotation; "
                    "the core is gated under mypy --strict",
                )
            else:
                yield from _annotation_findings(
                    ctx, node.returns, f"the return type of {node.name!r}"
                )
            for arg in [
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
                node.args.vararg,
                node.args.kwarg,
            ]:
                if arg is not None and arg.annotation is not None:
                    yield from _annotation_findings(
                        ctx,
                        arg.annotation,
                        f"parameter {arg.arg!r} of {node.name!r}",
                    )
        elif isinstance(node, ast.AnnAssign):
            yield from _annotation_findings(
                ctx, node.annotation, "a variable annotation"
            )
