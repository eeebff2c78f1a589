"""A process-wide epoch counter for fork-inherited worker state.

The campaign engine keeps one long-lived worker pool across
:meth:`repro.api.engine.Engine.run_many` calls (workers are expensive to
start: a fresh interpreter plus a NumPy import per worker).  Forked
workers snapshot the parent's module state at pool creation, so any
later change the workers must observe — a plugin registered at runtime,
the engine switch, a reconfigured persistent memo store —
would silently not reach them.  Every such mutation calls
:func:`bump_worker_state_epoch`; the pool cache compares epochs and
replaces a stale pool instead of reusing it.

The epoch only works if every mutable module global is known to it, so
modules *declare* their fork-inherited state with
:func:`register_worker_state`.  The declaration is the audit trail: the
``worker-state-registry`` rule of ``python -m repro check`` fails the
build for any mutable module-level global (or ``global``-statement
target) that is not declared here, and
:func:`registered_worker_state` lets tests and debuggers enumerate
exactly which globals a forked worker snapshots.
"""

from __future__ import annotations

import threading

_lock = threading.Lock()
_epoch = 0

#: ``"module:global"`` -> note describing how the global interacts with
#: the epoch (e.g. "epoch-bumped on mutation", "constant after import").
_worker_state: dict[str, str] = {}


def register_worker_state(module: str, name: str, *, note: str = "") -> None:
    """Declare a mutable module-level global as fork-inherited state.

    ``module`` is the declaring module's ``__name__``; ``name`` is the
    global's identifier.  ``note`` records the discipline that keeps the
    global epoch-safe: either mutations bump the epoch, or the value is
    constant after import.  Idempotent, so re-imports are harmless.
    """
    with _lock:
        _worker_state[f"{module}:{name}"] = note


def registered_worker_state() -> dict[str, str]:
    """A snapshot of every declared ``"module:global"`` -> note entry."""
    with _lock:
        return dict(_worker_state)


def worker_state_epoch() -> int:
    """The current epoch of fork-inherited process state."""
    return _epoch


def bump_worker_state_epoch() -> int:
    """Mark fork-inherited state as changed; returns the new epoch."""
    global _epoch
    with _lock:
        _epoch += 1
        return _epoch


register_worker_state(__name__, "_epoch", note="the epoch counter itself")
register_worker_state(__name__, "_worker_state", note="this declaration table")
