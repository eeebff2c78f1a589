"""Lease-based cell ownership: heartbeat files that prove worker liveness.

A dispatched cell under ``lease_seconds`` carries a *lease*: the parent
grants it by stamping a per-unit heartbeat file, and the worker renews
it from a daemon thread that touches the file every
``lease_seconds * LEASE_HEARTBEAT_FRACTION`` seconds while the cell
executes.  A heartbeat that goes stale for longer than the lease means
the worker is presumed dead — stopped, wedged beyond even its heartbeat
thread, or killed in a way the pool's own crash detection missed — and
the engine's stop path (:meth:`repro.api.engine._FanOut._stop_overdue`,
shared with ``cell_timeout``) expires the lease, kills the pool, and
resubmits the cell through the ordinary retry machinery as a
:class:`~repro.errors.LeaseExpiredError`.

Leases are a *liveness* check, not a budget: a worker that is making no
progress but still beating (an injected ``hang`` sleeps in the cell
body while the heartbeat thread keeps running) never expires its lease.
Pair ``lease_seconds`` with ``cell_timeout`` — the hard per-attempt
wall-clock bound — to cover both failure shapes; the campaign service
(:mod:`repro.serve`) arms both.

Heartbeats are files, not pipes or queues, for one reason: file mtimes
survive the death of everything that wrote them, so the parent can
always read the last proof of life even after the worker and its pool
are gone.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from repro.campaign.executor import RunResult, execute_chunk_outcomes
from repro.campaign.spec import RunSpec

#: Fraction of the lease interval between worker heartbeats.  Four
#: renewals per lease keeps one delayed beat (a paused worker, a slow
#: filesystem) from expiring a healthy lease.
LEASE_HEARTBEAT_FRACTION = 0.25

#: Floor on the renewal interval so tiny test leases cannot spin a
#: worker thread touching a file thousands of times per second.
MIN_HEARTBEAT_INTERVAL = 0.01


def heartbeat_interval(lease_seconds: float) -> float:
    """How often a worker renews a lease of the given length."""
    return max(MIN_HEARTBEAT_INTERVAL, lease_seconds * LEASE_HEARTBEAT_FRACTION)


def grant_lease(path: Path) -> None:
    """Stamp a heartbeat file *now* (parent side, at dispatch).

    The grant anchors the lease clock so a unit that sat queued behind
    a full pool is not reaped for beats it was never scheduled to send;
    the engine re-grants when it first observes the unit running.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a"):
        pass
    os.utime(path)


def heartbeat_age(path: Path, now: float | None = None) -> float:
    """Seconds since the last beat; ``inf`` if the file vanished.

    ``now`` is an ``os.stat``-comparable wall timestamp (``time.time``
    domain, because mtimes live there); defaults to the current time.
    """
    import time

    try:
        mtime = path.stat().st_mtime
    except OSError:
        return float("inf")
    reference = time.time() if now is None else now
    return max(0.0, reference - mtime)


def _beat(path_text: str, interval: float, stop: threading.Event) -> None:
    path = Path(path_text)
    while not stop.wait(interval):
        try:
            os.utime(path)
        except OSError:
            # A reaped lease's file may already be gone; the worker is
            # about to be killed anyway, so just stop renewing.
            return


def execute_leased_outcomes(
    runs: list[RunSpec], path_text: str, interval: float
) -> list[tuple[str, RunResult | Exception]]:
    """Execute a unit while renewing its lease (workers call this).

    Identical contract to
    :func:`repro.campaign.executor.execute_chunk_outcomes`, plus a
    daemon heartbeat thread that touches ``path_text`` every
    ``interval`` seconds for the duration.  The thread is a daemon so a
    cell that wedges the worker process cannot also wedge its teardown.
    """
    stop = threading.Event()
    thread = threading.Thread(
        target=_beat,
        args=(path_text, interval, stop),
        name="repro-lease-heartbeat",
        daemon=True,
    )
    thread.start()
    try:
        return execute_chunk_outcomes(runs)
    finally:
        stop.set()
        thread.join(timeout=1.0)
