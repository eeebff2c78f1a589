"""The serve-open load: a seeded submission sequence and a closed-loop client.

The sequence is a pure function of the workload seed: each client gets
its own list of wire requests, where every fourth submission re-submits
one of that client's earlier specs (the idempotent replay path) and the
others are fresh ``open-system --smoke`` grids with their own campaign
seed, half of them on the bus-contended machine.  The server-start
submissions all run the paper machine, so their timings are of one kind.
The program receives only these generated requests.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.serve.client import ServeClient
from repro.serve.protocol import encode_line

import grids

#: Connections the load generator keeps open at once (at most nproc = 2).
CLIENTS = 2

#: Every REPLAY_EVERY-th submission of a client is a replay.
REPLAY_EVERY = 4

#: Submissions generated per client; more than a run can send.
PER_CLIENT = 200

#: Socket timeout of one submission; a stalled server fails the request.
SUBMIT_TIMEOUT = 60.0


@dataclass(frozen=True)
class Submission:
    """One generated request: which spec, and whether it is a replay."""

    kind: str  # "cold" | "fresh" | "replay"
    seed: int
    bus: bool

    def spec(self) -> dict[str, Any]:
        return grids.open_spec(self.seed, self.bus).to_dict()

    def wire(self) -> bytes:
        return encode_line({"op": "submit", "spec": self.spec()})


@dataclass
class Plan:
    """The cold-start submissions and each client's closed-loop sequence."""

    cold: list[Submission]
    clients: list[list[Submission]] = field(default_factory=list)

    def encode(self, per_client: int | None = None) -> bytes:
        """The byte stream of every request, in sending order per client."""
        lines = [s.wire() for s in self.cold]
        for sequence in self.clients:
            lines += [s.wire() for s in sequence[:per_client]]
        return b"".join(lines)


def plan(seed: int, cold: int, per_client: int = PER_CLIENT) -> Plan:
    """The submissions of one serve-open run with workload seed ``seed``."""
    rng = random.Random(f"perfbench-serve-open-{seed}")
    used: set[int] = set()

    def fresh_seed() -> int:
        while True:
            value = rng.randrange(1, 2**31)
            if value not in used:
                used.add(value)
                return value

    result = Plan(cold=[Submission("cold", fresh_seed(), False) for _ in range(cold)])
    for _ in range(CLIENTS):
        fresh: list[Submission] = []
        sequence: list[Submission] = []
        for number in range(1, per_client + 1):
            if number % REPLAY_EVERY == 0:
                original = fresh[rng.randrange(len(fresh))]
                sequence.append(Submission("replay", original.seed, original.bus))
            else:
                submission = Submission("fresh", fresh_seed(), len(fresh) % 2 == 1)
                fresh.append(submission)
                sequence.append(submission)
        result.clients.append(sequence)
    return result


def submit(port: int, submission: Submission, clock: Any) -> dict[str, Any]:
    """Send one request; record its events on ``clock``.

    A request is ``ok`` only when it ends in ``done`` with every cell
    completed; ``rejected``, ``error``, ``job-error``, ``suspended``, a
    quarantined cell or a dropped connection make it failed.
    """
    record: dict[str, Any] = {
        "kind": submission.kind,
        "seed": submission.seed,
        "bus": submission.bus,
        "submitted": clock(),
        "accepted": None,
        "first_cell": None,
        "done": None,
        "events": 0,
        "cells": 0,
        "spec_hash": None,
        "fingerprint": None,
        "ok": False,
        "error": None,
    }
    spec = submission.spec()
    try:
        for evt in ServeClient(port, timeout=SUBMIT_TIMEOUT).submit(spec):
            now = clock()
            record["events"] += 1
            kind = evt.get("event")
            if kind == "accepted":
                record["accepted"] = now
                record["spec_hash"] = evt.get("spec_hash")
            elif kind == "cell":
                record["cells"] += 1
                if record["first_cell"] is None:
                    record["first_cell"] = now
            elif kind == "done":
                record["done"] = now
                record["fingerprint"] = evt.get("fingerprint")
                record["ok"] = evt.get("failures") == 0 and evt.get(
                    "completed"
                ) == evt.get("total")
                if not record["ok"]:
                    record["error"] = f"done with {evt.get('failures')} failures"
                break
            elif kind in ("rejected", "error", "job-error", "suspended"):
                record["error"] = f"{kind}: {evt.get('reason') or evt.get('message')}"
                break
        else:
            record["error"] = record["error"] or "stream ended without done"
    except OSError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def closed_loop(
    port: int,
    sequences: list[list[Submission]],
    clock: Any,
    deadline: float | None = None,
    count: int | None = None,
) -> list[dict[str, Any]]:
    """One thread per client, each sending its next request after the last
    one finished, until ``deadline`` (or after ``count`` requests each).
    Every client sends at least one request."""
    records: list[list[dict[str, Any]]] = [[] for _ in sequences]

    def client(index: int) -> None:
        for number, submission in enumerate(sequences[index]):
            if count is not None and number >= count:
                return
            if deadline is not None and number and clock() >= deadline:
                return
            records[index].append(submit(port, submission, clock))

    threads = [
        threading.Thread(target=client, args=(index,), name=f"perfbench-client-{index}")
        for index in range(len(sequences))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for client_records in records for record in client_records]
