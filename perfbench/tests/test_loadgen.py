"""The serve-open load is a pure function of the workload seed."""

from __future__ import annotations

import loadgen
import run


def test_same_seed_same_bytes_other_seed_other_bytes():
    first = loadgen.plan(4, cold=run.SERVER_STARTS).encode(per_client=12)
    again = loadgen.plan(4, cold=run.SERVER_STARTS).encode(per_client=12)
    other = loadgen.plan(5, cold=run.SERVER_STARTS).encode(per_client=12)
    assert first == again
    assert first != other


def test_shape_of_the_load():
    plan = loadgen.plan(9, cold=3)
    assert len(plan.clients) == loadgen.CLIENTS <= 2
    for sequence in plan.clients:
        fresh = [s for s in sequence if s.kind == "fresh"]
        for number, submission in enumerate(sequence, start=1):
            is_replay = number % loadgen.REPLAY_EVERY == 0
            assert (submission.kind == "replay") == is_replay
            if is_replay:
                earlier = [s for s in sequence[: number - 1] if s.kind == "fresh"]
                assert (submission.seed, submission.bus) in {
                    (s.seed, s.bus) for s in earlier
                }
        assert sum(s.bus for s in fresh) == len(fresh) // 2
    seeds = [s.seed for s in plan.cold] + [
        s.seed for sequence in plan.clients for s in sequence if s.kind == "fresh"
    ]
    assert len(seeds) == len(set(seeds))
    assert run.SERVE_ARGS == ("--jobs", "2", "--max-active", "1")
