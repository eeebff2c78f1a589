"""Two OS processes resuming one campaign against one shared store.

The service's crash-recovery story leans on this property: any number
of independent resumers of the same spec converge the same store — no
lost cells, no spurious failures, and a result set identical (modulo
timing fields) to a single clean run.  The JSONL store's append-only,
last-write-wins design is what makes the race benign: duplicate
completions overwrite with identical payloads.
"""

from __future__ import annotations

import multiprocessing

from repro.api.engine import Engine
from repro.campaign.spec import CampaignSpec, MachineVariant, SchedulerSpec
from repro.campaign.store import ResultStore
from repro.serve.service import result_fingerprint


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="race",
        workloads=("MxM", "Shape"),
        machines=(MachineVariant(),),
        schedulers=(SchedulerSpec("RS"), SchedulerSpec("LS")),
        seeds=(0,),
        scale=0.25,
    )


def _resumer(spec_data: dict, store_path: str, barrier) -> None:
    """One racing resumer (module-level: spawned as a child process)."""
    spec = CampaignSpec.from_dict(spec_data)
    barrier.wait()  # maximize overlap between the racers
    outcome = Engine(
        jobs=1, store=ResultStore(store_path), resume=True, keep_going=True
    ).run_campaign(spec)
    if outcome.failures:  # surface as a nonzero exit the parent asserts on
        raise SystemExit(7)


class TestConcurrentResume:
    def test_two_resumers_converge_one_store(self, tmp_path):
        spec = _spec()
        store_path = tmp_path / "race.jsonl"
        barrier = multiprocessing.Barrier(2)
        racers = [
            multiprocessing.Process(
                target=_resumer,
                args=(spec.to_dict(), str(store_path), barrier),
            )
            for _ in range(2)
        ]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=120)
            assert racer.exitcode == 0

        results = ResultStore(store_path).load()
        expected_keys = {run.cell_key() for run in spec.expand()}
        assert set(results) == expected_keys  # no lost, no duplicate cells

        baseline = Engine().run_campaign(spec)
        assert result_fingerprint(list(results.values())) == (
            result_fingerprint(baseline.results)
        )
