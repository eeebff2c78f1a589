"""The campaign service: protocol, dedup, backpressure, recovery, chaos.

Each test starts a real server (asyncio, background thread, real
sockets on an ephemeral port) and drives it with the blocking client.
The chaos test is the headline invariant: a retrying client converges
through injected request errors, mid-stream disconnects, and delays to
a result fingerprint byte-identical to a fault-free in-process run.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import pytest

from repro.api.engine import Engine
from repro.campaign.spec import CampaignSpec, MachineVariant, SchedulerSpec
from repro.errors import ServeError
from repro.serve import (
    ServeClient,
    ServeConfig,
    result_fingerprint,
    start_in_thread,
    submit_converged,
)
from repro.serve.protocol import decode_line, encode_line, event
from repro.util.faults import configure_fault_plan


@pytest.fixture
def fault_plan():
    yield configure_fault_plan
    configure_fault_plan(None)


def _spec(name: str = "serve-test") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        workloads=("MxM",),
        machines=(MachineVariant(),),
        schedulers=(SchedulerSpec("RS"), SchedulerSpec("LS")),
        seeds=(0,),
        scale=0.25,
    )


def _config(tmp_path: Path, **overrides) -> ServeConfig:
    # Threads policy: in-process tests must not pay pool-fork costs, and
    # leases (a processes-policy feature) are exercised in test_leases.
    defaults = dict(
        store_root=tmp_path / "campaigns",
        jobs=2,
        policy="threads",
        max_active=2,
        queue_limit=4,
        max_retries=1,
        cell_timeout=60.0,
        lease_seconds=None,
        batch_cells=8,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestProtocol:
    def test_encode_is_canonical(self):
        a = encode_line({"b": 1, "a": 2})
        b = encode_line({"a": 2, "b": 1})
        assert a == b == b'{"a": 2, "b": 1}\n'

    def test_decode_round_trip(self):
        evt = event("cell", key="k", done=1)
        assert decode_line(encode_line(evt)) == evt

    @pytest.mark.parametrize("line", [b"not json\n", b"[1, 2]\n", b"\xff\n"])
    def test_decode_rejects_garbage(self, line):
        with pytest.raises(ServeError):
            decode_line(line)


class TestFingerprint:
    def test_order_and_timing_independent(self):
        results = Engine().run_campaign(_spec("fp")).results
        assert len(results) == 2
        fp = result_fingerprint(results)
        assert fp == result_fingerprint(list(reversed(results)))
        retimed = [
            dataclasses.replace(r, seconds=r.seconds + 123.0) for r in results
        ]
        assert fp == result_fingerprint(retimed)

    def test_sensitive_to_results(self):
        results = Engine().run_campaign(_spec("fp")).results
        assert result_fingerprint(results) != result_fingerprint(results[:1])


class TestSubmitAndAttach:
    def test_submit_runs_to_done(self, tmp_path):
        with start_in_thread(_config(tmp_path)) as handle:
            client = ServeClient(handle.port)
            events = list(client.submit(_spec()))
            assert events[0]["event"] == "accepted"
            assert events[0]["total"] == 2
            done = events[-1]
            assert done["event"] == "done"
            assert done["completed"] == 2
            assert done["failures"] == 0
            assert "Campaign rollup" in done["rollup"]
            cell_events = [e for e in events if e["event"] == "cell"]
            assert len(cell_events) == 2
            assert [e["done"] for e in cell_events] == [1, 2]

    def test_second_client_sees_byte_identical_stream(self, tmp_path):
        """In-flight dedup + history replay: every client of one
        campaign reads the identical job byte stream."""
        with start_in_thread(_config(tmp_path)) as handle:
            client = ServeClient(handle.port)
            first = list(client.submit(_spec()))
            second = list(client.submit(_spec()))  # same spec: attaches
            assert second[0]["event"] == "accepted"
            assert [encode_line(e) for e in first[1:]] == [
                encode_line(e) for e in second[1:]
            ]
            third = list(client.attach(str(first[0]["spec_hash"])))
            assert [encode_line(e) for e in third[1:]] == [
                encode_line(e) for e in first[1:]
            ]

    def test_done_matches_inprocess_run(self, tmp_path):
        baseline = Engine().run_campaign(_spec())
        with start_in_thread(_config(tmp_path)) as handle:
            done = submit_converged(ServeClient(handle.port), _spec())
        assert done["fingerprint"] == result_fingerprint(baseline.results)

    def test_attach_unknown_hash_is_an_error(self, tmp_path):
        with start_in_thread(_config(tmp_path)) as handle:
            (evt,) = list(ServeClient(handle.port).attach("feedfacedead"))
            assert evt["event"] == "error"
            assert "unknown spec hash" in evt["message"]

    def test_unknown_op_is_an_error(self, tmp_path):
        with start_in_thread(_config(tmp_path)) as handle:
            client = ServeClient(handle.port)
            (evt,) = list(client.request({"op": "explode"}))
            assert evt["event"] == "error"
            assert "unknown op" in evt["message"]

    def test_invalid_spec_is_an_error(self, tmp_path):
        with start_in_thread(_config(tmp_path)) as handle:
            client = ServeClient(handle.port)
            (evt,) = list(
                client.request({"op": "submit", "spec": {"bogus": True}})
            )
            assert evt["event"] == "error"

    def test_error_events_carry_retryability(self, tmp_path):
        """Permanent rejections say so; recoverable ones invite a retry."""
        with start_in_thread(_config(tmp_path)) as handle:
            client = ServeClient(handle.port)
            (evt,) = list(
                client.request({"op": "submit", "spec": {"bogus": True}})
            )
            assert evt["retryable"] is False
            (evt,) = list(client.request({"op": "explode"}))
            assert evt["retryable"] is False
            # Unknown hash: the client falls back to a full submit.
            (evt,) = list(client.attach("feedfacedead"))
            assert evt["retryable"] is True

    def test_invalid_spec_fails_fast_with_the_diagnostic(self, tmp_path):
        """submit_converged must not poll a permanently invalid spec for
        its whole budget: the server's non-retryable error surfaces
        immediately."""
        with start_in_thread(_config(tmp_path)) as handle:
            client = ServeClient(handle.port)
            started = time.monotonic()
            with pytest.raises(ServeError, match="rejected the request"):
                submit_converged(client, {"bogus": True}, budget=60.0)
            assert time.monotonic() - started < 10.0

    def test_admission_methods_run_off_the_loop_thread(self):
        """Sidecar writes and the status glob are blocking filesystem
        I/O; the admission surface is async so they can be awaited off
        the event-loop thread (asyncio.to_thread)."""
        import asyncio

        from repro.serve.service import CampaignService

        for name in ("submit", "attach", "status"):
            assert asyncio.iscoroutinefunction(getattr(CampaignService, name))


class TestBackpressure:
    def test_saturated_queue_rejects_with_retry_after(self, tmp_path):
        config = _config(tmp_path, queue_limit=0, retry_after=0.25)
        with start_in_thread(config) as handle:
            (evt,) = list(ServeClient(handle.port).submit(_spec()))
            assert evt["event"] == "rejected"
            assert evt["reason"] == "saturated"
            assert evt["retry_after"] == 0.25
            assert evt["active"] == 0 and evt["pending"] == 0

    def test_draining_server_rejects_submissions(self, tmp_path):
        with start_in_thread(_config(tmp_path)) as handle:
            client = ServeClient(handle.port)
            handle.loop.call_soon_threadsafe(
                handle.server.service.begin_drain
            )
            deadline = time.monotonic() + 5.0
            while not client.status()["draining"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            (evt,) = list(client.submit(_spec()))
            assert evt["event"] == "rejected"
            assert evt["reason"] == "draining"
            # with nothing admitted, a stop request exits immediately
            handle.stop(timeout=10)
            assert not handle.thread.is_alive()


class TestStatusAndShutdown:
    def test_status_reports_jobs(self, tmp_path):
        with start_in_thread(_config(tmp_path)) as handle:
            client = ServeClient(handle.port)
            done = submit_converged(client, _spec())
            status = client.status()
            assert status["event"] == "status"
            assert status["draining"] is False
            (job,) = status["jobs"]
            assert job["spec_hash"] == done["spec_hash"]
            assert job["state"] == "done"
            assert job["done"] == 2 and job["failures"] == 0
            assert status["recoverable"] == [done["spec_hash"]]

    def test_shutdown_op_drains_and_exits(self, tmp_path):
        handle = start_in_thread(_config(tmp_path))
        client = ServeClient(handle.port)
        assert client.shutdown()["event"] == "shutting-down"
        handle.thread.join(timeout=10)
        assert not handle.thread.is_alive()


class TestCrashRecovery:
    def test_restarted_server_serves_from_store_and_sidecar(self, tmp_path):
        """Kill the server after completion; a fresh server rebuilds the
        campaign from the sidecar, replays every cell from the store
        (cached), and reports the same fingerprint."""
        config = _config(tmp_path)
        with start_in_thread(config) as handle:
            done = submit_converged(ServeClient(handle.port), _spec())
        spec_hash = str(done["spec_hash"])

        with start_in_thread(config) as handle:
            client = ServeClient(handle.port)
            events = list(client.attach(spec_hash))
            assert events[0]["event"] == "accepted"
            assert events[0]["recovered"] is True
            cells = [e for e in events if e["event"] == "cell"]
            assert len(cells) == 2
            assert all(e["cached"] for e in cells)
            redone = events[-1]
            assert redone["event"] == "done"
            assert redone["fingerprint"] == done["fingerprint"]
            assert redone["rollup"] == done["rollup"]

    def test_converged_client_survives_a_restart(self, tmp_path):
        """submit_converged keeps retrying across a server death: the
        replacement (same store root) finishes the campaign."""
        config = _config(tmp_path)
        baseline = Engine().run_campaign(_spec())
        first = start_in_thread(config)
        port = first.port
        done1 = submit_converged(ServeClient(port), _spec())
        first.stop()
        # The old port is dead: a client retrying against a replacement
        # server converges from the persisted store.
        second = start_in_thread(config)
        try:
            done2 = submit_converged(ServeClient(second.port), _spec())
        finally:
            second.stop()
        assert done1["fingerprint"] == done2["fingerprint"]
        assert done2["fingerprint"] == result_fingerprint(baseline.results)


class TestChaos:
    def test_retrying_client_converges_byte_identically(
        self, fault_plan, tmp_path
    ):
        """The tentpole invariant: request errors, mid-stream
        disconnects, and injected delays leave the converged result
        fingerprint byte-identical to a fault-free run."""
        baseline = Engine().run_campaign(_spec())
        fault_plan(
            f"ledger={tmp_path / 'ledger'}; seed=3; "
            "error@serve:request:submit,times=1; "
            "disconnect@serve:event:cell,times=2; "
            "delay@serve:event:done,seconds=0.05,times=1"
        )
        with start_in_thread(_config(tmp_path)) as handle:
            done = submit_converged(
                ServeClient(handle.port), _spec(), budget=60.0
            )
        assert done["failures"] == 0
        assert done["fingerprint"] == result_fingerprint(baseline.results)

    def test_disconnected_stream_is_not_fatal_to_the_job(
        self, fault_plan, tmp_path
    ):
        """A client whose stream is severed reattaches and finds the
        campaign finished: the job runs server-side regardless."""
        fault_plan(
            f"ledger={tmp_path / 'ledger'}; disconnect@serve:event:cell,times=1"
        )
        with start_in_thread(_config(tmp_path)) as handle:
            client = ServeClient(handle.port)
            done = submit_converged(client, _spec(), budget=60.0)
            assert done["completed"] == 2
