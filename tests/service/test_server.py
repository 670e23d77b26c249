"""Admission and job-lifecycle tests for ServiceState (no sockets).

The durable store is the daemon's one job table: the submit ack, the
idempotent-retry ack and the ``jobs`` endpoint all read it, and capacity
is the session's own count of admitted-but-not-started jobs.
"""

import pytest

from repro.service import protocol
from repro.service.admission import HeldSubmission, TenantBacklog, TenantPolicy
from repro.service.server import ServiceState
from repro.service.session import ServiceSession
from repro.service.shard import ShardConfig, build_state
from repro.store.store import JobStore
from repro.workload.program import Job


def _state(queue_capacity=64, backlog_capacity=0, store=None):
    return ServiceState(
        ServiceSession(),
        queue_capacity=queue_capacity,
        store=store,
        tenant_policy=TenantPolicy(backlog_capacity=backlog_capacity),
    )


def _submit(state, program="lud", **kw):
    return state.handle(protocol.SubmitRequest(program=program, **kw))


def _jobs(state):
    return {row["job_id"]: row for row in state.handle(protocol.JobsRequest()).jobs}


class TestAdmission:
    def test_fresh_feasible_job_is_queued(self):
        state = _state()
        ack = _submit(state, uid="a", arrival_s=2.5)
        assert isinstance(ack, protocol.SubmitResponse)
        assert (ack.state, ack.arrival_s, ack.queue_depth) == ("queued", 2.5, 1)

    @pytest.mark.parametrize("first_cap_w", [None, 1.0], ids=["admitted", "infeasible"])
    def test_a_used_uid_answers_duplicate(self, first_cap_w):
        # An infeasible rejection is logged, so it burns the uid exactly
        # like an admission does: resubmitting under a feasible cap still
        # answers duplicate instead of scheduling a second "a".
        state = _state()
        if first_cap_w is not None:
            state.handle(protocol.SetCapRequest(cap_w=first_cap_w))
        _submit(state, uid="a")
        state.handle(protocol.SetCapRequest(cap_w=15.0))
        again = _submit(state, uid="a")
        assert isinstance(again, protocol.RejectionResponse)
        assert again.code == "duplicate"

    def test_infeasible_cap_is_structured(self):
        state = _state()
        state.handle(protocol.SetCapRequest(cap_w=1.0))
        reply = _submit(state, uid="a")
        assert reply.code == "infeasible_cap"
        assert "1.0 W" in reply.message
        assert _jobs(state)["a"]["state"] == "rejected"
        assert state.session.queue_depth == 0

    def test_backpressure_at_capacity_leaves_no_trace(self):
        state = _state(queue_capacity=1)
        assert _submit(state, uid="a").state == "queued"
        reply = _submit(state, uid="b")
        assert reply.code == "backpressure"
        assert "(1/1)" in reply.message
        # Transient: "b" is not logged, so the same uid is accepted later.
        assert "b" not in _jobs(state)
        state.handle(protocol.DrainRequest())
        assert _submit(state, uid="b").state == "queued"

    def test_backpressure_skips_feasibility(self, monkeypatch):
        # A full queue and backlog must not pay for profiling.
        state = _state(queue_capacity=1, backlog_capacity=1)
        _submit(state, uid="a")
        assert _submit(state, uid="b").state == "held"

        def explode(job):
            raise AssertionError("feasibility must not run under backpressure")

        monkeypatch.setattr(state.session, "admissible", explode)
        assert _submit(state, program="cfd", uid="c").code == "backpressure"

    def test_started_jobs_free_capacity(self):
        state = _state(queue_capacity=1)
        _submit(state, uid="a")
        state.handle(protocol.AdvanceRequest(until_s=1.0))
        assert _jobs(state)["a"]["state"] == "running"
        assert _submit(state, uid="b").state == "queued"

    @pytest.mark.parametrize("build", ["state", "shard_config"])
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_validation(self, build, capacity):
        with pytest.raises(ValueError, match="capacity"):
            if build == "state":
                _state(queue_capacity=capacity)
            else:
                build_state(ShardConfig(queue_capacity=capacity))

    def test_status_and_metrics_read_the_session_depth(self):
        state = _state(queue_capacity=3)
        _submit(state, uid="a", arrival_s=50.0)  # a future arrival counts
        _submit(state, uid="b")
        status = state.handle(protocol.StatusRequest())
        assert status.queue_depth == state.session.queue_depth == 2
        metrics = state.handle(protocol.MetricsRequest()).metrics
        assert metrics["queue_depth"] == 2
        assert metrics["queue_headroom"] == 1


class TestLifecycle:
    def test_queued_running_done(self):
        state = _state()
        _submit(state, uid="a")
        assert _jobs(state)["a"]["state"] == "queued"
        state.handle(protocol.AdvanceRequest(until_s=1.0))
        assert _jobs(state)["a"]["state"] == "running"
        state.handle(protocol.DrainRequest())
        assert _jobs(state)["a"]["state"] == "done"

    def test_rows_are_wire_ready(self):
        state = _state()
        _submit(state, program="cfd", uid="a", scale=2.0, arrival_s=1.0)
        assert _jobs(state)["a"] == {
            "job_id": "a",
            "program": "cfd",
            "scale": 2.0,
            "state": "queued",
            "arrival_s": 1.0,
            "detail": "",
        }

    def test_stranded_queued_job_shows_rejected_with_detail(self):
        state = _state()
        for uid, program in (("cfd", "cfd"), ("dwt2d", "dwt2d"), ("srad", "srad")):
            _submit(state, program=program, uid=uid)
        state.handle(protocol.AdvanceRequest(until_s=1.0))  # srad still queued
        state.handle(protocol.SetCapRequest(cap_w=1.0))
        drained = state.handle(protocol.DrainRequest())
        (late,) = drained.rejections
        row = _jobs(state)["srad"]
        assert row["state"] == "rejected"
        assert row["detail"] == late.message
        assert state.session.queue_depth == 0

    def test_held_is_one_state_across_ack_retry_and_jobs(self):
        state = _state(queue_capacity=1, backlog_capacity=4)
        _submit(state, uid="a")
        ack = _submit(state, uid="b", idempotency_key="k")
        retry = _submit(state, uid="b", idempotency_key="k")
        assert ack.state == retry.state == _jobs(state)["b"]["state"] == "held"
        assert retry.deduplicated
        state.handle(protocol.AdvanceRequest(until_s=300.0))  # "a" starts
        promoted = _jobs(state)["b"]["state"]
        assert promoted in ("queued", "running")
        assert _submit(state, uid="b", idempotency_key="k").state == promoted

    def test_jobs_identical_after_reopening_the_store(self, tmp_path):
        state = _state(
            queue_capacity=1, backlog_capacity=4, store=JobStore.open(tmp_path)
        )
        _submit(state, uid="a")
        _submit(state, uid="b")  # held, promoted at t=300
        state.handle(protocol.AdvanceRequest(until_s=300.0))
        state.handle(protocol.DrainRequest())
        state.handle(protocol.SetCapRequest(cap_w=1.0))
        _submit(state, uid="c")  # infeasible: a logged rejection
        before = state.handle(protocol.JobsRequest()).jobs
        state.close()
        reopened = _state(queue_capacity=1, store=JobStore.open(tmp_path))
        assert reopened.handle(protocol.JobsRequest()).jobs == before
        assert [row["state"] for row in before] == ["done", "done", "rejected"]
        assert before[1]["arrival_s"] == 0.0


class TestBacklogMembership:
    def test_contains_tracks_push_and_pop(self, rodinia):
        backlog = TenantBacklog(capacity=2)
        held = HeldSubmission(
            job=Job(uid="a", profile=rodinia["lud"]),
            arrival_s=0.0,
            tenant="t",
            priority=0,
        )
        assert "a" not in backlog
        assert backlog.push(held)
        assert "a" in backlog and backlog.depth == 1
        assert backlog.pop() is held
        assert "a" not in backlog and backlog.depth == 0
