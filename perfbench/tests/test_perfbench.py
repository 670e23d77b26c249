"""The benchmark's own tests: deterministic inputs, metric names, spans, checks.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hostclock
import run as bench
from checks import (
    check_execution,
    check_placement,
    check_schedule_referee,
    check_service,
    check_sim_trace,
)
from hostclock import HostClock
from tracing import Tracer, chrome_trace
from workloads import WORKLOADS, PassResult, ServiceDrain, SimTrace

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------
def _fingerprint(workload, seed: int, index: int):
    inputs = workload.inputs(seed, index)
    if workload.name.startswith("offline"):
        op_seed, jobs = inputs
        return op_seed, [(j.uid, j.profile) for j in jobs]
    if workload.name == "sim-trace":
        return [(job.uid, job.profile, at) for job, at in inputs]
    return inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    workload = WORKLOADS[name]()
    if name == "service-drain":
        workload.setup(1, tmp_path)  # the program names come from set-up
    try:
        first = _fingerprint(workload, 7, 1)
        assert first == _fingerprint(workload, 7, 1)
        assert first != _fingerprint(workload, 8, 1)
    finally:
        workload.close()


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_service_inputs_mix_every_program_evenly(tmp_path):
    workload = ServiceDrain()
    workload.setup(3, tmp_path)
    try:
        inputs = workload.inputs(3, 0)
    finally:
        workload.close()
    programs = [p for _, p, _ in inputs]
    assert {programs.count(p) for p in set(programs)} == {workload.n_jobs // 8}
    arrivals = [at for _, _, at in inputs]
    assert arrivals == sorted(arrivals)


# ----------------------------------------------------------------------
# Metric names and units
# ----------------------------------------------------------------------
def test_spec_units_match_emitted_units():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER_UNITS


def _pass(**kw):
    base = dict(op_s=[0.1, 0.2], busy_s=0.3, jobs=4, makespan_s=10.0,
                turnarounds_s=[1.0, 2.0, 3.0, 4.0])
    base.update(kw)
    return PassResult(**base)


def test_reductions_emit_every_spec_metric():
    e2e = bench.end_to_end([_pass(), _pass()], [0.5, 0.6, 0.7], 1.0)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    tracer = Tracer()
    with tracer.span("core.search"):
        pass
    clock = HostClock()
    clock.sample(1)
    layer = bench.per_layer([_pass()], [_pass()], tracer, [
        {"import_s": 0.3, "calibrate_s": 0.01, "characterize_s": 0.02},
    ], clock)
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    assert layer["core.search_calls"] == 1.0


def test_host_times_scale_and_counts_do_not():
    slow = bench.end_to_end([_pass()], [0.6], 0.5)
    raw = bench.end_to_end([_pass()], [0.6], 1.0)
    assert slow["setup_s"] == pytest.approx(0.5 * raw["setup_s"])
    assert slow["op_p50_ms"] == pytest.approx(0.5 * raw["op_p50_ms"])
    assert slow["jobs_per_s"] == pytest.approx(2.0 * raw["jobs_per_s"])
    assert slow["makespan_s"] == raw["makespan_s"]


def test_host_clock_scale_is_one_at_the_nominal_times():
    clock = HostClock()
    clock.py_s = [hostclock.NOMINAL_PY_S]
    clock.numpy_s = [hostclock.NOMINAL_NUMPY_S]
    assert clock.scale() == pytest.approx(1.0)
    clock.py_s = [2 * hostclock.NOMINAL_PY_S]
    clock.numpy_s = [2 * hostclock.NOMINAL_NUMPY_S]
    assert clock.scale() == pytest.approx(0.5)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "sim-trace",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_run_refuses_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-trace",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _Layer:
    def work(self, n):
        return sum(range(n))


def test_spans_nest_and_self_times_are_nonnegative():
    tracer = Tracer()
    tracer.patch_method(_Layer, "work", "layer.work", count=lambda args: 1)
    layer = _Layer()
    layer.work(5)  # outside every span: not recorded
    for op in range(3):
        tracer.op = op
        with tracer.span("bench.op"):
            with tracer.span("outer"):
                layer.work(1000)
                layer.work(10)
    tracer.close()
    assert "work" in _Layer.__dict__ and not hasattr(_Layer.work, "__wrapped__")

    spans = tracer.spans
    assert len(spans) == 12 and tracer.counters["layer.work"] == 6
    for s in spans:
        assert s.end_ns >= s.start_ns
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start_ns <= s.start_ns and s.end_ns <= p.end_ns
            assert p.op == s.op
    assert all(ns >= 0 for ns in tracer.self_ns())
    totals = tracer.totals()
    assert totals["layer.work"]["calls"] == 6
    assert totals["outer"]["self_s"] <= totals["outer"]["s"]

    doc = chrome_trace(spans, process="test")
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 12
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in slices)
    json.dumps(doc)


def test_layer_spans_restore_the_program():
    from repro.engine.sim import SimCore
    from repro.perf.tensor import PairTables
    import repro.perf.tensor as tensor

    before = (SimCore.__dict__["advance"], PairTables.__dict__["build"], tensor.tensorize)
    tracer = Tracer()
    bench.install_layer_spans(tracer)
    assert tensor.tensorize is not before[2]
    tracer.close()
    assert (SimCore.__dict__["advance"], PairTables.__dict__["build"], tensor.tensorize) == before


# ----------------------------------------------------------------------
# Correctness checks catch planted bad results
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_schedule():
    from repro.core.api import schedule
    from repro.core.context import SchedulingContext
    from repro.engine.sim import Scenario, run
    from repro.workload.program import Job
    from repro.workload.rodinia import rodinia_programs

    jobs = [Job(uid=p.name, profile=p) for p in rodinia_programs()[:4]]
    ctx = SchedulingContext.build(jobs, cap_w=15.0)
    result = schedule(jobs, method="hcs", cap_w=15.0, predictor=ctx.predictor)
    replay = run(ctx.processor, Scenario.from_schedule(result.schedule), governor=result.governor)
    return ctx, jobs, result, replay


def test_good_offline_result_passes(small_schedule):
    ctx, jobs, result, replay = small_schedule
    uids = [j.uid for j in jobs]
    assert check_placement(result.schedule, uids) == []
    assert check_execution(replay, uids) == []
    assert check_schedule_referee(ctx, result.schedule) == []


def test_schedule_that_drops_a_job_fails(small_schedule):
    ctx, jobs, result, _ = small_schedule
    sched = result.schedule
    if sched.cpu_queue:
        dropped = dataclasses.replace(sched, cpu_queue=sched.cpu_queue[1:])
    else:
        dropped = dataclasses.replace(sched, gpu_queue=sched.gpu_queue[1:])
    uids = [j.uid for j in jobs]
    assert check_placement(dropped, uids)
    assert check_schedule_referee(ctx, dropped)
    assert check_placement(sched, uids + ["ghost"])


def test_replay_missing_a_completion_fails(small_schedule):
    _, jobs, _, replay = small_schedule
    uids = [j.uid for j in jobs]
    short = dataclasses.replace(replay, completions=replay.completions[1:])
    assert any("never completed" in p for p in check_execution(short, uids))
    doubled = dataclasses.replace(replay, completions=replay.completions + replay.completions[:1])
    assert any("twice" in p for p in check_execution(doubled, uids))


@pytest.fixture()
def drained_service():
    from repro.service import protocol
    from repro.service.server import ServiceState
    from repro.service.session import ServiceSession
    from repro.store.store import JobStore

    state = ServiceState(ServiceSession(method="hcs", cap_w=15.0), store=JobStore())
    submits = [protocol.SubmitRequest(program=p, uid=f"j{k}") for k, p in enumerate(("cfd", "lud", "srad"))]
    replies = state.handle_batch(submits + [protocol.DrainRequest()])
    return state, [s.uid for s in submits], replies[:-1], replies[-1].completions


def test_good_service_session_passes(drained_service):
    state, uids, acks, completions = drained_service
    assert check_service(uids, acks, completions, state.store) == []


def test_service_missing_a_completion_fails(drained_service):
    state, uids, acks, completions = drained_service
    assert check_service(uids, acks, completions[1:], state.store)
    assert check_service(uids, acks[1:], completions, state.store)
    assert check_service(uids, acks, completions + completions[:1], state.store)


def test_store_missing_a_completion_fails(drained_service):
    from repro.store import events as ev
    from repro.store.store import JobStore

    _, uids, acks, completions = drained_service
    store = JobStore()
    for uid in uids:
        store.commit(
            ev.JobSubmitted(job_id=uid, program="cfd"),
            ev.JobAdmitted(job_id=uid, cap_w=15.0),
        )
    for uid in uids[1:]:
        store.commit(
            ev.JobScheduled(job_id=uid, device="cpu", start_s=0.0),
            ev.JobCompleted(job_id=uid, device="cpu", start_s=0.0, finish_s=1.0),
        )
    store.flush()
    problems = check_service(uids, acks, completions, store)
    assert any("not done" in p for p in problems)


def test_sim_trace_without_preemption_fails(tmp_path):
    from repro.engine.sim import Scenario, run
    from repro.hardware.frequency import FrequencySetting

    workload = SimTrace()
    workload.setup(1, tmp_path)
    inputs = workload.inputs(1, 0)[:64]
    assert workload.run_pass(inputs).problems == []

    cpu, gpu = workload.processor.cpu, workload.processor.gpu
    fmax = FrequencySetting(cpu_ghz=cpu.domain.fmax, gpu_ghz=gpu.domain.fmax)
    fifo = run(
        workload.processor, Scenario.from_arrivals(inputs),
        policy=lambda kind, pending, other, now: pending[0] if pending else None,
        governor=lambda cpu_job, gpu_job: fmax,
    )
    problems = check_sim_trace(fifo, [job.uid for job, _ in inputs], preempts=0, migrations=0)
    assert "no preemption occurred" in problems and "no migration occurred" in problems
