"""The benchmark's workloads: seeded inputs, one timed pass, its checks.

A workload runs in *passes*.  A pass is the unit the inputs are generated
for and the checks referee; it holds one or more timed *ops*:

* ``offline-tensor`` / ``offline-fallback`` — a pass is one op, one
  ``repro.core.api.schedule`` call on a fresh random workload with the
  model built inside the call, as ``repro schedule`` does;
* ``service-drain`` — a pass is one drained daemon session on a fresh
  durable store; each op is one request batch through the protocol
  codec and ``ServiceState.handle_batch``;
* ``sim-trace`` — a pass is one op, one ``repro.engine.sim.run`` of a
  many-phase preempting/migrating trace.

Everything the program receives is generated here from the run's seed.
The timed window of a pass covers only its ops; input generation, state
construction and every correctness check happen outside it.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    check_execution,
    check_placement,
    check_schedule_referee,
    check_service,
    check_sim_trace,
)

#: The paper's default power cap, used by every workload (W).
CAP_W = 15.0


def sub_seed(seed: int, index: int) -> int:
    """A stable seed for pass ``index`` of a run seeded with ``seed``.

    The benchmark draws its own randomness from NumPy, not through the
    program's ``repro.util.rng``, so a change to the program cannot change
    the benchmark's inputs.
    """
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class NullTracer:
    """Stands in for :class:`tracing.Tracer` when tracing is off."""

    op = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = NullTracer()


@dataclass
class PassResult:
    """What one pass measured and what its checks found."""

    op_s: list[float]
    #: Host seconds the throughput figure divides by.
    busy_s: float
    jobs: int
    makespan_s: float
    turnarounds_s: list[float]
    problems: list[str] = field(default_factory=list)
    failed_ops: int = 0
    #: Per-layer counts read from the program's public counters.
    counts: dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    #: Wall seconds one pass takes, checks included, on the reference
    #: machine (2 vCPUs, x86-64, CPython 3.11).  ``--seconds`` is turned
    #: into a fixed pass count with it, so a run does the same work for a
    #: seed on every commit and its percentiles compare like with like.
    pass_s = 1.0
    #: The fewest passes whose median is steady across seeds.
    min_passes = 1
    #: Untimed passes run first, on inputs of their own, so the timed
    #: passes do not pay for the process's first allocations.
    warmup_passes = 0

    def passes(self, seconds: float) -> int:
        return max(self.min_passes, round(seconds / self.pass_s))

    def setup(self, seed: int, workdir: Path) -> None:
        """Build what every pass shares (after ``import repro``)."""
        from repro.hardware.calibration import make_ivy_bridge
        from repro.model.characterize import characterize_space

        self.processor = make_ivy_bridge()
        # What a `repro schedule` or `repro simulate` process pays before
        # its first op; the offline ops then build their own model inside.
        characterize_space(self.processor)
        self.workdir = workdir

    def inputs(self, seed: int, index: int):
        raise NotImplementedError

    def prepare(self, seed: int, index: int) -> None:
        """Build per-pass state for pass ``index``, outside its timed window."""

    def run_pass(self, inputs, tracer=NULL_TRACER, first_op: int = 0) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` built."""


# ----------------------------------------------------------------------
# Offline: one schedule() call per op
# ----------------------------------------------------------------------
class OfflineWorkload(Workload):
    n_jobs = 0
    method = ""
    referee = False

    def inputs(self, seed: int, index: int):
        from repro.workload.generator import random_workload

        op_seed = sub_seed(seed, index)
        return op_seed, random_workload(self.n_jobs, op_seed)

    def run_pass(self, inputs, tracer=NULL_TRACER, first_op: int = 0) -> PassResult:
        from repro.core.api import schedule
        from repro.core.context import SchedulingContext
        from repro.engine.sim import Scenario, run

        op_seed, jobs = inputs
        built: list = []
        original_build = SchedulingContext.__dict__["build"]

        def keep_context(cls, *args, **kwargs):
            ctx = original_build.__func__(cls, *args, **kwargs)
            built.append(ctx)
            return ctx

        if self.referee:
            # The referee needs the context schedule() builds internally;
            # a pass-through wrapper hands it over without changing the call.
            SchedulingContext.build = classmethod(keep_context)
        tracer.op = first_op
        try:
            t0 = time.perf_counter()
            with tracer.span("bench.op"), tracer.span("core.search"):
                result = schedule(
                    jobs, method=self.method, cap_w=CAP_W, seed=op_seed
                )
            op_s = time.perf_counter() - t0
        finally:
            SchedulingContext.build = original_build

        uids = [job.uid for job in jobs]
        problems = check_placement(result.schedule, uids)
        replay = run(
            self.processor,
            Scenario.from_schedule(result.schedule),
            governor=result.governor,
        )
        problems += check_execution(replay, uids)
        if self.referee:
            problems += check_schedule_referee(built[-1], result.schedule)
        stats = result.cache_stats or {}
        return PassResult(
            op_s=[op_s],
            busy_s=op_s,
            jobs=len(jobs),
            makespan_s=replay.makespan_s,
            turnarounds_s=[c.finish_s for c in replay.completions],
            problems=problems,
            failed_ops=1 if problems else 0,
            counts={
                "evalcache_hits": stats.get("cache_hits", 0.0),
                "evalcache_misses": stats.get("cache_misses", 0.0),
            },
        )


class OfflineTensor(OfflineWorkload):
    name = "offline-tensor"
    n_jobs = 96
    method = "portfolio"
    referee = True
    pass_s = 2.0


class OfflineFallback(OfflineWorkload):
    name = "offline-fallback"
    n_jobs = 128
    method = "hcs"
    # Definition 2.1's lower-bound check costs about a minute at 128 jobs
    # on the scalar path, so this workload stops at placement + replay.
    referee = False
    pass_s = 10.0
    min_passes = 3


# ----------------------------------------------------------------------
# Service: a drained daemon session, one request batch per op
# ----------------------------------------------------------------------
class ServiceDrain(Workload):
    name = "service-drain"
    pass_s = 2.5
    #: The same session's batch median varies by up to 50% from pass to
    #: pass on a shared host (its ops are memory-heavy), so a run makes
    #: at least 12 sessions.
    min_passes = 12
    #: The first sessions of a process take up to 300k page faults each
    #: (about 1 GB) while its heap grows to the working set.
    warmup_passes = 2
    n_jobs = 64
    #: Virtual seconds per arrival slot: faster than two devices
    #: finish these programs under the cap, so a backlog forms.
    slot_s = 16.0
    #: Virtual seconds each request batch advances the clock by.
    tick_s = 48.0
    #: A session still busy at this virtual time is drained at once.
    max_clock_s = 1e5

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.hardware.calibration import make_ivy_bridge
        from repro.workload.rodinia import rodinia_programs

        self.processor = make_ivy_bridge()
        self.programs = [p.name for p in rodinia_programs()]
        self.workdir = workdir
        self._next = None
        self.prepare(seed, 0)

    def prepare(self, seed: int, index: int) -> None:
        """A fresh session, durable store and daemon state for the pass."""
        from repro.service.server import ServiceState
        from repro.service.session import ServiceSession
        from repro.store.store import JobStore

        if self._next is not None:
            return
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        session = ServiceSession(
            self.processor, method="hcs", cap_w=CAP_W, seed=sub_seed(seed, index)
        )
        state = ServiceState(
            session, queue_capacity=4 * self.n_jobs, store=JobStore.open(store_dir)
        )
        self._next = (state, store_dir)

    def inputs(self, seed: int, index: int):
        rng = np.random.default_rng(sub_seed(seed, index))
        # Each program equally often, in seeded order; one arrival per slot,
        # at a seeded point inside it.  (Poisson arrivals made one
        # session's cost vary by ±20% between seeds, through the backlog.)
        programs = rng.permutation(np.arange(self.n_jobs) % len(self.programs))
        arrivals = self.slot_s * (np.arange(self.n_jobs) + rng.uniform(0.0, 1.0, self.n_jobs))
        return [
            (f"job-{k:03d}", self.programs[p], float(at))
            for k, (p, at) in enumerate(zip(programs, arrivals))
        ]

    def run_pass(self, inputs, tracer=NULL_TRACER, first_op: int = 0) -> PassResult:
        from repro.service import protocol

        state, store_dir = self._next
        self._next = None
        def round_trip(batch: list) -> list:
            with tracer.span("bench.op"):
                with tracer.span("service.encode"):
                    lines = [protocol.encode(r) for r in batch]
                with tracer.span("service.decode"):
                    requests = [protocol.decode_request(line) for line in lines]
                with tracer.span("service.handle"):
                    responses = state.handle_batch(requests)
                with tracer.span("service.encode"):
                    wire = [protocol.encode(r) for r in responses]
                with tracer.span("service.decode"):
                    return [protocol.decode_response(line) for line in wire]

        # One client, closed loop: each batch submits what arrives before
        # the next tick and advances the clock to it; once every job is
        # reported done, a final drain closes the session.
        waiting = list(inputs)
        finished = 0
        until_s = 0.0
        op_s: list[float] = []
        replies: list[list] = []
        t_first = time.perf_counter()
        while True:
            if waiting or finished < len(inputs):
                until_s += self.tick_s
                batch = []
                while waiting and waiting[0][2] < until_s:
                    uid, program, at = waiting.pop(0)
                    batch.append(protocol.SubmitRequest(program=program, uid=uid, arrival_s=at))
                batch.append(protocol.AdvanceRequest(until_s=until_s))
            else:
                batch = [protocol.DrainRequest()]
            tracer.op = first_op + len(op_s)
            t0 = time.perf_counter()
            reply = round_trip(batch)
            op_s.append(time.perf_counter() - t0)
            replies.append(reply)
            if isinstance(batch[-1], protocol.DrainRequest):
                break
            finished += len(getattr(reply[-1], "completions", ()))
            if until_s > self.max_clock_s:
                waiting = []
                finished = len(inputs)
        busy_s = time.perf_counter() - t_first

        acks = [ack for reply in replies for ack in reply[:-1]]
        completions = [c for reply in replies for c in reply[-1].completions]
        problems = check_service(
            [uid for uid, _, _ in inputs], acks, completions, state.store
        )
        failed = sum(
            1 for reply in replies
            if not all(isinstance(ack, protocol.SubmitResponse) for ack in reply[:-1])
            or not isinstance(reply[-1], (protocol.AdvanceResponse, protocol.DrainResponse))
            or reply[-1].rejections
        )
        if problems and not failed:
            # A session-level check failed: charge it to the drain batch.
            failed = 1
        snapshot = state.session.cache.snapshot()
        counts = {
            "engine_events": float(state.session.sim.events_processed),
            "evalcache_hits": snapshot["cache_hits"],
            "evalcache_misses": snapshot["cache_misses"],
        }
        state.close()
        shutil.rmtree(store_dir, ignore_errors=True)
        return PassResult(
            op_s=op_s,
            busy_s=busy_s,
            jobs=len({c.job_id for c in completions}),
            makespan_s=max((c.finish_s for c in completions), default=0.0),
            turnarounds_s=[c.turnaround_s for c in completions],
            problems=problems,
            failed_ops=failed,
            counts=counts,
        )

    def close(self) -> None:
        if self._next is not None:
            state, store_dir = self._next
            state.close()
            shutil.rmtree(store_dir, ignore_errors=True)
            self._next = None


# ----------------------------------------------------------------------
# Simulation: one engine.run of a many-phase trace per op
# ----------------------------------------------------------------------
SIM_JOBS = 256
SIM_PHASES = 400


class PreemptingFifo:
    """FIFO placement that preempts or migrates at regular completion counts."""

    def __init__(self) -> None:
        self.completions = 0
        self.preempts = 0
        self.migrations = 0

    def __call__(self, kind, pending, other, now):
        return pending[0] if pending else None

    def on_event(self, sim, event):
        from repro.engine.sim import EventKind
        from repro.hardware.device import DeviceKind

        if event.kind is not EventKind.COMPLETION:
            return
        self.completions += 1
        if self.completions % 16 == 0 and len(sim.running) == 1:
            (kind,) = sim.running
            sim.migrate(kind)
            self.migrations += 1
        elif self.completions % 8 == 0 and DeviceKind.CPU in sim.running:
            sim.preempt(DeviceKind.CPU)
            self.preempts += 1


class SimTrace(Workload):
    name = "sim-trace"
    pass_s = 1.5

    def inputs(self, seed: int, index: int):
        # Every pass of a run replays the same trace, so per-pass counts
        # (events, preemptions) repeat exactly for a seed.
        from repro.hardware.device import DeviceKind
        from repro.workload.phases import Phase
        from repro.workload.program import Job, ProgramProfile

        rng = np.random.default_rng(sub_seed(seed, 0))
        phases = tuple(
            Phase(weight=1.0, intensity=1.6 if k % 2 else 0.4)
            for k in range(SIM_PHASES)
        )
        compute = 2.0 + 0.5 * rng.integers(0, 7, SIM_JOBS)
        jitter = rng.uniform(0.0, 0.25, SIM_JOBS)
        out = []
        for i in range(SIM_JOBS):
            c = float(compute[i])
            profile = ProgramProfile(
                name=f"p{i % 16}",
                compute_base_s={DeviceKind.CPU: c, DeviceKind.GPU: 0.7 * c},
                bytes_gb=0.5 * c,
                mem_eff={DeviceKind.CPU: 0.6, DeviceKind.GPU: 0.8},
                overlap=0.5,
                sensitivity={DeviceKind.CPU: 1.0, DeviceKind.GPU: 0.9},
                phases=phases,
            )
            out.append((Job(uid=f"trace{i:04d}", profile=profile), 0.5 * i + float(jitter[i])))
        return out

    def run_pass(self, inputs, tracer=NULL_TRACER, first_op: int = 0) -> PassResult:
        from repro.engine.sim import PenaltyModel, Scenario, run
        from repro.hardware.frequency import FrequencySetting

        setting = FrequencySetting(
            cpu_ghz=self.processor.cpu.domain.fmax,
            gpu_ghz=self.processor.gpu.domain.fmax,
        )

        def governor(cpu_job, gpu_job):
            return setting

        policy = PreemptingFifo()
        scenario = Scenario.from_arrivals(
            inputs,
            penalties=PenaltyModel(
                checkpoint_s=0.05,
                restart_s=0.05,
                migrate_s=0.1,
                warmup_s=0.2,
                warmup_factor=1.2,
            ),
        )
        tracer.op = first_op
        t0 = time.perf_counter()
        with tracer.span("bench.op"):
            result = run(self.processor, scenario, policy=policy, governor=governor)
        op_s = time.perf_counter() - t0

        uids = [job.uid for job, _ in inputs]
        problems = check_sim_trace(result, uids, policy.preempts, policy.migrations)
        arrivals = {job.uid: at for job, at in inputs}
        return PassResult(
            op_s=[op_s],
            busy_s=op_s,
            jobs=len(result.completions),
            makespan_s=result.makespan_s,
            turnarounds_s=[c.finish_s - arrivals[c.job] for c in result.completions],
            problems=problems,
            failed_ops=1 if problems else 0,
            counts={"engine_events": float(result.events_processed)},
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (OfflineTensor, OfflineFallback, ServiceDrain, SimTrace)
}
