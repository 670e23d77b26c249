"""HCS / HCS+ facade: the complete heuristic co-scheduling algorithm.

Wires the three steps together (Sections IV-A.1/2) and optionally the post
refinement (IV-A.3):

1. :func:`repro.core.partition.partition_jobs` — S_co vs S_seq via the
   Co-Run Theorem over cap-feasible settings;
2. :func:`repro.core.categorize.categorize_jobs` — preference sets with
   threshold D;
3. :func:`repro.core.greedy.greedy_schedule` — greedy minimum-interference
   pairing; S_seq jobs are appended as a solo tail, each on its best
   cap-feasible processor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.errors import InfeasibleCapError
from repro.hardware.device import DeviceKind
from repro.workload.program import Job
from repro.core.categorize import DEFAULT_THRESHOLD, Categorized, categorize_jobs
from repro.core.context import SchedulingContext
from repro.core.feasibility import context_cap
from repro.core.greedy import greedy_schedule
from repro.core.objectives import Objective
from repro.core.partition import Partition, partition_jobs
from repro.core.refine import refine_schedule
from repro.core.schedule import CoSchedule
from repro.model.predictor import CoRunPredictor
from repro.perf.evaluator import ScheduleEvaluator


@dataclass(frozen=True)
class HcsResult:
    """The heuristic's output plus its intermediate artifacts."""

    schedule: CoSchedule
    partition: Partition
    categorized: Categorized
    governor: object
    predicted_makespan_s: float
    scheduling_time_s: float


def _best_solo_kind(
    predictor: CoRunPredictor, job: Job, cap_w: float
) -> DeviceKind:
    """The processor delivering the job's best cap-feasible standalone time."""
    times = {}
    for kind in DeviceKind:
        try:
            times[kind] = predictor.best_solo(job.uid, kind, cap_w)[1]
        except InfeasibleCapError:
            continue
    if not times:
        raise InfeasibleCapError(
            f"{job.uid} cannot run under the {cap_w} W cap on either device",
            cap_w=cap_w,
            jobs=(job.uid,),
        )
    return min(times, key=lambda kind: times[kind])


def hcs_schedule(
    predictor: CoRunPredictor | SchedulingContext,
    jobs: Sequence[Job] | None = None,
    cap_w: float | None = None,
    *,
    refine: bool = False,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int | np.random.Generator | None = None,
    evaluator: ScheduleEvaluator | None = None,
    objective: Objective | str | None = None,
    vectorized: bool = True,
) -> HcsResult:
    """Compute an HCS (or, with ``refine=True``, HCS+) co-schedule.

    The first argument may be a
    :class:`~repro.core.context.SchedulingContext`, which supplies jobs,
    cap, governor, evaluator, objective, and seed in one bundle (the legacy
    ``(predictor, jobs, cap_w)`` shape is coerced into one).  Under an
    energy/EDP context the greedy pairing and the refinement passes rank
    candidates by the context governor's objective cost.  ``evaluator``
    (optional) shares a memoized evaluator with the refinement passes and
    the final predicted-makespan report.  ``vectorized`` is forwarded to
    :func:`~repro.core.refine.refine_schedule`: on a tensor-backed context
    the refinement runs as vectorized full-neighborhood descent by
    default; ``False`` pins the scalar sampling passes.
    """
    t0 = time.perf_counter()
    ctx = SchedulingContext.coerce(
        predictor,
        jobs,
        cap_w,
        objective=objective,
        evaluator=evaluator,
        seed=seed,
    )
    predictor, governor, evaluator = ctx.predictor, ctx.governor, ctx.evaluator

    cap = context_cap(ctx)
    part = partition_jobs(predictor, ctx.jobs, cap)
    cat = categorize_jobs(predictor, part.co, cap, threshold=threshold)
    cpu_order, gpu_order = greedy_schedule(predictor, cat, cap, governor)
    solo = tuple(
        (job, _best_solo_kind(predictor, job, cap)) for job in part.seq
    )
    schedule = CoSchedule(
        cpu_queue=tuple(cpu_order), gpu_queue=tuple(gpu_order), solo_tail=solo
    )
    if refine:
        schedule = refine_schedule(schedule, ctx, vectorized=vectorized)
    elapsed = time.perf_counter() - t0

    return HcsResult(
        schedule=schedule,
        partition=part,
        categorized=cat,
        governor=governor,
        predicted_makespan_s=ctx.predicted_makespan(schedule),
        scheduling_time_s=elapsed,
    )
