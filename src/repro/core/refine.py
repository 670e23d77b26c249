"""HCS+ post local refinement (Section IV-A.3).

Three low-cost passes over the heuristic's output, each keeping a candidate
swap only when the *predicted* makespan improves:

1. adjacent swaps along each processor's queue (one linear pass per queue);
2. random swaps of two jobs within one queue;
3. random swaps of two jobs across the two queues.

All passes are linear in the number of jobs or in the number of random
samples, preserving the paper's "almost no time to run" property
(Section VI-D).  Candidate makespans are evaluated through a memoized
:class:`~repro.perf.evaluator.ScheduleEvaluator`: the random passes revisit
candidates, and a caller-supplied evaluator shares its cache with whatever
search produced the input schedule.

Driven through a non-makespan :class:`~repro.core.context.SchedulingContext`
the identical passes minimize the context's objective (energy or EDP)
instead — the evaluator is the only place a score is ever computed.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import SchedulingContext
from repro.core.schedule import CoSchedule
from repro.perf.evaluator import ScheduleEvaluator
from repro.util.rng import default_rng

#: Random-sample count per stochastic pass, as a multiple of the job count.
SAMPLES_PER_JOB = 2

#: Minimum relative predicted improvement for accepting a swap.  The model
#: carries ~15% error (Figure 7); chasing sub-percent predicted gains just
#: reshuffles the schedule inside the noise floor.  The deterministic
#: adjacent pass demands stronger evidence than the random passes: adjacent
#: swaps perturb the pairing pattern only locally, so their small predicted
#: gains are disproportionately model noise.
ADJACENT_MIN_GAIN = 0.01
RANDOM_MIN_GAIN = 0.002


def _adjacent_pass(
    schedule: CoSchedule, evaluate: ScheduleEvaluator, best_makespan: float
) -> tuple[CoSchedule, float]:
    for side in ("cpu", "gpu"):
        queue = list(schedule.cpu_queue if side == "cpu" else schedule.gpu_queue)
        for i in range(len(queue) - 1):
            queue[i], queue[i + 1] = queue[i + 1], queue[i]
            candidate = (
                schedule.with_queues(queue, schedule.gpu_queue)
                if side == "cpu"
                else schedule.with_queues(schedule.cpu_queue, queue)
            )
            m = evaluate(candidate)
            if m < best_makespan * (1.0 - ADJACENT_MIN_GAIN):
                schedule, best_makespan = candidate, m
            else:
                queue[i], queue[i + 1] = queue[i + 1], queue[i]
    return schedule, best_makespan


def _random_intra_pass(
    schedule: CoSchedule,
    evaluate: ScheduleEvaluator,
    best_makespan: float,
    rng: np.random.Generator,
    n_samples: int,
) -> tuple[CoSchedule, float]:
    for _ in range(n_samples):
        sides = [
            s
            for s in ("cpu", "gpu")
            if len(schedule.cpu_queue if s == "cpu" else schedule.gpu_queue) >= 2
        ]
        if not sides:
            break
        side = sides[int(rng.integers(len(sides)))]
        queue = list(schedule.cpu_queue if side == "cpu" else schedule.gpu_queue)
        i, j = rng.choice(len(queue), size=2, replace=False)
        queue[i], queue[j] = queue[j], queue[i]
        candidate = (
            schedule.with_queues(queue, schedule.gpu_queue)
            if side == "cpu"
            else schedule.with_queues(schedule.cpu_queue, queue)
        )
        m = evaluate(candidate)
        if m < best_makespan * (1.0 - RANDOM_MIN_GAIN):
            schedule, best_makespan = candidate, m
    return schedule, best_makespan


def _random_cross_pass(
    schedule: CoSchedule,
    evaluate: ScheduleEvaluator,
    best_makespan: float,
    rng: np.random.Generator,
    n_samples: int,
) -> tuple[CoSchedule, float]:
    for _ in range(n_samples):
        if not schedule.cpu_queue or not schedule.gpu_queue:
            break
        cpu = list(schedule.cpu_queue)
        gpu = list(schedule.gpu_queue)
        i = int(rng.integers(len(cpu)))
        j = int(rng.integers(len(gpu)))
        cpu[i], gpu[j] = gpu[j], cpu[i]
        candidate = schedule.with_queues(cpu, gpu)
        m = evaluate(candidate)
        if m < best_makespan * (1.0 - RANDOM_MIN_GAIN):
            schedule, best_makespan = candidate, m
    return schedule, best_makespan


def _refine_vectorized(
    schedule: CoSchedule, evaluate: ScheduleEvaluator, best: float
) -> CoSchedule | None:
    """Full-neighborhood steepest descent over the tensor tables.

    Returns the refined schedule, or ``None`` when this evaluator cannot
    batch-score the schedule (scalar backend, missing tables, uncovered
    uids) and the scalar sampling passes should run instead.  The
    vectorized neighborhood is a superset of what the scalar passes
    sample — every adjacent, intra-queue, and cross-queue swap — scored
    in one lockstep replay per round; infeasible candidates come back as
    ``np.inf`` and are skipped rather than raising, since a swap that
    breaks the cap is simply not an improvement.
    """
    from repro.perf.tensor import BatchScheduleEvaluator

    if not isinstance(evaluate, BatchScheduleEvaluator) or evaluate.tables is None:
        return None
    index = evaluate.tensor.index
    if any(uid not in index for uid in schedule.all_uids()):
        return None
    from repro.perf.population import refine_queues

    tail = tuple((index[j.uid], kind) for j, kind in schedule.solo_tail)

    def score_queues(Qc, len_c, Qg, len_g):
        scores, _, _, _, _ = evaluate.score_population(
            Qc, len_c, Qg, len_g, solo_tail=tail
        )
        return scores

    cpu = np.array([index[j.uid] for j in schedule.cpu_queue], dtype=np.int64)
    gpu = np.array([index[j.uid] for j in schedule.gpu_queue], dtype=np.int64)
    cpu, gpu, _ = refine_queues(
        score_queues,
        cpu,
        gpu,
        best,
        adjacent_min_gain=ADJACENT_MIN_GAIN,
        random_min_gain=RANDOM_MIN_GAIN,
    )
    job_of = {
        index[j.uid]: j
        for j in (*schedule.cpu_queue, *schedule.gpu_queue)
    }
    refined = schedule.with_queues(
        tuple(job_of[int(i)] for i in cpu),
        tuple(job_of[int(i)] for i in gpu),
    )
    # Prime the memoized per-schedule score (bitwise equal to the lane's).
    evaluate(refined)
    return refined


def refine_schedule(
    schedule: CoSchedule,
    predictor,
    governor=None,
    *,
    seed: int | np.random.Generator | None = None,
    n_samples: int | None = None,
    evaluator: ScheduleEvaluator | None = None,
    vectorized: bool = True,
) -> CoSchedule:
    """Apply the three refinement passes; returns the improved schedule.

    ``predictor`` may be a :class:`~repro.core.context.SchedulingContext`,
    in which case the context's evaluator (and seed, unless ``seed`` is
    given) drive the passes — the swaps then minimize the context's
    *objective*, not necessarily the makespan.  With the legacy
    ``(predictor, governor)`` arguments, ``evaluator`` (optional) supplies
    a shared memoized evaluator; when omitted a private one is created,
    which still de-duplicates re-visited candidates within this call.

    On a tensor-backed context the passes are replaced by vectorized
    full-neighborhood steepest descent (see
    :mod:`repro.perf.population`): deterministic, samples nothing, and
    never accepts a smaller gain than the scalar passes would.
    ``vectorized=False`` pins the scalar sampling passes (the equivalence
    referee).
    """
    ctx = _coerce_context(schedule, predictor, governor, evaluator)
    if ctx is not None:
        evaluate = evaluator if evaluator is not None else ctx.evaluator
        rng = default_rng(ctx.seed if seed is None else seed)
    else:
        # No equivalent context exists (empty schedule, or a governor that
        # carries no cap to check against) — refine with a private
        # evaluator; there is nothing the sanitizer could verify.
        evaluate = (
            evaluator
            if evaluator is not None
            else ScheduleEvaluator(predictor, governor)
        )
        rng = default_rng(seed)
    if n_samples is None:
        n_samples = max(1, SAMPLES_PER_JOB * schedule.n_jobs)
    best = evaluate(schedule)
    refined = _refine_vectorized(schedule, evaluate, best) if vectorized else None
    if refined is not None:
        schedule = refined
    else:
        schedule, best = _adjacent_pass(schedule, evaluate, best)
        schedule, best = _random_intra_pass(
            schedule, evaluate, best, rng, n_samples
        )
        schedule, best = _random_cross_pass(
            schedule, evaluate, best, rng, n_samples
        )
    if ctx is not None:
        from repro.analysis.invariants import maybe_check_schedule

        maybe_check_schedule(ctx, schedule, where="refine")
    return schedule


def _coerce_context(
    schedule: CoSchedule, predictor, governor, evaluator
) -> SchedulingContext | None:
    """Adapt ``refine_schedule``'s first arguments to one context.

    A :class:`SchedulingContext` passes through unchanged; the legacy
    ``(predictor, governor)`` shape is coerced via
    :meth:`SchedulingContext.coerce` with the schedule's own jobs and the
    governor's cap.  Returns ``None`` when no equivalent context exists —
    an empty schedule, or a governor without a ``cap_w`` (nothing to
    cap-check).
    """
    if isinstance(predictor, SchedulingContext):
        if governor is not None:
            raise TypeError(
                "governor must be omitted when a SchedulingContext is given"
            )
        return predictor
    cap_w = getattr(governor, "cap_w", None)
    if cap_w is None or schedule.n_jobs == 0:
        return None
    jobs = (
        *schedule.cpu_queue,
        *schedule.gpu_queue,
        *(job for job, _ in schedule.solo_tail),
    )
    return SchedulingContext.coerce(
        predictor,
        jobs,
        cap_w,
        objective=evaluator.objective if evaluator is not None else None,
        governor=governor,
        evaluator=evaluator,
    )
