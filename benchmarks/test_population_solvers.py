"""Vectorized population-solver benchmark: the GA+refine hot-path gate.

The population kernels (``repro.perf.population``) replace the scalar
per-schedule GA/refinement inner loops with batched index-array operators
scored through :meth:`BatchScheduleEvaluator.score_population` — one
tensor replay per generation instead of one per candidate.  This
benchmark runs the full GA (population 64) + refinement search on a
16-job workload twice on the tensor backend: once with the vectorized
kernels (``vectorized=True``, the default) and once pinned to the
scalar search trajectory (``vectorized=False``, the per-schedule batch
path this PR's predecessor gated on), and requires the vectorized path
to be at least 3x faster while reaching an equal-or-better objective
score under the same seed and config.

The ``population_ga_refine`` entry lands in ``BENCH_results.json``; CI
gates on it via ``tools/check_bench.py --solvers-only`` (the ``make
bench-solvers`` target).
"""

from __future__ import annotations

import time

from repro.core.context import SchedulingContext
from repro.core.genetic import GaConfig, genetic_schedule
from repro.core.refine import refine_schedule
from repro.hardware.calibration import make_ivy_bridge
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.workload.generator import random_workload

CAP_W = 15.0
N_JOBS = 16
SEED = 1234
GA = GaConfig(population=64, generations=15)
MIN_SPEEDUP = 3.0


def _search(predictor, jobs, vectorized):
    """One full GA+refine pass on a fresh tensor context."""
    ctx = SchedulingContext(
        jobs=jobs, cap_w=CAP_W, predictor=predictor, seed=SEED,
        backend="tensor",
    )
    best, _ = genetic_schedule(ctx, config=GA, vectorized=vectorized)
    refined = refine_schedule(best, ctx, vectorized=vectorized)
    return ctx, refined, ctx.evaluator(refined)


def test_population_ga_refine_speedup(benchmark, bench_record):
    processor = make_ivy_bridge()
    jobs = random_workload(N_JOBS, seed=SEED)
    predictor = CoRunPredictor(
        processor, profile_workload(processor, jobs),
        characterize_space(processor),
    )

    # Warm both legs once (numpy dispatch, interpolation tables) so the
    # timed runs compare steady-state search cost, not first-call setup.
    _search(predictor, jobs, False)
    _search(predictor, jobs, True)

    t0 = time.perf_counter()
    ctx_b, sched_b, score_b = _search(predictor, jobs, False)
    baseline_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    ctx_v, sched_v, score_v = benchmark.pedantic(
        lambda: _search(predictor, jobs, True),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    vectorized_s = time.perf_counter() - t0

    stats_v = ctx_v.evaluator.snapshot()
    stats_b = ctx_b.evaluator.snapshot()
    # The vectorized leg must actually have taken the population path,
    # and the baseline must not have.
    assert stats_v["tensor_population_calls"] >= 1
    assert stats_b["tensor_population_calls"] == 0

    speedup = baseline_s / vectorized_s
    bench_record(
        name="population_ga_refine",
        n_jobs=N_JOBS,
        population=GA.population,
        generations=GA.generations,
        baseline_s=baseline_s,
        vectorized_s=vectorized_s,
        speedup=speedup,
        baseline_score=score_b,
        vectorized_score=score_v,
        population_stats=stats_v,
    )
    print(
        f"\n[population solvers] baseline={baseline_s:.3f}s "
        f"vectorized={vectorized_s:.3f}s speedup={speedup:.1f}x "
        f"scores {score_b:.4f} -> {score_v:.4f} "
        f"(population_calls={stats_v['tensor_population_calls']:g}, "
        f"population_schedules={stats_v['tensor_population_schedules']:g})"
    )

    # Same seed, same config: the batched operators must not trade
    # solution quality for speed.
    assert score_v <= score_b, (
        f"vectorized search scored {score_v:.6f}, worse than the scalar "
        f"trajectory's {score_b:.6f}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized population path only {speedup:.2f}x faster than the "
        f"per-schedule tensor baseline (need >= {MIN_SPEEDUP}x)"
    )
