"""Genetic-algorithm co-scheduling (the paper's reference [23] approach).

Phan et al. evolve co-schedules with a genetic algorithm on homogeneous
clusters; this module adapts the idea to the Definition 2.1 search space so
it can serve as a second search-based comparator (next to A*): a genome is
a placement vector plus a priority permutation, decoded into two processor
queues; fitness is the predicted makespan under the same cap-aware governor
HCS uses.

GA is the anytime middle ground between greedy HCS (instant, good) and A*
(optimal, exponential): a few hundred fitness evaluations typically land
within a few percent of A* on 8-job instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.workload.program import Job
from repro.core.context import SchedulingContext
from repro.core.schedule import CoSchedule
from repro.model.predictor import CoRunPredictor
from repro.perf.evaluator import ScheduleEvaluator


@dataclass(frozen=True)
class GaConfig:
    """Population and operator settings."""

    population: int = 40
    generations: int = 30
    elite: int = 4
    crossover_rate: float = 0.8
    mutation_rate: float = 0.15

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if not 0 <= self.elite < self.population:
            raise ValueError("elite must fit inside the population")
        for name in ("crossover_rate", "mutation_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability")


@dataclass
class _Genome:
    """placement[i] True -> CPU; priority: order within each queue.

    ``decoded`` memoizes the genome's :class:`CoSchedule`: elites survive
    across generations and the scalar loop re-decodes each genome for the
    fitness sort, the tournaments, and the generation-batch evaluation —
    all of which now share one build.  Operators always produce *new*
    genomes (fresh arrays, empty memo), so a cached decode can never go
    stale.
    """

    placement: np.ndarray
    priority: np.ndarray
    decoded: CoSchedule | None = None


class GeneticScheduler:
    """Evolve two-queue co-schedules under the predicted model.

    On a tensor-backed context the whole evolution runs vectorized: the
    population lives as ``(P, n)`` index matrices, operators are batched
    array ops (:mod:`repro.perf.population`), and each generation is
    scored by one ``score_population`` lockstep replay.  ``vectorized``
    (default ``True``) uses the population kernels whenever the
    evaluator's pair tables cover every job; ``False`` pins the scalar
    per-genome loop (the equivalence referee).
    """

    def __init__(
        self,
        predictor: CoRunPredictor | SchedulingContext,
        jobs: Sequence[Job] | None = None,
        cap_w: float | None = None,
        *,
        config: GaConfig | None = None,
        seed=None,
        evaluator: ScheduleEvaluator | None = None,
        executor=None,
        vectorized: bool = True,
    ) -> None:
        ctx = SchedulingContext.coerce(
            predictor, jobs, cap_w, evaluator=evaluator, executor=executor, seed=seed
        )
        self.jobs = list(ctx.jobs)
        if len({j.uid for j in self.jobs}) != len(self.jobs):
            raise ValueError("job uids must be unique")
        self.predictor = ctx.predictor
        from repro.core.feasibility import context_cap

        self.cap_w = context_cap(ctx)
        self.config = config if config is not None else GaConfig()
        self.rng = ctx.rng()
        # Fitness is the context's objective score — a GA over an energy
        # context genuinely evolves low-energy schedules.
        self.evaluator = ctx.evaluator
        self.governor = ctx.governor
        self.executor = ctx.executor
        self.vectorized = vectorized

    # ------------------------------------------------------------------
    def _decode(self, genome: _Genome) -> CoSchedule:
        if genome.decoded is None:
            order = np.argsort(genome.priority, kind="stable")
            cpu = [self.jobs[i] for i in order if genome.placement[i]]
            gpu = [self.jobs[i] for i in order if not genome.placement[i]]
            genome.decoded = CoSchedule(cpu_queue=tuple(cpu), gpu_queue=tuple(gpu))
        return genome.decoded

    def _fitness(self, genome: _Genome) -> float:
        return self.evaluator(self._decode(genome))

    def _evaluate_population(self, population: list[_Genome]) -> None:
        """Fill the evaluator's cache for a whole generation at once.

        Uncached genomes fan out over the executor (the GA's evaluation is
        embarrassingly parallel within a generation); results are identical
        to serial evaluation because fitness is a pure function.
        """
        self.evaluator.evaluate_all(
            [self._decode(g) for g in population], executor=self.executor
        )

    def _random_genome(self) -> _Genome:
        n = len(self.jobs)
        return _Genome(
            placement=self.rng.random(n) < 0.5,
            priority=self.rng.permutation(n).astype(np.int64),
        )

    def _crossover(self, a: _Genome, b: _Genome) -> _Genome:
        n = len(self.jobs)
        mask = self.rng.random(n) < 0.5
        placement = np.where(mask, a.placement, b.placement)
        # Order crossover on the priority permutation: keep a's relative
        # order for masked positions, fill the rest in b's order.
        child = np.empty(n, dtype=np.int64)
        a_rank = np.argsort(a.priority, kind="stable")
        b_rank = np.argsort(b.priority, kind="stable")
        picked = set(int(i) for i in a_rank[: n // 2])
        sequence = [int(i) for i in a_rank[: n // 2]] + [
            int(i) for i in b_rank if int(i) not in picked
        ]
        for rank, idx in enumerate(sequence):
            child[idx] = rank
        return _Genome(placement=placement, priority=child)

    def _mutate(self, genome: _Genome) -> _Genome:
        n = len(self.jobs)
        placement = genome.placement.copy()
        priority = genome.priority.copy()
        if self.rng.random() < self.config.mutation_rate:
            placement[int(self.rng.integers(n))] ^= True
        if n >= 2 and self.rng.random() < self.config.mutation_rate:
            i, j = self.rng.choice(n, size=2, replace=False)
            priority[i], priority[j] = priority[j], priority[i]
        return _Genome(placement=placement, priority=priority)

    # ------------------------------------------------------------------
    def _population_evaluator(self):
        """The context's batch evaluator, when it can score this job set.

        Vectorized evolution needs the tensor backend's pair tables with
        every job covered; anything else (scalar backend, custom governor
        or evaluator, uncovered uids) returns ``None`` and the scalar
        loop runs.
        """
        from repro.perf.tensor import BatchScheduleEvaluator

        ev = self.evaluator
        if not isinstance(ev, BatchScheduleEvaluator) or ev.tables is None:
            return None
        index = ev.tensor.index
        if any(j.uid not in index for j in self.jobs):
            return None
        return ev

    def _evolve_vectorized(
        self, ev, seed_schedule: CoSchedule | None
    ) -> tuple[CoSchedule, float]:
        """Array-matrix evolution: one lockstep replay per generation."""
        from repro.perf import population as popkit

        index = ev.tensor.index
        job_index = np.array(
            [index[j.uid] for j in self.jobs], dtype=np.int64
        )

        def score(placement: np.ndarray, priority: np.ndarray) -> np.ndarray:
            Qc, len_c, Qg, len_g = popkit.decode_queues(
                placement, priority, job_index
            )
            scores, _, _, _, bad = ev.score_population(Qc, len_c, Qg, len_g)
            if bad.any():
                # Surface the exact scalar error: re-evaluate the first
                # infeasible genome through the evaluator, whose scalar
                # fallback raises InfeasibleCapError with the offending
                # pair named — identical to the per-genome path.
                k = int(np.argmax(bad))
                self.evaluator(
                    self._decode(_Genome(placement[k], priority[k]))
                )
            return scores

        seed_place = seed_prio = None
        if seed_schedule is not None:
            seeded = self._encode(seed_schedule)
            seed_place, seed_prio = seeded.placement, seeded.priority
        place, prio, _ = popkit.evolve_population(
            score,
            len(self.jobs),
            self.config,
            self.rng,
            seed_placement=seed_place,
            seed_priority=seed_prio,
        )
        best = self._decode(_Genome(placement=place, priority=prio))
        # Report the memoized evaluator score (bitwise equal to the batch
        # lane's), so the result is cache-consistent with every other path.
        return best, self.evaluator(best)

    def evolve(
        self, *, seed_schedule: CoSchedule | None = None
    ) -> tuple[CoSchedule, float]:
        """Run the GA; returns the best schedule and its predicted makespan.

        ``seed_schedule`` (e.g. HCS's output) is injected into the initial
        population — memetic seeding, which in practice lets the GA act as
        a *refiner* of the heuristic.
        """
        if self.vectorized:
            ev = self._population_evaluator()
            if ev is not None:
                return self._evolve_vectorized(ev, seed_schedule)
        cfg = self.config
        population = [self._random_genome() for _ in range(cfg.population)]
        if seed_schedule is not None:
            population[0] = self._encode(seed_schedule)

        for _ in range(cfg.generations):
            self._evaluate_population(population)
            population.sort(key=self._fitness)
            next_gen = population[: cfg.elite]
            while len(next_gen) < cfg.population:
                a, b = self._tournament(population), self._tournament(population)
                child = (
                    self._crossover(a, b)
                    if self.rng.random() < cfg.crossover_rate
                    else a
                )
                next_gen.append(self._mutate(child))
            population = next_gen

        self._evaluate_population(population)
        best = min(population, key=self._fitness)
        return self._decode(best), self._fitness(best)

    def _tournament(self, population: list[_Genome], k: int = 3) -> _Genome:
        picks = self.rng.choice(len(population), size=min(k, len(population)),
                                replace=False)
        return min((population[int(i)] for i in picks), key=self._fitness)

    def _encode(self, schedule: CoSchedule) -> _Genome:
        uid_to_idx = {j.uid: i for i, j in enumerate(self.jobs)}
        n = len(self.jobs)
        placement = np.zeros(n, dtype=bool)
        priority = np.zeros(n, dtype=np.int64)
        rank = 0
        for job in schedule.cpu_queue:
            placement[uid_to_idx[job.uid]] = True
            priority[uid_to_idx[job.uid]] = rank
            rank += 1
        for job in schedule.gpu_queue:
            priority[uid_to_idx[job.uid]] = rank
            rank += 1
        for job, _ in schedule.solo_tail:
            priority[uid_to_idx[job.uid]] = rank
            rank += 1
        return _Genome(placement=placement, priority=priority)


def genetic_schedule(
    predictor: CoRunPredictor | SchedulingContext,
    jobs: Sequence[Job] | None = None,
    cap_w: float | None = None,
    *,
    config: GaConfig | None = None,
    seed=None,
    seed_schedule: CoSchedule | None = None,
    evaluator: ScheduleEvaluator | None = None,
    executor=None,
    vectorized: bool = True,
) -> tuple[CoSchedule, float]:
    """Convenience wrapper around :class:`GeneticScheduler`."""
    return GeneticScheduler(
        predictor,
        jobs,
        cap_w,
        config=config,
        seed=seed,
        evaluator=evaluator,
        executor=executor,
        vectorized=vectorized,
    ).evolve(seed_schedule=seed_schedule)
