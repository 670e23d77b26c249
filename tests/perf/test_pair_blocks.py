"""Block-built pair tables, the step-3 ranking table, and the blocked bound.

:class:`~repro.perf.tensor.PairTables` and the tensor lower bound reduce
the pair space in CPU-job row blocks of at most ``BLOCK_ELEMENTS`` cells.
The contract is that the block size is invisible: every table is bitwise
equal to a one-block build, the ranking table answers exactly what the
scalar ``min_pair_interference`` loop answers, and the job count never
sends a context back to the scalar evaluator.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.perf.tensor as tensor_mod
from repro.core.bounds import _tensor_lower_bound, lower_bound
from repro.core.context import SchedulingContext
from repro.core.freqpolicy import ModelGovernor
from repro.core.hcs import hcs_schedule
from repro.core.objectives import EnergyAwareGovernor, Objective
from repro.hardware.calibration import make_ivy_bridge
from repro.hardware.device import DeviceKind
from repro.model.characterize import characterize_space, characterize_staged_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.perf.tensor import (
    BatchScheduleEvaluator,
    PairTables,
    TensorBackedPredictor,
    TensorModel,
    tensorize,
)
from repro.workload.generator import random_workload

N_JOBS = 6
#: At 8.9 W about half of this workload's ordered pairs have no feasible
#: setting; at 13 W all do.
CAPS = (8.9, 13.0)
#: Four CPU-job rows of N_JOBS x 160 settings: blocks of 4 + 2 rows.
PARTIAL_BUDGET = 4 * N_JOBS * 160


@pytest.fixture(scope="module")
def processor():
    return make_ivy_bridge()


@pytest.fixture(scope="module")
def jobs():
    return random_workload(N_JOBS, seed=11)


@pytest.fixture(scope="module")
def table(processor, jobs):
    return profile_workload(processor, jobs)


@pytest.fixture(scope="module", params=["plain", "staged"])
def scalar_predictor(request, processor, table):
    if request.param == "plain":
        space = characterize_space(processor)
    else:
        space = characterize_staged_space(processor)
    return CoRunPredictor(processor, table, space)


def _governors(predictor, cap):
    yield ModelGovernor(predictor, cap)
    for objective in (Objective.ENERGY, Objective.EDP, Objective.MAKESPAN_ENERGY):
        yield EnergyAwareGovernor(predictor, cap, objective)


def _table_arrays(tables: PairTables) -> list[np.ndarray]:
    arrays = [
        tables.pair_valid, tables.pair_sidx, tables.pair_t_c, tables.pair_t_g,
        tables.pair_power, tables.rank_value, tables.rank_sidx,
    ]
    for kind in DeviceKind:
        arrays += [tables.solo_valid[kind], tables.solo_t[kind], tables.solo_power[kind]]
    return arrays


class TestRankingTable:
    @pytest.mark.parametrize("cap", CAPS)
    def test_equals_scalar_min_pair_interference(
        self, scalar_predictor, jobs, cap
    ):
        """Every ordered pair: same value, same setting, None when infeasible."""
        wrapped = tensorize(scalar_predictor, [j.uid for j in jobs])
        assert isinstance(wrapped, TensorBackedPredictor)
        infeasible = 0
        for scalar_gov, tensor_gov in zip(
            _governors(scalar_predictor, cap), _governors(wrapped, cap)
        ):
            tables = tensor_mod.governor_tables(tensor_gov)
            assert tables is not None
            assert tensor_mod.governor_tables(scalar_gov) is None
            for c in jobs:
                for g in jobs:
                    want = scalar_gov.min_pair_interference(c.uid, g.uid)
                    got = tensor_gov.min_pair_interference(c.uid, g.uid)
                    # repro: noqa REP003 -- byte-identical backend contract
                    assert got == want
                    infeasible += want is None
        if cap == CAPS[0]:
            assert infeasible > 0

    def test_governor_choice_matches_table_setting(self, scalar_predictor, jobs):
        """The retained per-pair setting index is the governor's own pick."""
        cap = CAPS[0]
        wrapped = tensorize(scalar_predictor, [j.uid for j in jobs])
        for scalar_gov, tensor_gov in zip(
            _governors(scalar_predictor, cap), _governors(wrapped, cap)
        ):
            tables = tensor_mod.governor_tables(tensor_gov)
            index = tables.tensor.index
            for c in jobs:
                for g in jobs:
                    i, j = index[c.uid], index[g.uid]
                    if not tables.pair_valid[i, j]:
                        continue
                    setting = scalar_gov(c, g)
                    assert tables.tensor.settings[tables.pair_sidx[i, j]] == setting

    def test_tables_resolved_once_per_governor(self, scalar_predictor, jobs, monkeypatch):
        wrapped = tensorize(scalar_predictor, [j.uid for j in jobs])
        gov = ModelGovernor(wrapped, CAPS[1])
        calls = []
        real = PairTables.build.__func__

        def counting(cls, *args):
            calls.append(args)
            return real(cls, *args)

        monkeypatch.setattr(PairTables, "build", classmethod(counting))
        for c in jobs:
            for g in jobs:
                gov.min_pair_interference(c.uid, g.uid)
        assert len(calls) == 1

    def test_uncovered_uid_takes_scalar_path(self, scalar_predictor, jobs):
        """A model over a subset still ranks pairs outside it, by the loop."""
        sub = TensorBackedPredictor(
            scalar_predictor, TensorModel(scalar_predictor, [jobs[0].uid])
        )
        gov = ModelGovernor(sub, CAPS[1])
        ref = ModelGovernor(scalar_predictor, CAPS[1])
        pair = (jobs[0].uid, jobs[1].uid)
        assert not tensor_mod.governor_tables(gov).covers(*pair)
        # repro: noqa REP003 -- byte-identical backend contract
        assert gov.min_pair_interference(*pair) == ref.min_pair_interference(*pair)


class TestBlockedBuild:
    @pytest.mark.parametrize("scale", [None, (0.8, 1.25)])
    def test_partial_last_block_equals_one_block(
        self, scalar_predictor, jobs, monkeypatch, scale
    ):
        uids = [j.uid for j in jobs]

        def build_all():
            model = TensorModel(scalar_predictor, uids)
            if scale is not None:
                model = model.scaled(*scale, node_name="n1")
            return model, [
                PairTables.build(model, gov, cap)
                for cap in CAPS
                for gov in _governors(TensorBackedPredictor(scalar_predictor, model), cap)
            ]

        monkeypatch.setattr(tensor_mod, "BLOCK_ELEMENTS", 10**9)
        model, one_block = build_all()
        assert list(model.row_blocks(N_JOBS, N_JOBS)) == [slice(0, N_JOBS)]
        monkeypatch.setattr(tensor_mod, "BLOCK_ELEMENTS", PARTIAL_BUDGET)
        model, blocked = build_all()
        assert list(model.row_blocks(N_JOBS, N_JOBS)) == [slice(0, 4), slice(4, 6)]
        for a, b in zip(one_block, blocked):
            for x, y in zip(_table_arrays(a), _table_arrays(b)):
                assert x.dtype == y.dtype
                assert x.tobytes() == y.tobytes()

    def test_point_queries_equal_block_cells(self, scalar_predictor, jobs):
        """One-pair blocks from the LRU equal the same cells of a full block."""
        model = TensorModel(scalar_predictor, [j.uid for j in jobs])
        full = model.pair_block(slice(None), slice(None))
        for c in jobs:
            for g in jobs:
                i, j = model.index[c.uid], model.index[g.uid]
                row = model._pair_row(c.uid, g.uid)
                for whole, cell in zip(full, row):
                    assert whole[i, j].tobytes() == cell.tobytes()

    def test_pair_rows_lru_is_bounded(self, scalar_predictor, jobs, monkeypatch):
        monkeypatch.setattr(tensor_mod, "_PAIR_ROW_LIMIT", 3)
        model = TensorModel(scalar_predictor, [j.uid for j in jobs])
        for c in jobs:
            model.degradations(c.uid, jobs[0].uid, 0)
        assert len(model._pair_rows) == 3


class TestBlockedLowerBound:
    @pytest.mark.parametrize("cap", CAPS + (15.0,))
    def test_subset_of_table_wide_model_equals_scalar(
        self, scalar_predictor, jobs, monkeypatch, cap
    ):
        subset = jobs[1:5]
        wrapped = tensorize(scalar_predictor, [j.uid for j in subset])
        # Table-wide: the model covers every profiled job, not the subset.
        assert len(wrapped.tensor.uids) == N_JOBS
        # Three rows of a 4-job subset per block: blocks of 3 + 1 rows.
        monkeypatch.setattr(tensor_mod, "BLOCK_ELEMENTS", 3 * len(subset) * 160)
        assert len(list(wrapped.tensor.row_blocks(4, 4))) == 2
        assert _tensor_lower_bound(wrapped, subset, cap) is not None
        try:
            want = lower_bound(scalar_predictor, subset, cap)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                lower_bound(wrapped, subset, cap)
            assert str(got.value) == str(exc)
        else:
            # repro: noqa REP003 -- byte-identical backend contract
            assert lower_bound(wrapped, subset, cap) == want


class TestNoScalarCliff:
    def test_120_jobs_stay_on_the_tensor_path(self):
        """Past the old size limit (112^2 x 160 cells) the context still
        gets the batch evaluator, and HCS never falls back to scalar."""
        jobs = random_workload(120, seed=5)
        ctx = SchedulingContext.build(jobs, cap_w=15.0, seed=0)
        assert isinstance(ctx.evaluator, BatchScheduleEvaluator)
        result = hcs_schedule(ctx)
        assert result.predicted_makespan_s > 0.0
        assert ctx.evaluator.batch_stats["scalar_fallbacks"] == 0

    @pytest.mark.parametrize("method", ["hcs", "hcs+"])
    def test_multi_block_schedule_equals_scalar_backend(
        self, processor, monkeypatch, method
    ):
        from repro.core.api import schedule

        jobs = random_workload(10, seed=3)
        monkeypatch.setattr(tensor_mod, "BLOCK_ELEMENTS", 3 * 10 * 160)
        got = schedule(jobs, method, cap_w=15.0, seed=1, processor=processor)
        want = schedule(
            jobs, method, cap_w=15.0, seed=1, processor=processor, backend="scalar"
        )
        assert got.schedule == want.schedule
        # repro: noqa REP003 -- byte-identical backend contract
        assert got.predicted_makespan_s == want.predicted_makespan_s


def test_schedule_reports_tensor_counters(processor):
    """ScheduleResult.cache_stats carries the evaluator's tensor_* counters."""
    from repro.core.api import schedule

    jobs = random_workload(8, seed=2)
    result = schedule(jobs, "genetic", cap_w=15.0, seed=0, processor=processor)
    assert result.cache_stats["tensor_population_calls"] > 0
    assert "cache_hits" in result.cache_stats
    assert "cache_misses" in result.cache_stats
