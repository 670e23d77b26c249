"""Vectorized tensor evaluation backend: table-driven and batched evaluation.

PR 1's :class:`~repro.perf.cache.EvalCache` deduplicates repeated model
queries but leaves every *cold* query on the scalar Python call chain
(``CoRunPredictor.degradations`` -> ``ProfileTable.demand_gbps`` -> staged
bilinear interpolation), one ``(pair, setting)`` at a time.  This module
vectorizes that chain over whole blocks of the question space and reduces
the blocks into per-pair tables that everything afterwards reads with O(1)
array lookups:

:class:`TensorModel`
    Per-``(job, device)`` level vectors from the profile table plus one
    exact kernel, :meth:`TensorModel.pair_block`, which computes the five
    pair quantities — degradation pair, co-run time pair, pair power — for
    a block of ``(cpu_job x gpu_job x frequency_setting)`` cells.  The
    kernel vectorizes the :class:`~repro.model.interpolation.BilinearGrid`
    evaluation and the :class:`~repro.model.profiler.ProfileTable` lookups
    operation for operation, so every element is *bitwise identical* to
    the scalar chain's answer.  No ``(n, n, settings)`` array is retained:
    reductions walk CPU-job row blocks of at most :data:`BLOCK_ELEMENTS`
    cells, and point queries read one-pair blocks from a small LRU.

:class:`TensorBackedPredictor`
    A drop-in predictor wrapper that serves the hot queries from the model
    through the same :class:`~repro.perf.cache.EvalCache` keys the scalar
    :class:`~repro.perf.evaluator.CachingPredictor` uses — identical cache
    hit/miss behavior, but a miss costs an array lookup instead of an
    interpolation chain.  Queries outside the model's coverage (unknown
    uids, off-grid frequencies) delegate to the wrapped predictor.

:class:`PairTables`
    Per-(governor, cap) reduction of the pair blocks: for every (cpu job,
    gpu job) pair the governor's chosen setting and the resulting co-run
    times/power, the pair's step-3 ranking cost (``min_pair_interference``)
    and its setting, and for every (job, device) the chosen solo level —
    the complete set of constants a timeline replay and the greedy pairing
    consume.  Argmin ties resolve to the first feasible setting in
    enumeration order, exactly as the governors' ``min()`` does.

:class:`BatchScheduleEvaluator`
    A :class:`~repro.perf.evaluator.ScheduleEvaluator` whose replay reads
    :class:`PairTables` with O(1) lookups per event, along one of two
    paths selected by batch size:

    * **per-schedule lane loop**: a single schedule (and any batch of at
      most four) replays in a plain Python loop from t=0;
    * **batched lockstep evaluation**: larger ``evaluate_all`` batches (a GA
      population, a brute-force chunk) advance every schedule
      event-by-event in one sweep of masked NumPy updates.

    The lockstep kernel pays a fixed NumPy dispatch cost per event, so a
    single schedule runs over an order of magnitude faster in the loop
    (measurements in ``docs/PERF.md``).

    Scores are bitwise identical to the scalar evaluator's; cache keys are
    tagged with the backend so mixed backends can never serve each other's
    entries.

Anything the model cannot represent exactly — oracle or noisy predictors,
subclassed spaces, jobs missing from the profile table — makes
:func:`tensorize` return ``None`` and the caller falls back to the scalar
path.  Job count is never a reason to fall back: memory is O(n^2) for the
tables plus one block.  Exactness is enforced by
``tests/perf/test_tensor_model.py`` / ``test_tensor_equivalence.py`` /
``test_pair_blocks.py`` and the ``REPRO_SANITIZE=1`` verifier.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.units import Hertz, PowerScale, Seconds, SpeedScale, Watts
from repro.errors import InfeasibleCapError
from repro.hardware.device import DeviceKind
from repro.perf.cache import EvalCache, ensure_cache
from repro.perf.evaluator import CachingPredictor, ScheduleEvaluator

#: Cells (rows x columns x settings) in one pair block.  Every pass over
#: the pair space walks CPU-job rows in blocks of at most this many cells,
#: so its working memory is fixed whatever the job count.
BLOCK_ELEMENTS = 65_536

#: A profile table with at most this many pair cells (n^2 x settings) gets
#: one model over all its jobs, shared by every job subset; a larger table
#: gets a model over just the requested jobs.
TABLE_WIDE_ELEMENTS = 2_000_000

#: One-pair ``(settings,)`` blocks each model keeps for point queries.
_PAIR_ROW_LIMIT = 256

#: Completion tolerance of the mean-field replay (must equal
#: ``repro.core.schedule._EPS``; asserted by the equivalence tests).
_EPS = 1e-12


def _grid_eval(grid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`BilinearGrid.__call__`, operation for operation.

    Every step mirrors the scalar implementation exactly (same clip,
    ``searchsorted`` side, index clamp, and left-to-right sum order), so
    each output element is bitwise equal to the scalar call at the same
    coordinates.  ``x`` and ``y`` may be broadcastable rather than equal
    shapes — a pair block passes ``(rows, 1, S)`` and ``(1, cols, S)`` —
    so the per-axis steps run once per row or column and only the final
    gather and sum span the whole block.
    """
    xs, ys, v = grid.x_levels, grid.y_levels, grid.values
    x = np.clip(x, xs[0], xs[-1])
    y = np.clip(y, ys[0], ys[-1])

    i = np.searchsorted(xs, x, side="right") - 1
    j = np.searchsorted(ys, y, side="right") - 1
    i = np.clip(i, 0, xs.size - 2)
    j = np.clip(j, 0, ys.size - 2)

    tx = (x - xs[i]) / (xs[i + 1] - xs[i])
    ty = (y - ys[j]) / (ys[j + 1] - ys[j])
    v00 = v[i, j]
    v01 = v[i, j + 1]
    v10 = v[i + 1, j]
    v11 = v[i + 1, j + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )


@dataclass(frozen=True)
class _CapMasks:
    """Cap-dependent solo feasibility and best-solo reductions."""

    cap_w: Watts
    solo_ok: dict                      # kind -> (n, L) bool
    best_solo_idx: dict                # kind -> (n,) int (argmin time over feasible)
    best_solo_time: dict               # kind -> (n,) float (inf when infeasible)
    best_solo_valid: dict              # kind -> (n,) bool


class TensorModel:
    """Exact pair-block kernel and solo vectors for one (predictor, job set).

    Holds only O(n x settings) state: the per-(job, device) level vectors
    of the profile table and their per-setting expansions.  Pair
    quantities are computed on demand by :meth:`pair_block` — whole-table
    reductions (:class:`PairTables`, the lower bound) walk row blocks from
    :meth:`row_blocks`, point queries read memoized one-pair blocks.

    ``base`` must be a plain :class:`~repro.model.predictor.CoRunPredictor`
    (exact type — subclasses may override the arithmetic) over an exact
    :class:`~repro.model.profiler.ProfileTable` and a
    :class:`~repro.model.space.DegradationSpace` /
    :class:`~repro.model.space.StagedDegradationSpace`.  Use
    :func:`tensorize`, which performs those checks and memoizes models.
    """

    def __init__(self, base, uids: Sequence[str]) -> None:
        self.base = base
        self.processor = base.processor
        self.uids = tuple(uids)
        self.index = {uid: i for i, uid in enumerate(self.uids)}
        n = len(self.uids)

        cpu_domain = self.processor.cpu.domain
        gpu_domain = self.processor.gpu.domain
        self.cpu_levels = tuple(cpu_domain.levels)
        self.gpu_levels = tuple(gpu_domain.levels)
        n_cpu, n_gpu = len(self.cpu_levels), len(self.gpu_levels)
        self.n_gpu_levels = n_gpu
        # Exact-value level lookup; an off-grid frequency misses and the
        # wrapper delegates to the scalar predictor.
        self._cpu_level_idx = {f: i for i, f in enumerate(self.cpu_levels)}
        self._gpu_level_idx = {f: i for i, f in enumerate(self.gpu_levels)}

        # Settings in processor.settings() enumeration order: cpu-major.
        self.settings = list(self.processor.settings())
        lc = np.repeat(np.arange(n_cpu), n_gpu)   # cpu level index of setting s
        lg = np.tile(np.arange(n_gpu), n_cpu)     # gpu level index of setting s

        # Per-(job, device) level vectors, straight from the profile table.
        table = base.table
        shapes = {DeviceKind.CPU: (n, n_cpu), DeviceKind.GPU: (n, n_gpu)}
        self.solo_time = {k: np.empty(s) for k, s in shapes.items()}
        self.solo_chip_power = {k: np.empty(s) for k, s in shapes.items()}
        demand = {k: np.empty(s) for k, s in shapes.items()}
        own_power = {k: np.empty(s) for k, s in shapes.items()}
        for kind in DeviceKind:
            for i, uid in enumerate(self.uids):
                prof = table._profiles[(uid, kind)]
                self.solo_time[kind][i] = prof.time_s
                self.solo_chip_power[kind][i] = prof.chip_power_w
                demand[kind][i] = prof.demand_gbps
                own_power[kind][i] = prof.own_power_w

        # The same vectors expanded over settings, (n, S) each: the CPU
        # side indexes a block's rows, the GPU side its columns.  Unscaled
        # even on node clones (pair_block applies the scaling last).
        cpu, gpu = DeviceKind.CPU, DeviceKind.GPU
        self._bw_c = demand[cpu][:, lc]
        self._bw_g = demand[gpu][:, lg]
        self._t_solo_c = self.solo_time[cpu][:, lc]
        self._t_solo_g = self.solo_time[gpu][:, lg]
        self._own_c = own_power[cpu][:, lc]
        self._own_g = own_power[gpu][:, lg]
        self._space = base.space
        self._uncore = self.processor.power.uncore
        self._anchor_weights = _anchor_weights(base.space, self.settings)

        #: (speed_scale, power_scale) node scalings, applied in order by
        #: pair_block; set on clones by :meth:`scaled`.
        self._scales: tuple = ()
        self._pair_rows: dict[tuple, tuple] = {}
        self._cap_masks: dict[float, _CapMasks] = {}
        self._pair_tables: dict[tuple, object] = {}
        #: Name of the fleet node this model is scaled for (None = the
        #: calibrated machine itself); set on clones by :meth:`scaled`.
        self.node_name: str | None = None
        self._scaled_memo: dict[tuple, "TensorModel"] = {}

    # ------------------------------------------------------------------
    # Node scaling
    # ------------------------------------------------------------------
    def scaled(
        self,
        speed_scale: SpeedScale,
        power_scale: PowerScale,
        node_name: str | None = None,
    ) -> "TensorModel":
        """A clone of this model through one fleet node's scaling (memoized).

        Times divide by ``speed_scale`` and powers multiply by
        ``power_scale`` — the solo vectors here, pair blocks inside
        :meth:`pair_block` — the same two float operations
        :class:`~repro.core.fleet.NodePredictor` applies to each scalar
        answer, so scaled tensor and scaled scalar stay bitwise identical.
        Degradations are ratios and stay unscaled; cap masks, pair rows and
        pair tables start fresh (they depend on the scaled powers).
        """
        # repro: noqa REP003 -- exact identity gate: only a literal 1.0 scale shares the model
        if speed_scale == 1.0 and power_scale == 1.0:
            return self
        key = (speed_scale, power_scale, node_name)
        cached = self._scaled_memo.get(key)
        if cached is not None:
            return cached
        clone = object.__new__(TensorModel)
        clone.__dict__.update(self.__dict__)
        clone.solo_time = {
            k: v / speed_scale for k, v in self.solo_time.items()
        }
        clone.solo_chip_power = {
            k: v * power_scale for k, v in self.solo_chip_power.items()
        }
        clone._scales = self._scales + ((speed_scale, power_scale),)
        clone._pair_rows = {}
        clone._cap_masks = {}
        clone._pair_tables = {}
        clone._scaled_memo = {}
        clone.node_name = node_name
        if len(self._scaled_memo) >= 16:
            self._scaled_memo.pop(next(iter(self._scaled_memo)))
        self._scaled_memo[key] = clone
        return clone

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------
    def covers(self, uid: str) -> bool:
        return uid in self.index

    def setting_index(self, setting) -> int | None:
        """Index of ``setting`` in enumeration order, or ``None`` off-grid."""
        i = self._cpu_level_idx.get(setting.cpu_ghz)
        j = self._gpu_level_idx.get(setting.gpu_ghz)
        if i is None or j is None:
            return None
        return i * self.n_gpu_levels + j

    def level_index(self, kind: DeviceKind, f_ghz: Hertz) -> int | None:
        levels = (
            self._cpu_level_idx if kind is DeviceKind.CPU else self._gpu_level_idx
        )
        return levels.get(f_ghz)

    # ------------------------------------------------------------------
    # Pair blocks
    # ------------------------------------------------------------------
    def pair_block(self, rows, cols):
        """``(deg_c, deg_g, t_c, t_g, power)`` for a block of job pairs.

        ``rows`` selects CPU jobs and ``cols`` GPU jobs (slices or index
        arrays into :attr:`uids`); each result is a ``(rows, cols, S)``
        array over every frequency setting.  Elementwise these are the
        scalar chain's operations in the scalar order — degradations per
        the space, ``t * (1.0 + d)`` as in ``CoRunPredictor.corun_times``,
        ``own_c + own_g + (base + per_gbps * (bw_c + bw_g))`` as in
        ``CoRunPredictor.pair_power_w``, then any node scaling — so a cell
        is bitwise identical whatever block it is computed in.
        """
        bw_c = self._bw_c[rows][:, None, :]
        bw_g = self._bw_g[cols][None, :, :]
        deg_c, deg_g = self._degradations(bw_c, bw_g)
        t_c = self._t_solo_c[rows][:, None, :] * (1.0 + deg_c)
        t_g = self._t_solo_g[cols][None, :, :] * (1.0 + deg_g)
        uncore = self._uncore
        power = self._own_c[rows][:, None, :] + self._own_g[cols][None, :, :] + (
            uncore.base_w + uncore.per_gbps_w * (bw_c + bw_g)
        )
        for speed_scale, power_scale in self._scales:
            t_c = t_c / speed_scale
            t_g = t_g / speed_scale
            power = power * power_scale
        return deg_c, deg_g, t_c, t_g, power

    def row_blocks(self, n_rows: int, n_cols: int) -> Iterator[slice]:
        """Row slices covering ``n_rows`` in blocks of <= BLOCK_ELEMENTS cells."""
        step = max(1, BLOCK_ELEMENTS // max(1, n_cols * len(self.settings)))
        for r0 in range(0, n_rows, step):
            yield slice(r0, min(n_rows, r0 + step))

    def _degradations(self, bw_c, bw_g):
        """(deg_c, deg_g) over a block, exact to the space."""
        space = self._space
        if self._anchor_weights is None:
            # Scalar: max(0.0, grid(bw_c, bw_g)); the setting is ignored.
            deg_c = np.maximum(_grid_eval(space.cpu_grid, bw_c, bw_g), 0.0)
            deg_g = np.maximum(_grid_eval(space.gpu_grid, bw_c, bw_g), 0.0)
            return deg_c, deg_g
        # Scalar: sum(w_a * grid_a(bw_c, bw_g)) accumulated in anchor order
        # from int 0, then max(0.0, float(value)).  0.0 + x and in-order
        # adds keep the accumulation bitwise identical.
        shape = np.broadcast_shapes(bw_c.shape, bw_g.shape)
        acc_c = np.zeros(shape)
        acc_g = np.zeros(shape)
        for w, anchor in zip(self._anchor_weights, space.anchors):
            acc_c = acc_c + w * _grid_eval(anchor.cpu_grid, bw_c, bw_g)
            acc_g = acc_g + w * _grid_eval(anchor.gpu_grid, bw_c, bw_g)
        return np.maximum(acc_c, 0.0), np.maximum(acc_g, 0.0)

    def _pair_row(self, cpu_uid, gpu_uid) -> tuple:
        """One pair's five ``(S,)`` vectors, from a small LRU of pair blocks.

        Pop-and-reinsert keeps recency in dict order with single dict
        operations, so threads sharing the model can at worst recompute
        an identical row.
        """
        key = (self.index[cpu_uid], self.index[gpu_uid])
        rows = self._pair_rows
        row = rows.pop(key, None)
        if row is None:
            i, j = key
            row = tuple(
                a[0, 0] for a in self.pair_block(slice(i, i + 1), slice(j, j + 1))
            )
            if len(rows) >= _PAIR_ROW_LIMIT:
                rows.pop(next(iter(rows)), None)
        rows[key] = row
        return row

    # ------------------------------------------------------------------
    # Cap masks
    # ------------------------------------------------------------------
    def masks(self, cap_w: Watts) -> _CapMasks:
        """Solo feasibility and best-solo reductions for one cap (memoized)."""
        cached = self._cap_masks.get(cap_w)
        if cached is not None:
            return cached
        solo_ok, best_idx, best_time, best_valid = {}, {}, {}, {}
        for kind in DeviceKind:
            ok = self.solo_chip_power[kind] <= cap_w
            masked = np.where(ok, self.solo_time[kind], np.inf)
            idx = np.argmin(masked, axis=1)
            solo_ok[kind] = ok
            best_idx[kind] = idx
            best_time[kind] = masked[np.arange(masked.shape[0]), idx]
            best_valid[kind] = ok.any(axis=1)
        masks = _CapMasks(
            cap_w=cap_w,
            solo_ok=solo_ok,
            best_solo_idx=best_idx,
            best_solo_time=best_time,
            best_solo_valid=best_valid,
        )
        if len(self._cap_masks) >= 16:
            self._cap_masks.pop(next(iter(self._cap_masks)))
        self._cap_masks[cap_w] = masks
        return masks

    # ------------------------------------------------------------------
    # Predictor-equivalent queries (bitwise identical to the scalar chain)
    # ------------------------------------------------------------------
    def degradations(self, cpu_uid, gpu_uid, s: int) -> tuple[float, float]:
        deg_c, deg_g, _, _, _ = self._pair_row(cpu_uid, gpu_uid)
        return (float(deg_c[s]), float(deg_g[s]))

    def corun_times(self, cpu_uid, gpu_uid, s: int) -> tuple[Seconds, Seconds]:
        _, _, t_c, t_g, _ = self._pair_row(cpu_uid, gpu_uid)
        return (float(t_c[s]), float(t_g[s]))

    def pair_power_w(self, cpu_uid, gpu_uid, s: int) -> Watts:
        return float(self._pair_row(cpu_uid, gpu_uid)[4][s])

    def feasible_pair_settings(self, cpu_uid, gpu_uid, cap_w: Watts) -> tuple:
        flags = self._pair_row(cpu_uid, gpu_uid)[4] <= cap_w
        return tuple(self.settings[s] for s in np.flatnonzero(flags))

    def feasible_solo_levels(self, uid, kind: DeviceKind, cap_w: Watts) -> tuple:
        i = self.index[uid]
        flags = self.masks(cap_w).solo_ok[kind][i]
        levels = self.cpu_levels if kind is DeviceKind.CPU else self.gpu_levels
        return tuple(levels[int(k)] for k in np.flatnonzero(flags))

    def best_solo(
        self, uid, kind: DeviceKind, cap_w: Watts
    ) -> tuple[Hertz, Seconds]:
        i = self.index[uid]
        masks = self.masks(cap_w)
        if not masks.best_solo_valid[kind][i]:
            # Identical message/fields to CoRunPredictor.best_solo (or to
            # NodePredictor.best_solo when this model is node-scaled).
            if self.node_name is not None:
                raise InfeasibleCapError(
                    f"{uid} cannot run on {kind} under a {cap_w} W cap at "
                    f"any level on node {self.node_name}",
                    cap_w=cap_w,
                    jobs=(uid,),
                    node=self.node_name,
                )
            raise InfeasibleCapError(
                f"{uid} cannot run on {kind} under a {cap_w} W cap at any level",
                cap_w=cap_w,
                jobs=(uid,),
            )
        levels = self.cpu_levels if kind is DeviceKind.CPU else self.gpu_levels
        idx = int(masks.best_solo_idx[kind][i])
        return levels[idx], float(self.solo_time[kind][i, idx])

    def solo_time_at(self, uid, kind: DeviceKind, f_ghz: Hertz) -> Seconds | None:
        """Solo time at an exact level, or ``None`` when off-grid/unknown."""
        if uid not in self.index:
            return None
        li = self.level_index(kind, f_ghz)
        if li is None:
            return None
        return float(self.solo_time[kind][self.index[uid], li])

    def solo_power_at(self, uid, kind: DeviceKind, f_ghz: Hertz) -> Watts | None:
        if uid not in self.index:
            return None
        li = self.level_index(kind, f_ghz)
        if li is None:
            return None
        return float(self.solo_chip_power[kind][self.index[uid], li])


def _anchor_weights(space, settings) -> np.ndarray | None:
    """A staged space's ``(anchors, S)`` weights per setting; ``None`` if plain."""
    from repro.model.space import DegradationSpace, StagedDegradationSpace

    if type(space) is DegradationSpace:
        return None
    assert type(space) is StagedDegradationSpace
    weights = np.empty((len(space.anchors), len(settings)))
    for s, setting in enumerate(settings):
        weights[:, s] = space._weights(setting)
    return weights


# ----------------------------------------------------------------------
# Model memo: one TensorModel per (base predictor, job set)
# ----------------------------------------------------------------------
_MODEL_MEMO: OrderedDict = OrderedDict()
_MODEL_MEMO_LIMIT = 8


def tensorize(predictor, uids: Sequence[str] | None = None):
    """Wrap ``predictor`` in a :class:`TensorBackedPredictor`, or ``None``.

    Returns ``None`` whenever exactness cannot be guaranteed by the tensor
    arithmetic — the base predictor is not *exactly* a
    :class:`~repro.model.predictor.CoRunPredictor` (oracle or noisy
    variants subclass or replace it), the space/table/power models are
    subclassed, or requested uids are missing from the table.  Callers
    treat ``None`` as "use the scalar path".  The job count never declines:
    a table within :data:`TABLE_WIDE_ELEMENTS` gets one model over all its
    jobs, a larger one a model over just the requested jobs.

    Models are memoized per (base predictor identity, uid set), so every
    :class:`~repro.core.context.SchedulingContext` built over the same
    model reuses one model and its pair tables.
    """
    from repro.hardware.power import UncorePowerModel
    from repro.model.interpolation import BilinearGrid
    from repro.model.predictor import CoRunPredictor
    from repro.model.profiler import ProfileTable
    from repro.model.space import DegradationSpace, StagedDegradationSpace

    inner = predictor
    while isinstance(inner, TensorBackedPredictor):
        inner = inner.inner
    base = inner.inner if isinstance(inner, CachingPredictor) else inner
    # A fleet node's scaled view is tensorizable: build (or reuse) the base
    # model, then clone it through the node's scaling.  Lazy import — perf
    # must not import core at module load.
    node = None
    node_predictor_type = _node_predictor_type()
    if node_predictor_type is not None and type(base) is node_predictor_type:
        node = base.node
        base = base.inner
        while isinstance(base, (TensorBackedPredictor, CachingPredictor)):
            base = base.inner
    if type(base) is not CoRunPredictor:
        return None
    if type(base.table) is not ProfileTable:
        return None
    if type(base.processor.power.uncore) is not UncorePowerModel:
        return None
    space = base.space
    if type(space) is DegradationSpace:
        grids = (space.cpu_grid, space.gpu_grid)
    elif type(space) is StagedDegradationSpace:
        if any(type(a) is not DegradationSpace for a in space.anchors):
            return None
        grids = tuple(g for a in space.anchors for g in (a.cpu_grid, a.gpu_grid))
    else:
        return None
    if any(type(g) is not BilinearGrid for g in grids):
        return None

    table_uids = tuple(sorted(base.table.uids))
    if uids is not None:
        need = tuple(sorted(set(uids)))
        if any(uid not in base.table for uid in need):
            return None
    else:
        need = table_uids
    # Prefer a table-wide model (shared across job subsets); a large table
    # would make every pair-table build pay for pairs nobody schedules.
    n_table = len(table_uids)
    if n_table * n_table * base.processor.n_settings <= TABLE_WIDE_ELEMENTS:
        chosen = table_uids
    else:
        chosen = need

    key = (id(base), chosen)
    model = _MODEL_MEMO.get(key)
    if model is None or model.base is not base:
        model = TensorModel(base, chosen)
        while len(_MODEL_MEMO) >= _MODEL_MEMO_LIMIT:
            _MODEL_MEMO.popitem(last=False)
        _MODEL_MEMO[key] = model
    else:
        _MODEL_MEMO.move_to_end(key)
    if node is not None:
        model = model.scaled(node.speed_scale, node.power_scale, node.name)
    return TensorBackedPredictor(inner, model)


def _node_predictor_type():
    """The fleet NodePredictor class, or ``None`` before core is loaded.

    ``sys.modules`` lookup instead of an import: if nothing has touched
    ``repro.core.fleet`` yet, no predictor we receive can be a
    NodePredictor, and perf stays import-independent of core.
    """
    import sys

    mod = sys.modules.get("repro.core.fleet")
    return getattr(mod, "NodePredictor", None) if mod is not None else None


class TensorBackedPredictor:
    """Predictor facade answering hot queries from a :class:`TensorModel`.

    Uses the *same* cache keys as
    :class:`~repro.perf.evaluator.CachingPredictor` (sharing its cache when
    wrapping one), so hit/miss accounting and warm-cache behavior are
    indistinguishable from the scalar stack — only the cost of a miss
    changes.  Queries the tensor cannot answer exactly delegate to the
    wrapped predictor.
    """

    def __init__(self, inner, tensor: TensorModel) -> None:
        self.inner = inner
        self.tensor = tensor
        cache = getattr(inner, "cache", None)
        self.cache = cache if isinstance(cache, EvalCache) else ensure_cache(None)

    # -- delegated identity -------------------------------------------------
    @property
    def processor(self):
        return self.inner.processor

    @property
    def table(self):
        return self.inner.table

    @property
    def space(self):
        return self.inner.space

    def __getattr__(self, name: str):
        if name.startswith("_") or "inner" not in self.__dict__:
            raise AttributeError(name)
        return getattr(self.inner, name)

    # -- tensor-served hot queries ------------------------------------------
    def _pair_s(self, cpu_uid, gpu_uid, setting) -> int | None:
        t = self.tensor
        if cpu_uid not in t.index or gpu_uid not in t.index:
            return None
        return t.setting_index(setting)

    def degradations(self, cpu_uid, gpu_uid, setting):
        s = self._pair_s(cpu_uid, gpu_uid, setting)
        if s is None:
            return self.inner.degradations(cpu_uid, gpu_uid, setting)
        return self.cache.get_or_compute(
            ("deg", cpu_uid, gpu_uid, setting),
            lambda: self.tensor.degradations(cpu_uid, gpu_uid, s),
        )

    def degradation(self, uid, kind, partner_uid, setting):
        if kind is DeviceKind.CPU:
            return self.degradations(uid, partner_uid, setting)[0]
        return self.degradations(partner_uid, uid, setting)[1]

    def corun_times(self, cpu_uid, gpu_uid, setting):
        s = self._pair_s(cpu_uid, gpu_uid, setting)
        if s is None:
            return self.inner.corun_times(cpu_uid, gpu_uid, setting)
        return self.cache.get_or_compute(
            ("corun", cpu_uid, gpu_uid, setting),
            lambda: self.tensor.corun_times(cpu_uid, gpu_uid, s),
        )

    def pair_power_w(self, cpu_uid, gpu_uid, setting):
        s = self._pair_s(cpu_uid, gpu_uid, setting)
        if s is None:
            return self.inner.pair_power_w(cpu_uid, gpu_uid, setting)
        return self.cache.get_or_compute(
            ("power", cpu_uid, gpu_uid, setting),
            lambda: self.tensor.pair_power_w(cpu_uid, gpu_uid, s),
        )

    def feasible_pair_settings(self, cpu_uid, gpu_uid, cap_w):
        t = self.tensor
        if cpu_uid not in t.index or gpu_uid not in t.index:
            return self.inner.feasible_pair_settings(cpu_uid, gpu_uid, cap_w)
        feasible = self.cache.get_or_compute(
            ("feas", cpu_uid, gpu_uid, cap_w),
            lambda: t.feasible_pair_settings(cpu_uid, gpu_uid, cap_w),
        )
        return list(feasible)

    def require_feasible_pair_settings(self, cpu_uid, gpu_uid, cap_w):
        feasible = self.feasible_pair_settings(cpu_uid, gpu_uid, cap_w)
        if not feasible:
            raise InfeasibleCapError(
                f"no frequency setting keeps pair ({cpu_uid}, {gpu_uid}) "
                f"within the {cap_w} W cap",
                cap_w=cap_w,
                jobs=(cpu_uid, gpu_uid),
            )
        return feasible

    def feasible_solo_levels(self, uid, kind, cap_w):
        if uid not in self.tensor.index:
            return self.inner.feasible_solo_levels(uid, kind, cap_w)
        feasible = self.cache.get_or_compute(
            ("feas_solo", uid, kind, cap_w),
            lambda: self.tensor.feasible_solo_levels(uid, kind, cap_w),
        )
        return list(feasible)

    def best_solo(self, uid, kind, cap_w):
        if uid not in self.tensor.index:
            return self.inner.best_solo(uid, kind, cap_w)
        return self.cache.get_or_compute(
            ("best_solo", uid, kind, cap_w),
            lambda: self.tensor.best_solo(uid, kind, cap_w),
        )

    # -- cheap lookups, uncached like CachingPredictor ----------------------
    def solo_time(self, uid, kind, f_ghz):
        t = self.tensor.solo_time_at(uid, kind, f_ghz)
        return t if t is not None else self.inner.solo_time(uid, kind, f_ghz)

    def solo_power_w(self, uid, kind, f_ghz):
        p = self.tensor.solo_power_at(uid, kind, f_ghz)
        return p if p is not None else self.inner.solo_power_w(uid, kind, f_ghz)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TensorBackedPredictor({self.inner!r})"


class PairTables:
    """Governor-resolved replay and ranking constants for one (tensor, governor, cap).

    For every (cpu job, gpu job) pair: the governor's chosen setting index
    and the resulting co-run times and pair power, plus the pair's
    step-3 ranking — the value and setting of the governor's
    ``min_pair_interference``; for every (job, device): the chosen solo
    level's time and chip power.  These are exactly the quantities the
    mean-field replay and the greedy pairing consume, so a replay over the
    tables is bitwise identical to one over (governor, predictor) — with
    the single exception of infeasible combinations, which are flagged
    invalid here and re-raised through the scalar path for identical
    errors.  Every table is ``(n, n)`` or ``(n,)``: :meth:`build` reduces
    the pair space block by block and keeps no ``(n, n, S)`` array.
    """

    def __init__(self, tensor, cap_w, pair_valid, pair_sidx, pair_t_c,
                 pair_t_g, pair_power, rank_value, rank_sidx,
                 solo_valid, solo_t, solo_power):
        self.tensor = tensor
        self.cap_w = cap_w
        self.pair_valid = pair_valid      # (n, n) bool: any setting fits
        self.pair_sidx = pair_sidx        # (n, n) int: governor's setting
        self.pair_t_c = pair_t_c
        self.pair_t_g = pair_t_g
        self.pair_power = pair_power
        self.rank_value = rank_value      # (n, n) float: min ranking cost
        self.rank_sidx = rank_sidx        # (n, n) int: its setting
        self.solo_valid = solo_valid      # kind -> (n,) bool
        self.solo_t = solo_t              # kind -> (n,) float
        self.solo_power = solo_power      # kind -> (n,) float
        self._packed = None

    def covers(self, cpu_uid: str, gpu_uid: str) -> bool:
        index = self.tensor.index
        return cpu_uid in index and gpu_uid in index

    def min_pair_interference(self, cpu_uid: str, gpu_uid: str):
        """The governor's ``min_pair_interference`` answer, from the table.

        ``(cost, setting)`` or ``None`` when no setting fits the cap; both
        uids must be covered.
        """
        index = self.tensor.index
        i, j = index[cpu_uid], index[gpu_uid]
        if not self.pair_valid[i, j]:
            return None
        return (
            float(self.rank_value[i, j]),
            self.tensor.settings[int(self.rank_sidx[i, j])],
        )

    @property
    def packed(self):
        """Channel-stacked copies of the tables for single-gather replay.

        ``(pair, solo_cpu, solo_gpu)``, every row laid out as
        ``[t_c, t_g, power, valid]`` — pair is ``(n, n, 4)``, the solos are
        ``(n, 4)`` with the device's solo time in its own slot and a
        harmless ``1.0`` in the idle device's slot (that channel is only
        ever read branch-masked).  One fancy gather per table per replay
        event instead of one per field; values are exact copies, validity
        is 1.0/0.0.
        """
        if self._packed is None:
            pair = np.empty(self.pair_t_c.shape + (4,))
            pair[..., 0] = self.pair_t_c
            pair[..., 1] = self.pair_t_g
            pair[..., 2] = self.pair_power
            pair[..., 3] = self.pair_valid
            solo = {}
            for kind in DeviceKind:
                s = np.ones((self.pair_t_c.shape[0], 4))
                s[:, 0 if kind is DeviceKind.CPU else 1] = self.solo_t[kind]
                s[:, 2] = self.solo_power[kind]
                s[:, 3] = self.solo_valid[kind]
                solo[kind] = s
            self._packed = (pair, solo[DeviceKind.CPU], solo[DeviceKind.GPU])
        return self._packed

    @classmethod
    def build(cls, tensor: TensorModel, governor, cap_w: float):
        """Tables for a recognized governor, or ``None``.

        Only the two stock governors are reducible: the exact types
        :class:`~repro.core.freqpolicy.ModelGovernor` (minimum summed
        co-run time / fastest feasible solo level; ranks by summed
        degradations) and :class:`~repro.core.objectives.EnergyAwareGovernor`
        (minimum pair energy or EDP; ranks by that same cost).  A
        subclassed or custom governor returns ``None`` and the evaluator
        stays on the scalar replay.

        Walks :meth:`TensorModel.row_blocks` over the CPU-job rows, so the
        working set is one block of at most :data:`BLOCK_ELEMENTS` cells
        per quantity; tables are memoized per (governor type, objective,
        cap) on the model.
        """
        from repro.core.freqpolicy import ModelGovernor
        from repro.core.objectives import (
            MAKESPAN_ENERGY_RHO,
            EnergyAwareGovernor,
            Objective,
        )

        if getattr(governor, "cap_w", None) != cap_w:
            return None
        memo_key = (
            type(governor).__qualname__,
            getattr(governor, "objective", None),
            cap_w,
        )
        cached = tensor._pair_tables.get(memo_key)
        if cached is not None:
            return cached
        if type(governor) is ModelGovernor:
            objective = None
        elif type(governor) is EnergyAwareGovernor:
            objective = governor.objective
        else:
            return None

        n = len(tensor.uids)
        pair_valid = np.empty((n, n), dtype=bool)
        pair_sidx = np.empty((n, n), dtype=np.intp)
        rank_sidx = np.empty((n, n), dtype=np.intp)
        pair_t_c, pair_t_g, pair_power, rank_value = (
            np.empty((n, n)) for _ in range(4)
        )
        take = np.take_along_axis
        for rows in tensor.row_blocks(n, n):
            deg_c, deg_g, t_c, t_g, power = tensor.pair_block(rows, slice(None))
            ok = power <= cap_w
            cost, rank = _block_costs(objective, deg_c, deg_g, t_c, t_g, power)
            with np.errstate(invalid="ignore"):
                masked = np.where(ok, cost, np.inf)
            choice = np.argmin(masked, axis=2)[..., None]
            pair_sidx[rows] = choice[..., 0]
            pair_valid[rows] = ok.any(axis=2)
            pair_t_c[rows] = take(t_c, choice, axis=2)[..., 0]
            pair_t_g[rows] = take(t_g, choice, axis=2)[..., 0]
            pair_power[rows] = take(power, choice, axis=2)[..., 0]
            best = choice
            if rank is not None:
                with np.errstate(invalid="ignore"):
                    masked = np.where(ok, rank, np.inf)
                best = np.argmin(masked, axis=2)[..., None]
            rank_sidx[rows] = best[..., 0]
            rank_value[rows] = take(masked, best, axis=2)[..., 0]

        masks = tensor.masks(cap_w)
        solo_valid, solo_t, solo_power = {}, {}, {}
        all_rows = np.arange(n)
        for kind in DeviceKind:
            if objective is None:
                idx = masks.best_solo_idx[kind]
            else:
                # solo_energy_j: chip_power * solo_time; EDP multiplies by
                # solo_time again (EnergyAwareGovernor._solo_cost order).
                t = tensor.solo_time[kind]
                e = tensor.solo_chip_power[kind] * t
                if objective is Objective.ENERGY:
                    cost = e
                elif objective is Objective.MAKESPAN_ENERGY:
                    cost = t + MAKESPAN_ENERGY_RHO * e
                else:
                    cost = e * t
                with np.errstate(invalid="ignore"):
                    cost = np.where(masks.solo_ok[kind], cost, np.inf)
                idx = np.argmin(cost, axis=1)
            solo_valid[kind] = masks.best_solo_valid[kind]
            solo_t[kind] = tensor.solo_time[kind][all_rows, idx]
            solo_power[kind] = tensor.solo_chip_power[kind][all_rows, idx]
        tables = cls(
            tensor, cap_w, pair_valid, pair_sidx, pair_t_c, pair_t_g,
            pair_power, rank_value, rank_sidx, solo_valid, solo_t, solo_power,
        )
        if len(tensor._pair_tables) >= 16:
            tensor._pair_tables.pop(next(iter(tensor._pair_tables)))
        tensor._pair_tables[memo_key] = tables
        return tables


def _block_costs(objective, deg_c, deg_g, t_c, t_g, power):
    """A governor's (choice, ranking) costs over a pair block.

    ``objective`` is ``None`` for ModelGovernor: it chooses by
    ``sum(corun_times)`` == t_c + t_g and ranks by ``sum(degradations)``
    == deg_c + deg_g (0 + d_c is exact).  EnergyAwareGovernor chooses and
    ranks by its own pair cost (ranking ``None``: reuse the choice).
    """
    if objective is None:
        return t_c + t_g, deg_c + deg_g
    from repro.core.objectives import MAKESPAN_ENERGY_RHO, Objective

    # pair_energy_j: power * (t_c + t_g); EnergyAwareGovernor._pair_cost
    # order: energy, max + RHO * energy, or energy * max.
    energy = power * (t_c + t_g)
    if objective is Objective.ENERGY:
        return energy, None
    if objective is Objective.MAKESPAN_ENERGY:
        return np.maximum(t_c, t_g) + MAKESPAN_ENERGY_RHO * energy, None
    return energy * np.maximum(t_c, t_g), None


def governor_tables(governor) -> PairTables | None:
    """The :class:`PairTables` of a governor over a tensor-backed predictor.

    Resolved once per governor (memoized on its ``_tables`` field against
    its current predictor and cap) and ``None`` when the predictor is not
    tensor-backed or the governor is not reducible — the caller then takes
    its scalar path.
    """
    predictor, cap_w = governor.predictor, governor.cap_w
    memo = governor._tables
    if memo is not None and memo[0] is predictor and memo[1] == cap_w:
        return memo[2]
    tables = None
    if isinstance(predictor, TensorBackedPredictor):
        tables = PairTables.build(predictor.tensor, governor, cap_w)
    governor._tables = (predictor, cap_w, tables)
    return tables


class BatchScheduleEvaluator(ScheduleEvaluator):
    """A :class:`ScheduleEvaluator` replaying over :class:`PairTables`.

    Drop-in compatible (same cache, same governor, same scores to the bit)
    but with two fast paths, selected by batch size:

    * single schedules and batches of at most four replay one at a time in
      a per-schedule lane loop with O(1) table lookups per event;
    * larger ``evaluate_all`` batches advance in one masked-NumPy lockstep
      sweep (:meth:`_replay_matrices`), as does :meth:`score_population`.

    Both finish each schedule's solo tail through one scalar helper,
    :meth:`_apply_solo_tail`; :meth:`score_population` applies its shared
    tail to every lane at once.

    Schedules the tables cannot replay (uncovered uids, infeasible
    pair/solo combinations, no tables for the governor) fall back to the
    scalar path, preserving exact error behavior.
    """

    backend = "tensor"

    def __init__(self, predictor, governor, cache=None, objective="makespan",
                 *, tensor: TensorModel, tables: PairTables | None):
        super().__init__(predictor, governor, cache, objective)
        self.tensor = tensor
        self.tables = tables
        self.batch_stats = {
            "batch_calls": 0,
            "batch_schedules": 0,
            "population_calls": 0,
            "population_schedules": 0,
            "scalar_fallbacks": 0,
        }

    # ------------------------------------------------------------------
    # Indexed (single-schedule) replay
    # ------------------------------------------------------------------
    def _indexable(self, schedule) -> bool:
        if self.tables is None:
            return False
        index = self.tensor.index
        return all(uid in index for uid in schedule.all_uids())

    def _try_indexed(self, schedule):
        """(makespan, energy, flow) via the tables, or ``None`` for fallback."""
        if not self._indexable(schedule):
            self.batch_stats["scalar_fallbacks"] += 1
            return None
        result = self._indexed_replay(schedule)
        if result is None:
            self.batch_stats["scalar_fallbacks"] += 1
        return result

    def _indexed_replay(self, schedule):
        tb = self.tables
        index = self.tensor.index
        cpu = [index[j.uid] for j in schedule.cpu_queue]
        gpu = [index[j.uid] for j in schedule.gpu_queue]
        cp = gp = 0
        cur_c = cur_g = -1
        frac_c = frac_g = t = energy = flow = 0.0
        kinds = DeviceKind
        while True:
            if cur_c < 0 and cp < len(cpu):
                cur_c, frac_c = cpu[cp], 1.0
                cp += 1
            if cur_g < 0 and gp < len(gpu):
                cur_g, frac_g = gpu[gp], 1.0
                gp += 1
            if cur_c < 0 and cur_g < 0:
                break

            if cur_c >= 0 and cur_g >= 0:
                if not tb.pair_valid[cur_c, cur_g]:
                    return None
                t_c = float(tb.pair_t_c[cur_c, cur_g])
                t_g = float(tb.pair_t_g[cur_c, cur_g])
                power = float(tb.pair_power[cur_c, cur_g])
                dt = min(frac_c * t_c, frac_g * t_g)
            elif cur_c >= 0:
                if not tb.solo_valid[kinds.CPU][cur_c]:
                    return None
                t_c = float(tb.solo_t[kinds.CPU][cur_c])
                power = float(tb.solo_power[kinds.CPU][cur_c])
                dt = frac_c * t_c
            else:
                if not tb.solo_valid[kinds.GPU][cur_g]:
                    return None
                t_g = float(tb.solo_t[kinds.GPU][cur_g])
                power = float(tb.solo_power[kinds.GPU][cur_g])
                dt = frac_g * t_g
            energy += dt * power

            done = 0
            if cur_c >= 0:
                rem = frac_c - dt / t_c
                if rem <= _EPS:
                    cur_c, frac_c, done = -1, 0.0, done + 1
                else:
                    frac_c = rem
            if cur_g >= 0:
                rem = frac_g - dt / t_g
                if rem <= _EPS:
                    cur_g, frac_g, done = -1, 0.0, done + 1
                else:
                    frac_g = rem
            t += dt
            flow += done * t

        return self._apply_solo_tail(schedule, t, energy, flow)

    def _apply_solo_tail(self, schedule, t, energy, flow):
        """Run ``schedule.solo_tail`` after the queues drain.

        Returns the final ``(makespan, energy, flow)``, or ``None`` when a
        tail job has no feasible solo level.
        """
        tb = self.tables
        index = self.tensor.index
        for job, kind in schedule.solo_tail:
            i = index[job.uid]
            if not tb.solo_valid[kind][i]:
                return None
            solo_s = float(tb.solo_t[kind][i])
            t += solo_s
            flow += t
            energy += solo_s * float(tb.solo_power[kind][i])
        return t, energy, flow

    # ------------------------------------------------------------------
    # ScheduleEvaluator overrides
    # ------------------------------------------------------------------
    def _compute(self, schedule) -> float:
        if self.objective == "makespan":
            result = self._try_indexed(schedule)
            if result is not None:
                return result[0]
            return super()._compute(schedule)
        # Energy/EDP route through metrics() below, which is table-backed.
        return self.metrics(schedule).score(self.objective)

    def metrics(self, schedule):
        def compute():
            result = self._try_indexed(schedule)
            if result is not None:
                from repro.core.schedule import PredictedMetrics

                return PredictedMetrics(
                    makespan_s=result[0], energy_j=result[1], flow_s=result[2]
                )
            from repro.core.schedule import predicted_metrics

            return predicted_metrics(schedule, self.predictor, self.governor)

        return self.cache.get_or_compute(self._metrics_key(schedule), compute)

    # ------------------------------------------------------------------
    # Batched lockstep evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(self, schedules: Sequence) -> list[float]:
        """Score a batch in one vectorized sweep (scores also memoized)."""
        return self.evaluate_all(schedules, executor=None)

    def evaluate_all(self, schedules: Sequence, executor=None) -> list[float]:
        from repro.perf.parallel import map_makespans, map_predicted_metrics

        pending: dict[tuple, object] = {}
        for s in schedules:
            key = self._key(s)
            if key not in self.cache and key not in pending:
                pending[key] = s
        if pending:
            todo = list(pending.values())
            covered = [s for s in todo if self._indexable(s)]
            rest = [s for s in todo if not self._indexable(s)]
            if covered:
                batch = self._batch_replay(covered)
                if batch is None:
                    # An infeasible schedule is in the batch: re-run the
                    # whole todo set through the scalar path so the first
                    # infeasible schedule (in todo order) raises exactly as
                    # a serial evaluation would.
                    return super().evaluate_all(schedules, executor)
                from repro.core.schedule import PredictedMetrics

                for s, (mk, en, fl) in zip(covered, batch):
                    if self.objective == "makespan":
                        self.prime(s, mk)
                    else:
                        m = PredictedMetrics(makespan_s=mk, energy_j=en, flow_s=fl)
                        self.cache.prime(self._metrics_key(s), m)
                        self.prime(s, m.score(self.objective))
            if rest:
                if self.objective == "makespan":
                    values = map_makespans(
                        executor, self.predictor, self.governor, rest
                    )
                    for s, v in zip(rest, values):
                        self.prime(s, v)
                else:
                    metrics = map_predicted_metrics(
                        executor, self.predictor, self.governor, rest
                    )
                    for s, m in zip(rest, metrics):
                        self.cache.prime(self._metrics_key(s), m)
                        self.prime(s, m.score(self.objective))
            # Fan-out/batch results count as evaluations, not hits.
            self.cache.stats.misses += len(todo)
            self.cache.stats.hits -= len(todo)
        return [self(s) for s in schedules]

    def _batch_replay(self, schedules):
        """Replay many schedules; ``None`` if any is infeasible.

        Every schedule's arithmetic follows the exact scalar event
        sequence on either path, so result k equals an isolated replay of
        schedule k.
        """
        self.batch_stats["batch_calls"] += 1
        self.batch_stats["batch_schedules"] += len(schedules)
        # The lockstep kernel's per-event NumPy dispatch only pays off over
        # several lanes; a few schedules are cheaper one at a time.
        if len(schedules) <= 4:
            out = [self._indexed_replay(s) for s in schedules]
            return None if None in out else out

        index = self.tensor.index
        K = len(schedules)
        cpu_lists = [[index[j.uid] for j in s.cpu_queue] for s in schedules]
        gpu_lists = [[index[j.uid] for j in s.gpu_queue] for s in schedules]
        len_c = np.array([len(q) for q in cpu_lists])
        len_g = np.array([len(q) for q in gpu_lists])
        Qc = np.full((K, max(1, int(len_c.max()))), -1, dtype=np.int64)
        Qg = np.full((K, max(1, int(len_g.max()))), -1, dtype=np.int64)
        for k, q in enumerate(cpu_lists):
            Qc[k, : len(q)] = q
        for k, q in enumerate(gpu_lists):
            Qg[k, : len(q)] = q

        t, energy, flow, bad = self._replay_matrices(Qc, len_c, Qg, len_g)
        if bad.any():
            return None
        out = [
            self._apply_solo_tail(s, float(t[k]), float(energy[k]), float(flow[k]))
            for k, s in enumerate(schedules)
        ]
        return None if None in out else out

    def _replay_matrices(self, Qc, len_c, Qg, len_g):
        """Lockstep replay over padded queue-index matrices.

        ``Qc``/``Qg`` are ``(K, w)`` int matrices of tensor job indices
        (padding value irrelevant past each lane's length); ``len_c`` /
        ``len_g`` the per-lane queue lengths.  Returns per-lane
        ``(t, energy, flow, bad)`` arrays, where ``bad`` flags lanes that
        hit an infeasible pair or solo combination (their other outputs
        are meaningless).  Lane arithmetic is bitwise identical to
        :meth:`_indexed_replay` of the same queues.
        """
        # The loop body is dominated by numpy dispatch overhead on small
        # per-event arrays, so the tables are read through channel-stacked
        # copies (one fancy gather per table instead of one per field) and
        # frozen lanes are preserved with masked in-place ufuncs instead of
        # fresh ``np.where`` allocations.  Both are bitwise-neutral: the
        # packed tables hold exact copies, and ``out=..., where=mask``
        # writes the identical values a masked ``np.where`` would keep.
        pair_pack, solo_c_pack, solo_g_pack = self.tables.packed
        K = Qc.shape[0]
        pc = np.zeros(K, dtype=np.int64)
        pg = np.zeros(K, dtype=np.int64)
        cur_c = np.full(K, -1, dtype=np.int64)
        cur_g = np.full(K, -1, dtype=np.int64)
        frac_c = np.zeros(K)
        frac_g = np.zeros(K)
        t = np.zeros(K)
        energy = np.zeros(K)
        flow = np.zeros(K)
        active = np.ones(K, dtype=bool)
        bad = np.zeros(K, dtype=bool)

        with np.errstate(invalid="ignore", divide="ignore"):
            while True:
                need_c = active & (cur_c < 0) & (pc < len_c)
                if need_c.any():
                    rows = np.nonzero(need_c)[0]
                    cur_c[rows] = Qc[rows, pc[rows]]
                    frac_c[rows] = 1.0
                    pc[rows] += 1
                need_g = active & (cur_g < 0) & (pg < len_g)
                if need_g.any():
                    rows = np.nonzero(need_g)[0]
                    cur_g[rows] = Qg[rows, pg[rows]]
                    frac_g[rows] = 1.0
                    pg[rows] += 1
                mask_c = cur_c >= 0
                mask_g = cur_g >= 0
                active &= mask_c | mask_g
                if not active.any():
                    break

                ic = np.maximum(cur_c, 0)
                ig = np.maximum(cur_g, 0)
                run_c = active & mask_c
                run_g = active & mask_g
                pair = run_c & run_g
                only_c = run_c ^ pair
                # One gather per table; rows for lanes outside a branch are
                # garbage but every read below is branch-masked.
                row = np.where(
                    pair[:, None],
                    pair_pack[ic, ig],
                    np.where(only_c[:, None], solo_c_pack[ic], solo_g_pack[ig]),
                )
                newbad = active & (row[:, 3] == 0.0)
                if newbad.any():
                    bad |= newbad
                    active &= ~newbad
                    if not active.any():
                        break
                    keep = ~newbad
                    pair &= keep
                    only_c &= keep
                    run_c &= active
                    run_g &= active

                t_c = row[:, 0]
                t_g = row[:, 1]
                dt_c = frac_c * t_c
                dt_g = frac_g * t_g
                dt = np.where(
                    pair, np.minimum(dt_c, dt_g), np.where(only_c, dt_c, dt_g)
                )
                np.add(energy, dt * row[:, 2], out=energy, where=active)

                rem_c = frac_c - dt / t_c
                done_c = run_c & (rem_c <= _EPS)
                np.copyto(frac_c, rem_c, where=run_c)
                np.copyto(frac_c, 0.0, where=done_c)
                np.copyto(cur_c, -1, where=done_c)
                rem_g = frac_g - dt / t_g
                done_g = run_g & (rem_g <= _EPS)
                np.copyto(frac_g, rem_g, where=run_g)
                np.copyto(frac_g, 0.0, where=done_g)
                np.copyto(cur_g, -1, where=done_g)
                np.add(t, dt, out=t, where=active)
                # Same op order as the scalar replay: flow += done * t,
                # with done counting completions this event (0, 1 or 2).
                ndone = done_c.astype(np.int64) + done_g.astype(np.int64)
                flow += ndone * t

        return t, energy, flow, bad

    # ------------------------------------------------------------------
    # Population scoring (index matrices in, objective scores out)
    # ------------------------------------------------------------------
    def score_population(self, Qc, len_c, Qg, len_g, *, solo_tail=()):
        """Score a whole population of queue-index matrices in one sweep.

        The population path of :mod:`repro.perf.population`: callers hand
        over ``(K, w)`` matrices of tensor job indices directly (no
        :class:`~repro.core.schedule.CoSchedule` objects, no cache keys),
        and every lane is replayed in lockstep.  ``solo_tail`` is a shared
        tail — a sequence of ``(tensor_index, DeviceKind)`` pairs appended
        to *every* lane, the way refinement candidates share their input
        schedule's tail.

        Returns ``(scores, makespan, energy, flow, bad)``: per-lane
        objective scores (``np.inf`` on bad lanes) plus the raw metric
        arrays and the infeasibility mask.  Feasible lanes are bitwise
        identical to :meth:`_indexed_replay` of the same queues, so a
        population score can always be cross-checked against the
        per-schedule path.
        """
        if self.tables is None:
            raise ValueError(
                "score_population needs pair tables; this evaluator was "
                "built without them (fall back to evaluate_all)"
            )
        K = int(Qc.shape[0])
        self.batch_stats["batch_calls"] += 1
        self.batch_stats["batch_schedules"] += K
        self.batch_stats["population_calls"] += 1
        self.batch_stats["population_schedules"] += K
        t, energy, flow, bad = self._replay_matrices(Qc, len_c, Qg, len_g)
        tb = self.tables
        for i, kind in solo_tail:
            if not tb.solo_valid[kind][i]:
                bad = np.ones_like(bad)
                break
            # Same op order as the scalar tail: t += solo; flow += t;
            # energy += solo * power — applied to every lane at once.
            solo_s = float(tb.solo_t[kind][i])
            t = t + solo_s
            flow = flow + t
            energy = energy + solo_s * float(tb.solo_power[kind][i])
        scores = self._objective_scores(t, energy, flow)
        scores = np.where(bad, np.inf, scores)
        return scores, t, energy, flow, bad

    def _objective_scores(self, makespan, energy, flow):
        """Vectorized :meth:`PredictedMetrics.score` over metric arrays."""
        if self.objective == "makespan":
            return makespan
        if self.objective == "energy":
            return energy
        if self.objective == "edp":
            return energy * makespan
        if self.objective == "flow_time":
            return flow
        # makespan_energy — lazy core import, as everywhere in this module.
        from repro.core.objectives import MAKESPAN_ENERGY_RHO

        return makespan + MAKESPAN_ENERGY_RHO * energy

    def snapshot(self) -> dict[str, float]:
        snap = dict(self.cache.snapshot())
        snap.update({f"tensor_{k}": float(v) for k, v in self.batch_stats.items()})
        return snap
