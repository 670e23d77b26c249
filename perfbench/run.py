"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root; no install or ``PYTHONPATH`` needed)::

    python3 perfbench/run.py --workload offline-tensor --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20            # table, one row per workload
    python3 perfbench/run.py --workload all --seconds 20 --trace 1  # per-layer table

A single-workload run prints a readable summary on stderr and, as the last
line of stdout, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  It exits 1 when any correctness
check failed and 2 when the program under test cannot be imported.

``--trace 1`` runs each pass twice on the same inputs, once plain and once
with spans recorded around the calls into each layer (see ``tracing.py``),
alternating which goes first.  It reports the layers' per-pass figures,
the tracing overhead against the plain passes, and writes the spans as
Chrome trace-event JSON under ``.perfbench_out/``.

Every host time reported is scaled to the reference machine's speed with
reference kernels timed between passes (see ``hostclock.py``); the factor
is printed on stderr.

See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / ".perfbench_out"

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "jobs_per_s": "1/s",
    "makespan_s": "s",
    "turnaround_p90_s": "s",
}

PER_LAYER_UNITS = {
    "import.repro_s": "s",
    "hardware.calibrate_s": "s",
    "model.characterize_s": "s",
    "model.profile_s": "s",
    "model.profile_calls": "count",
    "perf.tensorize_s": "s",
    "perf.tensorize_calls": "count",
    "perf.pair_tables_s": "s",
    "perf.pair_tables_calls": "count",
    "perf.scalar_fallback_ops": "count",
    "perf.evalcache_hit_ratio": "ratio",
    "perf.evalcache_lookups": "count",
    "core.search_s": "s",
    "core.search_calls": "count",
    "engine.advance_s": "s",
    "engine.events": "count",
    "store.commit_s": "s",
    "store.flush_s": "s",
    "store.events": "count",
    "service.decode_s": "s",
    "service.encode_s": "s",
    "service.handle_self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.passes": "count",
    "trace.ops": "count",
    "host.ref_py_ms": "ms",
    "host.ref_numpy_ms": "ms",
}


def install_layer_spans(tracer) -> None:
    """Wrap each layer's public entry points in spans for one traced pass."""
    from repro.core.api import Scheduler
    from repro.core.context import SchedulingContext
    from repro.engine.sim import SimCore
    from repro.perf.tensor import BatchScheduleEvaluator, PairTables
    from repro.store.store import JobStore

    tracer.patch_function("repro.hardware.calibration", "make_ivy_bridge", "hardware.calibrate")
    tracer.patch_function("repro.workload.rodinia", "rodinia_programs", "hardware.calibrate")
    tracer.patch_function("repro.model.characterize", "characterize_space", "model.characterize")
    tracer.patch_function("repro.model.profiler", "profile_workload", "model.profile")
    tracer.patch_function("repro.model.profiler", "extend_table", "model.profile")
    tracer.patch_function("repro.perf.tensor", "tensorize", "perf.tensorize")
    tracer.patch_method(PairTables, "build", "perf.pair_tables")
    tracer.patch_method(Scheduler, "__call__", "core.search")
    tracer.patch_method(SimCore, "advance", "engine.advance")
    tracer.patch_method(JobStore, "commit", "store.commit", count=lambda args: len(args) - 1)
    tracer.patch_method(JobStore, "flush", "store.flush")

    def note_backend(ctx) -> None:
        if ctx.evaluator is not None and not isinstance(ctx.evaluator, BatchScheduleEvaluator):
            tracer.mark("scalar")

    tracer.after_init(SchedulingContext, note_backend)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


# ----------------------------------------------------------------------
# Set-up probes: each one a fresh process timed up to its first op
# ----------------------------------------------------------------------
def probe_main(args) -> int:
    """Child side: import, set up, report the phases, exit."""
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - t0
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK_ROOT))
    tracer = Tracer()
    try:
        if args.trace:
            install_layer_spans(tracer)
        with tracer.span("bench.setup"):
            workload.setup(args.seed, workdir)
        totals = tracer.totals()
        report = {
            "import_s": import_s,
            "calibrate_s": totals.get("hardware.calibrate", {}).get("s", 0.0),
            "characterize_s": totals.get("model.characterize", {}).get("s", 0.0),
        }
        print(json.dumps(report), flush=True)
    finally:
        tracer.close()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_probes(args, clock) -> tuple[list[float], list[dict]]:
    """Parent side: wall seconds from spawn to each child's ready line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace),
    ]
    walls, reports = [], []
    for _ in range(SETUP_PROBES):
        clock.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - t0)
            proc.communicate(timeout=120)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        reports.append(json.loads(line))
    clock.sample()
    return walls, reports


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def run_checked(workload, seed: int, index: int, tracer=None, first_op: int = 0):
    """One pass; a pass that raises counts as one failed op."""
    from workloads import NULL_TRACER, PassResult

    inputs = workload.inputs(seed, index)
    workload.prepare(seed, index)
    # Free the previous pass's cyclic garbage now, not in a collection
    # that lands inside this pass's timed window.
    gc.collect()
    try:
        if tracer is None:
            return workload.run_pass(inputs, NULL_TRACER, first_op)
        install_layer_spans(tracer)
        try:
            return workload.run_pass(inputs, tracer, first_op)
        finally:
            tracer.close()
    except Exception:
        traceback.print_exc()
        return PassResult(
            op_s=[], busy_s=0.0, jobs=0, makespan_s=0.0, turnarounds_s=[],
            problems=[f"pass {index} raised"], failed_ops=1,
        )


def warm_up(workload, args, timed: int) -> list:
    """The untimed warm-up passes, on the pass indices after the timed ones.

    They are checked like the others, so a failure in them still counts.
    """
    return [
        run_checked(workload, args.seed, timed + k) for k in range(workload.warmup_passes)
    ]


def clock_samples(workload) -> int:
    """Host-clock samples per sampling point: about 4% of a nominal pass."""
    return max(3, round(2 * workload.pass_s))


def measure_plain(workload, args, clock) -> tuple[list, list]:
    """Warm-up passes, then as many timed passes as ``--seconds`` buys.

    The host clock is sampled before each timed pass and after the last.
    """
    n = workload.passes(args.seconds)
    warm = warm_up(workload, args, n)
    passes = []
    for index in range(n):
        clock.sample(clock_samples(workload))
        passes.append(run_checked(workload, args.seed, index))
    clock.sample(clock_samples(workload))
    return warm, passes


def measure_traced(workload, args, tracer, clock) -> tuple[list, list, list]:
    """Warm-up passes, then pairs of plain and traced passes on the same inputs."""
    pairs = max(1, round(args.seconds / (2 * workload.pass_s)))
    warm = warm_up(workload, args, pairs)
    plain, traced = [], []
    for index in range(pairs):
        clock.sample(clock_samples(workload))
        for trace_it in ((False, True) if index % 2 == 0 else (True, False)):
            if trace_it:
                first_op = sum(len(p.op_s) for p in traced)
                traced.append(run_checked(workload, args.seed, index, tracer, first_op))
            else:
                plain.append(run_checked(workload, args.seed, index))
    clock.sample(clock_samples(workload))
    return warm, plain, traced


def end_to_end(passes, setup_walls, scale: float) -> dict[str, float]:
    """The end-to-end metrics; host times are multiplied by ``scale``."""
    ops = [t for p in passes for t in p.op_s]
    return {
        "setup_s": scale * statistics.median(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": scale * 1e3 * percentile(ops, 50),
        "op_p90_ms": scale * 1e3 * percentile(ops, 90),
        "jobs_per_s": sum(p.jobs for p in passes) / (scale * sum(p.busy_s for p in passes)),
        "makespan_s": statistics.fmean(p.makespan_s for p in passes),
        "turnaround_p90_s": percentile([t for p in passes for t in p.turnarounds_s], 90),
    }


def per_layer(plain, traced, tracer, probe_reports, clock) -> dict[str, float]:
    """The per-layer metrics; layer times are multiplied by the clock's scale."""
    n = len(traced)
    totals = tracer.totals()
    scale = clock.scale()

    def per_pass(span: str, key: str = "s") -> float:
        value = totals.get(span, {}).get(key, 0.0) / n
        return value if key == "calls" else scale * value

    def probe(key: str) -> float:
        return scale * statistics.median(r[key] for r in probe_reports)

    def count(key: str) -> float:
        return sum(p.counts.get(key, 0.0) for p in traced)

    lookups = count("evalcache_hits") + count("evalcache_misses")
    plain_ops = [t for p in plain for t in p.op_s]
    traced_ops = [t for p in traced for t in p.op_s]
    return {
        "import.repro_s": probe("import_s"),
        "hardware.calibrate_s": probe("calibrate_s"),
        "model.characterize_s": probe("characterize_s"),
        "model.profile_s": per_pass("model.profile"),
        "model.profile_calls": per_pass("model.profile", "calls"),
        "perf.tensorize_s": per_pass("perf.tensorize"),
        "perf.tensorize_calls": per_pass("perf.tensorize", "calls"),
        "perf.pair_tables_s": per_pass("perf.pair_tables"),
        "perf.pair_tables_calls": per_pass("perf.pair_tables", "calls"),
        "perf.scalar_fallback_ops": float(len(tracer.marks.get("scalar", ()))),
        "perf.evalcache_hit_ratio": count("evalcache_hits") / lookups if lookups else 0.0,
        "perf.evalcache_lookups": lookups / n,
        "core.search_s": per_pass("core.search", "self_s"),
        "core.search_calls": per_pass("core.search", "calls"),
        "engine.advance_s": per_pass("engine.advance", "self_s"),
        "engine.events": count("engine_events") / n,
        "store.commit_s": per_pass("store.commit"),
        "store.flush_s": per_pass("store.flush"),
        "store.events": tracer.counters["store.commit"] / n,
        "service.decode_s": per_pass("service.decode"),
        "service.encode_s": per_pass("service.encode"),
        "service.handle_self_s": per_pass("service.handle", "self_s"),
        "trace.overhead_frac": sum(traced_ops) / sum(plain_ops) - 1.0,
        "trace.passes": float(n),
        "trace.ops": float(len(traced_ops)),
        "host.ref_py_ms": 1e3 * statistics.median(clock.py_s),
        "host.ref_numpy_ms": 1e3 * statistics.median(clock.numpy_s),
    }


def run_main(args) -> int:
    import repro  # noqa: F401  (fail before any work when it is missing)
    from hostclock import HostClock
    from tracing import Tracer, chrome_trace
    from workloads import WORKLOADS

    clock = HostClock()
    setup_walls, probe_reports = run_probes(args, clock)
    workload = WORKLOADS[args.workload]()
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        workload.setup(args.seed, workdir)
        if args.trace:
            tracer = Tracer()
            warm, plain, traced = measure_traced(workload, args, tracer, clock)
            passes = plain + traced
            metrics = per_layer(plain, traced, tracer, probe_reports, clock)
            units = PER_LAYER_UNITS
            out = OUT_ROOT / f"{args.workload}-seed{args.seed}.trace.json"
            OUT_ROOT.mkdir(exist_ok=True)
            out.write_text(json.dumps(chrome_trace(
                tracer.spans, process=f"perfbench {args.workload} seed {args.seed}"
            )))
            print(f"trace: {len(tracer.spans)} spans -> {out}", file=sys.stderr)
        else:
            warm, passes = measure_plain(workload, args, clock)
            metrics = end_to_end(passes, setup_walls, clock.scale())
            units = END_TO_END_UNITS
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    checked = warm + passes
    problems = [q for p in checked for q in p.problems]
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = sum(max(len(p.op_s), p.failed_ops) for p in checked)
    failed = sum(p.failed_ops for p in checked)
    correct = not problems and failed == 0
    for name, value in metrics.items():
        print(f"{args.workload:>16}  {name:<26} {value:>14.6g} {units[name]}", file=sys.stderr)
    print(
        f"{args.workload:>16}  host times scaled by {clock.scale():.4f} "
        f"(kernel medians {1e3 * statistics.median(clock.py_s):.3f} ms Python, "
        f"{1e3 * statistics.median(clock.numpy_s):.3f} ms NumPy; see hostclock.py)",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The all-workloads report
# ----------------------------------------------------------------------
def report_main(args) -> int:
    """Run every workload in its own process and tabulate the results."""
    from workloads import WORKLOADS

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    rows, ok = {}, True
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            ok = False
        rows[name] = result
    names = list(WORKLOADS)
    width = max(len(m) + len(u) + 3 for m, u in units.items())
    print(f"{'metric [unit]':<{width}}" + "".join(f"{n:>18}" for n in names))
    for metric, unit in units.items():
        cells = []
        for n in names:
            value = rows[n]["metrics"].get(metric, {}).get("value") if rows[n] else None
            cells.append(f"{value:>18.6g}" if value is not None else f"{'-':>18}")
        print(f"{metric + ' [' + unit + ']':<{width}}" + "".join(cells))
    for label, key in (("attempted ops", "attempted"), ("failed ops", "failed"), ("correct", "correct")):
        cells = "".join(f"{str(rows[n][key]) if rows[n] else 'error':>18}" for n in names)
        print(f"{label:<{width}}" + cells)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Measure the default configuration: no on-disk model cache (which
    # would also write outside the checkout) and no sanitizer referee.
    for name in ("REPRO_CACHE_DIR", "REPRO_SANITIZE"):
        os.environ.pop(name, None)
    WORK_ROOT.mkdir(exist_ok=True)
    if args.probe:
        # Before anything else imports numpy, so the probe times it too.
        return probe_main(args)
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: all, {', '.join(WORKLOADS)}")
    if args.workload == "all":
        return report_main(args)
    return run_main(args)


if __name__ == "__main__":
    sys.exit(main())
