"""End-to-end benchmark of the GRAMER reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table3-tiny --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the separate traced pass and reports the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Each workload's work is fixed; ``--seconds`` is the run length the work is
sized for and is echoed on standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for cache roots, edge lists, reports and spans.
WORKDIR = Path(".perfbench_work")
#: Fresh graph stores built per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The calibration loop of :func:`_measure`, how often it runs during a
#: measurement, and its CPU time on a quiet host of the kind the recorded
#: results come from.
CALIBRATION_ITERATIONS = 100_000
CALIBRATION_INTERVAL_S = 0.5
CALIBRATION_NOMINAL_S = 0.012

END_TO_END = {
    "setup_s": "s",
    "grid_s": "s",
    "rerun_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "graph.build_s": "s",
    "graph.import_s": "s",
    "graph.open_s": "s",
    "locality.rank_s": "s",
    "mining.dfs_s": "s",
    "mining.bfs_s": "s",
    "mining.candidates": "count",
    "mining.embeddings": "count",
    "mining.accept_ratio": "ratio",
    "accel.sim_s": "s",
    "accel.timing_s": "s",
    "accel.cycles": "cycles",
    "accel.host_ns_per_candidate": "ns",
    "baselines.fractal_s": "s",
    "baselines.rstream_s": "s",
    "memory.cpu_model_s": "s",
    "runtime.cache_get_s": "s",
    "runtime.cache_put_s": "s",
    "runtime.cache_hits": "count",
    "runtime.cache_misses": "count",
    "runtime.quarantined": "count",
    "runtime.retries": "count",
    "runtime.pool_idle_s": "s",
    "experiments.fig12_s": "s",
    "accel.reference_s": "s",
    "obs.trace_overhead_s": "s",
    "obs.analyze_s": "s",
    "obs.chrome_write_s": "s",
    "obs.events": "count",
    "bench.span_overhead_s": "s",
}

#: Per-layer metrics that are straight span totals.
SPAN_TOTALS = {
    "graph.build_s": "graph.build",
    "graph.import_s": "graph.import",
    "graph.open_s": "graph.open",
    "locality.rank_s": "locality.rank",
    "mining.dfs_s": "mining.dfs",
    "mining.bfs_s": "mining.bfs",
    "accel.sim_s": "accel.sim",
    "baselines.fractal_s": "baselines.fractal",
    "baselines.rstream_s": "baselines.rstream",
    "runtime.cache_get_s": "runtime.cache_get",
    "runtime.cache_put_s": "runtime.cache_put",
    "experiments.fig12_s": "experiments.fig12",
    "accel.reference_s": "accel.reference",
    "obs.analyze_s": "obs.analyze",
    "obs.chrome_write_s": "obs.chrome_write",
}


def _prepare_environment() -> None:
    """Import the package from this checkout, isolated from the caller's env."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: no src/repro under {ROOT}; run from a full checkout")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    for name in ("GRAMER_CACHE_DIR", "GRAMER_JOBS", "GRAMER_FAULTS"):
        os.environ.pop(name, None)


def _activate(root: Path) -> None:
    """Point the artifact cache and graph store at ``root``; drop memory tiers."""
    from repro.graph.store import reset_default_graph_store
    from repro.runtime import reset_default_cache

    os.environ["GRAMER_CACHE_DIR"] = str(root)
    reset_default_cache()
    reset_default_graph_store()


def _clone(seed_root: Path, name: str) -> Path:
    """A private cache root for one pass: warm graph store, empty job cache."""
    root = WORKDIR / name
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(seed_root, root)
    _activate(root)
    return root


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _calibration_loop() -> float:
    """CPU seconds this thread spends on a fixed loop of plain Python."""
    start = time.thread_time()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - start


def _measure(fn):
    """Run ``fn``; return its result and its wall and CPU seconds, scaled.

    On a shared host, other tenants change how fast plain Python runs by up
    to 1.6x within seconds, so a raw timing spreads that much from run to
    run.  While ``fn`` runs, a sampler thread runs a fixed loop, which
    touches no repository code, every ``CALIBRATION_INTERVAL_S`` and records
    the loop's CPU time (CPU time, so that waiting for the interpreter lock
    does not count).  Both timings are scaled by nominal over the median
    loop time, taken before, during and after ``fn``.  The sampler costs
    about 2% of one core; its own CPU time is taken out of the CPU seconds.
    """
    samples = [_calibration_loop()]
    during: list[float] = []
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(CALIBRATION_INTERVAL_S):
            during.append(_calibration_loop())

    sampler = threading.Thread(target=sample, daemon=True)
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    sampler.start()
    try:
        result = fn()
    finally:
        stop.set()
        sampler.join()
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu_start - sum(during)
    samples += during
    samples.append(_calibration_loop())
    factor = CALIBRATION_NOMINAL_S / statistics.median(samples)
    return result, wall * factor, cpu * factor


class Gate:
    """Counts attempted and failed cells over every checked pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, outputs: dict, failed: set[str]) -> None:
        self.attempted += len(outputs)
        self.failed += len(failed)
        for key in sorted(failed):
            print(f"FAILED [{label}] {key}", file=sys.stderr)


def _fresh_root(name: str) -> Path:
    root = WORKDIR / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    _activate(root)
    return root


def _build_inputs(workload, ctx, rec) -> None:
    """What ``setup_s`` times: the workload's inputs, in the active store."""
    from inputs import setup

    seed = ctx.seed if workload.seeded else 0
    ctx.inputs = setup(workload.graphs, workload.fsm_graphs, seed, WORKDIR / "edges", rec)


def measure(workload, ctx, gate: Gate) -> dict[str, float]:
    """End-to-end metrics, tracing off."""
    from spans import NullRecorder

    setups = []
    for index in range(SETUP_REPEATS):
        seed_root = _fresh_root(f"setup{index}")
        _, seconds, _ = _measure(lambda: _build_inputs(workload, ctx, NullRecorder()))
        setups.append(seconds)

    grids, cpus, reruns = [], [], []
    for index in range(workload.passes):
        root = _clone(seed_root, f"pass{index}")
        cold, seconds, cpu = _measure(lambda: workload.cold(ctx))
        grids.append(seconds)
        cpus.append(cpu)
        gate.add(f"cold{index}", cold, workload.check(ctx, cold))
        for rerun in range(workload.reruns):
            _activate(root)  # a re-run is a new process: no memory tier
            again, seconds, _ = _measure(lambda: workload.rerun(ctx))
            reruns.append(seconds)
            gate.add(f"rerun{index}.{rerun}", again, workload.check(ctx, again, reference=cold))

    return {
        "setup_s": statistics.median(setups),
        "grid_s": statistics.median(grids),
        "rerun_s": statistics.median(reruns),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_ratio": (gate.attempted - gate.failed) / gate.attempted,
    }


def trace(workload, ctx, gate: Gate) -> dict[str, float]:
    """Per-layer metrics from a separate traced pass, plus its untraced twin."""
    from spans import NullRecorder, SpanRecorder

    rec = SpanRecorder()
    rec.pass_id = "setup"
    seed_root = _fresh_root("setup")
    _build_inputs(workload, ctx, rec)
    metrics = dict.fromkeys(PER_LAYER, 0.0)

    if workload.pooled:
        _clone(seed_root, "pool")
        start = time.perf_counter()
        pooled = workload.cold(ctx)
        pool_wall = time.perf_counter() - start
        gate.add("pool", pooled, workload.check(ctx, pooled))

    _clone(seed_root, "traced")
    rec.pass_id = "traced"
    start = time.perf_counter()
    layered = workload.layered(ctx, rec)
    traced_wall = time.perf_counter() - start
    gate.add("traced", layered.outputs, workload.check_layered(ctx, layered))

    _clone(seed_root, "twin")
    start = time.perf_counter()
    twin = workload.layered(ctx, NullRecorder(), plan=layered.plan)
    twin_wall = time.perf_counter() - start
    gate.add("twin", twin.outputs, workload.check_layered(ctx, twin))

    for metric, span_name in SPAN_TOTALS.items():
        metrics[metric] = rec.total_s(span_name)
    metrics.update(layered.facts)
    if workload.pooled:
        metrics.update(workload.pool_metrics(ctx, pooled, pool_wall, twin))
    metrics["mining.accept_ratio"] = metrics["mining.embeddings"] / max(
        1, metrics["mining.candidates"]
    )
    metrics["bench.span_overhead_s"] = traced_wall - twin_wall
    rec.write(WORKDIR / f"spans-{workload.name}-seed{ctx.seed}.json")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _prepare_environment()
    from workloads import WORKLOADS, Context, load_digests

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    jobs = len(os.sched_getaffinity(0))
    print(
        f"{workload.name}: seed {args.seed}"
        f"{'' if workload.seeded else ' (recorded, inputs are the registered proxies)'}, "
        f"jobs {jobs}, sized for ~{args.seconds}s, trace {args.trace}",
        file=sys.stderr,
    )
    if args.seed != 0 and workload.seeded:
        from inputs import recipe_mismatches

        stale = recipe_mismatches()
        if stale:
            sys.exit(f"error: seeded recipes no longer match the registry: {stale}")

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    digests = load_digests()
    if workload.name == "table3-tiny" and str(args.seed) not in digests.get(workload.name, {}):
        print(
            f"note: no recorded digests for seed {args.seed}; the gate checks "
            "cross-backend counts and re-run fingerprints only",
            file=sys.stderr,
        )
    ctx = Context(seed=args.seed, jobs=jobs, workdir=WORKDIR, digests=digests)
    gate = Gate()
    values = (trace if args.trace else measure)(workload, ctx, gate)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    for path in WORKDIR.iterdir():  # keep only the spans
        if path.is_dir():
            shutil.rmtree(path)
        elif not path.name.startswith("spans-"):
            path.unlink()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
