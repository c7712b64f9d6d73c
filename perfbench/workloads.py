"""The benchmark's three workloads.

Each workload has

* ``cold``/``rerun`` — the measured pass body, run with tracing off;
* ``check`` — the correctness gate over one pass's outputs, returning the
  keys of failed cells (a failed cell counts in ``ok_ratio``);
* ``layered`` — the traced pass: the same user-facing work, made inline
  as one call per layer with a span around each, plus one extra
  ``run_dfs``/``run_bfs`` per distinct (graph, app) so that simulator and
  baseline time can be split into mining and model time.  Called with a
  :class:`~spans.NullRecorder` it is its own untraced twin.

Everything is driven through the package's public functions; nothing in
``src/`` is modified or wrapped except, in the traced pass of
``sweep-tiny``, the ``make_simulator`` name the fig12 driver imports,
which gets a span around it.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from repro.accel.sim import make_simulator
from repro.experiments import fig12_lamh, run_all
from repro.experiments.datasets import DATASET_ORDER, SMALL_GRAPHS
from repro.experiments.paper_data import TABLE3_APPS
from repro.mining.apps import make_app
from repro.mining.engine import FrontierOverflowError, run_bfs, run_dfs
from repro.obs import AccessTrace, SimInstrument, Tracer, analyze_trace
from repro.runtime import (
    JOB_KIND,
    Executor,
    JobResult,
    build_app,
    default_cache,
    reset_default_cache,
    run_spec,
)
from repro.runtime.backends import resolve_graph

from inputs import SCALE, Inputs

SYSTEMS = ("gramer", "fractal", "rstream")
LAYER_OF = {"gramer": "accel.sim", "fractal": "baselines.fractal", "rstream": "baselines.rstream"}
#: The RStream backend's default frontier cap, reused by the mining-share call.
RSTREAM_MAX_FRONTIER = 2_000_000

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def fingerprint_digest(result: JobResult) -> str:
    return short_digest(result.fingerprint())


@dataclass
class Context:
    seed: int
    jobs: int
    workdir: Path
    inputs: Inputs | None = None
    digests: dict = field(default_factory=dict)


@dataclass
class Layered:
    """What a traced pass hands back: outputs to gate, and layer facts."""

    outputs: dict
    rerun_outputs: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    plan: list = field(default_factory=list)
    module_walls: dict = field(default_factory=dict)


def _mine(graph, app, mode: str, rec) -> tuple[float, int, int]:
    """One mining-only call: (span seconds, candidates checked, embeddings)."""
    with rec.span(f"mining.{mode}") as span:
        try:
            if mode == "dfs":
                run_dfs(graph, app)
            else:
                run_bfs(graph, app, max_frontier=RSTREAM_MAX_FRONTIER)
        except FrontierOverflowError:
            pass  # RStream's N/A cell: the work done so far still counts
    return span.seconds, app.candidates_checked, app.result().total_embeddings


def _cell_app(spec):
    if spec.dataset is not None:
        return build_app(spec.app, spec.dataset, spec.scale)
    return make_app(spec.app)


class Table3:
    """The Table III tiny grid through ``Executor(jobs=nproc)``."""

    name = "table3-tiny"
    graphs = tuple(DATASET_ORDER)
    fsm_graphs = tuple(DATASET_ORDER)
    #: 4-MC runs on the small graphs only: on all seven it is 79% of the
    #: grid's host time (88 s of 112 s inline), more than one run can hold.
    pairs = tuple(
        (app, graph)
        for app in TABLE3_APPS
        for graph in (SMALL_GRAPHS if app == "4-MC" else DATASET_ORDER)
    )
    seeded = True
    pooled = True
    passes = 1
    #: A re-run only reads 111 cached results (~15 ms): take many.
    reruns = 25

    def cells(self, inputs: Inputs) -> list[tuple[str, object]]:
        return [
            (f"{backend}:{app}@{graph}", inputs.spec(backend, app, graph))
            for app, graph in self.pairs
            for backend in SYSTEMS
        ]

    def recorded(self, digests: dict, seed: int) -> dict[str, str] | None:
        """Recorded fingerprint digest per cell for ``seed``, if any."""
        table = digests.get(self.name, {})
        row = table.get("seeds", {}).get(str(seed))
        return None if row is None else dict(zip(table["cells"], row))

    def cold(self, ctx: Context) -> dict[str, JobResult]:
        cells = self.cells(ctx.inputs)
        results = Executor(jobs=ctx.jobs).run([spec for _, spec in cells])
        return {key: result for (key, _), result in zip(cells, results)}

    rerun = cold

    def check(self, ctx: Context, outputs: dict, reference: dict | None = None) -> set[str]:
        failed = {key for key, result in outputs.items() if not result.ok}
        recorded = self.recorded(ctx.digests, ctx.seed)
        if recorded is not None:
            failed |= {
                key for key, result in outputs.items()
                if recorded.get(key) != fingerprint_digest(result)
            }
        for app, graph in self.pairs:
            keys = [f"{backend}:{app}@{graph}" for backend in SYSTEMS]
            gramer, fractal, rstream = (outputs[key] for key in keys)
            if not (rstream.ok and rstream.seconds is not None):
                continue
            counts = [r.detail.get("embeddings") for r in (gramer, fractal, rstream)]
            if counts[0] != counts[1] or counts[0] != counts[2]:
                failed |= set(keys)
        if reference is not None:
            failed |= {
                key for key, result in outputs.items()
                if result.fingerprint() != reference[key].fingerprint()
            }
        return failed

    def pool_metrics(self, ctx: Context, pooled: dict, wall: float, twin: Layered) -> dict:
        # Nothing is cached in a cold pass, so each result's wall time was
        # spent inside a worker.
        busy = sum(result.wall_seconds for result in pooled.values())
        return {
            "runtime.pool_idle_s": ctx.jobs * wall - busy,
            "runtime.retries": sum(result.retries for result in pooled.values()),
        }

    def check_layered(self, ctx: Context, layered: Layered) -> set[str]:
        return self.check(ctx, layered.outputs) | self.check(
            ctx, layered.rerun_outputs, reference=layered.outputs
        )

    def layered(self, ctx: Context, rec, plan=None) -> Layered:
        cells = self.cells(ctx.inputs)
        cache = default_cache()
        outputs: dict[str, JobResult] = {}
        misses = 0
        for key, spec in cells:
            with rec.span("cell"):
                with rec.span("runtime.cache_get"):
                    hit, _ = cache.lookup(JOB_KIND, spec.cache_key())
                misses += not hit
                with rec.span(LAYER_OF[spec.backend]):
                    result = run_spec(spec, use_cache=False, cache=cache)
                with rec.span("runtime.cache_put"):
                    cache.store(JOB_KIND, spec.cache_key(), result)
            outputs[key] = result
        quarantined = cache.stats.quarantined

        # Mining share: gramer and fractal mine depth-first, rstream
        # breadth-first; one call per distinct (app, graph, order).
        mined: dict[tuple[str, str, str], tuple[float, int, int]] = {}
        for key, spec in cells:
            mode = "bfs" if spec.backend == "rstream" else "dfs"
            cell = (spec.app, spec.graph_name, mode)
            if cell in mined:
                continue
            app = _cell_app(spec)
            graph = resolve_graph(spec, app.needs_labels)
            mined[cell] = _mine(graph, app, mode, rec)

        # The re-run: a new process would start with an empty memory tier.
        reset_default_cache()
        cache = default_cache()
        rerun: dict[str, JobResult] = {}
        hits = 0
        for key, spec in cells:
            with rec.span("runtime.cache_get"):
                hit, value = cache.lookup(JOB_KIND, spec.cache_key())
            hits += hit
            rerun[key] = value if hit else outputs[key]
        quarantined += cache.stats.quarantined

        def share(backend: str, mode: str) -> tuple[float, int]:
            seconds = candidates = 0
            for _, spec in cells:
                if spec.backend == backend:
                    s, c, _ = mined[(spec.app, spec.graph_name, mode)]
                    seconds += s
                    candidates += c
            return seconds, candidates

        gramer_mine_s, gramer_candidates = share("gramer", "dfs")
        cpu_mine_s = share("fractal", "dfs")[0] + share("rstream", "bfs")[0]
        sim_s = rec.total_s("accel.sim")
        baseline_s = rec.total_s("baselines.fractal") + rec.total_s("baselines.rstream")
        facts = {
            "mining.candidates": sum(c for _, c, _ in mined.values()),
            "mining.embeddings": sum(e for _, _, e in mined.values()),
            "accel.timing_s": sim_s - gramer_mine_s,
            "accel.cycles": sum(
                r.detail.get("cycles", 0) for k, r in outputs.items() if k.startswith("gramer:")
            ),
            "accel.host_ns_per_candidate": sim_s * 1e9 / max(1, gramer_candidates),
            "memory.cpu_model_s": baseline_s - cpu_mine_s,
            "runtime.cache_hits": hits,
            "runtime.cache_misses": misses,
            "runtime.quarantined": quarantined,
        }
        return Layered(outputs, rerun, facts)


class Sweep:
    """``gramer experiment --scale tiny --only fig12`` via ``run_all.main``.

    fig13 is left out: with it a cold pass and its re-run take 80 s on a
    2-CPU host (fig13 alone sets the makespan), more than one run can hold.
    """

    name = "sweep-tiny"
    graphs = ("p2p",)
    fsm_graphs = ("p2p",)
    #: The figure drivers read the registered proxies; --seed is recorded
    #: in the output and otherwise ignored.
    seeded = False
    pooled = True
    passes = 1
    reruns = 1
    figures = ("fig12",)

    def _experiment(self, ctx: Context, only, jobs: int, out: str) -> dict[str, str]:
        out_dir = ctx.workdir / out
        argv = ["--scale", SCALE, "--only", *only, "--jobs", str(jobs), "--out", str(out_dir)]
        with redirect_stdout(io.StringIO()):
            run_all.main(argv)
        return {
            name: (out_dir / f"{name}.txt").read_text(encoding="utf-8") for name in only
        }

    def cold(self, ctx: Context) -> dict[str, str]:
        return self._experiment(ctx, self.figures, ctx.jobs, "sweep-out")

    rerun = cold

    def check(self, ctx: Context, outputs: dict, reference: dict | None = None) -> set[str]:
        recorded = ctx.digests.get(self.name, {})
        failed = {key for key, text in outputs.items() if recorded.get(key) != short_digest(text)}
        if reference is not None:
            failed |= {key for key, text in outputs.items() if text != reference[key]}
        return failed

    def pool_metrics(self, ctx: Context, pooled: dict, wall: float, twin: Layered) -> dict:
        # The untraced twin runs each figure inline: that is the busy time.
        return {"runtime.pool_idle_s": ctx.jobs * wall - sum(twin.module_walls.values())}

    def check_layered(self, ctx: Context, layered: Layered) -> set[str]:
        return self.check(ctx, layered.outputs)

    def layered(self, ctx: Context, rec, plan=None) -> Layered:
        calls: list[tuple[object, object]] = []
        cycles = [0]
        if plan is None:
            def traced_factory(graph, config=None, **kwargs):
                with rec.span("accel.sim"):
                    sim = make_simulator(graph, config, **kwargs)
                return _SpannedSimulator(sim, graph, rec, calls, cycles)

            fig12_lamh.make_simulator = traced_factory
        outputs: dict[str, str] = {}
        walls: dict[str, float] = {}
        try:
            for figure in self.figures:
                start = time.perf_counter()
                with rec.span(f"experiments.{figure}"):
                    outputs.update(self._experiment(ctx, (figure,), 1, f"layered-{figure}"))
                walls[figure] = time.perf_counter() - start
        finally:
            fig12_lamh.make_simulator = make_simulator

        if plan is None:
            distinct: dict[tuple, tuple] = {}
            for graph, app in calls:
                distinct.setdefault(_mining_key(graph, app), (graph, app))
            plan = list(distinct.items())
        mined: dict[tuple, tuple[float, int, int]] = {}
        for key, (graph, app) in plan:
            mined[key] = _mine(graph, copy.deepcopy(app), "dfs", rec)

        sim_s = rec.total_s("accel.sim")
        per_call = [mined[_mining_key(graph, app)] for graph, app in calls]
        facts = {
            "mining.candidates": sum(c for _, c, _ in mined.values()),
            "mining.embeddings": sum(e for _, _, e in mined.values()),
            "accel.timing_s": sim_s - sum(s for s, _, _ in per_call),
            "accel.cycles": cycles[0],
            "accel.host_ns_per_candidate": sim_s * 1e9 / max(1, sum(c for _, c, _ in per_call)),
        }
        return Layered(outputs, facts=facts, plan=plan, module_walls=walls)


def _mining_key(graph, app) -> tuple:
    return (
        graph.content_digest(),
        type(app).__name__,
        app.max_vertices,
        getattr(app, "threshold", None),
    )


class _SpannedSimulator:
    """A simulator whose ``run`` is spanned; records (graph, fresh app)."""

    def __init__(self, sim, graph, rec, calls, cycles) -> None:
        self._sim = sim
        self._graph = graph
        self._rec = rec
        self._calls = calls
        self._cycles = cycles

    def run(self, app):
        self._calls.append((self._graph, copy.deepcopy(app)))
        with self._rec.span("accel.sim"):
            result = self._sim.run(app)
        self._cycles[0] += result.cycles
        return result


class Trace:
    """``gramer memprofile`` over three backends plus ``gramer trace``, inline."""

    name = "trace-tiny"
    #: Of the cells checked, 3-MC@mico varies least in work across seeded
    #: regenerations (1.9% IQR of candidates over ten seeds, against 7.8%
    #: for 4-MC@p2p), and the host's own noise is already ~11%.
    app = "3-MC"
    graph = "mico"
    graphs = ("mico",)
    fsm_graphs = ()
    seeded = True
    pooled = False
    #: One pass takes ~4 s: the median of five is steadier and still short.
    passes = 5
    reruns = 1
    #: The analyzer's default channel, as ``gramer memprofile`` keys it.
    channel = {"row_bytes": 1024, "streams": 8, "line_bytes": 64}

    def _spec(self, ctx: Context, backend: str):
        return ctx.inputs.spec(backend, self.app, self.graph)

    def _memprofile(self, ctx: Context, backend: str) -> tuple[JobResult | None, dict]:
        cache = default_cache()
        spec = self._spec(ctx, backend)
        ran: dict[str, JobResult] = {}

        def produce() -> dict:
            trace = AccessTrace(meta={"backend": backend, "app": self.app,
                                      "graph": self.graph, "scale": SCALE})
            ran["result"] = run_spec(spec, use_cache=False, cache=cache, access_trace=trace)
            return analyze_trace(trace, **self.channel)

        key = {"spec": spec.cache_key(), "channel": self.channel}
        report = cache.get_or_create("obs/access", key, produce)
        return ran.get("result"), report

    def _trace(self, ctx: Context) -> tuple[JobResult, int]:
        tracer = Tracer()
        instrument = SimInstrument(tracer=tracer)
        executor = Executor(jobs=1, use_cache=False, tracer=tracer)
        result = executor.run([self._spec(ctx, "gramer")], instrument=instrument)[0]
        tracer.write_chrome(ctx.workdir / "trace-tiny.json")
        return result, len(tracer)

    def cold(self, ctx: Context) -> dict:
        outputs = {f"memprofile:{b}": self._memprofile(ctx, b) for b in SYSTEMS}
        outputs["trace:gramer"] = self._trace(ctx)
        return outputs

    rerun = cold

    def check(self, ctx: Context, outputs: dict, reference: dict | None = None) -> set[str]:
        """Traced runs must fingerprint like untraced ones; re-runs like the cold run."""
        failed = set()
        if reference is None:
            cache = default_cache()
            plain = {
                backend: run_spec(self._spec(ctx, backend), use_cache=False, cache=cache)
                for backend in SYSTEMS
            }
            for key, (result, _) in outputs.items():
                backend = key.split(":")[1]
                if (result is None or not result.ok
                        or result.fingerprint() != plain[backend].fingerprint()):
                    failed.add(key)
            return failed
        for key, (result, payload) in outputs.items():
            cold_result, cold_payload = reference[key]
            if key.startswith("memprofile:"):
                if payload != cold_payload:
                    failed.add(key)
            elif not result.ok or result.fingerprint() != cold_result.fingerprint():
                failed.add(key)
        return failed

    def layered(self, ctx: Context, rec, plan=None) -> Layered:
        cache = default_cache()
        # key -> (traced result, untraced result of the same cell)
        outputs: dict[str, tuple[JobResult, JobResult]] = {}
        plain: dict[str, JobResult] = {}
        untraced: dict[str, float] = {}
        overhead = 0.0
        events = 0
        for backend in SYSTEMS:
            spec = self._spec(ctx, backend)
            with rec.span(LAYER_OF[backend]) as plain_span:
                plain[backend] = run_spec(spec, use_cache=False, cache=cache)
            untraced[backend] = plain_span.seconds
            trace = AccessTrace(meta={"backend": backend, "app": self.app,
                                      "graph": self.graph, "scale": SCALE})
            traced_layer = "accel.reference" if backend == "gramer" else f"obs.traced.{backend}"
            with rec.span(traced_layer) as traced_span:
                traced = run_spec(spec, use_cache=False, cache=cache, access_trace=trace)
            overhead += traced_span.seconds - plain_span.seconds
            with rec.span("obs.analyze"):
                analyze_trace(trace, **self.channel)
            events += len(trace)
            outputs[f"memprofile:{backend}"] = (traced, plain[backend])

        tracer = Tracer()
        instrument = SimInstrument(tracer=tracer)
        executor = Executor(jobs=1, use_cache=False, tracer=tracer)
        spec = self._spec(ctx, "gramer")
        with rec.span("accel.reference") as traced_span:
            traced = executor.run([spec], instrument=instrument)[0]
        overhead += traced_span.seconds - untraced["gramer"]
        with rec.span("obs.chrome_write"):
            tracer.write_chrome(ctx.workdir / "trace-layered.json")
        events += len(tracer)
        outputs["trace:gramer"] = (traced, plain["gramer"])

        app = _cell_app(spec)
        graph = resolve_graph(spec, app.needs_labels)
        dfs_s, dfs_candidates, dfs_embeddings = _mine(graph, app, "dfs", rec)
        bfs_s, bfs_candidates, bfs_embeddings = _mine(graph, _cell_app(spec), "bfs", rec)
        facts = {
            "mining.candidates": dfs_candidates + bfs_candidates,
            "mining.embeddings": dfs_embeddings + bfs_embeddings,
            "accel.timing_s": untraced["gramer"] - dfs_s,
            "accel.cycles": traced.detail.get("cycles", 0),
            "accel.host_ns_per_candidate": untraced["gramer"] * 1e9 / max(1, dfs_candidates),
            "memory.cpu_model_s": (
                untraced["fractal"] - dfs_s + untraced["rstream"] - bfs_s
            ),
            "obs.trace_overhead_s": overhead,
            "obs.events": events,
        }
        return Layered(outputs, facts=facts)

    def check_layered(self, ctx: Context, layered: Layered) -> set[str]:
        return {
            key for key, (traced, plain) in layered.outputs.items()
            if not traced.ok or traced.fingerprint() != plain.fingerprint()
        }


WORKLOADS = {w.name: w for w in (Table3(), Sweep(), Trace())}
