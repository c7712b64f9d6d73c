"""End-to-end observability: zero perturbation, valid traces, full coverage.

These tests pin the acceptance contract of the observability subsystem:
instrumenting a simulation must not change its results by a single byte,
and the traces it produces must be schema-valid and loadable.
"""

import json

import pytest

from repro.accel.config import GramerConfig
from repro.accel.sim import make_simulator
from repro.graph.generators import powerlaw_cluster
from repro.mining.apps import CliqueFinding
from repro.obs import (
    CATEGORY_EXECUTOR,
    CATEGORY_MEMORY,
    CATEGORY_PU,
    CATEGORY_STEAL,
    MetricsRegistry,
    SimInstrument,
    Tracer,
    validate_event,
)
from repro.runtime import Executor, make_jobspec


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(120, 3, 0.4, seed=7)


def _run(graph, instrument=None):
    config = GramerConfig(onchip_entries=128)
    sim = make_simulator(graph, config, instrument=instrument)
    return sim.run(CliqueFinding(3))


class TestZeroPerturbation:
    def test_traced_stats_identical_to_untraced(self, graph):
        baseline = _run(graph)
        instrument = SimInstrument(tracer=Tracer(), window_cycles=256)
        traced = _run(graph, instrument=instrument)
        assert traced.stats.as_dict() == baseline.stats.as_dict()
        assert traced.cycles == baseline.cycles

    def test_executor_path_is_also_unperturbed(self, graph):
        spec = make_jobspec("gramer", "3-CF", dataset="citeseer", scale="tiny")
        baseline = Executor(jobs=1, use_cache=False).run([spec])[0]
        instrument = SimInstrument(tracer=Tracer())
        traced = Executor(jobs=1, use_cache=False, tracer=Tracer()).run(
            [spec], instrument=instrument
        )[0]
        assert traced.ok and baseline.ok
        assert traced.fingerprint() == baseline.fingerprint()


class TestTraceContent:
    @pytest.fixture(scope="class")
    def traced(self, graph):
        tracer = Tracer()
        instrument = SimInstrument(tracer=tracer, window_cycles=256)
        result = _run(graph, instrument=instrument)
        return tracer, instrument, result

    def test_sim_categories_present(self, traced):
        tracer, _, _ = traced
        assert {CATEGORY_PU, CATEGORY_MEMORY, CATEGORY_STEAL} <= (
            tracer.categories()
        )

    def test_executor_category_joins_through_executor(self):
        spec = make_jobspec("gramer", "3-CF", dataset="citeseer", scale="tiny")
        tracer = Tracer()
        instrument = SimInstrument(tracer=tracer)
        results = Executor(jobs=1, use_cache=False, tracer=tracer).run(
            [spec], instrument=instrument
        )
        assert results[0].ok
        # The full acceptance set: all four categories in one trace.
        assert {
            CATEGORY_PU,
            CATEGORY_MEMORY,
            CATEGORY_STEAL,
            CATEGORY_EXECUTOR,
        } <= tracer.categories()

    def test_chrome_export_is_valid_json_with_monotone_ts(
        self, traced, tmp_path
    ):
        tracer, _, _ = traced
        payload = json.loads(
            tracer.write_chrome(tmp_path / "trace.json").read_text()
        )
        timestamps = [e["ts"] for e in payload["traceEvents"]]
        assert timestamps and timestamps == sorted(timestamps)

    def test_every_jsonl_record_passes_schema(self, traced, tmp_path):
        tracer, _, _ = traced
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        # Line 0 is the schema header (docs/observability.md); every
        # following line is an event record.
        assert len(lines) > 1
        header = json.loads(lines[0])
        assert header["schema_version"] == 1
        assert header["kind"] == "gramer-trace"
        for line in lines[1:]:
            assert validate_event(json.loads(line)) == []

    def test_timeline_windows_partition_the_run(self, traced):
        _, instrument, result = traced
        windows = instrument.sampler.windows
        assert windows
        assert windows[0].start_cycle == 0
        assert windows[-1].end_cycle == result.cycles
        for prev, cur in zip(windows, windows[1:]):
            assert cur.start_cycle == prev.end_cycle

    def test_window_deltas_sum_to_run_totals(self, traced):
        _, instrument, result = traced
        windows = instrument.sampler.windows
        stats = result.stats
        assert sum(w.steals for w in windows) == stats.steals
        assert sum(w.compute_cycles for w in windows) == stats.compute_cycles
        assert sum(w.vertex_accesses for w in windows) == (
            stats.vertex_high_hits + stats.vertex_low_hits
            + stats.vertex_misses
        )

    def test_registry_publication(self, graph):
        registry = MetricsRegistry()
        instrument = SimInstrument(
            tracer=Tracer(), window_cycles=256, registry=registry
        )
        result = _run(graph, instrument=instrument)
        counter = registry.get("sim_accesses_total")
        assert counter is not None
        assert counter.total() == (
            result.stats.vertex_high_hits + result.stats.vertex_low_hits
            + result.stats.vertex_misses + result.stats.edge_high_hits
            + result.stats.edge_low_hits + result.stats.edge_misses
        )
        assert registry.get("sim_cycles_total").total() == result.cycles
