"""Differential verification: the CPU cache-model replay vs the oracle.

:class:`repro.baselines.cpu.CPUMemory` records the engine's access stream
and replays it in bulk; :class:`tests.differential.cpu_oracle.
OracleCPUMemory` charges each access as it is made.  They must agree
byte-for-byte on

* the ``CPUTimeBreakdown``,
* each level's ``CacheStats`` and ``set_eviction_counts()``,
* the post-L2 observer call sequence (arguments and their types),
* the Fractal/RStream ``BaselineResult`` and traced ``AccessTrace``
  event stream, including where RStream's disk spills fall between the
  CPU misses.

Random ``CPUConfig``s range from one-set to many-set levels, and a tiny
replay chunk puts flush boundaries in the middle of engine frames.  The
Table III tiny grid runs as a small always-on subset, and in full behind
``GRAMER_DIFF_GRID=1``.
"""

import json
import os
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cpu import CPUConfig, CPUMemory
from repro.baselines.fractal import FractalModel
from repro.baselines.rstream import RStreamModel
from repro.experiments import datasets
from repro.experiments.paper_data import TABLE3_APPS
from repro.graph import erdos_renyi, powerlaw_cluster, random_labels
from repro.memory.disk import DiskModel
from repro.mining import make_app
from repro.mining.engine import run_bfs, run_dfs
from repro.obs.access import AccessTrace
from repro.runtime import JobSpec
from repro.runtime.backends import get_backend
from tests.differential.cpu_oracle import OracleCPUMemory, oracle_cpu_model

APPS = ["3-CF", "4-CF", "3-MC", "4-MC", "FSM-2"]


@st.composite
def cpu_configs(draw):
    line_bytes = draw(st.sampled_from([8, 24, 64]))
    ways = draw(st.sampled_from([1, 2, 3, 4, 8]))

    def level_bytes(max_sets):
        sets = draw(st.integers(1, max_sets))
        return sets * ways * line_bytes + draw(st.integers(0, line_bytes * ways - 1))

    return CPUConfig(
        l1_bytes=level_bytes(4),
        l2_bytes=level_bytes(16),
        l3_bytes=level_bytes(64),
        line_bytes=line_bytes,
        ways=ways,
        entry_bytes=draw(st.sampled_from([4, 8, 12])),
        l2_latency=draw(st.sampled_from([7, 12])),
        l2_stall_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )


@st.composite
def er_graphs(draw):
    n = draw(st.integers(6, 32))
    max_edges = n * (n - 1) // 2
    m = draw(st.integers(min(n, max_edges), min(3 * n, max_edges)))
    graph = erdos_renyi(n, m, seed=draw(st.integers(0, 2**16)))
    return random_labels(graph, draw(st.integers(1, 3)), seed=7)


@st.composite
def pl_graphs(draw):
    graph = powerlaw_cluster(
        num_vertices=draw(st.integers(10, 40)),
        edges_per_vertex=draw(st.integers(2, 3)),
        triad_probability=draw(st.sampled_from([0.1, 0.5])),
        seed=draw(st.integers(0, 2**16)),
    )
    return random_labels(graph, draw(st.integers(1, 3)), seed=11)


def _memory_snapshot(memory_cls, graph, config, app_name, order, warm):
    """Mine with ``memory_cls`` attached; everything the model exposes."""
    memory = memory_cls(graph, config)
    if warm:
        memory.warm()
    calls = []
    memory.observer = lambda *args: calls.append(args)
    app = make_app(app_name)
    if order == "dfs":
        run_dfs(graph, app, mem=memory)
    else:
        run_bfs(graph, app, mem=memory, frontier_observer=lambda *_: memory.flush())
    memory.charge_candidate(app.candidates_checked)
    breakdown = memory.breakdown
    caches = (memory.l1, memory.l2, memory.l3)
    return {
        "breakdown": json.dumps(asdict(breakdown)),
        "fractions": json.dumps(breakdown.stall_fractions()),
        "seconds": repr(memory.seconds(0.25)),
        "stats": [json.dumps(asdict(cache.stats)) for cache in caches],
        "set_evictions": [cache.set_eviction_counts() for cache in caches],
        "observer": repr(calls),
    }


def assert_memories_agree(graph, config, app_name, order, warm, chunk):
    with mock.patch.object(CPUMemory, "CHUNK_ENTRIES", chunk):
        replay = _memory_snapshot(CPUMemory, graph, config, app_name, order, warm)
    oracle = _memory_snapshot(OracleCPUMemory, graph, config, app_name, order, warm)
    for key in oracle:
        assert replay[key] == oracle[key], (
            f"replay diverges from the oracle on {key!r} for {app_name} ({order})"
        )


orders = st.sampled_from(["dfs", "bfs"])
chunks = st.integers(1, 48)


@given(er_graphs(), cpu_configs(), st.sampled_from(APPS), orders, st.booleans(), chunks)
@settings(max_examples=120, deadline=None)
def test_replay_matches_oracle_on_random_graphs(graph, config, app_name, order, warm, chunk):
    assert_memories_agree(graph, config, app_name, order, warm, chunk)


@given(pl_graphs(), cpu_configs(), st.sampled_from(APPS), orders, st.booleans(), chunks)
@settings(max_examples=80, deadline=None)
def test_replay_matches_oracle_on_powerlaw_graphs(graph, config, app_name, order, warm, chunk):
    assert_memories_agree(graph, config, app_name, order, warm, chunk)


def test_default_config_matches_oracle_with_default_chunk():
    """The shipped hierarchy and chunk size: many sets, no forced flushes."""
    graph = powerlaw_cluster(300, 3, 0.3, seed=5)
    for order in ("dfs", "bfs"):
        for warm in (False, True):
            assert_memories_agree(
                graph, CPUConfig(), "3-MC", order, warm, CPUMemory.CHUNK_ENTRIES
            )


def _model_snapshot(model, graph, app_name):
    """One baseline run, traced: result fields plus every access event."""
    trace = AccessTrace()
    app = make_app(app_name)
    result = model.run(graph, app, access_trace=trace)
    return {
        "seconds": repr(result.seconds),
        "failed": result.failed,
        "breakdown": json.dumps(asdict(result.breakdown)),
        "embeddings": result.mining.embeddings_by_size,
        "events": [json.dumps(event.as_record(), sort_keys=True) for event in trace.events],
    }


def assert_models_agree(make_model, graph, app_name, chunk):
    """``make_model`` builds a fresh model per side: RStream's disk model
    keeps its counters across runs."""
    with mock.patch.object(CPUMemory, "CHUNK_ENTRIES", chunk):
        replay = _model_snapshot(make_model(), graph, app_name)
    with oracle_cpu_model():
        oracle = _model_snapshot(make_model(), graph, app_name)
    for key in oracle:
        assert replay[key] == oracle[key], (
            f"replay diverges from the oracle on {key!r} for {app_name}"
        )


@given(
    st.one_of(er_graphs(), pl_graphs()),
    cpu_configs(),
    st.sampled_from(APPS),
    chunks,
    st.sampled_from([20, 200, 2_000_000]),
    st.sampled_from([2_000, 10**12]),
)
@settings(max_examples=80, deadline=None)
def test_rstream_trace_matches_oracle(graph, config, app_name, chunk, max_frontier, disk_bytes):
    """CPU misses and disk spills interleave exactly as in the oracle,
    including runs that end out of frontier or out of disk."""
    def make_model():
        return RStreamModel(
            config, disk=DiskModel(capacity_bytes=disk_bytes), max_frontier=max_frontier
        )

    assert_models_agree(make_model, graph, app_name, chunk)


@given(st.one_of(er_graphs(), pl_graphs()), cpu_configs(), st.sampled_from(APPS), chunks)
@settings(max_examples=40, deadline=None)
def test_fractal_trace_matches_oracle(graph, config, app_name, chunk):
    assert_models_agree(lambda: FractalModel(config), graph, app_name, chunk)


def test_rstream_spills_fall_between_levels():
    """The interleaving is real: each level's misses precede its spills."""
    graph = powerlaw_cluster(60, 3, 0.3, seed=4)
    config = CPUConfig(l1_bytes=64, l2_bytes=128, l3_bytes=256, line_bytes=16, ways=1)
    trace = AccessTrace()
    RStreamModel(config).run(graph, make_app("4-MC"), access_trace=trace)
    components = [event.component for event in trace.events]
    first_disk = components.index("disk")
    assert first_disk > 0
    assert any(c != "disk" for c in components[first_disk:])


def _grid_cell(backend, app_name, graph_name):
    spec = JobSpec(backend=backend, app=app_name, dataset=graph_name, scale="tiny")
    runs = {}
    for side in ("replay", "oracle"):
        trace = AccessTrace()
        if side == "replay":
            result = get_backend(backend).run_traced(spec, trace)
        else:
            with oracle_cpu_model():
                result = get_backend(backend).run_traced(spec, trace)
        runs[side] = (
            result.fingerprint(),
            [json.dumps(event.as_record(), sort_keys=True) for event in trace.events],
        )
    assert runs["replay"] == runs["oracle"], (backend, app_name, graph_name)


@pytest.mark.parametrize("backend", ["fractal", "rstream"])
@pytest.mark.parametrize(
    ("app_name", "graph_name"),
    [("3-CF", "citeseer"), ("3-MC", "p2p"), ("FSM", "citeseer")],
)
def test_table3_tiny_subset(backend, app_name, graph_name):
    """A fast, always-on slice of the Table III grid, traced."""
    _grid_cell(backend, app_name, graph_name)


@pytest.mark.skipif(
    not os.environ.get("GRAMER_DIFF_GRID"),
    reason="full Table III grid diff; set GRAMER_DIFF_GRID=1 to enable",
)
@pytest.mark.parametrize("backend", ["fractal", "rstream"])
@pytest.mark.parametrize("app_name", TABLE3_APPS)
@pytest.mark.parametrize("graph_name", datasets.DATASET_ORDER)
def test_table3_tiny_full_grid(backend, app_name, graph_name):
    """Every Table III tiny baseline cell, replay and oracle, byte-identical."""
    _grid_cell(backend, app_name, graph_name)
