"""Differential verification of traced runs: the fast engine vs the oracle.

Tracing runs on the shipped exact engine, so every observability product
it feeds must match the event-by-event oracle byte for byte, not only the
end-of-run ``SimStats``:

* the Chrome-trace JSON and the tracer's emission order,
* the timeline windows and the steal-wait latencies,
* the ``AccessTrace`` event stream,
* the ``gramer profile`` text and the metrics registry dump (which read
  the cache counters the engine writes back into its hierarchy).

Each run attaches an instrument and an access trace together.  The
corpus is the engine-equivalence hypothesis corpus plus the always-on
Table III tiny-grid subset.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import GramerConfig
from repro.accel.fastsim import FastGramerSimulator
from repro.experiments import datasets
from repro.mining import make_app
from repro.obs import (
    AccessTrace,
    MetricsRegistry,
    SimInstrument,
    Tracer,
    render_profile,
)
from repro.runtime.backends import build_app
from tests.differential.oracle import REFERENCE, simulator
from tests.differential.test_engine_equivalence import (
    APPS,
    EXACT_ENGINES,
    configs,
    er_graphs,
    pl_graphs,
)

windows = st.sampled_from([16, 128, 1024])


def _compact(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def traced_snapshot(graph, config, app, engine, window_cycles):
    """Run one engine with every observer attached; serialize what they saw.

    A run that raises still yields the events emitted up to the raise,
    next to the exception type.
    """
    registry = MetricsRegistry()
    tracer = Tracer()
    instrument = SimInstrument(
        tracer=tracer, window_cycles=window_cycles, registry=registry
    )
    access = AccessTrace()
    snapshot = {}
    try:
        sim = simulator(
            graph, config, engine=engine,
            instrument=instrument, access_trace=access,
        )
        result = sim.run(app)
    except Exception as error:  # noqa: BLE001 - the type IS the payload
        snapshot["error"] = type(error).__name__
    else:
        if engine != REFERENCE:
            assert isinstance(sim, FastGramerSimulator)
        sim.hierarchy.publish(registry)
        snapshot["stats"] = _compact(result.stats.as_dict())
        snapshot["profile"] = render_profile(
            result.stats,
            instrument=instrument,
            pressure=sim.hierarchy.low_cache_pressure(),
        )
        snapshot["metrics"] = registry.render_text()
    snapshot["chrome"] = _compact(tracer.chrome_payload())
    snapshot["emitted"] = [_compact(e.as_chrome()) for e in tracer.events]
    snapshot["windows"] = [w.as_dict() for w in instrument.sampler.windows]
    snapshot["steal_latencies"] = list(instrument.steal_latencies)
    snapshot["access"] = [e.as_record() for e in access.events]
    return snapshot


def assert_traces_agree(graph, config, make, window_cycles):
    fast, oracle = (
        traced_snapshot(graph, config, make(), engine, window_cycles)
        for engine in EXACT_ENGINES
    )
    for key in sorted(oracle.keys() | fast.keys()):
        assert fast.get(key) == oracle.get(key), (
            f"traced engines diverge on {key!r}"
        )


@given(er_graphs(), configs, st.sampled_from(APPS), windows)
@settings(max_examples=60, deadline=None)
def test_traces_identical_on_random_graphs(graph, config, app_name, window):
    assert_traces_agree(graph, config, lambda: make_app(app_name), window)


@given(pl_graphs(), configs, st.sampled_from(APPS), windows)
@settings(max_examples=40, deadline=None)
def test_traces_identical_on_powerlaw_graphs(graph, config, app_name, window):
    assert_traces_agree(graph, config, lambda: make_app(app_name), window)


@pytest.mark.parametrize(
    ("app_name", "graph_name"),
    [("3-CF", "citeseer"), ("4-MC", "p2p"), ("FSM", "citeseer")],
)
def test_table3_tiny_subset_traces(app_name, graph_name):
    """The always-on Table III slice, traced at the CLI's window width."""
    app = build_app(app_name, graph_name, "tiny")
    loader = datasets.load_labeled if app.needs_labels else datasets.load
    graph = loader(graph_name, "tiny")
    assert_traces_agree(
        graph,
        GramerConfig(),
        lambda: build_app(app_name, graph_name, "tiny"),
        1024,
    )
