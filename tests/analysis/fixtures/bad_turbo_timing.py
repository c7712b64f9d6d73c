"""Known-bad corpus for GRM702: ad-hoc exact turbo-timing assertions."""

import pytest

from repro.accel.sim import make_simulator


def test_turbo_cycles_compared_exactly(graph, config, app, reference):
    result = make_simulator(graph, config, engine="turbo").run(app)
    # GRM702: turbo cycles are tolerance-banded, never exactly equal.
    assert result.stats.cycles == reference.stats.cycles


def test_turbo_fixture_hit_ratio(turbo_result, reference):
    # GRM702: a fixture-delivered turbo run is still banded; the turbo
    # evidence here is the parameter name.
    assert turbo_result.stats.vertex_hit_ratio != reference.stats.vertex_hit_ratio


def test_mining_counts_stay_exact(turbo_result, reference):
    # allowed: mining counts are byte-exact in every engine.
    assert (
        turbo_result.stats.candidates_checked
        == reference.stats.candidates_checked
    )


def test_approx_is_not_an_exact_comparison(turbo_result):
    # allowed: pytest.approx carries its own tolerance.
    assert turbo_result.stats.vertex_hit_ratio == pytest.approx(0.9)


def test_exact_engine_may_compare_exactly(graph, config, app):
    first = make_simulator(graph, config, engine="fast").run(app)
    again = make_simulator(graph, config, engine="fast").run(app)
    # allowed: the exact engine is deterministic; no turbo in scope.
    assert first.stats.cycles == again.stats.cycles
