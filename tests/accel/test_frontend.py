"""Arbitrator / prefetcher root dispatch."""

from repro.accel.frontend import dispatch_roots


class TestDispatch:
    def test_round_robin(self):
        d = dispatch_roots(range(10), num_pus=3, prefetch_interval=1)
        assert [root for root, _ in d.queues[0]] == [0, 3, 6, 9]
        assert [root for root, _ in d.queues[1]] == [1, 4, 7]
        assert d.total == 10

    def test_arrival_pacing(self):
        d = dispatch_roots(range(6), num_pus=2, prefetch_interval=4)
        arrivals = [t for _, t in d.queues[0]]
        assert arrivals == [0, 8, 16]  # global stream positions 0, 2, 4

    def test_pop_and_pending(self):
        d = dispatch_roots(range(4), num_pus=2, prefetch_interval=1)
        assert d.pending(0) == 2
        assert d.pop(0) == (0, 0)
        assert d.pending(0) == 1
        d.pop(0)
        assert d.pop(0) is None

    def test_empty_stream(self):
        d = dispatch_roots([], num_pus=2, prefetch_interval=1)
        assert d.total == 0
        assert d.pop(0) is None


class TestDegreeBalanced:
    def test_balances_accumulated_degree(self):
        degrees = [100, 1, 1, 1, 1]
        d = dispatch_roots(
            range(5), num_pus=2, prefetch_interval=1,
            policy="degree_balanced", degrees=degrees,
        )
        # Root 0 (degree 100) lands alone on PU 0; the rest pile on PU 1.
        assert [root for root, _ in d.queues[0]] == [0]
        assert [root for root, _ in d.queues[1]] == [1, 2, 3, 4]

    def test_requires_degrees(self):
        import pytest

        with pytest.raises(ValueError, match="degrees"):
            dispatch_roots(range(3), 2, 1, policy="degree_balanced")

    def test_unknown_policy(self):
        import pytest

        with pytest.raises(ValueError, match="policy"):
            dispatch_roots(range(3), 2, 1, policy="magic")

    def test_sim_results_unchanged(self):
        from repro.accel.config import GramerConfig
        from repro.accel.sim import make_simulator
        from repro.graph.generators import powerlaw_cluster
        from repro.mining.apps import CliqueFinding
        from repro.mining.engine import run_dfs

        g = powerlaw_cluster(150, 3, 0.3, seed=44)
        ref = run_dfs(g, CliqueFinding(3)).num_cliques
        app = CliqueFinding(3)
        make_simulator(
            g,
            GramerConfig(onchip_entries=256, arbitrator="degree_balanced"),
        ).run(app)
        assert app.num_cliques == ref
