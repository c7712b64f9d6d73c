"""The GRAMER cycle simulator: functional equivalence plus timing behaviour.

Every test builds the shipped engine through ``make_simulator``.
"""

import pytest

from repro.accel.config import GramerConfig
from repro.accel.sim import AncestorBufferOverflowError, make_simulator
from repro.graph.generators import clique, powerlaw_cluster, random_labels
from repro.mining.apps import CliqueFinding, FrequentSubgraphMining, MotifCounting
from repro.mining.engine import run_dfs


def small_config(**overrides):
    base = dict(onchip_entries=512)
    base.update(overrides)
    return GramerConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(300, 3, 0.4, seed=21)


class TestFunctionalEquivalence:
    """The load-bearing invariant: sim results == software results."""

    def test_clique_counts(self, graph):
        ref = run_dfs(graph, CliqueFinding(4)).result()
        sim = make_simulator(graph, small_config()).run(CliqueFinding(4))
        assert sim.mining.embeddings_by_size == ref.embeddings_by_size
        assert sim.mining.patterns_by_size == ref.patterns_by_size

    def test_motif_counts(self, graph):
        ref = run_dfs(graph, MotifCounting(3)).result()
        sim = make_simulator(graph, small_config()).run(MotifCounting(3))
        assert sim.mining.patterns_by_size == ref.patterns_by_size

    def test_fsm_counts(self, graph):
        labeled = random_labels(graph, 3, seed=2)
        ref = run_dfs(labeled, FrequentSubgraphMining(5)).frequent_patterns()
        app = FrequentSubgraphMining(5)
        make_simulator(labeled, small_config()).run(app)
        assert app.frequent_patterns() == ref

    def test_work_stealing_does_not_change_results(self, graph):
        ref = run_dfs(graph, CliqueFinding(4)).num_cliques
        for stealing in (True, False):
            app = CliqueFinding(4)
            make_simulator(
                graph, small_config(work_stealing=stealing)
            ).run(app)
            assert app.num_cliques == ref

    def test_random_victim_select_matches(self, graph):
        ref = run_dfs(graph, CliqueFinding(4)).num_cliques
        app = CliqueFinding(4)
        make_simulator(
            graph, small_config(steal_victim_select="random")
        ).run(app)
        assert app.num_cliques == ref

    def test_policy_variants_match(self, graph):
        ref = run_dfs(graph, MotifCounting(3)).result()
        for policy in ("locality", "lru", "uniform"):
            sim = make_simulator(
                graph, small_config(low_policy=policy)
            ).run(MotifCounting(3))
            assert sim.mining.patterns_by_size == ref.patterns_by_size


class TestDeterminism:
    def test_same_seed_same_cycles(self, graph):
        a = make_simulator(graph, small_config()).run(CliqueFinding(3))
        b = make_simulator(graph, small_config()).run(CliqueFinding(3))
        assert a.cycles == b.cycles
        assert a.stats.steals == b.stats.steals


class TestTimingBehaviour:
    def test_cycles_positive_and_seconds_consistent(self, graph):
        res = make_simulator(graph, small_config()).run(CliqueFinding(3))
        assert res.cycles > 0
        assert res.seconds == pytest.approx(
            res.cycles / (res.config.clock_mhz * 1e6)
        )

    def test_more_slots_is_faster(self, graph):
        cycles = {}
        for slots in (1, 4, 16):
            res = make_simulator(
                graph, small_config(slots_per_pu=slots)
            ).run(CliqueFinding(4))
            cycles[slots] = res.cycles
        assert cycles[1] > cycles[4] > cycles[16]

    def test_more_pus_is_faster(self, graph):
        one = make_simulator(graph, small_config(num_pus=1)).run(
            CliqueFinding(4)
        )
        eight = make_simulator(graph, small_config(num_pus=8)).run(
            CliqueFinding(4)
        )
        assert one.cycles > eight.cycles

    def test_work_stealing_helps_on_skew(self, graph):
        on = make_simulator(
            graph, small_config(work_stealing=True)
        ).run(CliqueFinding(4))
        off = make_simulator(
            graph, small_config(work_stealing=False)
        ).run(CliqueFinding(4))
        assert off.cycles > on.cycles
        assert on.stats.steals > 0
        assert off.stats.steals == 0

    def test_larger_memory_not_slower(self, graph):
        small = make_simulator(graph, small_config(onchip_entries=64)).run(
            CliqueFinding(4)
        )
        large = make_simulator(
            graph, small_config(onchip_entries=4096)
        ).run(CliqueFinding(4))
        assert large.cycles <= small.cycles
        assert large.stats.vertex_hit_ratio >= small.stats.vertex_hit_ratio

    def test_slower_dram_slower_run(self, graph):
        fast = make_simulator(graph, small_config(dram_latency=20)).run(
            CliqueFinding(4)
        )
        slow = make_simulator(graph, small_config(dram_latency=400)).run(
            CliqueFinding(4)
        )
        assert slow.cycles > fast.cycles


class TestStats:
    def test_access_accounting(self, graph):
        res = make_simulator(graph, small_config()).run(MotifCounting(3))
        s = res.stats
        assert s.vertex_accesses > 0 and s.edge_accesses > 0
        assert 0.0 <= s.vertex_hit_ratio <= 1.0
        assert 0.0 <= s.edge_hit_ratio <= 1.0
        assert s.dram_accesses == s.vertex_misses + s.edge_misses
        assert s.candidates_checked > 0
        assert s.embeddings_accepted > 0
        assert s.roots_dispatched == graph.num_vertices

    def test_pu_lists_sized(self, graph):
        cfg = small_config(num_pus=4)
        res = make_simulator(graph, cfg).run(CliqueFinding(3))
        assert len(res.stats.pu_finish_cycles) == 4
        assert len(res.stats.pu_busy_cycles) == 4
        assert max(res.stats.pu_finish_cycles) == res.cycles

    def test_load_imbalance_at_least_one(self, graph):
        res = make_simulator(graph, small_config()).run(CliqueFinding(3))
        assert res.stats.load_imbalance >= 1.0


class TestValidation:
    def test_ancestor_overflow(self):
        g = clique(12)
        cfg = small_config(ancestor_depth=3)
        with pytest.raises(AncestorBufferOverflowError):
            make_simulator(g, cfg).run(CliqueFinding(8))

    def test_bad_rank_length(self, graph):
        import numpy as np

        with pytest.raises(ValueError):
            make_simulator(graph, small_config(), vertex_rank=np.arange(3))

    def test_rank_oblivious_mode(self, graph):
        sim = make_simulator(graph, small_config(), use_on1_ranks=False)
        assert list(sim.vertex_rank) == list(range(graph.num_vertices))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GramerConfig(num_pus=0)
        with pytest.raises(ValueError):
            GramerConfig(ancestor_depth=1)
        with pytest.raises(ValueError):
            GramerConfig(steal_victim_select="magic")
        with pytest.raises(ValueError):
            GramerConfig(low_policy="plru")
        with pytest.raises(ValueError):
            GramerConfig(clock_mhz=0)

    def test_with_overrides(self):
        cfg = GramerConfig().with_overrides(slots_per_pu=4)
        assert cfg.slots_per_pu == 4
        assert cfg.num_pus == GramerConfig().num_pus

    def test_max_inflight(self):
        assert GramerConfig().max_inflight_embeddings == 128
