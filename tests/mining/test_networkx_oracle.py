"""Mining counts of every tiny proxy against networkx, an independent oracle.

networkx shares no code with the extend-check engine: cliques come from
``nx.enumerate_all_cliques`` and the 3-motif census from degrees and
triangles (open wedges = sum of C(deg, 2) minus three per triangle).  Both
functional passes (``run_dfs``; ``run_bfs``, the RStream model) must match
on every dataset; on citeseer and p2p so must every backend and engine.
"""

from collections import Counter
from functools import lru_cache

import networkx as nx
import pytest

from repro.accel.sim import ENGINES
from repro.experiments import datasets
from repro.experiments.datasets import DATASET_ORDER
from repro.experiments.harness import cell_jobspec
from repro.mining.apps import make_app
from repro.mining.engine import run_bfs, run_dfs
from repro.runtime.backends import get_backend

CLIQUE_SIZES = (3, 4, 5)
BACKEND_GRAPHS = ("citeseer", "p2p")


@lru_cache(maxsize=None)
def oracle(graph_name: str) -> tuple[dict[int, int], dict[str, int]]:
    """(k-clique counts for k = 3..5, 3-motif census) of a tiny proxy."""
    graph = datasets.load(graph_name, "tiny")
    g = nx.Graph(list(graph.edges()))
    g.add_nodes_from(range(graph.num_vertices))
    cliques: Counter[int] = Counter()
    for members in nx.enumerate_all_cliques(g):
        if len(members) > max(CLIQUE_SIZES):
            break
        cliques[len(members)] += 1
    triangles = cliques[3]
    wedges = sum(d * (d - 1) // 2 for _, d in g.degree()) - 3 * triangles
    return (
        {k: cliques[k] for k in CLIQUE_SIZES},
        {"triangle": triangles, "wedge": wedges},
    )


def clique_counts(embeddings: dict[int, int]) -> dict[int, int]:
    return {k: embeddings.get(k, 0) for k in CLIQUE_SIZES}


def test_oracle_spot_check():
    """The mico counts quoted in ROADMAP item 5's spot check."""
    cliques, _ = oracle("mico")
    assert cliques == {3: 770, 4: 77, 5: 2}


@pytest.mark.parametrize("graph_name", DATASET_ORDER)
@pytest.mark.parametrize("engine", [run_dfs, run_bfs], ids=["dfs", "bfs"])
def test_functional_pass_matches_networkx(graph_name, engine):
    graph = datasets.load(graph_name, "tiny")
    cliques, census = oracle(graph_name)

    found = engine(graph, make_app("5-CF")).result()
    assert clique_counts(found.embeddings_by_size) == cliques

    motifs = engine(graph, make_app("3-MC"))
    assert motifs.named_census(3) == {k: v for k, v in census.items() if v}
    assert motifs.result().embeddings_by_size[3] == sum(census.values())


BACKEND_CASES = [("gramer", {"engine": engine}) for engine in ENGINES] + [
    ("fractal", None),
    ("rstream", None),
]


@pytest.mark.parametrize("graph_name", BACKEND_GRAPHS)
@pytest.mark.parametrize(
    "backend,params", BACKEND_CASES,
    ids=[f"{b}-{p['engine']}" if p else b for b, p in BACKEND_CASES],
)
def test_backends_match_networkx(graph_name, backend, params):
    cliques, census = oracle(graph_name)
    for app_name, expected in (
        ("5-CF", cliques),
        ("3-MC", {3: sum(census.values())}),
    ):
        spec = cell_jobspec(backend, app_name, graph_name, "tiny", params=params)
        result = get_backend(backend).run(spec)
        assert result.ok, result.error
        counts = clique_counts(result.detail["embeddings"])
        assert {k: counts[k] for k in expected} == expected, app_name
