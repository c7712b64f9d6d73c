"""Workload inputs: the registered tiny proxies, or seeded regenerations.

Seed 0 uses the registered tiny proxies of ``repro.experiments.datasets``.
Any other seed regenerates each proxy with its registry recipe (same
generator, n, m, p and ``max_degree``) under a generator seed derived from
the benchmark seed, writes it as an edge list and submits it through
``JobSpec.graph_path``.  Edge lists carry no labels, so a seeded FSM cell
runs ``FSM-<threshold>`` on the unlabeled graph, with the threshold the
registry picks for the dataset of the same name.

:func:`setup` is what ``setup_s`` measures: it builds every input of a
workload in the graph store of the active cache root — graphs, ON1 ranks
and FSM thresholds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments import datasets
from repro.experiments.harness import cell_jobspec
from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.graph.io import save_edge_list
from repro.graph.store import GraphStore, default_graph_store
from repro.runtime import JobSpec, cached_vertex_rank, make_jobspec
from repro.runtime.cache import default_cache_root

SCALE = "tiny"

#: The ``tiny`` builders of ``repro.experiments.datasets.DATASETS``:
#: (generator, arguments, registry generator seed).  :func:`recipe_mismatches`
#: rebuilds each with its registry seed and compares digests, so a change
#: to the registry cannot leave this table silently stale.
TINY_RECIPES = {
    "citeseer": (erdos_renyi, {"num_vertices": 300, "num_edges": 450}, 111),
    "p2p": (powerlaw_cluster, {"num_vertices": 400, "edges_per_vertex": 2,
                               "triad_probability": 0.05, "max_degree": 18}, 112),
    "astro": (powerlaw_cluster, {"num_vertices": 300, "edges_per_vertex": 3,
                                 "triad_probability": 0.5, "max_degree": 25}, 113),
    "mico": (powerlaw_cluster, {"num_vertices": 350, "edges_per_vertex": 4,
                                "triad_probability": 0.6, "max_degree": 30}, 114),
    "patents": (powerlaw_cluster, {"num_vertices": 500, "edges_per_vertex": 3,
                                   "triad_probability": 0.2, "max_degree": 20}, 115),
    "yt": (powerlaw_cluster, {"num_vertices": 600, "edges_per_vertex": 3,
                              "triad_probability": 0.1, "max_degree": 20}, 116),
    "lj": (powerlaw_cluster, {"num_vertices": 700, "edges_per_vertex": 3,
                              "triad_probability": 0.3, "max_degree": 22}, 117),
}


def generator_seed(bench_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"perfbench:{bench_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def recipe_mismatches() -> list[str]:
    """Datasets whose recipe here no longer rebuilds the registry proxy."""
    wrong = []
    for name, (generate, kwargs, registry_seed) in TINY_RECIPES.items():
        rebuilt = generate(**kwargs, seed=registry_seed).content_digest()
        if rebuilt != datasets.load(name, SCALE).content_digest():
            wrong.append(name)
    return wrong


@dataclass
class Inputs:
    """Where each dataset of one benchmark seed lives, and its FSM threshold."""

    seed: int
    edge_paths: dict[str, str] = field(default_factory=dict)
    thresholds: dict[str, int] = field(default_factory=dict)

    def spec(self, backend: str, app: str, name: str) -> JobSpec:
        if self.seed == 0:
            return cell_jobspec(backend, app, name, SCALE)
        if app == "FSM":
            app = f"FSM-{self.thresholds[name]}"
        return make_jobspec(backend, app, graph_path=self.edge_paths[name], scale=SCALE)


def setup(names, fsm_names, seed: int, edge_dir: Path, rec) -> Inputs:
    """Build ``names`` (and FSM inputs for ``fsm_names``) in the active store.

    ``edge_dir`` is relative to the working directory, so the edge-list
    paths inside job specs (and therefore result fingerprints) do not
    depend on where the checkout lives.
    """
    inputs = Inputs(seed)
    graphs = []
    for name in names:
        if seed == 0:
            with rec.span("graph.build"):
                digest = datasets.load(name, SCALE).content_digest()
        else:
            generate, kwargs, _ = TINY_RECIPES[name]
            path = edge_dir / f"{name}-seed{seed}.txt"
            with rec.span("graph.build"):
                edge_dir.mkdir(parents=True, exist_ok=True)
                save_edge_list(generate(**kwargs, seed=generator_seed(seed, name)), path)
            with rec.span("graph.import"):
                digest = default_graph_store().import_edge_list(path)
            inputs.edge_paths[name] = str(path)
        graphs.append(digest)
    if seed == 0:
        # FSM cells of the registry proxies run on labeled variants.
        for name in fsm_names:
            with rec.span("graph.build"):
                graphs.append(datasets.load_labeled(name, SCALE).content_digest())
    store = GraphStore(default_cache_root())
    for digest in graphs:
        with rec.span("graph.open"):
            graph = store.open(digest)
        with rec.span("locality.rank"):
            cached_vertex_rank(graph)
    for name in fsm_names:
        with rec.span("setup.fsm_threshold"):
            inputs.thresholds[name] = datasets.fsm_threshold(name, SCALE)
    return inputs
