"""The GRAMER cycle-level simulator: engine selection and shared types.

The model is the architecture of Fig. 6: an Arbitrator round-robins
initial embeddings over ``num_pus`` PUs; each PU interleaves up to
``slots_per_pu`` DFS extension paths (slot IDs) through its pipeline;
every memory request flows through an 8-partition locality-aware memory
hierarchy and, on miss, a channelized DRAM model.

Two engines implement it, both built through :func:`make_simulator`:

* ``"fast"`` (:mod:`repro.accel.fastsim`, the default) — the exact
  discrete-event model.  It is the only engine that accepts
  observability hooks, so every traced run uses it.
* ``"turbo"`` (:mod:`repro.accel.turbosim`) — exact mining, decoupled
  statistical timing inside declared tolerance bands (docs/turbo.md).

This module holds what both share: the factory, the result type, the
ancestor-buffer overflow error and ON1 rank resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.reorder import rank_permutation
from repro.locality.occurrence import occurrence_numbers
from repro.mining.apps.base import MiningResult

from .config import GramerConfig
from .stats import SimStats

if TYPE_CHECKING:
    from repro.obs.access import AccessTrace
    from repro.obs.hooks import SimInstrument

__all__ = [
    "SimResult",
    "AncestorBufferOverflowError",
    "ENGINES",
    "DEFAULT_ENGINE",
    "make_simulator",
    "resolve_vertex_rank",
]

_STEAL_RETRY_CYCLES = 32

#: Engine choices accepted everywhere an ``engine=`` knob exists.
#: ``"fast"`` (:mod:`repro.accel.fastsim`) is the exact model and the
#: default.  ``"turbo"`` (:mod:`repro.accel.turbosim`) keeps the mining
#: pass exact but replays timing through a decoupled batched model —
#: timing fields are within declared tolerance bands of the exact model,
#: not byte-equal (docs/turbo.md).
ENGINES = ("fast", "turbo")
DEFAULT_ENGINE = "fast"


def resolve_vertex_rank(
    graph: CSRGraph,
    vertex_rank: np.ndarray | None,
    use_on1_ranks: bool,
) -> np.ndarray:
    """Resolve the ON1 rank map exactly as the simulators expect it.

    Shared by both engines so rank validation/derivation cannot drift.
    """
    if vertex_rank is not None:
        resolved = np.asarray(vertex_rank, dtype=np.int64)
        if len(resolved) != graph.num_vertices:
            raise ValueError("vertex_rank must have one entry per vertex")
        return resolved
    if use_on1_ranks:
        return rank_permutation(occurrence_numbers(graph, hops=1))
    return np.arange(graph.num_vertices, dtype=np.int64)


def make_simulator(
    graph: CSRGraph,
    config: GramerConfig | None = None,
    *,
    engine: str = DEFAULT_ENGINE,
    vertex_rank: np.ndarray | None = None,
    use_on1_ranks: bool = True,
    instrument: "SimInstrument | None" = None,
    access_trace: "AccessTrace | None" = None,
):
    """Construct a GRAMER simulator with engine selection.

    ``engine="fast"`` (the default) returns the exact engine.
    ``engine="turbo"`` returns the decoupled-timing engine: mining counts
    and exception behaviour stay exact while timing fields are only
    tolerance-banded (``tests/differential/tolerance.py``).  Passing an
    ``instrument`` or an ``access_trace`` always selects the fast engine,
    whatever ``engine`` names: turbo has no per-event state to observe.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if engine == "turbo" and instrument is None and access_trace is None:
        from .turbosim import TurboGramerSimulator

        return TurboGramerSimulator(
            graph,
            config,
            vertex_rank=vertex_rank,
            use_on1_ranks=use_on1_ranks,
        )
    from .fastsim import FastGramerSimulator

    return FastGramerSimulator(
        graph,
        config,
        vertex_rank=vertex_rank,
        use_on1_ranks=use_on1_ranks,
        instrument=instrument,
        access_trace=access_trace,
    )


class AncestorBufferOverflowError(RuntimeError):
    """DFS depth exceeded the PU's ancestor-buffer capacity (16 entries)."""


@dataclass(frozen=True)
class SimResult:
    """Output of one accelerator run."""

    stats: SimStats
    mining: MiningResult
    config: GramerConfig

    @property
    def cycles(self) -> int:
        """Total execution cycles."""
        return self.stats.cycles

    @property
    def seconds(self) -> float:
        """Wall-clock time at the configured clock."""
        return self.stats.seconds(self.config.clock_mhz)
