"""RStream-model baseline (Wang et al., OSDI'18 — the paper's disk-based rival).

RStream is a single-machine, out-of-core graph mining system with a
BFS/level-synchronous execution model: every iteration materialises the full
intermediate-embedding relation on SSD and streams it back for the next join
(§V-A, §VII).  Its defining costs are therefore (a) the CPU work of the
level-by-level enumeration and (b) the disk traffic of the intermediates —
and its defining failure mode is running *out of disk* when the
combinatorial explosion hits (the 'N/A' cells of Table III).

The model runs the BFS engine through the CPU cache hierarchy while a
frontier observer charges each completed level's embeddings to the disk
model (written once, read back once).  A frontier cap maps the paper's disk
exhaustion to a typed failure instead of an OOM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.csr import CSRGraph
from repro.memory.disk import DiskModel, OutOfDiskError
from repro.mining.apps.base import Application
from repro.mining.engine import FrontierOverflowError, run_bfs

from .cpu import CPUConfig, CPUMemory
from .fractal import BaselineResult

if TYPE_CHECKING:
    from repro.obs.access import AccessTrace

__all__ = [
    "RStreamModel",
    "RSTREAM_STARTUP_OVERHEAD_S",
    "RSTREAM_CYCLES_PER_CANDIDATE",
]

# Lightweight native-runtime startup (no JVM): table/stream initialisation.
RSTREAM_STARTUP_OVERHEAD_S = 0.005

# Per-tuple cost of RStream's relational GAS plan (C++, but every candidate
# is materialised as a join tuple rather than checked in registers).
RSTREAM_CYCLES_PER_CANDIDATE = 250

_BYTES_PER_EMBEDDING_VERTEX = 8  # vertex ID + pattern bookkeeping per column
_BYTES_PER_JOIN_TUPLE = 24  # (embedding id, candidate, payload) join row


class RStreamModel:
    """The BFS + SSD CPU baseline."""

    name = "RStream"

    def __init__(
        self,
        cpu_config: CPUConfig | None = None,
        disk: DiskModel | None = None,
        startup_overhead_s: float = RSTREAM_STARTUP_OVERHEAD_S,
        max_frontier: int = 2_000_000,
        cycles_per_candidate: int = RSTREAM_CYCLES_PER_CANDIDATE,
    ) -> None:
        from dataclasses import replace

        base = cpu_config if cpu_config is not None else CPUConfig()
        self.cpu_config = replace(
            base, cycles_per_candidate=cycles_per_candidate
        )
        self.disk = disk if disk is not None else DiskModel()
        self.startup_overhead_s = startup_overhead_s
        self.max_frontier = max_frontier

    def run(
        self,
        graph: CSRGraph,
        app: Application,
        access_trace: "AccessTrace | None" = None,
    ) -> BaselineResult:
        """Mine ``graph`` level-synchronously; returns results + modeled time.

        On frontier/disk exhaustion returns a failed result carrying the
        paper's 'N/A' marker.  ``access_trace`` attaches the post-L2 miss
        observer plus the embedding-region disk-spill emitter (purely
        observational — the result is identical to an untraced run).
        """
        memory = CPUMemory(graph, self.cpu_config)
        memory.warm()  # timing starts after the graph is loaded (§VI-B)
        disk = self.disk
        emit_spill = None
        if access_trace is not None:
            from repro.obs.hooks import attach_cpu_observer, disk_spill_emitter

            attach_cpu_observer(memory, access_trace)
            emit_spill = disk_spill_emitter(access_trace)

        def observe_frontier(size: int, count: int, candidates: int) -> None:
            # Replay the level's accesses first, so a traced run records
            # its CPU misses before the level's disk spill.
            memory.flush()
            # RStream's relational plan materialises the join intermediates
            # (one tuple per extension candidate) and the surviving
            # embeddings of the level; both stream to SSD and the
            # embeddings stream back as the next iteration's input.
            join_bytes = candidates * _BYTES_PER_JOIN_TUPLE
            level_bytes = count * size * _BYTES_PER_EMBEDDING_VERTEX
            disk.write(join_bytes + level_bytes)
            disk.read(level_bytes)
            disk.free(join_bytes + level_bytes)
            if emit_spill is not None:
                emit_spill(join_bytes + level_bytes, "w")
                emit_spill(level_bytes, "r")

        try:
            run_bfs(
                graph,
                app,
                mem=memory,
                max_frontier=self.max_frontier,
                frontier_observer=observe_frontier,
            )
        except (FrontierOverflowError, OutOfDiskError):
            return BaselineResult(
                system=self.name,
                mining=app.result(),
                seconds=float("inf"),
                breakdown=memory.breakdown,
                failed="N/A",
            )
        memory.charge_candidate(app.candidates_checked)
        seconds = (
            memory.seconds(extra_overhead_s=self.startup_overhead_s)
            + disk.seconds
        )
        return BaselineResult(
            system=self.name,
            mining=app.result(),
            seconds=seconds,
            breakdown=memory.breakdown,
        )
