"""CPU cache-hierarchy timing model.

Both software baselines (Fractal, RStream) ran on a 14-core Intel E5-2680 v4
(32 KB L1 + 256 KB L2 per core, 35 MB shared L3, 4-channel DDR4 — §II-B).
This module models that memory system as three levels of set-associative
caches over the engine's access stream and produces the cycle/stall
accounting behind Fig. 3 and the baseline runtimes of Table III.

The model is trace-driven and single-stream: the engine's access sequence
flows through one L1/L2/L3 stack, and multicore throughput is applied as a
parallel-efficiency divisor on the final runtime (mining parallelises over
initial embeddings nearly perfectly, the paper's frameworks use all 14
cores).  Per-operation instruction costs model the software framework
overhead (object churn, canonicality hashing, task management) that §VI-B
credits for GRAMER's large wins on small graphs; they are calibration
constants, documented in DESIGN.md.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.memory.cache import SetAssociativeCache

__all__ = ["CPUConfig", "CPUMemory", "CPUTimeBreakdown"]


@dataclass(frozen=True)
class CPUConfig:
    """Xeon E5-2680 v4 model parameters."""

    l1_bytes: int = 32 * 1024
    l2_bytes: int = 256 * 1024
    l3_bytes: int = 35 * 1024 * 1024
    line_bytes: int = 64
    ways: int = 8
    entry_bytes: int = 8  # one vertex offset record / one edge slot

    l1_latency: int = 4  # cycles, incremental per level
    l2_latency: int = 12
    l3_latency: int = 42
    dram_latency: int = 180
    # Fraction of an L2 hit's latency attributed to stall; the rest is
    # hidden by the out-of-order window.  VTune's memory-bound stalls (the
    # Fig. 3 methodology) are dominated by LLC/DRAM time but L2-bound time
    # is not fully overlapped either, so half counts by default.
    l2_stall_fraction: float = 0.5

    freq_ghz: float = 2.4
    cores: int = 14
    parallel_efficiency: float = 0.85

    # Software framework overhead (instructions retired per engine event).
    cycles_per_access: int = 3  # address arithmetic, bounds, loads
    cycles_per_candidate: int = 60  # candidate object + canonicality bookkeeping

    @property
    def effective_parallelism(self) -> float:
        """Throughput multiplier from multicore execution."""
        return self.cores * self.parallel_efficiency


@dataclass
class CPUTimeBreakdown:
    """Cycle accounting of one trace replay (single-stream cycles)."""

    compute_cycles: int = 0
    vertex_stall_cycles: int = 0
    edge_stall_cycles: int = 0
    accesses: int = 0

    @property
    def total_cycles(self) -> int:
        """All cycles of the single-stream replay."""
        return (
            self.compute_cycles
            + self.vertex_stall_cycles
            + self.edge_stall_cycles
        )

    def stall_fractions(self) -> dict[str, float]:
        """Fig. 3's breakdown: vertex / edge stall and 'others' shares."""
        total = self.total_cycles
        if total == 0:
            return {"vertex": 0.0, "edge": 0.0, "others": 1.0}
        vertex = self.vertex_stall_cycles / total
        edge = self.edge_stall_cycles / total
        return {"vertex": vertex, "edge": edge, "others": 1.0 - vertex - edge}


class _LRULevel:
    """One level of the replay: per-set tags in recency order.

    An exact LRU set-associative cache over line tags, with the same
    counters as :class:`~repro.memory.cache.SetAssociativeCache`.  Each
    set is a dict used as an ordered set: keys run from least to most
    recently used, so a hit re-inserts its key and a fill into a full set
    evicts the first key.
    """

    __slots__ = ("num_sets", "ways", "sets", "set_evictions", "hits",
                 "misses", "evictions")

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets: list[dict[int, None]] = [{} for _ in range(num_sets)]
        self.set_evictions = [0] * num_sets
        self.hits = self.misses = self.evictions = 0

    def replay(self, lines: list[int]) -> list[int]:
        """Access ``lines`` in order; returns the positions that missed."""
        sets = self.sets
        num_sets = self.num_sets
        ways = self.ways
        set_evictions = self.set_evictions
        missed: list[int] = []
        evictions = 0
        for position, line in enumerate(lines):
            index = line % num_sets
            tags = sets[index]
            if line in tags:
                del tags[line]
                tags[line] = None
                continue
            missed.append(position)
            tags[line] = None
            if len(tags) > ways:
                del tags[next(iter(tags))]
                set_evictions[index] += 1
                evictions += 1
        self.misses += len(missed)
        self.hits += len(lines) - len(missed)
        self.evictions += evictions
        return missed

    def reset_counters(self) -> None:
        """Zero hits, misses and evictions (per-set evictions are kept,
        as :meth:`~repro.memory.cache.CacheStats.reset` keeps them)."""
        self.hits = self.misses = self.evictions = 0

    def publish(self, cache: SetAssociativeCache) -> None:
        """Write this level's counters into ``cache``."""
        cache.adopt_counters(self.hits, self.misses, self.set_evictions)
        # adopt_counters sums the per-set counts, which include warm-up.
        cache.stats.evictions = self.evictions


def _misses(
    level: _LRULevel, lines: np.ndarray, entries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Replay ``lines`` through ``level``; the accesses that missed."""
    missed = np.array(level.replay(lines.tolist()), dtype=np.intp)
    return lines[missed], entries[missed]


class CPUMemory:
    """MemoryModel charging the engine's accesses to an L1/L2/L3 stack.

    Vertex records and edge slots live in disjoint address regions (CSR
    offsets array followed by the neighbors array), so spatial locality
    within adjacency slices is modeled faithfully through the 64-byte lines.
    Stall attribution: the L1 latency is considered pipelined/overlappable
    (part of compute); anything beyond L1 counts as stall cycles for the
    access's dimension — mirroring how VTune attributes memory-bound stalls
    in the paper's Fig. 3 methodology.

    The model has no timing feedback into the engine, so it is a pure
    function of the access stream and runs as record-then-replay: each
    access appends its *entry index* (``vid`` for a vertex record,
    ``num_vertices + index`` for an edge slot) to a flat buffer, and
    :meth:`flush` replays the buffer through the hierarchy in bulk.  The
    buffer is flushed when it reaches :attr:`CHUNK_ENTRIES`, whenever
    :attr:`breakdown` is read, and by RStream at every level boundary.
    The replay is exact: the breakdown, the counters of ``l1``/``l2``/``l3``
    and the ``observer`` call sequence equal a per-access walk of
    :class:`~repro.memory.cache.SetAssociativeCache` levels (the oracle in
    ``tests/differential/cpu_oracle.py``).
    """

    #: Buffered accesses per replay.  Large enough to amortise the numpy
    #: work, small enough that the buffer adds no visible RSS.
    CHUNK_ENTRIES = 1 << 12

    def __init__(self, graph: CSRGraph, config: CPUConfig | None = None) -> None:
        self.config = config if config is not None else CPUConfig()
        cfg = self.config
        self.depth = 0
        self._breakdown = CPUTimeBreakdown()
        self._num_vertices = graph.num_vertices
        self._num_entries = graph.num_vertices + len(graph.neighbors)
        # Optional post-L2 miss observer (repro.obs.hooks attaches one for
        # access-traced runs): called with (byte_address, is_vertex,
        # went_to_dram) in access order.  Purely observational.
        self.observer = None

        def level(total_bytes: int) -> SetAssociativeCache:
            lines = max(cfg.ways, total_bytes // cfg.line_bytes)
            return SetAssociativeCache(
                num_sets=max(1, lines // cfg.ways),
                ways=cfg.ways,
                line_size=cfg.line_bytes,
            )

        self.l1 = level(cfg.l1_bytes)
        self.l2 = level(cfg.l2_bytes)
        self.l3 = level(cfg.l3_bytes)
        self._levels = tuple(
            _LRULevel(cache.num_sets, cache.ways)
            for cache in (self.l1, self.l2, self.l3)
        )

        stream = self._stream = array("q")
        # A vertex access records its entry index directly: no Python
        # frame per call.  The next edge access checks the chunk bound.
        self.vertex = append = stream.append
        base = graph.num_vertices
        limit = self.CHUNK_ENTRIES
        owner = weakref.ref(self)  # no reference cycle through the closure

        def edge(index: int, src: int) -> None:
            append(base + index)
            if len(stream) >= limit:
                owner().flush()

        self.edge = edge

    @property
    def breakdown(self) -> CPUTimeBreakdown:
        """Cycle accounting of every access made so far."""
        self.flush()
        return self._breakdown

    def flush(self) -> None:
        """Replay the buffered accesses through the hierarchy."""
        stream = self._stream
        if not stream:
            return
        entries = np.array(stream, dtype=np.int64)
        del stream[:]
        self._replay(entries)

    def _replay(self, entries: np.ndarray) -> None:
        cfg = self.config
        l1, l2, l3 = self._levels
        accesses = len(entries)
        lines = entries * cfg.entry_bytes // cfg.line_bytes
        # An access to the line of the access just before it is an L1 hit
        # that leaves every LRU order as it was: count it and drop it.
        fresh = np.empty(accesses, dtype=bool)
        fresh[0] = True
        np.not_equal(lines[1:], lines[:-1], out=fresh[1:])
        lines = lines[fresh]
        entries = entries[fresh]
        l1.hits += accesses - len(lines)
        # Each level sees exactly the misses of the level above, in order.
        lines, entries = _misses(l1, lines, entries)
        l2_vertex = int(np.count_nonzero(entries < self._num_vertices))
        l2_edge = len(entries) - l2_vertex
        lines, entries = _misses(l2, lines, entries)
        is_vertex = entries < self._num_vertices
        to_dram = np.zeros(len(entries), dtype=bool)
        to_dram[np.array(l3.replay(lines.tolist()), dtype=np.intp)] = True
        miss_vertex = int(np.count_nonzero(is_vertex))
        miss_edge = len(entries) - miss_vertex
        dram_vertex = int(np.count_nonzero(to_dram & is_vertex))
        dram_edge = int(np.count_nonzero(to_dram)) - dram_vertex
        hit_vertex = l2_vertex - miss_vertex
        hit_edge = l2_edge - miss_edge

        l2_stall = int(cfg.l2_latency * cfg.l2_stall_fraction)
        miss_stall = cfg.l2_latency + cfg.l3_latency
        bd = self._breakdown
        bd.accesses += accesses
        bd.compute_cycles += (
            accesses * (cfg.cycles_per_access + cfg.l1_latency)
            + (hit_vertex + hit_edge) * (cfg.l2_latency - l2_stall)
        )
        bd.vertex_stall_cycles += (
            hit_vertex * l2_stall
            + miss_vertex * miss_stall
            + dram_vertex * cfg.dram_latency
        )
        bd.edge_stall_cycles += (
            hit_edge * l2_stall
            + miss_edge * miss_stall
            + dram_edge * cfg.dram_latency
        )
        for level, cache in zip(self._levels, (self.l1, self.l2, self.l3)):
            level.publish(cache)
        observer = self.observer
        if observer is not None:
            addresses = (entries * cfg.entry_bytes).tolist()
            for address, vertex, dram in zip(
                addresses, is_vertex.tolist(), to_dram.tolist()
            ):
                observer(address, vertex, dram)

    def warm(self) -> None:
        """Pre-load the graph sequentially and zero the counters.

        The paper starts timing "once the input graph is loaded to the
        memory of the server", so steady-state cache contents — not cold
        misses — drive its measurements.  At proxy scale a cold pass is a
        visible fraction of the whole (small) run, so experiments warm the
        hierarchy with one sequential sweep of both regions first: every
        level sees every line of the graph once, in address order.
        """
        self.flush()
        cfg = self.config
        total_bytes = self._num_entries * cfg.entry_bytes
        lines = list(range(-(-total_bytes // cfg.line_bytes)))
        for level, cache in zip(self._levels, (self.l1, self.l2, self.l3)):
            level.replay(lines)
            level.reset_counters()
            level.publish(cache)
        self._breakdown = CPUTimeBreakdown()

    def charge_candidate(self, count: int = 1) -> None:
        """Framework overhead for processing ``count`` candidates."""
        self._breakdown.compute_cycles += (
            count * self.config.cycles_per_candidate
        )

    def seconds(self, extra_overhead_s: float = 0.0) -> float:
        """Wall-clock estimate: parallel replay plus fixed overheads."""
        cfg = self.config
        serial = self.breakdown.total_cycles / (cfg.freq_ghz * 1e9)
        return serial / cfg.effective_parallelism + extra_overhead_s
