"""The per-access CPU cache model: the oracle the shipped replay answers to.

:class:`OracleCPUMemory` charges every engine access the moment it is
made: one ``_charge`` per access, walking an L1/L2/L3 stack of
:class:`~repro.memory.cache.SetAssociativeCache` levels with the LRU
policy.  It is the semantic definition of the Fractal/RStream memory
model.  The shipped :class:`~repro.baselines.cpu.CPUMemory` records the
access stream and replays it in bulk; it must reproduce this class
byte-for-byte — ``CPUTimeBreakdown``, per-level ``CacheStats`` and
per-set evictions, and the post-L2 observer call sequence.

Only the CPU differential suite and ``benchmarks/bench_baselines.py``
import this module.  :func:`oracle_cpu_model` swaps it into the baseline
models for the duration of a ``with`` block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.baselines import fractal, rstream
from repro.baselines.cpu import CPUConfig, CPUTimeBreakdown
from repro.graph.csr import CSRGraph
from repro.memory.cache import SetAssociativeCache
from repro.memory.policies import LRUPolicy

__all__ = ["OracleCPUMemory", "oracle_cpu_model"]


class OracleCPUMemory:
    """MemoryModel charging each access to an L1/L2/L3 stack as it is made.

    Same interface and results as :class:`repro.baselines.cpu.CPUMemory`;
    ``flush`` is a no-op because nothing is ever pending.
    """

    def __init__(self, graph: CSRGraph, config: CPUConfig | None = None) -> None:
        self.config = config if config is not None else CPUConfig()
        cfg = self.config
        self.depth = 0
        self.breakdown = CPUTimeBreakdown()
        self._edge_region_base = graph.num_vertices * cfg.entry_bytes
        self._num_edge_slots = len(graph.neighbors)
        self.observer = None

        def level(total_bytes: int) -> SetAssociativeCache:
            lines = max(cfg.ways, total_bytes // cfg.line_bytes)
            return SetAssociativeCache(
                num_sets=max(1, lines // cfg.ways),
                ways=cfg.ways,
                line_size=cfg.line_bytes,
                policy=LRUPolicy(),
            )

        self.l1 = level(cfg.l1_bytes)
        self.l2 = level(cfg.l2_bytes)
        self.l3 = level(cfg.l3_bytes)

    def _charge(self, byte_address: int, is_vertex: bool) -> None:
        cfg = self.config
        bd = self.breakdown
        bd.accesses += 1
        bd.compute_cycles += cfg.cycles_per_access + cfg.l1_latency
        if self.l1.access(byte_address):
            return
        if self.l2.access(byte_address):
            stall = int(cfg.l2_latency * cfg.l2_stall_fraction)
            bd.compute_cycles += cfg.l2_latency - stall
            if stall == 0:
                return
        else:
            stall = cfg.l2_latency + cfg.l3_latency
            l3_hit = self.l3.access(byte_address)
            if not l3_hit:
                stall += cfg.dram_latency
            if self.observer is not None:
                self.observer(byte_address, is_vertex, not l3_hit)
        if is_vertex:
            bd.vertex_stall_cycles += stall
        else:
            bd.edge_stall_cycles += stall

    def warm(self) -> None:
        """Pre-load the graph sequentially and zero the counters."""
        line = self.config.line_bytes
        total = self._edge_region_base + self._num_edge_slots * self.config.entry_bytes
        for address in range(0, total, line):
            self.l1.access(address)
            self.l2.access(address)
            self.l3.access(address)
        self.breakdown = CPUTimeBreakdown()
        for cache in (self.l1, self.l2, self.l3):
            cache.stats.reset()

    def flush(self) -> None:
        """Nothing is ever pending: every access was charged when made."""

    def vertex(self, vid: int) -> None:
        self._charge(vid * self.config.entry_bytes, is_vertex=True)

    def edge(self, index: int, src: int) -> None:
        self._charge(
            self._edge_region_base + index * self.config.entry_bytes,
            is_vertex=False,
        )

    def charge_candidate(self, count: int = 1) -> None:
        """Framework overhead for processing ``count`` candidates."""
        self.breakdown.compute_cycles += (
            count * self.config.cycles_per_candidate
        )

    def seconds(self, extra_overhead_s: float = 0.0) -> float:
        """Wall-clock estimate: parallel replay plus fixed overheads."""
        cfg = self.config
        serial = self.breakdown.total_cycles / (cfg.freq_ghz * 1e9)
        return serial / cfg.effective_parallelism + extra_overhead_s


@contextmanager
def oracle_cpu_model() -> Iterator[None]:
    """Run the Fractal and RStream models on :class:`OracleCPUMemory`."""
    with mock.patch.object(fractal, "CPUMemory", OracleCPUMemory), \
            mock.patch.object(rstream, "CPUMemory", OracleCPUMemory):
        yield
