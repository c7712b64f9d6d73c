"""The event-by-event GRAMER model: the oracle the shipped engines answer to.

:class:`GramerSimulator` is the semantic definition of the cycle-level
model, written for clarity rather than speed.  The shipped exact engine
(:mod:`repro.accel.fastsim`) must reproduce it byte-for-byte — stats,
mining results, exception types, and every observability event — and the
turbo engine (:mod:`repro.accel.turbosim`) must land inside declared
tolerance bands of it.  Only the differential suites, the golden fixtures
and the two engine benchmarks import this module.

Model structure
---------------
* **Functional phase.**  When a slot needs work, one extension step (one
  candidate proposal + extend-check, or one traceback) runs *functionally*
  through the shared engine (:func:`~repro.mining.engine.advance_frame` /
  :func:`~repro.mining.engine.check_candidate`) with a recording memory,
  producing the step's exact operation list (memory requests, each carrying
  the pipeline compute cycles preceding it).
* **Timing phase.**  The recorded operations replay one event at a time
  through a global time-ordered event loop.  Because events are processed
  in nondecreasing timestamp order, contention on the PU issue port
  (1 embedding step/cycle), the memory partitions (1 request/cycle each)
  and the DRAM channels resolves exactly; dependent accesses within a
  candidate check serialize on the slot's clock, while the PU's other
  slots proceed — slot-level pipelining hides memory latency exactly as
  §V-B intends.

Cache state mutates at request *service* time (global time order), so
hit/miss outcomes see the true interleaving.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.accel.config import GramerConfig
from repro.accel.frontend import dispatch_roots
from repro.accel.scheduler import StealingBuffer, steal_from_stack
from repro.accel.sim import (
    _STEAL_RETRY_CYCLES,
    AncestorBufferOverflowError,
    SimResult,
    make_simulator,
    resolve_vertex_rank,
)
from repro.accel.stats import SimStats
from repro.graph.csr import CSRGraph
from repro.memory.dram import DRAMModel
from repro.memory.hierarchy import AccessLevel, build_hierarchy
from repro.mining.apps.base import Application
from repro.mining.engine import Frame, advance_frame, check_candidate

if TYPE_CHECKING:
    from repro.obs.access import AccessTrace
    from repro.obs.hooks import SimInstrument

__all__ = [
    "REFERENCE",
    "GramerSimulator",
    "ProcessingUnit",
    "SlotContext",
    "simulator",
]

#: The label the differential suites, goldens and benchmarks give the
#: oracle next to the shipped engine names (``"fast"``, ``"turbo"``).
REFERENCE = "reference"


def simulator(graph, config=None, *, engine, **kwargs):
    """``make_simulator`` plus ``engine="reference"`` for the oracle."""
    if engine == REFERENCE:
        return GramerSimulator(graph, config, **kwargs)
    return make_simulator(graph, config, engine=engine, **kwargs)


# Operation kinds.  Each recorded op is (kind, address, src, pre_cycles):
# pre_cycles of pipeline compute precede the request; _OP_END carries only
# the step's trailing compute.
_OP_VERTEX = 0
_OP_EDGE = 1
_OP_END = 2


class SlotContext:
    """One pipeline slot: an ancestor-buffer stack plus its local clock.

    ``pending`` holds the recorded-but-not-yet-timed operations of the
    step in flight.  The fast engine keeps the same state in flat
    per-slot arrays.
    """

    __slots__ = (
        "slot_id",
        "stack",
        "time",
        "busy_cycles",
        "roots_started",
        "pending",
    )

    def __init__(self, slot_id: int) -> None:
        self.slot_id = slot_id
        self.stack: list[Frame] = []
        self.time = 0
        self.busy_cycles = 0
        self.roots_started = 0
        self.pending: deque = deque()

    @property
    def idle(self) -> bool:
        """Whether the slot has no extension path."""
        return not self.stack

    @property
    def depth(self) -> int:
        """Current ancestor-buffer occupancy."""
        return len(self.stack)


class ProcessingUnit:
    """One GRAMER PU: slots, stealing buffer, issue port (paper §III, §V).

    A PU owns a slot buffer (16 slot IDs), one ancestor buffer per slot, a
    stealing buffer, and a single-issue scheduler port ("the Scheduler ...
    schedules one valid embedding per cycle"), modelled as a ``next_free``
    resource timestamp.
    """

    def __init__(self, index: int, config: GramerConfig) -> None:
        self.index = index
        self.config = config
        self.slots = [SlotContext(i) for i in range(config.slots_per_pu)]
        self.stealing_buffer = StealingBuffer(config.slots_per_pu)
        self.next_free = 0  # scheduler issue port availability (cycles)
        self.busy_slots = 0
        # Per-PU LFSR seed for the random victim selector of [8].
        self._lfsr = (index * 0x9E3779B9 + 0x1234567) & 0xFFFFFFFF or 1

    def _lfsr_next(self) -> int:
        x = self._lfsr
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._lfsr = x
        return x

    def try_steal(self, thief_slot: SlotContext) -> Frame | None:
        """Attempt to steal work for ``thief_slot`` from a busy sibling.

        With ``steal_victim_select='stealing_buffer'`` the PU pops recorded
        busy slot IDs (skipping stale ones) until a splittable stack is
        found; with ``'random'`` a single LFSR-chosen slot is probed, which
        frequently lands on an idle slot — exactly the weakness §V-C cites.
        """
        if self.config.steal_victim_select == "random":
            victim = self.slots[self._lfsr_next() % len(self.slots)]
            if victim is thief_slot or victim.idle:
                return None
            return steal_from_stack(victim.stack)

        for _ in range(len(self.stealing_buffer) or 0):
            slot_id = self.stealing_buffer.pop()
            if slot_id is None:
                return None
            victim = self.slots[slot_id]
            if victim is thief_slot or victim.idle:
                continue
            stolen = steal_from_stack(victim.stack)
            if stolen is not None:
                # The victim is still busy with its remaining half.
                self.stealing_buffer.push(slot_id)
                return stolen
        return None


class _RecordingMemory:
    """MemoryModel that records requests with their preceding compute."""

    __slots__ = ("ops", "depth", "pre_cycles")

    def __init__(self) -> None:
        self.ops: list[tuple[int, int, int, int]] = []
        self.depth = 0
        self.pre_cycles = 0

    def vertex(self, vid: int) -> None:
        self.ops.append((_OP_VERTEX, vid, 0, self.pre_cycles))
        self.pre_cycles = 0

    def edge(self, index: int, src: int) -> None:
        self.ops.append((_OP_EDGE, index, src, self.pre_cycles))
        self.pre_cycles = 0

    def compute(self, cycles: int) -> None:
        """Accumulate pipeline work to attach to the next request."""
        self.pre_cycles += cycles

    def finish(self) -> list[tuple[int, int, int, int]]:
        """Close the step, flushing trailing compute as an END op."""
        if self.pre_cycles or not self.ops:
            self.ops.append((_OP_END, 0, 0, self.pre_cycles))
            self.pre_cycles = 0
        return self.ops


class GramerSimulator:
    """Simulate GRAMER running one mining application on one graph.

    ``vertex_rank`` maps vertex ID to its ON1 rank.  By default ranks are
    computed from the 1-hop occurrence numbers (§IV-B); the paper physically
    reorders the graph so ID == rank, which is behaviourally identical to
    carrying the rank map, so the simulator keeps original IDs plus the map.
    Pass ``use_on1_ranks=False`` for the rank-oblivious ablation.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: GramerConfig | None = None,
        vertex_rank: np.ndarray | None = None,
        use_on1_ranks: bool = True,
        instrument: "SimInstrument | None" = None,
        access_trace: "AccessTrace | None" = None,
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else GramerConfig()
        # Purely observational (repro.obs.hooks.SimInstrument); every hook
        # reads simulator state and never writes it, so a traced run is
        # bit-identical to an untraced one.  The same contract covers the
        # access trace: the hierarchy/cache observers and the ancestor
        # emitter only append events.
        self.instrument = instrument
        self.access_trace = access_trace
        self._emit_ancestor = None
        if access_trace is not None:
            from repro.obs.hooks import ancestor_push_emitter

            self._emit_ancestor = ancestor_push_emitter(
                access_trace, depth_capacity=self.config.ancestor_depth
            )
        self.vertex_rank = resolve_vertex_rank(graph, vertex_rank, use_on1_ranks)
        self._reset()

    def _reset(self) -> None:
        cfg = self.config
        self.hierarchy = build_hierarchy(
            self.graph,
            total_entries=cfg.onchip_entries,
            vertex_rank=self.vertex_rank,
            tau=cfg.tau,
            low_policy=cfg.low_policy,
            lam=cfg.lam,
            ways=cfg.cache_ways,
            vertex_line=cfg.vertex_line_entries,
            edge_line=cfg.edge_line_entries,
        )
        self.dram = DRAMModel(
            latency_cycles=cfg.dram_latency,
            channels=cfg.dram_channels,
            cycles_per_transfer=cfg.dram_cycles_per_transfer,
        )
        self.partition_free = [0] * cfg.num_partitions
        self.stats = SimStats()
        self._recorder = _RecordingMemory()
        if self.access_trace is not None:
            from repro.obs.hooks import attach_access_observers

            attach_access_observers(self.hierarchy, self.access_trace)

    # -- functional phase ---------------------------------------------------

    def _record_step(self, pu: ProcessingUnit, slot, app: Application) -> None:
        """Run one extension step functionally; queue its timed operations."""
        graph, cfg, stats = self.graph, self.config, self.stats
        recorder = self._recorder
        recorder.ops = []
        recorder.pre_cycles = 0
        recorder.compute(cfg.issue_cycles)
        frame = slot.stack[-1]
        recorder.depth = frame.size

        candidate = advance_frame(graph, frame, recorder)
        if candidate is None:
            slot.stack.pop()
            recorder.compute(1)  # traceback: dequeue the ancestor record
        else:
            stats.candidates_checked += 1
            app.candidates_checked += 1
            accepted, column = check_candidate(
                graph, frame.vertices, frame.member_idx, candidate,
                app.clique_only, recorder, probe=cfg.probe_mode,
            )
            recorder.compute(cfg.check_cycles)
            if accepted:
                vertices = frame.vertices + (candidate,)
                columns = frame.columns + (column,)
                if app.filter(graph, vertices, columns):
                    app.process(graph, vertices, columns)
                    recorder.compute(cfg.process_cycles)
                    stats.embeddings_accepted += 1
                    if len(vertices) < app.max_vertices and app.aggregate_filter(
                        graph, vertices, columns
                    ):
                        if len(slot.stack) >= cfg.ancestor_depth:
                            raise AncestorBufferOverflowError(
                                "extension depth exceeds ancestor buffer "
                                f"capacity {cfg.ancestor_depth}"
                            )
                        slot.stack.append(Frame(vertices, columns))
                        if self._emit_ancestor is not None:
                            self._emit_ancestor(
                                slot.slot_id, len(slot.stack), slot.time
                            )
                        # §V-C: every embedding the Scheduler receives
                        # re-records its slot, keeping busy slots visible
                        # to idle thieves.
                        pu.stealing_buffer.push(slot.slot_id)

        slot.pending.extend(recorder.finish())

    # -- timing phase ---------------------------------------------------------

    def _service_op(
        self, pu: ProcessingUnit, slot, first: bool
    ) -> None:
        """Apply the slot's next recorded operation to its clock."""
        cfg, stats = self.config, self.stats
        kind, address, src, pre = slot.pending.popleft()
        if first:
            # The step's first operation claims the PU's single-issue port.
            start = max(slot.time, pu.next_free)
            pu.next_free = start + cfg.issue_cycles
            slot.time = start + pre
        else:
            slot.time += pre
        stats.compute_cycles += pre
        if kind == _OP_END:
            return
        if kind == _OP_VERTEX:
            partition_index = address % cfg.num_partitions
        else:
            partition_index = (
                address // cfg.edge_line_entries
            ) % cfg.num_partitions
        start = max(slot.time, self.partition_free[partition_index])
        self.partition_free[partition_index] = start + 1
        trace = self.access_trace
        if trace is not None:
            # Stamp the trace clock with the request's service time; the
            # hierarchy observers emit at this timestamp.
            trace.cycle = start
        if kind == _OP_VERTEX:
            level = self.hierarchy.access_vertex(address)
        else:
            level = self.hierarchy.access_edge(address, src)
        if level is AccessLevel.HIGH:
            done = start + cfg.spm_latency
        elif level is AccessLevel.LOW_HIT:
            done = start + cfg.cache_hit_latency
        else:
            done = self.dram.service(start, address)
            ins = self.instrument
            if ins is not None:
                ins.dram_fetch(
                    pu.index,
                    slot.slot_id,
                    kind,
                    address,
                    ts=start,
                    dur=done - start,
                    channel=address % cfg.dram_channels,
                )
        if kind == _OP_VERTEX:
            if level is AccessLevel.HIGH:
                stats.vertex_high_hits += 1
            elif level is AccessLevel.LOW_HIT:
                stats.vertex_low_hits += 1
            else:
                stats.vertex_misses += 1
            stats.vertex_wait_cycles += done - slot.time
        else:
            if level is AccessLevel.HIGH:
                stats.edge_high_hits += 1
            elif level is AccessLevel.LOW_HIT:
                stats.edge_low_hits += 1
            else:
                stats.edge_misses += 1
            stats.edge_wait_cycles += done - slot.time
        slot.time = done

    # -- main loop ----------------------------------------------------------

    def run(self, app: Application) -> SimResult:
        """Execute ``app`` to completion; returns stats + mining results."""
        self._reset()
        graph, cfg, stats = self.graph, self.config, self.stats
        app.prepare(graph)
        dispatch = dispatch_roots(
            (v for v in range(graph.num_vertices) if app.root_filter(graph, v)),
            cfg.num_pus,
            cfg.prefetch_interval,
            policy=cfg.arbitrator,
            degrees=graph.degrees(),
        )
        pus = [ProcessingUnit(p, cfg) for p in range(cfg.num_pus)]
        ins = self.instrument
        if ins is not None:
            ins.begin_run(cfg.num_pus, stats)

        heap: list[tuple[int, int, int, int]] = []
        seq = 0
        for p in range(cfg.num_pus):
            for s in range(cfg.slots_per_pu):
                heapq.heappush(heap, (0, seq, p, s))
                seq += 1

        while heap:
            t, _, p, s = heapq.heappop(heap)
            pu = pus[p]
            slot = pu.slots[s]
            if t > slot.time:
                slot.time = t
            if ins is not None:
                ins.advance(t, stats, pus)

            if slot.pending:
                before = slot.time
                self._service_op(pu, slot, first=False)
                slot.busy_cycles += slot.time - before
                if not slot.pending:
                    if slot.idle:
                        pu.busy_slots -= 1
                    if ins is not None:
                        ins.step_finished(p, s, slot.time)
                heapq.heappush(heap, (slot.time, seq, p, s))
                seq += 1
                continue

            if slot.idle:
                item = dispatch.pop(p)
                if item is not None:
                    root, arrival = item
                    slot.time = max(slot.time, arrival)
                    slot.stack.append(Frame((root,), (0,)))
                    slot.roots_started += 1
                    stats.roots_dispatched += 1
                    pu.busy_slots += 1
                    pu.stealing_buffer.push(s)
                    if ins is not None:
                        ins.root_dispatched(p, s, root, slot.time)
                elif cfg.work_stealing and pu.busy_slots > 0:
                    stats.steal_attempts += 1
                    if ins is not None:
                        ins.steal_attempted(p, s, slot.time)
                    stolen = pu.try_steal(slot)
                    if stolen is not None:
                        slot.stack.append(stolen)
                        stats.steals += 1
                        pu.busy_slots += 1
                        pu.stealing_buffer.push(s)
                        if ins is not None:
                            ins.steal_succeeded(p, s, slot.time)
                    else:
                        heapq.heappush(
                            heap, (slot.time + _STEAL_RETRY_CYCLES, seq, p, s)
                        )
                        seq += 1
                        continue
                else:
                    continue  # slot parks: no roots, nothing to steal

            # Record the next step; its first operation claims the issue
            # port now, the rest replay as later events.
            if ins is not None:
                ins.step_started(p, s, slot.time, len(slot.stack))
            self._record_step(pu, slot, app)
            before = slot.time
            self._service_op(pu, slot, first=True)
            slot.busy_cycles += slot.time - before
            if not slot.pending:
                if slot.idle:
                    pu.busy_slots -= 1
                if ins is not None:
                    ins.step_finished(p, s, slot.time)
            heapq.heappush(heap, (slot.time, seq, p, s))
            seq += 1

        app.finalize(graph)
        stats.cycles = max(
            (slot.time for pu in pus for slot in pu.slots), default=0
        )
        stats.pu_finish_cycles = [
            max((slot.time for slot in pu.slots), default=0) for pu in pus
        ]
        stats.pu_busy_cycles = [
            sum(slot.busy_cycles for slot in pu.slots) for pu in pus
        ]
        if ins is not None:
            ins.finish_run(stats, pus)
        return SimResult(stats=stats, mining=app.result(), config=cfg)
