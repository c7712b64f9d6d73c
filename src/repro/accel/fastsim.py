"""The exact GRAMER engine: one discrete-event model, built for throughput.

:class:`FastGramerSimulator` runs the model of :mod:`repro.accel.sim`.
When a slot needs work, one extension step (a candidate proposal plus
extend-check, or a traceback) runs *functionally* and records the step's
operations: memory requests, each carrying the pipeline compute cycles
before it.  The operations then replay through one global time-ordered
event loop, so contention on the PU issue port (one step per cycle), the
memory partitions (one request per cycle each) and the DRAM channels
resolves exactly.  Cache state mutates at request *service* time, so
hit/miss outcomes see the true interleaving.

The loop is restructured for interpreter throughput:

* **Flattened memory state.**  Cache sets live in flat tag/rank/last-access
  arrays indexed by ``set * ways + way`` (tag ``-1`` = invalid) instead of
  per-line objects; hit scans, fills and the Equation-2 victim search are
  inlined over those arrays.  Sizing is not re-derived:
  :func:`~repro.memory.hierarchy.build_hierarchy` runs once and the flat
  model is extracted from the objects it built, so cutoff/num_sets/τ
  validation rules are shared by construction.  The counters are written
  back into that hierarchy at the end of the run (``self.hierarchy``).
* **Batched slot state.**  Per-slot clocks, busy counters and recorded-op
  queues are parallel arrays indexed by global slot id; partition and DRAM
  channel queues are plain integer arrays updated with branchless max
  arithmetic.
* **Fused functional step.**  ``advance_frame`` + ``check_candidate`` +
  the adjacency search are inlined with direct appends to the op list,
  and the CSR arrays are accessed as Python lists (numpy scalar indexing
  costs more than the rest of the step).
* **Event-loop short-circuit.**  The model maintains at most one heap entry
  per slot, and a freshly pushed entry carries the largest sequence number
  (ties lose).  So when a slot's next event time is strictly earlier than
  the current heap head, the push/pop pair is skipped and the slot
  continues inline — the pop order is provably unchanged.

Observability
-------------
An optional :class:`~repro.obs.hooks.SimInstrument` (Chrome trace,
timeline windows, steal latencies) and an optional
:class:`~repro.obs.access.AccessTrace` (LAMH service, priority-cache
fills, ancestor-buffer pushes) attach to the same loop.  Every emit site
sits behind a local ``is None`` test and only reads engine state, so a
traced run is bit-identical to an untraced one.  Local counters are
copied into ``self.stats`` only when a timeline window closes.

Equivalence contract
--------------------
For every graph/config/application the engine must produce byte-identical
``SimStats.as_dict()``, mining results, exception types and observability
events to the event-by-event oracle in ``tests/differential/oracle.py``.
The differential suites (``tests/differential/``), the golden fixtures
(``tests/experiments/golden/``) and the Table III determinism test
enforce it.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph
from repro.memory.dram import DRAMModel
from repro.memory.hierarchy import (
    AccessLevel,
    LocalityAwareHierarchy,
    build_hierarchy,
)
from repro.memory.policies import LocalityPreservedPolicy, LRUPolicy
from repro.mining.apps.base import Application
from repro.mining.engine import Frame

from .config import GramerConfig
from .frontend import dispatch_roots
from .scheduler import StealingBuffer, steal_from_stack
from .sim import (
    _STEAL_RETRY_CYCLES,
    AncestorBufferOverflowError,
    SimResult,
    resolve_vertex_rank,
)
from .stats import SimStats

if TYPE_CHECKING:
    from repro.obs.access import AccessTrace
    from repro.obs.hooks import SimInstrument

__all__ = ["FastGramerSimulator"]

_HIGH = AccessLevel.HIGH
_LOW_HIT = AccessLevel.LOW_HIT
_MISS = AccessLevel.MISS

#: The scalar ``SimStats`` counters the run loop keeps in locals, in the
#: order :func:`_store_counters` takes them.
_COUNTERS = (
    "candidates_checked",
    "embeddings_accepted",
    "roots_dispatched",
    "steals",
    "steal_attempts",
    "vertex_high_hits",
    "vertex_low_hits",
    "vertex_misses",
    "edge_high_hits",
    "edge_low_hits",
    "edge_misses",
    "compute_cycles",
    "vertex_wait_cycles",
    "edge_wait_cycles",
)


def _store_counters(stats: SimStats, *values: int) -> None:
    for name, value in zip(_COUNTERS, values):
        setattr(stats, name, value)


class _Occupancy:
    """One PU's busy-slot count, as the timeline sampler reads it."""

    __slots__ = ("busy_slots",)

    def __init__(self) -> None:
        self.busy_slots = 0


def _write_back(
    hierarchy: LocalityAwareHierarchy,
    vertex: tuple[int, int, int],
    edge: tuple[int, int, int],
    v_evictions: list[int],
    e_evictions: list[int],
) -> None:
    """Copy the run's (high, low, miss) counts into the built hierarchy."""
    for side, (high, low, miss) in (
        (hierarchy.vertex_side, vertex),
        (hierarchy.edge_side, edge),
    ):
        side.scratchpad.hits = high
        side.stats.high_hits = high
        side.stats.low_hits = low
        side.stats.misses = miss
    vcache = hierarchy.vertex_side.low_cache
    ecache = hierarchy.edge_side.low_cache
    if vcache is ecache:
        # Uniform baseline: both sides replayed one shared cache.
        vcache.adopt_counters(
            vertex[1] + edge[1], vertex[2] + edge[2], v_evictions
        )
    else:
        vcache.adopt_counters(vertex[1], vertex[2], v_evictions)
        ecache.adopt_counters(edge[1], edge[2], e_evictions)


class FastGramerSimulator:
    """The exact GRAMER engine; build it through ``make_simulator``.

    ``vertex_rank`` maps vertex ID to its ON1 rank.  By default ranks are
    computed from the 1-hop occurrence numbers (§IV-B); the paper
    physically reorders the graph so ID == rank, which is behaviourally
    identical to carrying the rank map.  Pass ``use_on1_ranks=False`` for
    the rank-oblivious ablation.
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
        self.instrument = instrument
        self.access_trace = access_trace
        self.vertex_rank = resolve_vertex_rank(graph, vertex_rank, use_on1_ranks)
        self.stats = SimStats()
        self.hierarchy: LocalityAwareHierarchy | None = None

    # The run loop is one deliberately monolithic function: every helper
    # call it avoids is ~100ns × tens of millions of events.
    def run(self, app: Application) -> SimResult:  # noqa: C901
        """Execute ``app`` to completion; returns stats + mining results."""
        graph, cfg = self.graph, self.config
        ins = self.instrument
        trace = self.access_trace

        # -- sizing: run build_hierarchy once, extract a flat model -------
        hierarchy = build_hierarchy(
            graph,
            total_entries=cfg.onchip_entries,
            vertex_rank=self.vertex_rank,
            tau=cfg.tau,
            low_policy=cfg.low_policy,
            lam=cfg.lam,
            ways=cfg.cache_ways,
            vertex_line=cfg.vertex_line_entries,
            edge_line=cfg.edge_line_entries,
        )
        # Instantiated purely so DRAM parameter validation stays shared.
        DRAMModel(
            latency_cycles=cfg.dram_latency,
            channels=cfg.dram_channels,
            cycles_per_transfer=cfg.dram_cycles_per_transfer,
        )
        v_side = hierarchy.vertex_side
        e_side = hierarchy.edge_side
        v_cut = v_side.scratchpad.cutoff
        e_cut = e_side.scratchpad.cutoff
        vcache = v_side.low_cache
        ecache = e_side.low_cache
        shared = vcache is ecache  # uniform-LRU baseline: one cache, offset edges

        policy = vcache.policy
        if isinstance(policy, LocalityPreservedPolicy):
            locality = True
            lam = policy.lam
            rank_scale = policy.rank_scale
        elif isinstance(policy, LRUPolicy):
            locality = False
            lam = rank_scale = 0.0
        else:  # pragma: no cover - build_hierarchy only emits the two above
            raise TypeError(
                f"fast engine cannot replicate policy {policy.name!r}"
            )

        ways = vcache.ways
        v_sets = vcache.num_sets
        v_line = vcache.line_size
        v_tags = [-1] * (v_sets * ways)
        v_ranks = [0] * (v_sets * ways)
        v_last = [0] * (v_sets * ways)
        v_clock = 0  # the shared cache's clock in the uniform baseline
        if shared:
            e_tags, e_ranks, e_last = v_tags, v_ranks, v_last
            e_sets, e_line = v_sets, v_line
        else:
            e_sets = ecache.num_sets
            e_line = ecache.line_size
            e_tags = [-1] * (e_sets * ways)
            e_ranks = [0] * (e_sets * ways)
            e_last = [0] * (e_sets * ways)
        e_clock = 0
        e_addr_off = e_side.address_offset
        v_sev = [0] * v_sets  # evictions per set
        e_sev = v_sev if shared else [0] * e_sets

        # Access-trace emitters: the typed helpers of repro.obs.hooks, so
        # the event schema keeps one author.
        v_obs = e_obs = v_fill = e_fill = emit_ancestor = None
        if trace is not None:
            from repro.obs.hooks import (
                ancestor_push_emitter,
                attach_access_observers,
            )

            attach_access_observers(hierarchy, trace)
            v_obs, e_obs = v_side.observer, e_side.observer
            v_fill, e_fill = vcache.fill_observer, ecache.fill_observer
            emit_ancestor = ancestor_push_emitter(
                trace, depth_capacity=cfg.ancestor_depth
            )

        # Python lists: numpy scalar indexing would be the loop's single
        # largest line item, and values are identical post-tolist().
        vrank = self.vertex_rank.tolist()
        erank = (
            hierarchy.edge_rank.tolist()
            if hierarchy.edge_rank is not None
            else None
        )
        offsets = graph.offsets.tolist()
        neighbors = graph.neighbors.tolist()

        # -- config scalars ------------------------------------------------
        issue_cycles = cfg.issue_cycles
        check_cycles = cfg.check_cycles
        process_cycles = cfg.process_cycles
        spm_lat = cfg.spm_latency
        hit_lat = cfg.cache_hit_latency
        nparts = cfg.num_partitions
        part_line = cfg.edge_line_entries
        nch = cfg.dram_channels
        d_lat = cfg.dram_latency
        d_cpt = cfg.dram_cycles_per_transfer
        ancestor_depth = cfg.ancestor_depth
        stealing = cfg.work_stealing
        random_steal = cfg.steal_victim_select == "random"
        scan_probe = cfg.probe_mode == "scan"
        P = cfg.num_pus
        S = cfg.slots_per_pu
        G = P * S

        # -- application + root dispatch ------------------------------------
        app.prepare(graph)
        clique_only = app.clique_only
        max_vertices = app.max_vertices
        app_filter = app.filter
        app_process = app.process
        app_aggregate = app.aggregate_filter
        dispatch = dispatch_roots(
            (v for v in range(graph.num_vertices) if app.root_filter(graph, v)),
            P,
            cfg.prefetch_interval,
            policy=cfg.arbitrator,
            degrees=graph.degrees(),
        )
        dqueues = dispatch.queues

        # -- batched slot / PU state (global slot id g = p * S + s) --------
        # Busy cycles are derived, not accumulated: a slot is busy from t=0
        # to its final time except for idle gaps (dispatch arrival waits,
        # steal-retry backoffs), which are rare and recorded where they
        # occur.  busy[g] == final_time[g] - gap[g] exactly matches
        # per-event (after - before) sums.
        slot_time = [0] * G
        slot_gap = [0] * G
        stacks: list[list[Frame]] = [[] for _ in range(G)]
        slot_ops: list[list[tuple[int, int, int, int]]] = [[] for _ in range(G)]
        pu_free = [0] * P
        pu_busy = [0] * P
        sbufs = [StealingBuffer(S) for _ in range(P)]
        lfsr = [((p * 0x9E3779B9 + 0x1234567) & 0xFFFFFFFF) or 1 for p in range(P)]
        pu_of = [g // S for g in range(G)]
        sid_of = [g % S for g in range(G)]
        part_free = [0] * nparts
        ch_free = [0] * nch

        # -- stats accumulators (folded into SimStats at the end, and at
        # every timeline window boundary of a traced run) ------------------
        candidates_checked = 0
        embeddings_accepted = 0
        roots_dispatched = 0
        steals = 0
        steal_attempts = 0
        v_hi = v_lo = v_miss = 0
        e_hi = e_lo = e_miss = 0
        compute_cycles = 0
        v_wait = e_wait = 0

        stats = SimStats()
        self.stats = stats
        self.hierarchy = hierarchy
        window_end = 0
        pu_views: list[_Occupancy] = []
        if ins is not None:
            ins.begin_run(P, stats)
            window_end = ins.sampler.next_boundary
            pu_views = [_Occupancy() for _ in range(P)]

        # Heap entries are single ints: (time << tshift) | (seq << gbits) | g.
        # Integer comparison is substantially cheaper than tuple comparison
        # in the pop/push sift loops, and ordering is that of (t, seq, g)
        # tuples: seq strictly increases per push, so same-time entries pop
        # in push order.  The slot id takes just the bits G needs and seq
        # gets 48 bits above it.  Seeds: every slot at t=0 in row-major
        # (p, s) order.
        gbits = G.bit_length()
        gmask = (1 << gbits) - 1
        tshift = gbits + 48
        heap: list[int] = [(g << gbits) | g for g in range(G)]
        seq = G
        heappush = heapq.heappush

        try:
            while heap:
                ev = heapq.heappop(heap)
                g = ev & gmask
                t = ev >> tshift
                # Inner loop: keep driving slot g while its next event is
                # provably the next pop (strictly earlier than the heap
                # head; a pushed entry would lose every tie on seq).
                while True:
                    if ins is not None and t >= window_end:
                        # A timeline window closes: the sampler reads the
                        # counters as they stood before this event.
                        _store_counters(
                            stats, candidates_checked, embeddings_accepted,
                            roots_dispatched, steals, steal_attempts,
                            v_hi, v_lo, v_miss, e_hi, e_lo, e_miss,
                            compute_cycles, v_wait, e_wait,
                        )
                        for view, busy in zip(pu_views, pu_busy):
                            view.busy_slots = busy
                        ins.advance(t, stats, pu_views)
                        window_end = ins.sampler.next_boundary
                    tg = slot_time[g]
                    if t > tg:
                        slot_gap[g] += t - tg
                        tg = t
                    ops = slot_ops[g]
                    if ops:
                        kind, address, src, pre = ops.pop()
                        tg += pre
                        compute_cycles += pre
                    else:
                        # -- slot needs a new step: dispatch or steal if
                        # idle, then record the step ------------------------
                        p = pu_of[g]
                        stack = stacks[g]
                        if not stack:
                            q = dqueues[p]
                            if q:
                                root, arrival = q.popleft()
                                if arrival > tg:
                                    slot_gap[g] += arrival - tg
                                    tg = arrival
                                stack.append(Frame((root,), (0,)))
                                roots_dispatched += 1
                                pu_busy[p] += 1
                                sbufs[p].push(sid_of[g])
                                if ins is not None:
                                    ins.root_dispatched(p, sid_of[g], root, tg)
                            elif stealing and pu_busy[p] > 0:
                                steal_attempts += 1
                                sid = sid_of[g]
                                if ins is not None:
                                    ins.steal_attempted(p, sid, tg)
                                # Victim selection: the stealing buffer, or
                                # one LFSR-chosen slot (§V-C).
                                stolen = None
                                base_g = p * S
                                if random_steal:
                                    x = lfsr[p]
                                    x ^= (x << 13) & 0xFFFFFFFF
                                    x ^= x >> 17
                                    x ^= (x << 5) & 0xFFFFFFFF
                                    lfsr[p] = x
                                    vic = x % S
                                    if vic != sid and stacks[base_g + vic]:
                                        stolen = steal_from_stack(
                                            stacks[base_g + vic]
                                        )
                                else:
                                    buf = sbufs[p]
                                    for _ in range(len(buf)):
                                        vic = buf.pop()
                                        if vic is None:
                                            break
                                        if vic == sid or not stacks[base_g + vic]:
                                            continue
                                        frame = steal_from_stack(
                                            stacks[base_g + vic]
                                        )
                                        if frame is not None:
                                            buf.push(vic)
                                            stolen = frame
                                            break
                                if stolen is not None:
                                    stack.append(stolen)
                                    steals += 1
                                    pu_busy[p] += 1
                                    sbufs[p].push(sid)
                                    if ins is not None:
                                        ins.steal_succeeded(p, sid, tg)
                                else:
                                    slot_time[g] = tg
                                    nt = tg + _STEAL_RETRY_CYCLES
                                    pk = (nt << tshift) | (seq << gbits) | g
                                    if heap and pk >= heap[0]:
                                        heappush(heap, pk)
                                        seq += 1
                                        break
                                    t = nt
                                    continue
                            else:
                                # Slot parks: no roots, nothing to steal.
                                slot_time[g] = tg
                                break

                        # -- functional phase: one fused extension step ------
                        if ins is not None:
                            ins.step_started(p, sid_of[g], tg, len(stack))
                        frame = stack[-1]
                        ops = []
                        append = ops.append
                        pre = issue_cycles
                        vertices = frame.vertices
                        m_idx = frame.member_idx
                        m_lim = frame.member_limit
                        candidate = None
                        # advance_frame, with offsets/neighbors as lists
                        while m_idx < m_lim:
                            mb = frame.member_base
                            if mb < 0:
                                member = vertices[m_idx]
                                append((0, member, 0, pre))
                                pre = 0
                                mb = offsets[member]
                                frame.member_base = mb
                                frame.member_degree = offsets[member + 1] - mb
                            bound = frame.member_degree
                            cl = frame.cursor_limit
                            if cl is not None and cl < bound:
                                bound = cl
                            ec = frame.edge_cursor
                            if ec < bound:
                                index = mb + ec
                                frame.edge_cursor = ec + 1
                                append((1, index, vertices[m_idx], pre))
                                pre = 0
                                candidate = neighbors[index]
                                break
                            m_idx += 1
                            frame.member_idx = m_idx
                            frame.edge_cursor = 0
                            frame.member_base = -1
                            frame.cursor_limit = None

                        if candidate is None:
                            stack.pop()
                            pre += 1  # traceback: dequeue the ancestor record
                        else:
                            candidates_checked += 1
                            midx = frame.member_idx
                            # id_checks_pass (pure ID comparisons)
                            if candidate in vertices or candidate < vertices[0]:
                                accepted = False
                            else:
                                accepted = True
                                nverts = len(vertices)
                                i = midx + 1
                                while i < nverts:
                                    if candidate < vertices[i]:
                                        accepted = False
                                        break
                                    i += 1
                            column = 0
                            if accepted:
                                # check_candidate connectivity loop
                                column = 1 << midx
                                for i, member in enumerate(vertices):
                                    if i == midx:
                                        continue
                                    append((0, member, 0, 0))
                                    lo = offsets[member]
                                    hi = offsets[member + 1]
                                    adjacent = False
                                    if scan_probe:
                                        for index in range(lo, hi):
                                            append((1, index, member, 0))
                                            value = neighbors[index]
                                            if value == candidate:
                                                adjacent = True
                                                break
                                            if value > candidate:
                                                break
                                    else:
                                        while lo < hi:
                                            mid = (lo + hi) // 2
                                            append((1, mid, member, 0))
                                            value = neighbors[mid]
                                            if value == candidate:
                                                adjacent = True
                                                break
                                            if value < candidate:
                                                lo = mid + 1
                                            else:
                                                hi = mid
                                    if adjacent:
                                        if i < midx:
                                            accepted = False
                                            break
                                        column |= 1 << i
                                    elif clique_only:
                                        accepted = False
                                        break
                            pre += check_cycles
                            if accepted:
                                new_vertices = vertices + (candidate,)
                                new_columns = frame.columns + (column,)
                                if app_filter(graph, new_vertices, new_columns):
                                    app_process(graph, new_vertices, new_columns)
                                    pre += process_cycles
                                    embeddings_accepted += 1
                                    if len(new_vertices) < max_vertices and (
                                        app_aggregate(
                                            graph, new_vertices, new_columns
                                        )
                                    ):
                                        if len(stack) >= ancestor_depth:
                                            raise AncestorBufferOverflowError(
                                                "extension depth exceeds "
                                                "ancestor buffer capacity "
                                                f"{ancestor_depth}"
                                            )
                                        stack.append(
                                            Frame(new_vertices, new_columns)
                                        )
                                        if emit_ancestor is not None:
                                            emit_ancestor(
                                                sid_of[g], len(stack), tg
                                            )
                                        # §V-C: every embedding the
                                        # Scheduler receives re-records
                                        # its slot for idle thieves.
                                        sbufs[p].push(sid_of[g])
                        if pre or not ops:
                            append((2, 0, 0, pre))  # trailing compute only
                        # Consumed back-to-front with list.pop(): cheaper
                        # than cursor bookkeeping, and `ops` doubles as the
                        # "step in flight" flag once reversed.
                        ops.reverse()
                        slot_ops[g] = ops
                        kind, address, src, pre = ops.pop()
                        # The step's first op claims the PU issue port (the
                        # continuation ops above just did `tg += pre`).
                        nf = pu_free[p]
                        start = tg if tg > nf else nf
                        pu_free[p] = start + issue_cycles
                        tg = start + pre
                        compute_cycles += pre

                    # -- timing phase: service one request -------------------
                    if kind == 0:
                        pi = address % nparts
                        pf = part_free[pi]
                        start = tg if tg > pf else pf
                        part_free[pi] = start + 1
                        rank = vrank[address]
                        if rank < v_cut:
                            done = start + spm_lat
                            v_hi += 1
                            if v_obs is not None:
                                trace.cycle = start
                                v_obs(address, rank, _HIGH)
                        else:
                            v_clock += 1
                            tag = address // v_line
                            base = (tag % v_sets) * ways
                            end = base + ways
                            w = base
                            hit = False
                            while w < end:
                                if v_tags[w] == tag:
                                    v_last[w] = v_clock
                                    hit = True
                                    break
                                w += 1
                            if hit:
                                done = start + hit_lat
                                v_lo += 1
                                if v_obs is not None:
                                    trace.cycle = start
                                    v_obs(address, rank, _LOW_HIT)
                            else:
                                victim = -1
                                w = base
                                while w < end:
                                    if v_tags[w] == -1:
                                        victim = w
                                        break
                                    w += 1
                                if victim < 0:
                                    if locality:
                                        victim = base
                                        best = (
                                            v_ranks[base] * rank_scale
                                            + lam * (v_clock - v_last[base])
                                        )
                                        w = base + 1
                                        while w < end:
                                            score = (
                                                v_ranks[w] * rank_scale
                                                + lam * (v_clock - v_last[w])
                                            )
                                            if score > best:
                                                best = score
                                                victim = w
                                            w += 1
                                    else:
                                        victim = base
                                        stale = v_last[base]
                                        w = base + 1
                                        while w < end:
                                            lw = v_last[w]
                                            if lw < stale:
                                                stale = lw
                                                victim = w
                                            w += 1
                                    v_sev[base // ways] += 1
                                v_tags[victim] = tag
                                v_ranks[victim] = rank
                                v_last[victim] = v_clock
                                if v_obs is not None:
                                    trace.cycle = start
                                    v_fill(tag, rank)
                                    v_obs(address, rank, _MISS)
                                ch = address % nch
                                cf = ch_free[ch]
                                ds = start if start > cf else cf
                                ch_free[ch] = ds + d_cpt
                                done = ds + d_lat
                                v_miss += 1
                                if ins is not None:
                                    ins.dram_fetch(
                                        pu_of[g], sid_of[g], 0, address,
                                        ts=start, dur=done - start, channel=ch,
                                    )
                        v_wait += done - tg
                        tg = done
                    elif kind == 1:
                        pi = (address // part_line) % nparts
                        pf = part_free[pi]
                        start = tg if tg > pf else pf
                        part_free[pi] = start + 1
                        rank = erank[address] if erank is not None else vrank[src]
                        if rank < e_cut:
                            done = start + spm_lat
                            e_hi += 1
                            if e_obs is not None:
                                trace.cycle = start
                                e_obs(address, rank, _HIGH)
                        else:
                            if shared:
                                v_clock += 1
                                clk = v_clock
                            else:
                                e_clock += 1
                                clk = e_clock
                            tag = (address + e_addr_off) // e_line
                            base = (tag % e_sets) * ways
                            end = base + ways
                            w = base
                            hit = False
                            while w < end:
                                if e_tags[w] == tag:
                                    e_last[w] = clk
                                    hit = True
                                    break
                                w += 1
                            if hit:
                                done = start + hit_lat
                                e_lo += 1
                                if e_obs is not None:
                                    trace.cycle = start
                                    e_obs(address, rank, _LOW_HIT)
                            else:
                                victim = -1
                                w = base
                                while w < end:
                                    if e_tags[w] == -1:
                                        victim = w
                                        break
                                    w += 1
                                if victim < 0:
                                    if locality:
                                        victim = base
                                        best = (
                                            e_ranks[base] * rank_scale
                                            + lam * (clk - e_last[base])
                                        )
                                        w = base + 1
                                        while w < end:
                                            score = (
                                                e_ranks[w] * rank_scale
                                                + lam * (clk - e_last[w])
                                            )
                                            if score > best:
                                                best = score
                                                victim = w
                                            w += 1
                                    else:
                                        victim = base
                                        stale = e_last[base]
                                        w = base + 1
                                        while w < end:
                                            lw = e_last[w]
                                            if lw < stale:
                                                stale = lw
                                                victim = w
                                            w += 1
                                    e_sev[base // ways] += 1
                                e_tags[victim] = tag
                                e_ranks[victim] = rank
                                e_last[victim] = clk
                                if e_obs is not None:
                                    trace.cycle = start
                                    e_fill(tag, rank)
                                    e_obs(address, rank, _MISS)
                                # DRAM channels key on the raw edge index.
                                ch = address % nch
                                cf = ch_free[ch]
                                ds = start if start > cf else cf
                                ch_free[ch] = ds + d_cpt
                                done = ds + d_lat
                                e_miss += 1
                                if ins is not None:
                                    ins.dram_fetch(
                                        pu_of[g], sid_of[g], 1, address,
                                        ts=start, dur=done - start, channel=ch,
                                    )
                        e_wait += done - tg
                        tg = done
                    # kind == 2: trailing compute only.

                    if not ops:
                        if not stacks[g]:
                            pu_busy[pu_of[g]] -= 1
                        if ins is not None:
                            ins.step_finished(pu_of[g], sid_of[g], tg)
                    slot_time[g] = tg
                    pk = (tg << tshift) | (seq << gbits) | g
                    if heap and pk >= heap[0]:
                        heappush(heap, pk)
                        seq += 1
                        break
                    t = tg
        finally:
            # Applications count candidates one by one; fold the batch in
            # on every exit path so app state matches even on raise.
            app.candidates_checked += candidates_checked

        app.finalize(graph)
        stats.cycles = max(slot_time, default=0)
        _store_counters(
            stats, candidates_checked, embeddings_accepted,
            roots_dispatched, steals, steal_attempts,
            v_hi, v_lo, v_miss, e_hi, e_lo, e_miss,
            compute_cycles, v_wait, e_wait,
        )
        stats.pu_finish_cycles = [
            max(slot_time[p * S:(p + 1) * S], default=0) for p in range(P)
        ]
        stats.pu_busy_cycles = [
            sum(slot_time[p * S:(p + 1) * S])
            - sum(slot_gap[p * S:(p + 1) * S])
            for p in range(P)
        ]
        _write_back(
            hierarchy, (v_hi, v_lo, v_miss), (e_hi, e_lo, e_miss), v_sev, e_sev
        )
        if ins is not None:
            for view, busy in zip(pu_views, pu_busy):
                view.busy_slots = busy
            ins.finish_run(stats, pu_views)
        return SimResult(stats=stats, mining=app.result(), config=cfg)
