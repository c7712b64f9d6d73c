"""PU-internal scheduling structures (paper §V-B, §V-C, Figs. 9-10).

Each PU pipelines up to ``slots_per_pu`` embeddings, one extension path per
slot ID.  A slot's extension path lives in its *ancestor buffer* — here the
stack of compacted :class:`~repro.mining.engine.Frame` records (extending
vertex + offset, Fig. 10).  The *stealing buffer* tracks recently busy slot
IDs so an idle slot can steal work from a demonstrably busy one instead of
probing randomly (§V-C's comparison against the LFSR selector of [8]).
The fast engine keeps each slot's state in flat per-slot arrays.
"""

from __future__ import annotations

from collections import deque

from repro.mining.engine import Frame

__all__ = ["StealingBuffer", "split_frame", "steal_from_stack"]


class StealingBuffer:
    """Bounded FIFO of busy slot IDs (§V-C).

    ``push`` records a slot that just received an embedding; ``pop`` yields
    the least-recently recorded busy slot.  Capacity matches the slot buffer
    (16 in the paper); stale IDs (slots that finished meanwhile) are simply
    skipped by the caller.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._queue: deque[int] = deque()

    def push(self, slot_id: int) -> None:
        """Record ``slot_id`` as busy (dropping the oldest when full)."""
        if len(self._queue) == self.capacity:
            self._queue.popleft()
        self._queue.append(slot_id)

    def pop(self) -> int | None:
        """Oldest recorded busy slot, or ``None`` when empty."""
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


def split_frame(frame: Frame) -> Frame | None:
    """Split ``frame``'s remaining candidate range; returns the thief's half.

    Preference order:

    1. Unstarted members: the thief takes members ``[m+1, limit)``, the
       victim keeps only the member it is currently scanning.
    2. Otherwise the remaining cursor range of the current member is halved.

    Returns ``None`` when the remainder is too small to split (≤ 1 pending
    candidate).  The two halves partition the original range exactly, so
    enumeration stays exactly-once — property-tested in
    ``tests/accel/test_scheduler.py``.
    """
    if frame.exhausted():
        return None
    if frame.member_idx + 1 < frame.member_limit:
        thief = Frame(frame.vertices, frame.columns)
        thief.member_idx = frame.member_idx + 1
        thief.member_limit = frame.member_limit
        frame.member_limit = frame.member_idx + 1
        return thief
    # Single member left; halve its remaining cursor range if it is loaded.
    if frame.member_base < 0:
        return None
    bound = frame.member_degree
    if frame.cursor_limit is not None and frame.cursor_limit < bound:
        bound = frame.cursor_limit
    remaining = bound - frame.edge_cursor
    if remaining <= 1:
        return None
    mid = frame.edge_cursor + (remaining + 1) // 2
    thief = Frame(frame.vertices, frame.columns)
    thief.member_idx = frame.member_idx
    thief.member_limit = frame.member_idx + 1
    thief.edge_cursor = mid
    thief.cursor_limit = bound
    # The thief re-reads the member's offsets on activation (member_base=-1),
    # matching the hardware re-fetch of the stolen embedding's metadata.
    frame.cursor_limit = mid
    return thief


def steal_from_stack(stack: list[Frame]) -> Frame | None:
    """Steal the largest available subtree from an ancestor-buffer stack.

    Scans bottom-up (shallowest ancestors own the largest unexplored
    subtrees) and splits the first frame with divisible remaining work.
    """
    for frame in stack:
        thief = split_frame(frame)
        if thief is not None:
            return thief
    return None
