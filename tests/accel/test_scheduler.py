"""Slot scheduling structures: stealing buffer and frame splitting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import clique, star
from repro.mining.engine import Frame, NullMemory, advance_frame, check_candidate
from repro.accel.scheduler import (
    StealingBuffer,
    split_frame,
    steal_from_stack,
)

from ..conftest import small_graphs


class TestStealingBuffer:
    def test_fifo_order(self):
        buf = StealingBuffer(4)
        for i in (3, 1, 2):
            buf.push(i)
        assert buf.pop() == 3
        assert buf.pop() == 1

    def test_capacity_drops_oldest(self):
        buf = StealingBuffer(2)
        buf.push(0)
        buf.push(1)
        buf.push(2)
        assert len(buf) == 2
        assert buf.pop() == 1

    def test_empty_pop(self):
        assert StealingBuffer(1).pop() is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            StealingBuffer(0)


def drain(graph, frame, clique_only=False):
    """Fully explore a frame (and its descendants), returning found sets."""
    mem = NullMemory()
    found = []
    stack = [frame]
    while stack:
        top = stack[-1]
        candidate = advance_frame(graph, top, mem)
        if candidate is None:
            stack.pop()
            continue
        ok, column = check_candidate(
            graph, top.vertices, top.member_idx, candidate, clique_only, mem
        )
        if ok:
            vertices = top.vertices + (candidate,)
            found.append(vertices)
            if len(vertices) < 3:
                stack.append(Frame(vertices, top.columns + (column,)))
    return found


class TestSplitFrame:
    def test_cursor_split_partitions_work_exactly(self):
        g = star(6)
        mem = NullMemory()
        base = drain(g, Frame((0,), (0,)))

        victim = Frame((0,), (0,))
        first = advance_frame(g, victim, mem)  # consume one candidate
        ok, column = check_candidate(g, (0,), 0, first, False, mem)
        consumed = []
        if ok:
            consumed.append((0, first))
            consumed.extend(drain(g, Frame((0, first), (0, column))))
        thief = split_frame(victim)
        assert thief is not None  # five candidates remain: splittable
        combined = consumed + drain(g, victim) + drain(g, thief)
        assert sorted(combined) == sorted(base)

    def test_exhausted_frame_not_splittable(self):
        g = clique(3)
        frame = Frame((0,), (0,))
        mem = NullMemory()
        while advance_frame(g, frame, mem) is not None:
            pass
        assert split_frame(frame) is None

    def test_single_candidate_not_splittable(self):
        g = star(1)  # vertex 0 has exactly one neighbor
        frame = Frame((0,), (0,))
        advance_frame(g, frame, NullMemory())  # consumes the only candidate
        assert split_frame(frame) is None

    def test_member_split_prefers_members(self):
        frame = Frame((0, 1), (0, 0b1))
        thief = split_frame(frame)
        assert thief is not None
        assert frame.member_limit == 1
        assert thief.member_idx == 1
        assert thief.member_limit == 2

    @given(small_graphs(min_vertices=3, max_vertices=10), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_split_never_duplicates_or_drops(self, g, steps):
        """Property: victim + thief enumerate exactly the original work."""
        if g.num_vertices == 0 or g.degree(0) == 0:
            return
        reference = drain(g, Frame((0,), (0,)))
        victim = Frame((0,), (0,))
        mem = NullMemory()
        prefix = []
        # Advance a few steps first so the split happens mid-stream.
        for _ in range(min(steps, 1)):
            c = advance_frame(g, victim, mem)
            if c is None:
                return
            ok, column = check_candidate(
                g, victim.vertices, victim.member_idx, c, False, mem
            )
            if ok:
                prefix.append(victim.vertices + (c,))
                child = Frame(victim.vertices + (c,), victim.columns + (column,))
                prefix.extend(drain(g, child))
        thief = split_frame(victim)
        remainder = drain(g, victim)
        if thief is not None:
            remainder += drain(g, thief)
        assert sorted(prefix + remainder) == sorted(reference)


class TestStealFromStack:
    def test_steals_shallowest(self):
        g = clique(5)
        deep = Frame((0, 1, 2), (0, 0b1, 0b11))
        shallow = Frame((0,), (0,))
        advance_frame(g, shallow, NullMemory())  # make cursor split possible
        stack = [shallow, deep]
        thief = steal_from_stack(stack)
        assert thief is not None
        assert thief.vertices == (0,)  # stolen from the shallow frame

    def test_empty_stack(self):
        assert steal_from_stack([]) is None
