"""Unit tests of the oracle's own building blocks."""

from repro.mining.engine import Frame
from tests.differential.oracle import SlotContext


class TestSlotContext:
    def test_idle_tracking(self):
        slot = SlotContext(0)
        assert slot.idle
        slot.stack.append(Frame((0,), (0,)))
        assert not slot.idle
        assert slot.depth == 1
