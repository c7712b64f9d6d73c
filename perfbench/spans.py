"""In-memory spans recorded by the benchmark around calls into each layer.

A span is (name, start, end, parent span, pass id).  Spans stay in memory
and are written out once, when the run ends.  :class:`NullRecorder` makes
the same calls record nothing, which is how the measured passes (tracing
off) and the untraced twin of a traced pass share one implementation.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    pass_id: str

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class SpanRecorder:
    """Collects spans; nesting follows the ``with`` structure."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.pass_id = "run"

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, self.pass_id)
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.pop()

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8"
        )


class NullRecorder:
    """Same interface, records nothing: tracing off."""

    pass_id = "untraced"

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        yield _NULL_SPAN

    def total_s(self, name: str) -> float:
        return 0.0


_NULL_SPAN = Span(-1, "", 0, 0, None, "untraced")
