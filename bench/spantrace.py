"""Span recorder for the benchmark's traced runs.

The recorder wraps public archdelta functions in every module namespace that
holds them, because archdelta modules import each other's functions by name:
replacing ``archdelta.linker.match_call_to_endpoint`` alone would miss the
copies that ``archdelta.merge`` and ``archdelta.rules`` call.  ``restore``
puts the originals back.  Nothing under ``src/`` changes.

Each span records its name (``<module>.<function>``), start, end, parent and
the id of the operation (commit, build or replayed version) it belongs to.
Spans stay in memory until the run ends.  Hot, tiny functions get a counting
wrapper instead of a span, so that the trace costs little where calls are
many.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts for functions installed with ``wrap``/``count``."""

    def __init__(self, namespaces: Iterable[ModuleType]):
        self.namespaces = list(namespaces)
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.op = 0
        self.boundary: str | None = None  # a span name that starts a new op
        self._stack: list[int] = []
        self._patches: list[tuple[ModuleType, str, Any]] = []

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------

    def _install(self, func: Callable, wrapper: Callable) -> None:
        found = False
        for module in self.namespaces:
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, func))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{func.__module__}.{func.__name__} is in no traced namespace")

    def wrap(
        self,
        func: Callable,
        on_result: Callable[[Any, tuple, dict], None] | None = None,
    ) -> None:
        """Record a span around every call; ``on_result`` sees each result."""
        name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if name == self.boundary:
                self.op += 1
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        self._install(func, traced)

    def count(self, func: Callable, hit: Callable[[Any], bool]) -> None:
        """Count calls as ``<name>.calls`` and results passing ``hit`` as ``<name>.hits``."""
        name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"
        counts = self.counts
        calls_key, hits_key = f"{name}.calls", f"{name}.hits"

        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            counts[calls_key] += 1
            if hit(result):
                counts[hits_key] += 1
            return result

        self._install(func, counted)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------

    def _ancestors(self, span: Span) -> Iterable[Span]:
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def total(self, names: set[str], within: str | None = None) -> float:
        """Seconds in spans named in ``names``, not counting spans nested in
        another of them; with ``within``, only spans below a span of that name."""
        seconds = 0.0
        for span in self.spans:
            if span.name not in names:
                continue
            outer = [a.name for a in self._ancestors(span)]
            if any(n in names for n in outer):
                continue
            if within is not None and within not in outer:
                continue
            seconds += span.duration
        return seconds

    def children(self, parent_name: str, name: str) -> list[Span]:
        """Spans called ``name`` whose direct parent is called ``parent_name``."""
        return [
            s
            for s in self.spans
            if s.name == name
            and s.parent is not None
            and self.spans[s.parent].name == parent_name
        ]

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time covered by direct child spans."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        out: Counter[str] = Counter()
        for span, child_time in zip(self.spans, covered):
            out[span.layer] += span.duration - child_time
        return dict(out)

    def dump(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        doc = [
            {**asdict(s), "start": s.start - t0, "end": s.end - t0} for s in self.spans
        ]
        path.write_text(json.dumps({"spans": doc, "counts": dict(self.counts)}))
