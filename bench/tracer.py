"""Outside-in span tracer for the repository benchmark.

The tracer never edits the program: it wraps a layer's public entry
points by replacing instance, module or class attributes at run time
(:meth:`Tracer.wrap`) and puts every original back afterwards
(:meth:`Tracer.restore`).  Each call becomes a :class:`Span` with its
layer, name, start, end, parent span and thread id.  Spans stay in
memory until the run ends; :meth:`Tracer.chrome_trace` writes them as
Chrome trace-event JSON, which Perfetto (ui.perfetto.dev) opens.

A span's parent is the innermost span open on the same thread when it
started, so nesting is exact per thread.  A layer's *self time* is its
span time minus the time of its direct child spans (:func:`ledger`).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict


class Span:
    """One call into a layer."""

    __slots__ = ("layer", "name", "start", "end", "parent", "tid")

    def __init__(
        self, layer: str, name: str, start: float, parent: "Span | None", tid: int
    ) -> None:
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from patched entry points and explicit blocks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        #: (owner, attribute, original value, owner had its own value).
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        """Start a span on the calling thread; pair with :meth:`close`."""
        stack = self._stack()
        span = Span(
            layer,
            name,
            time.perf_counter(),
            stack[-1] if stack else None,
            threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def span(self, layer: str, name: str) -> "_SpanBlock":
        """A ``with`` block recorded as one span."""
        return _SpanBlock(self, layer, name)

    def wrap(self, owner: object, attribute: str, layer: str, name: str) -> None:
        """Record every call of ``owner.attribute`` as a *layer* span."""
        inherited = attribute not in vars(owner)
        original = vars(owner).get(attribute)
        target = getattr(owner, attribute)
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            span = tracer.open(layer, name)
            try:
                return target(*args, **kwargs)
            finally:
                tracer.close(span)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original, not inherited))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        origin = min((span.start for span in self.spans), default=0.0)
        ids = {id(span): index for index, span in enumerate(self.spans)}
        pid = os.getpid()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            for index, span in enumerate(self.spans):
                event = {
                    "name": f"{span.layer}.{span.name}",
                    "cat": span.layer,
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": pid,
                    "tid": span.tid,
                    "args": {
                        "id": index,
                        "parent": ids.get(id(span.parent)),
                    },
                }
                if index:
                    handle.write(",\n")
                handle.write(json.dumps(event, separators=(",", ":")))
            handle.write("\n]}\n")


class _SpanBlock:
    __slots__ = ("tracer", "layer", "name", "span")

    def __init__(self, tracer: Tracer, layer: str, name: str) -> None:
        self.tracer = tracer
        self.layer = layer
        self.name = name

    def __enter__(self) -> Span:
        self.span = self.tracer.open(self.layer, self.name)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.span)


def ledger(spans: list[Span]) -> dict[tuple[str, str], dict[str, float]]:
    """Calls, total and self seconds per ``(layer, name)``.

    Self time is a span's duration minus the durations of its direct
    children.  Children always run on their parent's thread and inside
    its interval, so they never overlap one another and the difference
    is the time the span spent in its own code.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.duration
    rows: dict[tuple[str, str], dict[str, float]] = {}
    for span in spans:
        row = rows.setdefault(
            (span.layer, span.name), {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += span.duration - child_time[id(span)]
    return rows


def root_time(spans: list[Span], tid: int) -> float:
    """Seconds thread *tid* spent inside top-level spans."""
    return sum(
        span.duration for span in spans if span.parent is None and span.tid == tid
    )
