"""In-memory span recorder for the traced run.

The benchmark records spans from its own files: :class:`Tracer` wraps the
public classes and functions at each layer boundary of the program,
records one span per call (name, start, end, parent span, attributes) and
keeps them in memory until the run ends.  Nothing inside the program is
changed on disk; :meth:`Tracer.restore` puts every original back.

Methods are wrapped on their class, so every alias sees the wrapper.
Functions are replaced under every module attribute that names them,
so ``from x import f`` copies taken before tracing started are covered too.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  #: index of the enclosing span in ``Tracer.spans``
    attrs: dict[str, Any] = field(default_factory=dict)


#: ``annotate(span, args, kwargs, result)`` adds attributes after a call.
Annotate = Callable[[Span, tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, annotate: Annotate | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return traced

    def patch_method(
        self, cls: type, attr: str, name: str, annotate: Annotate | None = None
    ) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(name, raw.__func__, annotate))
        else:
            wrapped = self.wrap(name, raw, annotate)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def patch_function(self, fn: Callable, name: str, annotate: Annotate | None = None) -> int:
        """Replace ``fn`` wherever a loaded module binds it; returns the count."""
        wrapped = self.wrap(name, fn, annotate)
        count = 0
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)
                    count += 1
        return count

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - covered_length(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def summarize(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: self time, total time of outermost calls, and count.

    A call nested in a span of the same name (``build_benchmark`` calling
    ``build_family``) is one unit of work, so it adds self time but not
    to the count or the total.
    """
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.name, {"self_s": 0.0, "total_s": 0.0, "count": 0})
        row["self_s"] += own
        if span.parent is None or spans[span.parent].name != span.name:
            row["total_s"] += span.end - span.start
            row["count"] += 1
    return out
