"""Benchmark-side spans around calls into ``repro`` layers.

Spans are recorded from the benchmark's own files only (nothing in ``src`` is
edited): call sites wrap a layer call in :meth:`Tracer.span`, and the traced
pass additionally wraps a declared list of public class methods
(:meth:`Tracer.instrument`) so the calls a layer makes into the next one
(``run_scenario`` -> ``build_system`` -> ``start`` -> ``run``) nest under their
caller.  Only coarse calls are wrapped -- never a per-event handler -- so a
traced pass records tens to hundreds of spans, kept in memory and written out
once as Chrome trace-event JSON when the run ends.

A disabled tracer still times its spans but records none, so the same workload
code runs traced and untraced; end-to-end numbers always come from untraced
passes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: ``(layer, class, method name)`` -- one public method to wrap in a span.
Target = Tuple[str, type, str]


class Span:
    """One timed call into a layer (times are seconds since the tracer began)."""

    __slots__ = ("index", "layer", "name", "start", "end", "parent", "job")

    def __init__(self, index: int, layer: str, name: str, start: float,
                 parent: Optional[int], job: Optional[str]) -> None:
        self.index = index
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        #: Index of the span that caused this one (None for a root span).
        self.parent = parent
        #: Spans of one job (one scenario run, one solve, ...) share this id.
        self.job = job

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one benchmark run (single-threaded)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._job: Optional[str] = None
        self._origin = time.perf_counter()

    # ----------------------------------------------------------------- spans
    @contextlib.contextmanager
    def span(self, layer: str, name: str) -> Iterator[Span]:
        """Time one call into ``layer``; recorded only when the tracer is enabled.

        The span is yielded either way, so call sites read ``span.duration``
        without caring whether the pass is traced.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), layer, name,
                    time.perf_counter() - self._origin, parent, self._job)
        if self.enabled:
            self.spans.append(span)
            self._stack.append(span.index)
        try:
            yield span
        finally:
            span.end = time.perf_counter() - self._origin
            if self.enabled:
                self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id: str) -> Iterator[None]:
        """Tag every span opened inside the block with ``job_id``."""
        previous, self._job = self._job, job_id
        try:
            yield
        finally:
            self._job = previous

    @contextlib.contextmanager
    def instrument(self, targets: Iterable[Target]) -> Iterator[None]:
        """Wrap each target method in a span for the duration of the block.

        Methods are patched on their class and restored on exit, so nothing
        outlives the traced pass.  A classmethod stays one.
        """
        if not self.enabled:
            yield
            return
        originals = []
        try:
            for layer, cls, method in targets:
                raw = cls.__dict__[method]
                originals.append((cls, method, raw))
                bound_to_class = isinstance(raw, classmethod)
                function = raw.__func__ if bound_to_class else raw
                wrapped = self._wrap(layer, f"{cls.__name__}.{method}", function)
                setattr(cls, method, classmethod(wrapped) if bound_to_class else wrapped)
            yield
        finally:
            for cls, method, raw in reversed(originals):
                setattr(cls, method, raw)

    def _wrap(self, layer: str, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(layer, name):
                return function(*args, **kwargs)

        return traced

    # --------------------------------------------------------------- analysis
    def total(self, layer: str, name: str) -> float:
        """Summed duration of every span called ``name`` in ``layer``."""
        return sum(s.duration for s in self.spans if s.layer == layer and s.name == name)

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span duration minus what its child spans cover."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.duration
        result: Dict[str, float] = {}
        for span in self.spans:
            own = span.duration - children.get(span.index, 0.0)
            result[span.layer] = result.get(span.layer, 0.0) + own
        return result

    # ----------------------------------------------------------------- export
    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (one complete event per span)."""
        events = [
            {
                "name": f"{span.layer}.{span.name}",
                "cat": span.layer,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span.index, "parent": span.parent, "job": span.job},
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()) + "\n")
