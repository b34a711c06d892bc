"""In-memory spans around the calls the benchmark makes into the package.

A traced run rebinds a few public names of the package (see :func:`patched`)
so that every call through them opens a span.  Spans stay in memory and are
written out once, when the run ends.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``op`` tags every span with the operation id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec.info
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_least_squares(self, least_squares):
        """Forward every argument unchanged; time and count the residual calls."""
        def traced(residual, *args, **kwargs):
            def counted(p):
                with self.span("residual"):
                    return residual(p)
            with self.span("lsq") as info:
                result = least_squares(counted, *args, **kwargs)
                info["iterations"] = result.iterations
                info["converged"] = bool(result.converged)
            return result
        return traced

    def dump(self, fh, trace: str) -> None:
        """Write one JSON object per span to ``fh``; ``trace`` names this tracer."""
        for s in self.spans:
            fh.write(json.dumps({"trace": trace, "id": s.id, "name": s.name,
                                 "start": s.start, "end": s.end, "parent": s.parent,
                                 "op": s.op, **s.info}) + "\n")


@contextmanager
def patched(tracer: Tracer):
    """Rebind the traced public names for the duration of the block.

    The package looks these names up in its own module namespaces at call
    time, so rebinding them there is enough to see every call.
    """
    from photonpressure import cli, fitting, noise, traces

    targets = [
        (fitting, "least_squares", tracer.wrap_least_squares),
        (cli, "synth_s11", lambda f: tracer.wrap(f, "synth_s11")),
        (cli, "write_complex_trace", lambda f: tracer.wrap(f, "write_complex_trace")),
        (traces, "read_complex_trace", lambda f: tracer.wrap(f, "read_complex_trace")),
        (noise, "extract_current_psd", lambda f: tracer.wrap(f, "extract_current_psd")),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
    try:
        for (module, name, make), (_, _, original) in zip(targets, saved):
            setattr(module, name, make(original))
        yield tracer
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus what its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(children[s.id], s.start, s.end) for s in spans}
