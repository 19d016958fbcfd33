"""In-memory span recording around the calls into each layer of ``repro``.

The benchmark measures layers from outside: :func:`wrapped` replaces the
names the engine resolves at call time (module globals such as
``repro.hull.soa.visible_flat`` and methods on the classes) with thin
wrappers that record one span per call, and restores the originals on
exit.  No file of the package changes.  Spans stay in memory; the run
writes them out once, at the end, as Chrome trace-event JSON.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator


class DriftError(RuntimeError):
    """A wrap target no longer exists, or an expected layer recorded no
    call: the package's API moved and the trace would silently read 0."""


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1                 # index into Tracer.spans, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans of one thread (the benchmark is single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str, attrs: Callable | None = None) -> Callable:
        """``fn`` recording a span named ``name`` per call; ``attrs``,
        when given, maps the bound arguments and the result to counts
        stored on the span."""
        sig = inspect.signature(fn) if attrs is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs is not None:
                bound = sig.bind(*args, **kwargs).arguments
                self.spans[idx].attrs.update(attrs(bound, result))
            return result

        return traced

    def chrome_events(self, pid: int = 1) -> list[dict]:
        """The spans as Chrome trace-event ``X`` records (Perfetto opens them)."""
        t0 = self.spans[0].start_ns if self.spans else 0
        return [
            {
                "name": s.name, "ph": "X", "pid": pid, "tid": 1,
                "ts": (s.start_ns - t0) / 1e3, "dur": s.dur_ns / 1e3,
                "args": dict(s.attrs, parent=s.parent),
            }
            for s in self.spans
        ]

    def write_chrome(self, path, metadata: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.chrome_events(), "metadata": metadata}, fh)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its child spans cover (spans
    of one thread nest, so children never overlap each other)."""
    own = [s.dur_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.dur_ns
    return own


def resolve(module: str, path: str) -> tuple[object, str, Callable]:
    """``(owner, attribute, current value)`` of ``module.path`` such as
    ``repro.hull.soa`` + ``SoAHullEngine.step_round``; raises
    :class:`DriftError` when any part of it is gone."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    try:
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
    except AttributeError as exc:
        raise DriftError(f"wrap target {module}.{path} is missing: {exc}") from None
    if not callable(fn):
        raise DriftError(f"wrap target {module}.{path} is not callable")
    return owner, attr, fn


@contextlib.contextmanager
def wrapped(tracer: Tracer, targets) -> Iterator[None]:
    """Install a span wrapper on every ``(module, path, span name,
    attrs)`` target for the duration of the block.  Every target is
    resolved before any is replaced, so a missing one fails the run
    before it starts."""
    resolved = [(resolve(mod, path), name, attrs) for mod, path, name, attrs in targets]
    try:
        for (owner, attr, fn), name, attrs in resolved:
            setattr(owner, attr, tracer.wrap(fn, name, attrs))
        yield
    finally:
        for (owner, attr, fn), _, _ in resolved:
            setattr(owner, attr, fn)
