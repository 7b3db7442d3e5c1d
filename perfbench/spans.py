"""In-memory spans taken from outside the program.

A span is opened around a call into one of flsim's public functions by
replacing the module attribute the caller looks up at call time with a
timing wrapper. Nothing inside ``src/`` is edited: the wrappers are
installed by the benchmark and removed again when the traced block ends.

A span's layer is the part of its name before the first dot (``raysim``
for ``raysim.ping``). A layer's self time is the time its spans cover minus
the part covered by their child spans, so the self times of all layers add
up to the duration of the root spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    group: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans and counters, grouped by a label the caller sets
    (one group per setup repetition or measured iteration)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.group = ""
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, self.group))

    def count(self, name: str, value: float) -> None:
        self.counts[self.group][name] += value

    def wrapped(self, func, name, on_result=None):
        """func timed as a span called name; on_result(tracer, result,
        args, kwargs) records counters from the call."""

        def wrapper(*args, **kwargs):
            with self.span(name() if callable(name) else name):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        return wrapper


@contextmanager
def patched(targets):
    """Temporarily replace module attributes: targets is a list of
    (module, attribute, replacement) triples. Attributes the module does
    not have are skipped."""
    saved = []
    try:
        for module, attr, replacement in targets:
            if hasattr(module, attr):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, replacement(getattr(module, attr)))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans, by_name: bool = False) -> dict:
    """Self time per layer (or per span name): each span's duration minus
    its direct children's durations, summed by layer (or name)."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out = defaultdict(float)
    for s in spans:
        out[s.name if by_name else s.layer] += s.duration - child_time[s.sid]
    return dict(out)


def durations(spans, name: str) -> list:
    return [s.duration for s in spans if s.name == name]


def by_group(spans) -> dict:
    out = defaultdict(list)
    for s in spans:
        out[s.group].append(s)
    return dict(out)
