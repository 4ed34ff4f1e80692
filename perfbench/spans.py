"""In-memory span tracer for the benchmark and the accounting built on it.

A span is recorded around each call the benchmark makes into a cdcrdyn
module: its name, start, end, parent span and run id.  Spans stay in memory
and are written out once, when the benchmark ends.  Self time is a span's
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter

# span fields, stored as lists for cheap mutation of the end time
ID, PARENT, RUN, NAME, START, END = range(6)


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, run_id=None):
        yield None


class Tracer:
    """Records a span around each call; spans stay in memory until ``write``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.run_id = None

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.run_id, name, clock(), 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][END] = clock()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    @contextmanager
    def span(self, name, run_id=None):
        outer = self.run_id
        if run_id is not None:
            self.run_id = run_id
        sid = self._open(name)
        try:
            yield self.spans[sid]
        finally:
            self._close(sid)
            self.run_id = outer

    def write(self, path):
        keys = ("id", "parent", "run", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def layer_of(name: str) -> str:
    """Module part of a span name ('galerkin.simulate' -> 'galerkin')."""
    return name.split(".", 1)[0]


def within(spans, prefixes):
    """The spans at or below any span whose name starts with one of ``prefixes``."""
    by_id = {s[ID]: s for s in spans}
    keep = set()
    for s in spans:
        p = s
        while p is not None:
            if p[NAME].startswith(prefixes):
                keep.add(s[ID])
                break
            p = by_id.get(p[PARENT])
    return [s for s in spans if s[ID] in keep]


def self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s[START]
        for c in sorted(children[s[ID]], key=lambda c: c[START]):
            lo, hi = max(c[START], reach), min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[ID]] = (s[END] - s[START]) - covered
    return out


def check_nesting(spans):
    """Names of spans that do not lie inside their parent's interval."""
    by_id = {s[ID]: s for s in spans}
    bad = []
    for s in spans:
        if s[END] < s[START]:
            bad.append(s[NAME])
        p = by_id.get(s[PARENT])
        if p is not None and (s[START] < p[START] or s[END] > p[END]):
            bad.append(s[NAME])
    return bad


def account(spans, loops=None):
    """Self time per span name, summed over all span trees.

    ``loops`` maps a solver-call span id to the stepping-loop seconds its
    record reports; that much of the span's self time is booked under
    ``<layer>.loop`` and the rest under the span's own name (recording and
    post-processing).  Spans named without a module prefix are the
    benchmark's own code.  Returns the traced wall (sum of the durations of
    spans whose parent is not among ``spans``) and {row: seconds}; the rows
    sum to the wall.
    """
    st = self_times(spans)
    loops = loops or {}
    rows = defaultdict(float)
    for s in spans:
        own = st[s[ID]]
        if s[ID] in loops:
            inner = min(loops[s[ID]], own)
            rows[layer_of(s[NAME]) + ".loop"] += inner
            own -= inner
        rows[s[NAME] if "." in s[NAME] else "(benchmark)"] += own
    ids = {s[ID] for s in spans}
    wall = sum(s[END] - s[START] for s in spans if s[PARENT] not in ids)
    return wall, dict(rows)
