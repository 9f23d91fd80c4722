"""In-memory spans for the traced benchmark run, and the per-layer numbers
derived from them.

Spans are recorded from the benchmark's own files, around the calls it (and
the public entry points it drives) makes into each layer; the simulator's
source is not touched.  Coarse boundaries (a cell, ``Runtime.run``, a
workload build, a replay decode) get one span per call.  The per-access
protocol calls happen millions of times per pass, so they are recorded as
*groups*: one record per (layer, cell) holding the call count, the summed
time and the count of useful outcomes.  Both kinds carry their parent span,
so a layer's self time is its duration minus what its children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

# span record: [id, name, start, end, parent id, cell id]
_ID, _NAME, _START, _END, _PARENT, _CELL = range(6)
# group record: [name, parent id, cell id, calls, total seconds, hits]
_G_NAME, GROUP_PARENT, _G_CELL, _G_CALLS, _G_TOTAL, _G_HITS = range(6)


class SpanLog:
    """Spans and call groups of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.groups: List[list] = []
        self.cell: Optional[str] = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, time.perf_counter(), 0.0, parent, self.cell]
        self.spans.append(record)
        self._stack.append(record[_ID])
        try:
            yield record[_ID]
        finally:
            self._stack.pop()
            record[_END] = time.perf_counter()

    def group(self, name: str) -> list:
        """A call group under the current span; see :func:`timed_calls`."""
        parent = self._stack[-1] if self._stack else None
        record = [name, parent, self.cell, 0, 0.0, 0]
        self.groups.append(record)
        return record

    def to_dict(self) -> dict:
        return {
            "span_fields": ["id", "name", "start", "end", "parent", "cell"],
            "spans": self.spans,
            "group_fields": ["name", "parent", "cell", "calls", "total_s", "hits"],
            "groups": self.groups,
        }


class NullLog:
    """Stand-in for :class:`SpanLog` in untraced passes."""

    cell = None

    @contextmanager
    def span(self, name: str):
        yield None


def timed_calls(fn, group: list, count_hits: bool = False):
    """Wrap a hot callable so each call adds to ``group``.

    With ``count_hits`` a non-None return counts as a useful outcome (the
    protocol's ``try_fast_access`` returns None when it declines).
    """
    clock = time.perf_counter
    if count_hits:
        def wrapper(*args):
            start = clock()
            out = fn(*args)
            group[_G_TOTAL] += clock() - start
            group[_G_CALLS] += 1
            if out is not None:
                group[_G_HITS] += 1
            return out
    else:
        def wrapper(*args):
            start = clock()
            out = fn(*args)
            group[_G_TOTAL] += clock() - start
            group[_G_CALLS] += 1
            return out
    return wrapper


def layer_totals(log: SpanLog) -> Dict[str, dict]:
    """Per span/group name: calls, total seconds, self seconds, hits.

    Self time is a span's duration minus the durations of its child spans
    and the totals of its child groups.  Groups have no children.
    """
    child_time: Dict[int, float] = {}
    for s in log.spans:
        if s[_PARENT] is not None:
            child_time[s[_PARENT]] = (
                child_time.get(s[_PARENT], 0.0) + s[_END] - s[_START]
            )
    for g in log.groups:
        if g[GROUP_PARENT] is not None:
            child_time[g[GROUP_PARENT]] = (
                child_time.get(g[GROUP_PARENT], 0.0) + g[_G_TOTAL]
            )
    out: Dict[str, dict] = {}
    for s in log.spans:
        row = out.setdefault(
            s[_NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0}
        )
        duration = s[_END] - s[_START]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(s[_ID], 0.0)
    for g in log.groups:
        row = out.setdefault(
            g[_G_NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0}
        )
        row["calls"] += g[_G_CALLS]
        row["total_s"] += g[_G_TOTAL]
        row["self_s"] += g[_G_TOTAL]
        row["hits"] += g[_G_HITS]
    return out


@contextmanager
def patched(target, **attrs):
    """Temporarily replace attributes of a module or object."""
    saved = {name: getattr(target, name) for name in attrs}
    for name, value in attrs.items():
        setattr(target, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(target, name, value)
