"""In-memory span recorder for the traced benchmark run.

A span is [name, start_ns, end_ns, parent_index, task_id], timed with
time.perf_counter_ns.  Spans stay in a list until the run ends; nothing
is written while tasks run.  Counters and maxima are recorded at the
same call sites as the spans, so ratios come from where the work happens.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    """Records nested spans around calls made by the benchmark's replay code."""

    def __init__(self):
        self.spans = []
        self.task = None
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span called `name`; return its result."""
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.task]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def span(self, name):
        """Context manager form of `call`, for a block of replayed calls."""
        return _Span(self, name)

    def count(self, name, k=1):
        self.counts[name] += k

    def observe_max(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "task": task}) + "\n")


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.rec = [name, 0, 0, tracer._stack[-1] if tracer._stack else -1, tracer.task]

    def __enter__(self):
        tr = self.tracer
        tr._stack.append(len(tr.spans))
        tr.spans.append(self.rec)
        self.rec[1] = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.rec[2] = perf_counter_ns()
        self.tracer._stack.pop()
        return False


def _covered_ns(intervals):
    """Total length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_times(spans):
    """Per span name: (inclusive ns, self ns, number of spans).

    Self time is a span's duration minus the part of it that its direct
    children cover.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = defaultdict(lambda: [0, 0, 0])
    for idx, (name, start, end, _parent, _task) in enumerate(spans):
        dur = end - start
        kids = children.get(idx)
        entry = out[name]
        entry[0] += dur
        entry[1] += dur - (_covered_ns(kids) if kids else 0)
        entry[2] += 1
    return {name: tuple(v) for name, v in out.items()}
