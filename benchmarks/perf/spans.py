"""The traced run's span recorder.

Layers are measured from outside: :meth:`SpanRecorder.install` replaces
a bound public method on a live instance with a wrapper that records
``(id, name, start, end, parent, op, count)``.  The stack is per thread, the
spans stay in memory, and :meth:`SpanRecorder.dump` writes them as JSON
when the run ends.  A span with no parent is an operation's root, and
every span below it carries the root's id as ``op``.
"""

import itertools
import json
import threading
import time
from collections import defaultdict


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, count=None):
        """``fn`` with a span around each call.  ``count(result, *args)``
        is the work the call did, counted where it happens."""
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent, op = stack[-1] if stack else (0, span_id)
            stack.append((span_id, op))
            done = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    done = count(result, *args)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, op, done))

        return traced

    def install(self, obj, attribute, name, count=None):
        setattr(obj, attribute, self.wrap(name, getattr(obj, attribute), count))

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def self_times(spans):
    """``{root name: {span name: [calls, self seconds]}}``.

    A span's self time is its duration minus the part its child spans
    cover.  Children of one span run one after another on one thread,
    so their durations add up without overlap, and the self times below
    one root add up to the root's duration."""
    covered = defaultdict(float)
    root_name = {}
    for span_id, name, start, end, parent, _op, _count in spans:
        covered[parent] += end - start
        if not parent:
            root_name[span_id] = name
    out = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for span_id, name, start, end, _parent, op, _count in spans:
        if op not in root_name:
            continue  # cut off by the dump: its operation never finished
        cell = out[root_name[op]][name]
        cell[0] += 1
        cell[1] += (end - start) - covered[span_id]
    return out


def work_counts(spans):
    """``{span name: work counted inside its spans}``."""
    out = defaultdict(int)
    for span in spans:
        out[span[1]] += span[6]
    return out
