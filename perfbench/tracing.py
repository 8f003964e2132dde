"""Spans around the benchmark's calls into modelk, and the layer table.

A workload names each public call it makes with a span name such as
`defsets.normalize` and calls it through a namespace built here.  Untraced,
the namespace holds the modelk functions themselves, so a timed run
executes no span code.  Traced, each entry records a span (name, start,
end, parent, op id) in memory and feeds the call's counters.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def bind(table, tracer=None):
    """Namespace of callables from {attr: (span name, function, counter)}."""
    if tracer is None:
        return SimpleNamespace(**{attr: fn for attr, (_, fn, _) in table.items()})
    return SimpleNamespace(**{attr: tracer.wrap(name, fn, counter)
                              for attr, (name, fn, counter) in table.items()})


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op_id = -1
        self.counts = Counter()
        self.error_span = None
        self.clock = perf_counter  # the loop sets its own clock

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op_id])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = self.clock()

    def wrap(self, name, fn, counter):
        def traced(*args):
            self.open(name)
            result = None
            try:
                result = fn(*args)
                return result
            except Exception:
                # the innermost span sees the exception first
                self.error_span = self.error_span or name
                raise
            finally:
                self.close()
                if counter is not None:  # result is None when fn raised
                    counter(self.counts, args, result)
        return traced

    def self_times(self, scales):
        """Per span name: calls, total seconds, and self seconds, each span
        scaled by scales[its op id] to the reference speed."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, op) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += (end - start) * scales[op]
            row[2] += (end - start - child[i]) * scales[op]
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
