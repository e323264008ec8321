"""Spans recorded from the benchmark's own wrappers around the program's
public functions.

A wrapper replaces a function in the module where its caller looks it up
(for instance `spsgmm.pipeline.magnitude_spectra`, which the pipeline
imported by name), so the program itself is unchanged.  Spans are kept in
memory as (name, start, end, parent); a span's self time is its duration
minus the time its child spans cover.
"""

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (name, t0, t1, parent index or -1)
        self.counts = defaultdict(float)
        self.missing_attrs = set()
        self._stack = []
        self._patches = []

    def patch(self, module, attr, name, count=None):
        """Replace module.attr, until restore(), by a wrapper that records a
        span per call; count(counts, args, result) then adds the call's
        counters.  A missing attribute is remembered, not raised."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing_attrs.add(name)
            return
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if count is not None:
                count(counts, args, out)
            return out

        self._patches.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def totals(self):
        """{name: (calls, total seconds, self seconds)} over all spans."""
        dur = [t1 - t0 for _, t0, t1, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}
