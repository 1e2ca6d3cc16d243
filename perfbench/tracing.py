"""Span tracing around projrep's public functions, from outside the package.

A Tracer replaces a function by a wrapper under the name its caller looks it
up by (a module global or a class attribute), records one span per call
(name, start, end, parent) and puts the original back on restore().  Size
counters run outside the timed window: the tracer's clock skips the time
they take, so no enclosing span is charged for them.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []      # [name, start, end, parent index or None]
        self.calls = {}      # counted-only functions: name -> calls
        self.sizes = {}      # size counters: name -> largest value seen
        self._stack = []
        self._excluded = 0.0
        self._patches = []

    def now(self):
        return self.clock() - self._excluded

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.now(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.now()

    def record_size(self, name, value):
        self.sizes[name] = max(self.sizes.get(name, 0), value)

    def _replace(self, owner, attr, wrapper):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def trace(self, owner, attr, name, sizes=None):
        """Record a span per call of owner.attr; sizes(tracer, args, result)
        runs after the call, outside the timed window."""
        def wrapper(original):
            def traced(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if sizes is not None:
                    start = self.clock()
                    sizes(self, args, result)
                    self._excluded += self.clock() - start
                return result
            return traced
        self._replace(owner, attr, wrapper)

    def count(self, owner, attr, name):
        """Count calls of owner.attr without a span (for very hot functions)."""
        self.calls.setdefault(name, 0)

        def wrapper(original):
            def counted(*args, **kwargs):
                self.calls[name] += 1
                return original(*args, **kwargs)
            return counted
        self._replace(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their
    durations can simply be subtracted."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(spans, roots):
    """Totals per span name of a span list.

    Returns a dict with "self", "inclusive", "calls" and "last" (the duration
    of the last span of that name), each keyed by span name; "layer_self",
    the self time per layer of the spans at or below a span named in
    `roots`; and "root_s", the summed duration of the outermost such spans.
    """
    own = self_times(spans)
    totals = {"self": {}, "inclusive": {}, "calls": {}, "last": {},
              "layer_self": {}, "root_s": 0.0}
    below_root = []
    for i, (name, start, end, parent) in enumerate(spans):
        enclosed = parent is not None and below_root[parent]
        below_root.append(enclosed or name in roots)
        if name in roots and not enclosed:
            totals["root_s"] += end - start
        if below_root[i]:
            layer = name.split(".", 1)[0]
            totals["layer_self"][layer] = totals["layer_self"].get(layer, 0.0) + own[i]
        for key, value in (("self", own[i]), ("inclusive", end - start), ("calls", 1)):
            totals[key][name] = totals[key].get(name, 0) + value
        totals["last"][name] = end - start
    return totals
