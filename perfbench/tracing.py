"""In-memory spans recorded around the benchmark's calls into binbasis.

A span is (call id, name, start ns, end ns, parent span index); every span
opened while one timed call runs carries that call's id.  Spans stay in a
list until the run ends and are written out in one piece.
"""

from time import perf_counter_ns


class Tracer:
    """Records one span per `call`; nested calls name their parent."""

    def __init__(self):
        self.spans = []
        self.call_id = 0
        self._open = -1

    def new_call(self):
        self.call_id += 1

    def call(self, name, fn, *args):
        parent = self._open
        index = len(self.spans)
        self.spans.append(None)
        self._open = index
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans[index] = (self.call_id, name, start, perf_counter_ns(), parent)
            self._open = parent


class NullTracer:
    """Tracing off: calls go straight through."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


def self_times(spans):
    """Total self time in ns per span name: duration minus child durations."""
    out = {}
    for _, name, start, end, _ in spans:
        out[name] = out.get(name, 0) + (end - start)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            pname = spans[parent][1]
            out[pname] -= end - start
    return out
