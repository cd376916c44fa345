"""In-memory spans around calls into the package, and self-time arithmetic.

A Tracer replaces a function by a timing wrapper at every name a caller can
look it up under at call time: module globals of the package's modules and
dicts held in them (such as the selector table in ``families``). Calls made
through references bound once at import time (closures, default arguments,
tuples) cannot be reached that way; their time stays in the caller's self
time. Everything is restored by ``restore``.
"""

import functools
import threading
import time
from collections import namedtuple

# One span: name, start and end (perf_counter seconds), cpu (thread_time
# seconds spent in the span), parent (index of the enclosing span in the
# same thread, or None), ident (row or graph id, inherited from the parent
# unless the wrapped call names one) and thread (threading.get_ident()).
Span = namedtuple("Span", "name start end cpu parent ident thread")


class Tracer:
    def __init__(self):
        self.spans = []
        self.results = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def call(self, name, fn, args, kwargs, ident=None, keep_result=False):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        parent, inherited = stack[-1] if stack else (None, None)
        if ident is None:
            ident = inherited
        with self._lock:
            slot = len(self.spans)
            self.spans.append(None)
        stack.append((slot, ident))
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
            self.spans[slot] = Span(name, start, end, cpu, parent, ident,
                                    threading.get_ident())
        if keep_result:
            self.results.setdefault(name, []).append(result)
        return result

    def _wrapper(self, name, fn, ident_of, keep_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = ident_of(args) if ident_of else None
            return self.call(name, fn, args, kwargs, ident, keep_result)
        return traced

    def wrap(self, namespaces, fn, name, ident_of=None, keep_result=False):
        """Replace `fn` by one traced wrapper wherever it is bound in the
        given namespaces (dicts) or in a dict value inside one of them.
        Returns the number of bindings replaced."""
        traced = self._wrapper(name, fn, ident_of, keep_result)
        count = 0
        for ns in namespaces:
            for table in [ns] + [v for v in ns.values() if isinstance(v, dict)]:
                for key, value in list(table.items()):
                    if value is fn:
                        self._patches.append((table, key, value))
                        table[key] = traced
                        count += 1
        return count

    def wrap_method(self, cls, attr, name):
        """Trace a method, such as a constructor, on the class itself."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, None, False))

    def restore(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans (children may overlap each other)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo = max(spans[k].start, reach)
            hi = min(spans[k].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def summarize(spans):
    """{span name: (calls, total self seconds)}."""
    totals = {}
    for s, own in zip(spans, self_times(spans)):
        calls, secs = totals.get(s.name, (0, 0.0))
        totals[s.name] = (calls + 1, secs + own)
    return totals


def off_cpu_s(spans, main_thread):
    """Sum over top-level spans of worker threads of wall time minus thread
    CPU time: the time pool workers spent runnable or waiting for the GIL."""
    return sum((s.end - s.start) - s.cpu for s in spans
               if s.parent is None and s.thread != main_thread)
