"""Per-layer spans recorded from outside the engine.

``traced(tracer)`` rebinds every entry point in ``HOOKS`` to a timing
wrapper, in the module namespace where ``run_stream`` (or the code it calls)
looks the name up, and puts the original objects back when it exits.  The
benchmark opens the two root spans itself: ``kernel`` around ``run_stream``
and ``generators`` around stream generation.

A span is ``(name, start, end, parent)``, with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory; ``write_spans`` saves them.
"""

import gzip
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


def _count_matching(counts, matching):
    counts["morse.coreduce.critical"] += len(matching.critical)
    counts["morse.coreduce.pairs"] += len(matching.pair_up)


def _count_len(key):
    def count(counts, result):
        counts[key] += len(result)
    return count


def _count_not_none(key):
    def count(counts, result):
        counts[key] += result is not None
    return count


COUNTS = ("morse.coreduce.critical", "morse.coreduce.pairs",
          "stream.atomize.ops", "stream.apply.kernel_updates",
          "morse.flow.out_terms", "matrix.events")

# (module, attribute, span name, what to count from the return value).
# Every layer the benchmark times is listed here and nowhere else; a name
# that a refactor removes makes the traced run fail instead of going quiet.
HOOKS = (
    ("zzmorse.kernel", "coreduce", "morse.coreduce", _count_matching),
    ("zzmorse.kernel", "atomize_forward", "stream.atomize",
     _count_len("stream.atomize.ops")),
    ("zzmorse.kernel", "atomize_backward", "stream.atomize",
     _count_len("stream.atomize.ops")),
    ("zzmorse.kernel", "apply_atomic", "stream.apply",
     _count_not_none("stream.apply.kernel_updates")),
    ("zzmorse.stream", "morse_boundary", "morse.flow",
     _count_len("morse.flow.out_terms")),
    ("zzmorse.stream", "morse_coboundary", "morse.flow",
     _count_len("morse.flow.out_terms")),
    ("zzmorse.kernel", "insert_into_matrix", "matrix.insert",
     _count_not_none("matrix.events")),
    ("zzmorse.kernel", "remove_from_matrix", "matrix.remove",
     _count_not_none("matrix.events")),
    ("zzmorse.kernel", "unpair_in_matrix", "matrix.unpair", None),
)


class MissingHook(RuntimeError):
    """A hooked entry point no longer exists where the benchmark expects it."""


class Tracer:
    """Spans and counts collected while hooks are installed."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = [-1]

    @contextmanager
    def span(self, name):
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1])

    def wrap(self, name, fn, count):
        open_, close, counts = self._open, self._close, self.counts

        def timed(*args, **kwargs):
            idx = open_()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, name, start)
            if count is not None:
                count(counts, result)
            return result

        return timed


def resolve_hooks():
    """The original object behind every hook; raises MissingHook naming any gap."""
    found = []
    missing = []
    for module, attr, name, count in HOOKS:
        try:
            obj = getattr(importlib.import_module(module), attr, None)
        except ImportError:
            obj = None
        if obj is None:
            missing.append("%s.%s" % (module, attr))
        found.append((module, attr, name, count, obj))
    if missing:
        raise MissingHook("hooked entry points not found: " + ", ".join(missing))
    return found


@contextmanager
def traced(tracer):
    """Rebind every hook to a timing wrapper for the duration of the block."""
    hooks = resolve_hooks()
    try:
        for module, attr, name, count, obj in hooks:
            setattr(importlib.import_module(module), attr,
                    tracer.wrap(name, obj, count))
        yield tracer
    finally:
        for module, attr, _, _, obj in hooks:
            setattr(importlib.import_module(module), attr, obj)


def layer_table(spans):
    """Per span name: calls, inclusive seconds and self seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, _), covered in zip(spans, child):
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered
    return dict(table)


def write_spans(spans, path):
    """Save spans as gzipped TSV: name, start and end in microseconds, parent."""
    origin = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt") as fh:
        fh.write("name\tstart_us\tend_us\tparent\n")
        for name, start, end, parent in spans:
            fh.write("%s\t%.1f\t%.1f\t%d\n" % (name, (start - origin) * 1e6,
                                               (end - origin) * 1e6, parent))
