"""Spans around calls into the library's layers, and the per-layer figures drawn from them.

A span records a name, a start, an end, the span that was open when it began
(its parent) and the op it belongs to.  The traced run opens spans by
replacing module attributes that callers look up at call time with timing
wrappers; ``Tracer.restore`` puts every original back.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Span record fields; a list per span keeps the wrapper cheap.
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, on_return=None, on_error=None):
        """Return ``fn`` wrapped so that each call opens a span called ``name``.

        ``on_return(counts, result, args, kwargs)`` and
        ``on_error(counts, exc, args, kwargs)`` turn return values and raised
        exceptions into counters.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(rec)
                if on_error is not None:
                    on_error(self.counts, exc, args, kwargs)
                raise
            self._close(rec)
            if on_return is not None:
                on_return(self.counts, result, args, kwargs)
            return result

        return traced

    def install(self, targets):
        """Wrap ``(module, attribute, span name, on_return, on_error)`` targets in place."""
        try:
            for module, attr, name, on_return, on_error in targets:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, on_return, on_error))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        """Put back every attribute ``install`` replaced, newest first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def covered_length(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    count once, so self times never go negative.
    """
    children = defaultdict(list)
    for k, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(k)
    out = []
    for k, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        clipped = [
            (max(spans[c][START], start), min(spans[c][END], end)) for c in children.get(k, ())
        ]
        out.append((end - start) - covered_length(clipped))
    return out


def summarize(spans):
    """Self time, busy time (whole duration) and call count per span name."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"self_s": 0.0, "busy_s": 0.0, "calls": 0})
    for rec, s in zip(spans, selfs):
        entry = by_name[rec[NAME]]
        entry["self_s"] += s
        entry["busy_s"] += rec[END] - rec[START]
        entry["calls"] += 1
    return dict(by_name)
