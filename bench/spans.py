"""In-memory spans recorded around the package's public functions.

The benchmark swaps a timing wrapper in for a function at the module
attribute its callers look it up from (the sweep loop calls
``fockseries.sweep.truncate``, ``linear_entropy`` calls
``fockseries.entangle.split``), so the program is measured from outside and
nothing under ``src/`` changes.  Every wrapper is put back by ``restore``.

A span is ``[name, start_ns, end_ns, parent, point, extra_ns]``.
``parent`` is the index of the span open when this one started (-1 at the
top), ``point`` the grid point the span works for (None for per-curve work
such as writing a CSV).  An observer runs after the span has ended, and its
own time is kept in ``extra_ns`` so that it is charged to no layer.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

POINT = "point"  # starts a new grid point
INNER = "inner"  # works for the grid point already open
OUTER = "outer"  # per-curve or per-run work, not tied to a point

NAME, START, END, PARENT, PT, EXTRA = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._point = -1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, role: str = INNER, observe=None) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per call.

        ``observe(tracer, args, kwargs, result, exc)`` may add counts.
        """
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if role == POINT:
                self._point += 1
            span = [name, 0, 0, stack[-1] if stack else -1,
                    None if role == OUTER else self._point, 0]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[START] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
                if observe is not None:
                    observe(self, args, kwargs, result, exc)
                    span[EXTRA] = time.perf_counter_ns() - span[END]

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name: duration minus the children's
        durations and the children's observer time."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START] + span[EXTRA]
        totals: dict[str, int] = defaultdict(int)
        for span, inner in zip(self.spans, covered):
            totals[span[NAME]] += span[END] - span[START] - inner
        return totals

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[NAME] == name)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span[NAME], "start_ns": span[START] - t0,
                                     "end_ns": span[END] - t0, "parent": span[PARENT],
                                     "point": span[PT]}) + "\n")
