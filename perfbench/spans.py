"""Spans recorded around bmcut's public functions, and their self times.

The recorder wraps public bmcut functions by patching the module attributes
the solver looks them up through, and restores them afterwards; no code under
``src/`` changes.  Each span keeps its name, start, end, parent span and run id
in memory; ``save`` writes them out when the benchmark ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans of a run add up to the duration of
its root span.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import numpy as np

NAME, PARENT, RUN, START, END, INFO = range(6)


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.rows: list[list] = []
        self.run = 0
        self._stack = [-1]

    @contextlib.contextmanager
    def span(self, name: str):
        row = [name, self._stack[-1], self.run, 0.0, 0.0, None]
        self._stack.append(len(self.rows))
        self.rows.append(row)
        t0 = perf_counter()
        try:
            yield
        finally:
            row[END] = perf_counter()
            row[START] = t0
            self._stack.pop()

    def wrap(self, name: str, fn, info=None):
        """A stand-in for ``fn`` that records one span per call.

        ``info(args, result)``, when given, is stored with the span after the
        clock has stopped, so it lands in the parent's self time.
        """
        rows, stack = self.rows, self._stack

        def traced(*args, **kwargs):
            row = [name, stack[-1], self.run, 0.0, 0.0, None]
            stack.append(len(rows))
            rows.append(row)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                row[START] = t0
                row[END] = t1
            if info is not None:
                row[INFO] = info(args, out)
            return out

        return traced

    def save(self, path: str) -> None:
        """Write the spans as arrays: name codes, parent, run, start, end."""
        names = sorted({row[NAME] for row in self.rows})
        code = {nm: k for k, nm in enumerate(names)}
        np.savez_compressed(
            path, names=np.asarray(names),
            name=np.asarray([code[row[NAME]] for row in self.rows], dtype=np.int32),
            parent=np.asarray([row[PARENT] for row in self.rows], dtype=np.int64),
            run=np.asarray([row[RUN] for row in self.rows], dtype=np.int32),
            start=np.asarray([row[START] for row in self.rows]),
            end=np.asarray([row[END] for row in self.rows]))


@contextlib.contextmanager
def instrumented(rec: Recorder, targets):
    """Patch ``(module, attribute, span name, info)`` targets; always restore."""
    saved = []
    try:
        for module, attr, name, info in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, rec.wrap(name, original, info))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class SpanTable:
    """Columnar view of recorded spans with derived self times."""

    def __init__(self, rows: list[list]):
        self.rows = rows
        self.name = np.asarray([row[NAME] for row in rows], dtype=object)
        self.run = np.asarray([row[RUN] for row in rows], dtype=np.int64)
        self.parent = np.asarray([row[PARENT] for row in rows], dtype=np.int64)
        start = np.asarray([row[START] for row in rows], dtype=np.float64)
        end = np.asarray([row[END] for row in rows], dtype=np.float64)
        self.duration = end - start
        has_parent = self.parent >= 0
        children = np.bincount(self.parent[has_parent],
                               weights=self.duration[has_parent],
                               minlength=len(rows))
        self.self_time = self.duration - children

    def mask(self, name: str) -> np.ndarray:
        return self.name == name

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def duration_s(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum())

    def percentile_us(self, name: str, q: float) -> float:
        d = self.duration[self.mask(name)]
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0

    def info(self, name: str, run: int | None = None) -> list:
        mask = self.mask(name)
        if run is not None:
            mask &= self.run == run
        return [self.rows[k][INFO] for k in np.flatnonzero(mask)]

    def total_self_s(self) -> float:
        return float(self.self_time.sum())
