"""In-memory span recording around the public functions of setvote.

The tracer wraps module attributes from outside the package (nothing under
src/ is edited). Each wrapped call records one span: name, start, end and the
index of the enclosing span; all spans of a run share one run id. Spans are
kept in flat arrays while the run is in progress and written out once it
ends. A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the root span's duration.
"""

from __future__ import annotations

import functools
import time
import uuid
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack = [-1]
        # counts tallied from results at the same boundaries (e.g. voters)
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself (the root)."""
        idx = self._enter(self.name_id(name))
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name, fn, tally=None):
        """Wrap a function; ``name`` is a string or a function of the call's
        arguments returning one; ``tally(counts, result)`` records counts."""
        fixed = self.name_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(*args, **kwargs))
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if tally is not None:
                tally(self.counts, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Wrap a generator function; each step that produces (or ends) the
        iteration is one span, and every produced item is counted."""
        nid = self.name_id(name)
        counter = name + ".items"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._enter(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                self.counts[counter] += 1
                yield item

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        if len(self.stack) != 1:
            raise RuntimeError("summary taken while spans are still open")
        start, end, names, parent = self._columns()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {
            n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span (plus the name table and run id) to an .npz file."""
        start, end, name, parent = self._columns()
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            start=start,
            end=end,
            name=name,
            parent=parent,
        )

    def _columns(self):
        # copies, so the arrays stay resizable (a buffer view would pin them)
        return (
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
        )
