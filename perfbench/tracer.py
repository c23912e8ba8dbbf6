"""In-memory span recorder and reversible function patching.

A span is one call: its name, start and end (``time.perf_counter`` seconds),
the span that was open when it started (its parent) and an optional tag. The
recorder keeps spans in parallel lists while the program runs and writes them
out once at the end; nothing is written during a run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Records nested spans and remembers every attribute it patched."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = []
        self._tag_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.tag_of: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- identifiers --------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def tag_id(self, tag: str) -> int:
        tid = self._tag_ids.get(tag)
        if tid is None:
            tid = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return tid

    # -- spans --------------------------------------------------------------

    def open(self, nid: int, tag: int = -1) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.tag_of.append(tag)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        # an exception may unwind several frames; drop everything above idx
        while self._stack and self._stack.pop() != idx:
            pass

    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def root_name(self) -> str | None:
        """Name of the outermost open span, or None."""
        return self.names[self.name_of[self._stack[0]]] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str, tag: int = -1):
        """Record the ``with`` block as one span; yields its index."""
        idx = self.open(self.name_id(name), tag)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn, name: str):
        """A stand-in for ``fn`` that records one span per call."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` and remember the original for :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it its children cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        out = [e - s for s, e in zip(self.start, self.end)]
        for p, kids in children.items():
            lo, hi = self.start[p], self.end[p]
            covered = 0.0
            cur_lo = cur_hi = None
            for k in sorted(kids, key=lambda i: self.start[i]):
                a, b = max(self.start[k], lo), min(self.end[k], hi)
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[p] -= covered
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name."""
        table: dict[str, dict[str, float]] = {}
        for nid, s, e, st in zip(self.name_of, self.start, self.end, self.self_times()):
            row = table.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += e - s
            row["self_s"] += st
        return table

    def write(self, path) -> None:
        """Write all spans as gzipped JSON columns plus a per-name summary."""
        doc = {
            "names": self.names,
            "tags": self.tags,
            "columns": ["name", "start", "end", "parent", "tag"],
            "spans": [self.name_of, self.start, self.end, self.parent, self.tag_of],
            "summary": self.summary(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
