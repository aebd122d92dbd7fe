"""In-memory spans recorded around calls into the program's public functions.

A span is (id, name, start, end, parent, run).  Spans live in a list and are
written as JSON lines when the benchmark process ends.  Functions are wrapped
on their module from the benchmark's own process, so the program itself is
unchanged; a wrapped function that runs on a worker thread still records its
span, with the operation span as its parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of [start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one span; the default parent is the current root span."""
        sid = next(self._ids)
        start = time.time()
        try:
            yield sid
        finally:
            with self._lock:
                self.spans.append({
                    "id": sid, "name": name, "start": start,
                    "end": time.time(),
                    "parent": self.root if parent is None else parent,
                    "run": self.run_id})

    @contextmanager
    def root_span(self, name: str):
        """A span that becomes the parent of every span recorded inside it."""
        with self.span(name, parent=0) as sid:
            self.root = sid
            try:
                yield sid
            finally:
                self.root = None

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records a span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(owner, attr, spanned)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: dict[str, float] = {}
        for s in self.spans:
            kids = [(max(a, s["start"]), min(b, s["end"]))
                    for a, b in children.get(s["id"], []) if b > s["start"]
                    and a < s["end"]]
            own = (s["end"] - s["start"]) - union_length(kids)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
