"""In-memory spans around the program's public functions.

``Tracer.wrap`` replaces a function at the module or class attribute the
program calls it through, so calls made inside the library are seen too.
Each span keeps its name, start, end and parent; nothing is written until
``dump`` at the end of the run.  Self time is a span's duration minus the
time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        orig = owner.__dict__[attr]
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                return orig(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def summary(self, segments=()) -> dict[str, dict]:
        """Per span name: call count, total and self seconds, durations.
        ``segments`` holds (first span, end span, factor) triples; the
        durations of the spans in each are multiplied by its factor."""
        n = len(self.start)
        factor = [1.0] * n
        for first, end, f in segments:
            factor[first:end] = [f] * (end - first)
        dur = [(self.end[i] - self.start[i]) * factor[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [],
                      "child_s": {}} for name in self.names}
        for i in range(n):
            s = out[self.names[self.name[i]]]
            s["calls"] += 1
            s["busy_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            s["durations"].append(dur[i])
            p = self.parent[i]
            if p >= 0:
                ps = out[self.names[self.name[p]]]["child_s"]
                key = self.names[self.name[i]]
                ps[key] = ps.get(key, 0.0) + dur[i]
        return out

    def dump(self, fh) -> None:
        """One JSON line per span: name, parent index, start, end, as
        timed."""
        for i in range(len(self.start)):
            fh.write(json.dumps([self.names[self.name[i]], self.parent[i],
                                 self.start[i], self.end[i]]) + "\n")
