"""In-memory spans around the benchmark's calls into wgmono.

A span records name, start, end, the span that caused it, and the op it
belongs to.  Spans stay in memory and are written out once, as JSON
lines, when the benchmark ends.  A disabled tracer records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = None

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body; the yielded dict takes attributes known only after it."""
        if not self.enabled:
            yield attrs
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "op": self._op,
               "parent": self._stack[-1] if self._stack else None,
               "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id, name: str, **attrs):
        """A top-level span whose children share its op identifier."""
        self._op = op_id
        try:
            with self.span(name, **attrs) as a:
                yield a
        finally:
            self._op = None

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # -- summaries over recorded spans

    def select(self, name: str, **match) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in match.items())]

    @staticmethod
    def duration(s: dict) -> float:
        return s["end"] - s["start"]

    def busy(self, name: str, **match) -> float:
        """Total time in spans of this name, excluding reference replays."""
        return sum((self.duration(s) for s in self.select(name, **match)
                    if "ref" not in s["attrs"]), 0.0)

    def count(self, name: str, attr: str) -> int:
        return sum(s["attrs"].get(attr, 0) for s in self.select(name)
                   if "ref" not in s["attrs"])
