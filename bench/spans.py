"""In-memory spans around the benchmark's calls into bipx.

A span records a name, start, end and the index of the span open around
it. Spans are kept in a list and written out once, when the run ends. An
untraced run uses a disabled tracer whose spans cost one attribute test.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._open = []

    def span(self, name):
        return _Span(self, name) if self.enabled else _NULL

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        parent = tracer._open[-1] if tracer._open else -1
        self.record = {"name": name, "start": 0.0, "end": 0.0,
                       "parent": parent}

    def __enter__(self):
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._open.pop()
        return False
