"""In-memory spans around calls into the simulator's layers.

A span records its name, start and end (``time.perf_counter`` seconds),
the span that encloses it and the identifier of the workload run it
belongs to.  Spans stay in memory until the owner writes them out.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "run": self.run_id,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans):
    """Per span name, total duration minus the time its direct children
    cover.  Spans of one process nest and children never overlap."""
    out = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]["name"]
            out[parent] = out.get(parent, 0.0) - (s["end"] - s["start"])
    return out
