"""In-memory spans for the benchmark's traced run.

A span records its id, the name of the layer call it wraps, its start and
end on the `time.perf_counter` clock, the id of the enclosing span and the
id of the pass it belongs to.  Spans stay in memory until the run ends.  The
untraced passes use `NULL`, whose `span` is a shared no-op context, so a
traced pass differs from an untraced one only by its timers.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NOOP = contextlib.nullcontext()


class NullTracer:
    """Records nothing; used by the timed passes."""

    def span(self, name: str):
        return _NOOP


NULL = NullTracer()


class Tracer:
    """Collects spans; `pass_id` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_id: int | str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": None,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
        }
        self._stack.append(record["id"])
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def totals(self, pass_id: int | str) -> dict[str, float]:
        """Seconds per span name within one pass, repeated calls summed."""
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            if rec["pass"] == pass_id:
                out[rec["name"]] += rec["end"] - rec["start"]
        return dict(out)

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
