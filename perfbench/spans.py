"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, a layer, start and end times, a parent and the id of
the phase it belongs to.  Spans are kept in memory and written out when
the run ends.  A layer's self time is the time its spans cover minus the
part their child spans cover.

``time.perf_counter`` reads the system-wide monotonic clock, so spans a
build child records line up with the parent's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

#: The layers a span can be charged to, in pipeline order.
LAYERS = (
    "analysis",
    "core.stages",
    "core.ioutil",
    "store",
    "engine",
    "serve",
    "daemon",
    "delta",
    "bench",
)


class Spans:
    """A span recorder; when disabled, :meth:`span` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: List[dict] = []
        self._stack: List[int] = []
        self._phase = 0
        self._phases = 0

    @contextmanager
    def phase(self, name: str):
        """A new phase: a root span whose descendants share its id."""
        if not self.enabled:
            yield
            return
        self._phases += 1
        outer = self._phase
        self._phase = self._phases
        try:
            with self.span(name, "bench"):
                yield
        finally:
            self._phase = outer

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.records) + 1, "name": name, "layer": layer,
                  "parent": self._stack[-1] if self._stack else None,
                  "phase": self._phase, "start": 0.0, "end": 0.0}
        self.records.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, child_spans: Iterable[dict]) -> None:
        """Attach spans recorded by a child process under the open span."""
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        remap: Dict[int, int] = {}
        for span in child_spans:
            new_id = len(self.records) + 1
            remap[span["id"]] = new_id
            self.records.append({
                "id": new_id, "name": span["name"], "layer": span["layer"],
                "parent": remap.get(span["parent"], parent),
                "phase": self._phase, "start": span["start"], "end": span["end"],
            })

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer."""
        child_time: Dict[Optional[int], float] = {}
        for record in self.records:
            duration = record["end"] - record["start"]
            child_time[record["parent"]] = child_time.get(record["parent"], 0.0) + duration
        totals = {layer: 0.0 for layer in LAYERS}
        for record in self.records:
            duration = record["end"] - record["start"]
            totals[record["layer"]] += duration - child_time.get(record["id"], 0.0)
        return totals

    def phase_times(self) -> Dict[str, float]:
        """Seconds of wall time per phase name, summed over rounds."""
        totals: Dict[str, float] = {}
        for record in self.records:
            if record["parent"] is None:
                totals[record["name"]] = (totals.get(record["name"], 0.0)
                                          + record["end"] - record["start"])
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w") as stream:
            json.dump({"spans": self.records}, stream)

