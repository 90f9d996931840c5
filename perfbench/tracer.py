"""In-memory span recorder for the traced benchmark run.

Each span is one call into a package layer, recorded from the benchmark's
own code: ``(name, start, end, parent, trial)``, times from
``time.perf_counter`` in seconds, ``parent`` the index of the enclosing
span or -1.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trial = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.trial]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span called ``name``, in record order."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_seconds(self) -> dict[str, float]:
        """Per span name, total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return dict(totals)

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, trial."""
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
