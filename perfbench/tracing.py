"""In-memory spans recorded by the benchmark around calls into wienerid.

A span holds its name, start, end, parent span and realization id.  Spans
are kept in a list while the run lasts and written out once at the end.
Spans wrap calls from the benchmark's own files; the package itself is not
instrumented.  run_experiment looks make_record and run_method up as
module globals of wienerid.bench, so `instrument` swaps in recording
wrappers there for the duration of a traced batch.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

import numpy as np

# The tail percentile reported is the highest percentile, in steps of 0.1
# and at most 99.9, with at least MIN_BEYOND samples beyond it.  Where that
# is not above the median, only the median is reported.
MIN_BEYOND = 10


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    realization: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def null_span(name, realization=None):
    return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, realization: int | None = None):
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, time.perf_counter(), math.nan, parent, realization)
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    @contextmanager
    def instrument(self, bench_module):
        """Record a span around every make_record and run_method call that
        bench_module's own functions make while the context is open."""
        make_record, run_method = bench_module.make_record, bench_module.run_method

        def traced_make_record(config, realization, *args, **kwargs):
            with self.span("bench.make_record", realization):
                return make_record(config, realization, *args, **kwargs)

        def traced_run_method(config, method, record, *args, **kwargs):
            realization = kwargs.get("realization", args[0] if args else None)
            with self.span(f"bench.run_method.{method}", realization):
                return run_method(config, method, record, *args, **kwargs)

        bench_module.make_record, bench_module.run_method = traced_make_record, traced_run_method
        try:
            yield
        finally:
            bench_module.make_record, bench_module.run_method = make_record, run_method

    def seconds(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds(self, name: str) -> list[float]:
        """Duration of each span called `name` minus its direct children."""
        child_total: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_total[s.parent] = child_total.get(s.parent, 0.0) + s.seconds
        return [s.seconds - child_total.get(s.id, 0.0) for s in self.spans if s.name == name]

    def write(self, path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def summarize(samples, scale: float = 1.0) -> dict:
    """Median and the highest tail percentile with at least MIN_BEYOND
    samples beyond it (None when there are too few), with the count."""
    values = np.asarray(samples, dtype=float) * scale
    n = len(values)
    out = {"n": n, "median": float(np.median(values)) if n else math.nan}
    out["tail_pct"] = out["tail"] = None
    pct = min(99.9, math.floor(1000.0 * (1.0 - MIN_BEYOND / n)) / 10.0) if n else 0.0
    if pct > 50:
        out["tail_pct"], out["tail"] = pct, float(np.percentile(values, pct))
    return out
