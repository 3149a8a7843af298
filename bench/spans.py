"""Spans and counters recorded around the benchmark's calls into gpbound.

A span is (name, start, end, parent index, item id), with start and end read
from clock.cpu_clock.  Spans are kept in memory and written out when a run
ends.  With tracing off every hook is a no-op, so the end-to-end metrics are
measured on code whose only extra cost is one method call per layer call.
"""

from __future__ import annotations

import contextlib
import statistics
import tracemalloc
from collections import Counter
from dataclasses import dataclass

from clock import cpu_clock

_NULL = contextlib.nullcontext()


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric, the end-to-end metric it should move and where."""

    name: str
    unit: str
    better: str
    moves: str
    workloads: tuple[str, ...]


def _timed(prefix, moves, workloads):
    return [
        LayerMetric(prefix + ".busy_s", "s", "lower", moves, workloads),
        LayerMetric(prefix + ".calls", "count", "lower", moves, workloads),
    ]


_ALL = ("sweep-small", "large-prime", "certify-exact", "certify-threshold")

# Every per-layer metric the traced run reports.  BENCHMARK.json lists the
# same names, units and directions; `moves` and `workloads` record which
# end-to-end metric a change to that layer should move, and on which workload.
LAYER_METRICS: tuple[LayerMetric, ...] = tuple(
    _timed("ntcore.prime_context", "items_per_s", ("sweep-small",))
    + _timed("ntcore.dlog_table", "item_p50_ms", ("large-prime",))
    + _timed("ntcore.factorize", "item_tail_ms", ("certify-exact",))
    + _timed("ntcore.oracle", "item_tail_ms", ("certify-exact",))
    + _timed("characters.moment_sums_all", "items_per_s", ("sweep-small",))
    + [
        LayerMetric("characters.moment_sums_all.peak_mib", "MiB", "lower",
                    "peak_rss_mib", ("sweep-small",)),
    ]
    + _timed("characters.moment_sum_exact", "item_p50_ms", ("large-prime",))
    + [
        LayerMetric("characters.dominance_cases", "count", "higher", "none (guard)",
                    ("sweep-small",)),
    ]
    + _timed("sieve.identity", "items_per_s", ("sweep-small", "large-prime"))
    + _timed("sieve.lower_bound", "items_per_s", ("sweep-small",))
    + [LayerMetric("sieve.configs", "count", "higher", "none (guard)", ("sweep-small",))]
    + _timed("intervals.family", "item_p50_ms", ("large-prime",))
    + [
        LayerMetric("intervals.family.entries", "count", "higher", "none (guard)",
                    ("large-prime",)),
    ]
    + _timed("intervals.envelope", "item_p50_ms", ("large-prime",))
    + _timed("intervals.sweeps", "items_per_s", ("sweep-small",))
    + [
        LayerMetric("enclosure.certificates", "count", "higher", "none (base)",
                    ("certify-exact", "certify-threshold")),
        LayerMetric("enclosure.escalations", "count", "lower", "item_tail_ms",
                    ("certify-exact", "certify-threshold")),
        LayerMetric("enclosure.indeterminate", "count", "lower", "item_tail_ms",
                    ("certify-exact", "certify-threshold")),
    ]
    + _timed("certify.search.optimize_params", "items_per_s", ("certify-exact",))
    + [
        LayerMetric("certify.search.candidates_tried", "count", "lower", "item_p50_ms",
                    ("certify-exact",)),
        LayerMetric("certify.search.feasible_ratio", "ratio", "higher", "items_per_s",
                    ("certify-exact",)),
    ]
    + _timed("certify.certifier.certify_bound", "item_p50_ms", ("certify-exact",))
    + _timed("certify.search.optimize_threshold", "items_per_s", ("certify-threshold",))
    + [
        LayerMetric("certify.search.optimize_threshold.feasible_ratio", "ratio", "higher",
                    "items_per_s", ("certify-threshold",)),
    ]
    + _timed("certify.cases.case_engine", "item_tail_ms", ("certify-threshold",))
    + [
        LayerMetric("certify.cases.case_engine.rows", "count", "higher", "none (guard)",
                    ("certify-threshold",)),
        LayerMetric("certify.cases.case_engine.failed_rows", "count", "lower",
                    "none (guard)", ("certify-threshold",)),
    ]
    + _timed("certify.winchain.derive", "item_p50_ms", ("certify-threshold",))
    + _timed("certify.bounds.compare", "item_p50_ms", ("certify-threshold",))
    + [
        LayerMetric("setup.import_s", "s", "lower", "setup_s", _ALL),
        LayerMetric("setup.inputs_s", "s", "lower", "setup_s", _ALL),
        LayerMetric("trace.overhead_s", "s", "lower", "none (tracing cost per pass)", _ALL),
    ]
)

# Ratios and the count each one is taken over.
RATIO_BASES = {
    "certify.search.feasible_ratio": "certify.search.optimize_params.calls",
    "certify.search.optimize_threshold.feasible_ratio":
        "certify.search.optimize_threshold.calls",
}


class Tracer:
    """Span and counter recorder for one pass; inert when `enabled` is false."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._item = ""

    def span(self, name: str, memory: bool = False):
        """Context manager timing one layer call; `memory` adds tracemalloc."""
        if not self.enabled:
            return _NULL
        return self._span(name, memory)

    def item(self, item_id: str):
        """Root span of one item; layer spans opened inside it are its children."""
        if not self.enabled:
            return _NULL
        self._item = item_id
        return self._span("item", False)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    @contextlib.contextmanager
    def _span(self, name, memory):
        index = len(self.spans)
        self.spans.append(None)  # reserved so children get a stable parent index
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        if memory:
            tracemalloc.start()
        start = cpu_clock()
        try:
            yield
        finally:
            end = cpu_clock()
            if memory:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0.0), peak)
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._item)

    def layer_metrics(self, scales: dict[str, float]) -> dict[str, float]:
        """busy_s (CPU time times the scale of the span's item) and calls per
        span name, plus counters, peaks and ratios."""
        out: dict[str, float] = {}
        for name, start, end, _parent, item in self.spans:
            if name == "item":
                continue
            busy = (end - start) * scales[item]
            out[name + ".busy_s"] = out.get(name + ".busy_s", 0.0) + busy
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        for name, n in self.counts.items():
            out[name] = n
        for name, peak in self.peaks.items():
            out[name + ".peak_mib"] = peak
        for ratio, base in RATIO_BASES.items():
            hits = self.counts.get(ratio + ".hits", 0)
            out[ratio] = hits / out[base] if out.get(base) else 0.0
            out.pop(ratio + ".hits", None)
        return out


def summarize_passes(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of every per-layer metric (0 where absent)."""
    return {
        m.name: statistics.median(p.get(m.name, 0) for p in passes)
        for m in LAYER_METRICS
        if not m.name.startswith(("setup.", "trace."))
    }
