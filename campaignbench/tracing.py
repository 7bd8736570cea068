"""Benchmark-side tracing: in-memory spans, method wrappers, per-layer metrics.

Used only by the traced run (``--trace 1``).  Spans are recorded from the
benchmark's own files around calls into each layer; the program's own
instruments (``phase.*``, ``checkpoint.*``, ``kernel.*``, ``chunk.*``,
``adaptive.*``, ``store.*`` in a :class:`MetricsRegistry`, worker metrics
merged by the campaign) supply the rest.  Spans stay in memory and are
written once, at the end, as Chrome Trace Event JSON (stdlib ``json``),
which Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path


class Tracer:
    """Spans with name, start, end and parent, kept in memory.

    A span's *self time* is its duration minus the time its children
    cover.  Hot leaf calls can be recorded as *aggregates*: they add to
    their parent's child time and to a per-name total, but store no
    individual span.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: ``[name, start, end, parent index or -1, child seconds]``
        self.spans: list[list] = []
        self._open: list[int] = []
        #: ``{name: [calls, seconds]}`` of aggregate-only spans.
        self.aggregates: dict[str, list] = {}

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        record = self.spans[index]
        record[2] = time.perf_counter()
        self._open.pop()
        if record[3] >= 0:
            self.spans[record[3]][4] += record[2] - record[1]

    def aggregate(self, name: str, seconds: float) -> None:
        totals = self.aggregates.setdefault(name, [0, 0.0])
        totals[0] += 1
        totals[1] += seconds
        if self._open:
            self.spans[self._open[-1]][4] += seconds

    def totals(self) -> dict[str, list]:
        """``{name: [calls, total seconds, self seconds]}`` over all spans."""
        table: dict[str, list] = {}
        for name, start, end, _, child in self.spans:
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        for name, (calls, seconds) in self.aggregates.items():
            table[name] = [calls, seconds, seconds]
        return table

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write the spans as Chrome Trace Event JSON (complete events)."""
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "campaignbench"}},
        ]
        for name, start, end, parent, child in self.spans:
            events.append({
                "name": name,
                "cat": "layer",
                "ph": "X",
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "parent": self.spans[parent][0] if parent >= 0 else None,
                    "self_us": (end - start - child) * 1e6,
                },
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata},
                handle,
            )


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._index = self._tracer._begin(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._end(self._index)


# ---------------------------------------------------------------------------
# Wrapping public methods (traced run only)
# ---------------------------------------------------------------------------


def _wrap_call(tracer: Tracer, name: str, function):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)

    return traced


def _wrap_aggregate(tracer: Tracer, name: str, function):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            tracer.aggregate(name, time.perf_counter() - started)

    return traced


def _wrap_iterator(tracer: Tracer, name: str, function):
    """Time each ``next()`` of a backend's injection iterator as a span."""

    @functools.wraps(function)
    def traced(*args, **kwargs):
        iterator = iter(function(*args, **kwargs))
        while True:
            with tracer.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    return traced


def instrument(tracer: Tracer):
    """Wrap the layers' public calls with spans; returns an undo callable.

    The campaign's worker processes are forked after the wrappers are
    installed, so their spans never reach this tracer: on the sharded
    workload worker-side layer time comes from the merged registry.
    """
    import repro.flow
    from repro.injection.campaign import InjectionCampaign
    from repro.simulation.backend import ReferenceBackend
    from repro.simulation.batched import BatchedBackend
    from repro.simulation.runtime import SimulationRun
    from repro.simulation.traces import SignalTrace, TraceSet

    patches = [
        (InjectionCampaign, "lint", _wrap_call, "lint"),
        (repro.flow, "analyse_run", _wrap_call, "flow"),
        (SimulationRun, "run_with_checkpoints", _wrap_call, "golden_run.record"),
        (SimulationRun, "run_from", _wrap_call, "runtime.injection"),
        (SimulationRun, "run", _wrap_call, "runtime.injection"),
        (TraceSet, "first_divergences", _wrap_call, "golden_run.compare"),
        (SignalTrace, "first_divergence", _wrap_aggregate, "traces.first_divergence"),
        (ReferenceBackend, "case_injections", _wrap_iterator, "backend.step"),
        (BatchedBackend, "case_injections", _wrap_iterator, "backend.step"),
    ]
    originals = []
    for owner, attribute, wrapper, name in patches:
        original = owner.__dict__[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, wrapper(tracer, name, original))

    def undo() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return undo


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Every per-layer metric with its unit, in the order they are printed.
LAYER_UNITS = {
    "lint.seconds": "s",
    "flow.seconds": "s",
    "flow.pruned_arc_fraction": "fraction",
    "golden_run.record.seconds": "s",
    "golden_run.compare.seconds": "s",
    "runtime.injection.seconds": "s",
    "runtime.checkpoint_restore.seconds": "s",
    "runtime.frames_stepped": "count",
    "runtime.reconverged_fraction": "fraction",
    "batched.step.seconds": "s",
    "traces.first_divergence.seconds": "s",
    "batched.lanes_retired_fraction": "fraction",
    "batched.fallback_fraction": "fraction",
    "campaign.worker_utilisation": "fraction",
    "campaign.chunk_skew": "ratio",
    "store.artifacts_written": "count",
    "store.bytes_written": "B",
    "adaptive.rounds": "count",
    "adaptive.trials": "count",
    "adaptive.trials_saved_fraction": "fraction",
    "adaptive.round.seconds": "s",
    "estimate.seconds": "s",
    "analysis.seconds": "s",
    "trace.coverage": "fraction",
    "trace.overhead_fraction": "fraction",
}

#: Container spans whose self time is *not* attributed to any layer.
UNATTRIBUTED = ("pass", "campaign.execute")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    traced, tracer: Tracer, registry, events: list[dict], untraced_median_s: float,
    workers: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md for definitions)."""
    snapshot = registry.to_dict()

    def hist(name: str) -> float:
        return snapshot[name]["sum"] if name in snapshot else 0.0

    def count(name: str) -> int:
        return snapshot[name]["value"] if name in snapshot else 0

    spans = tracer.totals()

    def span_total(name: str) -> float:
        return spans[name][1] if name in spans else 0.0

    results = [result for _, result, _ in traced.outputs]
    executed = sum(len(result) for result in results)
    frames = 0
    for campaign, result, _ in traced.outputs:
        duration = campaign.config.duration_ms
        frames += duration * len(campaign.golden_runs())
        frames += sum(
            duration - o.scheduled_time_ms - o.frames_fast_forwarded for o in result
        )
    batched_runs = executed if any(
        campaign.config.backend == "batched" for campaign, _, _ in traced.outputs
    ) else 0
    fallback = count("kernel.fallback.runs")

    chunks = [
        event["data"]["elapsed_s"] for event in events if event["type"] == "ChunkCompleted"
    ]
    parallel_wall = span_total("campaign.execute") if chunks else 0.0
    round_ends = [event["ts"] for event in events if event["type"] == "RoundCompleted"]
    starts = [event["ts"] for event in events if event["type"] == "CampaignStarted"]
    round_seconds = 0.0
    if round_ends:
        round_seconds = (round_ends[-1] - starts[0]) / len(round_ends)

    artifacts, n_bytes = 0, 0
    if traced.store_dir is not None and traced.store_dir.exists():
        for path in traced.store_dir.rglob("*.json"):
            artifacts += 1
            n_bytes += path.stat().st_size

    n_pairs = sum(result.system.n_pairs() for result in results)
    unattributed = sum(spans[name][2] for name in UNATTRIBUTED if name in spans)
    total_runs = sum(campaign.total_runs() for campaign, _, _ in traced.outputs)
    return {
        "lint.seconds": span_total("lint"),
        "flow.seconds": span_total("flow"),
        "flow.pruned_arc_fraction": _ratio(count("prune.arcs"), n_pairs),
        "golden_run.record.seconds": hist("phase.golden_run.seconds"),
        "golden_run.compare.seconds": hist("phase.comparison.seconds"),
        "runtime.injection.seconds": hist("phase.injection_run.seconds"),
        "runtime.checkpoint_restore.seconds": hist("checkpoint.restore.seconds"),
        "runtime.frames_stepped": frames,
        "runtime.reconverged_fraction": _ratio(
            sum(result.n_reconverged() for result in results), executed
        ),
        "batched.step.seconds": hist("kernel.batch_step.seconds"),
        "traces.first_divergence.seconds": span_total("traces.first_divergence"),
        "batched.lanes_retired_fraction": _ratio(
            count("kernel.lanes.retired"), batched_runs - fallback
        ),
        "batched.fallback_fraction": _ratio(fallback, batched_runs),
        "campaign.worker_utilisation": _ratio(sum(chunks), workers * parallel_wall),
        "campaign.chunk_skew": _ratio(max(chunks), statistics.median(chunks)) if chunks else 0.0,
        "store.artifacts_written": artifacts,
        "store.bytes_written": n_bytes,
        "adaptive.rounds": count("adaptive.rounds"),
        "adaptive.trials": sum(result.n_adaptive_trials() for result in results),
        "adaptive.trials_saved_fraction": _ratio(
            sum(result.n_adaptive_trials_saved() for result in results), total_runs
        ),
        "adaptive.round.seconds": round_seconds,
        "estimate.seconds": span_total("estimate"),
        "analysis.seconds": span_total("analysis"),
        "trace.coverage": 1.0 - _ratio(unattributed, traced.wall_s),
        "trace.overhead_fraction": traced.wall_s / untraced_median_s - 1.0,
    }
