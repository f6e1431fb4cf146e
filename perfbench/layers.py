"""Spans around the program's public calls, and the traced run's layer sweep.

Tracing patches public entry points (class methods and module functions)
with wrappers that record a span -- name, start, end, parent span and the
iteration it belongs to -- and restores them afterwards.  Spans stay in
memory until the run writes them out.  Only calls made in this process are
seen: a parallel capacity search runs its probes in worker processes, so
the sweep traces a serial search on the same inputs.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from typing import Dict, List, Union

import numpy as np

from repro.cluster import (
    ClusterSimulator,
    ClusterTrace,
    FaultSchedule,
    FleetSimulator,
    TraceGenerator,
)
from repro.cluster import fleet as fleet_module
from repro.cluster import pool_topology as topology_module
from repro.cluster.pool import SpeculationStats
from repro.core.policies import (
    PondTracePolicy,
    PredictionPolicy,
    StaticFractionPolicy,
)

import pipeline

#: Percentiles tried for the probe-time tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
_MISSING = object()


class Tracer:
    """In-memory span recorder that can wrap callables in spans."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        #: Tag stamped on new spans: an iteration index, or "sweep".
        self.iteration: Union[int, str, None] = None
        self._open: List[int] = []
        self._patched: List[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "iteration": self.iteration,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def patched(self):
        """Wrap every traced public call for the duration of the block."""
        targets = [
            (TraceGenerator, "generate_bulk", "tracegen.generate_bulk"),
            (ClusterTrace, "columns", "trace.columns"),
            (PredictionPolicy, "decide_batch", "policies.decide_batch"),
            (PondTracePolicy, "decide_batch", "policies.decide_batch"),
            (StaticFractionPolicy, "decide_batch", "policies.decide_batch"),
            (PredictionPolicy, "predict_slowdown_batch",
             "policies.predict_slowdown_batch"),
            (ClusterSimulator, "run", "simulator.run"),
            (FleetSimulator, "run", "fleet.run"),
            (FleetSimulator, "capacity_search", "fleet.capacity_search"),
            (fleet_module, "replay_crossshard", "pool_topology.replay_crossshard"),
            (topology_module, "replay_crossshard",
             "pool_topology.replay_crossshard"),
            (fleet_module, "capacity_probe_replay", "pool.capacity_probe_replay"),
        ]
        try:
            for owner, attr, name in targets:
                self._wrap(owner, attr, name)
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- reading spans ------------------------------------------------------------
    @staticmethod
    def seconds(span: dict) -> float:
        return span["end"] - span["start"]

    def total(self, name: str, iteration: int) -> float:
        """Seconds spent in spans of one name within one iteration."""
        return sum(self.seconds(s) for s in self.spans
                   if s["name"] == name and s["iteration"] == iteration)

    def breakdown(self, iteration: int) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds within one iteration."""
        spans = [s for s in self.spans if s["iteration"] == iteration]
        child_time: Dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + self.seconds(s))
        rows: Dict[str, Dict[str, float]] = {}
        for s in spans:
            row = rows.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.seconds(s)
            row["self_s"] += self.seconds(s) - child_time.get(s["id"], 0.0)
        return rows


def tail_percentile(n_samples: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n_samples * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def _replay(shape: pipeline.Shape, traces, **kwargs) -> list:
    """One replay of the shape through its public call, fresh policies."""
    policies = [shape.policy_factory(i) for i in range(len(traces))]
    if shape.single:
        return [shape.simulator().run(traces[0], policies[0], **kwargs)]
    results, _ = topology_module.replay_crossshard(
        traces, policies, [cfg.n_servers for cfg in shape.configs],
        [cfg.server_config for cfg in shape.configs], shape.topology,
        shape.capacity_gb, shape.constrain_memory, pipeline.SAMPLE_INTERVAL_S,
        **kwargs,
    )
    return results


def layer_sweep(workload: pipeline.Workload, tracer: Tracer) -> Dict[str, float]:
    """Time every layer once on this workload's inputs; check the "off" contracts.

    Inputs are generated before any timing, so generation is excluded.  The
    static, mitigation-disabled and empty-fault-schedule replays run on the
    same traces, which is what makes their ratios the switched-off cost.
    """
    shape = workload.shape
    traces = [TraceGenerator(cfg).generate_bulk() for cfg in shape.configs]
    n_vms = sum(len(trace) for trace in traces)
    metrics: Dict[str, float] = {}

    def timed(name: str, call):
        with tracer.span(name) as record:
            value = call()
        return value, tracer.seconds(record)

    _, metrics["trace.columns_s"] = timed(
        "sweep.columns", lambda: [trace.columns() for trace in traces])
    policies = [shape.policy_factory(i) for i in range(len(traces))]
    _, decide_s = timed("sweep.decide", lambda: [
        policy.decide_batch(trace) for policy, trace in zip(policies, traces)])
    metrics["policies.decide_s"] = decide_s
    metrics["policies.predictions_per_s"] = n_vms / decide_s
    predictor = getattr(workload, "policy", None)
    if not isinstance(predictor, PredictionPolicy):
        predictor = PredictionPolicy.train(seed=pipeline.POLICY_SEED)
    pool_gb = [predictor.decide_batch(trace) for trace in traces]
    _, metrics["policies.slowdown_s"] = timed("sweep.slowdown", lambda: [
        predictor.predict_slowdown_batch(trace, pool)
        for trace, pool in zip(traces, pool_gb)])

    static, static_s = timed("sweep.static_replay",
                             lambda: _replay(shape, traces))
    disabled, disabled_s = timed("sweep.online_off_replay", lambda: _replay(
        shape, traces, online=pipeline.ONLINE_DISABLED))
    online, online_s = timed("sweep.online_replay", lambda: _replay(
        shape, traces, online=pipeline.ONLINE))
    empty, empty_s = timed("sweep.empty_faults_replay", lambda: _replay(
        shape, traces, faults=FaultSchedule()))
    faulted, faulted_s = timed("sweep.faulted_replay", lambda: _replay(
        shape, traces, faults=shape.fault_schedule()))
    for off, label in ((disabled, "mitigation-disabled"),
                       (empty, "empty-fault-schedule")):
        pipeline.check(all(map(pipeline.same_replay, static, off)),
                       f"{label} replay differs from the static replay")
    metrics["simulator.static_replay_s"] = static_s
    metrics["simulator.online_replay_s"] = online_s
    metrics["simulator.online_off_over_static"] = disabled_s / static_s
    metrics["simulator.events_per_s"] = 2 * n_vms / static_s
    metrics["simulator.placed_vms"] = sum(r.placed_vms for r in static)
    metrics["simulator.rejected_vms"] = sum(r.rejected_vms for r in static)
    metrics["online.n_checks"] = sum(r.online_stats.n_checks for r in online)
    metrics["online.n_mitigations"] = sum(
        r.online_stats.n_mitigations for r in online)
    metrics["online.migrated_gb"] = sum(
        r.online_stats.migrated_gb for r in online)
    metrics["faults.faulted_replay_s"] = faulted_s
    metrics["faults.empty_over_static"] = empty_s / static_s
    # Event and group counters sit on each failing group's home shard, so
    # summing shards never double-counts a spanning failure.
    for key in ("n_fail_events", "vms_affected", "vms_killed"):
        metrics[f"faults.{key}"] = sum(
            getattr(r.fault_stats, key) for r in faulted)

    factory = shape.policy_factory
    with shape.fleet() as serial_fleet:
        first = len(tracer.spans)
        serial, serial_s = timed("sweep.serial_capacity_search",
                                 lambda: serial_fleet.capacity_search(
                                     factory, traces=traces))
        serial_spans = tracer.spans[first:]
    with shape.fleet(max_workers=pipeline.parallel_workers()) as parallel_fleet:
        parallel, parallel_s = timed("sweep.parallel_capacity_search",
                                     lambda: parallel_fleet.capacity_search(
                                         factory, traces=traces))
    for field in ("savings", "baseline_per_server_gb", "pooled_per_server_gb",
                  "per_shard_pool_capacity_gb", "pool_capacity_gb_by_group",
                  "rejection_budget"):
        pipeline.check(getattr(serial, field) == getattr(parallel, field),
                       f"parallel capacity search differs from serial: {field}")
    probes = [tracer.seconds(s) for s in serial_spans
              if s["name"] == "pool_topology.replay_crossshard"]
    shard_probes = [tracer.seconds(s) for s in serial_spans
                    if s["name"] == "pool.capacity_probe_replay"]
    pipeline.check(bool(probes), "the search must replay the topology")
    tail = tail_percentile(len(probes))
    metrics["pool_topology.replay_s"] = sum(probes)
    metrics["pool_topology.n_replays"] = len(probes)
    metrics["pool_topology.probe_s_p50"] = statistics.median(probes)
    metrics["pool_topology.probe_s_tail"] = float(np.percentile(probes, tail))
    metrics["pool_topology.probe_tail_percentile"] = tail
    metrics["pool.n_probe_replays"] = len(shard_probes)
    metrics["pool.probe_replay_s"] = sum(shard_probes)
    metrics["fleet.capacity_search_s"] = parallel_s
    metrics["fleet.parallel_speedup"] = serial_s / parallel_s
    speculation = parallel.speculation or SpeculationStats()
    metrics["pool.speculation_issued"] = speculation.issued
    metrics["pool.speculation_hits"] = speculation.hits
    metrics["pool.speculation_wasted"] = speculation.wasted
    metrics["pool.speculation_hit_rate"] = speculation.hit_rate
    return metrics
