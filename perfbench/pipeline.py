"""The three Pond pipeline workloads: set-up, one closed-loop iteration, checks.

Importing this module imports ``repro`` (numpy included), so the benchmark
imports it inside the timed set-up.  Every call into the program goes
through its public API; the benchmark never reaches into a replay loop.

A workload is a closed loop with one caller: an iteration starts when the
previous one has returned, and every iteration regenerates its trace,
because a user pays for generation on every study.  All three share one
trace shape: 85% target core utilisation, 2 h mean VM lifetime, 3.5 days,
16-socket pools.  The workload seed is the trace seed; the policy seed (3)
and the fault seed (9) are fixed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster import (
    ClusterSimulator,
    FaultSchedule,
    FleetSimulator,
    PoolTopology,
    TraceGenConfig,
    TraceGenerator,
)
from repro.cluster.fleet import (
    pond_policy_factory,
    prediction_policy_factory,
    static_policy_factory,
)
from repro.core.control_plane.online import OnlineControlConfig
from repro.core.policies import PredictionPolicy
from repro.core.prediction.combined import CombinedOperatingPoint

DURATION_DAYS = 3.5
MEAN_LIFETIME_HOURS = 2.0
TARGET_CORE_UTILIZATION = 0.85
POOL_SIZE_SOCKETS = 16
SAMPLE_INTERVAL_S = 3600.0
POLICY_SEED = 3
FAULT_SEED = 9
FAULT_MTBF_S = 6.0 * 3600.0
FAULT_REPAIR_S = 2.0 * 3600.0
SINGLE_SERVERS = 200
FLEET_SHARDS = 4
FLEET_SERVERS_PER_SHARD = 50
FAULTED_POOL_GB_PER_GROUP = 2000.0
STATIC_FRACTION = 0.3

ONLINE = OnlineControlConfig(qos_threshold_percent=5.0,
                             migration_cost_s_per_gb=0.2)
#: Mitigation switched off: must replay byte-identically to the static path.
ONLINE_DISABLED = OnlineControlConfig(qos_threshold_percent=math.inf,
                                      migration_cost_s_per_gb=0.2)
#: The operating point of the cross-shard scale benchmark.
OPERATING_POINT = CombinedOperatingPoint(
    fp_percent=1.5, op_percent=2.0, li_percent=30.0, um_percent=22.0
)


class OutputMismatch(Exception):
    """A workload's modelled outputs broke a check or their fingerprint."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise OutputMismatch(message)


def parallel_workers() -> int:
    return min(2, os.cpu_count() or 1)


def trace_config(cluster_id: str, n_servers: int, seed: int) -> TraceGenConfig:
    return TraceGenConfig(
        cluster_id=cluster_id,
        n_servers=n_servers,
        duration_days=DURATION_DAYS,
        mean_lifetime_hours=MEAN_LIFETIME_HOURS,
        target_core_utilization=TARGET_CORE_UTILIZATION,
        seed=seed,
    )


# -- fingerprints ------------------------------------------------------------------
def fingerprint(*parts) -> str:
    """SHA-256 over exact values: array bytes, and JSON with exact float reprs."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(f"{part.dtype}{part.shape}".encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def result_parts(result) -> list:
    """The modelled outputs of one ``SimulationResult``, in fingerprint form."""
    return [
        result.sample_buffer.rows(),
        sorted(result.pool_peak_gb.items()),
        sorted(result.server_peak_local_gb.items()),
        sorted(result.server_peak_total_gb.items()),
        result.placed_vms,
        result.rejected_vms,
    ]


def same_replay(a, b) -> bool:
    """True when two replays of one trace agree on every modelled output."""
    return (np.array_equal(a.sample_buffer.rows(), b.sample_buffer.rows())
            and result_parts(a)[1:] == result_parts(b)[1:])


# -- workload shapes ---------------------------------------------------------------
@dataclass
class Shape:
    """What a workload replays, for the traced run's per-layer sweep."""

    configs: List[TraceGenConfig]
    topology: PoolTopology
    capacity_gb: float
    constrain_memory: bool
    policy_factory: Callable[[int], object]

    @property
    def single(self) -> bool:
        return len(self.configs) == 1

    def fault_schedule(self) -> FaultSchedule:
        return FaultSchedule.seeded(
            groups=range(self.topology.n_groups),
            horizon_s=DURATION_DAYS * 86400.0,
            mean_time_between_failures_s=FAULT_MTBF_S,
            repair_delay_s=FAULT_REPAIR_S,
            seed=FAULT_SEED,
        )

    def simulator(self) -> ClusterSimulator:
        """The single-cluster simulator of a one-shard shape."""
        cfg = self.configs[0]
        return ClusterSimulator(
            n_servers=cfg.n_servers,
            server_config=cfg.server_config,
            pool_size_sockets=self.topology.pool_size_sockets,
            pool_capacity_gb_per_group=self.capacity_gb,
            constrain_memory=self.constrain_memory,
            sample_interval_s=SAMPLE_INTERVAL_S,
            record_placements=False,
        )

    def fleet(self, max_workers: Optional[int] = None) -> FleetSimulator:
        return FleetSimulator(
            self.configs,
            pool_capacity_gb_per_group=self.capacity_gb,
            constrain_memory=self.constrain_memory,
            sample_interval_s=SAMPLE_INTERVAL_S,
            max_workers=max_workers,
            pool_topology=self.topology,
        )


def fleet_configs(seed: int) -> List[TraceGenConfig]:
    """The 4x50 fleet both spanning workloads replay."""
    base = trace_config("crossshard", FLEET_SERVERS_PER_SHARD, seed)
    return FleetSimulator.sharded(FLEET_SHARDS, base).shard_configs


def spanning_topology(configs: List[TraceGenConfig]) -> PoolTopology:
    return PoolTopology.spanning([cfg.n_servers for cfg in configs],
                                 configs[0].server_config.sockets,
                                 POOL_SIZE_SOCKETS)


@dataclass
class Outcome:
    """One iteration's work size and checked outputs."""

    n_vms: int
    fingerprint: str
    modelled: Dict[str, object]


class Workload:
    """Set up in ``__init__`` (timed as ``setup_s``); ``iterate`` is one
    closed-loop iteration."""

    name = ""
    shape: Shape

    def iterate(self) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class OnlineSingle(Workload):
    """Prediction, the online QoS/mitigation path and trace generation do
    most of the work: one 200-server cluster, memory unconstrained, no
    topology and no process pool."""

    name = "online_single"

    def __init__(self, seed: int) -> None:
        self.policy = PredictionPolicy.train(seed=POLICY_SEED)
        cfg = trace_config("online-control", SINGLE_SERVERS, seed)
        self.shape = Shape(
            [cfg],
            PoolTopology.per_shard([cfg.n_servers], cfg.server_config.sockets,
                                   POOL_SIZE_SOCKETS),
            math.inf, False, prediction_policy_factory(self.policy),
        )

    def iterate(self) -> Outcome:
        trace = TraceGenerator(self.shape.configs[0]).generate_bulk()
        result = self.shape.simulator().run(trace, self.policy, online=ONLINE)
        stats = result.online_stats
        check(result.placed_vms + result.rejected_vms == len(trace),
              "placed + rejected VMs must equal the trace length")
        check(stats.n_ticks > 0 and stats.n_mitigations > 0,
              "the online stage must tick and mitigate")
        check(len(stats.mitigated_vm_ids) == stats.n_mitigations,
              "one mitigated VM id per mitigation")
        online_parts = [stats.n_ticks, stats.n_checks, stats.n_mitigations,
                        stats.n_failed_mitigations, stats.migrated_gb,
                        stats.migration_time_s, stats.mitigated_vm_ids]
        return Outcome(len(trace), fingerprint(*result_parts(result),
                                               online_parts), {
            "placed_vms": result.placed_vms,
            "rejected_vms": result.rejected_vms,
            "n_mitigations": stats.n_mitigations,
            "migrated_gb": stats.migrated_gb,
            "peak_pool_gb": max(result.pool_peak_gb.values(), default=0.0),
        })


class CapsearchSpanning(Workload):
    """Dozens of memory-constrained, rejection-heavy replays through the
    cross-shard core, plus probe sessions and speculation; prediction and
    generation are a small share.  The fleet generates its own shard traces;
    ``close()`` after each search drops the memos so every iteration does
    the whole search."""

    name = "capsearch_spanning"

    def __init__(self, seed: int) -> None:
        configs = fleet_configs(seed)
        self.factory = pond_policy_factory(OPERATING_POINT, seed=POLICY_SEED)
        self.shape = Shape(configs, spanning_topology(configs), math.inf,
                           False, self.factory)
        self.fleet = self.shape.fleet(max_workers=parallel_workers())

    def iterate(self) -> Outcome:
        try:
            search = self.fleet.capacity_search(self.factory)
        finally:
            self.fleet.close()
        groups = search.pool_capacity_gb_by_group or {}
        check(set(groups) == set(range(self.shape.topology.n_groups)),
              "every fleet pool group must be provisioned")
        check(search.savings.required_total_dram_gb > 0.0,
              "the search must size some DRAM")
        return Outcome(search.total_vms, fingerprint(
            dataclasses.asdict(search.savings), search.baseline_per_server_gb,
            search.pooled_per_server_gb,
            list(search.per_shard_pool_capacity_gb), sorted(groups.items()),
            search.total_vms, search.rejection_budget,
        ), {
            "savings_percent": search.savings.savings_percent,
            "baseline_gb_per_server": search.baseline_per_server_gb,
            "pooled_gb_per_server": search.pooled_per_server_gb,
            "pool_gb_total": search.savings.required_pool_dram_gb,
        })

    def close(self) -> None:
        self.fleet.close()


class FaultedSpanning(Workload):
    """The topology layer's ledger degrade/repair writes and the evacuation
    ladder on the event-loop path, with rejections and no ML: the same 4x50
    spanning fleet, memory constrained, 2,000 GB per pool group."""

    name = "faulted_spanning"

    def __init__(self, seed: int) -> None:
        configs = fleet_configs(seed)
        self.factory = static_policy_factory(fraction=STATIC_FRACTION)
        self.shape = Shape(configs, spanning_topology(configs),
                           FAULTED_POOL_GB_PER_GROUP, True, self.factory)
        self.fleet = self.shape.fleet()
        self.faults = self.shape.fault_schedule()

    def iterate(self) -> Outcome:
        result = self.fleet.run(self.factory, compute_baseline=False,
                                faults=self.faults)
        stats = result.fault_stats
        check(result.placed_vms + result.rejected_vms == result.n_vms,
              "placed + rejected VMs must equal the fleet's VMs")
        check(stats.n_fail_events > 0, "the seeded schedule must fire")
        check(stats.vms_affected >= stats.vms_migrated_local
              + stats.vms_live_migrated + stats.vms_killed,
              "the ladder cannot act on more VMs than were affected")
        parts = [stats.as_dict(), sorted(result.fleet_pool_peak_gb.items())]
        for shard in result.shards:
            parts.extend(result_parts(shard.result))
        return Outcome(result.n_vms, fingerprint(*parts), {
            "placed_vms": result.placed_vms,
            "rejected_vms": result.rejected_vms,
            "n_fail_events": stats.n_fail_events,
            "vms_affected": stats.vms_affected,
            "vms_migrated_local": stats.vms_migrated_local,
            "vms_live_migrated": stats.vms_live_migrated,
            "vms_killed": stats.vms_killed,
            "survival_rate": stats.survival_rate,
        })

    def close(self) -> None:
        self.fleet.close()


WORKLOADS = {cls.name: cls for cls in (OnlineSingle, CapsearchSpanning,
                                       FaultedSpanning)}
