"""Sharded fleet simulator: million-VM pooling studies across many clusters.

The paper's evaluation replays traces from ~100 production clusters (Section
6.1, Figure 21); one :class:`~repro.cluster.simulator.ClusterSimulator`
models a single cluster, so fleet-scale studies shard the workload across
``N`` independent clusters and merge the results.  Each shard is one
cluster: its own synthetic trace (materialised via the vectorized
``TraceGenerator.generate_bulk`` path, or replayed as a lazy
``GeneratedTraceStream`` when ``stream_chunk_size`` is set so no shard trace
is ever held in full), its own simulator replay, and its own policy
instance.  Because policy decisions are keyed on stable per-VM digests (see
``repro.core.policies``), sharding never changes any VM's allocation -- a
fleet result is exactly the sum of its shards' single-cluster results,
which the fleet benchmark asserts.

Shards are embarrassingly parallel; ``max_workers`` optionally runs them in
a ``concurrent.futures`` process pool (everything a worker needs --
``TraceGenConfig``, the policy factory, optionally a pregenerated trace --
must be picklable, so policy factories are built from module-level
functions via ``functools.partial``).  The default is in-process serial
execution, which is also what the fleet benchmark times so the batch-vs-
callback comparison is not confounded by pool overhead.

Savings are computed per shard in peak-observation mode (the same
uniform-provisioning model as ``PoolDimensioner.evaluate``): the baseline is
a memory-unconstrained replay with no pooling, the pooled requirement is the
uniform per-server local peak plus the uniform per-group pool peak.
:meth:`FleetSimulator.capacity_search` offers the constrained alternative --
the dimensioner's binary search lifted to one shared fleet-wide server DRAM
size with the rejection budget aggregated across shards (DESIGN.md section
5).

Two later extensions relax the strict shard independence: ``pool_topology``
replays the fleet as one merged time-ordered event stream over fleet-owned
pool groups that may span shards (:mod:`repro.cluster.pool_topology`,
DESIGN.md section 8), and the capacity-search probe pools plus the shard
fanout executor are reusable sessions that survive across calls (DESIGN.md
section 7; release with :meth:`FleetSimulator.close` or the context-manager
protocol).
"""

from __future__ import annotations

import functools
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.engine import resolve_engine
from repro.cluster.faults import FaultImpactStats, FaultSchedule
from repro.cluster.pool import (
    CapacityProbeOutcome,
    PoolSavings,
    SpeculationStats,
    _ProbeSessionBase,
    _shutdown_executor,
    bisect_min_dram,
    capacity_candidate_config,
    capacity_probe_replay,
    probe_outcome_of,
    uniform_pool_requirement_gb,
)
from repro.cluster.pool_topology import PoolTopology, replay_crossshard
from repro.cluster.simulator import ClusterSimulator, SimulationResult, TraceInput
from repro.cluster.trace import ClusterTrace
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator, fleet_shard_configs
from repro.core.control_plane.online import (
    OnlineControlConfig,
    OnlineControlStats,
)
from repro.core.policies import (
    AllLocalPolicy,
    PolicyStats,
    PondTracePolicy,
    PredictionPolicy,
    StaticFractionPolicy,
)
from repro.core.prediction.combined import CombinedOperatingPoint

__all__ = [
    "FleetSimulator",
    "FleetResult",
    "FleetShardResult",
    "FleetCapacitySearchResult",
    "PoolTopology",
    "pond_policy_factory",
    "static_policy_factory",
    "all_local_policy_factory",
    "prediction_policy_factory",
]

#: A policy factory builds one fresh policy per shard (index -> policy); it
#: runs inside the worker, so per-shard policies never share mutable state.
PolicyFactory = Callable[[int], object]


# -- picklable policy factories ------------------------------------------------------
def _build_pond_policy(operating_point: CombinedOperatingPoint,
                       kwargs: dict, shard_index: int) -> PondTracePolicy:
    return PondTracePolicy(operating_point, **kwargs)


def pond_policy_factory(operating_point: CombinedOperatingPoint,
                        **kwargs) -> PolicyFactory:
    """Picklable factory producing one ``PondTracePolicy`` per shard.

    All shards share the same seed (default 0 via ``PondTracePolicy``), which
    is safe *and* required: decisions are keyed per VM id, so a VM gets the
    same allocation no matter which shard evaluates it.
    """
    return functools.partial(_build_pond_policy, operating_point, kwargs)


def _build_static_policy(kwargs: dict, shard_index: int) -> StaticFractionPolicy:
    return StaticFractionPolicy(**kwargs)


def static_policy_factory(**kwargs) -> PolicyFactory:
    """Picklable factory producing one ``StaticFractionPolicy`` per shard."""
    return functools.partial(_build_static_policy, kwargs)


def _build_all_local_policy(shard_index: int) -> AllLocalPolicy:
    return AllLocalPolicy()


def all_local_policy_factory() -> PolicyFactory:
    """Picklable factory producing one ``AllLocalPolicy`` per shard."""
    return _build_all_local_policy


def _build_prediction_policy(policy: PredictionPolicy,
                             shard_index: int) -> PredictionPolicy:
    # Fresh stats per shard, shared (read-only) trained models: policies
    # travel to workers by pickle, so the original's counters never alias.
    return PredictionPolicy(
        policy.untouched_model,
        policy.latency_model,
        slice_gb=policy.slice_gb,
        touch_violation_probability=policy.touch_violation_probability,
        seed=policy.seed,
    )


def prediction_policy_factory(policy: Optional[PredictionPolicy] = None,
                              **train_kwargs) -> PolicyFactory:
    """Picklable factory producing one ``PredictionPolicy`` per shard.

    Train once, fan out everywhere: the models are trained here (or passed
    in pre-trained via ``policy``) and shipped to every shard worker by
    pickle, so all shards decide with identical model state.  Like the other
    factories, decisions are keyed per VM id -- a VM gets the same zNUMA
    split no matter which shard evaluates it.
    """
    if policy is None:
        policy = PredictionPolicy.train(**train_kwargs)
    elif train_kwargs:
        raise ValueError("pass either a pre-trained policy or train kwargs")
    return functools.partial(_build_prediction_policy, policy)


@dataclass(frozen=True)
class FleetShardResult:
    """One shard's replay: the cluster result plus savings inputs."""

    shard_id: str
    shard_index: int
    n_vms: int
    n_servers: int
    sockets_per_server: int
    pool_size_sockets: int
    result: SimulationResult
    #: Memory-unconstrained no-pooling uniform baseline, if requested.
    baseline_required_dram_gb: Optional[float]
    policy_stats: Optional[PolicyStats]
    #: Wall-clock seconds of the pooled replay alone (excludes trace
    #: generation and the baseline replay) -- the fleet benchmark compares
    #: these across the batch and per-VM-callback paths.
    run_seconds: float

    @property
    def required_local_dram_gb(self) -> float:
        return self.result.uniform_required_local_dram_gb

    @property
    def required_pool_dram_gb(self) -> float:
        return uniform_pool_requirement_gb(
            self.result, self.pool_size_sockets,
            self.sockets_per_server, self.n_servers,
        )

    @property
    def savings(self) -> PoolSavings:
        """This shard's single-cluster savings (requires a baseline run)."""
        if self.baseline_required_dram_gb is None:
            raise ValueError(
                "shard was run with compute_baseline=False; savings need the "
                "no-pooling baseline"
            )
        return PoolSavings(
            pool_size_sockets=self.pool_size_sockets,
            baseline_dram_gb=self.baseline_required_dram_gb,
            required_local_dram_gb=self.required_local_dram_gb,
            required_pool_dram_gb=self.required_pool_dram_gb,
            average_pool_fraction=self.result.average_pool_fraction,
        )


@dataclass
class FleetResult:
    """Merged view over all shards of one fleet run."""

    shards: List[FleetShardResult] = field(default_factory=list)
    #: Cross-shard pool topology of the run (``None`` for the classic
    #: shardwise path, where every pool group is owned by one shard).
    pool_topology: Optional[PoolTopology] = None
    #: Fleet-level per-group pool peaks (topology runs only), keyed by fleet
    #: group id.  Spanning groups have no owning shard, so their peaks live
    #: here rather than in any shard's ``result.pool_peak_gb``.
    fleet_pool_peak_gb: Optional[Dict[int, float]] = None

    # -- merged per-entity views ----------------------------------------------------
    @property
    def server_peak_local_gb(self) -> Dict[str, float]:
        """Per-server local peaks across the fleet, keyed ``shard/server``."""
        merged: Dict[str, float] = {}
        for shard in self.shards:
            for server_id, peak in shard.result.server_peak_local_gb.items():
                merged[f"{shard.shard_id}/{server_id}"] = peak
        return merged

    @property
    def pool_peak_gb(self) -> Dict[Tuple[str, int], float]:
        """Per-pool-group peaks across the fleet, keyed ``(shard, group)``."""
        merged: Dict[Tuple[str, int], float] = {}
        for shard in self.shards:
            for group, peak in shard.result.pool_peak_gb.items():
                merged[(shard.shard_id, group)] = peak
        return merged

    def results(self) -> Dict[str, SimulationResult]:
        """Per-shard simulation results (e.g. for stranding analysis)."""
        return {shard.shard_id: shard.result for shard in self.shards}

    # -- aggregates -----------------------------------------------------------------
    @property
    def n_vms(self) -> int:
        return sum(s.n_vms for s in self.shards)

    @property
    def placed_vms(self) -> int:
        return sum(s.result.placed_vms for s in self.shards)

    @property
    def rejected_vms(self) -> int:
        return sum(s.result.rejected_vms for s in self.shards)

    @property
    def required_local_dram_gb(self) -> float:
        return sum(s.required_local_dram_gb for s in self.shards)

    @property
    def required_pool_dram_gb(self) -> float:
        """Uniform pool provisioning for the fleet.

        Shardwise runs (and degenerate per-shard topologies) sum each shard's
        own uniform requirement, exactly as before; a spanning topology has
        fleet-owned groups, so the requirement is computed from the fleet
        ledger's per-group peaks instead.
        """
        if self.pool_topology is not None and not self.pool_topology.is_per_shard:
            return self.pool_topology.uniform_pool_requirement_gb(
                self.fleet_pool_peak_gb or {}
            )
        return sum(s.required_pool_dram_gb for s in self.shards)

    @property
    def baseline_dram_gb(self) -> float:
        if any(s.baseline_required_dram_gb is None for s in self.shards):
            raise ValueError("fleet was run with compute_baseline=False")
        return sum(s.baseline_required_dram_gb for s in self.shards)

    @property
    def total_run_seconds(self) -> float:
        """Summed pooled-replay seconds across shards (timing, not savings)."""
        return sum(s.run_seconds for s in self.shards)

    @property
    def policy_stats(self) -> PolicyStats:
        """Policy accounting merged across shards."""
        merged = PolicyStats()
        for shard in self.shards:
            if shard.policy_stats is not None:
                merged.add(shard.policy_stats)
        return merged

    @property
    def online_stats(self) -> OnlineControlStats:
        """Online QoS/mitigation accounting merged across shards.

        All zeros when the fleet ran without ``online=...`` (shards then
        carry no stats) or with mitigation disabled.
        """
        merged = OnlineControlStats()
        for shard in self.shards:
            stats = shard.result.online_stats
            if stats is not None:
                merged.add(stats)
        return merged

    @property
    def fault_stats(self) -> FaultImpactStats:
        """EMC fault-impact accounting merged across shards.

        All zeros when the fleet ran without ``faults=...`` (shards then
        carry no stats) or when no scheduled event fired.
        """
        merged = FaultImpactStats()
        for shard in self.shards:
            stats = shard.result.fault_stats
            if stats is not None:
                merged.add(stats)
        return merged

    @property
    def savings(self) -> PoolSavings:
        """Fleet DRAM savings: the component-wise sum of the shard savings."""
        if not self.shards:
            raise ValueError("fleet result has no shards")
        total_memory = sum(
            s.result.total_memory_gb_allocated for s in self.shards
        )
        total_pool = sum(s.result.total_pool_gb_allocated for s in self.shards)
        return PoolSavings(
            pool_size_sockets=self.shards[0].pool_size_sockets,
            baseline_dram_gb=self.baseline_dram_gb,
            required_local_dram_gb=self.required_local_dram_gb,
            required_pool_dram_gb=self.required_pool_dram_gb,
            average_pool_fraction=(total_pool / total_memory) if total_memory else 0.0,
        )


@dataclass(frozen=True)
class FleetCapacitySearchResult:
    """Output of :meth:`FleetSimulator.capacity_search`.

    ``savings`` is directly comparable with
    :meth:`PoolDimensioner.evaluate_capacity_search` output (and equal to it
    for a single-shard fleet); the extra fields expose the dimensioning the
    search converged on.
    """

    savings: PoolSavings
    #: The shared uniform per-server DRAM the searches converged on.
    baseline_per_server_gb: float
    pooled_per_server_gb: float
    #: Per-shard pool-blade capacity (GB per pool group), aligned with
    #: ``shard_configs``.  Populated for the classic shardwise search and
    #: for degenerate per-shard topologies; empty for spanning topologies,
    #: whose provisioning lives in ``pool_capacity_gb_by_group``.
    per_shard_pool_capacity_gb: Tuple[float, ...]
    total_vms: int
    #: Fleet-aggregated rejection budget the constrained replays had to meet.
    rejection_budget: int
    #: Policy accounting merged across shards.  Counts accumulate over every
    #: search probe (each probe re-evaluates the same VMs), so use the
    #: percentage properties, which are invariant to the number of probes.
    policy_stats: PolicyStats
    #: Cross-shard topology the search provisioned for (``None``: classic
    #: per-shard groups).
    pool_topology: Optional[PoolTopology] = None
    #: Per-group provisioned pool capacity for topology searches, keyed by
    #: fleet group id (uniform within each provisioning domain).
    pool_capacity_gb_by_group: Optional[Dict[int, float]] = None
    #: Speculative-probe accounting of this call (parallel searches only;
    #: ``None`` for sequential searches).  Purely diagnostic -- speculation
    #: never changes probe verdicts or the returned dimensioning.
    speculation: Optional[SpeculationStats] = field(
        default=None, compare=False
    )


@dataclass(frozen=True)
class _ShardSpec:
    """Everything one worker needs to run a shard (must stay picklable)."""

    index: int
    config: TraceGenConfig
    trace: Optional[TraceInput]
    policy_factory: Optional[PolicyFactory]
    batch: bool
    compute_baseline: bool
    pool_size_sockets: int
    pool_capacity_gb_per_group: float
    constrain_memory: bool
    sample_interval_s: float
    scheduler_strategy: str
    #: Placement engine for the shard's replays (see repro.cluster.engine).
    engine: Optional[str] = None
    #: Precomputed no-pooling baseline (skips the baseline replay).
    baseline_required_dram_gb: Optional[float] = None
    #: When set (and no trace is supplied), the worker replays a lazy
    #: ``GeneratedTraceStream`` of this chunk size instead of materialising.
    stream_chunk_size: Optional[int] = None
    #: Online QoS/mitigation stage for the pooled replay (array engine only;
    #: see repro.core.control_plane.online).
    online: Optional[OnlineControlConfig] = None
    #: EMC fault-injection schedule for the pooled replay, already filtered
    #: to this shard's local events (array engine only; see
    #: repro.cluster.faults and DESIGN.md section 11).
    faults: Optional[FaultSchedule] = None


def _shard_trace_input(cfg: TraceGenConfig, trace: Optional[TraceInput],
                       stream_chunk_size: Optional[int]) -> TraceInput:
    """Resolve a shard's replay input: supplied trace/stream, lazy stream,
    or (the legacy default) a freshly materialised trace."""
    if trace is not None:
        return trace
    if stream_chunk_size is not None:
        return TraceGenerator(cfg).stream(stream_chunk_size)
    return TraceGenerator(cfg).generate_bulk()


def _shard_baseline_gb(cfg: TraceGenConfig, trace: TraceInput,
                       sample_interval_s: float, scheduler_strategy: str,
                       engine: Optional[str] = None) -> float:
    """One shard's no-pooling uniform baseline (memory-unconstrained replay)."""
    baseline_sim = ClusterSimulator(
        n_servers=cfg.n_servers,
        server_config=cfg.server_config,
        pool_size_sockets=0,
        constrain_memory=False,
        sample_interval_s=sample_interval_s,
        scheduler_strategy=scheduler_strategy,
        engine=engine,
        record_placements=False,
    )
    return baseline_sim.run(trace).uniform_required_local_dram_gb


def _baseline_task(
    args: Tuple[TraceGenConfig, Optional[TraceInput], float, str,
                Optional[int], Optional[str]]
) -> float:
    """Baseline replay for one shard; module-level so a pool can pickle it."""
    cfg, trace, sample_interval_s, scheduler_strategy, stream_chunk_size, engine = args
    trace = _shard_trace_input(cfg, trace, stream_chunk_size)
    return _shard_baseline_gb(cfg, trace, sample_interval_s, scheduler_strategy,
                              engine)


def _run_shard(spec: _ShardSpec) -> FleetShardResult:
    """Generate (if needed) and replay one shard; module-level for pickling."""
    cfg = spec.config
    trace = _shard_trace_input(cfg, spec.trace, spec.stream_chunk_size)
    policy = spec.policy_factory(spec.index) if spec.policy_factory else None
    simulator = ClusterSimulator(
        n_servers=cfg.n_servers,
        server_config=cfg.server_config,
        pool_size_sockets=spec.pool_size_sockets,
        pool_capacity_gb_per_group=spec.pool_capacity_gb_per_group,
        constrain_memory=spec.constrain_memory,
        sample_interval_s=spec.sample_interval_s,
        scheduler_strategy=spec.scheduler_strategy,
        engine=spec.engine,
        record_placements=False,
    )
    start = time.perf_counter()
    if policy is not None and not spec.batch and hasattr(policy, "decide_batch"):
        # Forced per-VM-callback path (the batch engine's differential /
        # benchmark baseline): hide decide_batch from the simulator.
        result = simulator.run(trace, policy=policy.__call__,
                               online=spec.online, faults=spec.faults)
    else:
        result = simulator.run(trace, policy=policy, online=spec.online,
                               faults=spec.faults)
    run_seconds = time.perf_counter() - start

    baseline = spec.baseline_required_dram_gb
    if baseline is None and spec.compute_baseline:
        baseline = _shard_baseline_gb(
            cfg, trace, spec.sample_interval_s, spec.scheduler_strategy,
            spec.engine,
        )

    return FleetShardResult(
        shard_id=cfg.cluster_id,
        shard_index=spec.index,
        # Every record is either placed or rejected, so this equals the trace
        # length -- without needing a __len__, which streams don't have.
        n_vms=result.placed_vms + result.rejected_vms,
        n_servers=cfg.n_servers,
        sockets_per_server=cfg.server_config.sockets,
        pool_size_sockets=spec.pool_size_sockets,
        result=result,
        baseline_required_dram_gb=baseline,
        policy_stats=getattr(policy, "stats", None),
        run_seconds=run_seconds,
    )


#: Per-process state for fleet capacity-search probe workers, set by the
#: pool initializer (the heavy shard inputs ship once per worker, not per
#: probe; policy factories -- tiny picklables -- travel with each task so
#: one session serves every policy of a study grid).
_FLEET_PROBE_STATE: dict = {}


def _fleet_probe_init(shard_configs, inputs,
                      sample_interval_s, scheduler_strategy, engine) -> None:
    _FLEET_PROBE_STATE.update(
        shard_configs=shard_configs, inputs=inputs,
        sample_interval_s=sample_interval_s,
        scheduler_strategy=scheduler_strategy, engine=engine,
    )


def _run_fleet_probe(
    task: Tuple[Optional[PolicyFactory], int, int, float, Optional[float]]
) -> CapacityProbeOutcome:
    """Probe task: (policy_factory, shard, pool_sockets, pool_capacity, dram).

    The policy is rebuilt per probe (decisions are digest-keyed, so a fresh
    instance decides identically), which makes the returned ``policy_stats``
    a clean per-probe delta.
    """
    factory, shard, pool_sockets, pool_capacity_gb, dram = task
    state = _FLEET_PROBE_STATE
    cfg = state["shard_configs"][shard]
    policy = factory(shard) if factory is not None else None
    result = capacity_probe_replay(
        state["inputs"][shard], policy, cfg.n_servers, cfg.server_config,
        pool_sockets, pool_capacity_gb, dram, state["sample_interval_s"],
        state["scheduler_strategy"], state["engine"],
    )
    return probe_outcome_of(result, policy)


def _run_fleet_topology_probe(
    task: Tuple[Optional[PolicyFactory], PoolTopology,
                Optional[Tuple[Tuple[int, float], ...]], Optional[float]]
) -> CapacityProbeOutcome:
    """Topology probe task: (policy_factory, topology, caps_items, dram).

    A cross-shard replay cannot be split by shard -- its pool groups span
    shards -- so one task is one **whole-fleet** merged replay; parallelism
    for topology searches comes from running speculated bisection candidates
    concurrently, not from sharding.  ``caps_items=None`` is the
    unconstrained provisioning replay (step 3'); otherwise the candidate
    replay against the provisioned per-group capacities.  Policies are
    rebuilt per probe (decisions are digest-keyed, so fresh instances decide
    identically), making the returned ``policy_stats`` a clean per-probe
    delta.
    """
    factory, topology, caps_items, dram = task
    state = _FLEET_PROBE_STATE
    shard_configs = state["shard_configs"]
    n_shards = len(shard_configs)
    n_servers_list = [cfg.n_servers for cfg in shard_configs]
    policies = [
        factory(i) if factory is not None else None for i in range(n_shards)
    ]
    for policy in policies:
        stats = getattr(policy, "stats", None)
        if stats is not None:
            policy.stats = type(stats)()
    if caps_items is None:
        server_cfg_list = [cfg.server_config for cfg in shard_configs]
        capacity: object = float("inf")
        constrain = False
    else:
        candidate = capacity_candidate_config(
            shard_configs[0].server_config, dram
        )
        server_cfg_list = [candidate] * n_shards
        capacity = dict(caps_items)
        constrain = True
    results, ledger = replay_crossshard(
        state["inputs"], policies, n_servers_list, server_cfg_list,
        topology, capacity, constrain, state["sample_interval_s"],
    )
    merged = None
    for policy in policies:
        stats = getattr(policy, "stats", None)
        if stats is not None:
            if merged is None:
                merged = PolicyStats()
            merged.add(stats)
    return CapacityProbeOutcome(
        placed_vms=sum(r.placed_vms for r in results),
        rejected_vms=sum(r.rejected_vms for r in results),
        pool_peak_gb=dict(ledger.peak_gb),
        total_pool_gb=sum(r.total_pool_gb_allocated for r in results),
        total_memory_gb=sum(r.total_memory_gb_allocated for r in results),
        policy_stats=merged,
    )


class _FleetProbeSession(_ProbeSessionBase):
    """Memoised fleet capacity-search probes on a process pool.

    One candidate DRAM size means one replay per shard; the session keys
    probes on ``(factory, shard, pool_sockets, pool_capacity, dram)`` --
    the factory via the shared value-based fingerprint (see
    ``repro.cluster.pool._ProbeSessionBase``), so mutating a factory's
    underlying state between calls invalidates its memos -- and
    dispatches them to workers, so the shards of a candidate run in parallel
    -- and speculative bisection candidates (see
    :meth:`prefetch_bisection`) overlap with the verdict the search is
    waiting on.  Worker policy stats are collected per probe and drained per
    policy factory.

    The session is **reusable across ``capacity_search`` calls**: the pool
    initializer ships the heavy shard-input list once, policy factories ride
    along with each probe task, and memoised outcomes survive between calls
    (probes are deterministic per key).  ``FleetSimulator`` keeps one session
    alive per trace-input set and closes it when the inputs or the fleet
    configuration change; the session also supports the context-manager
    protocol, ``close()`` is idempotent, and a ``weakref.finalize`` guard
    shuts the worker pool down if the session is dropped without closing.

    The pool initializer hands every worker the full shard-input list.
    Under the fork start method (Linux, the deployment target) that is
    copy-on-write -- workers share the parent's trace pages -- but under
    spawn each worker deserialises its own copy, so memory-constrained
    spawn platforms should prefer ``stream_chunk_size`` (lazy streams are
    tiny to ship) over pregenerated materialised traces.
    """

    def __init__(self, fleet: "FleetSimulator",
                 inputs: Sequence[TraceInput]) -> None:
        super().__init__()
        workers = fleet.max_workers or 1
        self._n_shards = len(fleet.shard_configs)
        self._attach_executor(
            ProcessPoolExecutor(
                max_workers=workers,
                initializer=_fleet_probe_init,
                initargs=(
                    list(fleet.shard_configs), list(inputs),
                    fleet.sample_interval_s, fleet.scheduler_strategy,
                    fleet.engine,
                ),
            ),
            max_inflight=max(2 * workers, 2 * self._n_shards),
        )

    def submit(self, factory: Optional[PolicyFactory], shard: int,
               pool_sockets: int, pool_capacity_gb: float,
               dram: Optional[float], speculative: bool = False) -> None:
        """Submit one shard probe unconditionally.

        Deliberately uncapped: :meth:`candidate_rejections` submits probes
        the search *will* block on, so throttling belongs only to the
        speculative :meth:`prefetch_bisection` path (which marks its submits
        ``speculative`` for the adaptive controller's accounting).
        """
        key = (self._token(factory), shard, pool_sockets, pool_capacity_gb,
               dram)
        if key in self._outcomes or key in self._futures:
            return
        self._futures[key] = self._executor.submit(
            _run_fleet_probe, (factory, shard, pool_sockets,
                               pool_capacity_gb, dram)
        )
        if speculative:
            self._mark_speculative(key)

    def outcome(self, factory: Optional[PolicyFactory], shard: int,
                pool_sockets: int, pool_capacity_gb: float,
                dram: Optional[float]) -> CapacityProbeOutcome:
        key = (self._token(factory), shard, pool_sockets, pool_capacity_gb,
               dram)
        self._note_consumed(key)
        cached = self._outcomes.get(key)
        if cached is None:
            future = self._futures.pop(key, None)
            if future is None:
                future = self._executor.submit(
                    _run_fleet_probe, (factory, shard, pool_sockets,
                                       pool_capacity_gb, dram)
                )
            cached = future.result()
            self._record_outcome(key, cached)
        return cached

    # -- whole-fleet topology probes ---------------------------------------------------
    def _topology_key(self, factory, topology: PoolTopology,
                      caps_items: Optional[Tuple[Tuple[int, float], ...]],
                      dram: Optional[float]) -> tuple:
        # key[0] stays the factory token so _record_outcome's per-token
        # stat draining covers topology probes too; "topology" disambiguates
        # from per-shard probe keys.
        return (self._token(factory), "topology", self._token(topology),
                caps_items, dram)

    def submit_topology(self, factory: Optional[PolicyFactory],
                        topology: PoolTopology,
                        caps_items: Optional[Tuple[Tuple[int, float], ...]],
                        dram: Optional[float],
                        speculative: bool = False) -> None:
        """Submit one whole-fleet cross-shard replay (see
        :func:`_run_fleet_topology_probe`)."""
        key = self._topology_key(factory, topology, caps_items, dram)
        if key in self._outcomes or key in self._futures:
            return
        self._futures[key] = self._executor.submit(
            _run_fleet_topology_probe, (factory, topology, caps_items, dram)
        )
        if speculative:
            self._mark_speculative(key)

    def topology_outcome(self, factory: Optional[PolicyFactory],
                         topology: PoolTopology,
                         caps_items: Optional[Tuple[Tuple[int, float], ...]],
                         dram: Optional[float]) -> CapacityProbeOutcome:
        """Blocking whole-fleet topology probe result (memoised)."""
        key = self._topology_key(factory, topology, caps_items, dram)
        self._note_consumed(key)
        cached = self._outcomes.get(key)
        if cached is None:
            future = self._futures.pop(key, None)
            if future is None:
                future = self._executor.submit(
                    _run_fleet_topology_probe,
                    (factory, topology, caps_items, dram)
                )
            cached = future.result()
            self._record_outcome(key, cached)
        return cached

    def prefetch_topology_bisection(
        self, factory: Optional[PolicyFactory], topology: PoolTopology,
        caps_items: Optional[Tuple[Tuple[int, float], ...]],
        lo: float, hi: float, depth: Optional[int] = None,
    ) -> None:
        """Speculatively submit whole-fleet replays for upcoming candidates.

        Each speculated candidate costs one merged replay (fanout 1), so
        topology searches can speculate deeper than the per-shard path for
        the same worker budget; ``depth=None`` defers to the adaptive
        controller.
        """
        if depth is None:
            depth = self._adaptive_depth()
        frontier = [(lo, hi)]
        for _ in range(depth):
            next_frontier = []
            for low, high in frontier:
                if self._inflight_full():
                    return
                mid = (low + high) / 2.0
                self.submit_topology(factory, topology, caps_items, mid,
                                     speculative=True)
                next_frontier.append((low, mid))
                next_frontier.append((mid, high))
            frontier = next_frontier

    def candidate_rejections(self, factory: Optional[PolicyFactory],
                             dram: float, pool_sockets: int,
                             pool_caps: Optional[Sequence[float]]) -> int:
        """Fleet-summed rejections for one candidate (all shards in flight)."""
        pooled = pool_caps is not None
        for shard in range(self._n_shards):
            if pooled:
                self.submit(factory, shard, pool_sockets, pool_caps[shard], dram)
            else:
                self.submit(None, shard, 0, 0.0, dram)
        total = 0
        for shard in range(self._n_shards):
            if pooled:
                outcome = self.outcome(
                    factory, shard, pool_sockets, pool_caps[shard], dram
                )
            else:
                outcome = self.outcome(None, shard, 0, 0.0, dram)
            total += outcome.rejected_vms
        return total

    def prefetch_bisection(self, factory: Optional[PolicyFactory],
                           pool_sockets: int,
                           pool_caps: Optional[Sequence[float]],
                           lo: float, hi: float,
                           depth: Optional[int] = None) -> None:
        """Speculatively submit per-shard probes for upcoming candidates.

        ``depth=None`` defers to the adaptive controller with a fanout of
        one candidate = ``n_shards`` probes; an explicit depth pins it.
        """
        if depth is None:
            depth = self._adaptive_depth(fanout=self._n_shards)
        pooled = pool_caps is not None
        frontier = [(lo, hi)]
        for _ in range(depth):
            next_frontier = []
            for low, high in frontier:
                if self._inflight_full():
                    return
                mid = (low + high) / 2.0
                for shard in range(self._n_shards):
                    if pooled:
                        self.submit(factory, shard, pool_sockets,
                                    pool_caps[shard], mid, speculative=True)
                    else:
                        self.submit(None, shard, 0, 0.0, mid,
                                    speculative=True)
                next_frontier.append((low, mid))
                next_frontier.append((mid, high))
            frontier = next_frontier

    def drain_stats(self, factory: Optional[PolicyFactory]) -> PolicyStats:
        """Merge (and clear) the stat deltas of ``factory``'s new probes.

        Draining keeps reused sessions honest: a probe memoised by an earlier
        call contributed its stats to *that* call's result and is not counted
        again.
        """
        merged = PolicyStats()
        for stats in self._drain_stat_deltas(factory):
            merged.add(stats)
        return merged


class FleetSimulator:
    """Shards a fleet workload across N independent cluster simulations.

    Each shard is one cluster: its own trace (materialised or streamed), its
    own simulator replay, its own policy instance; a fleet result is exactly
    the component-wise sum of its shards' single-cluster results.  Three
    execution modes (DESIGN.md sections 3-5):

    * ``max_workers`` fans shards out over a process pool in :meth:`run` and
      :meth:`compute_baselines`;
    * ``stream_chunk_size`` replays each shard through a lazy
      ``GeneratedTraceStream`` so no shard trace is ever materialised (peak
      trace memory drops from O(trace) to O(generation window + chunk +
      live VMs)); it composes
      with either of the other modes;
    * :meth:`capacity_search` lifts the dimensioner's binary search to the
      whole fleet (one shared per-server DRAM size, rejection budget
      aggregated across shards); with ``max_workers > 1`` its probes run on
      a reusable process-pool session (see DESIGN.md section 7);
    * ``pool_topology`` replays the fleet as one merged event stream over
      fleet-owned pool groups, so a group can span cluster shards
      (DESIGN.md section 8); the degenerate per-shard topology is
      byte-identical to the classic shardwise path.

    Reusable executors (the shard-fanout pool and the capacity-search probe
    session) stay alive across calls; ``close()`` -- or using the fleet as a
    context manager -- releases them.

    Worked example -- a streamed 4-cluster savings study::

        base = TraceGenConfig(n_servers=32, duration_days=3.0)
        fleet = FleetSimulator.sharded(
            4, base, pool_size_sockets=16, stream_chunk_size=8192
        )
        result = fleet.run(pond_policy_factory(operating_point))
        print(result.savings.savings_percent)   # summed across shards

        search = fleet.capacity_search(pond_policy_factory(operating_point))
        print(search.savings.savings_percent)   # constrained-replay variant
    """

    def __init__(
        self,
        shard_configs: Sequence[TraceGenConfig],
        pool_size_sockets: int = 0,
        pool_capacity_gb_per_group: float = float("inf"),
        constrain_memory: bool = False,
        sample_interval_s: float = 3600.0,
        scheduler_strategy: str = "indexed",
        engine: Optional[str] = None,
        max_workers: Optional[int] = None,
        stream_chunk_size: Optional[int] = None,
        pool_topology: Optional[PoolTopology] = None,
    ) -> None:
        if not shard_configs:
            raise ValueError("need at least one shard config")
        ids = [cfg.cluster_id for cfg in shard_configs]
        if len(set(ids)) != len(ids):
            raise ValueError("shard cluster_ids must be unique")
        if stream_chunk_size is not None and stream_chunk_size < 1:
            raise ValueError("stream_chunk_size must be >= 1")
        #: Placement engine for every shard replay ("array" by default; the
        #: object path stays available for differential testing).
        self.engine = resolve_engine(engine, scheduler_strategy)
        self.shard_configs = list(shard_configs)
        if pool_topology is not None:
            self._validate_topology(pool_topology, self.shard_configs,
                                    self.engine)
            if pool_size_sockets not in (0, pool_topology.pool_size_sockets):
                raise ValueError(
                    f"pool_size_sockets={pool_size_sockets} conflicts with "
                    f"the topology's {pool_topology.pool_size_sockets}"
                )
            pool_size_sockets = pool_topology.pool_size_sockets
        #: Cross-shard pool topology; ``None`` keeps the classic shardwise
        #: path where every pool group is confined to one shard.
        self.pool_topology = pool_topology
        self.pool_size_sockets = pool_size_sockets
        self.pool_capacity_gb_per_group = pool_capacity_gb_per_group
        self.constrain_memory = constrain_memory
        self.sample_interval_s = sample_interval_s
        self.scheduler_strategy = scheduler_strategy
        self.max_workers = max_workers
        self.stream_chunk_size = stream_chunk_size
        # capacity_search memos -- (core rejections, total VMs) and the
        # no-pool baseline per (search_steps, rejection_tolerance) -- both
        # pool-size- and policy-independent, so a Figure-21-style grid pays
        # for them once instead of once per cell.  Valid per trace-input set:
        # ``_capacity_cache_key`` holds the ``traces`` argument they were
        # computed for (``None`` = the fleet's own deterministic inputs) by
        # strong reference, so its identity cannot be recycled while cached.
        self._capacity_cache_key: Optional[Sequence[TraceInput]] = None
        self._capacity_core_stats: Optional[Tuple[int, int]] = None
        self._capacity_baseline_cache: Dict[Tuple[int, float], float] = {}
        # Reusable executors (ROADMAP: probe-pool sessions survive across
        # calls).  ``_capacity_inputs`` caches the resolved per-shard replay
        # inputs alongside the memos above, so a reused probe session and a
        # repeated capacity_search agree on input identity; ``close()`` (or
        # the context-manager exit) releases everything.
        self._capacity_inputs: Optional[List[TraceInput]] = None
        self._probe_session: Optional[_FleetProbeSession] = None
        self._probe_session_fingerprint: Optional[tuple] = None
        self._shard_pool: Optional[ProcessPoolExecutor] = None

    @staticmethod
    def _validate_topology(topology: PoolTopology,
                           shard_configs: Sequence[TraceGenConfig],
                           engine: str) -> None:
        if engine != "array":
            # replay_crossshard is built on ArrayPlacementEngine; silently
            # replaying on it while the fleet is configured for the object
            # path would mislabel differential results.
            raise ValueError(
                "cross-shard pool topologies replay on the array engine; "
                "engine='object' / scheduler_strategy='linear' are not "
                "supported with pool_topology"
            )
        if not topology.n_groups:
            raise ValueError(
                "a fleet pool_topology needs pool groups; an unpooled fleet "
                "uses pool_size_sockets=0 without a topology"
            )
        sizes = tuple(cfg.n_servers for cfg in shard_configs)
        if topology.shard_sizes != sizes:
            raise ValueError(
                f"topology maps shard sizes {topology.shard_sizes}, fleet "
                f"has {sizes}"
            )
        server_config = shard_configs[0].server_config
        if any(cfg.server_config != server_config for cfg in shard_configs):
            raise ValueError(
                "cross-shard pool topologies require a homogeneous "
                "ServerConfig across shards"
            )
        if topology.sockets_per_server != server_config.sockets:
            raise ValueError(
                f"topology assumes {topology.sockets_per_server} sockets per "
                f"server, shard configs have {server_config.sockets}"
            )

    # -- lifecycle -------------------------------------------------------------------
    def close(self) -> None:
        """Shut down reusable executors and drop cached capacity inputs.

        Idempotent; the fleet remains usable afterwards (executors and
        sessions are recreated lazily on the next call).
        """
        if self._probe_session is not None:
            self._probe_session.close()
            self._probe_session = None
        self._probe_session_fingerprint = None
        if self._shard_pool is not None:
            self._shard_pool_finalizer.detach()
            self._shard_pool.shutdown(wait=True, cancel_futures=True)
            self._shard_pool = None
        self._capacity_inputs = None
        self._capacity_cache_key = None
        self._capacity_core_stats = None
        self._capacity_baseline_cache = {}

    def __enter__(self) -> "FleetSimulator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _shard_executor(self) -> ProcessPoolExecutor:
        """The reusable shard-fanout pool for :meth:`run` / baselines.

        Kept alive across calls (spawning a pool per call wastes worker
        startup on every cell of a study grid); closed by :meth:`close`.
        """
        if self._shard_pool is None:
            self._shard_pool = ProcessPoolExecutor(max_workers=self.max_workers)
            # GC guard: fleets dropped without close() must not leave worker
            # processes behind until interpreter exit.
            self._shard_pool_finalizer = weakref.finalize(
                self, _shutdown_executor, self._shard_pool
            )
        return self._shard_pool

    # -- constructors ----------------------------------------------------------------
    @classmethod
    def sharded(cls, n_shards: int, base_config: TraceGenConfig,
                **kwargs) -> "FleetSimulator":
        """Homogeneous fleet: ``n_shards`` copies of ``base_config`` with
        per-shard cluster ids and seeds (``base seed + index``)."""
        if n_shards < 1:
            raise ValueError("need at least one shard")
        configs = [
            replace(
                base_config,
                cluster_id=f"{base_config.cluster_id}-shard-{i:03d}",
                region=f"region-{i % 3}",
                seed=base_config.seed + i,
            )
            for i in range(n_shards)
        ]
        return cls(configs, **kwargs)

    @classmethod
    def utilization_sweep(cls, n_shards: int, base_config: TraceGenConfig,
                          utilization_range: Sequence[float] = (0.55, 0.95),
                          seed: int = 3, **kwargs) -> "FleetSimulator":
        """Fleet with utilisation spread over ``utilization_range`` (the
        Figure 2a fleet shape; mirrors ``tracegen.generate_fleet``)."""
        configs = fleet_shard_configs(n_shards, base_config, utilization_range, seed)
        return cls(configs, **kwargs)

    # -- execution -------------------------------------------------------------------
    def generate_traces(self) -> List[ClusterTrace]:
        """Pregenerate every shard's trace (serially, in this process)."""
        return [TraceGenerator(cfg).generate_bulk() for cfg in self.shard_configs]

    def compute_baselines(
        self, traces: Optional[Sequence[TraceInput]] = None
    ) -> List[float]:
        """No-pooling uniform baseline per shard, for reuse across runs.

        The baseline replay is pool-independent, so callers sweeping several
        pool sizes or policies over the same traces should compute it once
        here and pass it to :meth:`run` via ``baselines`` instead of letting
        every run repeat it per shard.
        """
        if traces is not None and len(traces) != len(self.shard_configs):
            raise ValueError(
                f"got {len(traces)} traces for {len(self.shard_configs)} shards"
            )
        tasks = [
            (cfg, traces[i] if traces is not None else None,
             self.sample_interval_s, self.scheduler_strategy,
             self.stream_chunk_size, self.engine)
            for i, cfg in enumerate(self.shard_configs)
        ]
        if self.max_workers and self.max_workers > 1 and len(tasks) > 1:
            try:
                return list(self._shard_executor().map(_baseline_task, tasks))
            except BaseException:
                # Executor hardening: never leave a reusable pool in an
                # unknown state after a failure -- tear it down (a later
                # call recreates it lazily).
                self.close()
                raise
        return [_baseline_task(task) for task in tasks]

    def run(
        self,
        policy_factory: Optional[PolicyFactory] = None,
        traces: Optional[Sequence[TraceInput]] = None,
        batch: bool = True,
        compute_baseline: Optional[bool] = None,
        baselines: Optional[Sequence[float]] = None,
        online: Optional[OnlineControlConfig] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> FleetResult:
        """Run every shard and merge the results.

        ``traces`` optionally supplies pregenerated shard traces (aligned
        with ``shard_configs``); otherwise each worker generates its own,
        which parallelises generation under a process pool.  ``batch``
        selects the vectorized ``decide_batch`` path (default) or forces the
        legacy per-VM callback.  ``compute_baseline`` adds a no-pooling
        baseline replay per shard so savings can be computed; it defaults to
        on exactly when the fleet pools memory.  ``baselines`` supplies
        precomputed per-shard baselines (see :meth:`compute_baselines`) and
        skips those replays entirely.  ``online`` activates the online
        QoS/mitigation stage in every shard's pooled replay (array engine
        only); per-shard accounting lands on each
        ``shard.result.online_stats`` and merges via
        :attr:`FleetResult.online_stats`.  ``faults`` injects a seeded EMC
        fault schedule (see :mod:`repro.cluster.faults`): on the classic
        shardwise path each shard replays the events addressed to it via
        ``FaultSchedule.for_shard``; on a topology run the whole schedule
        feeds the merged cross-shard pump, where ``FaultEvent.group`` ids
        are fleet group ids and the ``shard`` field is ignored.  Impact
        accounting lands on each ``shard.result.fault_stats`` and merges
        via :attr:`FleetResult.fault_stats`.
        """
        if traces is not None and len(traces) != len(self.shard_configs):
            raise ValueError(
                f"got {len(traces)} traces for {len(self.shard_configs)} shards"
            )
        if baselines is not None and len(baselines) != len(self.shard_configs):
            raise ValueError(
                f"got {len(baselines)} baselines for {len(self.shard_configs)} shards"
            )
        if compute_baseline is None:
            compute_baseline = bool(self.pool_size_sockets)
        if self.pool_topology is not None:
            return self._run_topology(
                policy_factory, traces, batch, compute_baseline, baselines,
                online, faults,
            )
        specs = [
            _ShardSpec(
                index=i,
                config=cfg,
                trace=traces[i] if traces is not None else None,
                policy_factory=policy_factory,
                batch=batch,
                compute_baseline=compute_baseline,
                pool_size_sockets=self.pool_size_sockets,
                pool_capacity_gb_per_group=self.pool_capacity_gb_per_group,
                constrain_memory=self.constrain_memory,
                sample_interval_s=self.sample_interval_s,
                scheduler_strategy=self.scheduler_strategy,
                engine=self.engine,
                baseline_required_dram_gb=(
                    baselines[i] if baselines is not None else None
                ),
                stream_chunk_size=self.stream_chunk_size,
                online=online,
                faults=faults.for_shard(i) if faults is not None else None,
            )
            for i, cfg in enumerate(self.shard_configs)
        ]
        if self.max_workers and self.max_workers > 1 and len(specs) > 1:
            try:
                shards = list(self._shard_executor().map(_run_shard, specs))
            except BaseException:
                self.close()
                raise
        else:
            shards = [_run_shard(spec) for spec in specs]
        return FleetResult(shards=shards)

    def _run_topology(
        self,
        policy_factory: Optional[PolicyFactory],
        traces: Optional[Sequence[TraceInput]],
        batch: bool,
        compute_baseline: bool,
        baselines: Optional[Sequence[float]],
        online: Optional[OnlineControlConfig] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> FleetResult:
        """:meth:`run` over a cross-shard pool topology.

        The shards replay as one merged time-ordered event stream against a
        fleet-owned group ledger (:func:`replay_crossshard`), so a pool
        group spanning cluster boundaries is drawn from and released to at
        simulation time.  For a degenerate per-shard topology the per-shard
        results are byte-identical to the classic shardwise path
        (differential-tested); the no-pooling baseline replays are
        pool-independent and reuse the shardwise helper unchanged.

        Shards replay interleaved in one process, so per-shard
        ``run_seconds`` cannot be attributed individually; the replay's
        wall-clock is split evenly so ``FleetResult.total_run_seconds``
        stays the fleet-level truth.
        """
        topology = self.pool_topology
        n_shards = len(self.shard_configs)
        inputs: List[TraceInput] = [
            _shard_trace_input(
                cfg, traces[i] if traces is not None else None,
                self.stream_chunk_size,
            )
            for i, cfg in enumerate(self.shard_configs)
        ]
        policies = [
            policy_factory(i) if policy_factory is not None else None
            for i in range(n_shards)
        ]
        replay_policies = [
            # Forced per-VM-callback path (differential baseline): hide
            # decide_batch from the replay, keep the policy for stats.
            policy.__call__
            if (policy is not None and not batch
                and hasattr(policy, "decide_batch"))
            else policy
            for policy in policies
        ]
        start = time.perf_counter()
        results, ledger = replay_crossshard(
            inputs, replay_policies,
            [cfg.n_servers for cfg in self.shard_configs],
            [cfg.server_config for cfg in self.shard_configs],
            topology, self.pool_capacity_gb_per_group,
            self.constrain_memory, self.sample_interval_s,
            record_placements=False, online=online, faults=faults,
        )
        per_shard_seconds = (time.perf_counter() - start) / n_shards
        shards: List[FleetShardResult] = []
        for i, cfg in enumerate(self.shard_configs):
            baseline = baselines[i] if baselines is not None else None
            if baseline is None and compute_baseline:
                baseline = _shard_baseline_gb(
                    cfg, inputs[i], self.sample_interval_s,
                    self.scheduler_strategy, self.engine,
                )
            shards.append(FleetShardResult(
                shard_id=cfg.cluster_id,
                shard_index=i,
                n_vms=results[i].placed_vms + results[i].rejected_vms,
                n_servers=cfg.n_servers,
                sockets_per_server=cfg.server_config.sockets,
                pool_size_sockets=self.pool_size_sockets,
                result=results[i],
                baseline_required_dram_gb=baseline,
                policy_stats=getattr(policies[i], "stats", None),
                run_seconds=per_shard_seconds,
            ))
        return FleetResult(
            shards=shards,
            pool_topology=topology,
            fleet_pool_peak_gb=dict(ledger.peak_gb),
        )

    # -- fleet-level capacity search ---------------------------------------------------
    def _ensure_probe_session(
        self, inputs: Sequence[TraceInput]
    ) -> _FleetProbeSession:
        """The reusable parallel probe session for the cached inputs.

        One session serves every ``capacity_search`` call over the same
        trace-input set -- worker spawn and trace shipping are paid once per
        grid, not once per cell -- and is invalidated (closed and rebuilt)
        when the fleet configuration changes.  Input-set changes are handled
        by the caller alongside the capacity memos.
        """
        fingerprint = (
            tuple(self.shard_configs), self.sample_interval_s,
            self.scheduler_strategy, self.engine, self.max_workers,
        )
        if (self._probe_session is not None
                and self._probe_session_fingerprint == fingerprint):
            return self._probe_session
        if self._probe_session is not None:
            self._probe_session.close()
        self._probe_session = _FleetProbeSession(self, inputs)
        self._probe_session_fingerprint = fingerprint
        return self._probe_session

    def _close_probe_session(self) -> None:
        if self._probe_session is not None:
            self._probe_session.close()
            self._probe_session = None
            self._probe_session_fingerprint = None

    def capacity_search(
        self,
        policy_factory: Optional[PolicyFactory] = None,
        traces: Optional[Sequence[TraceInput]] = None,
        search_steps: int = 7,
        rejection_tolerance: float = 0.002,
        pool_headroom: float = 1.05,
        pool_size_sockets: Optional[int] = None,
        pool_topology: Optional[PoolTopology] = None,
    ) -> FleetCapacitySearchResult:
        """Fleet-level lift of ``PoolDimensioner``'s capacity search.

        Servers are bought with **one** DRAM configuration fleet-wide, so the
        binary search probes a *shared* candidate per-server DRAM size across
        every shard and aggregates the verdict: a candidate is feasible when
        the summed rejections of all shards' memory-constrained replays stay
        within one fleet-wide budget (per-shard core-only rejections summed,
        plus ``max(1, rejection_tolerance * total_vms)``).  The algorithm
        (DESIGN.md section 5):

        1. one memory-unconstrained no-pool replay per shard fixes the
           rejection budget (computed once, reused by both searches);
        2. binary search the smallest shared per-server DRAM with no pooling
           -- the baseline;
        3. one memory-unconstrained *pooled* replay per shard provisions each
           shard's pool groups at ``pool_headroom`` times the worst observed
           per-group peak (pools span shards only when a ``pool_topology``
           is given -- see below);
        4. binary search the smallest shared per-server DRAM with those
           pools in place.

        Shard replays are reused across search iterations: per-shard
        rejection counts are memoised per candidate DRAM size, and (in the
        sequential mode) the feasibility sum short-circuits as soon as the
        budget is exceeded, so later shards are not replayed for clearly
        infeasible candidates.  With ``stream_chunk_size`` set (and no
        pregenerated ``traces``), every probe replays lazy streams and the
        search never materialises a shard trace.

        With ``max_workers > 1`` the probes run on a process pool: the
        independent up-front replays (rejection budget, baseline upper
        bound, pool provisioning) start together, every candidate's shard
        replays run concurrently, and the bisections speculate their
        bracketing candidates (:func:`repro.cluster.pool.bisect_min_dram`).
        The returned ``PoolSavings`` are identical to the sequential
        search's -- the search path is a pure function of the deterministic
        per-candidate rejection counts.  ``policy_stats`` remains a
        diagnostic aggregate over the probes actually executed; the probe
        multiset differs between the modes (early-exited shards
        sequentially, speculative candidates in parallel), so its counts
        and mixing ratios can differ slightly.

        ``pool_size_sockets`` overrides the fleet's configured pool size for
        this call, so a pool-size sweep can reuse one ``FleetSimulator``:
        the pool-independent work (the rejection budget and the no-pool
        baseline search) is computed once per trace-input set and memoised
        across the sweep -- sound because the fleet's own inputs are
        deterministic per config, and a supplied ``traces`` sequence is
        tracked by identity (strong reference).

        For a single-shard fleet this returns exactly what
        ``PoolDimensioner.evaluate_capacity_search`` returns for the same
        trace, policy, and knobs (enforced by a differential test).  All
        shards must share one ``ServerConfig``: uniform fleet provisioning
        is the premise of the search.

        ``pool_topology`` (per call, or set on the fleet) provisions
        **cross-shard pool groups** instead: step 3 becomes one unconstrained
        cross-shard replay that sizes every fleet group at ``pool_headroom``
        times its provisioning domain's worst peak, and step 4's probes are
        full cross-shard constrained replays against that fleet-owned ledger,
        memoised per candidate DRAM size.  With ``max_workers > 1`` those
        replays ship to the persistent probe session as whole-fleet worker
        tasks: the provisioning replay warm-starts alongside the baseline
        search, and the bisection speculates bracketing candidates (a merged
        replay cannot be split by shard, so candidates -- not shards -- are
        the unit of parallelism).  Parallel and sequential topology searches
        return identical savings and dimensioning (differential-tested).
        A degenerate per-shard topology reproduces the classic search's
        savings and dimensioning byte-identically (differential-tested);
        ``policy_stats`` remains a diagnostic whose probe multiset differs.

        Probe executors are **reused across calls**: the parallel session
        ships the shard inputs to its workers once and survives until the
        trace-input set or the fleet configuration changes (or
        :meth:`close`), so a Figure-21-style grid pays worker spawn and
        trace shipping once, not once per cell.  Memoised probe outcomes
        survive with the session -- sound because probes are deterministic
        per key -- and any exception tears the session down before
        propagating.
        """
        if search_steps < 1:
            raise ValueError("search_steps must be >= 1")
        if rejection_tolerance < 0:
            raise ValueError("rejection_tolerance cannot be negative")
        if pool_headroom < 1.0:
            raise ValueError("pool_headroom must be >= 1.0")
        if traces is not None and len(traces) != len(self.shard_configs):
            raise ValueError(
                f"got {len(traces)} traces for {len(self.shard_configs)} shards"
            )
        server_config = self.shard_configs[0].server_config
        if any(cfg.server_config != server_config for cfg in self.shard_configs):
            raise ValueError(
                "capacity_search requires a homogeneous ServerConfig across "
                "shards (servers are provisioned with one DRAM size fleet-wide)"
            )
        n_shards = len(self.shard_configs)
        total_servers = sum(cfg.n_servers for cfg in self.shard_configs)
        topology = pool_topology if pool_topology is not None \
            else self.pool_topology
        if topology is not None:
            self._validate_topology(topology, self.shard_configs, self.engine)
            if pool_size_sockets is not None \
                    and pool_size_sockets != topology.pool_size_sockets:
                raise ValueError(
                    f"pool_size_sockets={pool_size_sockets} conflicts with "
                    f"the topology's {topology.pool_size_sockets}"
                )
            pool_size = topology.pool_size_sockets
        else:
            pool_size = self.pool_size_sockets if pool_size_sockets is None \
                else pool_size_sockets
        if traces is not self._capacity_cache_key:
            self._capacity_cache_key = traces
            self._capacity_core_stats = None
            self._capacity_baseline_cache = {}
            # The probe session shipped the previous input set to its
            # workers; a new input set invalidates both.
            self._capacity_inputs = None
            self._close_probe_session()

        # Per-shard replay inputs, resolved once per input set and cached so
        # repeated searches (and the reusable probe session) agree on input
        # identity: a pregenerated trace, a re-iterable lazy stream, or a
        # materialised trace (legacy default).
        if self._capacity_inputs is None:
            self._capacity_inputs = [
                _shard_trace_input(
                    cfg, traces[i] if traces is not None else None,
                    self.stream_chunk_size,
                )
                for i, cfg in enumerate(self.shard_configs)
            ]
        inputs = self._capacity_inputs
        parallel = bool(self.max_workers and self.max_workers > 1)
        session = self._ensure_probe_session(inputs) if parallel else None
        #: Parent-process policy instances for sequential probes (parallel
        #: probes -- per-shard and whole-fleet topology replays alike --
        #: rebuild their policies inside the worker).
        policies = [
            policy_factory(i)
            if policy_factory is not None and not parallel
            else None
            for i in range(n_shards)
        ]
        inf = float("inf")
        baseline_key = (search_steps, rejection_tolerance)
        try:
            if session is not None:
                # Warm start: every probe chain that does not depend on a
                # previous verdict begins immediately -- budget replays,
                # the baseline search's upper bound, and (classic path) the
                # pool provisioning replays all overlap.
                for shard in range(n_shards):
                    if self._capacity_core_stats is None:
                        session.submit(None, shard, 0, inf, None)
                    if baseline_key not in self._capacity_baseline_cache:
                        session.submit(
                            None, shard, 0, 0.0, server_config.total_dram_gb
                        )
                    if pool_size and topology is None:
                        session.submit(
                            policy_factory, shard, pool_size, inf, None
                        )
                if pool_size and topology is not None:
                    # The whole-fleet provisioning replay (step 3') depends
                    # on no verdict either; it overlaps the baseline search.
                    session.submit_topology(
                        policy_factory, topology, None, None
                    )

            def replay(shard: int, dram_per_server_gb: Optional[float],
                       pool_sockets: int, pool_capacity_gb: float,
                       policy) -> SimulationResult:
                cfg = self.shard_configs[shard]
                return capacity_probe_replay(
                    inputs[shard], policy, cfg.n_servers, cfg.server_config,
                    pool_sockets, pool_capacity_gb, dram_per_server_gb,
                    self.sample_interval_s, self.scheduler_strategy,
                    self.engine,
                )

            # 1. Rejection budget: core/NUMA-fragmentation rejections can
            # never be fixed by DRAM, so they are excluded from every
            # candidate's verdict.  Computed once, shared by both searches
            # (and memoised across calls for the fleet's own deterministic
            # inputs).
            if self._capacity_core_stats is not None:
                core_only_rejections, total_vms = self._capacity_core_stats
            else:
                total_vms = 0
                core_only_rejections = 0
                for shard in range(n_shards):
                    if session is not None:
                        outcome = session.outcome(None, shard, 0, inf, None)
                        core_only_rejections += outcome.rejected_vms
                        total_vms += outcome.placed_vms + outcome.rejected_vms
                    else:
                        result = replay(shard, None, 0, inf, None)
                        core_only_rejections += result.rejected_vms
                        total_vms += result.placed_vms + result.rejected_vms
                self._capacity_core_stats = (core_only_rejections, total_vms)
            budget = core_only_rejections + max(
                1, int(rejection_tolerance * total_vms)
            )

            #: (shard, dram, pooled?) -> rejections; search probes repeat
            #: candidates only rarely, but early-exited shards return cheaply.
            rejection_cache: Dict[Tuple[int, float, bool], int] = {}

            def total_rejections(dram: float,
                                 pool_caps: Optional[List[float]]) -> int:
                total = 0
                pooled = pool_caps is not None
                for shard in range(n_shards):
                    key = (shard, dram, pooled)
                    rejections = rejection_cache.get(key)
                    if rejections is None:
                        if pooled:
                            result = replay(
                                shard, dram, pool_size, pool_caps[shard],
                                policies[shard],
                            )
                        else:
                            result = replay(shard, dram, 0, 0.0, None)
                        rejections = result.rejected_vms
                        rejection_cache[key] = rejections
                    total += rejections
                    if total > budget:
                        break  # infeasible already; skip the remaining shards
                return total

            def min_shared_server_dram(pool_caps: Optional[List[float]]) -> float:
                """Smallest shared per-server DRAM that fits, via the common
                bisection helper.  Sequential probes early-exit the shard
                sum; parallel probes run every shard of a candidate (and the
                speculated next candidates) concurrently -- the verdicts,
                and therefore the result, are identical."""
                factory = policy_factory if pool_caps is not None else None
                if session is not None:
                    def rejections(dram: float) -> int:
                        return session.candidate_rejections(
                            factory, dram, pool_size, pool_caps
                        )

                    def prefetch(lo: float, hi: float) -> None:
                        session.prefetch_bisection(
                            factory, pool_size, pool_caps, lo, hi
                        )
                else:
                    def rejections(dram: float) -> int:
                        return total_rejections(dram, pool_caps)

                    prefetch = None
                return bisect_min_dram(
                    server_config.total_dram_gb, search_steps, budget,
                    rejections, prefetch,
                )

            # 2. No-pooling baseline under the shared-DRAM constraint
            # (pool-size- and policy-independent; memoised like the budget).
            if baseline_key in self._capacity_baseline_cache:
                baseline_per_server = self._capacity_baseline_cache[baseline_key]
            else:
                baseline_per_server = min_shared_server_dram(None)
                self._capacity_baseline_cache[baseline_key] = baseline_per_server
            baseline_gb = baseline_per_server * total_servers

            merged_stats = PolicyStats()
            if pool_size == 0:
                return FleetCapacitySearchResult(
                    savings=PoolSavings(
                        pool_size_sockets=0,
                        baseline_dram_gb=baseline_gb,
                        required_local_dram_gb=baseline_gb,
                        required_pool_dram_gb=0.0,
                        average_pool_fraction=0.0,
                    ),
                    baseline_per_server_gb=baseline_per_server,
                    pooled_per_server_gb=baseline_per_server,
                    per_shard_pool_capacity_gb=tuple(0.0 for _ in range(n_shards)),
                    total_vms=total_vms,
                    rejection_budget=budget,
                    policy_stats=merged_stats,
                    speculation=(
                        session.drain_speculation_stats()
                        if session is not None else None
                    ),
                )
            if topology is not None:
                # 3'. Provision the fleet's pool groups from one
                # unconstrained cross-shard replay: every group of a
                # provisioning domain is sized at headroom times the
                # domain's worst observed peak.  Parallel sessions ran the
                # replay on the worker pool (warm-started alongside the
                # baseline search); sequential searches run it here.
                n_servers_list = [cfg.n_servers for cfg in self.shard_configs]
                if session is not None:
                    provision = session.topology_outcome(
                        policy_factory, topology, None, None
                    )
                    peaks = provision.pool_peak_gb
                    total_pool_allocated = provision.total_pool_gb
                    total_memory_allocated = provision.total_memory_gb
                else:
                    server_cfg_list = [
                        cfg.server_config for cfg in self.shard_configs
                    ]
                    unconstrained_results, ledger = replay_crossshard(
                        inputs, policies, n_servers_list, server_cfg_list,
                        topology, inf, False, self.sample_interval_s,
                    )
                    peaks = ledger.peak_gb
                    total_pool_allocated = 0.0
                    total_memory_allocated = 0.0
                    for shard_result in unconstrained_results:
                        total_pool_allocated += (
                            shard_result.total_pool_gb_allocated
                        )
                        total_memory_allocated += (
                            shard_result.total_memory_gb_allocated
                        )
                caps, required_pool_gb = topology.provision_capacities(
                    peaks, pool_headroom
                )

                # 4'. Smallest shared per-server DRAM with the fleet pools
                # in place.  Every probe is a full cross-shard constrained
                # replay against the provisioned ledger, memoised per
                # candidate DRAM size; the parallel session overlaps each
                # verdict with speculated bracketing candidates (a merged
                # replay cannot be split by shard, so candidates -- not
                # shards -- are the unit of parallelism here).
                if session is not None:
                    caps_items = tuple(sorted(caps.items()))

                    def topo_candidate_rejections(dram: float) -> int:
                        return session.topology_outcome(
                            policy_factory, topology, caps_items, dram
                        ).rejected_vms

                    def topo_prefetch(lo: float, hi: float) -> None:
                        session.prefetch_topology_bisection(
                            policy_factory, topology, caps_items, lo, hi
                        )
                else:
                    topo_rejections: Dict[float, int] = {}

                    def topo_candidate_rejections(dram: float) -> int:
                        cached = topo_rejections.get(dram)
                        if cached is None:
                            candidate = capacity_candidate_config(
                                server_config, dram
                            )
                            probe_results, _ = replay_crossshard(
                                inputs, policies, n_servers_list,
                                [candidate] * n_shards, topology, caps, True,
                                self.sample_interval_s,
                            )
                            cached = sum(
                                r.rejected_vms for r in probe_results
                            )
                            topo_rejections[dram] = cached
                        return cached

                    topo_prefetch = None

                pooled_per_server = bisect_min_dram(
                    server_config.total_dram_gb, search_steps, budget,
                    topo_candidate_rejections, topo_prefetch,
                )
                if session is not None:
                    merged_stats = session.drain_stats(policy_factory)
                else:
                    for policy in policies:
                        stats = getattr(policy, "stats", None)
                        if stats is not None:
                            merged_stats.add(stats)
                if topology.is_per_shard:
                    per_shard_caps = tuple(
                        caps[topology.groups_of_shard(shard)[0]]
                        for shard in range(n_shards)
                    )
                else:
                    # A spanned group belongs to no single shard; read the
                    # provisioning off ``pool_capacity_gb_by_group``.
                    per_shard_caps = ()
                return FleetCapacitySearchResult(
                    savings=PoolSavings(
                        pool_size_sockets=pool_size,
                        baseline_dram_gb=baseline_gb,
                        required_local_dram_gb=(
                            pooled_per_server * total_servers
                        ),
                        required_pool_dram_gb=required_pool_gb,
                        average_pool_fraction=(
                            total_pool_allocated / total_memory_allocated
                            if total_memory_allocated else 0.0
                        ),
                    ),
                    baseline_per_server_gb=baseline_per_server,
                    pooled_per_server_gb=pooled_per_server,
                    per_shard_pool_capacity_gb=per_shard_caps,
                    total_vms=total_vms,
                    rejection_budget=budget,
                    policy_stats=merged_stats,
                    pool_topology=topology,
                    pool_capacity_gb_by_group=caps,
                    speculation=(
                        session.drain_speculation_stats()
                        if session is not None else None
                    ),
                )

            # 3. Provision each shard's pool groups from its unconstrained
            # peaks.
            pool_caps: List[float] = []
            required_pool_gb = 0.0
            total_pool_allocated = 0.0
            total_memory_allocated = 0.0
            for shard in range(n_shards):
                if session is not None:
                    outcome = session.outcome(
                        policy_factory, shard, pool_size, inf, None
                    )
                    peaks = outcome.pool_peak_gb
                    shard_pool_gb = outcome.total_pool_gb
                    shard_memory_gb = outcome.total_memory_gb
                else:
                    unconstrained = replay(
                        shard, None, pool_size, inf, policies[shard]
                    )
                    peaks = unconstrained.pool_peak_gb
                    shard_pool_gb = unconstrained.total_pool_gb_allocated
                    shard_memory_gb = unconstrained.total_memory_gb_allocated
                if peaks:
                    per_group = pool_headroom * max(peaks.values())
                    n_groups = len(peaks)
                else:
                    per_group = 0.0
                    n_groups = 0
                pool_caps.append(per_group)
                required_pool_gb += per_group * n_groups
                total_pool_allocated += shard_pool_gb
                total_memory_allocated += shard_memory_gb

            # 4. Smallest shared per-server DRAM with those pools in place.
            pooled_per_server = min_shared_server_dram(pool_caps)

            if session is not None:
                merged_stats = session.drain_stats(policy_factory)
            else:
                for policy in policies:
                    stats = getattr(policy, "stats", None)
                    if stats is not None:
                        merged_stats.add(stats)
            return FleetCapacitySearchResult(
                savings=PoolSavings(
                    pool_size_sockets=pool_size,
                    baseline_dram_gb=baseline_gb,
                    required_local_dram_gb=pooled_per_server * total_servers,
                    required_pool_dram_gb=required_pool_gb,
                    average_pool_fraction=(
                        total_pool_allocated / total_memory_allocated
                        if total_memory_allocated else 0.0
                    ),
                ),
                baseline_per_server_gb=baseline_per_server,
                pooled_per_server_gb=pooled_per_server,
                per_shard_pool_capacity_gb=tuple(pool_caps),
                total_vms=total_vms,
                rejection_budget=budget,
                policy_stats=merged_stats,
                speculation=(
                    session.drain_speculation_stats()
                    if session is not None else None
                ),
            )
        except BaseException:
            # Executor lifecycle hardening: a failed search must not leave
            # a half-used probe pool behind (the next call rebuilds one).
            self._close_probe_session()
            raise
