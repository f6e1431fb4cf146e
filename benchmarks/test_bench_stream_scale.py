"""Streaming-scale benchmark: million-VM fleet replay without materialised traces.

The streaming trace layer (DESIGN.md section 4) exists so fleet studies can
replay arbitrarily long traces with peak trace memory bounded by one
generation window plus one chunk, instead of the whole trace.  This benchmark
replays a >=1,000,000-VM fleet (8 shards) both ways and asserts that

* the streamed replay's traced peak memory is a small fraction of what the
  materialised path allocates just to *hold* the pregenerated shard traces
  (the comparison is conservative: the materialised side is measured during
  generation only, excluding its replay overhead), and
* the two paths produce **identical** savings output -- placed/rejected
  counts, per-shard uniform local and pool DRAM requirements (the policy-
  dependent savings components), and policy misprediction counts.

``tracemalloc`` is used with a 1-frame stack to keep tracing overhead low;
both measured phases run in-process and serially so the peaks are comparable.
"""

import cProfile
import tracemalloc
from dataclasses import replace

import pytest

from _bench_report import emit_report, pick
from repro.cluster.fleet import FleetSimulator, pond_policy_factory
from repro.cluster.tracegen import TraceGenConfig
from repro.core.prediction.combined import CombinedOperatingPoint

N_SHARDS = pick(8, 2)
N_SERVERS_PER_SHARD = pick(150, 40)
MIN_TOTAL_VMS = pick(1_000_000, 10_000)
DURATION_DAYS = pick(5.3, 0.8)
STREAM_CHUNK_SIZE = pick(8192, 1024)
#: Streamed peak must come in at least this many times below materialised
#: (fixed interpreter overheads shrink the ratio at smoke scale).
MIN_MEMORY_RATIO = pick(4.0, 1.3)

OPERATING_POINT = CombinedOperatingPoint(
    fp_percent=1.5, op_percent=2.0, li_percent=30.0, um_percent=22.0
)


def fleet_base_config():
    return TraceGenConfig(
        cluster_id="stream-mega",
        n_servers=N_SERVERS_PER_SHARD,
        duration_days=DURATION_DAYS,
        mean_lifetime_hours=2.0,
        target_core_utilization=0.85,
        seed=42,
    )


def traced_peak_mb(fn):
    """Run ``fn`` under tracemalloc, return (result, peak in MiB)."""
    tracemalloc.start(1)
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / (1024.0 * 1024.0)


def warm_up_under_profiler(base, fleet_kwargs, factory):
    """Generate and stream-replay a tiny fleet once with a profiler enabled.

    tracemalloc records the line number of every allocation.  CPython 3.11
    finds it by scanning the allocating function's line table from the top,
    unless the code object caches a line array, which the interpreter builds
    the first time a profiler sees the function.  The streamed replay's hot
    loop is one long function, so without that cache the traced phases
    below spend almost all their time in the scan (minutes instead of
    seconds).  The warm-up runs before any tracing starts, so none of its
    allocations are counted; on other Python versions it only costs the
    tiny replay.
    """
    tiny = replace(base, n_servers=4, duration_days=0.05)

    def tiny_runs():
        FleetSimulator.sharded(1, tiny, **fleet_kwargs).generate_traces()
        FleetSimulator.sharded(
            1, tiny, stream_chunk_size=64, **fleet_kwargs
        ).run(factory, compute_baseline=False)

    cProfile.Profile().runcall(tiny_runs)


def test_bench_streamed_fleet_replay_bounds_memory():
    base = fleet_base_config()
    fleet_kwargs = dict(
        pool_size_sockets=16, constrain_memory=False, sample_interval_s=3600.0
    )
    factory = pond_policy_factory(OPERATING_POINT, seed=3)
    warm_up_under_profiler(base, fleet_kwargs, factory)

    # Materialised path, phase 1 (traced): generate and hold every shard
    # trace -- the O(trace) allocation streaming exists to avoid.
    materialised_fleet = FleetSimulator.sharded(N_SHARDS, base, **fleet_kwargs)
    traces, materialised_peak_mb = traced_peak_mb(
        materialised_fleet.generate_traces
    )
    total_vms = sum(len(t) for t in traces)
    print(f"\nmaterialised: {total_vms:,} VMs across {N_SHARDS} shards, "
          f"peak {materialised_peak_mb:,.0f} MiB during generation")
    assert total_vms >= MIN_TOTAL_VMS

    # Materialised path, phase 2 (untraced): the replay itself, for the
    # savings comparison.
    materialised = materialised_fleet.run(
        factory, traces=traces, compute_baseline=False
    )

    # Streamed path (traced end to end): generation windows and replay are
    # interleaved; no shard trace ever exists in full.
    del traces
    streamed_fleet = FleetSimulator.sharded(
        N_SHARDS, base, stream_chunk_size=STREAM_CHUNK_SIZE, **fleet_kwargs
    )
    streamed, streamed_peak_mb = traced_peak_mb(
        lambda: streamed_fleet.run(factory, compute_baseline=False)
    )
    ratio = materialised_peak_mb / streamed_peak_mb
    print(f"streamed:     {streamed.n_vms:,} VMs replayed, peak "
          f"{streamed_peak_mb:,.0f} MiB end to end ({ratio:.1f}x below "
          f"materialised, chunk={STREAM_CHUNK_SIZE})")
    assert streamed.n_vms == total_vms

    # Identical savings output, shard for shard: streaming is a pure memory
    # optimisation, not an approximation.  (The baseline replay is policy-
    # independent and shares the same replay machinery, so the uniform local
    # and pool requirements compared here are the full savings numerator.)
    assert streamed.placed_vms == materialised.placed_vms
    assert streamed.rejected_vms == materialised.rejected_vms
    for shard_streamed, shard_materialised in zip(
        streamed.shards, materialised.shards
    ):
        assert shard_streamed.required_local_dram_gb \
            == shard_materialised.required_local_dram_gb
        assert shard_streamed.required_pool_dram_gb \
            == shard_materialised.required_pool_dram_gb
        assert shard_streamed.result.pool_peak_gb \
            == shard_materialised.result.pool_peak_gb
    assert streamed.policy_stats.n_mispredictions \
        == materialised.policy_stats.n_mispredictions

    emit_report("stream_scale_memory", {
        "n_vms": total_vms,
        "n_shards": N_SHARDS,
        "stream_chunk_size": STREAM_CHUNK_SIZE,
        "materialised_peak_mib": materialised_peak_mb,
        "streamed_peak_mib": streamed_peak_mb,
        "memory_ratio": ratio,
        "memory_ratio_floor": MIN_MEMORY_RATIO,
    })
    assert ratio >= MIN_MEMORY_RATIO, (
        f"streamed replay peaked at {streamed_peak_mb:,.0f} MiB, only "
        f"{ratio:.1f}x below the materialised path's "
        f"{materialised_peak_mb:,.0f} MiB (required >= {MIN_MEMORY_RATIO}x)"
    )
