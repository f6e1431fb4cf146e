"""End-to-end benchmark of the Pond pipeline (host time, not simulated time).

Usage, from the repository root::

    python3 perfbench/run.py --workload online_single --seed 42 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time,
VMs carried per host second (by the run's slowest iteration),
peak resident memory.  ``--trace 1`` times every layer once on the
workload's inputs and checks the switched-off contracts, then alternates
untraced and traced iterations (their difference is the tracing overhead);
it prints the per-layer metrics.  Each run prints one line per metric,
then, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed / attempted`` is the error rate:
iterations that raised or whose modelled outputs missed their fingerprint.
Full reports and spans are written under ``perfbench/results/``, which git
ignores.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
FINGERPRINTS = HERE / "fingerprints.json"
SPEC = HERE.parent / "BENCHMARK.json"
WORKLOAD_NAMES = ("online_single", "capsearch_spanning", "faulted_spanning")
#: Set-ups per run: one in this process, the rest in fresh interpreters.
SETUP_REPEATS = 3
MODELLED_LABEL = "modelled, unvalidated against production traces"

sys.path.insert(0, str(SRC))


def set_up(name: str, seed: int):
    """Import the program and build the workload: what ``setup_s`` times."""
    start = time.perf_counter()
    import pipeline

    workload = pipeline.WORKLOADS[name](seed)
    return workload, time.perf_counter() - start


def fresh_setup_seconds(name: str, seed: int) -> float:
    """Set-up seconds in a fresh interpreter, which has ended on return."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return float(child.stdout.split()[-1])


def child_pids() -> list[int]:
    """Processes whose parent is this one, zombies included."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            pids.append(int(entry.name))
    return pids


def stop_children(grace_s: float = 30.0) -> None:
    """Stop and reap every process this run started that is still there:
    executor workers shut down without waiting, multiprocessing's resource
    tracker.  Children get ``grace_s`` to end by themselves, then SIGKILL."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    deadline = time.monotonic() + grace_s
    while pids := child_pids():
        for pid in pids:
            try:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.02)


# -- host calibration -----------------------------------------------------------------
def python_ops_per_s(n: int = 200_000, reps: int = 5) -> float:
    """Fixed pure-Python kernel (dict read-modify-write), median ops/s."""
    rates = []
    for _ in range(reps):
        table: dict = {}
        start = time.perf_counter()
        for i in range(n):
            key = i & 1023
            table[key] = table.get(key, 0) + i
        rates.append(n / (time.perf_counter() - start))
    return statistics.median(rates)


def numpy_ops_per_s(n: int = 1_000_000, reps: int = 5) -> float:
    """Fixed numpy kernel (sort of seeded float64s), median elements/s."""
    import numpy as np

    values = np.random.default_rng(0).random(n)
    rates = []
    for _ in range(reps):
        start = time.perf_counter()
        np.sort(values)
        rates.append(n / (time.perf_counter() - start))
    return statistics.median(rates)


def host_calibration() -> dict:
    return {
        "host.python_ops_per_s": python_ops_per_s(),
        "host.numpy_ops_per_s": numpy_ops_per_s(),
        "host.cpu_count": os.cpu_count() or 1,
    }


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- the closed loop ------------------------------------------------------------------
class Loop:
    """Runs iterations one after another and checks each one's outputs."""

    def __init__(self, workload, expected: str | None) -> None:
        self.workload = workload
        #: Expected output fingerprint: the recorded one for this seed, else
        #: the first iteration's, so later iterations must reproduce it.
        self.reference = expected
        self.attempted = 0
        self.failed = 0
        self.rates: list[float] = []
        self.modelled: dict = {}

    def iterate(self) -> tuple[float, int]:
        """One iteration: (host seconds, VMs carried; 0 if it failed)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = self.workload.iterate()
            elapsed = time.perf_counter() - start
            if self.reference is None:
                self.reference = outcome.fingerprint
            if outcome.fingerprint != self.reference:
                raise ValueError(
                    f"output fingerprint {outcome.fingerprint[:16]} != "
                    f"expected {self.reference[:16]}")
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return time.perf_counter() - start, 0
        self.rates.append(outcome.n_vms / elapsed)
        self.modelled = outcome.modelled
        return elapsed, outcome.n_vms


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median, upper quartile, within the sampled range."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(args, loop: Loop) -> tuple[dict, dict, list]:
    """End-to-end metrics, tracing off."""
    deadline = time.perf_counter() + args.seconds
    while loop.attempted == 0 or time.perf_counter() < deadline:
        loop.iterate()
    rss = peak_rss_mib()  # before the fresh-interpreter set-ups below
    q1, median, q3 = quartiles(loop.rates)
    setups = [args.first_setup_s] + [
        fresh_setup_seconds(args.workload, args.seed)
        for _ in range(SETUP_REPEATS - 1)
    ]
    # The slowest iteration: a shared host's speed can burst upward for tens
    # of seconds, which moves a run's median and quartiles far more.
    metrics = {"vms_per_s": min(loop.rates, default=0.0), "peak_rss_mib": rss,
               "setup_s": statistics.median(setups)}
    detail = {"vms_per_s": {"median": median, "q1": q1, "q3": q3,
                            "n": len(loop.rates), "samples": loop.rates},
              "setup_s_samples": setups}
    return metrics, detail, []


def measure_traced(args, loop: Loop) -> tuple[dict, dict, list]:
    """Per-layer metrics: the layer sweep, then untraced/traced iteration
    pairs until ``--seconds`` have passed (at least one pair)."""
    import layers

    deadline = time.perf_counter() + args.seconds
    tracer = layers.Tracer()
    metrics = {}
    tracer.iteration = "sweep"
    loop.attempted += 1
    try:
        with tracer.patched():
            metrics.update(layers.layer_sweep(loop.workload, tracer))
    except Exception:
        loop.failed += 1
        traceback.print_exc()
    untraced, traced, generate_s, generated = [], [], [], []
    while not traced or time.perf_counter() < deadline:
        untraced.append(loop.iterate()[0])
        tracer.iteration = len(traced)
        with tracer.patched():
            seconds, n_vms = loop.iterate()
        traced.append(seconds)
        generate_s.append(tracer.total("tracegen.generate_bulk",
                                       tracer.iteration))
        generated.append(n_vms)
    base = statistics.median(untraced)
    metrics["tracing.overhead_s"] = statistics.median(traced) - base
    metrics["tracing.overhead_pct"] = 100.0 * metrics["tracing.overhead_s"] / base
    metrics["tracegen.generate_s"] = statistics.median(generate_s)
    rates = [n / s for n, s in zip(generated, generate_s) if n and s]
    metrics["tracegen.vms_per_s"] = statistics.median(rates) if rates else 0.0
    detail = {"untraced_iteration_s": untraced, "traced_iteration_s": traced,
              "breakdown": tracer.breakdown(0)}
    return metrics, detail, tracer.spans


def load_expected(name: str, seed: int) -> str | None:
    if not FINGERPRINTS.is_file():
        return None
    return json.loads(FINGERPRINTS.read_text()).get(name, {}).get(str(seed))


def print_breakdown(breakdown: dict, iteration_s: float) -> None:
    print(f"where one traced iteration's {iteration_s:.3f} s went "
          "(spans around public calls; self = minus child spans):")
    rows = sorted(breakdown.items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        print(f"  {name:<36} calls {row['calls']:>4}  total {row['total_s']:8.3f} s"
              f"  self {row['self_s']:8.3f} s  "
              f"({100.0 * row['self_s'] / iteration_s:5.1f}% of iteration)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up once, print the seconds it took, and exit.
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: the program's sources ({SRC}) or {SPEC.name} are "
              "missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    workload, args.first_setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        workload.close()
        print(repr(args.first_setup_s))
        return 0
    loop = Loop(workload, load_expected(args.workload, args.seed))
    try:
        metrics, detail, spans = (measure_traced if args.trace else measure)(
            args, loop)
    finally:
        workload.close()
    host = host_calibration()
    if args.trace:
        metrics.update(host)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cpu_count {host['host.cpu_count']}  python "
          f"{host['host.python_ops_per_s']:,.0f} ops/s  numpy "
          f"{host['host.numpy_ops_per_s']:,.0f} elements/s")
    if args.trace:
        print_breakdown(detail["breakdown"], detail["traced_iteration_s"][0])
    else:
        rates = detail["vms_per_s"]
        print(f"vms_per_s over {rates['n']} iterations: slowest "
              f"{min(rates['samples'], default=0.0):,.1f}, quartiles "
              f"{rates['q1']:,.1f} / {rates['median']:,.1f} / "
              f"{rates['q3']:,.1f} VM/s")
    print(f"error_rate {loop.failed}/{loop.attempted} = "
          f"{loop.failed / loop.attempted:.4f}")
    print(f"{MODELLED_LABEL}: " + json.dumps(loop.modelled, sort_keys=True))
    for name in wanted:
        if name in metrics:
            print(f"  {name:<40} {metrics[name]:>18.6f} {units[name]}")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, **host,
              "attempted": loop.attempted, "failed": loop.failed,
              "fingerprint": loop.reference, "metrics": metrics,
              "detail": detail, "modelled_outputs": {
                  "label": MODELLED_LABEL, **loop.modelled}}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n")
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w") as out:
            for span in spans:
                out.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": loop.failed == 0 and not missing,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
