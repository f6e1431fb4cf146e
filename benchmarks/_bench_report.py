"""Shared helpers for the scale benchmarks: machine-readable reports + smoke mode.

Every scale benchmark emits a ``BENCH_<name>.json`` file (timings, speedup
ratios, peak memory) so the perf trajectory can be tracked across PRs by
diffing artifacts instead of scraping assertion messages.  Reports land in
the git-ignored ``benchmarks/reports/`` by default, so a test run never
rewrites the committed reports; set ``BENCH_REPORT_DIR`` to redirect them
(CI uploads them as artifacts).  Refreshing the committed reports is an
explicit step: run the benchmarks with ``BENCH_REPORT_DIR=benchmarks``.

``BENCH_SMOKE=1`` switches the benchmarks to reduced scale with relaxed
speedup floors: small enough for a per-PR CI job, still asserting the same
*shape* of result (identical outputs, speedup above a floor) so hot-path
regressions surface before the full-scale run ever executes.

The validation side (report schema, recorded perf floors) lives in
:mod:`repro.analysis.perf_floors` -- shared with the ``python -m
repro.analysis perf-floors`` subcommand -- and is re-exported here so the
benchmark scripts keep one import surface.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

try:
    from repro.analysis.perf_floors import (
        REQUIRED_REPORT_FIELDS,
        check_perf_floors,
        validate_report,
    )
except ImportError:  # invoked without PYTHONPATH=src: resolve the repo layout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.analysis.perf_floors import (
        REQUIRED_REPORT_FIELDS,
        check_perf_floors,
        validate_report,
    )

__all__ = ["smoke_mode", "pick", "emit_report", "REQUIRED_REPORT_FIELDS",
           "validate_report", "check_perf_floors"]


def smoke_mode() -> bool:
    """True when the reduced-scale CI smoke mode is requested."""
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def pick(full, smoke):
    """Pick the full-scale or smoke-scale value for a benchmark constant."""
    return smoke if smoke_mode() else full


def emit_report(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` (machine-readable benchmark outcome).

    ``payload`` should carry plain scalars: seconds, speedup ratios, sizes,
    peak MiB.  Standard metadata (mode, timestamp, python/platform, cpu
    count) is added so reports from different runs are comparable.
    """
    report = {
        "benchmark": name,
        "smoke": smoke_mode(),
        "unix_time": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        **payload,
    }
    out_dir = Path(os.environ.get("BENCH_REPORT_DIR",
                                  Path(__file__).parent / "reports"))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
