"""Record the expected output fingerprint of each workload for a set of seeds.

Usage, from the repository root::

    python3 perfbench/record_fingerprints.py --seeds 0-24,42

Runs one iteration per workload and seed and merges the fingerprints into
``perfbench/fingerprints.json``.  Re-record only when a change is meant to
alter the modelled outputs; a performance change must leave every
fingerprint as it is.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import FINGERPRINTS, WORKLOAD_NAMES  # also puts src/ on sys.path

import pipeline


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="42")
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    args = parser.parse_args(argv)
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    for name in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            workload = pipeline.WORKLOADS[name](seed)
            try:
                table.setdefault(name, {})[str(seed)] = \
                    workload.iterate().fingerprint
            finally:
                workload.close()
            print(name, seed, table[name][str(seed)], flush=True)
            FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True)
                                    + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
