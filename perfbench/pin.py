#!/usr/bin/env python3
"""Pin the replay workloads' result digests from the scalar oracles.

Every contender keeps a per-flow reference path beside its vectorized
one (AWGR ``batch_admission=False``, the others ``batch_step=False``).
This script races each replay workload through those reference paths
and writes one digest per contender, workload, size and input to
``pins.json``; ``run.py`` then requires the default (vectorized) path
to reproduce them bit for bit. ``--seeds`` are benchmark seeds; each
names one or more inputs (``workloads.replay_inputs``). Run from the
root of a checkout::

    python3 perfbench/pin.py --seeds 0-15 --sizes full smoke

Existing pins for other seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import PINS, SRC, oracle_digests
from workloads import REPLAYS, SIZES, replay_config, replay_inputs


def seed_range(text: str) -> list[int]:
    """``"0-15"`` or ``"3"`` or ``"0,4,9"`` to a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default="0-15")
    parser.add_argument("--sizes", nargs="+", choices=SIZES,
                        default=list(SIZES))
    parser.add_argument("--workloads", nargs="+", choices=REPLAYS,
                        default=list(REPLAYS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from repro.scenarios import Scenario

    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for workload in args.workloads:
        for size in args.sizes:
            scenario = Scenario.from_config(replay_config(workload, size))
            for seed in args.seeds:
                for base in replay_inputs(workload, seed):
                    digests = oracle_digests(scenario, base)
                    pins.setdefault(workload, {}).setdefault(size, {})[
                        str(base)] = digests
                print(workload, size, seed, flush=True)
                PINS.write_text(json.dumps(pins, indent=1,
                                           sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
