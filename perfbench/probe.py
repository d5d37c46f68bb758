"""Set-up probe: a fresh interpreter up to the first epoch being ready.

Run by ``run.py`` as a child process to time set-up the way a user of
``repro arena`` pays it: interpreter start, imports, contender
construction and the first epoch's traffic. Reads
``{"src": ..., "scenario": {...}, "seed": n}`` as JSON on stdin and
prints ``ready`` once epoch 0 can be stepped.
"""

import json
import sys


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    from repro.scenarios import Scenario, available_backends, make_backend

    scenario = Scenario.from_config(job["scenario"])
    contenders = [make_backend(name, scenario.n_nodes, seed=job["seed"])
                  for name in available_backends()]
    batch = scenario.flow_batch_at(0, base_seed=job["seed"])
    print("ready", len(contenders), len(batch), flush=True)


if __name__ == "__main__":
    main()
