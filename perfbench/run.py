#!/usr/bin/env python3
"""Benchmark of the rack-fabric simulator, end to end and per layer.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload cori_week --seed 0 \
        --seconds 12 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): three
``run_arena`` replays that each load a different layer of the
simulator, and ``service_sessions``, a closed-loop client driving
``python -m repro serve`` over HTTP.

``--trace 0`` times the program untraced and reports the end-to-end
metrics. ``--trace 1`` runs the workload untraced and then traced
(``spans.py`` wraps the layer boundaries from outside the program)
and reports the per-layer split. Either way every simulated result is
checked. The second-to-last line of standard output is a JSON record
of the run (environment, wall and CPU time, exact simulated counts,
digests); the last line is the result::

    {"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from hostspeed import SPAWN_REFERENCE_S, HostClock, spawn_reference
from workloads import (FORK_AT, FORK_EVENTS, REPLAYS, SIZES, WORKLOADS,
                       first_epoch_input, replay_config, replay_inputs,
                       session_config, session_plan)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"

#: Fresh-interpreter set-ups per run, spread through the measuring
#: window; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Fewest measured repetitions of a workload in one run.
MIN_REPEATS = 3
#: Seconds between host-speed samples inside one untraced race.
SAMPLE_EVERY_S = 0.5
#: Seconds of back-to-back first-epoch races per measured round.
TTFE_ROUND_S = 0.05
#: Backend cycles the traced service leg runs (a fixed amount, so
#: its counts repeat exactly at a fixed seed).
TRACED_CYCLES = 2

clock = time.perf_counter


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="replay size (smoke: fewer epochs, for "
                             "the benchmark's own tests)")
    return parser.parse_args(argv)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


#: CPUs this benchmark was given (``repro serve`` gets one worker
#: each), read before :func:`pin_to_one_cpu` narrows the set.
NPROC = len(os.sched_getaffinity(0))


def pin_to_one_cpu() -> None:
    """Keep this process and every child it starts on one CPU.

    The host's speed differs between CPUs and drifts on each; on one
    CPU the calibration kernel measures the speed the measured work
    ran at, and the server and client of the service workload take
    turns on it as a closed loop does anyway.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": NPROC, "machine": platform.machine()}


def quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median, upper quartile (as ``statistics``)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- output checks -------------------------------------------------------------

def epoch_sane(payload: dict) -> bool:
    """Conservation: an epoch never carries more than it was offered."""
    return (payload["carried"] <= payload["offered"]
            and payload["carried"] + payload["blocked"]
            == payload["offered"])


def report_digest(epochs: list[dict], summary: dict) -> str:
    """Digest of one contender's results: every epoch's
    ``EpochReport.to_dict()`` plus the run's ``as_dict()``."""
    digest = hashlib.sha256()
    for payload in epochs:
        digest.update(json.dumps(payload, sort_keys=True).encode())
    digest.update(json.dumps(summary, sort_keys=True).encode())
    return digest.hexdigest()[:20]


def arena_digests(arena) -> dict[str, str]:
    """:func:`report_digest` of every contender of one race."""
    return {name: report_digest([e.to_dict() for e in report.epochs],
                                report.as_dict())
            for name, report in arena.reports.items()}


#: Constructor overrides selecting each backend's scalar oracle: the
#: per-flow reference path every contender keeps beside its
#: vectorized one.
ORACLE_PARAMS = {
    "awgr": {"batch_admission": False},
    "dragonfly": {"batch_step": False},
    "electronic": {"batch_step": False},
    "full_mesh": {"batch_step": False},
    "wss": {"batch_step": False},
}


def oracle_digests(scenario, seed: int) -> dict[str, str]:
    """Per-contender digests of a race through the scalar oracles."""
    from repro.scenarios import available_backends, run_arena

    missing = set(available_backends()) ^ set(ORACLE_PARAMS)
    if missing:
        raise RuntimeError(f"no oracle parameters for {sorted(missing)}")
    return arena_digests(run_arena(scenario, seed=seed,
                                   backend_params=ORACLE_PARAMS))


def load_pins(workload: str, size: str) -> dict:
    """Pinned digests of a workload at a size, keyed by input seed."""
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    return pins.get(workload, {}).get(size, {})


# -- set-up --------------------------------------------------------------------

def time_replay_setup(config: dict, seed: int) -> float:
    """Seconds from spawning an interpreter to epoch 0 being ready."""
    job = json.dumps({"src": str(SRC), "scenario": config, "seed": seed})
    start = clock()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, text=True)
    try:
        proc.stdin.write(job)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = clock() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if not line.startswith("ready") or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def start_server(store_dir: Path, log_path: Path):
    """Launch ``repro serve``; return (process, url, set-up seconds)."""
    start = clock()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(NPROC), "--store-dir", str(store_dir)],
            stdout=subprocess.PIPE, stderr=log, cwd=ROOT, env=child_env(),
            text=True)
    try:
        line = proc.stdout.readline()
        found = re.search(r"listening on (http://\S+)", line)
        if found is None:
            raise RuntimeError(f"server did not start: {line!r}")
        url = found.group(1)
        while True:
            try:
                with urllib.request.urlopen(url + "/healthz",
                                            timeout=5) as response:
                    if response.status == 200:
                        break
            except OSError:
                if clock() - start > 120 or proc.poll() is not None:
                    raise
                time.sleep(0.002)
    except BaseException:
        stop_server(proc, None)
        raise
    return proc, url, clock() - start


def stop_server(proc, url: str | None) -> None:
    """Ask the server to shut down, then make sure it has exited."""
    if proc.poll() is None and url is not None:
        try:
            req = urllib.request.Request(url + "/shutdown", method="POST")
            urllib.request.urlopen(req, timeout=5).close()
        except OSError:
            proc.terminate()
    elif proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=20)
    proc.stdout.close()


def server_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


# -- replays -------------------------------------------------------------------

class ReplayCheck:
    """Checks every race of one replay workload's inputs."""

    def __init__(self, workload: str, size: str) -> None:
        self.pins = load_pins(workload, size)
        #: input seed -> per-contender digests of its first race.
        self.digests: dict[int, dict[str, str]] = {}
        #: first-epoch input seed -> per-contender digests, checked
        #: against the scalar oracles by :meth:`check_first_epochs`.
        self.first_epochs: dict[int, dict[str, str]] = {}
        self.pinned = True
        self.attempted = 0
        self.failed = 0

    def race(self, seed: int, arena) -> None:
        """Check one full race: conservation, the pinned digest and
        agreement with every earlier race of the same input."""
        pins = self.pins.get(str(seed))
        self.pinned = self.pinned and pins is not None
        digests = arena_digests(arena)
        for name, report in arena.reports.items():
            expected = (pins or self.digests.get(seed) or digests)[name]
            self.attempted += 1
            if (digests[name] != expected
                    or not all(epoch_sane(e.to_dict())
                               for e in report.epochs)):
                self.failed += 1
        self.digests.setdefault(seed, digests)

    def first_epoch(self, seed: int, arena) -> None:
        """A one-epoch race must conserve flows; its digests are kept
        for :meth:`check_first_epochs`."""
        for report in arena.reports.values():
            self.attempted += 1
            if not epoch_sane(report.epochs[0].to_dict()):
                self.failed += 1
        self.first_epochs[seed] = arena_digests(arena)

    def check_first_epochs(self, one_epoch) -> None:
        """Every one-epoch race must equal the same race through the
        scalar oracles (the pins' contract, on the first-epoch inputs,
        which are fresh each run and so cannot be pinned)."""
        for seed, digests in self.first_epochs.items():
            expected = oracle_digests(one_epoch, seed)
            for name, digest in digests.items():
                self.attempted += 1
                if digest != expected[name]:
                    self.failed += 1


def counts_of(arena) -> dict:
    """Exact simulated counts of one race (they repeat at a seed)."""
    counts = {}
    for name, report in arena.reports.items():
        counts[name] = {
            "offered": sum(e.offered for e in report.epochs),
            "carried": sum(e.carried for e in report.epochs),
            "indirect": sum(e.indirect for e in report.epochs),
            "blocked": sum(e.blocked for e in report.epochs),
        }
    return counts


def total_counts(per_input: dict[int, dict]) -> dict:
    """Counts summed over a run's inputs, plus AWGR's indirect
    fraction and overflow route calls."""
    total: dict = {}
    for counts in per_input.values():
        for name, row in counts.items():
            into = total.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
    awgr = total.get("awgr")
    if awgr:
        awgr["indirect_fraction"] = (awgr["indirect"] / awgr["carried"]
                                     if awgr["carried"] else 0.0)
        # On the batched path every flow that misses its direct
        # wavelengths goes through exactly one overflow route call.
        awgr["route_calls"] = awgr["indirect"] + awgr["blocked"]
    return total


def race(scenario, seed: int):
    """One user-level race: every contender, then the report."""
    from repro.scenarios import run_arena
    arena = run_arena(scenario, seed=seed)
    arena.as_dict()
    return arena


class SetupProbes:
    """Set-up probes spread evenly through a measuring window.

    Probe ``k`` of ``SETUP_REPEATS`` is due once ``k / SETUP_REPEATS``
    of the window's ``seconds`` of measuring have passed, so the probes
    see the host as the measured work does, not one moment of it. The
    window's clock (:meth:`elapsed`) leaves out the probes' own time.
    Each probe runs right after the set-up reference
    (``hostspeed.spawn_reference``) and is scaled by it to the
    reference host.
    """

    def __init__(self, probe, seconds: float, host: HostClock) -> None:
        self.probe = probe
        self.seconds = seconds
        self.host = host
        self.raw_s: list[float] = []
        self.reference_s: list[float] = []
        self.spent_s = 0.0
        self.start = clock()

    def elapsed(self) -> float:
        """Seconds of measuring so far, probes left out."""
        return clock() - self.start - self.spent_s

    def poll(self) -> None:
        """Run the probes that are due."""
        while (len(self.raw_s) < SETUP_REPEATS
               and len(self.raw_s) * self.seconds / SETUP_REPEATS
               <= self.elapsed()):
            self._probe()

    def finish(self) -> None:
        """Run the probes still missing (a window cut short)."""
        while len(self.raw_s) < SETUP_REPEATS:
            self._probe()

    def _probe(self) -> None:
        began = clock()
        self.reference_s.append(spawn_reference())
        self.raw_s.append(self.probe())
        # The next measured operation is scaled from a kernel sample
        # taken after the probe, not before it.
        self.host.sample()
        self.spent_s += clock() - began

    def scaled_s(self) -> list[float]:
        return [raw * SPAWN_REFERENCE_S / reference
                for raw, reference in zip(self.raw_s, self.reference_s)]

    def record(self) -> dict:
        return {"setup_raw_s": self.raw_s,
                "setup_reference_s": self.reference_s}


def first_epoch_round(scenario, inputs, check: ReplayCheck
                      ) -> list[float]:
    """Race only the first epoch (fresh contenders, warm interpreter)
    of the next inputs back to back for ``TTFE_ROUND_S``; return each
    race's seconds."""
    one_epoch = scenario.with_epochs(1)
    times = []
    round_start = clock()
    while not times or clock() - round_start < TTFE_ROUND_S:
        seed = next(inputs)
        start = clock()
        arena = race(one_epoch, seed)
        times.append(clock() - start)
        check.first_epoch(seed, arena)
    return times


def measure_replay(scenario, inputs: list[int], seconds: float,
                   host: HostClock, check: ReplayCheck,
                   first_epoch_seed: int | None = None,
                   probes: SetupProbes | None = None) -> dict:
    """Race the inputs in turn for ``seconds`` (every input at least
    once, at least ``MIN_REPEATS`` races). Given
    ``first_epoch_seed``, each race is preceded by a round of
    first-epoch races of that seed's first-epoch inputs; given
    ``probes``, the set-up probes run between races.

    Times are scaled to the reference host (``hostspeed.py``); the
    raw ones go to the record. ``race_s`` is the median over inputs of
    each input's median race time.
    """
    times: dict[int, list[float]] = {seed: [] for seed in inputs}
    run = {"race_raw_s": [], "ttfe_s": [], "counts": {}}
    first_inputs = (first_epoch_input(first_epoch_seed, n)
                    for n in itertools.count())
    start = clock()
    elapsed = probes.elapsed if probes else lambda: clock() - start
    races = 0
    while (races < max(MIN_REPEATS, len(inputs))
           or elapsed() < seconds):
        if probes:
            probes.poll()
        seed = inputs[races % len(inputs)]
        if first_epoch_seed is not None:
            ttfe, _, _ = host.time(first_epoch_round, scenario,
                                   first_inputs, check)
            run["ttfe_s"].extend(t * host.factor for t in ttfe)
        arena, raw, scaled = host.time(race, scenario, seed,
                                       sample_every=SAMPLE_EVERY_S)
        times[seed].append(scaled)
        run["race_raw_s"].append(raw)
        check.race(seed, arena)
        run["counts"].setdefault(seed, counts_of(arena))
        del arena
        races += 1
    if probes:
        probes.finish()
    run["race_s"] = statistics.median(
        statistics.median(t) for t in times.values())
    run["per_race_s"] = [t for ts in times.values() for t in ts]
    return run


def run_replay(args) -> tuple[dict, dict, int, int]:
    from repro.scenarios import Scenario

    config = replay_config(args.workload, args.size)
    scenario = Scenario.from_config(config)
    inputs = replay_inputs(args.workload, args.seed)
    check = ReplayCheck(args.workload, args.size)
    host = HostClock()
    record: dict = {"n_epochs": scenario.n_epochs, "inputs": inputs}
    if args.trace == 0:
        probes = SetupProbes(
            lambda: time_replay_setup(config, inputs[0]), args.seconds,
            host)
        run = measure_replay(scenario, inputs, args.seconds, host,
                             check, first_epoch_seed=args.seed,
                             probes=probes)
        setups = probes.scaled_s()
        check.check_first_epochs(scenario.with_epochs(1))
        counts = total_counts(run["counts"])
        flows_per_race = counts["awgr"]["offered"] / len(inputs)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "epochs_per_s": metric(scenario.n_epochs / run["race_s"],
                                   "1/s"),
            "flows_per_s": metric(flows_per_race / run["race_s"], "1/s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "ttfe_ms_p50": metric(1e3 * statistics.median(run["ttfe_s"]),
                                  "ms"),
        }
        record.update(probes.record())
        record.update(setup_s=setups, race_raw_s=run["race_raw_s"],
                      race_s_quartiles=quartiles(run["per_race_s"]),
                      ttfe_samples=len(run["ttfe_s"]),
                      ttfe_ms_quartiles=[1e3 * q for q in
                                         quartiles(run["ttfe_s"])])
    else:
        metrics, trace_record = trace_replay(scenario, inputs, args,
                                             host, check)
        run = trace_record.pop("run")
        counts = total_counts(run["counts"])
        record.update(trace_record)
    record.update(counts=counts, digests=check.digests,
                  pinned=check.pinned, host=host.record())
    return metrics, record, check.attempted, check.failed


def trace_replay(scenario, inputs: list[int], args, host: HostClock,
                 check: ReplayCheck):
    """Untraced races for half of ``--seconds``, then traced passes
    over every input (at least one) for the other half."""
    from spans import Tracer, instrument, layer_metrics

    half = args.seconds / 2
    run = measure_replay(scenario, inputs, half, host, check)
    tracer = Tracer()
    instrument(tracer)
    raced, traced = [], {seed: [] for seed in inputs}
    deadline = clock() + half
    try:
        while not raced or clock() < deadline:
            for seed in inputs:
                arena, _, scaled = host.time(
                    tracer.call, "scenarios.arena", race, scenario, seed)
                raced.append((seed, arena))
                traced[seed].append(scaled)
    finally:
        tracer.restore()
    for seed, arena in raced:
        check.race(seed, arena)
    passes = len(raced) // len(inputs)
    epochs = scenario.n_epochs * len(raced)
    layers = layer_metrics(tracer, epochs, passes)
    # A replay does no service work: its service.* spans never run.
    layers["service.http_ms"] = 0.0
    traced_s = statistics.median(
        statistics.median(t) for t in traced.values())
    layers["trace.overhead_ratio"] = run["race_s"] / traced_s
    record = {"run": run, "traced_races": len(raced),
              "harness_self_ms_per_epoch":
                  1e3 * tracer.self_s["scenarios.arena"] / epochs}
    return with_units(layers), record


def with_units(layers: dict) -> dict:
    out = {}
    for name, value in layers.items():
        if name.endswith("_ms"):
            unit = "ms"
        elif name.endswith(("_calls", "_flows")):
            unit = "count"
        else:
            unit = "ratio"
        out[name] = metric(value, unit)
    return out


# -- service -------------------------------------------------------------------

def stream(client, session_id: str, start: float):
    """Stream a session to its end frame: (payloads, ttfe_s, end)."""
    payloads, ttfe, end = [], None, None
    for event, _, data in client.stream(session_id):
        if event == "epoch":
            if ttfe is None:
                ttfe = clock() - start
            payloads.append(data)
        else:
            end = data
    return payloads, ttfe, end


def iteration(client, config: dict, backend: str, base_seed: int
              ) -> dict:
    """One closed-loop iteration: submit a session and stream it to
    its end, fork it with the what-if and stream the fork, then delete
    both."""
    t0 = clock()
    parent_id = client.submit(config, backend=backend,
                              base_seed=base_seed)["id"]
    parent, ttfe, parent_end = stream(client, parent_id, t0)
    session_s = clock() - t0
    parent_detail = client.session(parent_id)
    t1 = clock()
    fork_id = client.fork(parent_id, FORK_AT,
                          events=list(FORK_EVENTS))["id"]
    fork, _, fork_end = stream(client, fork_id, t1)
    fork_s = clock() - t1
    fork_detail = client.session(fork_id)
    client.delete(fork_id)
    client.delete(parent_id)
    return {"backend": backend, "base_seed": base_seed,
            "ttfe_s": ttfe, "session_s": session_s, "fork_s": fork_s,
            "sessions": [(parent, parent_end, parent_detail),
                         (fork, fork_end, fork_detail)]}


def drive(url: str, seed: int, host: HostClock, seconds: float = 0.0,
          iterations: int | None = None,
          probes: SetupProbes | None = None) -> dict:
    """The closed-loop client (one client, one request at a time).

    Runs whole cycles over the registered backends for ``seconds``
    (at least ``MIN_REPEATS`` iterations) or, when ``iterations`` is
    given, exactly that many. Latencies and the loop's wall time are
    scaled to the reference host. Given ``probes``, the set-up probes
    run between iterations, while the server is idle.
    """
    from repro.scenarios import available_backends
    from repro.service import ServiceClient

    client = ServiceClient(url, timeout=120.0)
    config = session_config()
    backends = available_backends()
    done = []
    wall_s = raw_s = 0.0
    start = clock()
    elapsed = probes.elapsed if probes else lambda: clock() - start
    while (len(done) < iterations if iterations is not None
           else len(done) < MIN_REPEATS or elapsed() < seconds
           or len(done) % len(backends)):
        if probes:
            probes.poll()
        backend, base_seed = session_plan(seed, len(done), backends)
        it, raw, scaled = host.time(iteration, client, config, backend,
                                    base_seed)
        for key in ("ttfe_s", "session_s", "fork_s"):
            if it[key] is not None:  # None: no epoch arrived (failed)
                it[key] *= host.factor
        done.append(it)
        wall_s += scaled
        raw_s += raw
    if probes:
        probes.finish()
    epochs = sum(len(s[0]) for it in done for s in it["sessions"])
    flows = sum(p["offered"] for it in done for s in it["sessions"]
                for p in s[0])
    return {"iterations": done, "wall_s": wall_s, "raw_wall_s": raw_s,
            "epochs": epochs, "flows": flows}


def check_sessions(run: dict) -> tuple[int, int, str]:
    """Every session must complete, stream its whole horizon and be
    bit-identical to the same run made directly in this process."""
    from repro.scenarios import Scenario, ScenarioRunner, make_backend

    config = session_config()
    base = Scenario.from_config(config)
    what_if = Scenario.from_config(
        {**config, "events": [*config["events"], *FORK_EVENTS]})
    attempted = failed = 0
    digest = hashlib.sha256()
    for it in run["iterations"]:
        for scenario, (payloads, end, detail) in zip(
                (base, what_if), it["sessions"]):
            attempted += 1
            backend = make_backend(it["backend"], scenario.n_nodes,
                                   seed=it["base_seed"])
            reference = ScenarioRunner(scenario, backend).run(
                seed=it["base_seed"])
            expected = [epoch.to_dict() for epoch in reference.epochs]
            digest.update(report_digest(payloads, detail["aggregates"])
                          .encode())
            if (end is None or end["state"] != "completed"
                    or detail["state"] != "completed"
                    or payloads != expected
                    or detail["aggregates"] != reference.as_dict()
                    or not all(epoch_sane(p) for p in payloads)):
                failed += 1
    return attempted, failed, digest.hexdigest()[:20]


def latency_record(run: dict) -> dict:
    """Per-session latencies (reference host) with sample counts."""
    out = {}
    for key in ("ttfe_s", "session_s", "fork_s"):
        values = [1e3 * it[key] for it in run["iterations"]
                  if it[key] is not None]
        row = out[key.replace("_s", "_ms")] = {
            "samples": len(values), "p50": statistics.median(values),
            "quartiles": quartiles(values)}
        if len(values) >= 100:  # leaves 10 samples beyond the p90
            row["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def run_service(args) -> tuple[dict, dict, int, int]:
    work = WORK / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host = HostClock()
    try:
        if args.trace == 0:
            metrics, record = measure_service(args, host, work)
        else:
            metrics, record = trace_service(args, host, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["host"] = host.record()
    attempted = record.pop("attempted")
    failed = record.pop("failed")
    return metrics, record, attempted, failed


def measure_service(args, host: HostClock, work: Path
                    ) -> tuple[dict, dict]:
    def setup() -> float:
        """Launch a server of its own, time it to ``/healthz``, stop it."""
        store = work / f"probe{len(probes.raw_s)}"
        proc, url, elapsed = start_server(store, work / "probe.log")
        stop_server(proc, url)
        return elapsed

    probes = SetupProbes(setup, args.seconds, host)
    proc, url, _ = start_server(work / "store", work / "server.log")
    try:
        run = drive(url, args.seed, host, seconds=args.seconds,
                    probes=probes)
        rss = server_peak_rss_mb(proc.pid)
    finally:
        stop_server(proc, url)
    setups = probes.scaled_s()
    attempted, failed, digest = check_sessions(run)
    latencies = latency_record(run)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "epochs_per_s": metric(run["epochs"] / run["wall_s"], "1/s"),
        "flows_per_s": metric(run["flows"] / run["wall_s"], "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
        "ttfe_ms_p50": metric(latencies["ttfe_ms"]["p50"], "ms"),
    }
    record = {"setup_s": setups, **probes.record(),
              "iterations": len(run["iterations"]),
              "epochs": run["epochs"], "flows": run["flows"],
              "loop_raw_s": run["raw_wall_s"], "latency_ms": latencies,
              "digest": digest, "attempted": attempted, "failed": failed}
    return metrics, record


def in_process_service(work: Path):
    """Gateway and pool hosted in this process (so the tracer can
    wrap their calls), configured as ``repro serve`` configures
    them."""
    from repro.experiments import ResultCache
    from repro.service import ServiceGateway, SessionPool, SessionStore

    pool = SessionPool(workers=NPROC,
                       store=SessionStore(ResultCache(work / "store")))
    gateway = ServiceGateway(pool)
    gateway.start()
    return gateway


def traced_service(seed: int, host: HostClock, work: Path,
                   cycles: int) -> tuple:
    """Drive ``cycles`` backend cycles through a traced in-process
    service; return the per-layer figures and the client run."""
    from repro.scenarios import available_backends
    from spans import Tracer, instrument, layer_metrics

    tracer = Tracer(clock=time.thread_time)
    gateway = in_process_service(work)
    try:
        instrument(tracer)
        try:
            run = drive(gateway.url, seed, host,
                        iterations=cycles * len(available_backends()))
        finally:
            tracer.restore()
    finally:
        gateway.stop()
    layers = layer_metrics(tracer, run["epochs"], cycles)
    server_s = sum(tracer.self_s.values())
    layers["service.http_ms"] = (
        1e3 * (run["raw_wall_s"] - server_s) / run["epochs"])
    return layers, run


def trace_service(args, host: HostClock, work: Path) -> tuple[dict, dict]:
    gateway = in_process_service(work / "untraced")
    try:
        untraced = drive(gateway.url, args.seed, host,
                         seconds=args.seconds / 2)
    finally:
        gateway.stop()
    layers, traced = traced_service(args.seed, host, work / "traced",
                                    TRACED_CYCLES)
    layers["trace.overhead_ratio"] = (
        (traced["epochs"] / traced["wall_s"])
        / (untraced["epochs"] / untraced["wall_s"]))
    attempted = failed = 0
    for run in (untraced, traced):
        run_attempted, run_failed, _ = check_sessions(run)
        attempted += run_attempted
        failed += run_failed
    record = {"untraced_iterations": len(untraced["iterations"]),
              "traced_iterations": len(traced["iterations"]),
              "attempted": attempted, "failed": failed}
    return with_units(layers), record


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    wall0, cpu0 = clock(), time.process_time()
    if args.workload in REPLAYS:
        metrics, record, attempted, failed = run_replay(args)
    else:
        metrics, record, attempted, failed = run_service(args)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    record.update(
        workload=args.workload, seed=args.seed, size=args.size,
        trace=args.trace, env=environment(),
        wall_s=clock() - wall0, cpu_s=time.process_time() - cpu0,
        children_cpu_s=children.ru_utime + children.ru_stime)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
