"""The benchmark's own tests (not part of the repository's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each workload runs at smoke size and must pass its output check with
its pinned digests; a first-epoch race that differs from the scalar
oracles must count as failed; traced runs must emit exactly the
declared per-layer metrics; every metric name must be well formed;
and the benchmark must refuse to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


def declared(kind: str) -> set[str]:
    return {entry["name"] for entry in SPEC[kind]}


def test_metric_names_are_well_formed():
    names = [e["name"] for kind in ("end_to_end", "per_layer")
             for e in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {"setup_s"} <= declared("end_to_end")


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_its_output_check(workload):
    record, result = result_of(bench(
        "--workload", workload, "--seed", "0", "--seconds", "0.5",
        "--size", "smoke", "--trace", "0"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == declared("end_to_end")
    for entry in result["metrics"].values():
        assert entry["value"] > 0
    if workload != "service_sessions":
        assert record["pinned"] is True
    assert (len(record["setup_s"]) == len(record["setup_raw_s"])
            == len(record["setup_reference_s"]) > 1)
    assert {"python", "numpy", "scipy", "nproc"} <= set(record["env"])
    assert record["cpu_s"] > 0 and record["wall_s"] > 0


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_traced_run_emits_the_declared_layers(workload):
    _, result = result_of(bench(
        "--workload", workload, "--seed", "1", "--seconds", "0.5",
        "--size", "smoke", "--trace", "1"))
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == declared("per_layer")
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(entry["value"], (int, float))
        if workload != "service_sessions" and name.startswith("service."):
            assert entry["value"] == 0  # a replay does no service work


def test_counts_repeat_exactly_at_a_seed():
    args = ("--workload", "hotspot_overflow", "--seed", "2",
            "--seconds", "0.2", "--size", "smoke", "--trace", "0")
    first, _ = result_of(bench(*args))
    second, _ = result_of(bench(*args))
    assert first["counts"] == second["counts"]
    assert first["digests"] == second["digests"]


def test_first_epoch_races_are_checked_against_the_oracles():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import run
    from repro.scenarios import Scenario
    from workloads import replay_config

    one_epoch = Scenario.from_config(
        replay_config("cori_week", "smoke")).with_epochs(1)
    check = run.ReplayCheck("cori_week", "smoke")
    check.first_epoch(7, run.race(one_epoch, 7))
    check.first_epoch(8, run.race(one_epoch, 8))
    check.first_epochs[8] = dict.fromkeys(check.first_epochs[8], "0" * 20)
    check.check_first_epochs(one_epoch)
    contenders = len(check.first_epochs[7])
    assert check.attempted == 4 * contenders
    assert check.failed == contenders


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cori_week", "--seed", "0",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
