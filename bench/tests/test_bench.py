"""Smoke tests of the benchmark itself, on tiny replays of every workload.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# events per replay, small enough that a run takes a second or two
TINY = {
    "lru-k64-zipf-miss": 300,
    "wtinylfu-trace-hit": 600,
    "hyperbolic-if-sweep": 2500,  # the first halving sweep fires at tick 2047
    "oracle-lru-sizes": 2000,
}
SEED = 5


def run(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0.2", "--events", str(TINY[workload]), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


def expected_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_spec():
    from_spec = {w["name"] for w in SPEC["workloads"]}
    assert from_spec == set(TINY)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run(workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    record, result = parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["error_frac"] == 0
    assert record["environment"]["seed"] == SEED
    assert len(record["samples"]) >= 1


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_reports_every_layer_and_keeps_the_stream(workload):
    proc = run(workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    record, result = parse(proc)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected_units("per_layer")
    assert record["checks"]["traced_stream_matches_untraced"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace_overhead"] > 0
    if workload == "lru-k64-zipf-miss":
        assert record["checks"]["stream_matches_oracle"] is True
        assert metrics["oracle.gap_points"] == 0
        assert metrics["core.read_set_raw.per_event"] > 0
    if workload == "hyperbolic-if-sweep":
        assert metrics["hyperbolic.lookup.per_event"] > 0
        assert metrics["policies.sweeps_per_mevent"] > 0
    if workload == "wtinylfu-trace-hit":
        assert metrics["core.ternary_lookup.per_event"] == 2
        assert metrics["multiregion.age_step.per_event"] > 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_pinned_values_are_checked(workload, tmp_path):
    pins = tmp_path / "pins.json"
    write = run(workload, "--pins", str(pins), "--write-pins")
    assert write.returncode == 0, write.stderr

    good = run(workload, "--pins", str(pins), "--trace", "1")
    assert good.returncode == 0, good.stderr
    record, result = parse(good)
    assert record["pinned"] is True and record["error_frac"] == 0
    assert record["checks"]["stream_matches_pin"] is True

    data = json.loads(pins.read_text(encoding="utf-8"))
    (entry,) = data[workload].values()
    entry["reports"][0]["hits"] += 1
    pins.write_text(json.dumps(data), encoding="utf-8")
    bad = run(workload, "--pins", str(pins), "--trace", "0")
    assert bad.returncode != 0
    record, result = parse(bad)
    assert record["error_frac"] > 0
    assert result["correct"] is False and result["failed"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = run("lru-k64-zipf-miss", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
