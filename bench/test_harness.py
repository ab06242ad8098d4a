"""Harness tests: ``python -m pytest bench -q`` (seconds; not part of tier-1).

Every workload runs at ``--smoke`` size through the real command line, so the
contract the driver relies on -- last-line JSON, metric names, exit codes,
trace file -- is what is tested; the planted-failure tests call the harness in
process to swap a golden directory or a backend.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness
import workloads
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_cli(tmp_path: Path, workload: str, trace: int, seed: int = 7) -> dict:
    out = tmp_path / f"{workload}-{trace}.json"
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return {
        "line": json.loads(done.stdout.strip().splitlines()[-1]),
        "stdout": done.stdout,
        "document": json.loads(out.read_text()),
        "trace_file": out.with_suffix(".trace.json"),
    }


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {name: run_cli(tmp, name, trace=1) for name in WORKLOADS}


def measure(workload, trace=False) -> dict:
    return harness.measure(workload, seconds=0.0, trace=trace, import_seconds=0.0)


# ------------------------------------------------------------------ contract
def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke_run_prints_end_to_end_metrics(tmp_path, workload):
    run = run_cli(tmp_path, workload, trace=0)
    line = run["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for entry in SPEC["end_to_end"]:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["value"] > 0
        assert f"  {entry['name']} = " in run["stdout"]
    stamp = run["document"]["stamp"]
    assert {"git_sha", "seed", "cpus", "python", "numpy"} <= set(stamp)
    assert run["document"]["passes"] >= harness.MIN_PASSES


def test_traced_smoke_runs_cover_every_per_layer_metric(traced_runs):
    declared = [m["name"] for m in SPEC["per_layer"]]
    produced = set()
    for run in traced_runs.values():
        assert run["line"]["correct"] is True
        assert list(run["line"]["metrics"]) == declared
        # What the workload measured itself (the rest of the line reads 0).
        assert set(run["document"]["per_layer"]) <= set(declared)
        produced |= set(run["document"]["per_layer"])
        assert "bench.trace_overhead_ratio" in run["document"]["per_layer"]
    assert produced == set(declared), sorted(set(declared) - produced)


def test_traced_run_writes_a_chrome_trace(traced_runs):
    run = traced_runs["catalog-mix"]
    events = json.loads(run["trace_file"].read_text())["traceEvents"]
    assert len(events) == run["document"]["spans"] > 0
    by_id = {event["args"]["id"]: event for event in events}
    scenario_runs = [e for e in events if e["name"] == "scenarios.run_scenario"]
    assert len(scenario_runs) == len(workloads.CatalogMix.SMOKE_SCENARIOS)
    for event in events:
        assert event["ph"] == "X" and event["dur"] >= 0
        parent = event["args"]["parent"]
        if parent is not None:
            # A child lies inside its parent and belongs to the same job.
            outer = by_id[parent]
            assert outer["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1.0
            assert event["args"]["job"] == outer["args"]["job"]
    nested = {e["name"] for e in events if e["args"]["parent"] is not None}
    assert {"scenarios.ScenarioRunner.build_system", "hierarchy.SnoozeSystem.run"} <= nested


def test_run_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog-mix", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ------------------------------------------------------------ planted failures
def corrupted_goldens(tmp_path: Path) -> Path:
    """A copy of the fixtures with one smoke scenario's golden altered."""
    target = tmp_path / "golden"
    target.mkdir()
    for name in workloads.CatalogMix.SMOKE_SCENARIOS:
        shutil.copy(workloads.GOLDEN_DIR / f"{name}.json", target / f"{name}.json")
    planted = target / f"{workloads.CatalogMix.SMOKE_SCENARIOS[0]}.json"
    planted.write_text(planted.read_text().replace('"seed": 7', '"seed": 70'))
    return target


def test_planted_golden_mismatch_raises_failed_ratio(tmp_path):
    goldens = corrupted_goldens(tmp_path)
    clean = measure(WORKLOADS["catalog-mix"](7, smoke=True))
    assert clean["failed"] == 0 and clean["end_to_end"]["failed_ratio"]["value"] == 0.0
    planted = measure(WORKLOADS["catalog-mix"](7, smoke=True, golden_dir=goldens))
    assert planted["failed"] >= 1 and planted["end_to_end"]["failed_ratio"]["value"] > 0.0
    assert any("golden" in message for message in planted["failures"])


def plant_shard_difference(monkeypatch):
    """Make the two-process megafleet run report one more event than the serial one."""
    real = workloads.run_megafleet

    def tampered(*args, **kwargs):
        result = real(*args, **kwargs)
        if kwargs.get("jobs") == 2:
            result.totals["events"] += 1
        return result

    monkeypatch.setattr(workloads, "run_megafleet", tampered)


def test_planted_cross_backend_difference_raises_failed_ratio(monkeypatch):
    plant_shard_difference(monkeypatch)
    planted = measure(WORKLOADS["megafleet-shards"](7, smoke=True))
    assert planted["end_to_end"]["failed_ratio"]["value"] > 0.0
    assert any("differs from the serial run" in message for message in planted["failures"])


def test_other_seed_skips_goldens_but_keeps_identity_checks(tmp_path, monkeypatch):
    goldens = corrupted_goldens(tmp_path)
    other_seed = measure(WORKLOADS["catalog-mix"](8, smoke=True, golden_dir=goldens))
    assert other_seed["failed"] == 0
    plant_shard_difference(monkeypatch)
    assert measure(WORKLOADS["megafleet-shards"](8, smoke=True))["failed"] >= 1


def test_fan_out_workloads_withhold_throughput_on_one_cpu(monkeypatch):
    monkeypatch.setattr(harness, "available_cpus", lambda: 1)
    starved = measure(WORKLOADS["megafleet-shards"](7, smoke=True))
    assert starved["compute_starved"] is True and "throughput" not in starved["end_to_end"]
    unaffected = measure(WORKLOADS["fleet-steady"](7, smoke=True))
    assert unaffected["compute_starved"] is False and "throughput" in unaffected["end_to_end"]


# --------------------------------------------------------------------- compare
def result(workload="fleet-steady", seed=7, wall=1.0, energy=2.5, digest="aa") -> dict:
    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "schema": 1, "workload": workload, "smoke": False, "traced": False,
        "stamp": {"seed": seed},
        "end_to_end": {
            "setup_s": metric(0.5, "s"), "wall_s": metric(wall, "s"),
            "throughput": metric(100.0 / wall, "1/s"), "peak_rss_mb": metric(60.0, "MB"),
            "failed_ratio": metric(0.0, "ratio"),
        },
        "exact": {"sim_energy_kwh": energy}, "digests": {"item": digest},
    }


def test_compare_verdicts():
    steady = [result(wall=w) for w in (1.00, 1.01, 0.99, 1.00)]
    lines, regressed = compare.compare(steady, steady, SPEC)
    assert not regressed and sum(" ok" in line for line in lines) >= 5

    slower = [result(wall=w * 1.5) for w in (1.00, 1.01, 0.99, 1.00)]
    lines, regressed = compare.compare(steady, slower, SPEC)
    assert regressed
    assert any("wall_s" in line and "regressed" in line for line in lines)
    assert any("throughput" in line and "regressed" in line for line in lines)

    noisy = [result(wall=w) for w in (1.0, 1.6, 0.7, 1.3)]
    lines, regressed = compare.compare(noisy, noisy, SPEC)
    assert not regressed and any("wall_s" in line and "unresolved" in line for line in lines)


def test_compare_exact_metrics_and_digests():
    lines, regressed = compare.compare([result()], [result(digest="bb")], SPEC)
    assert not regressed and any("simulated results changed" in line for line in lines)
    lines, regressed = compare.compare([result()], [result(energy=2.6)], SPEC)
    assert regressed and any("exact metric changed" in line for line in lines)
