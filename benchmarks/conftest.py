"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's reported results (E1-E8, one
``test_bench_e<N>_*.py`` each) and prints a plain-text table with the same
rows/series the paper reports.  Absolute numbers differ from the paper's
testbed measurements; the *shape* (who wins, by roughly what factor) is what
to compare.

Besides the human-readable tables, :func:`run_once` can write one
machine-readable ``BENCH_<EXPERIMENT>.json`` summary per experiment (timing plus
a headline metric extracted from the benchmark's return value).  Nothing is
written unless ``REPRO_BENCH_RESULTS`` names a directory, so a plain test run
leaves the tree as it found it; the CI jobs that upload these files set it to
``benchmarks/results``.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path
from typing import Optional

import numpy as np
import pytest


@pytest.fixture
def bench_rng() -> np.random.Generator:
    """Deterministic generator shared by benchmark workloads."""
    return np.random.default_rng(2012)


def _experiment_id(benchmark) -> Optional[str]:
    """Extract the experiment tag (``E1`` ... ``E8``) from the benchmark name."""
    name = getattr(benchmark, "fullname", None) or getattr(benchmark, "name", "") or ""
    match = re.search(r"\be(\d+)\b|_e(\d+)_", name.lower())
    if match is None:
        return None
    return f"E{match.group(1) or match.group(2)}"


def _headline_metric(result) -> Optional[dict]:
    """Pull a small, JSON-safe headline out of a benchmark's return value.

    Benchmarks return a dict, a list of row-dicts, or a ComparisonTable-like
    object; the headline is the first row's scalar entries (enough to spot a
    regression without parsing the full table).
    """
    row = result
    if hasattr(row, "rows"):  # ComparisonTable
        row = row.rows
    if isinstance(row, (list, tuple)) and row:
        row = row[0]
    if not isinstance(row, dict):
        if isinstance(row, (int, float, str, bool)):
            return {"value": row}
        return None
    headline = {}
    for key, value in row.items():
        if isinstance(value, (bool, str)):
            headline[key] = value
        elif isinstance(value, (int, float, np.integer, np.floating)):
            headline[key] = float(value)
    return headline or None


def results_path(filename: str) -> Optional[Path]:
    """``filename`` under the ``REPRO_BENCH_RESULTS`` directory; ``None`` when unset."""
    results_dir = os.environ.get("REPRO_BENCH_RESULTS")
    return Path(results_dir) / filename if results_dir else None


def write_results_json(filename: str, payload: dict) -> None:
    """Write a machine-readable results file (shared by every benchmark).

    Results are a convenience artifact; filesystem errors never fail a
    benchmark over them.
    """
    path = results_path(filename)
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError:
        pass


def merge_results_json(filename: str, payload: dict) -> None:
    """Merge ``payload``'s top-level keys into an existing results file.

    Unlike :func:`write_results_json` (full overwrite), keys written by
    *other* benchmarks survive: the sweep matrix and distributed-sweep
    benchmarks share ``BENCH_SWEEP_MATRIX.json``, and whichever runs second
    must not erase the other's cell.  Same never-fail contract.
    """
    path = results_path(filename)
    if path is None:
        return
    merged: dict = {}
    try:
        if path.exists():
            existing = json.loads(path.read_text())
            if isinstance(existing, dict):
                merged = existing
    except (json.JSONDecodeError, OSError):
        pass
    merged.update(payload)
    write_results_json(filename, merged)


def _write_summary(experiment: str, benchmark, elapsed_seconds: float, result) -> None:
    filename = f"BENCH_{experiment}.json"
    path = results_path(filename)
    if path is None:
        return
    entry = {
        "benchmark": getattr(benchmark, "name", None) or experiment,
        "elapsed_seconds": round(elapsed_seconds, 4),
        "headline": _headline_metric(result),
    }
    summary = {"experiment": experiment, "entries": []}
    try:
        if path.exists():
            existing = json.loads(path.read_text())
            if isinstance(existing.get("entries"), list):
                summary = existing
    except (json.JSONDecodeError, OSError):
        pass
    summary["entries"] = [
        other for other in summary["entries"] if other.get("benchmark") != entry["benchmark"]
    ] + [entry]
    write_results_json(filename, summary)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are full simulations or algorithm sweeps: one round is
    both representative and keeps the harness fast enough to run on a laptop.
    Also writes the ``BENCH_<experiment>.json`` machine-readable summary.
    """
    start = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
    elapsed = time.perf_counter() - start
    # Prefer pytest-benchmark's own measurement so the JSON matches the table
    # it prints; fall back to the wall clock if the stats API ever changes.
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    total = getattr(stats, "total", None)
    if total:
        elapsed = float(total)
    experiment = _experiment_id(benchmark)
    if experiment is not None:
        _write_summary(experiment, benchmark, elapsed, result)
    return result
