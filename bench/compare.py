#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 bench/compare.py A B

``A`` (the parent) and ``B`` (the change) are result documents written by
``bench/run.py`` or directories of them.  One row per workload x end-to-end
metric: both medians, the bound from ``BENCHMARK.json`` and a verdict --

``ok``          the change's median is no worse than the parent's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the run-to-run spread of either side exceeds the bound, and not
                every run of the change reads better than every run of the parent.

Simulated numbers (``sim_energy_kwh``, ``pack_ratio``, counts) are compared
run by run at equal seeds and must be equal; ``failed_ratio`` may not rise.
Digest changes are listed as "simulated results changed" without failing --
only catalog scenarios have committed goldens.  Exit code 1 on any regression
or changed exact metric, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> List[dict]:
    """Every untraced result document under ``path`` (a file or a directory)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    documents = []
    for file in files:
        if file.name.endswith(".trace.json"):
            continue
        document = json.loads(file.read_text())
        if document.get("schema") == 1 and not document.get("traced"):
            documents.append(document)
    if not documents:
        raise SystemExit(f"error: no untraced result documents under {path}")
    return documents


def spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median (quartile distance from 4 runs up)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def verdict(
    parent: List[float], change: List[float], better: str, bound: float
) -> Tuple[float, str]:
    """``(share by which the change's median is worse, verdict)``."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worse_by = sign * (statistics.median(change) - base) / abs(base) if base else 0.0
    if max(spread(parent), spread(change)) > bound:
        if better == "lower":
            clear_win = max(change) < min(parent)
        else:
            clear_win = min(change) > max(parent)
        return worse_by, "ok" if clear_win else "unresolved"
    return worse_by, "regressed" if worse_by > bound else "ok"


def by_workload(documents: List[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for document in documents:
        grouped.setdefault(document["workload"], []).append(document)
    return grouped


def values(documents: List[dict], metric: str) -> List[float]:
    """The metric's value in every document that reports it."""
    return [d["end_to_end"][metric]["value"] for d in documents if metric in d["end_to_end"]]


def run_key(document: dict) -> Tuple[str, int, bool]:
    return document["workload"], document["stamp"]["seed"], document["smoke"]


def compare(parent: List[dict], change: List[dict], spec: dict) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed."""
    declared = {m["name"]: m for m in spec["end_to_end"]}
    lines = [
        f"{'workload':18} {'metric':14} {'parent':>12} {'change':>12} {'worse by':>9} "
        f"{'bound':>6} {'spread':>7}  verdict"
    ]
    regressed = False
    parents, changes = by_workload(parent), by_workload(change)
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in parents or workload not in changes:
            continue
        for name, entry in declared.items():
            a, b = values(parents[workload], name), values(changes[workload], name)
            if not a or not b:
                lines.append(f"{workload:18} {name:14} {'-':>12} {'-':>12} {'':>9} "
                             f"{entry['bound']:6.2f} {'':>7}  unresolved (compute_starved)")
                continue
            worse_by, outcome = verdict(a, b, entry["better"], entry["bound"])
            regressed |= outcome == "regressed"
            lines.append(
                f"{workload:18} {name:14} {statistics.median(a):12.6g} "
                f"{statistics.median(b):12.6g} {worse_by:+9.1%} "
                f"{entry['bound']:6.2f} {max(spread(a), spread(b)):7.1%}  {outcome}"
                f"  ({len(a)} vs {len(b)} runs)"
            )
        failed_a = max(d["end_to_end"]["failed_ratio"]["value"] for d in parents[workload])
        failed_b = max(d["end_to_end"]["failed_ratio"]["value"] for d in changes[workload])
        outcome = "regressed" if failed_b > failed_a else "ok"
        regressed |= outcome == "regressed"
        lines.append(f"{workload:18} {'failed_ratio':14} {failed_a:12.6g} {failed_b:12.6g} "
                     f"{'':>9} {0:6.2f} {'':>7}  {outcome}")

    # Simulated numbers and digests: run by run, at equal seeds.
    change_runs = {run_key(d): d for d in change}
    for document in parent:
        other = change_runs.get(run_key(document))
        if other is None:
            continue
        label = f"{document['workload']} seed {document['stamp']['seed']}"
        for name in sorted(set(document["exact"]) | set(other["exact"])):
            before, after = document["exact"].get(name), other["exact"].get(name)
            if before != after:
                regressed = True
                lines.append(f"exact metric changed: {label}: {name}: {before} -> {after}")
        for item in sorted(set(document["digests"]) | set(other["digests"])):
            if document["digests"].get(item) != other["digests"].get(item):
                lines.append(f"simulated results changed: {label}: {item}")
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="result file or directory (A)")
    parser.add_argument("change", type=Path, help="result file or directory (B)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = compare(load(args.parent), load(args.change), spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
