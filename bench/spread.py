#!/usr/bin/env python3
"""Run-to-run spread of one or more sets of benchmark results.

    python3 bench/spread.py SET_DIR [SET_DIR ...] [--json FILE]

Each directory holds the result documents of one *set* of runs (ten runs per
workload, each at another seed, is what the bounds in ``BENCHMARK.json`` were
sized against).  For every workload x end-to-end metric this prints the set's
median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median, next to the
metric's bound and a third of it -- the steadiness a bound is expected to
leave room for.  A last row per workload gives the same for ``raw_wall_s``, the
pass time before host-reference scaling, to show what the scaling buys.
``--json`` writes the same numbers as evidence for the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from compare import ROOT, by_workload, load, spread, values


def summarize(directories, spec) -> dict:
    """``{workload: {metric: {"bound", "medians", "spreads"}}}`` over the run sets."""
    sets = [by_workload(load(directory)) for directory in directories]
    summary: dict = {}
    raw = {"name": "raw_wall_s", "unit": "s", "bound": None}
    for workload in (w["name"] for w in spec["workloads"]):
        for entry in spec["end_to_end"] + [raw]:
            name = entry["name"]
            medians, spreads, runs = [], [], []
            for grouped in sets:
                documents = grouped.get(workload, [])
                measured = [d[name] for d in documents] if entry is raw else values(documents, name)
                if measured:
                    medians.append(statistics.median(measured))
                    spreads.append(spread(measured))
                    runs.append(len(measured))
            if medians:
                summary.setdefault(workload, {})[name] = {
                    "unit": entry["unit"],
                    "bound": entry["bound"],
                    "runs_per_set": runs,
                    "medians": medians,
                    "spreads": spreads,
                }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", type=Path, nargs="+", help="one directory per run set")
    parser.add_argument("--json", type=Path, default=None, help="write the summary here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = summarize(args.sets, spec)
    print(f"{'workload':18} {'metric':12} {'bound':>6} {'bound/3':>8}  median (spread) per set")
    for workload, metrics in summary.items():
        for name, row in metrics.items():
            cells = "  ".join(
                f"{median:.6g} ({share:.1%})"
                for median, share in zip(row["medians"], row["spreads"])
            )
            if row["bound"] is None:
                print(f"{workload:18} {name:12} {'':6} {'':8}  {cells}")
                continue
            steady = name == "setup_s" or max(row["spreads"]) <= row["bound"] / 3
            print(f"{workload:18} {name:12} {row['bound']:6.2f} {row['bound'] / 3:8.1%}  {cells}"
                  + ("" if steady else "  > bound/3"))
    if args.json is not None:
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
