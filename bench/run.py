#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload catalog-mix --seed 7 --seconds 15 --trace 0

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
carrying the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer metrics (``--trace 1``; a layer the workload never enters reads 0).
The full result document -- stamps, pass walls, digests, failures -- goes to
``bench/out/`` (or ``--out``) and is what ``bench/compare.py`` reads.

The process runs from the root of a checkout, imports ``src/repro`` from that
checkout only, and exits non-zero without printing a result when it is absent.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"

#: One compute thread per process: the box has two cores and no workload uses
#: more than two worker processes, which inherit this environment.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7, help="input seed (7 = the goldens' seed)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure timed passes for this long (at least two passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced + profiled pass, per-layer metrics, Chrome trace file")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-sized inputs (harness tests); numbers are not comparable")
    parser.add_argument("--out", type=Path, default=None, help="result document path")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} is missing; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for name in THREAD_PINS:
        os.environ[name] = "1"
    # The build: byte-compile the package once so import time (part of
    # setup_s) is the same on a fresh checkout as on a warm one.
    compileall.compile_dir(str(SRC / "repro"), quiet=2, workers=1)
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    import harness  # noqa: E402 - after the path and thread pins are in place
    from workloads import WORKLOADS

    import_seconds = time.perf_counter() - started

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    out_path = args.out or OUT_DIR / f"{stem}.json"
    trace_path = out_path.with_suffix(".trace.json") if args.trace else None

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    document = harness.measure(
        workload, args.seconds, bool(args.trace), import_seconds, trace_path=trace_path
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    report(document)
    spec = json.loads(harness.BENCHMARK_SPEC.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = document["per_layer"] if args.trace else document["end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name in measured:
            metrics[name] = measured[name]
        elif args.trace:
            # A layer this workload never enters did no work and took no time.
            metrics[name] = {"value": 0.0, "unit": entry["unit"]}
    print(json.dumps({
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }))
    return 0


def report(document: dict) -> None:
    """Human-readable metrics, one per line, by name with unit."""
    stamp = document["stamp"]
    print(f"workload {document['workload']}  seed {stamp['seed']}  cpus {stamp['cpus']}  "
          f"git {stamp['git_sha'][:12]}  python {stamp['python']}  numpy {stamp['numpy']}")
    print(f"passes {document['passes']} untraced  "
          f"(setup x{document['setup_reps']}, import {document['import_s']:.3f} s)  "
          f"attempted {document['attempted']}  failed {document['failed']}")
    if document["compute_starved"]:
        print("compute_starved: fewer than 2 CPUs -- throughput withheld (it would time spawn)")
    print(f"throughput counts {document['throughput_counts']}")
    for section in ("end_to_end", "per_layer"):
        for name, entry in document.get(section, {}).items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for message in document["failures"]:
        print(f"  FAILED {message}")
    if "trace_file" in document:
        print(f"trace {document['trace_file']}  ({document['spans']} spans)")


if __name__ == "__main__":
    sys.exit(main())
