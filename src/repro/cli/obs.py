"""``repro-sim obs``: inspect observability exports.

``obs summarize`` aggregates a Chrome trace-event file written by ``scenario
run --trace`` into per-span statistics.
"""

from __future__ import annotations

import argparse
import json

from repro.cli.common import JSON_FLAG, add_action, read_json
from repro.metrics.report import ComparisonTable


def register(subparsers) -> None:
    obs = subparsers.add_parser("obs", help="inspect observability exports (trace files)")
    actions = obs.add_subparsers(dest="action", metavar="ACTION", required=True)
    summarize = add_action(
        actions, "summarize", run_summarize, "per-span statistics of a trace file", [JSON_FLAG]
    )
    summarize.add_argument(
        "path", help="a Chrome trace-event JSON file written by scenario run --trace"
    )


def run_summarize(args: argparse.Namespace) -> int:
    trace = read_json(args.path, "trace")
    events = trace.get("traceEvents", []) if isinstance(trace, dict) else []
    tracks = {}
    spans = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            tracks[event.get("tid")] = event.get("args", {}).get("name", "?")
        elif event.get("ph") == "X":
            entry = spans.setdefault(
                event.get("name", "?"),
                {"count": 0, "total_ms": 0.0, "max_ms": 0.0, "components": set()},
            )
            duration_ms = float(event.get("dur", 0)) / 1000.0
            entry["count"] += 1
            entry["total_ms"] += duration_ms
            entry["max_ms"] = max(entry["max_ms"], duration_ms)
            entry["components"].add(tracks.get(event.get("tid"), "?"))
    summary = {
        "events": sum(entry["count"] for entry in spans.values()),
        "tracks": len(tracks),
        "spans": {
            name: {
                "count": entry["count"],
                "total_ms": round(entry["total_ms"], 3),
                "max_ms": round(entry["max_ms"], 3),
                "components": len(entry["components"]),
            }
            for name, entry in sorted(spans.items())
        },
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"Trace: {args.path}")
    print(f"  {summary['events']} spans across {summary['tracks']} tracks")
    table = ComparisonTable("spans (simulated milliseconds)")
    for name, entry in summary["spans"].items():
        table.add_row(
            span=name,
            count=entry["count"],
            total_ms=entry["total_ms"],
            max_ms=entry["max_ms"],
            components=entry["components"],
        )
    table.print()
    return 0
