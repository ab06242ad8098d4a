"""``repro-sim megafleet``: the warehouse-scale fleet catalog (:mod:`repro.megafleet`).

``megafleet run`` takes a catalog name or a spec file (one entry of
``megafleet list --json``) and uses the sharded lockstep engine: results are
byte-identical for any ``--shards`` / ``--jobs`` count.
"""

from __future__ import annotations

import argparse
import json

from repro.cli.common import JSON_FLAG, add_action, load_spec, non_negative_int, user_error
from repro.megafleet import MEGAFLEETS, run_megafleet
from repro.metrics.report import ComparisonTable


def register(subparsers) -> None:
    megafleet = subparsers.add_parser(
        "megafleet", help="list and run warehouse-scale fleets (sharded lockstep engine)"
    )
    actions = megafleet.add_subparsers(dest="action", metavar="ACTION", required=True)

    add_action(actions, "list", run_list, "print the catalog", [JSON_FLAG])
    run = add_action(actions, "run", run_run, "run one fleet", [JSON_FLAG])
    run.add_argument("name", help="fleet name or spec file")
    run.add_argument("--seed", type=non_negative_int, default=0, help="random seed")
    run.add_argument(
        "--shards",
        type=int,
        default=1,
        help="lockstep shards (results are identical for any count)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes the shards stay resident in (default 1 = in-process)",
    )
    run.add_argument(
        "--duration", type=float, help="override the simulated duration (seconds)"
    )


def run_list(args: argparse.Namespace) -> int:
    specs = list(MEGAFLEETS)
    if args.json:
        print(json.dumps([spec.to_dict() for spec in specs], indent=2))
        return 0
    table = ComparisonTable("Megafleet catalog")
    for spec in specs:
        table.add_row(
            name=spec.name,
            lcs=spec.local_controllers,
            gms=spec.group_managers,
            duration_s=spec.duration,
            epoch_s=spec.epoch,
            description=spec.description,
        )
    table.print()
    return 0


def run_run(args: argparse.Namespace) -> int:
    spec = load_spec(args.name, MEGAFLEETS)
    with user_error(ValueError):
        result = run_megafleet(
            spec,
            seed=args.seed,
            shards=args.shards,
            jobs=args.jobs,
            duration=args.duration,
        )
    if args.json:
        print(result.canonical_json(), end="")
        return 0
    table = ComparisonTable(f"Megafleet {spec.name} (seed {args.seed})")
    for key, value in result.totals.items():
        table.add_row(metric=key, value=value)
    table.add_row(metric="wall_seconds", value=round(result.wall_seconds, 3))
    table.add_row(metric="events_per_second", value=round(result.events_per_second))
    # Where the wall went (never under --json: host time is not deterministic).
    for key, value in result.perf.items():
        if key == "compute_s":  # one entry per shard
            value = " ".join(f"{seconds:.3f}" for seconds in value)
        elif isinstance(value, float):
            value = round(value, 3)
        table.add_row(metric=key, value=value)
    table.print()
    return 0
