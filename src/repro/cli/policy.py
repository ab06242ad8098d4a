"""``repro-sim policy``: introspect the unified policy registry (:mod:`repro.policies`).

``policy list [<kind>]`` enumerates every registered policy (of one kind);
``policy describe <kind> <name>`` prints one policy's parameter schema.
"""

from __future__ import annotations

import argparse
import json

from repro.cli.common import JSON_FLAG, add_action, user_error
from repro.metrics.report import ComparisonTable
from repro.policies import get_policy_spec, iter_policy_specs


def register(subparsers) -> None:
    policy = subparsers.add_parser("policy", help="introspect the unified policy registry")
    actions = policy.add_subparsers(dest="action", metavar="ACTION", required=True)

    listing = add_action(
        actions, "list", run_list, "enumerate the registered policies", [JSON_FLAG]
    )
    listing.add_argument("kind", nargs="?", help="only list policies of this kind")
    describe = add_action(
        actions, "describe", run_describe, "print one policy's parameter schema", [JSON_FLAG]
    )
    describe.add_argument("kind", help="policy kind")
    describe.add_argument("name", help="policy name")


def run_list(args: argparse.Namespace) -> int:
    with user_error(ValueError):  # unknown kind filter
        specs = list(iter_policy_specs(args.kind))
    if args.json:
        print(json.dumps([spec.describe() for spec in specs], indent=2))
        return 0
    title = f"Policy registry ({args.kind})" if args.kind else "Policy registry"
    table = ComparisonTable(title)
    for spec in specs:
        table.add_row(
            kind=spec.kind,
            name=spec.name,
            params=", ".join(spec.param_names()) or "-",
            description=spec.description,
        )
    table.print()
    return 0


def run_describe(args: argparse.Namespace) -> int:
    with user_error(ValueError):
        spec = get_policy_spec(args.kind, args.name)
    if args.json:
        print(json.dumps(spec.describe(), indent=2, sort_keys=True))
        return 0
    print(f"{spec.kind} / {spec.name}\n  {spec.description}")
    if not spec.params:
        print("  (no parameters)")
        return 0
    table = ComparisonTable("parameters")
    for param in spec.params:
        info = param.describe()
        table.add_row(
            param=info["name"],
            required=info["required"],
            default="-" if info["required"] else repr(info.get("default")),
            runtime=bool(info.get("runtime", False)),
        )
    table.print()
    return 0
