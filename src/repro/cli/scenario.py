"""``repro-sim scenario``: the declarative scenario catalog (:mod:`repro.scenarios`).

``scenario describe`` previews a spec with the ``--policy`` overrides applied
(its ``--json`` output is a spec file ``describe`` and ``run`` accept in place
of a name); ``scenario run`` prints the results and the hierarchy organization
the run ended in, and can also export the run's causal trace and metric dump.
"""

from __future__ import annotations

import argparse
import dataclasses
import json

from repro.cli.common import (
    JSON_FLAG,
    POLICY_FLAG,
    add_action,
    load_spec,
    non_negative_int,
    parse_policy_overrides,
    user_error,
    write_outputs,
)
from repro.metrics.report import ComparisonTable
from repro.policies.registry import merge_policy_selections
from repro.scenarios import SCENARIOS, ScenarioRunner, ScenarioSpec, iter_scenarios


def register(subparsers) -> None:
    scenario = subparsers.add_parser(
        "scenario", help="list, describe and run declarative catalog scenarios"
    )
    actions = scenario.add_subparsers(dest="action", metavar="ACTION", required=True)
    named = argparse.ArgumentParser(add_help=False, parents=[JSON_FLAG, POLICY_FLAG])
    named.add_argument("name", help="scenario name or spec file")

    add_action(actions, "list", run_list, "print the catalog", [JSON_FLAG])
    add_action(
        actions, "describe", run_describe, "print one scenario's spec, overrides applied", [named]
    )
    run = add_action(actions, "run", run_run, "run one scenario", [named])
    run.add_argument("--seed", type=non_negative_int, default=0, help="random seed")
    run.add_argument(
        "--duration", type=float, help="override the simulated duration (seconds)"
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "enable tracing and write the run's causal trace to PATH as "
            "Chrome trace-event JSON (open in Perfetto / chrome://tracing)"
        ),
    )
    run.add_argument(
        "--metrics-out",
        metavar="PATH",
        help=(
            "enable metrics and write the run's metric dump to PATH "
            "(Prometheus text when PATH ends in .prom, canonical JSON otherwise)"
        ),
    )


def run_list(args: argparse.Namespace) -> int:
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": spec.name,
                        "description": spec.description,
                        "duration": spec.duration,
                        "local_controllers": spec.local_controllers,
                        "vms": spec.total_vms(),
                        "timeline_events": len(spec.timeline),
                    }
                    for spec in iter_scenarios()
                ],
                indent=2,
            )
        )
        return 0
    table = ComparisonTable("Scenario catalog")
    for spec in iter_scenarios():
        table.add_row(
            name=spec.name,
            lcs=spec.local_controllers,
            vms=spec.total_vms(),
            duration_s=spec.duration,
            events=len(spec.timeline),
            description=spec.description,
        )
    table.print()
    return 0


def _apply_policy_overrides(spec: ScenarioSpec, overrides: dict) -> ScenarioSpec:
    """A copy of ``spec`` with ``--policy`` overrides applied (validated)."""
    if not overrides:
        return spec
    return dataclasses.replace(spec, policies=merge_policy_selections(spec.policies, overrides))


def _load_spec(args: argparse.Namespace) -> ScenarioSpec:
    """The named scenario or spec file with the ``--policy`` overrides applied."""
    spec = load_spec(args.name, SCENARIOS)
    with user_error(ValueError):
        return _apply_policy_overrides(spec, parse_policy_overrides(args.policy))


def run_describe(args: argparse.Namespace) -> int:
    print(json.dumps(_load_spec(args).to_dict(), indent=2, sort_keys=args.json))
    return 0


def _force_observability(spec: ScenarioSpec, tracing: bool, metrics: bool) -> ScenarioSpec:
    """Turn on the pillars the requested exports need (spec overrides kept)."""
    if not tracing and not metrics:
        return spec
    observability = dict(spec.config.get("observability") or {})
    if tracing:
        observability["tracing"] = True
    if metrics:
        observability["metrics"] = True
    return dataclasses.replace(spec, config={**spec.config, "observability": observability})


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def run_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    # Bad overrides (non-positive duration, ...) and a missing C compiler for
    # the ACO step are user errors, not crashes.
    with user_error(ValueError, OSError):
        spec = _force_observability(spec, tracing=bool(args.trace), metrics=bool(args.metrics_out))
        runner = ScenarioRunner(spec, seed=args.seed, duration=args.duration)
        result = runner.run()
    if args.json:
        print(result.to_json())
    else:
        _print_result(spec, args.seed, result)
        _hierarchy_table(runner.system).print()
    obs = runner.system.obs

    def metrics() -> str:
        if args.metrics_out.endswith(".prom"):
            return obs.metrics_text()
        return _dump(obs.registry.to_dict())

    return write_outputs(
        [
            (args.trace, lambda: _dump(obs.chrome_trace()), "trace"),
            (args.metrics_out, metrics, "metrics"),
        ]
    )


def _print_result(spec: ScenarioSpec, seed: int, result) -> None:
    print(f"Scenario: {spec.name} (seed {seed})\n  {spec.description}")
    for section in ("submissions", "churn", "packing", "energy", "availability"):
        table = ComparisonTable(section)
        for key, value in getattr(result, section).items():
            table.add_row(metric=key, value=value)
        table.print()
    if result.traffic:
        # The traffic summary nests per-service dicts; flatten the fleet view
        # into one table and give each service its own.
        table = ComparisonTable("traffic")
        table.add_row(metric="ticks", value=result.traffic["ticks"])
        for key, value in result.traffic["requests"].items():
            table.add_row(metric=key, value=value)
        for key, value in result.traffic["latency_seconds"].items():
            table.add_row(metric=f"latency_{key}_seconds", value=value)
        table.print()
        for name, service in sorted(result.traffic["services"].items()):
            table = ComparisonTable(f"traffic/{name}")
            for key, value in service.items():
                table.add_row(metric=key, value="-" if value is None else value)
            table.print()


def _hierarchy_table(system) -> ComparisonTable:
    """One row per GM of the organization the run ended in (who leads, what each holds)."""
    table = ComparisonTable("hierarchy")
    for name, info in sorted(system.hierarchy_snapshot()["group_managers"].items()):
        lcs = info.get("local_controllers", [])
        table.add_row(
            gm=name,
            leader="*" if info.get("is_leader") else "",
            state=info["state"],
            lcs=len(lcs),
            vms=sum(system.local_controllers[lc].node.vm_count for lc in lcs),
        )
    return table
