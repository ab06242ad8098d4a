"""``repro-sim sweep``: declarative experiment grids (:mod:`repro.sweeps`).

Every grid is a catalog name or a spec file (``sweep describe --json`` writes
one).  ``sweep run`` executes a grid locally (``--jobs``) or on loopback runners
forked from this process (``--runners``); ``sweep serve`` hands it to
work-pulling runners started elsewhere with ``sweep work``; ``sweep analyze``
computes the Pareto fronts of a saved report.  The report bytes are the same on every backend.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from repro.cli.common import (
    JSON_FLAG,
    POLICY_FLAG,
    CliError,
    add_action,
    load_spec,
    parse_policy_overrides,
    positive_int,
    read_json,
    user_error,
    write_outputs,
)
from repro.metrics.report import ComparisonTable
from repro.policies.registry import merge_policy_selections
from repro.sweeps import (
    PARETO_OBJECTIVES,
    SWEEPS,
    DistributedExecutor,
    SweepAborted,
    SweepCoordinator,
    SweepReport,
    SweepSpec,
    analyze_report,
    collect_outcomes,
    iter_sweeps,
    pareto_csv,
    pareto_json,
    run_sweep,
)
from repro.sweeps.runner import check_port, work


def port_number(text: str) -> int:
    """argparse ``type=`` for ``--port``: a TCP port number, 0-65535."""
    value = int(text)
    try:
        return check_port(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def register(subparsers) -> None:
    sweep = subparsers.add_parser(
        "sweep", help="list, describe, run, distribute and analyze experiment grids"
    )
    actions = sweep.add_subparsers(dest="action", metavar="ACTION", required=True)

    grid = argparse.ArgumentParser(add_help=False, parents=[JSON_FLAG, POLICY_FLAG])
    grid.add_argument("name", help="sweep name or spec file")
    grid.add_argument(
        "--duration", type=float, help="override the simulated duration of every run (seconds)"
    )
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--output", metavar="PATH", help="also write the JSON report to PATH")
    outputs.add_argument("--csv", metavar="PATH", help="also write the CSV report to PATH")
    lease = argparse.ArgumentParser(add_help=False)
    lease.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        help=(
            "seconds a cell granted to a runner may go without a heartbeat "
            "before it is reclaimed and retried"
        ),
    )

    add_action(actions, "list", run_list, "print the catalog", [JSON_FLAG])
    add_action(
        actions, "describe", run_describe, "print one grid's spec, overrides applied", [grid]
    )

    run = add_action(actions, "run", run_run, "run one grid", [grid, outputs, lease])
    backend = run.add_mutually_exclusive_group()
    backend.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="parallel worker processes (default 1 = serial; the report is identical either way)",
    )
    backend.add_argument(
        "--runners",
        type=positive_int,
        help=(
            "execute on N loopback runners forked from this process, pulling cells "
            "from the distributed coordinator (the report is identical to --jobs runs)"
        ),
    )

    serve = add_action(
        actions,
        "serve",
        run_serve,
        "serve one grid to work-pulling runners",
        [grid, outputs, lease],
    )
    serve.add_argument("--host", default="0.0.0.0", help="bind address (default 0.0.0.0)")
    serve.add_argument(
        "--port", type=port_number, default=0, help="bind port (default 0 = pick a free port)"
    )
    serve.add_argument(
        "--port-file", metavar="PATH", help="write the bound port to PATH once listening"
    )

    worker = add_action(
        actions,
        "work",
        lambda args: work(args.connect),
        "join a coordinator as one work-pulling runner",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the coordinator address to pull cells from",
    )

    analyze = add_action(
        actions, "analyze", run_analyze, "Pareto fronts of a report file", [JSON_FLAG, outputs]
    )
    analyze.add_argument("report", help="a report JSON file written by sweep run --output")
    analyze.add_argument(
        "--objectives",
        metavar="A,B,C",
        help=f"comma-separated metrics to minimize (default {','.join(PARETO_OBJECTIVES)})",
    )


def run_list(args: argparse.Namespace) -> int:
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": spec.name,
                        "description": spec.description,
                        "scenarios": spec.scenarios,
                        "runs": spec.total_runs(),
                    }
                    for spec in iter_sweeps()
                ],
                indent=2,
            )
        )
        return 0
    table = ComparisonTable("Sweep catalog")
    for spec in iter_sweeps():
        table.add_row(
            name=spec.name,
            scenarios=len(spec.scenarios),
            policy_cells=len(spec.policies),
            thresholds=len(spec.thresholds),
            seeds=len(spec.resolved_seeds()),
            runs=spec.total_runs(),
            description=spec.description,
        )
    table.print()
    return 0


def _sweep_with_overrides(spec: SweepSpec, overrides: dict, duration) -> SweepSpec:
    """A copy of ``spec`` with ``--policy``/``--duration`` overrides applied.

    A ``--policy kind=name`` override forces that selection in *every* policy
    cell of the grid (cells already selecting that name keep their tuned
    parameters).  The result is revalidated by the ``SweepSpec`` constructor.
    """
    if not overrides and duration is None:
        return spec
    changes = {}
    if overrides:
        cells = [merge_policy_selections(cell, overrides) for cell in spec.policies]
        # Forcing one selection can collapse distinct cells into duplicates;
        # keep the first of each so the grid never re-runs identical cells.
        unique, seen = [], set()
        for cell in cells:
            key = json.dumps(cell, sort_keys=True)
            if key not in seen:
                seen.add(key)
                unique.append(cell)
        changes["policies"] = unique
    if duration is not None:
        changes["duration"] = duration
    return dataclasses.replace(spec, **changes)


def _load_grid(args: argparse.Namespace) -> SweepSpec:
    """The named sweep or spec file with the ``--policy``/``--duration`` overrides applied."""
    spec = load_spec(args.name, SWEEPS)
    with user_error(KeyError, ValueError):
        return _sweep_with_overrides(spec, parse_policy_overrides(args.policy), args.duration)


def run_describe(args: argparse.Namespace) -> int:
    print(json.dumps(_load_grid(args).to_dict(), indent=2, sort_keys=True))
    return 0


def _emit_report(report: SweepReport, args: argparse.Namespace, backend: str) -> int:
    """Shared tail of ``sweep run``/``sweep serve``: print, write files, exit code."""
    if args.json:
        print(report.to_json())
    else:
        print(f"Sweep: {report.spec.name} ({report.total_runs} runs, {backend})")
        table = ComparisonTable("aggregates (mean over seeds)")
        for group in report.aggregates():
            metrics = group["metrics"]
            table.add_row(
                scenario=group["scenario"],
                policies=group["policies"],
                thresholds=group["thresholds"],
                runs=group["runs"],
                failed=group["failed"],
                energy_kwh=round(metrics.get("energy_kwh", {}).get("mean", 0.0), 4),
                migrations=round(metrics.get("migrations", {}).get("mean", 0.0), 2),
                sla_violations=round(metrics.get("sla_violations", {}).get("mean", 0.0), 2),
                mean_active_hosts=round(
                    metrics.get("mean_active_hosts", {}).get("mean", 0.0), 3
                ),
            )
        table.print()
        total = report.timing.get("wall_seconds_total")
        if total is not None:
            print(f"Wall clock: {total:.2f}s ({backend})")
    status = write_outputs(
        [
            (args.output, lambda: report.to_json() + "\n", None),
            (args.csv, report.to_csv, None),
        ]
    )
    for failure in report.failures():
        print(
            f"error: run {failure['index']} ({failure['scenario']}, "
            f"{failure['policies']}): {failure['error']}",
            file=sys.stderr,
        )
    return 1 if report.failed else status


def run_run(args: argparse.Namespace) -> int:
    spec = _load_grid(args)
    if args.runners is None:
        report = run_sweep(spec, jobs=args.jobs)
        return _emit_report(report, args, f"jobs={report.timing.get('jobs', args.jobs)}")
    with user_error(ValueError):
        executor = DistributedExecutor(runners=args.runners, lease_seconds=args.lease_seconds)
    with user_error(SweepAborted):
        report = run_sweep(spec, executor=executor)
    return _emit_report(report, args, f"runners={args.runners}")


def run_serve(args: argparse.Namespace) -> int:
    """Serve the grid to work-pulling runners, then report like ``sweep run``."""
    spec = _load_grid(args)
    payloads = [run.to_dict() for run in spec.expand()]
    with user_error(ValueError):
        coordinator = SweepCoordinator(
            payloads, host=args.host, port=args.port, lease_seconds=args.lease_seconds
        )

    def on_bound(address) -> None:
        host, port = address
        # Status goes to stderr so --json keeps machine-readable stdout.
        print(
            f"serving sweep {spec.name!r} ({len(payloads)} runs) on {host}:{port} -- "
            f"connect runners with: repro-sim sweep work --connect {host}:{port}",
            file=sys.stderr,
        )
        if args.port_file:
            with open(args.port_file, "w") as handle:
                handle.write(f"{port}\n")

    start = time.perf_counter()
    try:
        outcomes = collect_outcomes(coordinator, on_bound=on_bound)
    except SweepAborted as exc:
        raise CliError(exc) from exc
    except OSError as exc:
        raise CliError(f"cannot serve on {args.host}:{args.port}: {exc}") from exc
    report = SweepReport.from_outcomes(
        spec, outcomes, jobs=0, wall_seconds=time.perf_counter() - start
    )
    return _emit_report(report, args, "runner fleet")


def run_analyze(args: argparse.Namespace) -> int:
    """Pareto-front analysis of a ``sweep run --output`` report file."""
    report = read_json(args.report, "report")
    objectives = (
        tuple(part.strip() for part in args.objectives.split(",") if part.strip())
        if args.objectives
        else PARETO_OBJECTIVES
    )
    with user_error(ValueError):
        analysis = analyze_report(report, objectives=objectives)
    if args.json:
        print(pareto_json(analysis))
    else:
        print(f"Pareto analysis: {analysis['sweep']} (minimizing {', '.join(objectives)})")
        for scenario in sorted(analysis["scenarios"]):
            entry = analysis["scenarios"][scenario]
            table = ComparisonTable(f"{scenario}: non-dominated fronts")
            for cell in entry["cells"]:
                table.add_row(
                    rank="-" if cell["rank"] is None else cell["rank"],
                    policies=cell["policies"],
                    thresholds=cell["thresholds"],
                    **{
                        name: round(value, 4)
                        for name, value in cell["objectives"].items()
                    },
                )
            table.print()
            front = ", ".join(
                f"{cell['policies']} @ {cell['thresholds']}" for cell in entry["front"]
            )
            print(f"  front: {front}")
    return write_outputs(
        [
            (args.output, lambda: pareto_json(analysis) + "\n", None),
            (args.csv, lambda: pareto_csv(analysis), None),
        ]
    )
