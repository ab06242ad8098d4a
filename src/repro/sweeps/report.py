"""Sweep aggregation: fold per-run outcomes into one :class:`SweepReport`.

The report carries, per grid cell, the headline metrics the paper's evaluation
tables report -- energy, migrations, SLA violations, packing -- plus aggregate
rows grouped over the seed axis (mean/min/max per scenario x policy x
thresholds group).  It serializes to canonical JSON (sorted keys) and to CSV.

Determinism contract: :meth:`SweepReport.to_dict`, :meth:`to_json` and
:meth:`to_csv` contain **no wall-clock quantities**, so running the same sweep
with any number of jobs yields byte-identical serializations (the test suite
asserts this).  Wall-clock timing lives in the separate :attr:`SweepReport.timing`
attribute for the benchmark harness and the human CLI output.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional, Sequence

from repro.obs import deterministic_observability
from repro.sweeps.spec import SweepSpec, policy_cell_label, thresholds_label

#: Per-run metric columns, in CSV order.
METRIC_COLUMNS = (
    "energy_kwh",
    "transition_kwh",
    "mean_power_watts",
    "migrations",
    "relocations",
    "sla_violations",
    "rejected",
    "placed",
    "mean_latency_seconds",
    "mean_active_hosts",
    "peak_active_hosts",
    "requests_served",
    "requests_dropped_ratio",
    "request_p99_latency_seconds",
    "simulated_seconds",
)

#: Identity columns preceding the metrics in every CSV row.
KEY_COLUMNS = ("index", "scenario", "policies", "thresholds", "seed", "status", "error")

#: Default Pareto objectives (all minimized): the paper's fundamental
#: trade-off -- energy saved vs SLA kept vs migration churn paid for it.
PARETO_OBJECTIVES = ("energy_kwh", "sla_violations", "migrations")


def _metrics_from_result(result: Dict[str, dict]) -> Dict[str, float]:
    """Extract the report's metric row from a ``ScenarioResult`` dictionary."""
    submissions = result.get("submissions", {})
    energy = result.get("energy", {})
    packing = result.get("packing", {})
    availability = result.get("availability", {})
    traffic = result.get("traffic") or {}
    requests = traffic.get("requests", {})
    latency = traffic.get("latency_seconds", {})
    rejected = float(submissions.get("rejected", 0))
    overloads = float(availability.get("overload_events", 0))
    return {
        "energy_kwh": float(energy.get("infrastructure_kwh", 0.0)),
        "transition_kwh": float(energy.get("transition_kwh", 0.0)),
        "mean_power_watts": float(energy.get("mean_power_watts", 0.0)),
        "migrations": float(availability.get("migrations_completed", 0)),
        "relocations": float(availability.get("relocations", 0)),
        # SLA violations: submissions the system turned away plus overload
        # episodes where placed VMs were at risk of degradation.
        "sla_violations": rejected + overloads,
        "rejected": rejected,
        "placed": float(submissions.get("placed", 0)),
        "mean_latency_seconds": float(submissions.get("mean_latency_seconds", 0.0)),
        "mean_active_hosts": float(packing.get("mean_active_hosts", 0.0)),
        "peak_active_hosts": float(packing.get("peak_active_hosts", 0.0)),
        # Traffic-plane SLA metrics; zero for scenarios without a traffic
        # section so the CSV schema stays rectangular across mixed sweeps.
        "requests_served": float(requests.get("served", 0.0)),
        "requests_dropped_ratio": float(requests.get("dropped_ratio", 0.0)),
        "request_p99_latency_seconds": float(latency.get("p99", 0.0)),
        "simulated_seconds": float(result.get("duration", 0.0)),
    }


class SweepReport:
    """Aggregated outcome of one executed sweep."""

    def __init__(
        self,
        spec: SweepSpec,
        runs: List[dict],
        timing: Optional[dict] = None,
    ) -> None:
        self.spec = spec
        #: Per-run rows (deterministic content only), in run-index order.
        self.runs = runs
        #: Wall-clock info (total seconds, jobs, per-run seconds); NOT serialized
        #: by :meth:`to_dict` -- reports must be identical across job counts.
        self.timing = timing or {}

    # ------------------------------------------------------------ construction
    @classmethod
    def from_outcomes(
        cls,
        spec: SweepSpec,
        outcomes: Sequence[Dict[str, object]],
        jobs: int = 1,
        wall_seconds: Optional[float] = None,
    ) -> "SweepReport":
        """Fold executor outcomes (see :mod:`repro.sweeps.executor`) into a report."""
        runs: List[dict] = []
        per_run_wall: List[float] = []
        for position, outcome in enumerate(outcomes):
            # A failed outcome may carry an incomplete payload (the executor's
            # isolation contract covers arbitrary junk); aggregation must
            # degrade to a failed row, never crash at report time.
            payload = outcome.get("run") or {}
            ok = outcome["status"] == "ok"
            row = {
                "index": payload.get("index", position),
                "scenario": payload.get("scenario") or "?",
                "policies": policy_cell_label(payload.get("policies") or {}),
                "thresholds": thresholds_label(payload.get("thresholds")),
                "base_seed": payload.get("base_seed"),
                "seed": payload.get("seed"),
                "status": outcome["status"],
                "error": outcome.get("error"),
                "metrics": _metrics_from_result(outcome["result"]) if ok else None,
                "resolved_policies": (
                    dict(outcome["result"].get("policies", {})) if ok else None
                ),
                # Observability rollup with the wall-clock keys stripped, so
                # reports stay byte-identical across job counts.
                "observability": (
                    deterministic_observability(outcome["result"].get("observability") or {})
                    if ok
                    else None
                ),
            }
            runs.append(row)
            per_run_wall.append(round(float(outcome.get("wall_seconds", 0.0)), 4))
        timing = {
            "jobs": int(jobs),
            "wall_seconds_total": (
                round(float(wall_seconds), 4) if wall_seconds is not None else None
            ),
            "run_wall_seconds": per_run_wall,
        }
        return cls(spec=spec, runs=runs, timing=timing)

    # -------------------------------------------------------------- inspection
    @property
    def total_runs(self) -> int:
        """Number of grid cells executed."""
        return len(self.runs)

    @property
    def failed(self) -> int:
        """Number of cells that raised (isolated by the executor)."""
        return sum(1 for run in self.runs if run["status"] != "ok")

    def failures(self) -> List[dict]:
        """The failed rows (empty when the sweep was clean)."""
        return [run for run in self.runs if run["status"] != "ok"]

    def aggregates(self) -> List[dict]:
        """Mean/min/max of every metric per (scenario, policies, thresholds) group.

        Groups aggregate over the seed axis; failed runs are excluded from the
        statistics but counted in ``failed``.
        """
        groups: Dict[tuple, dict] = {}
        for run in self.runs:
            key = (run["scenario"], run["policies"], run["thresholds"])
            group = groups.setdefault(
                key,
                {
                    "scenario": key[0],
                    "policies": key[1],
                    "thresholds": key[2],
                    "runs": 0,
                    "failed": 0,
                    "metrics": {},
                },
            )
            group["runs"] += 1
            if run["status"] != "ok":
                group["failed"] += 1
                continue
            for metric, value in run["metrics"].items():
                group["metrics"].setdefault(metric, []).append(value)
        rows: List[dict] = []
        for key in sorted(groups):
            group = groups[key]
            summary = {}
            for metric in METRIC_COLUMNS:
                values = group["metrics"].get(metric)
                if not values:
                    continue
                summary[metric] = {
                    "mean": sum(values) / len(values),
                    "min": min(values),
                    "max": max(values),
                }
            rows.append(
                {
                    "scenario": group["scenario"],
                    "policies": group["policies"],
                    "thresholds": group["thresholds"],
                    "runs": group["runs"],
                    "failed": group["failed"],
                    "metrics": summary,
                }
            )
        return rows

    # ----------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """Deterministic plain-data form (no wall-clock content)."""
        return {
            "sweep": self.spec.name,
            "description": self.spec.description,
            "spec": self.spec.to_dict(),
            "total_runs": self.total_runs,
            "failed_runs": self.failed,
            "runs": self.runs,
            "aggregates": self.aggregates(),
        }

    def to_json(self, indent: int = 2) -> str:
        """Canonical JSON (sorted keys) -- byte-identical across job counts."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def to_csv(self) -> str:
        """One CSV row per run (identity columns, then the metric columns)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(list(KEY_COLUMNS) + list(METRIC_COLUMNS))
        for run in self.runs:
            row = [
                run["index"],
                run["scenario"],
                run["policies"],
                run["thresholds"],
                run["seed"],
                run["status"],
                run["error"] or "",
            ]
            metrics = run["metrics"] or {}
            row.extend(metrics.get(metric, "") for metric in METRIC_COLUMNS)
            writer.writerow(row)
        return buffer.getvalue()

    def pareto(self, objectives: Sequence[str] = PARETO_OBJECTIVES) -> dict:
        """Pareto-front analysis of this report (see :func:`analyze_report`)."""
        return analyze_report(self.to_dict(), objectives=objectives)


# ------------------------------------------------------------- Pareto analysis
def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when objective vector ``a`` Pareto-dominates ``b`` (all minimized)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_ranks(vectors: Sequence[Sequence[float]]) -> List[int]:
    """Non-dominated sorting: rank 1 = the Pareto front, peeled repeatedly.

    Rank ``r`` cells are exactly the non-dominated cells once ranks ``< r``
    are removed, so every rank-``r`` cell (``r > 1``) is dominated by at least
    one rank-``r-1`` cell.  Equal vectors share a rank (neither dominates).
    Deterministic and independent of input order by construction.
    """
    n = len(vectors)
    ranks = [0] * n
    remaining = set(range(n))
    rank = 0
    while remaining:
        rank += 1
        front = [
            i
            for i in remaining
            if not any(dominates(vectors[j], vectors[i]) for j in remaining if j != i)
        ]
        if not front:  # pragma: no cover - impossible for a strict partial order
            front = sorted(remaining)
        for i in front:
            ranks[i] = rank
        remaining.difference_update(front)
    return ranks


def analyze_report(
    report: dict, objectives: Sequence[str] = PARETO_OBJECTIVES
) -> dict:
    """Pareto fronts over a report's aggregate cells, per scenario.

    ``report`` is a :meth:`SweepReport.to_dict` dictionary (or the parsed JSON
    a ``sweep run --output`` file holds).  Cells are the aggregate rows --
    one per (scenario, policies, thresholds) group, objective values are the
    group means -- and fronts are computed *within* each scenario, because
    "less energy on a different workload" is not a trade-off.  Cells whose
    every run failed carry ``rank: None`` and never join a front.

    The result is deterministic plain data: cells sorted by (rank, policies,
    thresholds) with unranked cells last, serialized canonically by
    :func:`pareto_json` / :func:`pareto_csv`.
    """
    objectives = tuple(objectives)
    if not objectives:
        raise ValueError("need at least one objective")
    unknown = [name for name in objectives if name not in METRIC_COLUMNS]
    if unknown:
        raise ValueError(
            f"unknown objective(s) {unknown}; valid metrics: {sorted(METRIC_COLUMNS)}"
        )
    aggregates = report.get("aggregates") if isinstance(report, dict) else None
    if not isinstance(aggregates, list):
        raise ValueError("not a sweep report: missing 'aggregates' (use sweep run --output)")

    scenarios: Dict[str, List[dict]] = {}
    for group in aggregates:
        scenarios.setdefault(group["scenario"], []).append(group)

    analyzed: Dict[str, dict] = {}
    for scenario in sorted(scenarios):
        groups = sorted(
            scenarios[scenario], key=lambda g: (g["policies"], g["thresholds"])
        )
        ranked = [
            g for g in groups if all(name in g["metrics"] for name in objectives)
        ]
        vectors = [
            [float(g["metrics"][name]["mean"]) for name in objectives] for g in ranked
        ]
        ranks = pareto_ranks(vectors)
        rank_of = {id(g): rank for g, rank in zip(ranked, ranks)}
        cells = [
            {
                "policies": g["policies"],
                "thresholds": g["thresholds"],
                "rank": rank_of.get(id(g)),
                "runs": g["runs"],
                "failed": g["failed"],
                "objectives": {
                    name: float(g["metrics"][name]["mean"])
                    for name in objectives
                    if name in g["metrics"]
                },
            }
            for g in groups
        ]
        cells.sort(
            key=lambda c: (
                c["rank"] is None,
                c["rank"] if c["rank"] is not None else 0,
                c["policies"],
                c["thresholds"],
            )
        )
        analyzed[scenario] = {
            "cells": cells,
            "front": [
                {
                    "policies": c["policies"],
                    "thresholds": c["thresholds"],
                    "objectives": c["objectives"],
                }
                for c in cells
                if c["rank"] == 1
            ],
        }
    return {
        "sweep": report.get("sweep"),
        "objectives": list(objectives),
        "scenarios": analyzed,
    }


def pareto_json(analysis: dict, indent: int = 2) -> str:
    """Canonical JSON (sorted keys) of an :func:`analyze_report` result."""
    return json.dumps(analysis, sort_keys=True, indent=indent)


def pareto_csv(analysis: dict) -> str:
    """One CSV row per analyzed cell: identity, rank, then the objectives."""
    objectives = list(analysis["objectives"])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["scenario", "policies", "thresholds", "rank"] + objectives)
    for scenario in sorted(analysis["scenarios"]):
        for cell in analysis["scenarios"][scenario]["cells"]:
            writer.writerow(
                [
                    scenario,
                    cell["policies"],
                    cell["thresholds"],
                    "" if cell["rank"] is None else cell["rank"],
                ]
                + [cell["objectives"].get(name, "") for name in objectives]
            )
    return buffer.getvalue()
