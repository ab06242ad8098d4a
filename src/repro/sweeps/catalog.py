"""The named sweep catalog and its registry.

Mirrors the scenario catalog: a sweep registers a zero-argument factory under
the name of the :class:`~repro.sweeps.spec.SweepSpec` it produces, and the CLI
(``repro-sim sweep``), the smoke jobs and the benchmark harness resolve sweeps
through this registry.

Sizing note: every entry is dialed so the whole grid runs in well under a
minute serially on a laptop; the axes are plain data, so callers can scale any
of them up through ``SweepSpec.from_dict`` overrides.
"""

from __future__ import annotations

from typing import Dict

from repro.plain import Catalog
from repro.policies.registry import policy_names
from repro.sweeps.spec import SweepSpec

SWEEPS = Catalog("sweep", SweepSpec)
register_sweep = SWEEPS.register
sweep_names = SWEEPS.names
get_sweep = SWEEPS.get
iter_sweeps = SWEEPS.__iter__


# --------------------------------------------------------------------- catalog
@register_sweep
def _smoke_2x2() -> SweepSpec:
    """Two scenarios x two placement policies: the fast end-to-end smoke grid."""
    return SweepSpec(
        name="smoke-2x2",
        description=(
            "2x2 smoke grid: flash-crowd and steady-churn under default vs "
            "best-fit placement, one seed, short runs; exercises the whole "
            "sweep pipeline in a few seconds."
        ),
        scenarios=["flash-crowd", "steady-churn"],
        policies=[{}, {"placement": {"name": "best-fit"}}],
        seeds=[2012],
        duration=600.0,
    )


@register_sweep
def _paper_e5_grid() -> SweepSpec:
    """The energy-savings grid: diurnal load across a threshold grid x seeds."""
    return SweepSpec(
        name="paper-e5-grid",
        description=(
            "Reproduces the shape of the paper's energy-savings experiment "
            "(E5) as a grid: the diurnal-datacenter scenario swept over an "
            "underload/overload threshold grid with spawn-derived replicate "
            "seeds; reports energy, migrations and SLA violations per cell."
        ),
        scenarios=["diurnal-datacenter"],
        thresholds=[
            {"underload": 0.2, "overload": 0.85},
            {"underload": 0.3, "overload": 0.8},
            {"underload": 0.4, "overload": 0.75},
        ],
        replicates=2,
        base_seed=2012,
        duration=3600.0,
    )


@register_sweep
def _policy_matrix() -> SweepSpec:
    """Every placement policy crossed with every reconfiguration policy."""
    # The matrix is built from the live registry, so every registered
    # placement and reconfiguration policy runs end to end (CI runs this sweep
    # on every push).  ACO cells get small colony sizes to keep each cell a
    # sub-second run.  Reports are not comparable run for run across registry
    # changes.
    tuned_params: Dict[str, Dict[str, object]] = {"aco": {"n_ants": 4, "n_cycles": 8}}
    cells = []
    for placement in policy_names("placement"):
        for reconfiguration in policy_names("reconfiguration"):
            entry: Dict[str, object] = {"name": reconfiguration}
            entry.update(tuned_params.get(reconfiguration, {}))
            cells.append(
                {
                    "placement": {"name": placement},
                    "reconfiguration": entry,
                }
            )
    return SweepSpec(
        name="policy-matrix",
        description=(
            "Crosses every registered placement policy with every registered "
            "reconfiguration policy over churn scenarios, with periodic "
            "reconfiguration enabled so the consolidation axis matters."
        ),
        scenarios=["steady-churn", "flash-crowd"],
        policies=cells,
        seeds=[2012],
        duration=900.0,
        config={"reconfiguration_interval": 450.0, "max_migrations_per_round": 4},
    )
