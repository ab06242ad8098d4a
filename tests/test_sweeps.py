"""Tests for the sweep engine: spec expansion, executors, reports, catalog."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.scenarios import get_scenario
from repro.simulation.randomness import derive_run_seeds, spawn_generator
from repro.sweeps import (
    RunSpec,
    SweepReport,
    SweepSpec,
    execute_run,
    get_sweep,
    iter_sweeps,
    run_sweep,
    sweep_names,
)
from repro.sweeps.report import KEY_COLUMNS, METRIC_COLUMNS


def _tiny_sweep(**overrides) -> SweepSpec:
    """A 2-scenario x 2-policy grid small enough for sub-second runs."""
    base = dict(
        name="tiny",
        scenarios=["steady-churn", "flash-crowd"],
        policies=[{}, {"placement": {"name": "best-fit"}}],
        seeds=[7],
        duration=300.0,
    )
    base.update(overrides)
    return SweepSpec(**base)


# ----------------------------------------------------------------------- spec
class TestSweepSpec:
    def test_round_trips_through_json(self):
        spec = _tiny_sweep(
            thresholds=[None, {"underload": 0.3, "overload": 0.8}],
            config={"monitoring_interval": 30.0},
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert SweepSpec.from_dict(data).to_dict() == spec.to_dict()

    def test_expand_is_the_full_cross_product_in_order(self):
        spec = _tiny_sweep(
            thresholds=[None, {"underload": 0.3, "overload": 0.8}], seeds=[1, 2]
        )
        runs = spec.expand()
        assert len(runs) == spec.total_runs() == 2 * 2 * 2 * 2
        assert [run.index for run in runs] == list(range(16))
        # Scenario is the outermost axis, seed the innermost.
        assert [run.scenario for run in runs[:8]] == ["steady-churn"] * 8
        assert [run.seed for run in runs[:4]] == [1, 2, 1, 2]

    def test_unknown_scenario_rejected_with_suggestions(self):
        with pytest.raises(ValueError, match="unknown scenario.*available"):
            _tiny_sweep(scenarios=["no-such-scenario"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            _tiny_sweep(policies=[{"placement": {"name": "bogus"}}])

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ValueError, match="underload"):
            _tiny_sweep(thresholds=[{"underload": 0.9, "overload": 0.2}])
        with pytest.raises(ValueError, match="needs"):
            _tiny_sweep(thresholds=[{"underload": 0.2}])
        with pytest.raises(ValueError, match="unknown thresholds key"):
            _tiny_sweep(
                thresholds=[{"underload": 0.2, "overload": 0.8, "overlad": 0.9}]
            )

    def test_threshold_values_normalized_to_floats(self):
        # JSON may deliver numbers as strings; they must never survive to the
        # report/label layer as non-numeric values.
        spec = _tiny_sweep(thresholds=[{"underload": "0.3", "overload": "0.8"}])
        assert spec.thresholds == [{"underload": 0.3, "overload": 0.8}]
        from repro.sweeps import thresholds_label

        assert thresholds_label(spec.expand()[0].thresholds) == "0.3/0.8"

    def test_policy_cell_labels_distinguish_parameters(self):
        from repro.sweeps import policy_cell_label

        small = {"reconfiguration": {"name": "aco", "n_ants": 4}}
        large = {"reconfiguration": {"name": "aco", "n_ants": 16}}
        assert policy_cell_label(small) != policy_cell_label(large)
        assert policy_cell_label(small) == "reconfiguration=aco[n_ants=4]"
        assert policy_cell_label({}) == "defaults"
        # Parameter-differing cells must land in distinct aggregate groups.
        report = run_sweep(
            _tiny_sweep(scenarios=["steady-churn"], policies=[small, large]), jobs=1
        )
        assert len(report.aggregates()) == 2

    def test_duration_override_must_keep_timeline_events(self):
        with pytest.raises(ValueError, match="timeline"):
            _tiny_sweep(scenarios=["rolling-node-failures"], duration=300.0)

    def test_run_spec_round_trips(self):
        run = _tiny_sweep().expand()[1]
        assert RunSpec.from_dict(json.loads(json.dumps(run.to_dict()))) == run

    def test_build_scenario_spec_merges_overrides(self):
        spec = _tiny_sweep(
            thresholds=[{"underload": 0.3, "overload": 0.8}],
            config={"monitoring_interval": 45.0},
        )
        run = spec.expand()[1]  # steady-churn, best-fit cell
        scenario = run.build_scenario_spec()
        assert scenario.policies["placement"]["name"] == "best-fit"
        assert scenario.config["thresholds"] == {"underload": 0.3, "overload": 0.8}
        assert scenario.config["monitoring_interval"] == 45.0
        # The underlying catalog entry is untouched.
        assert "thresholds" not in get_scenario("steady-churn").config

    def test_bare_same_name_cell_keeps_scenario_tuned_params(self):
        # aco-consolidation-cycle tunes its aco reconfiguration policy; a
        # bare {"name": "aco"} cell (what `sweep run --policy` produces) must
        # keep those parameters, while a cell with params replaces them.
        tuned = get_scenario("aco-consolidation-cycle").policies["reconfiguration"]
        assert tuned.get("n_ants") == 6
        spec = SweepSpec(
            name="bare",
            scenarios=["aco-consolidation-cycle"],
            policies=[
                {"reconfiguration": {"name": "aco"}},
                {"reconfiguration": {"name": "aco", "n_ants": 2, "n_cycles": 3}},
            ],
        )
        bare, explicit = (run.build_scenario_spec() for run in spec.expand())
        assert bare.policies["reconfiguration"] == tuned
        assert explicit.policies["reconfiguration"] == {
            "name": "aco",
            "n_ants": 2,
            "n_cycles": 3,
        }


# ----------------------------------------------------------- seed derivation
class TestRunSeedDerivation:
    def test_replicates_use_seedsequence_spawn_not_seed_arithmetic(self):
        seeds = derive_run_seeds(123, 5)
        assert len(seeds) == len(set(seeds)) == 5
        # Regression: the historical hazard was seed+i enumeration.
        assert seeds != [123 + i for i in range(5)]
        expected = [
            int(child.generate_state(1, dtype=np.uint64)[0])
            for child in np.random.SeedSequence(123).spawn(5)
        ]
        assert seeds == expected

    def test_derivation_is_deterministic_and_prefix_stable(self):
        assert derive_run_seeds(9, 4) == derive_run_seeds(9, 4)
        assert derive_run_seeds(9, 4)[:2] == derive_run_seeds(9, 2)

    def test_spawned_streams_are_decorrelated(self):
        seeds = derive_run_seeds(0, 2)
        a = np.random.default_rng(seeds[0]).random(512)
        b = np.random.default_rng(seeds[1]).random(512)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.2

    def test_spawn_generator_differs_from_base_stream(self):
        base = np.random.default_rng(5).random(8)
        child = spawn_generator(5, 1).random(8)
        assert not np.allclose(base, child)

    def test_sweep_spec_replicates_axis_is_spawn_derived(self):
        spec = _tiny_sweep(replicates=3, base_seed=42)
        assert spec.resolved_seeds() == derive_run_seeds(42, 3)
        assert {run.base_seed for run in spec.expand()} == {42}


# ------------------------------------------------------------------ executors
class TestExecutors:
    def test_failure_is_isolated_to_its_run(self):
        spec = _tiny_sweep()
        payloads = [run.to_dict() for run in spec.expand()[:2]]
        payloads[0] = {**payloads[0], "scenario": "does-not-exist"}
        outcomes = [execute_run(payload) for payload in payloads]
        assert outcomes[0]["status"] == "failed"
        assert "does-not-exist" in outcomes[0]["error"]
        assert outcomes[1]["status"] == "ok"

    def test_execute_run_never_raises_on_bad_payload(self):
        outcome = execute_run({"index": 0})  # missing required keys
        assert outcome["status"] == "failed"
        assert outcome["error"]

    def test_serial_and_parallel_reports_are_byte_identical(self):
        spec = _tiny_sweep()
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert serial.failed == parallel.failed == 0
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()

    def test_failed_outcome_carries_truncated_traceback(self):
        from repro.workers import TRACEBACK_LIMIT_CHARS

        outcome = execute_run({"index": 0})  # missing required keys
        assert outcome["status"] == "failed"
        assert "Traceback" in outcome["traceback"]
        assert len(outcome["traceback"]) <= TRACEBACK_LIMIT_CHARS + 64
        ok = execute_run(_tiny_sweep().expand()[0].to_dict())
        assert ok["status"] == "ok" and ok["traceback"] is None

    def test_traceback_excluded_from_canonical_report(self):
        spec = _tiny_sweep()
        payloads = [run.to_dict() for run in spec.expand()]
        payloads[0] = {**payloads[0], "scenario": "does-not-exist"}
        outcomes = [execute_run(payload) for payload in payloads]
        assert outcomes[0]["traceback"]  # present on the wire...
        report = SweepReport.from_outcomes(spec, outcomes)
        # ...but never in the canonical serializations: tracebacks vary by
        # Python version and filesystem layout, reports must not.
        assert "traceback" not in report.to_json()
        assert "Traceback" not in report.to_csv()


# -------------------------------------------------------------------- report
class TestSweepReport:
    @pytest.fixture(scope="class")
    def report(self) -> SweepReport:
        return run_sweep(_tiny_sweep(), jobs=1)

    def test_report_shape(self, report):
        assert report.total_runs == 4
        assert report.failed == 0
        data = report.to_dict()
        assert data["sweep"] == "tiny"
        assert len(data["runs"]) == 4
        assert {run["policies"] for run in data["runs"]} == {
            "defaults",
            "placement=best-fit",
        }
        for run in data["runs"]:
            assert set(METRIC_COLUMNS) <= set(run["metrics"])
            assert run["resolved_policies"]["placement"] in {"first-fit", "best-fit"}

    def test_report_json_has_no_wall_clock(self, report):
        assert "wall" not in report.to_json()
        assert report.timing["jobs"] == 1
        assert len(report.timing["run_wall_seconds"]) == 4

    def test_aggregates_group_over_seeds(self):
        report = run_sweep(_tiny_sweep(scenarios=["steady-churn"], seeds=[1, 2]), jobs=1)
        groups = report.aggregates()
        assert len(groups) == 2  # one per policy cell
        for group in groups:
            assert group["runs"] == 2
            energy = group["metrics"]["energy_kwh"]
            assert energy["min"] <= energy["mean"] <= energy["max"]

    def test_csv_layout(self, report):
        lines = report.to_csv().splitlines()
        assert lines[0] == ",".join(KEY_COLUMNS + METRIC_COLUMNS)
        assert len(lines) == 1 + report.total_runs

    def test_incomplete_failed_payload_degrades_to_failed_row(self):
        spec = _tiny_sweep()
        outcome = execute_run({"index": 0})  # junk payload, isolated failure
        report = SweepReport.from_outcomes(spec, [outcome])
        assert report.failed == 1
        assert report.runs[0]["scenario"] == "?"
        assert report.to_json()  # aggregation and serialization survive

    def test_partial_payload_labels_never_crash_report(self):
        from repro.sweeps import policy_cell_label, thresholds_label

        # Partial thresholds / nameless policy entries render placeholders.
        assert thresholds_label({"overload": 0.8}) == "?/0.8"
        assert policy_cell_label({"placement": {}}) == "placement=?"
        # Non-dict junk (possible in a failed run's payload) must not raise.
        assert policy_cell_label({"placement": "best-fit"}) == "placement='best-fit'"
        assert thresholds_label("bogus") == "bogus"
        spec = _tiny_sweep()
        outcome = execute_run(
            {
                "index": 0,
                "scenario": "steady-churn",
                "policies": {},
                "thresholds": {"overload": 0.8},
                "base_seed": 0,
                "seed": 0,
            }
        )
        report = SweepReport.from_outcomes(spec, [outcome])
        assert report.to_json()

    def test_failed_runs_are_reported_with_errors(self):
        spec = _tiny_sweep()
        payloads = [run.to_dict() for run in spec.expand()]
        payloads[1] = {**payloads[1], "scenario": "broken"}
        outcomes = [execute_run(payload) for payload in payloads]
        report = SweepReport.from_outcomes(spec, outcomes)
        assert report.failed == 1
        assert report.failures()[0]["error"]
        assert report.to_csv().count("failed") == 1


# ------------------------------------------------------------ Pareto analysis
class TestParetoAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self) -> dict:
        report = run_sweep(_tiny_sweep(), jobs=1)
        return report.pareto()

    def test_every_scenario_has_a_front_of_rank_one_cells(self, analysis):
        from repro.sweeps import PARETO_OBJECTIVES

        assert analysis["objectives"] == list(PARETO_OBJECTIVES)
        assert set(analysis["scenarios"]) == {"steady-churn", "flash-crowd"}
        for entry in analysis["scenarios"].values():
            assert entry["front"]
            assert {cell["rank"] for cell in entry["cells"]} >= {1}
            front_labels = {(c["policies"], c["thresholds"]) for c in entry["front"]}
            rank_one = {
                (c["policies"], c["thresholds"])
                for c in entry["cells"]
                if c["rank"] == 1
            }
            assert front_labels == rank_one

    def test_no_front_member_is_dominated_by_any_cell(self, analysis):
        from repro.sweeps.report import dominates

        objectives = analysis["objectives"]
        for entry in analysis["scenarios"].values():
            vectors = [
                [c["objectives"][name] for name in objectives]
                for c in entry["cells"]
                if c["rank"] is not None
            ]
            for front_cell in entry["front"]:
                front_vector = [front_cell["objectives"][name] for name in objectives]
                assert not any(dominates(v, front_vector) for v in vectors)

    def test_analysis_is_deterministic_and_serializable(self, analysis):
        from repro.sweeps.report import pareto_csv, pareto_json

        report = run_sweep(_tiny_sweep(), jobs=2)
        assert pareto_json(report.pareto()) == pareto_json(analysis)
        lines = pareto_csv(analysis).splitlines()
        assert lines[0] == "scenario,policies,thresholds,rank," + ",".join(
            analysis["objectives"]
        )
        assert len(lines) == 1 + sum(
            len(entry["cells"]) for entry in analysis["scenarios"].values()
        )

    def test_unknown_objective_and_junk_report_rejected(self):
        from repro.sweeps.report import analyze_report

        report = run_sweep(_tiny_sweep(scenarios=["steady-churn"]), jobs=1)
        with pytest.raises(ValueError, match="unknown objective"):
            analyze_report(report.to_dict(), objectives=["bogus"])
        with pytest.raises(ValueError, match="at least one objective"):
            analyze_report(report.to_dict(), objectives=[])
        # Valid JSON that is not an object (``[]``, a saved ``sweep list --json``)
        # is junk too, not an AttributeError.
        for junk in ({"hello": "world"}, [], [{"name": "smoke-2x2"}], "text", None):
            with pytest.raises(ValueError, match="not a sweep report"):
                analyze_report(junk)

    def test_all_failed_cell_is_unranked_and_off_the_front(self):
        from repro.sweeps.report import analyze_report

        spec = _tiny_sweep(scenarios=["steady-churn"])
        payloads = [run.to_dict() for run in spec.expand()]
        # Fail the second policy cell while keeping its scenario/policies
        # labels intact, so the failed group stays inside steady-churn.
        payloads[1] = {**payloads[1], "policies": {"placement": {"name": "bogus"}}}
        report = SweepReport.from_outcomes(spec, [execute_run(payload) for payload in payloads])
        analysis = analyze_report(report.to_dict())
        cells = analysis["scenarios"]["steady-churn"]["cells"]
        unranked = [c for c in cells if c["rank"] is None]
        assert len(unranked) == 1 and unranked[0]["failed"] == 1
        assert cells[-1] is unranked[0]  # unranked cells sort last
        front = analysis["scenarios"]["steady-churn"]["front"]
        assert all(c["policies"] != unranked[0]["policies"] for c in front)

    def test_pareto_ranks_properties(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.sweeps.report import dominates, pareto_ranks

        vector = st.lists(
            st.integers(min_value=0, max_value=4), min_size=3, max_size=3
        )

        @settings(max_examples=200, deadline=None)
        @given(st.lists(vector, min_size=1, max_size=12))
        def check(vectors):
            ranks = pareto_ranks(vectors)
            assert len(ranks) == len(vectors)
            assert min(ranks) == 1
            for i, rank in enumerate(ranks):
                # Front members are dominated by nothing at all.
                if rank == 1:
                    assert not any(
                        dominates(v, vectors[i]) for j, v in enumerate(vectors) if j != i
                    )
                else:
                    # Peeling invariant: a rank-r cell is dominated by some
                    # rank-(r-1) cell and by nothing of rank >= r.
                    assert any(
                        dominates(vectors[j], vectors[i])
                        for j in range(len(vectors))
                        if ranks[j] == rank - 1
                    )
                    assert not any(
                        dominates(vectors[j], vectors[i])
                        for j in range(len(vectors))
                        if ranks[j] >= rank
                    )
            # Order-independence: reversing the input permutes the ranks.
            assert pareto_ranks(vectors[::-1]) == ranks[::-1]
            # Equal vectors always share a rank.
            for i, a in enumerate(vectors):
                for j, b in enumerate(vectors):
                    if a == b:
                        assert ranks[i] == ranks[j]

        check()

    def test_truncated_traceback_helper_bounds_length(self):
        from repro.workers import TRACEBACK_LIMIT_CHARS, truncated_traceback

        try:
            raise ValueError("x" * (3 * TRACEBACK_LIMIT_CHARS))
        except ValueError:
            text = truncated_traceback()
        assert text.startswith("... [truncated] ...")
        assert len(text) <= TRACEBACK_LIMIT_CHARS + 32
        assert text.endswith("x" * 100 + "\n")


# ------------------------------------------------------------------- catalog
class TestSweepCatalog:
    def test_expected_entries_present(self):
        assert {"smoke-2x2", "paper-e5-grid", "policy-matrix"} <= set(sweep_names())

    def test_every_entry_is_valid_and_round_trips(self):
        for spec in iter_sweeps():
            assert spec.total_runs() > 0
            assert SweepSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_policy_matrix_crosses_the_registries(self):
        from repro.policies import policy_names

        spec = get_sweep("policy-matrix")
        placements = {cell["placement"]["name"] for cell in spec.policies}
        reconfigurations = {cell["reconfiguration"]["name"] for cell in spec.policies}
        assert placements == set(policy_names("placement"))
        assert reconfigurations == set(policy_names("reconfiguration"))

    def test_unknown_sweep_lists_alternatives(self):
        with pytest.raises(KeyError, match="available"):
            get_sweep("missing")
