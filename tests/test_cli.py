"""Tests for the ``repro-sim`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main
from repro.scenarios.runner import NONDETERMINISTIC_SECTIONS


class TestScenarioRunPerfFields:
    def test_run_json_reports_wall_clock_and_event_throughput(self, capsys):
        assert (
            main(["scenario", "run", "steady-churn", "--seed", "1", "--duration", "300", "--json"])
            == 0
        )
        result = json.loads(capsys.readouterr().out)
        perf = result["perf"]
        assert perf["wall_clock_seconds"] > 0.0
        assert perf["events_per_second"] > 0.0

    def test_perf_varies_but_simulated_result_does_not(self, capsys):
        """Two CLI runs agree on everything except the wall-clock sections."""
        payloads = []
        for _ in range(2):
            assert (
                main(
                    ["scenario", "run", "flash-crowd", "--seed", "2", "--duration", "300", "--json"]
                )
                == 0
            )
            payloads.append(json.loads(capsys.readouterr().out))
        first, second = payloads
        for section in NONDETERMINISTIC_SECTIONS:
            first.pop(section)
            second.pop(section)
        assert first == second


class TestConsolidateCommand:
    def test_basic_run_prints_table(self, capsys):
        assert main(["consolidate", "--vms", "15", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "ffd" in output
        assert "aco" in output
        assert "hosts_used" in output

    def test_with_optimal_solver(self, capsys):
        assert main(["consolidate", "--vms", "8", "--seed", "1", "--optimal"]) == 0
        assert "optimal" in capsys.readouterr().out

    def test_distribution_choice(self, capsys):
        assert main(["consolidate", "--vms", "10", "--distribution", "correlated"]) == 0

    def test_invalid_distribution_rejected(self):
        with pytest.raises(SystemExit):
            main(["consolidate", "--distribution", "bogus"])


class TestSimulateCommand:
    def test_basic_simulation(self, capsys):
        assert main(["simulate", "--lcs", "4", "--gms", "1", "--vms", "6", "--duration", "120"]) == 0
        output = capsys.readouterr().out
        assert "Deployment statistics" in output
        assert "Energy" in output

    def test_with_leader_kill(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--lcs",
                    "4",
                    "--gms",
                    "2",
                    "--vms",
                    "4",
                    "--duration",
                    "200",
                    "--kill-leader",
                ]
            )
            == 0
        )
        assert "injected Group Leader failure" in capsys.readouterr().out

    def test_with_energy_management(self, capsys):
        assert (
            main(["simulate", "--lcs", "4", "--gms", "1", "--vms", "2", "--duration", "300", "--energy"])
            == 0
        )


class TestHierarchyCommand:
    def test_prints_hierarchy(self, capsys):
        assert main(["hierarchy", "--lcs", "4", "--gms", "2"]) == 0
        output = capsys.readouterr().out
        assert "Group Leader" in output
        assert "LC lc-000" in output

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepCommand:
    #: smoke-2x2 trimmed further so every CLI run stays sub-second.
    RUN_ARGS = ["sweep", "run", "smoke-2x2", "--duration", "300"]

    def test_list_prints_catalog(self, capsys):
        assert main(["sweep", "list"]) == 0
        output = capsys.readouterr().out
        assert "smoke-2x2" in output
        assert "policy-matrix" in output
        assert "paper-e5-grid" in output

    def test_list_json_is_parseable(self, capsys):
        assert main(["sweep", "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in entries}
        assert "smoke-2x2" in names
        assert all(entry["runs"] > 0 for entry in entries)

    def test_describe_emits_spec_and_run_count(self, capsys):
        assert main(["sweep", "describe", "smoke-2x2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "smoke-2x2"
        assert data["runs"] == 4
        assert data["scenarios"] == ["flash-crowd", "steady-churn"]

    def test_describe_requires_a_name(self):
        with pytest.raises(SystemExit):
            main(["sweep", "describe"])

    def test_unknown_sweep_name_lists_alternatives(self, capsys):
        assert main(["sweep", "run", "no-such-sweep"]) == 1
        err = capsys.readouterr().err
        assert "unknown sweep" in err
        assert "smoke-2x2" in err

    def test_run_json_report(self, capsys):
        assert main(self.RUN_ARGS + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sweep"] == "smoke-2x2"
        assert report["total_runs"] == 4
        assert report["failed_runs"] == 0
        assert all(run["status"] == "ok" for run in report["runs"])

    def test_run_human_output_has_aggregates_and_timing(self, capsys):
        assert main(self.RUN_ARGS) == 0
        output = capsys.readouterr().out
        assert "aggregates" in output
        assert "Wall clock" in output

    def test_run_parallel_matches_serial(self, capsys):
        assert main(self.RUN_ARGS + ["--json"]) == 0
        serial = capsys.readouterr().out
        assert main(self.RUN_ARGS + ["--json", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_policy_override_forces_every_cell(self, capsys):
        assert main(self.RUN_ARGS + ["--json", "--policy", "placement=worst-fit"]) == 0
        report = json.loads(capsys.readouterr().out)
        # Forcing one placement collapses the 2x2 grid to one cell per scenario.
        assert report["total_runs"] == 2
        for run in report["runs"]:
            assert run["resolved_policies"]["placement"] == "worst-fit"

    def test_policy_override_rejects_unknown_policy(self, capsys):
        assert main(self.RUN_ARGS + ["--policy", "placement=bogus"]) == 1
        assert "unknown placement policy" in capsys.readouterr().err

    def test_policy_override_rejects_bad_format(self, capsys):
        assert main(self.RUN_ARGS + ["--policy", "placement"]) == 1
        assert "KIND=NAME" in capsys.readouterr().err

    def test_policy_flag_invalid_for_list(self):
        with pytest.raises(SystemExit):
            main(["sweep", "list", "--policy", "placement=best-fit"])

    def test_run_only_flags_rejected_for_list_and_describe(self):
        with pytest.raises(SystemExit):
            main(["sweep", "list", "--csv", "catalog.csv"])
        with pytest.raises(SystemExit):
            main(["sweep", "describe", "smoke-2x2", "--output", "spec.json"])
        with pytest.raises(SystemExit):
            main(["sweep", "list", "--duration", "100"])
        with pytest.raises(SystemExit):
            main(["sweep", "describe", "smoke-2x2", "--jobs", "2"])

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["sweep", "run", "smoke-2x2", "--jobs", "0"])

    def test_unwritable_output_path_still_prints_report(self, tmp_path, capsys):
        bad = tmp_path / "missing-dir" / "report.json"
        assert main(self.RUN_ARGS + ["--json", "--output", str(bad)]) == 1
        captured = capsys.readouterr()
        # The computed report reaches stdout even though the write failed.
        assert json.loads(captured.out)["total_runs"] == 4
        assert "cannot write" in captured.err

    def test_output_and_csv_files_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        assert main(self.RUN_ARGS + ["--output", str(out), "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["total_runs"] == 4
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("index,scenario,policies")
        assert len(lines) == 5


class TestScenarioRunExports:
    def test_unwritable_trace_path_still_prints_result(self, tmp_path, capsys):
        bad = tmp_path / "missing-dir" / "t.json"
        good = tmp_path / "metrics.prom"
        argv = ["scenario", "run", "steady-churn", "--duration", "60", "--json"]
        assert main(argv + ["--trace", str(bad), "--metrics-out", str(good)]) == 1
        captured = capsys.readouterr()
        # The finished run reaches stdout even though one export failed ...
        assert json.loads(captured.out)["scenario"] == "steady-churn"
        assert f"error: cannot write {bad}" in captured.err
        # ... and the writable export is still written.
        assert "repro_" in good.read_text()


#: The sweep flag x action matrix the parser tree now encodes structurally:
#: flag -> (sample value, actions that take it).  Every other pair must exit 2.
SWEEP_ACTIONS = {
    "list": [],
    "describe": ["smoke-2x2"],
    "run": ["smoke-2x2"],
    "serve": ["smoke-2x2"],
    "work": ["--connect", "h:1"],
    "analyze": ["report.json"],
}
SWEEP_FLAGS = {
    "--jobs": ("2", {"run"}),
    "--runners": ("2", {"run"}),
    "--connect": ("h:1", {"work"}),
    "--host": ("x", {"serve"}),
    "--port": ("1", {"serve"}),
    "--port-file": ("p", {"serve"}),
    "--lease-seconds": ("5", {"run", "serve"}),
    "--objectives": ("energy_kwh", {"analyze"}),
    "--json": (None, {"list", "describe", "run", "serve", "analyze"}),
    "--policy": ("placement=best-fit", {"describe", "run", "serve"}),
    "--duration": ("100", {"describe", "run", "serve"}),
    "--output": ("o.json", {"run", "serve", "analyze"}),
    "--csv": ("o.csv", {"run", "serve", "analyze"}),
}


def _sweep_pairs(accepted: bool):
    for action, base in SWEEP_ACTIONS.items():
        for flag, (value, actions) in SWEEP_FLAGS.items():
            if (action in actions) == accepted and flag not in base:
                yield ["sweep", action, *base, flag, *([] if value is None else [value])]


REJECTED_ARGVS = [
    *_sweep_pairs(accepted=False),
    # Missing positionals / required flags.
    ["sweep", "describe"],
    ["sweep", "run"],
    ["sweep", "serve"],
    ["sweep", "analyze"],
    ["sweep", "work"],
    ["scenario", "describe"],
    ["scenario", "run"],
    ["policy", "describe"],
    ["policy", "describe", "placement"],
    ["policy", "list", "placement", "best-fit"],
    ["megafleet", "run"],
    # Range and exclusivity checks.
    ["sweep", "run", "smoke-2x2", "--jobs", "0"],
    ["sweep", "run", "smoke-2x2", "--runners", "0"],
    ["sweep", "run", "smoke-2x2", "--jobs", "2", "--runners", "2"],
    # Run-only flags on the other scenario / megafleet / policy actions.
    ["scenario", "list", "--policy", "placement=best-fit"],
    ["scenario", "list", "--trace", "t.json"],
    ["scenario", "list", "--seed", "1"],
    ["scenario", "describe", "steady-churn", "--metrics-out", "m.prom"],
    ["scenario", "describe", "steady-churn", "--duration", "60"],
    ["megafleet", "list", "--shards", "4"],
    ["megafleet", "list", "--jobs", "2"],
    ["megafleet", "list", "megafleet-1k"],
    ["obs", "summarize"],
]


class TestFlagsLiveOnTheirAction:
    @pytest.mark.parametrize("argv", REJECTED_ARGVS, ids=" ".join)
    def test_flag_or_positional_outside_its_action_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage: repro-sim" in capsys.readouterr().err

    def test_every_meaningful_sweep_pair_parses(self):
        from repro.cli.main import build_parser

        pairs = list(_sweep_pairs(accepted=True))
        assert len(pairs) == 25  # 26 with `work --connect`, which is in its base argv
        for argv in pairs:
            assert callable(build_parser().parse_args(argv).handler)

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (["sweep", "list"], set(SWEEP_FLAGS) - {"--json"}),
            (["sweep", "work"], set(SWEEP_FLAGS) - {"--connect"}),
            (["scenario", "list"], {"--policy", "--seed", "--duration", "--trace", "--metrics-out"}),
            (["megafleet", "list"], {"--shards", "--jobs", "--seed", "--duration"}),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else "",
    )
    def test_action_help_lists_only_its_own_flags(self, argv, absent, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert f"usage: repro-sim {' '.join(argv)}" in text
        assert not [flag for flag in sorted(absent) if flag in text]
