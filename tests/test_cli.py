"""Tests for the ``repro-sim`` command-line interface."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.scenarios import scenario_names
from repro.scenarios.runner import NONDETERMINISTIC_SECTIONS
from repro.sweeps import SweepSpec, get_sweep

from tests.conftest import no_hang

SRC = Path(__file__).resolve().parents[1] / "src"


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


class TestEntryPoint:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["consolidate", "simulate", "hierarchy"])
    def test_hand_built_deployment_commands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_module_entry_point_runs_without_warnings(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli.main", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
        assert proc.returncode == 0
        assert "usage: repro-sim" in proc.stdout
        assert "Warning" not in proc.stderr, proc.stderr

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["scenario", "megafleet"])
    def test_closed_stdout_ends_without_a_traceback(self, command, unbuffered):
        # ``repro-sim scenario list | head -1``, with a reader that closes the
        # pipe before the first write so every write meets a closed stdout.
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", command, "list"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == b""
        assert proc.returncode == 1

    def test_interrupt_ends_with_one_error_line(self, tmp_path):
        # Ctrl-C on a ``sweep serve`` that no runner joins.
        port_file = tmp_path / "port"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli.main", "sweep", "serve", "smoke-2x2",
                "--host", "127.0.0.1", "--port-file", str(port_file),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        try:
            with no_hang(30.0):
                while not (port_file.exists() and port_file.read_text()):
                    time.sleep(0.05)
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate()
        finally:
            proc.kill()  # a no-op once the process has exited
        assert proc.returncode == 130
        assert err.endswith("\nerror: interrupted\n"), err
        assert err.count("error:") == 1
        assert "Traceback" not in err


class TestCompiledACOStep:
    def test_only_a_run_that_builds_ants_needs_a_compiler(self, tmp_path):
        """The ACO step compiles at the first construction, never at import;
        without a compiler that run is one error line naming ``cc``."""
        (tmp_path / "bin").mkdir()
        env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "PATH": str(tmp_path / "bin"),
            "XDG_CACHE_HOME": str(tmp_path / "cache"),
        }

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli.main", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )

        megafleet = run("megafleet", "run", "megafleet-1k", "--duration", "60")
        assert megafleet.returncode == 0, megafleet.stderr
        # The scenario's first reconfiguration round is at 900 s.
        before = run("scenario", "run", "aco-consolidation-cycle", "--duration", "600")
        assert before.returncode == 0, before.stderr
        aco = run("scenario", "run", "aco-consolidation-cycle", "--duration", "1000")
        assert aco.returncode == 1
        lines = aco.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), aco.stderr
        assert "C compiler" in lines[0] and "'cc'" in lines[0]
        assert not (tmp_path / "cache").exists()


class TestScenarioRunHierarchy:
    def test_text_output_ends_with_the_hierarchy_table(self, capsys):
        assert main(["scenario", "run", "leader-crash-under-load"]) == 0
        output = capsys.readouterr().out
        table = output[output.rindex("hierarchy\n=========") :].splitlines()
        assert table[2].split() == ["gm", "|", "leader", "|", "state", "|", "lcs", "|", "vms"]
        rows = [[cell.strip() for cell in line.split("|")] for line in table[4:] if line.strip()]
        assert [row[0] for row in rows] == ["gm-00", "gm-01", "gm-02"]
        # The scripted leader crash leaves one failed GM and exactly one new leader.
        assert [row[1] for row in rows].count("*") == 1
        assert "failed" in [row[2] for row in rows]
        assert sum(int(row[3]) for row in rows) == 12


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSpecFiles:
    """A spec file runs exactly like the catalog entry it was written from."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_file_runs_like_its_name(self, name, tmp_path, capsys):
        assert main(["scenario", "describe", name, "--json"]) == 0
        spec_file = _write(tmp_path, "spec.json", capsys.readouterr().out)
        results = []
        for target in (spec_file, name):
            assert main(["scenario", "run", target, "--seed", "3", "--json"]) == 0
            result = json.loads(capsys.readouterr().out)
            for section in NONDETERMINISTIC_SECTIONS:
                result.pop(section)
            results.append(result)
        assert results[0] == results[1]

    def test_sweep_file_runs_like_its_name(self, tmp_path, capsys):
        assert main(["sweep", "describe", "smoke-2x2", "--json"]) == 0
        spec_file = _write(tmp_path, "smoke.json", capsys.readouterr().out)
        reports = []
        for target in (spec_file, "smoke-2x2"):
            out = tmp_path / f"report-{len(reports)}.json"
            assert main(["sweep", "run", target, "--output", str(out)]) == 0
            reports.append(out.read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_overrides_apply_to_a_file_as_to_a_name(self, tmp_path, capsys):
        assert main(["sweep", "describe", "smoke-2x2", "--json"]) == 0
        spec_file = _write(tmp_path, "smoke.json", capsys.readouterr().out)
        overrides = ["--policy", "placement=worst-fit", "--duration", "300", "--json"]
        described = []
        for target in (spec_file, "smoke-2x2"):
            assert main(["sweep", "describe", target, *overrides]) == 0
            described.append(capsys.readouterr().out)
        assert described[0] == described[1]
        assert json.loads(described[0])["duration"] == 300.0

    def test_megafleet_file_runs_like_its_name(self, tmp_path, capsys):
        assert main(["megafleet", "list", "--json"]) == 0
        (entry,) = [e for e in json.loads(capsys.readouterr().out) if e["name"] == "megafleet-1k"]
        spec_file = _write(tmp_path, "fleet.json", json.dumps(entry))
        outputs = []
        for target in (spec_file, "megafleet-1k"):
            assert main(["megafleet", "run", target, "--seed", "4", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_megafleet_list_is_in_name_order(self, capsys):
        assert main(["megafleet", "list", "--json"]) == 0
        names = [entry["name"] for entry in json.loads(capsys.readouterr().out)]
        assert names == sorted(names)

    @pytest.mark.parametrize("command", ["scenario", "sweep", "megafleet"])
    @pytest.mark.parametrize(
        "text, message",
        [(None, "cannot read"), ("{not json", "cannot read"), ('{"bogus": 1}', "key(s) ['bogus']")],
        ids=["missing", "not-json", "unknown-key"],
    )
    def test_malformed_file_is_a_user_error(self, command, text, message, tmp_path, capsys):
        path = tmp_path / "spec.json"
        if text is not None:
            path.write_text(text)
        assert main([command, "run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "command, name, path",
        [
            ("scenario", "steady-churn", "duration"),
            ("scenario", "steady-churn", "record_interval"),
            ("scenario", "steady-churn", "config.heartbeat_timeout"),
            ("scenario", "steady-churn", "config.monitoring_interval"),
            ("sweep", "smoke-2x2", "duration"),
            ("sweep", "smoke-2x2", "record_interval"),
        ],
    )
    def test_non_finite_timing_in_a_file_is_a_user_error(
        self, command, name, path, value, tmp_path, capsys
    ):
        assert main([command, "describe", name, "--json"]) == 0
        spec = json.loads(capsys.readouterr().out)
        *parents, field = path.split(".")
        target = spec
        for parent in parents:
            target = target[parent]
        target[field] = value
        spec_file = _write(tmp_path, "bad.json", json.dumps(spec))
        assert main([command, "describe", spec_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert field in err
        assert f"must be finite (got {value!r})" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_bad_duration_override_is_a_user_error(self, value, capsys):
        with no_hang(10.0):
            assert main(["scenario", "run", "steady-churn", f"--duration={value}"]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: duration override must be positive and finite (got {float(value)!r})\n"
        )

    def test_unknown_estimator_in_a_file_fails_describe(self, tmp_path, capsys):
        assert main(["scenario", "describe", "steady-churn", "--json"]) == 0
        spec = json.loads(capsys.readouterr().out)
        spec["config"]["estimator"] = "ewma"
        path = _write(tmp_path, "bad.json", json.dumps(spec))
        assert main(["scenario", "describe", path]) == 1
        err = capsys.readouterr().err
        prefix = f"error: invalid scenario spec {path!r}: "
        assert err.startswith(prefix + "unknown HierarchyConfig key(s) ['estimator']; valid keys: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("heterogeneity",), 0.0, "unknown ScenarioSpec key(s) ['heterogeneity']; valid keys: "),
            (
                ("config", "power_manager", "power_state"),
                "suspend",
                "unknown PowerManagerConfig key(s) ['power_state']; valid keys: ",
            ),
            (
                ("config", "max_migrations_per_round"),
                -1,
                "max_migrations_per_round must be non-negative or None (got -1)",
            ),
            (("group_managers",), 0, "need at least one group manager"),
            (("entry_points",), 0, "unknown ScenarioSpec key(s) ['entry_points']; valid keys: "),
            (("nodes_per_rack",), 0, "nodes_per_rack must be positive"),
        ],
        ids=["heterogeneity", "power_state", "migration_cap", "no_gm", "no_ep", "empty_racks"],
    )
    def test_bad_spec_file_is_one_error_at_describe(self, tmp_path, capsys, path, value, message):
        assert main(["scenario", "describe", "steady-churn", "--json"]) == 0
        spec = json.loads(capsys.readouterr().out)
        parent = spec
        for key in path[:-1]:
            parent = parent.setdefault(key, {})
        parent[path[-1]] = value
        file = _write(tmp_path, "bad.json", json.dumps(spec))
        assert main(["scenario", "describe", file]) == 1
        err = capsys.readouterr().err
        prefix = f"error: invalid scenario spec {file!r}: "
        assert err.startswith(prefix + message) and err.count("\n") == 1


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

    def test_describe_emits_the_spec_alone(self, capsys):
        assert main(["sweep", "describe", "smoke-2x2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "smoke-2x2"
        assert data["scenarios"] == ["flash-crowd", "steady-churn"]
        # A valid spec (``sweep list`` reports the run count).
        assert "runs" not in data
        assert SweepSpec.from_dict(data) == get_sweep("smoke-2x2")

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "smoke-2x2", "--runners", "1", "--lease-seconds", "0"],
            ["serve", "smoke-2x2", "--host", "127.0.0.1", "--lease-seconds", "-1"],
            ["run", "smoke-2x2", "--runners", "1", "--lease-seconds", "nan"],
            ["run", "smoke-2x2", "--runners", "1", "--lease-seconds", "inf"],
        ],
        ids=" ".join,
    )
    def test_non_positive_lease_seconds_is_a_user_error(self, argv, capsys):
        assert main(["sweep", *argv]) == 1
        value = float(argv[-1])
        assert capsys.readouterr().err == (
            f"error: lease_seconds must be positive and finite (got {value!r})\n"
        )

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

    @pytest.mark.parametrize(
        "argv", [["scenario", "run", "steady-churn"], ["megafleet", "run", "megafleet-1k"]],
        ids=" ".join,
    )
    def test_negative_seed_names_the_flag_and_the_value(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--seed", "-1"])
        assert excinfo.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err

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
