"""Tests for the distributed sweep plane: wire framing, coordinator, runners.

The determinism contract under test everywhere: the final report is
byte-identical to the serial executor's for any runner count, any outcome
arrival order, and any injected runner failure (kill, wedge, dropped
connection mid-upload).
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import socket
import struct
import sys
import threading
import time

import pytest

from repro import workers
from repro.sweeps import (
    DistributedExecutor,
    SweepAborted,
    SweepCoordinator,
    SweepReport,
    SweepRunner,
    SweepSpec,
    run_sweep,
    spawn_loopback_runner,
)
from repro.sweeps.distributed import CoordinatorThread, synthesize_lease_failure
from repro.sweeps.runner import FAULT_ENV, parse_address
from repro.sweeps.wire import (
    FrameError,
    encode_frame,
    read_frame_sync,
    send_frame_sync,
)
from tests.conftest import no_hang


def _tiny_sweep(**overrides) -> SweepSpec:
    """The same 2x2 grid the in-process executor tests use."""
    base = dict(
        name="tiny",
        scenarios=["steady-churn", "flash-crowd"],
        policies=[{}, {"placement": {"name": "best-fit"}}],
        seeds=[7],
        duration=300.0,
    )
    base.update(overrides)
    return SweepSpec(**base)


def _fake_payloads(count: int, scenario: str = "s") -> list:
    return [{"index": i, "scenario": scenario} for i in range(count)]


def _fake_ok(payload: dict) -> dict:
    """A deterministic stand-in for ``execute_run`` (coordinator-level tests)."""
    return {
        "run": payload,
        "status": "ok",
        "result": {"echo": payload["index"]},
        "error": None,
        "traceback": None,
        "wall_seconds": 0.01,
    }


def _rpc(sock: socket.socket, message: dict) -> dict:
    send_frame_sync(sock, message)
    reply = read_frame_sync(sock)
    assert reply is not None
    return reply


def _connect(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=5.0)
    _rpc(sock, {"type": "hello", "runner": f"raw-{sock.fileno()}"})
    return sock


def _pull_lease(sock: socket.socket, runner: str, timeout: float = 5.0) -> dict:
    """Pull until a lease is granted (skipping idle replies)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        reply = _rpc(sock, {"type": "pull", "runner": runner})
        if reply["type"] == "lease":
            return reply
        assert reply["type"] == "idle", reply
        time.sleep(reply.get("retry_seconds", 0.05))
    raise AssertionError("no lease granted before timeout")


# ----------------------------------------------------------------------- wire
class TestWireFraming:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        with a, b:
            message = {"type": "outcome", "nested": {"x": [1, 2, 3]}, "s": "héllo"}
            send_frame_sync(a, message)
            assert read_frame_sync(b) == message

    def test_clean_eof_reads_as_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert read_frame_sync(b) is None

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        with b:
            frame = encode_frame({"type": "pull"})
            a.sendall(frame[: len(frame) - 3])  # header + partial body
            a.close()
            with pytest.raises(FrameError):
                read_frame_sync(b)

    def test_oversized_header_rejected_without_allocation(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", 2**31))
            with pytest.raises(FrameError, match="MAX_FRAME_BYTES"):
                read_frame_sync(b)

    def test_non_object_payload_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            body = json.dumps([1, 2]).encode()
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(FrameError, match="object"):
                read_frame_sync(b)

    def test_parse_address(self):
        assert parse_address("10.0.0.1:9999") == ("10.0.0.1", 9999)
        assert parse_address("h:0") == ("h", 0) and parse_address("h:65535") == ("h", 65535)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("nonsense")
        with pytest.raises(ValueError, match="port must be 0-65535, got 65536"):
            parse_address("h:65536")


# ---------------------------------------------------------------- coordinator
class TestCoordinator:
    def test_in_process_runner_completes_sweep_in_order(self):
        payloads = _fake_payloads(6)
        with CoordinatorThread(SweepCoordinator(payloads)) as thread:
            runner = SweepRunner(*thread.address, runner_id="r0", fn=_fake_ok)
            assert runner.run() == 6
            outcomes = thread.result(timeout=10.0)
        assert [o["run"]["index"] for o in outcomes] == list(range(6))
        assert all(o["status"] == "ok" for o in outcomes)

    def test_straggler_aware_dispatch_grants_longest_expected_first(self):
        payloads = _fake_payloads(3)
        coordinator = SweepCoordinator(
            payloads, expected_seconds=[0.1, 5.0, 1.0], speculate=False
        )
        with CoordinatorThread(coordinator) as thread:
            with socket.create_connection(thread.address, timeout=5.0) as sock:
                _rpc(sock, {"type": "hello", "runner": "probe"})
                order = [
                    _pull_lease(sock, "probe")["run_id"] for _ in range(3)
                ]
        assert order == [1, 2, 0]

    def test_lease_expiry_reclaims_and_retries_on_another_runner(self):
        payloads = _fake_payloads(1)
        coordinator = SweepCoordinator(payloads, lease_seconds=0.2, speculate=False)
        with CoordinatorThread(coordinator) as thread:
            wedged = _connect(thread.address)  # pulls, never heartbeats, never posts
            with wedged:
                lease = _pull_lease(wedged, "wedged")
                assert lease["run_id"] == 0
                healthy = SweepRunner(*thread.address, runner_id="healthy", fn=_fake_ok)
                assert healthy.run() == 1
                outcomes = thread.result(timeout=10.0)
        assert outcomes[0]["status"] == "ok"
        assert coordinator.stats["reclaimed_expired"] == 1
        assert coordinator.stats["retries"] == 1

    def test_retry_cap_synthesizes_deterministic_failure(self):
        payloads = _fake_payloads(1)
        coordinator = SweepCoordinator(payloads, max_attempts=2, speculate=False)
        with CoordinatorThread(coordinator) as thread:
            for _ in range(2):  # two crash-and-burn runners
                sock = _connect(thread.address)
                _pull_lease(sock, f"crasher-{sock.fileno()}")
                sock.close()  # dropped connection -> disconnect reclaim
                deadline = time.monotonic() + 5.0
                while coordinator.stats["reclaimed_disconnect"] == 0 and not coordinator.done:
                    if time.monotonic() > deadline:
                        raise AssertionError("reclaim never happened")
                    time.sleep(0.01)
            outcomes = thread.result(timeout=10.0)
        assert coordinator.stats["synthesized_failures"] == 1
        assert outcomes[0] == synthesize_lease_failure(payloads[0], 2)
        assert "LeaseExpired" in outcomes[0]["error"]

    def test_connection_dropped_mid_upload_is_reclaimed_and_retried(self):
        payloads = _fake_payloads(2)
        coordinator = SweepCoordinator(payloads, speculate=False)
        with CoordinatorThread(coordinator) as thread:
            sock = _connect(thread.address)
            lease = _pull_lease(sock, "half-uploader")
            frame = encode_frame(
                {
                    "type": "outcome",
                    "lease_id": lease["lease_id"],
                    "run_id": lease["run_id"],
                    "outcome": _fake_ok(lease["run"]),
                }
            )
            sock.sendall(frame[: len(frame) // 2])  # half an outcome, then gone
            sock.close()
            runner = SweepRunner(*thread.address, runner_id="healthy", fn=_fake_ok)
            assert runner.run() >= 1
            outcomes = thread.result(timeout=10.0)
        assert [o["run"]["index"] for o in outcomes] == [0, 1]
        assert all(o["status"] == "ok" for o in outcomes)
        assert coordinator.stats["reclaimed_disconnect"] == 1
        assert coordinator.stats["retries"] == 1

    def test_speculative_twin_is_discarded_first_result_wins(self):
        payloads = _fake_payloads(2)
        coordinator = SweepCoordinator(payloads, speculate=True)

        def post(sock, lease, outcome):
            return _rpc(
                sock,
                {
                    "type": "outcome",
                    "lease_id": lease["lease_id"],
                    "run_id": lease["run_id"],
                    "outcome": outcome,
                },
            )

        with CoordinatorThread(coordinator) as thread:
            first = socket.create_connection(thread.address, timeout=5.0)
            second = socket.create_connection(thread.address, timeout=5.0)
            with first, second:
                _rpc(first, {"type": "hello", "runner": "a"})
                _rpc(second, {"type": "hello", "runner": "b"})
                lease_a0 = _pull_lease(first, "a")  # drains the queue onto runner a
                lease_a1 = _pull_lease(first, "a")
                lease_b = _pull_lease(second, "b")  # speculative twin of a held cell
                assert not lease_a0["speculative"] and not lease_a1["speculative"]
                assert lease_b["speculative"]
                twin = lease_a0 if lease_b["run_id"] == lease_a0["run_id"] else lease_a1
                other = lease_a1 if twin is lease_a0 else lease_a0
                outcome = _fake_ok(payloads[twin["run_id"]])
                winner = post(second, lease_b, outcome)
                loser = post(first, twin, {**outcome, "wall_seconds": 9.9})
                final = post(first, other, _fake_ok(payloads[other["run_id"]]))
            outcomes = thread.result(timeout=10.0)
        assert winner["accepted"] and final["accepted"] and not loser["accepted"]
        assert outcomes[twin["run_id"]]["wall_seconds"] == 0.01  # first post won
        assert coordinator.stats["speculative_leases"] == 1
        assert coordinator.stats["duplicates_discarded"] == 1
        # The discarded twin is a duplicate, never a reclaim/retry.
        assert coordinator.stats["retries"] == 0

    def test_third_lease_on_a_cell_is_never_granted(self):
        coordinator = SweepCoordinator(_fake_payloads(1), speculate=True)
        with CoordinatorThread(coordinator) as thread:
            socks = [socket.create_connection(thread.address, timeout=5.0) for _ in range(3)]
            try:
                for i, sock in enumerate(socks):
                    _rpc(sock, {"type": "hello", "runner": f"r{i}"})
                _pull_lease(socks[0], "r0")
                _pull_lease(socks[1], "r1")
                reply = _rpc(socks[2], {"type": "pull", "runner": "r2"})
                assert reply["type"] == "idle"
            finally:
                for sock in socks:
                    sock.close()

    def test_heartbeats_keep_a_slow_run_leased(self):
        payloads = _fake_payloads(2)
        coordinator = SweepCoordinator(payloads, lease_seconds=0.5, speculate=False)

        def slow_ok(payload: dict) -> dict:
            time.sleep(0.8)  # longer than the lease; heartbeats must cover it
            return _fake_ok(payload)

        with CoordinatorThread(coordinator) as thread:
            runner = SweepRunner(*thread.address, runner_id="slow", fn=slow_ok)
            assert runner.run() == 2
            outcomes = thread.result(timeout=10.0)
        assert all(o["status"] == "ok" for o in outcomes)
        assert coordinator.stats["reclaimed_expired"] == 0
        assert coordinator.stats["heartbeats"] >= 1

    def test_abort_fails_waiters_and_shuts_runners_down(self):
        coordinator = SweepCoordinator(_fake_payloads(4))
        with CoordinatorThread(coordinator) as thread:
            thread.address  # wait for bind
            coordinator.abort("test abort")
            with pytest.raises(SweepAborted, match="test abort"):
                thread.result(timeout=10.0)

    def test_abort_from_another_thread_wakes_the_loop(self):
        # The default 30 s lease puts the reaper's next tick 7.5 s away.
        coordinator = SweepCoordinator(_fake_payloads(1))
        with CoordinatorThread(coordinator) as thread:
            thread.address  # wait for bind
            started = time.monotonic()
            coordinator.abort("aborted from the test thread")
            with pytest.raises(SweepAborted):
                thread.result(timeout=5.0)
        assert time.monotonic() - started < 2.0

    def test_runner_threads_never_share_a_cell(self):
        # More connection threads than cores, switching as often as the
        # interpreter allows: a grant or record racing outside the lock would
        # hand one cell to two runners (a duplicate), lose a lease, or kill a
        # connection thread mid-iteration.
        payloads = _fake_payloads(120)
        coordinator = SweepCoordinator(payloads, speculate=False)
        switch, hook, crashes = sys.getswitchinterval(), threading.excepthook, []
        sys.setswitchinterval(1e-6)
        threading.excepthook = crashes.append
        try:
            with no_hang(), CoordinatorThread(coordinator) as thread:
                runners = [
                    SweepRunner(*thread.address, runner_id=f"r{i}", fn=_fake_ok) for i in range(4)
                ]
                workers = [threading.Thread(target=runner.run) for runner in runners]
                for worker in workers:
                    worker.start()
                outcomes = thread.result(timeout=20.0)
                for worker in workers:
                    worker.join(timeout=10.0)
                assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(switch)
            threading.excepthook = hook
        assert crashes == []
        assert [o["run"]["index"] for o in outcomes] == list(range(120))
        assert sum(runner.posted for runner in runners) == 120
        assert coordinator.stats["leases_granted"] == 120
        assert coordinator.stats["duplicates_discarded"] == 0

    def test_empty_payload_list_is_immediately_done(self):
        coordinator = SweepCoordinator([])
        assert coordinator.done
        with CoordinatorThread(coordinator) as thread:
            assert thread.result(timeout=10.0) == []

    def test_constructor_validation(self):
        for lease_seconds in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lease_seconds must be positive and finite"):
                SweepCoordinator(_fake_payloads(1), lease_seconds=lease_seconds)
        with pytest.raises(ValueError, match="max_attempts"):
            SweepCoordinator(_fake_payloads(1), max_attempts=0)
        with pytest.raises(ValueError, match="expected_seconds"):
            SweepCoordinator(_fake_payloads(2), expected_seconds=[1.0])


# -------------------------------------------------------- distributed executor
class TestDistributedExecutor:
    @pytest.fixture(scope="class")
    def serial_json(self) -> str:
        return run_sweep(_tiny_sweep(), jobs=1).to_json()

    @pytest.mark.parametrize("runners", [1, 2, 4])
    def test_report_is_byte_identical_to_serial(self, runners, serial_json):
        report = run_sweep(_tiny_sweep(), executor=DistributedExecutor(runners=runners))
        assert report.failed == 0
        assert report.to_json() == serial_json
        assert report.timing["jobs"] == runners

    def test_killed_runner_mid_sweep_keeps_report_identical(self, serial_json):
        executor = DistributedExecutor(
            runners=2,
            lease_seconds=1.0,
            runner_env=[{"REPRO_SWEEP_RUNNER_FAULT": "die-after-pulls:1"}, None],
        )
        report = run_sweep(_tiny_sweep(), executor=executor)
        assert report.to_json() == serial_json
        assert executor.last_stats["reclaimed_disconnect"] >= 1
        assert executor.last_stats["retries"] >= 1

    def test_wedged_runner_mid_sweep_keeps_report_identical(self, serial_json):
        # Speculation off: recovery must come from the lease *deadline*, not
        # from a speculative twin racing the wedged runner.
        executor = DistributedExecutor(
            runners=2,
            lease_seconds=0.5,
            speculate=False,
            runner_env=[{"REPRO_SWEEP_RUNNER_FAULT": "wedge-after-pulls:1"}, None],
        )
        report = run_sweep(_tiny_sweep(), executor=executor)
        assert report.to_json() == serial_json
        assert executor.last_stats["reclaimed_expired"] >= 1

    def test_whole_fleet_dying_aborts_instead_of_hanging(self):
        executor = DistributedExecutor(
            runners=1,
            runner_env=[{"REPRO_SWEEP_RUNNER_FAULT": "die-after-pulls:1"}],
        )
        with pytest.raises(SweepAborted, match="exit codes"):
            run_sweep(_tiny_sweep(), executor=executor)

    def test_executor_validation(self):
        with pytest.raises(ValueError, match="runners"):
            DistributedExecutor(runners=0)
        for lease_seconds in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lease_seconds must be positive and finite"):
                DistributedExecutor(runners=1, lease_seconds=lease_seconds)
        with pytest.raises(ValueError, match="runner_env"):
            DistributedExecutor(runners=2, runner_env=[None])

    def test_empty_payload_list_short_circuits(self):
        assert DistributedExecutor(runners=2).map([]) == []


# ------------------------------------------------------------------------ CLI
class TestSweepDistributedCLI:
    RUN_ARGS = ["sweep", "run", "smoke-2x2", "--duration", "300"]

    def test_run_with_runners_matches_serial_bytes(self, capsys):
        from repro.cli.main import main

        assert main(self.RUN_ARGS + ["--json"]) == 0
        serial = capsys.readouterr().out
        assert main(self.RUN_ARGS + ["--json", "--runners", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_serve_and_work_round_trip_matches_serial(self, tmp_path, capsys):
        from repro.cli.main import main

        assert main(self.RUN_ARGS + ["--json"]) == 0
        serial = capsys.readouterr().out
        port_file = tmp_path / "port"
        out_file = tmp_path / "report.json"
        serve_rc: list = []

        def serve() -> None:
            serve_rc.append(
                main(
                    [
                        "sweep",
                        "serve",
                        "smoke-2x2",
                        "--duration",
                        "300",
                        "--host",
                        "127.0.0.1",
                        "--port-file",
                        str(port_file),
                        "--output",
                        str(out_file),
                    ]
                )
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        # The file exists (empty) from open() until the server closes it.
        while not (port_file.exists() and port_file.read_text().strip()):
            assert time.monotonic() < deadline, "coordinator never wrote its port"
            time.sleep(0.02)
        port = int(port_file.read_text().strip())
        assert main(["sweep", "work", "--connect", f"127.0.0.1:{port}"]) == 0
        thread.join(timeout=30.0)
        assert serve_rc == [0]
        capsys.readouterr()
        assert out_file.read_text().strip() == serial.strip()

    def test_work_requires_connect(self):
        from repro.cli.main import main

        with pytest.raises(SystemExit):
            main(["sweep", "work"])

    def test_work_reports_unreachable_coordinator(self, capsys):
        from repro.cli.main import main

        assert main(["sweep", "work", "--connect", "127.0.0.1:1"]) == 1
        assert "cannot reach coordinator" in capsys.readouterr().err

    def test_serve_port_out_of_range_is_one_error_line(self, capsys):
        from repro.cli.main import main

        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "serve", "smoke-2x2", "--host", "127.0.0.1", "--port", "70000"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --port: port must be 0-65535, got 70000\n")
        assert "Traceback" not in err

    def test_work_port_out_of_range_opens_no_connection(self, capsys, monkeypatch):
        from repro.cli.main import main

        def refuse(*args, **kwargs):
            raise AssertionError(f"sweep work connected to {args}")

        monkeypatch.setattr(socket, "create_connection", refuse)
        assert main(["sweep", "work", "--connect", "127.0.0.1:70000"]) == 1
        assert capsys.readouterr().err == "error: port must be 0-65535, got 70000\n"

    def test_flag_action_mismatches_rejected(self):
        from repro.cli.main import main

        with pytest.raises(SystemExit):
            main(["sweep", "list", "--runners", "2"])
        with pytest.raises(SystemExit):
            main(["sweep", "run", "smoke-2x2", "--connect", "h:1"])
        with pytest.raises(SystemExit):
            main(["sweep", "run", "smoke-2x2", "--jobs", "2", "--runners", "2"])
        with pytest.raises(SystemExit):
            main(["sweep", "run", "smoke-2x2", "--objectives", "energy_kwh"])
        with pytest.raises(SystemExit):
            main(["sweep", "run", "smoke-2x2", "--port-file", "p"])


# ----------------------------------------------------------- malformed outcomes
def _two_cell_sweep() -> SweepSpec:
    """Two short real cells: enough for a fleet, cheap enough for many tests."""
    return _tiny_sweep(scenarios=["steady-churn"], duration=120.0)


class TestMalformedOutcomes:
    def test_bogus_post_cannot_poison_the_report(self):
        spec = _two_cell_sweep()
        serial = run_sweep(spec, jobs=1).to_json()
        coordinator = SweepCoordinator([run.to_dict() for run in spec.expand()])
        with CoordinatorThread(coordinator, timeout=60.0) as thread:
            with socket.create_connection(thread.address, timeout=5.0) as sock:
                bogus = {"type": "outcome", "lease_id": "nope", "run_id": True, "outcome": {}}
                assert _rpc(sock, bogus) == {"type": "ack", "accepted": False}
            assert SweepRunner(*thread.address, runner_id="real").run() >= 1
            outcomes = thread.result(timeout=30.0)
        assert SweepReport.from_outcomes(spec, outcomes).to_json() == serial
        assert coordinator.stats["rejected_outcomes"] == 1
        assert coordinator.stats["duplicates_discarded"] == 0

    @pytest.mark.parametrize(
        "run_id, outcome",
        [
            (True, None),  # bool is not a run position
            (2, None),  # out of range
            ("0", None),
            (0, []),  # not an object
            (0, {"status": "done"}),  # not an executor status
            (0, {"run": {"index": 1, "scenario": "s"}}),  # another cell's payload
            (0, {"result": [1, 2]}),  # an ok result that is no dict
        ],
        ids=["bool-id", "out-of-range", "str-id", "list", "status", "run", "result"],
    )
    def test_rejected_post_leaves_the_lease_in_place(self, run_id, outcome):
        payloads = _fake_payloads(2)
        coordinator = SweepCoordinator(payloads, speculate=False)
        with CoordinatorThread(coordinator) as thread:
            with _connect(thread.address) as sock:
                lease = _pull_lease(sock, "r")
                assert lease["run_id"] == 0
                if isinstance(outcome, dict):
                    outcome = {**_fake_ok(lease["run"]), **outcome}
                elif outcome is None:
                    outcome = _fake_ok(lease["run"])
                post = {"type": "outcome", "lease_id": lease["lease_id"], "run_id": run_id}
                assert not _rpc(sock, {**post, "outcome": outcome})["accepted"]
                beat = {"type": "heartbeat", "lease_id": lease["lease_id"]}
                assert _rpc(sock, beat)["known"]
                genuine = {**post, "run_id": 0, "outcome": _fake_ok(lease["run"])}
                assert _rpc(sock, genuine)["accepted"]
        assert coordinator.stats["rejected_outcomes"] == 1
        assert coordinator.completed == 1


# ------------------------------------------------------ loopback runner processes
class TestLoopbackRunnerProcesses:
    @pytest.fixture(scope="class")
    def serial_json(self) -> str:
        return run_sweep(_two_cell_sweep(), jobs=1).to_json()

    def test_handle_keeps_the_popen_subset(self):
        payload = _two_cell_sweep().expand()[0].to_dict()
        coordinator = SweepCoordinator([payload], speculate=False)
        with no_hang(), CoordinatorThread(coordinator, timeout=60.0) as thread:
            proc = spawn_loopback_runner(thread.address, runner_id="spawn-probe")
            while coordinator.stats["runners_seen"] < 1:
                assert proc.poll() is None and proc.returncode is None
                time.sleep(0.001)
            assert thread.result(timeout=30.0)[0]["status"] == "ok"
            proc.terminate()
            assert proc.wait(timeout=10.0) in (0, -signal.SIGTERM)
            assert proc.poll() == proc.returncode == proc.wait()

    def test_wedged_runner_can_be_waited_on_and_killed(self):
        coordinator = SweepCoordinator(_fake_payloads(1), speculate=False)
        with no_hang(), CoordinatorThread(coordinator) as thread:
            proc = spawn_loopback_runner(
                thread.address, env={"REPRO_SWEEP_RUNNER_FAULT": "wedge-after-pulls:1"}
            )
            while coordinator.stats["leases_granted"] < 1:
                time.sleep(0.001)
            with pytest.raises(TimeoutError):
                proc.wait(timeout=0.05)
            assert proc.poll() is None
            proc.kill()
            assert proc.wait(timeout=10.0) == -signal.SIGKILL
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "fault", [None, "bogus-mode"], ids=["clean", "runners-raise"]
    )
    def test_fleet_writes_nothing_to_parent_stdio(self, capfd, fault):
        executor = DistributedExecutor(
            runners=2, runner_env=[{"REPRO_SWEEP_RUNNER_FAULT": fault} if fault else None] * 2
        )
        payloads = [run.to_dict() for run in _two_cell_sweep().expand()]
        with no_hang():
            if fault is None:
                assert [o["status"] for o in executor.map(payloads)] == ["ok", "ok"]
            else:  # every runner dies with a traceback nobody may see
                with pytest.raises(SweepAborted, match=r"exit codes: \[1, 1\]"):
                    executor.map(payloads)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"lease_seconds": 1.0, "runner_env": [{FAULT_ENV: "die-after-pulls:1"}, None]},
            {
                "lease_seconds": 0.5,
                "speculate": False,
                "runner_env": [{FAULT_ENV: "wedge-after-pulls:1"}, None],
            },
        ],
        ids=["normal", "die", "wedge"],
    )
    def test_no_runner_outlives_map(self, options, serial_json):
        executor = DistributedExecutor(runners=2, **options)
        threads = threading.active_count()
        with no_hang():
            report = run_sweep(_two_cell_sweep(), executor=executor)
        assert report.to_json() == serial_json
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def test_no_runner_outlives_an_aborted_map(self):
        executor = DistributedExecutor(
            runners=1, runner_env=[{FAULT_ENV: "die-after-pulls:1"}]
        )
        threads = threading.active_count()
        with no_hang(), pytest.raises(SweepAborted, match=r"exit codes: \[17\]"):
            run_sweep(_two_cell_sweep(), executor=executor)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads


class TestSpawnStartMethod:
    """Runners started by ``spawn`` (the non-Linux default) behave like forked ones."""

    @pytest.fixture(autouse=True)
    def spawn(self, monkeypatch):
        monkeypatch.setattr(workers, "_start_method", lambda: "spawn")

    def test_report_is_byte_identical_to_serial(self):
        serial = run_sweep(_two_cell_sweep(), jobs=1).to_json()
        with no_hang(60.0):
            report = run_sweep(_two_cell_sweep(), executor=DistributedExecutor(runners=2))
        assert report.to_json() == serial

    def test_runner_env_reaches_a_spawned_runner(self):
        # One runner: only the injected fault's exit code can end this sweep.
        executor = DistributedExecutor(runners=1, runner_env=[{FAULT_ENV: "die-after-pulls:1"}])
        with no_hang(60.0), pytest.raises(SweepAborted, match=r"exit codes: \[17\]"):
            run_sweep(_two_cell_sweep(), executor=executor)
        assert multiprocessing.active_children() == []

    def test_dead_spawned_runner_is_reclaimed_and_report_identical(self):
        # The faulty runner is alone until it has died holding a lease; only
        # then does the healthy one join, so the disconnect reclaim is certain.
        spec = _two_cell_sweep()
        serial = run_sweep(spec, jobs=1).to_json()
        coordinator = SweepCoordinator([run.to_dict() for run in spec.expand()])
        with no_hang(60.0), CoordinatorThread(coordinator) as thread:
            faulty = spawn_loopback_runner(thread.address, env={FAULT_ENV: "die-after-pulls:1"})
            assert faulty.wait(timeout=30.0) == 17
            while coordinator.stats["reclaimed_disconnect"] < 1:
                time.sleep(0.001)
            healthy = spawn_loopback_runner(thread.address)
            outcomes = thread.result(timeout=30.0)
            assert healthy.wait(timeout=10.0) == 0
        assert SweepReport.from_outcomes(spec, outcomes).to_json() == serial
        assert coordinator.stats["reclaimed_disconnect"] == 1
        assert coordinator.stats["retries"] == 1
        assert multiprocessing.active_children() == []
