"""Tests for the sharded lockstep megafleet engine and its catalog.

The load-bearing property is the sweeps/colonies determinism discipline at
fleet scale: a run's canonical JSON must be byte-identical for ANY shard and
jobs count, because the coordinator draws every random number and inter-shard
messages only flow at epoch boundaries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import workers
from repro.cli.main import main
from repro.megafleet import (
    MegafleetSpec,
    ShardedFleetSimulator,
    engine,
    get_megafleet,
    megafleet_names,
    run_megafleet,
)

from tests.conftest import no_hang
from tests.per_arrival_megafleet import PerGroupShard

#: sha256 of ``run_megafleet("megafleet-1k", seed=4).canonical_json()``.
PARENT_1K_SEED4_SHA256 = "657a558a145d5a3aa618192d199e8f960515f6e1573d9494aa48f75690c9dee7"

#: sha256 of the bench-scale runs' canonical JSON: ``megafleet-10k`` at seed 7
#: over its full horizon, and ``megafleet-100k`` at seed 7 over 300 s (the
#: bench item).
PARENT_10K_SEED7_SHA256 = "038df270f6be31349ba35f8b7443c8eccc08bd24ba0acde8f6ae397c7473d364"
PARENT_100K_SEED7_300S_SHA256 = "fa6b969016eb97012f8ddcc96645657c9c8b3e7e852bbcb8a68628f4634b02ac"

#: The same three digests while shards still modelled per-LC monitoring rows:
#: pinned since shard state became resident (1k) and since placement became one
#: kernel call per group and epoch (10k, 100k).
MONITORED_1K_SEED4_SHA256 = "65c8ad0a2584dcf54862ad74c24925deba65e8957840506741f9fc6a79dd4ca5"
MONITORED_10K_SEED7_SHA256 = "481d254ed1706a04fccfeafcb3e330dbdf36e58d985e61b0b1cea9a75ee88af3"
MONITORED_100K_SEED7_300S_SHA256 = "ff29a0011053e56617daa53e5f5a12c55662c1a69f6ed62473a072e1704a6cc7"


def with_monitoring_rows(result) -> str:
    """``result``'s canonical JSON as the engine wrote it with monitoring rows.

    That engine had three more spec keys (at their defaults in every catalog
    fleet) and counted ``ticks = max(1, round(epoch / monitoring_interval))``
    rows per LC and epoch into ``events``; nothing else it wrote depended on
    the rows.
    """
    payload = result.to_dict()
    payload["spec"].update(monitoring_interval=10.0, usage_low=0.35, usage_high=0.9)
    spec = result.spec
    payload["totals"]["events"] += (
        spec.local_controllers * max(1, round(spec.epoch / 10.0)) * spec.n_epochs
    )
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def tiny_spec(**overrides) -> MegafleetSpec:
    """A seconds-fast fleet derived from the smoke-test catalog entry."""
    base = dataclasses.replace(
        get_megafleet("megafleet-1k"),
        local_controllers=120,
        group_managers=6,
        duration=60.0,
        arrivals_per_epoch=25.0,
        vm_lifetime_mean=40.0,
    )
    return dataclasses.replace(base, **overrides) if overrides else base


class TestCatalog:
    def test_roadmap_fleets_registered(self):
        names = megafleet_names()
        assert "megafleet-10k" in names
        assert "megafleet-100k" in names
        assert get_megafleet("megafleet-100k").local_controllers == 100_000

    def test_unknown_fleet_raises(self):
        with pytest.raises(KeyError, match="unknown megafleet"):
            get_megafleet("megafleet-1e9")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="at least one LC"):
            tiny_spec(local_controllers=2, group_managers=6)
        with pytest.raises(ValueError, match="positive epoch"):
            tiny_spec(duration=1.0, epoch=10.0)
        with pytest.raises(ValueError, match="match dimensions"):
            tiny_spec(node_capacity=(1.0,))

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"vm_demand_low": 0.5, "vm_demand_high": 0.1}, "vm_demand_low <= vm_demand_high"),
            ({"vm_demand_low": -0.05}, "0 <= vm_demand_low"),
            ({"arrivals_per_epoch": -1.0}, "arrivals_per_epoch must be >= 0"),
            ({"vm_lifetime_mean": 0.0}, r"vm_lifetime_mean must be positive .* \(got 0.0\)"),
            ({"node_capacity": (1.0, 0.0, 1.0)}, r"node_capacity must be positive .* \(got 0.0\)"),
            ({"epoch": float("nan")}, r"MegafleetSpec\.epoch must be finite \(got nan\)"),
            ({"duration": float("nan")}, r"MegafleetSpec\.duration must be finite \(got nan\)"),
            ({"duration": float("inf")}, r"MegafleetSpec\.duration must be finite \(got inf\)"),
            ({"epoch": float("inf"), "duration": float("inf")}, "duration must be finite"),
            (
                {"arrivals_per_epoch": float("inf")},
                r"MegafleetSpec\.arrivals_per_epoch must be finite \(got inf\)",
            ),
            (
                {"vm_demand_high": float("inf")},
                r"MegafleetSpec\.vm_demand_high must be finite \(got inf\)",
            ),
            ({"vm_lifetime_mean": float("inf")}, r"vm_lifetime_mean .* \(got inf\)"),
            (
                {"node_capacity": (float("inf"), 1.0, 1.0)},
                r"MegafleetSpec\.node_capacity\[0\] must be finite \(got inf\)",
            ),
        ],
    )
    def test_spec_rejects_fields_that_crash_or_mislead_a_run(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_spec(**overrides)

    def test_group_sizes_cover_fleet(self):
        spec = tiny_spec(local_controllers=121)
        sizes = spec.group_sizes()
        assert sum(sizes) == 121
        assert max(sizes) - min(sizes) <= 1

    def test_spec_round_trips_to_json(self):
        payload = json.loads(json.dumps(tiny_spec().to_dict()))
        assert payload["local_controllers"] == 120
        assert payload["dimensions"] == ["cpu", "memory", "network"]


class TestDeterminism:
    def test_byte_identical_across_shard_counts(self):
        spec = tiny_spec()
        reference = ShardedFleetSimulator(spec, seed=11).run(shards=1).canonical_json()
        for shards in (2, 3, 6, 32):  # 32 > group count: clamped, still identical
            assert (
                ShardedFleetSimulator(spec, seed=11).run(shards=shards).canonical_json()
                == reference
            )

    def test_catalog_10k_fleet_is_byte_identical_across_shard_counts(self):
        # The 10k-LC catalog fleet: 32 groups over 8 shards, four groups each.
        spec = get_megafleet("megafleet-10k")
        sharded = ShardedFleetSimulator(spec, seed=2012).run(shards=8)
        single = ShardedFleetSimulator(spec, seed=2012).run(shards=1)
        assert sharded.totals["placements"] > 0
        assert sharded.canonical_json() == single.canonical_json()

    def test_byte_identical_across_jobs(self):
        spec = tiny_spec()
        serial = ShardedFleetSimulator(spec, seed=11).run(shards=4, jobs=1)
        pooled = ShardedFleetSimulator(spec, seed=11).run(shards=4, jobs=2)
        assert pooled.canonical_json() == serial.canonical_json()

    def test_byte_identical_over_the_shards_jobs_matrix(self):
        # 6 groups: 4 shards do not divide them, 4 shards over 2 or 3 workers
        # puts several shards in one worker, and jobs > shards clamps.
        spec = tiny_spec()
        reference = ShardedFleetSimulator(spec, seed=11).run(shards=1, jobs=1).canonical_json()
        for shards in (1, 2, 3, 4):
            for jobs in (1, 2, 3):
                result = ShardedFleetSimulator(spec, seed=11).run(shards=shards, jobs=jobs)
                assert result.canonical_json() == reference, (shards, jobs)
                assert result.perf["workers"] == min(shards, jobs)
                assert len(result.perf["compute_s"]) == shards
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("shards,jobs", [(1, 1), (3, 2)])
    def test_output_unchanged_since_states_were_shipped(self, shards, jobs):
        text = run_megafleet("megafleet-1k", seed=4, shards=shards, jobs=jobs).canonical_json()
        assert hashlib.sha256(text.encode()).hexdigest() == PARENT_1K_SEED4_SHA256

    @pytest.mark.parametrize(
        "name,duration,digest",
        [
            ("megafleet-10k", None, PARENT_10K_SEED7_SHA256),
            ("megafleet-100k", 300.0, PARENT_100K_SEED7_300S_SHA256),
        ],
    )
    def test_bench_scale_output_is_pinned(self, name, duration, digest):
        text = run_megafleet(name, seed=7, duration=duration).canonical_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name,seed,duration,digest",
        [
            ("megafleet-1k", 4, None, MONITORED_1K_SEED4_SHA256),
            ("megafleet-10k", 7, None, MONITORED_10K_SEED7_SHA256),
            ("megafleet-100k", 7, 300.0, MONITORED_100K_SEED7_300S_SHA256),
        ],
    )
    def test_monitored_pins_rebuild_from_the_new_run(self, name, seed, duration, digest):
        # Dropping the monitoring rows moved no byte but the three spec keys
        # and the rows' share of ``events``.
        text = with_monitoring_rows(run_megafleet(name, seed=seed, duration=duration))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_byte_identical_under_spawn(self, monkeypatch):
        # Spawned workers import the engine afresh and rebuild their shards
        # from the pickled factory arguments alone.
        spec = tiny_spec()
        reference = ShardedFleetSimulator(spec, seed=11).run().canonical_json()
        monkeypatch.setattr(workers, "_start_method", lambda: "spawn")
        with no_hang():
            spawned = ShardedFleetSimulator(spec, seed=11).run(shards=3, jobs=2)
        assert spawned.canonical_json() == reference

    def test_shard_factory_arguments_survive_pickling(self):
        factory, args = pickle.loads(pickle.dumps((engine.ShardHost, (tiny_spec(), [2, 3]))))
        assert factory(*args).summaries() == engine.ShardHost(tiny_spec(), [2, 3]).summaries()

    def test_seed_changes_the_run(self):
        spec = tiny_spec()
        a = ShardedFleetSimulator(spec, seed=1).run().canonical_json()
        b = ShardedFleetSimulator(spec, seed=2).run().canonical_json()
        assert a != b

    def test_wall_clock_excluded_from_canonical_payload(self):
        result = ShardedFleetSimulator(tiny_spec(), seed=3).run()
        assert result.wall_seconds > 0
        assert "wall" not in result.canonical_json()
        assert result.perf["exchange_wait_s"] > 0
        assert "perf" not in result.to_dict()


class TestResidentShards:
    def test_exchange_does_not_grow_with_the_fleet(self):
        # Protects the optimisation without timing anything: ten times the LCs
        # is ten times the resident state, and the same bytes on the wire.
        def exchanged(local_controllers: int) -> int:
            spec = tiny_spec(local_controllers=local_controllers)
            result = ShardedFleetSimulator(spec, seed=11).run(shards=2, jobs=2)
            assert result.totals["dispatch_rejections"] == 0  # same arrivals shipped
            return result.perf["bytes_out"] + result.perf["bytes_in"]

        small, large = exchanged(120), exchanged(1200)
        assert small > 0
        assert abs(large - small) / small < 0.05
        in_process = ShardedFleetSimulator(tiny_spec(), seed=11).run(shards=2, jobs=1)
        assert in_process.perf["bytes_out"] == in_process.perf["bytes_in"] == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shard_exception_names_the_shard(self, monkeypatch, jobs):
        advance = engine.ShardHost.advance

        def failing(host, epoch):
            if 4 in host.gids:
                raise ArithmeticError("group 4 is broken")
            return advance(host, epoch)

        monkeypatch.setattr(engine.ShardHost, "advance", failing)  # forked workers inherit it
        with no_hang(), pytest.raises(
            RuntimeError, match=r"shard 2 failed:(?s:.*)ArithmeticError: group 4 is broken"
        ):
            ShardedFleetSimulator(tiny_spec(), seed=11).run(shards=3, jobs=jobs)
        assert multiprocessing.active_children() == []

    def test_killed_worker_fails_the_run_instead_of_hanging_it(self, monkeypatch):
        advance = engine.ShardHost.advance

        def dying(host, epoch):
            if epoch["epoch_index"] == 2 and multiprocessing.parent_process() is not None:
                os._exit(9)
            return advance(host, epoch)

        monkeypatch.setattr(engine.ShardHost, "advance", dying)
        with no_hang(), pytest.raises(RuntimeError, match=r"shard\(s\) 0, 2 died \(exit code 9\)"):
            ShardedFleetSimulator(tiny_spec(), seed=11).run(shards=3, jobs=2)
        assert multiprocessing.active_children() == []

    def test_bad_counts_keep_their_errors(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ShardedFleetSimulator(tiny_spec()).run(shards=0)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ShardedFleetSimulator(tiny_spec()).run(jobs=0)


class TestSemantics:
    def test_totals_are_consistent(self):
        spec = tiny_spec()
        for shards in (1, 3, 6):
            result = ShardedFleetSimulator(spec, seed=5).run(shards=shards)
            totals = result.totals
            assert totals["epochs"] == spec.n_epochs
            assert totals["placements"] > 0
            # Every placed VM either departed or is still running.
            assert totals["vms_running"] == totals["placements"] - totals["departures"]
            # Events are the VM lifecycle operations at the groups plus one
            # summary per group and epoch.
            assert result.events == (
                totals["placements"] + totals["rejections"] + totals["departures"]
                + spec.group_managers * totals["epochs"]
            )

    def test_dispatch_spreads_over_groups(self):
        result = ShardedFleetSimulator(tiny_spec(), seed=5).run()
        placed_groups = [g for g in result.per_group if g["placements"] > 0]
        assert len(placed_groups) > 1

    def test_capacity_never_oversubscribed(self):
        result = ShardedFleetSimulator(tiny_spec(arrivals_per_epoch=200.0), seed=9).run()
        for group in result.per_group:
            assert group["free_cpu"] >= 0.0

    def test_run_megafleet_duration_override(self):
        result = run_megafleet("megafleet-1k", seed=1, shards=4, duration=30.0)
        assert result.totals["epochs"] == 3
        assert result.spec.name == "megafleet-1k"


#: Demand fractions that make exact fills, ties and rejections likely.
DEMANDS = [0.0, 0.1, 0.25, 0.5, 0.7, 1.0, 1.2]
#: Lifetimes: leave next epoch (0), in a later epoch, or never in the run.
LIFETIMES = [0.0, 5.0, 10.0, 25.0, 1e9]


@st.composite
def shard_runs(draw):
    """``(spec, gids, epochs)``: one shard and the arrivals of every epoch."""
    group_managers = draw(st.integers(min_value=1, max_value=5))
    # LC counts that mostly do not divide evenly over the GMs, and groups
    # past the 8 rows where numpy's pairwise summation of free CPU begins.
    local_controllers = draw(st.integers(min_value=group_managers, max_value=12 * group_managers))
    d = draw(st.integers(min_value=1, max_value=3))
    first = draw(st.integers(min_value=0, max_value=group_managers - 1))
    last = draw(st.integers(min_value=first, max_value=group_managers - 1))
    n_epochs = draw(st.integers(min_value=1, max_value=5))
    spec = tiny_spec(
        local_controllers=local_controllers,
        group_managers=group_managers,
        dimensions=tuple(f"r{i}" for i in range(d)),
        node_capacity=tuple(draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(d)),
        duration=10.0 * n_epochs,
        epoch=10.0,
    )
    gids = list(range(first, last + 1))
    epochs = []
    for index in range(n_epochs):
        counts = [draw(st.integers(min_value=0, max_value=6)) for _ in gids]
        k = sum(counts)
        demands = [[draw(st.sampled_from(DEMANDS)) for _ in range(d)] for _ in range(k)]
        epochs.append(
            {
                "epoch_index": index,
                "epoch_start": 10.0 * index,
                "epoch_end": 10.0 * (index + 1),
                "demands": np.array(demands, dtype=float).reshape(k, d),
                "lifetimes": np.array([draw(st.sampled_from(LIFETIMES)) for _ in range(k)]),
                "counts": np.array(counts, dtype=np.int64),
            }
        )
    return spec, gids, epochs


#: A group's rows, VMs and counters, named as the per-group oracle keeps them.
GROUP_STATE = ("reserved", "vm_req", "vm_host", "vm_depart",
               "placements", "rejections", "departures")


def group_states(host: engine.ShardHost) -> list:
    """Each group's slice of a stacked shard, in the oracle's terms."""
    states = []
    bounds = host.offsets.tolist()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        mine = host.vm_group == i
        states.append(
            {
                "reserved": host.reserved[lo:hi],
                "vm_req": host.vm_req[mine],
                "vm_host": host.vm_row[mine] - lo,
                "vm_depart": host.vm_depart[mine],
                "placements": int(host.placements[i]),
                "rejections": int(host.rejections[i]),
                "departures": int(host.departures[i]),
            }
        )
    return states


def _exact(value):
    """A value with its bytes: arrays by dtype and content, floats by hex."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_exact(item) for item in value]
    return (type(value).__name__, value)


class TestStackedShard:
    """A stacked ``ShardHost`` holds the per-group oracle's state after every epoch."""

    @given(run=shard_runs())
    @settings(max_examples=120, deadline=None)
    # Two of three groups over 7 LCs (3, 2, 2), the slice starting at gid 1:
    # a group with no arrivals, rejections, and a VM leaving after one epoch
    # while the next epoch has no departures.
    @example(
        run=(
            tiny_spec(local_controllers=7, group_managers=3, duration=30.0),
            [1, 2],
            [
                {"epoch_index": 0, "epoch_start": 0.0, "epoch_end": 10.0,
                 "demands": np.array([[0.5] * 3, [1.2] * 3, [0.7] * 3]),
                 "lifetimes": np.array([0.0, 5.0, 1e9]),
                 "counts": np.array([3, 0])},
                {"epoch_index": 1, "epoch_start": 10.0, "epoch_end": 20.0,
                 "demands": np.array([[0.25] * 3]),
                 "lifetimes": np.array([1e9]),
                 "counts": np.array([0, 1])},
                {"epoch_index": 2, "epoch_start": 20.0, "epoch_end": 30.0,
                 "demands": np.empty((0, 3)),
                 "lifetimes": np.empty(0),
                 "counts": np.array([0, 0])},
            ],
        )
    )
    # One group of 11 LCs whose free CPU sums differently in order (5.3) and
    # pairwise (5.300000000000001): the summary must keep numpy's ``sum``.
    @example(
        run=(
            tiny_spec(local_controllers=11, group_managers=1, duration=10.0,
                      dimensions=("cpu",), node_capacity=(1.0,)),
            [0],
            [
                {"epoch_index": 0, "epoch_start": 0.0, "epoch_end": 10.0,
                 "demands": np.array(
                     [[0.5], [0.7], [1.2], [1.0], [0.7], [0.5], [0.5], [1.2], [0.1], [1.0], [0.7]]
                 ),
                 "lifetimes": np.full(11, 1e9),
                 "counts": np.array([11])},
            ],
        )
    )
    def test_equals_the_per_group_oracle_after_every_epoch(self, run):
        spec, gids, epochs = run
        host = engine.ShardHost(spec, gids)
        oracle = PerGroupShard(spec, gids)
        assert _exact(host.summaries()) == _exact(oracle.summaries())
        for epoch in epochs:
            assert _exact(host.advance(epoch)) == _exact(oracle.advance(epoch))
            expected = [{key: group[key] for key in GROUP_STATE} for group in oracle.groups]
            assert _exact(group_states(host)) == _exact(expected)
        assert _exact(host.finish()) == _exact(oracle.finish())


class TestCli:
    def test_megafleet_list(self, capsys):
        assert main(["megafleet", "list"]) == 0
        out = capsys.readouterr().out
        assert "megafleet-100k" in out

    def test_megafleet_run_json_matches_engine(self, capsys):
        args = ["megafleet", "run", "megafleet-1k", "--seed", "4", "--duration", "30",
                "--shards", "3", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        direct = run_megafleet("megafleet-1k", seed=4, shards=1, duration=30.0)
        assert payload["totals"] == direct.totals
        assert "perf" not in payload and "exchange_wait_s" not in payload

    @pytest.mark.parametrize(
        "field,value",
        [
            ("monitoring_interval", 0),
            ("monitoring_interval", -5),
            ("usage_low", 0.95),
            ("usage_high", 0.5),
            ("arrivals_per_epoch", -1),
            ("epoch", float("nan")),
            ("duration", float("nan")),
            ("duration", float("inf")),
            ("arrivals_per_epoch", float("inf")),
            ("vm_demand_high", float("inf")),
            ("vm_lifetime_mean", float("inf")),
            ("node_capacity", [float("inf"), 1, 1]),
        ],
    )
    def test_bad_spec_file_is_a_user_error(self, field, value, tmp_path, capsys):
        assert main(["megafleet", "list", "--json"]) == 0
        (entry,) = [e for e in json.loads(capsys.readouterr().out) if e["name"] == "megafleet-1k"]
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({**entry, field: value}))
        assert main(["megafleet", "run", str(path), "--duration", "30"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: invalid megafleet spec {str(path)!r}: ")
        assert field in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_megafleet_run_table_shows_where_the_wall_went(self, capsys):
        args = ["megafleet", "run", "megafleet-1k", "--duration", "30", "--shards", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        for row in ("workers", "dispatch_s", "exchange_wait_s", "compute_s", "bytes_out", "bytes_in"):
            assert row in out
