"""Tests for the sharded lockstep megafleet engine and its catalog.

The load-bearing property is the sweeps/colonies determinism discipline at
fleet scale: a run's canonical JSON must be byte-identical for ANY shard and
jobs count, because randomness is spawned per group before the fan-out and
inter-shard messages only flow at epoch boundaries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle

import pytest

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

#: sha256 of ``run_megafleet("megafleet-1k", seed=4).canonical_json()`` at the
#: commit before shard state became resident (per-epoch pool, states pickled).
PARENT_1K_SEED4_SHA256 = "65c8ad0a2584dcf54862ad74c24925deba65e8957840506741f9fc6a79dd4ca5"


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
        factory, args = pickle.loads(pickle.dumps((engine.ShardHost, (tiny_spec(), 11, [2, 3]))))
        assert factory(*args).summaries() == engine.ShardHost(tiny_spec(), 11, [2, 3]).summaries()

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
        advance_group = engine._advance_group

        def failing(group, *args):
            if group["gid"] == 4:
                raise ArithmeticError("group 4 is broken")
            return advance_group(group, *args)

        monkeypatch.setattr(engine, "_advance_group", failing)  # forked workers inherit it
        with no_hang(), pytest.raises(
            RuntimeError, match=r"shard 2 failed:(?s:.*)ArithmeticError: group 4 is broken"
        ):
            ShardedFleetSimulator(tiny_spec(), seed=11).run(shards=3, jobs=jobs)
        assert multiprocessing.active_children() == []

    def test_killed_worker_fails_the_run_instead_of_hanging_it(self, monkeypatch):
        advance_group = engine._advance_group

        def dying(group, arrivals_req, arrivals_life, epoch_index, *rest):
            if epoch_index == 2 and multiprocessing.parent_process() is not None:
                os._exit(9)
            return advance_group(group, arrivals_req, arrivals_life, epoch_index, *rest)

        monkeypatch.setattr(engine, "_advance_group", dying)
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
        result = ShardedFleetSimulator(tiny_spec(), seed=5).run(shards=3)
        totals = result.totals
        assert totals["epochs"] == tiny_spec().n_epochs
        assert totals["placements"] > 0
        # Every placed VM either departed or is still running.
        assert totals["vms_running"] == totals["placements"] - totals["departures"]
        # Events count at least the per-LC monitoring rows of every epoch.
        assert totals["events"] >= 120 * totals["epochs"]

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

    def test_megafleet_run_table_shows_where_the_wall_went(self, capsys):
        args = ["megafleet", "run", "megafleet-1k", "--duration", "30", "--shards", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        for row in ("workers", "dispatch_s", "exchange_wait_s", "compute_s", "bytes_out", "bytes_in"):
            assert row in out
