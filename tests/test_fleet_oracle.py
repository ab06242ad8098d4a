"""The fleet's array step == the per-LC phased-callback tick it replaced.

``tests/per_lc_tick.py`` keeps the per-LC tick bodies the
:class:`~repro.hierarchy.fleet.LocalControllerFleet` replaced.  Hypothesis
generates small fleets with lifetime churn, threshold crossings (so
relocations and migrations happen), one LC crash + recovery (a second tick
group, a rejoin) and one GM crash (lease loss, mass rejoin, possibly a new
leader), and runs each under both: the event log sequence, the network
counters and the canonical result must be identical -- on the deterministic
network (frames, heartbeat leases) and on jittery and lossy ones (one
send, hence one set of random draws, per report).

The same fleets check the heartbeat leases against the lease-off oracle
(``tests/lease_off.py``: every heartbeat a message) on the jittery and lossy
networks, where every leased heartbeat still makes its draws: identical
results, event logs and network counters, in fewer simulator events.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import vm as vm_module
from repro.scenarios import ScenarioRunner, ScenarioSpec, TimelineEvent, WorkloadPhase

from tests.lease_off import leases_off
from tests.per_lc_tick import per_lc_ticks

NETWORKS = {
    "deterministic": {"base_latency": 0.001, "jitter": 0.0, "loss_probability": 0.0},
    "jittery": {},  # NetworkConfig defaults
    "lossy": {"loss_probability": 0.02},
}

DURATION = 320.0

TRACES = [
    # Hot enough that packed hosts cross the overload threshold.
    {"kind": "constant", "level": 0.95},
    {"kind": "diurnal", "base": 0.05, "peak": 1.0, "period": 240.0, "peak_time": 120.0},
    # Per-VM stochastic: each VM draws its own bursts from its own stream.
    {
        "kind": "bursty",
        "baseline": 0.3,
        "burst_level": 1.0,
        "burst_rate_per_hour": 30.0,
        "burst_duration": 60.0,
        "horizon": DURATION,
    },
]


@st.composite
def fleets(draw):
    lcs = draw(st.integers(4, 40))
    gms = draw(st.integers(2, 4))
    crash_at = draw(st.floats(30.0, 150.0))
    return ScenarioSpec(
        name="generated-fleet",
        duration=DURATION,
        local_controllers=lcs,
        group_managers=gms,
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=draw(st.integers(lcs, 3 * lcs)),
                arrival={"kind": "poisson", "rate_per_hour": 3600.0 * 3 * lcs / DURATION},
                demand={"kind": "uniform", "low": 0.15, "high": 0.45},
                trace=draw(st.sampled_from(TRACES)),
                lifetime={
                    "kind": "exponential",
                    "mean": draw(st.floats(40.0, 200.0)),
                    "minimum": 15.0,
                },
            )
        ],
        timeline=[
            TimelineEvent(crash_at, "kill_lc", {"name": f"lc-{draw(st.integers(0, lcs - 1)):03d}"}),
            TimelineEvent(
                draw(st.floats(40.0, 250.0)),
                "kill_gm",
                {"name": f"gm-{draw(st.integers(0, gms - 1)):02d}"},
            ),
        ],
    ), draw(st.floats(10.0, 90.0)), draw(st.integers(0, 2**16))


def observe(spec: ScenarioSpec, seed: int):
    vm_module._vm_counter = itertools.count()  # VM names (event-log details) carry the id
    runner = ScenarioRunner(spec, seed=seed)
    result = runner.run()
    events = [
        (event.timestamp, event.category, sorted(event.details.items()))
        for event in runner.system.event_log.events()
    ]
    system = runner.system
    return events, system.network.stats(), result.canonical_json(), system.sim.processed_events


def with_recovery(generated):
    """The generated spec with its crashed LC recovering, and the run's seed."""
    spec, recover_after, seed = generated
    crash = spec.timeline[0]
    spec.timeline.append(
        TimelineEvent(crash.at + recover_after, "recover", {"name": crash.params["name"]})
    )
    return spec, seed


@pytest.mark.parametrize("network", sorted(NETWORKS))
@settings(max_examples=12, deadline=None)
@given(generated=fleets())
def test_fleet_step_matches_per_lc_ticks(network, generated):
    spec, seed = with_recovery(generated)
    spec.config = {"network": NETWORKS[network]}
    with per_lc_ticks():
        oracle_events, oracle_stats, oracle_json, _ = observe(spec, seed)
    events, stats, canonical, _ = observe(spec, seed)
    assert stats == oracle_stats
    assert events == oracle_events
    assert canonical == oracle_json
    categories = {category for _, category, _ in events}
    assert {"lc_joined", "component_failed", "component_recovered"} <= categories


@pytest.mark.parametrize("network", ["jittery", "lossy"])
@settings(max_examples=8, deadline=None)
@given(generated=fleets())
def test_heartbeat_leases_match_every_heartbeat_as_a_message(network, generated):
    spec, seed = with_recovery(generated)
    spec.config = {"network": NETWORKS[network]}
    with leases_off():
        oracle_events, oracle_stats, oracle_json, oracle_processed = observe(spec, seed)
    events, stats, canonical, processed = observe(spec, seed)
    assert canonical == oracle_json
    assert events == oracle_events
    assert stats == oracle_stats
    assert processed < oracle_processed
    categories = {category for _, category, _ in events}
    assert {"lc_joined", "component_failed", "component_recovered"} <= categories
