"""The heartbeat fan-out gives the same results with leases on and off, row by row.

The system-level oracles (``tests/test_fleet_oracle.py``) drive whole
deployments, whose fan-outs rarely hold a released, cancelled or overdue
lease next to a down sender and a watcher partitioned mid-flight.  Here one
send of generated rows -- a multicast publish (one sender, one watcher per
member, maybe a paused member) or a fleet tick (one sender per row, a few
watchers holding one detector per sender) -- runs with every lease granted
and under ``tests/lease_off.py`` (every heartbeat a message): the detectors
expire at the same times, ``Network.stats()`` agree and the network's random
stream is at the same position.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fanout import FanOut, LeaseSet
from repro.network.message import MessageType
from repro.network.multicast import MulticastRegistry
from repro.network.transport import Network, NetworkConfig
from repro.simulation.batch import DeadlineTable
from repro.simulation.engine import Simulator

from tests.lease_off import leases_off

NETWORKS = {
    "deterministic": NetworkConfig(jitter=0.0),
    "jittery": NetworkConfig(),
    "lossy": NetworkConfig(loss_probability=0.3),
}
#: What a row's detector lease is at the send.
STATES = ("absent", "valid", "released", "cancelled", "due")
SEND_AT = 2.0


@st.composite
def fan_outs(draw):
    multicast = draw(st.booleans())
    n = draw(st.integers(1, 20))
    states = draw(st.lists(st.sampled_from(STATES), min_size=n, max_size=n))
    watchers = n if multicast else draw(st.integers(1, 3))
    return {
        "multicast": multicast,
        "network": draw(st.sampled_from(sorted(NETWORKS))),
        "seed": draw(st.integers(0, 2**16)),
        "states": states,
        # Row -> its watcher (a multicast member watches its own row).
        "watcher_of": list(range(n)) if multicast else draw(
            st.lists(st.integers(0, watchers - 1), min_size=n, max_size=n)
        ),
        "senders_down": draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if not multicast else [draw(st.booleans())] * n,
        "watchers_down": draw(st.lists(st.booleans(), min_size=watchers, max_size=watchers)),
        "paused": draw(st.integers(-1, n - 1)) if multicast else -1,
        "partitioned": draw(st.integers(-1, watchers - 1)),
    }


def run(case: dict, leased: bool):
    sim = Simulator()
    network = Network(sim, NETWORKS[case["network"]], rng=np.random.default_rng(case["seed"]))
    leases = LeaseSet(sim, network)
    n = len(case["states"])
    watchers = [f"w{k}" for k in range(len(case["watchers_down"]))]
    senders = ["gm"] * n if case["multicast"] else [f"s{k}" for k in range(n)]
    tables = {watcher: DeadlineTable(sim, watcher) for watcher in watchers}
    detectors, fired = {}, []

    def heard(watcher, message):
        handle = detectors.get((watcher, message.sender))
        if handle is not None and handle.armed:
            handle.restart()

    for watcher in watchers:
        network.register(watcher, lambda m, w=watcher: heard(w, m))
    for sender in dict.fromkeys(senders):
        network.register(sender, lambda m: None)
    for row, (state, sender) in enumerate(zip(case["states"], senders)):
        watcher = watchers[case["watcher_of"][row]]
        if row == case["paused"]:
            continue  # a paused member has no detector: it only reads its latch
        # A detector armed at 0.0; a "due" one falls due before the arrival.
        timeout = SEND_AT + 0.0005 if state == "due" else 8.0
        handle = tables[watcher].arm(timeout, lambda w=watcher, s=sender: fired.append(
            (sim.now, w, s)))
        detectors[watcher, sender] = handle
        if state != "absent":
            assert leases.grant(watcher, sender, handle, 8.0, 2.0) or not leased
        if state == "released":
            handle.release()
        elif state == "cancelled":
            handle.cancel()
    for name, down in [*zip(watchers, case["watchers_down"]), *zip(senders, case["senders_down"])]:
        if down:
            network.disconnect(name)

    sim.run(until=SEND_AT)
    if case["multicast"]:
        group = MulticastRegistry(network).group("hb")
        for watcher in watchers:
            group.subscribe(watcher)
        if case["paused"] >= 0:
            group.pause(watchers[case["paused"]])
        group.publish("gm", MessageType.GM_HEARTBEAT, payload={"gm": "gm"}, leases=leases)
    else:
        fan_out = FanOut(network)
        fan_out.plan(0, lambda: [
            (network.endpoint(sender), watchers[case["watcher_of"][row]], None,
             leases.get(watchers[case["watcher_of"][row]], sender), False)
            for row, sender in enumerate(senders)
        ])
        fan_out.send(MessageType.LC_HEARTBEAT, 128)
    if case["partitioned"] >= 0:
        sim.run(until=SEND_AT + 0.0002)  # every message is still in flight
        network.disconnect(watchers[case["partitioned"]])
    sim.run(until=30.0)
    return sorted(fired), network.stats(), (network._draw_index, network._draws)


@settings(max_examples=120, deadline=None)
@given(fan_outs())
def test_a_fan_out_is_the_same_with_leases_on_and_off(case):
    on = run(case, leased=True)
    with leases_off():
        off = run(case, leased=False)
    assert on == off
