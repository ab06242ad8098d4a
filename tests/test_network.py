"""Tests for the simulated messaging substrate: transport, multicast, RPC."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.network.message import Message, MessageType
from repro.network.multicast import MulticastGroup, MulticastRegistry
from repro.network.rpc import RpcChannel, RpcError
from repro.network.transport import Network, NetworkConfig
from repro.obs.tracing import Tracer
from repro.simulation.engine import Simulator


@pytest.fixture
def network(sim):
    return Network(sim, NetworkConfig(base_latency=0.001, jitter=0.0), rng=np.random.default_rng(0))


class TestNetworkConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(base_latency=-1.0)
        with pytest.raises(ValueError):
            NetworkConfig(loss_probability=1.0)


class TestTransport:
    def test_message_delivered_to_registered_endpoint(self, sim, network):
        received = []
        network.register("bob", received.append)
        network.register("alice", lambda m: None)
        message = Message(MessageType.VM_SUBMIT, sender="alice", recipient="bob", payload=42)
        assert network.send(message)
        sim.run()
        assert len(received) == 1
        assert received[0].payload == 42
        assert received[0].delivered_at - received[0].sent_at == pytest.approx(0.001)

    def test_message_to_unknown_recipient_is_dropped(self, sim, network):
        network.register("alice", lambda m: None)
        network.send(Message(MessageType.VM_SUBMIT, sender="alice", recipient="ghost"))
        sim.run()
        assert network.messages_dropped == 1
        assert network.messages_delivered == 0

    def test_disconnected_recipient_drops_message(self, sim, network):
        received = []
        network.register("bob", received.append)
        network.disconnect("bob")
        network.send(Message(MessageType.VM_SUBMIT, sender="x", recipient="bob"))
        sim.run()
        assert received == []
        assert network.messages_dropped == 1

    def test_disconnected_sender_cannot_send(self, sim, network):
        received = []
        network.register("bob", received.append)
        network.register("alice", lambda m: None)
        network.disconnect("alice")
        assert not network.send(Message(MessageType.VM_SUBMIT, sender="alice", recipient="bob"))
        sim.run()
        assert received == []

    def test_reconnect_restores_delivery(self, sim, network):
        received = []
        network.register("bob", received.append)
        network.disconnect("bob")
        network.reconnect("bob")
        network.send(Message(MessageType.VM_SUBMIT, sender="x", recipient="bob"))
        sim.run()
        assert len(received) == 1

    def test_loss_probability_drops_messages(self, sim):
        lossy = Network(
            sim, NetworkConfig(loss_probability=0.5), rng=np.random.default_rng(1)
        )
        received = []
        lossy.register("bob", received.append)
        for _ in range(200):
            lossy.send(Message(MessageType.VM_SUBMIT, sender="x", recipient="bob"))
        sim.run()
        assert 40 < len(received) < 160  # roughly half, not all, not none

    def test_jitter_varies_latency(self, sim):
        jittery = Network(
            sim, NetworkConfig(base_latency=0.001, jitter=0.01), rng=np.random.default_rng(2)
        )
        latencies = []
        jittery.register("bob", lambda m: latencies.append(m.delivered_at - m.sent_at))
        for _ in range(20):
            jittery.send(Message(MessageType.VM_SUBMIT, sender="x", recipient="bob"))
        sim.run()
        assert len(set(np.round(latencies, 9))) > 1
        assert all(lat >= 0.001 for lat in latencies)

    def test_only_a_deterministic_network_batches_same_instant_deliveries(self, sim, network):
        """Zero jitter *and* zero loss: one event carries every same-instant send;
        either source of randomness keeps one delivery event (and draw) per message."""
        received = []
        network.register("bob", lambda m: received.append(m.payload))
        assert network.deterministic
        for index in range(5):
            network.send(Message(MessageType.VM_SUBMIT, sender="x", recipient="bob", payload=index))
        sim.run()
        assert received == [0, 1, 2, 3, 4]
        assert sim.processed_events == 1
        for config in (
            NetworkConfig(base_latency=0.001, jitter=0.01),
            NetworkConfig(base_latency=0.001, jitter=0.0, loss_probability=0.2),
        ):
            other = type(sim)()
            random_network = Network(other, config, rng=np.random.default_rng(3))
            assert not random_network.deterministic
            delivered = []
            random_network.register("bob", lambda m, sink=delivered: sink.append(m.payload))
            sent = sum(
                random_network.send(
                    Message(MessageType.VM_SUBMIT, sender="x", recipient="bob", payload=index)
                )
                for index in range(5)
            )
            other.run()
            assert len(delivered) == sent
            assert other.processed_events == sent

    def test_frame_is_accounted_as_one_message_per_sender(self, sim, network):
        received = []
        senders = [network.register(f"lc-{index}", lambda m: None) for index in range(3)]
        network.register("gm", received.append)
        frame = Message(MessageType.LC_MONITORING, "fleet", "gm", payload="rows")
        network.send_frame(frame, senders, size_bytes=1024)
        assert network.messages_sent == 3 and network.bytes_sent == 3 * 1024
        sim.run()
        assert received == [frame]  # one handler call ...
        assert network.messages_delivered == 3  # ... three messages

    def test_frame_to_a_down_recipient_is_dropped_as_a_block(self, sim, network):
        senders = [network.register(f"lc-{index}", lambda m: None) for index in range(4)]
        network.register("gm", lambda m: None)
        network.send_frame(Message(MessageType.LC_MONITORING, "fleet", "gm"), senders)
        network.disconnect("gm")  # goes down between send and delivery
        sim.run()
        assert network.messages_dropped == 4 and network.messages_delivered == 0

    def test_frame_shares_the_instant_delivery_batch(self, sim, network):
        order = []
        network.register("a", lambda m: None)
        network.register("gm", lambda m: order.append(m.payload))
        network.send(Message(MessageType.LC_HEARTBEAT, "a", "gm", payload="before"))
        network.send_frame(
            Message(MessageType.LC_MONITORING, "fleet", "gm", payload="frame"),
            [network.endpoint("a")],
        )
        network.send(Message(MessageType.LC_HEARTBEAT, "a", "gm", payload="after"))
        assert len(sim) == 1  # one delivery event carries all three
        sim.run()
        assert order == ["before", "frame", "after"]

    def test_frames_need_a_deterministic_network(self, sim):
        jittery = Network(sim, NetworkConfig(), rng=np.random.default_rng(0))
        sender = jittery.register("lc", lambda m: None)
        with pytest.raises(ValueError):
            jittery.send_frame(Message(MessageType.LC_MONITORING, "fleet", "gm"), [sender])

    def test_connectivity_epoch_moves_with_every_connectivity_change(self, sim, network):
        seen = [network.connectivity_epoch]
        for change in (
            lambda: network.register("a", lambda m: None),
            lambda: network.disconnect("a"),
            lambda: network.reconnect("a"),
        ):
            change()
            seen.append(network.connectivity_epoch)
        assert seen == sorted(set(seen))  # strictly increasing
        network.disconnect("nobody")  # no endpoint: nothing changed
        assert network.connectivity_epoch == seen[-1]

    def test_stats_counters(self, sim, network):
        network.register("bob", lambda m: None)
        network.send(Message(MessageType.VM_SUBMIT, sender="x", recipient="bob"), size_bytes=100)
        sim.run()
        stats = network.stats()
        assert stats["messages_sent"] == 1
        assert stats["messages_delivered"] == 1
        assert stats["bytes_sent"] == 100

    def test_re_registration_replaces_handler(self, sim, network):
        first, second = [], []
        network.register("bob", first.append)
        network.register("bob", second.append)
        network.send(Message(MessageType.VM_SUBMIT, sender="x", recipient="bob"))
        sim.run()
        assert first == []
        assert len(second) == 1

    def test_message_reply_addresses_sender(self):
        message = Message(MessageType.RPC_REQUEST, sender="a", recipient="b", correlation_id=9)
        reply = message.reply(MessageType.RPC_REPLY, payload="ok")
        assert reply.sender == "b"
        assert reply.recipient == "a"
        assert reply.correlation_id == 9


class TestDrawSequence:
    """Loss then jitter, one uniform each, in send order -- however they are drawn.

    No catalog scenario has loss, so the goldens pin the jitter draws only.
    Here a twin generator taking *scalar* ``random()`` / ``uniform(0, jitter)``
    draws predicts every drop and every arrival time of a network that reads
    its generator in blocks, with the sender resolved by name or passed in.
    """

    CONFIG = NetworkConfig(base_latency=0.002, jitter=0.0007, loss_probability=0.2)
    ROUNDS, FAN_OUT, SPACING = 60, 35, 0.0013  # spacing < latency: rounds overlap in flight

    def _drive(self, net, prepare=lambda round_, messages: None, on_receive=lambda message: None):
        """Each round: FAN_OUT + 2 ``send`` calls; payloads count up.

        Returns what each call returned (keyed by its payload) and every
        delivered payload's arrival time.
        """
        sim = net.sim
        returned, arrivals = {}, {}

        def receive(message):
            arrivals[message.payload] = sim.now
            on_receive(message)

        source = net.register("source", lambda message: None)
        net.register("sink", receive)
        size = self.FAN_OUT + 2
        for round_ in range(self.ROUNDS):
            sim.run(until=round_ * self.SPACING)
            messages = [
                Message(MessageType.GL_HEARTBEAT, "source", "sink", payload=round_ * size + k)
                for k in range(size)
            ]
            prepare(round_, messages)
            for k, message in enumerate(messages):
                returned[message.payload] = net.send(message, sender=source if k % 2 else None)
        sim.run()
        return returned, arrivals

    def test_scalar_twin_predicts_every_drop_and_arrival_time(self):
        config = self.CONFIG
        net = Network(Simulator(), config, rng=np.random.default_rng(11))
        returned, arrivals = self._drive(net)

        twin = np.random.default_rng(11)
        draws = payload = 0
        expected_returned, expected_arrivals = {}, {}
        for round_ in range(self.ROUNDS):
            now = round_ * self.SPACING
            for member in range(payload, payload + self.FAN_OUT + 2):
                draws += 1
                kept = twin.random() >= config.loss_probability
                expected_returned[member] = kept
                if kept:
                    draws += 1
                    latency = config.base_latency + float(twin.uniform(0.0, config.jitter))
                    expected_arrivals[member] = now + latency
            payload += self.FAN_OUT + 2
        assert draws > 3 * Network.DRAW_BLOCK, "the case must cross at least three refills"
        assert returned == expected_returned
        assert arrivals == expected_arrivals  # exact floats: jitter * u is uniform(0, jitter)
        stats = net.stats()
        assert stats["messages_sent"] == payload
        assert stats["messages_delivered"] == len(arrivals)
        assert stats["messages_dropped"] == payload - len(arrivals)

    def test_tracer_stamps_and_activates_contexts_without_moving_a_draw(self):
        untraced = self._drive(Network(Simulator(), self.CONFIG, rng=np.random.default_rng(5)))

        sim = Simulator()
        net = Network(sim, self.CONFIG, rng=np.random.default_rng(5))
        tracer = Tracer(clock=lambda: sim.now)
        net.use_observability(SimpleNamespace(tracer=tracer, registry=None))
        expected_ctx, sent, active_at_delivery = {}, [], {}

        def prepare(round_, messages):
            # The chain executing at send time stamps every message that is
            # not already stamped (every third one is, and keeps its context).
            tracer.current = (round_ + 1, 1)
            for message in messages:
                if message.payload % 3 == 0:
                    message.trace_ctx = (9000 + message.payload, 2)
                expected_ctx[message.payload] = message.trace_ctx or tracer.current
            sent.extend(messages)

        def on_receive(message):
            active_at_delivery[message.payload] = tracer.current

        traced = self._drive(net, prepare, on_receive)
        assert traced == untraced
        assert {message.payload: message.trace_ctx for message in sent} == expected_ctx
        arrived = traced[1]
        assert active_at_delivery == {payload: expected_ctx[payload] for payload in arrived}
        assert tracer.current == (self.ROUNDS, 1)  # restored after every delivery


class TestMulticast:
    def test_publish_reaches_all_subscribers_except_sender(self, sim, network):
        inboxes = {name: [] for name in ("a", "b", "c")}
        for name in inboxes:
            network.register(name, inboxes[name].append)
        group = MulticastGroup(network, "heartbeats")
        for name in inboxes:
            group.subscribe(name)
        fanout = group.publish("a", MessageType.GL_HEARTBEAT, payload={"gl": "a"})
        sim.run()
        assert fanout == 2
        assert len(inboxes["a"]) == 0
        assert len(inboxes["b"]) == 1
        assert len(inboxes["c"]) == 1

    def test_subscribe_unsubscribe_idempotent(self, network):
        group = MulticastGroup(network, "g")
        group.subscribe("x")
        group.subscribe("x")
        assert len(group) == 1
        group.unsubscribe("x")
        group.unsubscribe("x")
        assert len(group) == 0

    def test_unsubscribed_endpoint_not_reached(self, sim, network):
        inbox = []
        network.register("a", lambda m: None)
        network.register("b", inbox.append)
        group = MulticastGroup(network, "g")
        group.subscribe("b")
        group.unsubscribe("b")
        group.publish("a", MessageType.GL_HEARTBEAT)
        sim.run()
        assert inbox == []

    def test_registry_caches_groups(self, sim, network):
        registry = MulticastRegistry(network)
        assert registry.group("x") is registry.group("x")

    def test_contains(self, network):
        group = MulticastGroup(network, "g")
        group.subscribe("member")
        assert "member" in group
        assert "stranger" not in group


class TestRpc:
    def test_round_trip_call(self, sim, network):
        server = RpcChannel(network, "server")
        client = RpcChannel(network, "client")
        network.register("server", server.handle_message)
        network.register("client", client.handle_message)
        server.register_operation("add", lambda a, b: a + b)

        results = []
        client.call("server", "add", kwargs={"a": 2, "b": 3}, on_reply=results.append)
        sim.run()
        assert results == [5]

    def test_unknown_operation_reports_error(self, sim, network):
        server = RpcChannel(network, "server")
        client = RpcChannel(network, "client")
        network.register("server", server.handle_message)
        network.register("client", client.handle_message)
        errors = []
        client.call("server", "nope", on_error=errors.append)
        sim.run()
        assert len(errors) == 1
        assert "unknown operation" in errors[0]

    def test_handler_exception_travels_back_as_error(self, sim, network):
        server = RpcChannel(network, "server")
        client = RpcChannel(network, "client")
        network.register("server", server.handle_message)
        network.register("client", client.handle_message)

        def explode():
            raise RuntimeError("boom")

        server.register_operation("explode", explode)
        errors = []
        client.call("server", "explode", on_error=errors.append)
        sim.run()
        assert errors and "boom" in errors[0]

    def test_timeout_fires_when_server_unreachable(self, sim, network):
        client = RpcChannel(network, "client")
        network.register("client", client.handle_message)
        timeouts = []
        client.call("ghost", "op", on_timeout=lambda: timeouts.append(True), timeout=2.0)
        sim.run()
        assert timeouts == [True]
        # The timeout drops the call record.
        assert not client._pending

    def test_deferred_reply_via_event(self, sim, network):
        server = RpcChannel(network, "server")
        client = RpcChannel(network, "client")
        network.register("server", server.handle_message)
        network.register("client", client.handle_message)

        def slow_operation():
            event = sim.event()
            sim.schedule(5.0, lambda: sim.trigger(event, "late-result"))
            return event

        server.register_operation("slow", slow_operation)
        results = []
        client.call("server", "slow", on_reply=results.append, timeout=10.0)
        sim.run()
        assert results == ["late-result"]

    def test_duplicate_operation_registration_rejected(self, network):
        server = RpcChannel(network, "server")
        server.register_operation("op", lambda: 1)
        with pytest.raises(RpcError):
            server.register_operation("op", lambda: 2)

    def test_cancel_all_drops_pending_calls(self, sim, network):
        client = RpcChannel(network, "client")
        network.register("client", client.handle_message)
        outcomes = []
        client.call("ghost", "op", on_timeout=lambda: outcomes.append("timeout"), timeout=5.0)
        client.cancel_all()
        sim.run()
        assert outcomes == []
        assert not client._pending

    def test_exactly_one_callback_per_call(self, sim, network):
        server = RpcChannel(network, "server")
        client = RpcChannel(network, "client")
        network.register("server", server.handle_message)
        network.register("client", client.handle_message)
        server.register_operation("ping", lambda: "pong")
        outcomes = []
        client.call(
            "server",
            "ping",
            on_reply=lambda r: outcomes.append(("reply", r)),
            on_error=lambda e: outcomes.append(("error", e)),
            on_timeout=lambda: outcomes.append(("timeout", None)),
            timeout=30.0,
        )
        sim.run()
        assert outcomes == [("reply", "pong")]
