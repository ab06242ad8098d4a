"""Request/response RPC on top of the simulated transport.

Snooze's components expose RESTful services; in the reproduction the
equivalent is a thin RPC layer: a caller sends an ``RPC_REQUEST`` carrying an
operation name and arguments, the callee's registered operation handler runs
and its return value travels back in an ``RPC_REPLY``.  Calls carry a timeout
so callers can survive crashed callees (e.g. the Group Leader probing a failed
Group Manager during dispatching).

Because the whole simulation is single-threaded, RPC completion is delivered
via callbacks rather than blocking: ``call(..., on_reply=..., on_timeout=...)``.
The hierarchy code is written in this continuation style throughout.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

from repro.network.message import Message, MessageType
from repro.network.transport import Network
from repro.simulation.batch import DeadlineTable
from repro.simulation.engine import Event


#: Seconds a call waits for its reply unless the caller passes another timeout.
RPC_TIMEOUT = 5.0


class RpcError(RuntimeError):
    """Raised locally for invalid RPC usage (unknown operation, double completion)."""


class RpcTimeout(RuntimeError):
    """Passed to ``on_timeout`` callbacks when a call expires without a reply."""


class RpcChannel:
    """Per-component RPC endpoint: dispatches incoming requests, tracks outgoing calls."""

    _correlation = itertools.count(1)

    def __init__(self, network: Network, owner_name: str) -> None:
        self.network = network
        self.sim = network.sim
        self.owner_name = owner_name
        self._operations: Dict[str, Callable[..., Any]] = {}
        self._pending: Dict[int, dict] = {}
        self._timeout_table: Optional[DeadlineTable] = None

    # -------------------------------------------------------------- serve side
    def register_operation(self, name: str, handler: Callable[..., Any]) -> None:
        """Expose ``handler(**kwargs)`` under operation ``name``."""
        if name in self._operations:
            raise RpcError(f"operation {name!r} already registered on {self.owner_name}")
        self._operations[name] = handler

    def handle_message(self, message: Message) -> bool:
        """Process an RPC message; returns True if it was consumed.

        Component message handlers call this first and fall through to their
        own protocol handling when it returns False.
        """
        if message.msg_type is MessageType.RPC_REQUEST:
            self._serve(message)
            return True
        if message.msg_type is MessageType.RPC_REPLY:
            self._complete(message)
            return True
        return False

    def _serve(self, message: Message) -> None:
        operation = message.payload.get("operation")
        kwargs = message.payload.get("kwargs", {})
        handler = self._operations.get(operation)
        if handler is None:
            reply_payload = {"ok": False, "error": f"unknown operation {operation!r}"}
        else:
            try:
                result = handler(**kwargs)
            except Exception as exc:  # deliberate: faults travel back to the caller
                reply_payload = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            else:
                if isinstance(result, Event):
                    # Deferred reply: the handler needs to wait for downstream
                    # work (e.g. a Group Manager probing its Local Controllers)
                    # before it can answer.  The reply is sent when the event
                    # is triggered with the result value.
                    result.add_listener(
                        lambda event, ok: self.network.send(
                            message.reply(
                                MessageType.RPC_REPLY,
                                {"ok": ok, "result": event.value}
                                if ok
                                else {"ok": False, "error": "deferred reply cancelled"},
                            )
                        )
                    )
                    return
                reply_payload = {"ok": True, "result": result}
        self.network.send(message.reply(MessageType.RPC_REPLY, reply_payload))

    # --------------------------------------------------------------- call side
    def call(
        self,
        recipient: str,
        operation: str,
        kwargs: Optional[dict] = None,
        on_reply: Optional[Callable[[Any], None]] = None,
        on_error: Optional[Callable[[str], None]] = None,
        on_timeout: Optional[Callable[[], None]] = None,
        timeout: float = RPC_TIMEOUT,
        trace_ctx: Optional[tuple] = None,
    ) -> int:
        """Invoke ``operation`` on ``recipient``; returns the correlation id.

        Exactly one of the three callbacks fires per call: ``on_reply(result)``
        on success, ``on_error(message)`` if the remote handler raised or the
        operation is unknown, ``on_timeout()`` if no reply arrives in time.

        ``trace_ctx`` pins the request to a specific causal span; without it
        the transport stamps whatever context is active at send time, which is
        wrong for calls issued outside the originating chain (retries after a
        timeout, wake-up continuations).
        """
        correlation_id = next(self._correlation)
        message = Message(
            msg_type=MessageType.RPC_REQUEST,
            sender=self.owner_name,
            recipient=recipient,
            payload={"operation": operation, "kwargs": kwargs or {}},
            correlation_id=correlation_id,
            trace_ctx=trace_ctx,
        )
        record = {
            "on_reply": on_reply,
            "on_error": on_error,
            "on_timeout": on_timeout,
            "timer": None,
        }
        self._pending[correlation_id] = record
        if timeout is not None and timeout > 0:
            # A pooled deadline instead of a per-call heap event: almost every
            # call completes (reply cancels the timer), and per-event Timeout
            # cancellation leaves a tombstone in the event heap until the
            # deadline passes -- at fleet scale thousands of them at any
            # instant, growing every heap operation's log factor.
            record["timer"] = self._timeouts().arm(timeout, self._expire, correlation_id)
        self.network.send(message)
        return correlation_id

    def _timeouts(self) -> DeadlineTable:
        table = self._timeout_table
        if table is None:
            table = self._timeout_table = DeadlineTable.shared(self.sim, "rpc-timeouts")
        return table

    def _expire(self, correlation_id: int) -> None:
        record = self._pending.pop(correlation_id, None)
        if record is None:
            return
        if record["timer"] is not None:
            record["timer"].release()
        if record["on_timeout"] is not None:
            record["on_timeout"]()

    def _complete(self, message: Message) -> None:
        record = self._pending.pop(message.correlation_id, None)
        if record is None:
            # Late reply after timeout: ignore (the caller already moved on).
            return
        if record["timer"] is not None:
            record["timer"].release()
        payload = message.payload or {}
        if payload.get("ok"):
            if record["on_reply"] is not None:
                record["on_reply"](payload.get("result"))
        else:
            if record["on_error"] is not None:
                record["on_error"](payload.get("error", "unknown error"))

    # ------------------------------------------------------------------ misc
    def cancel_all(self) -> None:
        """Drop all outstanding calls without firing callbacks (owner crashed)."""
        for record in self._pending.values():
            if record["timer"] is not None:
                record["timer"].release()
        self._pending.clear()
