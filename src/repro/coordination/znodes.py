"""A ZooKeeper-like znode store with sessions, ephemeral nodes and watches.

Only the subset of ZooKeeper semantics that the leader-election recipe (and
therefore Snooze) depends on is implemented:

* a hierarchical namespace of znodes addressed by slash-separated paths;
* **persistent** and **ephemeral** nodes -- ephemeral nodes are deleted when
  the owning session expires (the owning component crashed or lost
  connectivity);
* **sequential** nodes -- the service appends a monotonically increasing,
  zero-padded counter to the requested path;
* **watches** -- one-shot callbacks fired when a watched node is deleted or
  created, which is how a candidate learns its predecessor disappeared;
* **sessions** with a timeout refreshed by heartbeats from the client.

The store runs inside the simulation (deliveries and expirations are simulator
events), so a network partition or component crash exercises exactly the code
path the paper describes: "When a GL fails, its heartbeats are lost and the
leader election procedure is restarted by one of the GMs."
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.simulation.batch import DeadlineHandle, DeadlineTable
from repro.simulation.engine import Simulator


class CoordinationError(RuntimeError):
    """Base error for coordination-service misuse."""


class NoNodeError(CoordinationError):
    """Raised when an operation references a path that does not exist."""


class NodeExistsError(CoordinationError):
    """Raised when creating a non-sequential node at an existing path."""


@dataclass
class ZNode:
    """A node in the coordination namespace."""

    path: str
    data: object = None
    ephemeral_owner: Optional[int] = None
    sequence: Optional[int] = None
    created_at: float = 0.0


@dataclass
class Session:
    """A client session; its expiry removes all ephemeral nodes it owns."""

    session_id: int
    owner_name: str
    timeout: float
    _timer: Optional[DeadlineHandle] = field(default=None, repr=False)
    expired: bool = False


class CoordinationService:
    """The in-simulation ZooKeeper substitute."""

    SERVICE_NAME = "coordination"

    def __init__(self, sim: Simulator, default_session_timeout: float = 10.0) -> None:
        if default_session_timeout <= 0:
            raise CoordinationError("session timeout must be positive")
        self.sim = sim
        self.default_session_timeout = float(default_session_timeout)
        self._nodes: Dict[str, ZNode] = {"/": ZNode(path="/")}
        self._sessions: Dict[int, Session] = {}
        self._session_counter = itertools.count(1)
        self._sequence_counters: Dict[str, itertools.count] = {}
        # Watches: path -> list of (callback, event_kind) where kind in {"deleted", "created", "children"}.
        self._delete_watches: Dict[str, List[Callable[[str], None]]] = {}
        self._create_watches: Dict[str, List[Callable[[str], None]]] = {}
        self._children_watches: Dict[str, List[Callable[[str], None]]] = {}
        if not sim.has_service(self.SERVICE_NAME):
            sim.register_service(self.SERVICE_NAME, self)

    # --------------------------------------------------------------- sessions
    def create_session(self, owner_name: str, timeout: Optional[float] = None) -> Session:
        """Open a session for ``owner_name``; must be kept alive with :meth:`touch_session`."""
        session = Session(
            session_id=next(self._session_counter),
            owner_name=owner_name,
            timeout=float(timeout) if timeout is not None else self.default_session_timeout,
        )
        # Pooled deadline: sessions are refreshed on every keeper heartbeat,
        # and per-refresh Timeout cancellation would leave one heap tombstone
        # per touch until the stale deadline passes.
        session._timer = DeadlineTable.shared(self.sim, "zk-sessions").arm(
            session.timeout, self._expire_session, session.session_id
        )
        self._sessions[session.session_id] = session
        return session

    def touch_session(self, session: Session) -> None:
        """Refresh the session's expiry deadline (the client is alive)."""
        if session.expired:
            raise CoordinationError(f"session {session.session_id} already expired")
        session._timer.restart()

    def close_session(self, session: Session) -> None:
        """Close a session cleanly, removing its ephemeral nodes immediately."""
        self._expire_session(session.session_id)

    def session_alive(self, session: Session) -> bool:
        """True while the session has not expired or been closed."""
        return not session.expired and session.session_id in self._sessions

    def _expire_session(self, session_id: int) -> None:
        session = self._sessions.pop(session_id, None)
        if session is None:
            return
        session.expired = True
        if session._timer is not None:
            session._timer.release()
            session._timer = None
        doomed = [
            path for path, node in self._nodes.items() if node.ephemeral_owner == session_id
        ]
        for path in doomed:
            self._delete_node(path)

    # ------------------------------------------------------------------ nodes
    def create(
        self,
        path: str,
        data: object = None,
        session: Optional[Session] = None,
        ephemeral: bool = False,
        sequential: bool = False,
    ) -> str:
        """Create a znode; returns the actual path (with the sequence suffix if sequential)."""
        path = self._normalize(path)
        if ephemeral:
            if session is None:
                raise CoordinationError("ephemeral nodes require a session")
            if not self.session_alive(session):
                raise CoordinationError("cannot create ephemeral node on an expired session")
        parent = path.rsplit("/", 1)[0] or "/"
        if parent not in self._nodes:
            # ZooKeeper requires parents to exist; Snooze always creates its
            # election root first, and we auto-create intermediate persistent
            # parents to keep call sites simple.
            self._ensure_parents(parent)
        if sequential:
            counter = self._sequence_counters.setdefault(path, itertools.count())
            sequence = next(counter)
            actual_path = f"{path}{sequence:010d}"
        else:
            sequence = None
            actual_path = path
            if actual_path in self._nodes:
                raise NodeExistsError(f"node {actual_path} already exists")
        self._nodes[actual_path] = ZNode(
            path=actual_path,
            data=data,
            ephemeral_owner=session.session_id if ephemeral else None,
            sequence=sequence,
            created_at=self.sim.now,
        )
        self._fire(self._create_watches, actual_path)
        self._fire(self._children_watches, parent)
        return actual_path

    def _ensure_parents(self, path: str) -> None:
        parts = [part for part in path.split("/") if part]
        current = ""
        for part in parts:
            current = f"{current}/{part}"
            if current not in self._nodes:
                self._nodes[current] = ZNode(path=current, created_at=self.sim.now)

    def exists(self, path: str) -> bool:
        """True if a node exists at ``path``."""
        return self._normalize(path) in self._nodes

    def get_data(self, path: str) -> object:
        """Return a node's data; raises :class:`NoNodeError` if absent."""
        node = self._nodes.get(self._normalize(path))
        if node is None:
            raise NoNodeError(path)
        return node.data

    def set_data(self, path: str, data: object) -> None:
        """Replace a node's data; raises :class:`NoNodeError` if absent."""
        node = self._nodes.get(self._normalize(path))
        if node is None:
            raise NoNodeError(path)
        node.data = data

    def delete(self, path: str) -> None:
        """Delete a node; raises :class:`NoNodeError` if absent."""
        path = self._normalize(path)
        if path not in self._nodes:
            raise NoNodeError(path)
        self._delete_node(path)

    def _delete_node(self, path: str) -> None:
        self._nodes.pop(path, None)
        parent = path.rsplit("/", 1)[0] or "/"
        self._fire(self._delete_watches, path)
        self._fire(self._children_watches, parent)

    def get_children(self, path: str) -> List[str]:
        """Direct children names of ``path``, sorted (as ZooKeeper returns them)."""
        path = self._normalize(path)
        if path not in self._nodes:
            raise NoNodeError(path)
        prefix = path if path.endswith("/") else path + "/"
        children = set()
        for candidate in self._nodes:
            if candidate != path and candidate.startswith(prefix):
                remainder = candidate[len(prefix):]
                children.add(remainder.split("/", 1)[0])
        return sorted(children)

    # ---------------------------------------------------------------- watches
    def watch_delete(self, path: str, callback: Callable[[str], None]) -> None:
        """One-shot callback when ``path`` is deleted (fires immediately if absent)."""
        path = self._normalize(path)
        if path not in self._nodes:
            self.sim.schedule(0.0, callback, path)
            return
        self._delete_watches.setdefault(path, []).append(callback)

    def watch_create(self, path: str, callback: Callable[[str], None]) -> None:
        """One-shot callback when ``path`` is created (fires immediately if present)."""
        path = self._normalize(path)
        if path in self._nodes:
            self.sim.schedule(0.0, callback, path)
            return
        self._create_watches.setdefault(path, []).append(callback)

    def watch_children(self, path: str, callback: Callable[[str], None]) -> None:
        """One-shot callback when the children of ``path`` change."""
        self._children_watches.setdefault(self._normalize(path), []).append(callback)

    def _fire(self, registry: Dict[str, List[Callable[[str], None]]], path: str) -> None:
        callbacks = registry.pop(path, [])
        for callback in callbacks:
            # Watches are delivered asynchronously, as in ZooKeeper.
            self.sim.schedule(0.0, callback, path)

    # ------------------------------------------------------------------ misc
    @staticmethod
    def _normalize(path: str) -> str:
        if not path.startswith("/"):
            raise CoordinationError(f"paths must be absolute, got {path!r}")
        if len(path) > 1 and path.endswith("/"):
            path = path.rstrip("/")
        return path

    def node_count(self) -> int:
        """Number of znodes currently stored (excluding the root)."""
        return len(self._nodes) - 1
