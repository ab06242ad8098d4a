"""Leader election recipe on the coordination service.

This is the standard ZooKeeper election recipe Snooze uses for Group Leader
election (paper Section II.D):

1. every candidate creates an *ephemeral sequential* node under the election
   root, carrying its identity as data;
2. the candidate owning the node with the lowest sequence number is the
   leader;
3. every other candidate watches the node immediately preceding its own and
   re-evaluates when that node disappears (avoiding the herd effect);
4. when a leader's session expires (it crashed / was partitioned), its
   ephemeral node vanishes and the next candidate in line is promoted.

Candidates are notified through ``on_elected`` / ``on_leader_changed``
callbacks; the Group Manager component switches itself into Group Leader mode
when ``on_elected`` fires, exactly as described in the paper ("When an
existing GM becomes the new leader it switches to GL mode").
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.coordination.znodes import CoordinationService, NoNodeError, Session


class LeaderElection:
    """One candidate's participation in an election."""

    def __init__(
        self,
        service: CoordinationService,
        candidate_id: str,
        election_root: str = "/snooze/election",
        session: Optional[Session] = None,
        session_timeout: Optional[float] = None,
        on_elected: Optional[Callable[[], None]] = None,
        on_leader_changed: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.service = service
        self.candidate_id = candidate_id
        self.election_root = election_root
        self.session = session or service.create_session(candidate_id, timeout=session_timeout)
        self.on_elected = on_elected
        self.on_leader_changed = on_leader_changed
        self._my_path: Optional[str] = None
        self._withdrawn = False
        self._elected = False

    # ------------------------------------------------------------------ join
    def join(self) -> str:
        """Enter the election; returns the created ephemeral sequential path."""
        if self._my_path is not None:
            return self._my_path
        self._withdrawn = False
        self._my_path = self.service.create(
            f"{self.election_root}/candidate-",
            data=self.candidate_id,
            session=self.session,
            ephemeral=True,
            sequential=True,
        )
        self._evaluate()
        return self._my_path

    def withdraw(self) -> None:
        """Leave the election voluntarily (component shutting down)."""
        self._withdrawn = True
        self._elected = False
        if self._my_path is not None and self.service.exists(self._my_path):
            self.service.delete(self._my_path)
        self._my_path = None

    def keep_alive(self) -> None:
        """Refresh the candidate's coordination session (called from its heartbeat loop)."""
        if self.service.session_alive(self.session):
            self.service.touch_session(self.session)

    # ------------------------------------------------------------- evaluation
    @property
    def is_leader(self) -> bool:
        """Elected, and the candidate's ephemeral node still exists.

        A closed or expired session deletes that node without notifying its
        owner (the leader watches no predecessor), so this is a live check:
        a flag cached at election time would keep a deposed leader in office.
        """
        return self._elected and self.service.exists(self._my_path)

    def current_leader(self) -> Optional[str]:
        """Identity of the current leader, or None if the election is empty."""
        ordered = self._ordered_candidates()
        if not ordered:
            return None
        try:
            return self.service.get_data(f"{self.election_root}/{ordered[0]}")
        except NoNodeError:
            return None

    def _ordered_candidates(self) -> list[str]:
        try:
            children = self.service.get_children(self.election_root)
        except NoNodeError:
            return []
        return sorted(children)

    def _evaluate(self, _path: str = "") -> None:
        """(Re-)determine leadership after joining or after a predecessor vanished."""
        if self._withdrawn or self._my_path is None:
            return
        if not self.service.exists(self._my_path):
            # Our session expired (we were partitioned); we are no longer a candidate.
            self._elected = False
            self._my_path = None
            return
        ordered = self._ordered_candidates()
        my_name = self._my_path.rsplit("/", 1)[1]
        position = ordered.index(my_name)
        if position == 0:
            if not self._elected:
                self._elected = True
                if self.on_elected is not None:
                    self.on_elected()
        else:
            self._elected = False
            predecessor = ordered[position - 1]
            self.service.watch_delete(f"{self.election_root}/{predecessor}", self._evaluate)
            if self.on_leader_changed is not None:
                leader = self.current_leader()
                if leader is not None:
                    self.on_leader_changed(leader)

    def __repr__(self) -> str:
        role = "leader" if self.is_leader else "candidate"
        return f"<LeaderElection {self.candidate_id} {role}>"
