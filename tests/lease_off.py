"""The lease-off oracle: every heartbeat is a message.

Inside :func:`leases_off` no heartbeat lease is granted and no multicast
member pauses, so every GM <-> LC heartbeat restarts its failure detector on
delivery and every Group Leader heartbeat reaches every subscriber's handler
-- the message path that stays in ``src`` as the fallback of both.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.network.fanout import LeaseSet
from repro.network.multicast import MulticastGroup


@contextmanager
def leases_off():
    """Deployments run inside the block send every heartbeat as a message."""
    grant, pause = LeaseSet.grant, MulticastGroup.pause
    LeaseSet.grant = lambda *args, **kwargs: False
    MulticastGroup.pause = lambda *args, **kwargs: None
    try:
        yield
    finally:
        LeaseSet.grant, MulticastGroup.pause = grant, pause
