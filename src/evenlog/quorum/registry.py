"""Replica registry with lease-style liveness, on a logical clock.

Members renew their lease by heartbeating; a member that has not been
heard from for more than 90 logical seconds is taken out of the active
set. Time never advances on its own: callers pass logical timestamps in.
"""

from __future__ import annotations

from ..errors import Unregistered

EVICTION_HORIZON = 90


class Registry:
    def __init__(self, eviction_horizon: int = EVICTION_HORIZON):
        self.eviction_horizon = eviction_horizon
        self._leases: dict[int | str, float] = {}

    def register(self, member_id, t: float = 0) -> None:
        self._leases[member_id] = t

    def deregister(self, member_id) -> None:
        self._leases.pop(member_id, None)

    def heartbeat(self, member_id, t: float) -> None:
        if member_id not in self._leases:
            raise Unregistered(f"{member_id!r} never registered")
        self._leases[member_id] = t

    def is_active(self, member_id, t: float) -> bool:
        lease = self._leases.get(member_id)
        return lease is not None and t - lease <= self.eviction_horizon

    def list_active(self, t: float) -> set:
        return {m for m, lease in self._leases.items() if t - lease <= self.eviction_horizon}
