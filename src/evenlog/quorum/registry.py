"""Replica registry with lease-style liveness, on a logical clock.

``register(member, t)`` stamps a member's lease at logical time ``t``;
calling it again renews the lease. ``list_active(t)`` returns the
members stamped no more than ``EVICTION_HORIZON`` logical seconds
before ``t``. Time never advances on its own: callers pass logical
timestamps in. ``QuorumBackend`` forms its quorum groups once, from
``list_active(0.0)``.
"""

from __future__ import annotations

EVICTION_HORIZON = 90


class Registry:
    def __init__(self):
        self._leases: dict[int | str, float] = {}

    def register(self, member_id, t: float = 0) -> None:
        self._leases[member_id] = t

    def list_active(self, t: float) -> set:
        return {m for m, lease in self._leases.items() if t - lease <= EVICTION_HORIZON}
