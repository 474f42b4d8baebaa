"""Quorum group formation and per-write selection schemes.

Two schemes place a write's segments onto candidate quorum groups, both
drawing without replacement so no group ever receives two segments of
the same write:

* variable-count: exactly one group per real segment;
* fixed-count: always the maximum K groups, the tail beyond the real
  segments carrying fake segments so the number of touched groups is
  independent of the write size.

A selection is the list of chosen group indices, in segment order: entry
i is segment i's group, and under the fixed-count scheme the entries
from ``n_real`` on carry the fakes. A fake's STORE holds uniformly random
unit and digest bytes (see ``quorum.backend``), which a replica without
the key cannot tell from a real segment's.
"""

from __future__ import annotations

import enum
import random

from ..errors import InsufficientQuorums, InsufficientReplicas

GROUP_SIZE = 3


class SelectionScheme(enum.Enum):
    VNOS = "vnos"  # variable number of segments per write
    FNOS = "fnos"  # fixed number of segments per write

    @classmethod
    def parse(cls, name: str) -> "SelectionScheme":
        return cls(name.lower())


def form_quorums(active, rng: random.Random) -> list[tuple]:
    """Partition active replicas into disjoint groups of 3.

    floor(n/3) groups; leftovers stay unassigned. Deterministic for a
    given rng state (members are sorted before shuffling).
    """
    members = sorted(active)
    if len(members) < GROUP_SIZE:
        raise InsufficientReplicas(f"{len(members)} active replicas, need {GROUP_SIZE}")
    rng.shuffle(members)
    n_groups = len(members) // GROUP_SIZE
    return [tuple(members[i * GROUP_SIZE : (i + 1) * GROUP_SIZE]) for i in range(n_groups)]


def select_quorums(
    scheme: SelectionScheme,
    n_real: int,
    quorums: list,
    k_max: int,
    rng: random.Random,
) -> list[int]:
    """Pick destination groups for one write, without replacement.

    Entry i of the result is the index into ``quorums`` of segment i's
    group; under the fixed-count scheme entries from ``n_real`` on carry
    fakes.
    """
    n = len(quorums)
    if n_real > k_max:
        raise InsufficientQuorums(f"{n_real} real segments exceed the maximum {k_max} per write")
    if scheme is SelectionScheme.VNOS:
        if n_real > n:
            raise InsufficientQuorums(f"write needs {n_real} quorums, only {n} candidates")
        return rng.sample(range(n), n_real)
    if k_max > n:
        raise InsufficientQuorums(f"fixed count {k_max} exceeds the {n} candidate quorums")
    return rng.sample(range(n), k_max)
