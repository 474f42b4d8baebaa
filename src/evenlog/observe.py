"""Storage observation shim.

Everything a storage- or network-level adversary could see goes through
a trace: one entry per write or read, with only its size and a channel.
The leakage tests and the benchmark byte accounting both read this
trace, so byte counts are exact rather than sampled.
"""

from __future__ import annotations

from collections import Counter, defaultdict


class StorageTrace:
    """Counts observable writes and reads by (channel, size)."""

    JOURNAL = "journal"
    METADATA = "metadata"
    REPLICA = "replica"
    REPLICA_READ = "replica-read"

    def __init__(self):
        self._sizes: defaultdict[str, Counter] = defaultdict(Counter)

    def record(self, channel: str, size: int, count: int = 1) -> None:
        self._sizes[channel][size] += count

    def sizes(self, channel: str) -> Counter:
        """Multiset of observed write sizes on a channel."""
        return Counter(self._sizes.get(channel, Counter()))

    def distinct_sizes(self, channel: str) -> set[int]:
        return {s for s, n in self._sizes.get(channel, Counter()).items() if n}

    def write_count(self, channel: str) -> int:
        return sum(self._sizes.get(channel, Counter()).values())

    def total_bytes(self, channel: str) -> int:
        return sum(s * n for s, n in self._sizes.get(channel, Counter()).items())
