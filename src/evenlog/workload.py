"""Synthetic write workloads and planted attack corpora.

Benchmark writes model a tuple of 10 attributes whose sizes are drawn
from a distribution over 1..100 bytes (uniform, zipf, or constant), so
the maximum write payload is 1000 bytes; both numbers are constants, not
spec fields. Only sizes matter to anything measured here; payload
content is random bytes.

The attack-side helpers build labeled size traces with planted
structure, standing in for the real-world corpora (customer records
keyed by a city-name length, schema-per-document medical inserts) that
motivate the inference pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec

ATTRIBUTES_PER_TUPLE = 10
MAX_ATTRIBUTE_SIZE = 100


@dataclass
class WorkloadSpec:
    distribution: str                 # uniform | zipf | constant
    op_count: int
    seed: int = 0
    alpha: float | None = None        # zipf skew
    constant: int | None = None       # constant attribute size

    def validate(self) -> "WorkloadSpec":
        if self.distribution not in ("uniform", "zipf", "constant"):
            raise InvalidSpec(f"unknown distribution {self.distribution!r}")
        if self.op_count <= 0:
            raise InvalidSpec("op_count must be positive")
        if self.distribution == "zipf":
            if self.alpha is None or self.alpha <= 0:
                raise InvalidSpec(f"zipf needs alpha > 0, got {self.alpha}")
        if self.distribution == "constant":
            if self.constant is None or not (1 <= self.constant <= MAX_ATTRIBUTE_SIZE):
                raise InvalidSpec(f"constant size must be in 1..{MAX_ATTRIBUTE_SIZE}, got {self.constant}")
        return self

    @classmethod
    def parse(cls, dist: str, ops: int, seed: int = 0) -> "WorkloadSpec":
        """Parse a CLI-style distribution string: uniform | zipf:A | constant:C."""
        name, _, arg = dist.partition(":")
        spec = cls(distribution=name, op_count=ops, seed=seed)
        if name == "zipf":
            try:
                spec.alpha = float(arg)
            except ValueError:
                raise InvalidSpec(f"bad zipf parameter {arg!r}") from None
        elif name == "constant":
            try:
                spec.constant = int(arg)
            except ValueError:
                raise InvalidSpec(f"bad constant size {arg!r}") from None
        return spec.validate()


def attribute_sizes(spec: WorkloadSpec, rng: np.random.Generator) -> np.ndarray:
    """(op_count, 10) matrix of attribute sizes in 1..100."""
    shape = (spec.op_count, ATTRIBUTES_PER_TUPLE)
    if spec.distribution == "uniform":
        return rng.integers(1, MAX_ATTRIBUTE_SIZE + 1, size=shape)
    if spec.distribution == "constant":
        return np.full(shape, spec.constant, dtype=np.int64)
    support = np.arange(1, MAX_ATTRIBUTE_SIZE + 1)
    pmf = support.astype(float) ** -spec.alpha
    pmf /= pmf.sum()
    return rng.choice(support, size=shape, p=pmf)


def payload_sizes(spec: WorkloadSpec) -> np.ndarray:
    """Per-write payload sizes: the sum of the tuple's attribute sizes."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    return attribute_sizes(spec, rng).sum(axis=1)


def generate(spec: WorkloadSpec) -> list[bytes]:
    """Materialize the write payloads (random content, planned sizes)."""
    sizes = payload_sizes(spec)
    rng = np.random.default_rng(spec.seed + 1)
    pool = rng.bytes(int(sizes.max()))
    return [pool[: int(n)] for n in sizes]


# --- planted attack corpora ------------------------------------------------------


@dataclass(frozen=True)
class LengthGroup:
    """True lengths in [lo, hi] all produce the same observed WAL size."""

    lo: int
    hi: int
    wal_size: int


def planted_length_trace(groups: list[LengthGroup], per_group: int, seed: int = 0,
                         confusion: float = 0.0) -> list[tuple[int, int]]:
    """Labeled (true_len, wal_size) pairs with planted group structure.

    ``confusion`` is the fraction of pairs whose observed size is swapped
    with another group's, for building imperfect training sets; 0 gives
    a perfectly separable corpus.
    """
    if not 0 <= confusion <= 1:
        raise InvalidSpec(f"confusion {confusion} is not a fraction in [0, 1]")
    for g in groups:
        if g.lo > g.hi or per_group < g.hi - g.lo + 1:
            raise InvalidSpec(f"group {g.lo}-{g.hi}: need lo <= hi and per_group >= {g.hi - g.lo + 1}, got {per_group}")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[int, int]] = []
    for gi, g in enumerate(groups):
        lengths = rng.integers(g.lo, g.hi + 1, size=per_group)
        # every length in the group must appear so interval edges are learnable
        lengths[: g.hi - g.lo + 1] = np.arange(g.lo, g.hi + 1)
        for true_len in lengths:
            wal = g.wal_size
            if confusion and rng.random() < confusion:
                wal = groups[int(rng.integers(len(groups)))].wal_size
            pairs.append((int(true_len), wal))
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def schema_corpus(collision_plan: dict[int, int], instances_per_schema: int = 10,
                  seed: int = 0, base_size: int = 256, stride: int = 128) -> list[tuple[str, int]]:
    """(schema_id, wal_size) observations with planted mean collisions.

    ``collision_plan`` maps group size to the number of distinct mean
    sizes with exactly that many colliding schemas, e.g. {3: 2, 2: 12,
    1: 55} puts three schemas on each of two sizes, two on each of
    twelve, and gives fifty-five schemas unique sizes. Instance sizes
    jitter symmetrically around the mean so the mean stays exact.
    """
    if instances_per_schema < 1:
        raise InvalidSpec("need at least one instance per schema")
    rng = np.random.default_rng(seed)
    observations: list[tuple[str, int]] = []
    mean = base_size
    schema_no = 0
    for group_size, n_sizes in sorted(collision_plan.items(), reverse=True):
        for _ in range(n_sizes):
            for _ in range(group_size):
                name = f"schema-{schema_no:03d}"
                schema_no += 1
                sizes = np.full(instances_per_schema, mean, dtype=np.int64)
                n_jitter = instances_per_schema // 2
                if n_jitter:
                    offsets = rng.integers(1, stride // 2, size=n_jitter)
                    sizes[:n_jitter] += offsets
                    sizes[n_jitter : 2 * n_jitter] -= offsets
                observations.extend((name, int(s)) for s in sizes)
            mean += stride
    order = rng.permutation(len(observations))
    return [observations[i] for i in order]
