"""Size-leakage analysis: what write sizes tell an observer.

Two halves:

* the defender's math — closed-form posterior distributions over
  write-size groups for the two quorum-selection schemes, plus a
  Monte-Carlo simulator that drives the real selection code and
  measures the empirical posterior a single watching quorum obtains;

* the attacker's toolkit — fitting the optimal monotone mapping from
  observed WAL write sizes to true-length intervals, scoring it with
  per-size precision and recall, and the reverse size-to-schema map
  for workloads where the secret is which schema was written.

Write-size groups are 1-based: group k holds the writes that need k
segments. Under variable-count selection a write in group k touches k
of the N candidate quorums, so seeing a segment re-weights group k by
k/N and the posterior is q_k = k p_k / sum_i(i p_i) — independent of N.
Under fixed-count selection every write touches the same number of
quorums and the posterior equals the prior: observation teaches the
watcher nothing.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientTrials, InvalidConfig, InvalidPrior, NoData, UnknownSize
from .quorum.selection import SelectionScheme, select_quorums

# --- priors and closed-form posteriors ----------------------------------------


def normalize_prior(prior: Sequence[float]) -> np.ndarray:
    p = np.asarray(prior, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidPrior("prior must be a non-empty vector")
    if np.any(p < 0):
        raise InvalidPrior("prior has negative mass")
    total = p.sum()
    if total <= 0:
        raise InvalidPrior("prior sums to zero")
    return p / total


def posterior_vnos(prior: Sequence[float], n_candidates: int | None = None) -> np.ndarray:
    """Posterior over write-size groups after a quorum sees one segment,
    under variable-count selection: q_k proportional to k * p_k. The
    candidate-set size cancels; it is accepted only to check K <= N."""
    p = normalize_prior(prior)
    if n_candidates is not None and len(p) > n_candidates:
        raise InvalidConfig(f"{len(p)} groups but only {n_candidates} candidate quorums")
    weights = np.arange(1, len(p) + 1) * p
    return weights / weights.sum()


def posterior_fnos(prior: Sequence[float]) -> np.ndarray:
    """Fixed-count selection: the posterior is the prior, exactly."""
    return normalize_prior(prior)


@dataclass
class SimulationResult:
    posterior: np.ndarray         # empirical P(group k | designated quorum saw a segment)
    group_frequencies: np.ndarray  # unconditional draw frequencies (sampler sanity)
    conditioning_events: int
    trials: int


def simulate_posterior(
    prior: Sequence[float],
    scheme: SelectionScheme,
    n_candidates: int,
    trials: int = 100_000,
    seed: int = 0,
) -> SimulationResult:
    """Monte-Carlo check of the closed forms against the real selection code.

    Each trial draws a write-size group from the prior, runs
    ``select_quorums`` over ``n_candidates`` groups, and conditions on a
    fixed designated quorum (index 0; selection is symmetric) having
    received a segment, real or fake.
    """
    p = normalize_prior(prior)
    k_groups = len(p)
    if trials < 10_000:
        raise InvalidConfig(f"{trials} trials: need at least 10^4 for a meaningful posterior")
    if k_groups > n_candidates:
        raise InvalidConfig(f"{k_groups} groups but only {n_candidates} candidate quorums")
    rng = random.Random(seed)
    quorums = list(range(n_candidates))
    draws = rng.choices(range(k_groups), weights=p.tolist(), k=trials)

    drawn = np.zeros(k_groups, dtype=np.int64)
    seen = np.zeros(k_groups, dtype=np.int64)
    for group in draws:
        drawn[group] += 1
        placements = select_quorums(scheme, group + 1, quorums, k_groups, rng)
        if any(pl.index == 0 for pl in placements):
            seen[group] += 1
    events = int(seen.sum())
    if events == 0:
        raise InsufficientTrials(f"no conditioning events in {trials} trials")
    return SimulationResult(seen / events, drawn / trials, events, trials)


# --- interval mapping attack ----------------------------------------------------


@dataclass(frozen=True)
class IntervalMapping:
    """Monotone partition: WAL size i owns the interval (bounds[i], bounds[i+1]].

    ``sizes`` is ascending; ``bounds`` has one more element, starts at 0
    and ends at the largest observed length, and is nondecreasing (an
    interval may be empty on degenerate training data).
    """

    sizes: tuple[int, ...]
    bounds: tuple[int, ...]

    def __post_init__(self):
        if len(self.bounds) != len(self.sizes) + 1:
            raise ValueError("bounds must have one more element than sizes")

    def interval(self, wal_size: int) -> tuple[int, int]:
        try:
            i = self.sizes.index(wal_size)
        except ValueError:
            raise UnknownSize(f"WAL size {wal_size} not in mapping") from None
        return self.bounds[i], self.bounds[i + 1]

    def as_dict(self) -> dict:
        return {"sizes": list(self.sizes), "bounds": list(self.bounds)}

    @classmethod
    def from_dict(cls, d: dict) -> "IntervalMapping":
        return cls(tuple(d["sizes"]), tuple(d["bounds"]))


def pred(true_len: int, wal_size: int, mapping: IntervalMapping) -> int:
    """1 iff the true length falls in the interval mapped to this WAL size."""
    lo, hi = mapping.interval(wal_size)
    return 1 if lo < true_len <= hi else 0


def mapping_objective(pairs: Iterable[tuple[int, int]], mapping: IntervalMapping) -> int:
    """Number of (true_len, wal_size) pairs the mapping predicts correctly."""
    return sum(pred(r, w, mapping) for r, w in pairs)


def train_mapping(pairs: Sequence[tuple[int, int]]) -> IntervalMapping:
    """Fit the monotone interval partition maximizing correct predictions.

    Pairs are (true_len, wal_size) training observations. Candidate
    boundaries are the observed lengths (shifting a boundary between two
    observed lengths cannot change the objective); the dynamic program
    is exact over that space, and ties resolve to the smallest boundary
    values. The last bound is pinned to the largest observed length so
    the intervals cover every observed value.
    """
    if not pairs:
        raise NoData("empty training set")
    sizes = sorted({w for _, w in pairs})
    lengths = sorted({r for r, _ in pairs})
    m, t_max = len(sizes), len(lengths)
    candidates = [0] + lengths  # index 0 is the open left edge

    # cum[i][t] = training pairs with wal sizes[i] and true_len <= candidates[t]
    size_index = {w: i for i, w in enumerate(sizes)}
    length_index = {l: t for t, l in enumerate(lengths, start=1)}
    counts = np.zeros((m, t_max + 1), dtype=np.int64)
    for r, w in pairs:
        counts[size_index[w], length_index[r]] += 1
    cum = np.cumsum(counts, axis=1)

    # best[i][s] = max correct predictions from interval i on, given the
    # previous bound sits at candidate s (bounds may repeat: an empty
    # interval absorbs a WAL size the data cannot separate)
    best = np.zeros((m, t_max + 1), dtype=np.int64)
    best[m - 1, :] = cum[m - 1, t_max] - cum[m - 1, :]
    for i in range(m - 2, -1, -1):
        # value of choosing bound t for interval i: cum[i][t] - cum[i][s] + best[i+1][t]
        tail = cum[i] + best[i + 1]
        suffix_max = np.maximum.accumulate(tail[::-1])[::-1]
        best[i] = suffix_max - cum[i]

    bounds = [0]
    s = 0
    for i in range(m - 1):
        tail = cum[i] + best[i + 1]
        target = best[i, s] + cum[i, s]
        # smallest bound achieving the optimum
        s = s + int(np.argmax(tail[s:] == target))
        bounds.append(candidates[s])
    bounds.append(candidates[t_max])
    return IntervalMapping(tuple(sizes), tuple(bounds))


@dataclass
class SizeScore:
    precision: float | None  # None when no prediction was made for this size
    recall: float | None     # None when no test item lands in the interval
    predictions: int
    interval_population: int


def evaluate_mapping(pairs: Sequence[tuple[int, int]], mapping: IntervalMapping) -> dict[int, SizeScore]:
    """Per-WAL-size precision and recall of a trained mapping on test pairs.

    Precision for size w: correct predictions among test items observed
    with WAL size w. Recall for w's interval: correct predictions
    landing in the interval over all test items whose true length lies
    in it. Empty denominators are reported as None, not zero.
    """
    if not pairs:
        raise NoData("empty test set")
    scores: dict[int, SizeScore] = {}
    for w in mapping.sizes:
        lo, hi = mapping.interval(w)
        predicted = [(r, wal) for r, wal in pairs if wal == w]
        correct = sum(1 for r, _ in predicted if lo < r <= hi)
        in_interval = sum(1 for r, _ in pairs if lo < r <= hi)
        scores[w] = SizeScore(
            precision=correct / len(predicted) if predicted else None,
            recall=correct / in_interval if in_interval else None,
            predictions=len(predicted),
            interval_population=in_interval,
        )
    return scores


# --- reverse size map (schema inference) ------------------------------------------


@dataclass
class ReverseSizeMap:
    schema_sizes: dict            # schema id -> mean WAL size (exact Fraction)
    by_size: dict                 # mean WAL size -> frozenset of schema ids
    collision_histogram: dict     # schemas-per-size -> number of sizes

    def identified_schemas(self) -> set:
        """Schemas pinned with certainty by a singleton size."""
        return {next(iter(s)) for s in self.by_size.values() if len(s) == 1}


def reverse_size_map(observations: Sequence[tuple[object, int]]) -> ReverseSizeMap:
    """Build the reverse map from mean WAL write size to schema set.

    ``observations`` are (schema_id, wal_size) pairs; each schema's size
    is the exact mean over its instances, so two schemas collide only on
    true mean equality.
    """
    if not observations:
        raise NoData("no observations")
    sums: dict[object, list[int]] = {}
    for schema, size in observations:
        sums.setdefault(schema, []).append(size)
    schema_sizes = {schema: Fraction(sum(v), len(v)) for schema, v in sums.items()}
    by_size: dict[Fraction, set] = {}
    for schema, mean in schema_sizes.items():
        by_size.setdefault(mean, set()).add(schema)
    frozen = {size: frozenset(schemas) for size, schemas in by_size.items()}
    histogram: dict[int, int] = {}
    for schemas in frozen.values():
        histogram[len(schemas)] = histogram.get(len(schemas), 0) + 1
    return ReverseSizeMap(schema_sizes, frozen, histogram)


# --- trace serialization -------------------------------------------------------


def write_trace_csv(path: str | Path, pairs: Iterable[tuple[object, int]],
                    fields: tuple[str, str] = ("label", "wal_size")) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(fields)
        writer.writerows(pairs)


def read_trace_csv(path: str | Path) -> list[tuple[int, int]]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)  # header
        return [(int(a), int(b)) for a, b in reader]


def save_mapping(path: str | Path, mapping: IntervalMapping) -> None:
    Path(path).write_text(json.dumps(mapping.as_dict(), indent=2) + "\n")


def load_mapping(path: str | Path) -> IntervalMapping:
    return IntervalMapping.from_dict(json.loads(Path(path).read_text()))
