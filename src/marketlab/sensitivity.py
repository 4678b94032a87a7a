"""Probes for how sharply clearing prices react to one extra copy.

A supply vector is "unstable" for a good when adding a single copy of that
good moves the ceiling-truncated low-end price vector by more than a given
threshold in L1.  The probes count such vectors along supply slices, bound
the probability of landing near one, and check the combinatorial identities
behind those bounds.  Any measured count or probability exceeding its
stated bound is a solver bug and raises immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

import numpy as np

from .errors import InternalCheckError
from .supply import MultiplicityModel, iter_support, max_point_mass, sample, support_size
from .walrasian import WelfareOracle, truncated_distance

__all__ = [
    "ProbeParams",
    "ProbeReport",
    "default_search_box",
    "default_threshold",
    "is_unstable",
    "is_unstable_within",
    "deficit_vectors",
    "count_unstable_slice",
    "unstable_event_probability",
    "event_probability_bound",
    "deficit_ball_bound",
    "instability_mass",
    "halving_steps",
    "comb_ext",
    "check_counting_identities",
]

COUNT_TOL = 1e-12
# Two-sided 99% standard normal quantile, norm.ppf(0.995).
Z99 = 2.5758293035489004


@dataclass(frozen=True)
class ProbeParams:
    """Threshold (price-move tolerance), ceiling (truncation level),
    slack (total copies of headroom), and the per-good scan box."""

    threshold: float
    ceiling: float
    slack: int
    search_box: int

    def __post_init__(self):
        if self.threshold <= 0 or self.ceiling <= 0:
            raise ValueError("threshold and ceiling must be positive")
        if self.slack < 0 or self.search_box < 0:
            raise ValueError("slack and search_box must be nonnegative")


def default_search_box(bids, slack: int) -> int:
    """Smallest per-good scan box that provably misses no unstable vector.

    Past the point where every bidder's demand is saturated, marginal copies
    are worthless and prices are pinned at zero, so scanning further cannot
    find instability.
    """
    slots = sum(getattr(b, "cap", 1) for b in bids)
    return slots + slack + 1


def default_threshold(goods: int, peak: float, slack: int, ceiling: float) -> tuple[float, float]:
    """(relative, absolute) instability threshold matching the welfare-bound
    schedule: sqrt(goods * peak * ball(goods, slack+1) / (slack+1)), scaled
    by the ceiling for the absolute form."""
    rel = math.sqrt(goods * peak * deficit_ball_bound(goods, slack + 1) / (slack + 1))
    return rel, rel * ceiling


def is_unstable(
    oracle: WelfareOracle, supply, good: int, threshold: float, ceiling: float
) -> bool:
    """True when one extra copy of `good` moves truncated low-end prices by
    more than `threshold` in L1."""
    return _Probe(oracle, threshold, ceiling).unstable(tuple(int(c) for c in supply), good)


class _Probe:
    """`is_unstable` on one oracle, threshold and ceiling, computing each
    supply's prices and each (supply, good) verdict once: the scans along a
    slice and over a support revisit the same vectors many times."""

    def __init__(self, oracle: WelfareOracle, threshold: float, ceiling: float):
        self.oracle, self.threshold, self.ceiling = oracle, threshold, ceiling
        self._prices: dict = {}
        self._verdicts: dict = {}

    def _english(self, supply: tuple[int, ...]) -> np.ndarray:
        got = self._prices.get(supply)
        if got is None:
            got = self._prices[supply] = self.oracle.english(supply)
        return got

    def unstable(self, supply: tuple[int, ...], good: int) -> bool:
        got = self._verdicts.get((supply, good))
        if got is None:
            bumped = tuple(c + 1 if j == good else c for j, c in enumerate(supply))
            move = truncated_distance(self._english(supply), self._english(bumped), self.ceiling)
            got = self._verdicts[supply, good] = move > self.threshold
        return got

    def within(self, supply, good: int, slack: int) -> bool:
        return any(self.unstable(below, good) for below in deficit_vectors(supply, slack))


def deficit_vectors(supply, slack: int) -> Iterator[tuple[int, ...]]:
    """All vectors below `supply` componentwise by a total of at most `slack`."""
    supply = tuple(int(c) for c in supply)
    ranges = [range(0, min(slack, c) + 1) for c in supply]
    for d in product(*ranges):
        if sum(d) <= slack:
            yield tuple(c - x for c, x in zip(supply, d))


def is_unstable_within(
    oracle: WelfareOracle, supply, good: int, slack: int, threshold: float, ceiling: float
) -> bool:
    """True when some vector within total deficit `slack` of `supply` is
    unstable for `good`."""
    return _Probe(oracle, threshold, ceiling).within(supply, good, slack)


def count_unstable_slice(
    oracle: WelfareOracle, rest, good: int, params: ProbeParams
) -> tuple[int, int]:
    """Exact (unstable, unstable-within-slack) counts along one supply slice.

    `rest` fixes the other goods' counts in good order with `good` removed;
    the good's own count scans 0..search_box.  Either count exceeding its
    combinatorial bound would falsify a counting argument the welfare
    guarantees rest on, so that raises instead of returning.
    """
    rest = tuple(int(c) for c in rest)
    if len(rest) != oracle.m - 1:
        raise ValueError("rest must fix all other goods' counts")

    def at(nj: int) -> tuple[int, ...]:
        return rest[:good] + (nj,) + rest[good:]

    probe = _Probe(oracle, params.threshold, params.ceiling)
    plain = 0
    within = 0
    for nj in range(params.search_box + 1):
        supply = at(nj)
        if probe.unstable(supply, good):
            plain += 1
        if probe.within(supply, good, params.slack):
            within += 1

    m = oracle.m
    plain_bound = m * params.ceiling / params.threshold
    within_bound = plain_bound * math.comb(params.slack + m, m)
    if plain > plain_bound + COUNT_TOL:
        raise InternalCheckError(
            f"unstable count {plain} exceeds slice bound {plain_bound}"
        )
    if within > within_bound + COUNT_TOL:
        raise InternalCheckError(
            f"within-slack count {within} exceeds slice bound {within_bound}"
        )
    return plain, within


def deficit_ball_bound(goods: int, slack: int) -> int:
    """goods * (number of nonnegative integer vectors with sum <= slack)."""
    return goods * math.comb(slack + goods, goods)


def instability_mass(goods: int, slack: int, peak: float) -> float:
    """Aggregate instability weight 2 * goods^2 * peak * C(slack+1+goods, goods)."""
    return 2.0 * goods * goods * peak * math.comb(slack + 1 + goods, goods)


def halving_steps(mass: float) -> int:
    """Depth of the geometric threshold schedule for a mass below 1."""
    if not 0.0 < mass < 1.0:
        raise ValueError("schedule depth is defined for mass in (0, 1)")
    outer = math.log2(1.0 / mass)
    return math.ceil(outer - math.log2(outer))


def event_probability_bound(goods: int, peak: float, params: ProbeParams) -> float:
    """Upper bound on the chance a drawn supply is within-slack unstable for
    some good or leaves some good with at most `slack` copies."""
    return goods * peak * (
        (params.ceiling / params.threshold) * deficit_ball_bound(goods, params.slack)
        + params.slack
        + 1
    )


@dataclass(frozen=True)
class ProbeReport:
    probability: float
    bound: float
    mode: str
    draws: int
    ci99: Optional[tuple[float, float]]


def unstable_event_probability(
    bids,
    model: MultiplicityModel,
    params: ProbeParams,
    rng: Optional[np.random.Generator] = None,
    draws: int = 2000,
    exact_limit: int = 20_000,
) -> ProbeReport:
    """Probability that a drawn supply is within-slack unstable for some good
    or has some count at most `slack`, with the matching upper bound.

    Exact over the model's support when it is small enough, otherwise Monte
    Carlo with a 99% CI.  A probability above the bound raises: the bound is
    a theorem given exact prices, so crossing it means the solver is wrong.
    """
    oracle = WelfareOracle(bids)
    if model.goods != oracle.m:
        raise ValueError("model and bids disagree on the number of goods")

    probe = _Probe(oracle, params.threshold, params.ceiling)

    def hit(counts) -> bool:
        if min(counts) <= params.slack:
            return True
        return any(probe.within(counts, j, params.slack) for j in range(oracle.m))

    bound = event_probability_bound(oracle.m, max_point_mass(model), params)
    if support_size(model) <= exact_limit:
        prob = math.fsum(p for counts, p in iter_support(model) if hit(counts))
        if prob > bound + COUNT_TOL:
            raise InternalCheckError(
                f"event probability {prob} exceeds bound {bound}"
            )
        return ProbeReport(prob, bound, "exact", 0, None)

    if rng is None:
        raise ValueError("large support needs an explicit generator")
    hits = sum(hit(sample(model, rng)) for _ in range(draws))
    phat = hits / draws
    half = Z99 * math.sqrt(max(phat * (1 - phat), 1e-12) / draws)
    lo, hi = max(phat - half, 0.0), min(phat + half, 1.0)
    if hi > bound + COUNT_TOL:
        raise InternalCheckError(
            f"event frequency CI upper {hi} exceeds bound {bound}"
        )
    return ProbeReport(phat, bound, "monte-carlo", draws, (lo, hi))


# ---------------------------------------------------------------------------
# Counting identities behind the slice bounds.


def comb_ext(a: int, b: int) -> int:
    """Binomial coefficient with C(a, 0) = 1 for every a (including a = -1)
    and 0 whenever the selection is impossible."""
    if b == 0:
        return 1
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def check_counting_identities(goods: int, slack: int) -> bool:
    """Exact check of the two summation identities used by the slice bounds:
    the running-sum form C(g+n-1, n) = sum_i C(g+i-2, i), and its weighted
    telescoping over the slack budget."""
    if goods < 1 or slack < 0:
        raise ValueError("need goods >= 1 and slack >= 0")
    for n in range(slack + 1):
        lhs = comb_ext(goods + n - 1, n)
        rhs = sum(comb_ext(goods + i - 2, i) for i in range(n + 1))
        if lhs != rhs:
            return False
    for k in range(slack + 1):
        lhs = sum(comb_ext(goods + n - 1, n) for n in range(k + 1))
        rhs = sum((k - n + 1) * comb_ext(goods + n - 2, n) for n in range(k + 1))
        if lhs != rhs:
            return False
    return True
