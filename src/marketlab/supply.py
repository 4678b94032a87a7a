"""Random copy-count models and the welfare-floor rate they imply.

A multiplicity model describes how many copies of each good arrive, one
independent integer count per good.  The quantity the rest of the library
cares about is the largest conditional point mass any single count can
carry: sharp bounds on price sensitivity and on equilibrium welfare all
scale with it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Union

import numpy as np

__all__ = [
    "BinomialCounts",
    "FixedCounts",
    "MultiplicityModel",
    "good_pmf",
    "max_point_mass",
    "mean_counts",
    "std_counts",
    "sample",
    "support_size",
    "iter_support",
    "floor_rate",
]


@dataclass(frozen=True)
class BinomialCounts:
    """Independent Binomial(trials, prob) copies of each of `goods` goods."""

    goods: int
    trials: int
    prob: float

    def __post_init__(self):
        if self.goods < 1 or self.trials < 0:
            raise ValueError("need at least one good and trials >= 0")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("prob must lie in [0, 1]")


@dataclass(frozen=True)
class FixedCounts:
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if not self.counts or any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonempty and nonnegative")

    @property
    def goods(self) -> int:
        return len(self.counts)


MultiplicityModel = Union[BinomialCounts, FixedCounts]


# log(DBL_MAX): comb(n, i) converts to a float when its log is below.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _log_comb(n: int, i: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)


def _binomial_term(n: int, i: int, p: float) -> float:
    # comb(n, i) < 2**n fits in a float below n = 1024.  Past that, the
    # lgamma estimate, good to far better than 1, sends a term whose comb is
    # surely too large straight to log space, without building it; only a
    # term within 1 of the limit may still overflow in the exact product.
    if n < 1024 or _log_comb(n, i) < _LOG_FLOAT_MAX + 1.0:
        try:
            return math.comb(n, i) * p**i * (1.0 - p) ** (n - i)
        except OverflowError:
            pass
    # comb(n, i) is past the float range, so the term is taken in log space;
    # that happens only for 0 < i < n, where p = 0 or p = 1 gives 0.
    if p in (0.0, 1.0):
        return 0.0
    return math.exp(_log_comb(n, i) + i * math.log(p) + (n - i) * math.log1p(-p))


def good_pmf(model: MultiplicityModel, j: int) -> np.ndarray:
    """Marginal pmf of good j's count as a dense vector over 0..max."""
    if not 0 <= j < model.goods:
        raise IndexError("good index out of range")
    if isinstance(model, BinomialCounts):
        n, p = model.trials, model.prob
        return np.array([_binomial_term(n, i, p) for i in range(n + 1)])
    out = np.zeros(model.counts[j] + 1)
    out[model.counts[j]] = 1.0
    return out


def max_point_mass(model: MultiplicityModel) -> float:
    """Largest conditional point mass over all goods and all counts.

    Equals 1 exactly when some good's count is deterministic; decays like
    1/sqrt(trials) for binomial counts.
    """
    return max(float(good_pmf(model, j).max()) for j in range(model.goods))


def mean_counts(model: MultiplicityModel) -> np.ndarray:
    if isinstance(model, BinomialCounts):
        return np.full(model.goods, model.trials * model.prob)
    return np.array(model.counts, dtype=float)


def std_counts(model: MultiplicityModel) -> np.ndarray:
    if isinstance(model, BinomialCounts):
        return np.full(
            model.goods, math.sqrt(model.trials * model.prob * (1.0 - model.prob))
        )
    return np.zeros(model.goods)


def sample(model: MultiplicityModel, rng: np.random.Generator) -> tuple[int, ...]:
    """One draw of the copy-count vector from an explicit generator."""
    if isinstance(model, BinomialCounts):
        return tuple(rng.binomial(model.trials, model.prob, size=model.goods).tolist())
    return model.counts


def support_size(model: MultiplicityModel) -> int:
    if isinstance(model, FixedCounts):
        return 1
    sizes = [int(np.count_nonzero(good_pmf(model, j))) for j in range(model.goods)]
    return math.prod(sizes)


def iter_support(model: MultiplicityModel) -> Iterator[tuple[tuple[int, ...], float]]:
    """All count vectors with positive probability, with their probabilities."""
    per_good = []
    for j in range(model.goods):
        t = good_pmf(model, j)
        per_good.append([(int(c), float(t[c])) for c in np.flatnonzero(t)])
    for combo in product(*per_good):
        counts = tuple(c for c, _ in combo)
        prob = math.prod(p for _, p in combo)
        yield counts, prob


# ---------------------------------------------------------------------------
# The welfare floor of the large-auction assumptions.


def floor_rate(spread_slack: float, mean_copies_share: float, best_item_floor: float) -> float:
    """Per-bidder welfare floor implied by a second-moment tail bound.

    With slack s, a count of at least s^2 * mean arrives with probability at
    least (2s + s^2) / (1 + s)^2, and each allocated copy is worth at least
    the per-item floor.
    """
    s = spread_slack
    return s * s * mean_copies_share * (2 * s + s * s) / (1 + s) ** 2 * best_item_floor
