"""Valuation families for multi-unit markets.

Two settings share this module. Auction bidders value integer bundles of
indivisible goods: ``UnitDemand`` (best single item) and ``KDemand`` (sum of
the top-k item weights), both gross substitutes, as the Walrasian mechanism
and its checks need. Fisher market buyers value divisible allocations:
``Linear``, ``CobbDouglas``, and ``CES``.

Bundles are tuples of nonnegative ints indexed by good; divisible allocations
are numpy arrays. All valuation objects are frozen and hashable so downstream
caches can key on bid profiles.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

Bundle = tuple[int, ...]


def _check_weights(weights):
    if len(weights) == 0:
        raise ValueError("at least one good required")
    if any(w < 0 for w in weights):
        raise ValueError("item weights must be nonnegative")


@dataclass(frozen=True)
class UnitDemand:
    """Bidder who gets the value of the best single item in the bundle."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        _check_weights(self.weights)

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def cap(self) -> int:
        return 1


@dataclass(frozen=True)
class KDemand:
    """Bidder whose bundle value is the sum of its top ``cap`` item weights.

    Copies of good j all carry weight ``weights[j]``; items beyond the cap
    contribute nothing.
    """

    weights: tuple[float, ...]
    cap: int

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        _check_weights(self.weights)
        if self.cap < 1:
            raise ValueError("demand cap must be >= 1")

    @property
    def m(self) -> int:
        return len(self.weights)


AuctionValuation = UnitDemand | KDemand


def value(v: AuctionValuation, bundle) -> float:
    """Value of an integer bundle under valuation ``v``."""
    bundle = tuple(int(c) for c in bundle)
    if len(bundle) != v.m:
        raise ValueError(f"bundle has {len(bundle)} goods, valuation has {v.m}")
    if any(c < 0 for c in bundle):
        raise ValueError("bundle counts must be nonnegative")
    return _value(v, bundle)


def _value(v: AuctionValuation, bundle) -> float:
    """``value`` of a bundle already known to be a tuple of ``v.m``
    nonnegative ints, without checking it again."""
    if isinstance(v, UnitDemand):
        picked = [w for w, c in zip(v.weights, bundle) if c > 0]
        return max(picked, default=0.0)
    items = []
    for w, c in zip(v.weights, bundle):
        items.extend([w] * c)
    items.sort(reverse=True)
    return float(sum(items[: v.cap]))


def _sub_bundles(bundle: Bundle, cap: int):
    ranges = [range(min(c, cap) + 1) for c in bundle]
    for sub in itertools.product(*ranges):
        if sum(sub) <= cap:
            yield sub


@functools.cache
def bundles_upto(m: int, cap: int) -> tuple[Bundle, ...]:
    """All bundles over m goods with at most ``cap`` items, lexicographic."""
    return tuple(b for b in itertools.product(range(cap + 1), repeat=m) if sum(b) <= cap)


def item_values(v: AuctionValuation) -> tuple[float, ...]:
    """Value of a single copy of each good."""
    out = []
    for j in range(v.m):
        e = [0] * v.m
        e[j] = 1
        out.append(value(v, e))
    return tuple(out)


def max_item_value(v: AuctionValuation) -> float:
    return max(item_values(v))


def bundle_cost(bundle, prices) -> float:
    """Price of a bundle; infinite prices only bite on positive counts."""
    total = 0.0
    for c, p in zip(bundle, prices):
        if c:
            total += c * p
    return total


def best_utility(v: AuctionValuation, prices) -> float:
    """Maximum quasi-linear utility achievable at ``prices``."""
    return max(
        _value(v, b) - bundle_cost(b, prices) for b in bundles_upto(v.m, v.cap)
    )


def minimal_equivalent_bundle(v: AuctionValuation, bundle) -> Bundle:
    """Smallest sub-bundle carrying the full value of ``bundle``.

    Returns a dominated bundle d <= bundle with value(d) == value(bundle) and
    at most ``v.cap`` items, minimal under componentwise dominance; ties break
    to the lexicographically smallest counts.
    """
    bundle = tuple(int(c) for c in bundle)
    target = value(v, bundle)
    keepers = [
        sub
        for sub in _sub_bundles(bundle, v.cap)
        if value(v, sub) >= target - 1e-12
    ]
    minimal = [
        d
        for d in keepers
        if not any(e != d and all(ec <= dc for ec, dc in zip(e, d)) for e in keepers)
    ]
    return min(minimal)


def scale_bid(v: AuctionValuation, gamma: float, offset: float = 0.0):
    """Bid obtained by scaling item weights by gamma and adding an offset.

    The offset applies per item weight and must be nonnegative.
    """
    if gamma < 0 or offset < 0:
        raise ValueError("need gamma >= 0 and offset >= 0")
    if isinstance(v, UnitDemand):
        return UnitDemand(tuple(gamma * w + offset for w in v.weights))
    return KDemand(tuple(gamma * w + offset for w in v.weights), v.cap)


# ---------------------------------------------------------------------------
# Fisher-market buyer utilities over divisible allocations.


@dataclass(frozen=True)
class Linear:
    a: tuple[float, ...]
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        _check_weights(self.a)
        if not any(self.a):
            raise ValueError("a linear utility needs a positive weight")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def m(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class CobbDouglas:
    """Cobb-Douglas utility scale * prod_j x_j^{a_j} with weights summing to 1."""

    a: tuple[float, ...]
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        _check_weights(self.a)
        if abs(sum(self.a) - 1.0) > 1e-9:
            raise ValueError("Cobb-Douglas weights must sum to 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def m(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class CES:
    """CES utility scale * (sum_j a_j x_j^rho)^{1/rho} with 0 < rho < 1."""

    a: tuple[float, ...]
    rho: float
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        _check_weights(self.a)
        if not any(self.a):
            raise ValueError("a CES utility needs a positive weight")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly between 0 and 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def m(self) -> int:
        return len(self.a)


FisherUtility = Linear | CobbDouglas | CES


def utility(u: FisherUtility, x) -> float:
    """Utility of a divisible allocation ``x``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (u.m,):
        raise ValueError("allocation length mismatch")
    if np.any(x < -1e-12):
        raise ValueError("allocation must be nonnegative")
    x = np.maximum(x, 0.0)
    a = np.asarray(u.a)
    if isinstance(u, Linear):
        return float(u.scale * a @ x)
    if isinstance(u, CobbDouglas):
        return float(u.scale * np.prod(np.power(x, a)))
    return float(u.scale * np.power(np.sum(a * np.power(x, u.rho)), 1.0 / u.rho))


def fisher_demand(u: FisherUtility, prices, budget: float) -> np.ndarray:
    """Utility-maximizing spend of ``budget`` at strictly positive prices.

    Linear buyers put everything on the best bang-per-buck goods (split evenly
    across ties); Cobb-Douglas spends budget * a_j on good j; CES follows its
    closed-form spend shares. Exactly exhausts the budget.
    """
    p = np.asarray(prices, dtype=float)
    if p.shape != (u.m,):
        raise ValueError("price vector length mismatch")
    if np.any(p <= 0):
        raise ValueError("fisher_demand requires strictly positive prices")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if budget == 0:
        return np.zeros(u.m)
    a = np.asarray(u.a)
    if isinstance(u, Linear):
        bang = a / p
        top = bang.max()
        tied = bang >= top * (1 - 1e-12)
        x = np.zeros(u.m)
        x[tied] = budget / (tied.sum() * p[tied])
        return x
    if isinstance(u, CobbDouglas):
        return budget * a / p
    sigma = 1.0 / (1.0 - u.rho)
    spend = np.power(a, sigma) * np.power(p, 1.0 - sigma)
    spend /= spend.sum()
    return budget * spend / p
