"""Multi-unit Walrasian auction engine.

The mechanism takes a bid profile and a supply vector, computes the
welfare-maximizing allocation under the bids, and prices each good at a
marginal welfare difference: the welfare gain from one extra copy ("english",
the low end of the equilibrium price range) or the welfare loss from one
fewer copy ("dutch", the high end; infinite when the good has no copies).
Any convex mix of the two is also supported.

Welfare maximization runs on one of three exact paths chosen by profile
shape: a sorted-slots table for single-good matroid profiles, a maximum
weight assignment for multi-good matroid profiles, and memoized exhaustive
search when explicit bundle tables are present. Allocation ties break
lexicographically by bidder index, then bundle counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InternalCheckError, SizeLimitError
from .valuations import (
    KDemand,
    UnitDemand,
    best_utility,
    bundle_cost,
    bundles_upto,
    value,
)

RULES = ("english", "dutch", "mix")

# Welfare/price ties narrower than this are treated as exact ties.
TIE_TOL = 1e-9

_DP_STATE_LIMIT = 200_000


def _as_supply(supply, m):
    supply = tuple(int(c) for c in supply)
    if len(supply) != m:
        raise ValueError(f"supply has {len(supply)} goods, bids have {m}")
    if any(c < 0 for c in supply):
        raise ValueError("supply counts must be nonnegative")
    return supply


def _caps(bid):
    return bid.cap


class WelfareOracle:
    """Cached exact welfare, price, and allocation queries for one bid profile."""

    def __init__(self, bids):
        bids = tuple(bids)
        if not bids:
            raise ValueError("need at least one bidder")
        m = bids[0].m
        if any(b.m != m for b in bids):
            raise ValueError("bidders disagree on the number of goods")
        self.bids = bids
        self.m = m
        self.n_bidders = len(bids)
        self.max_cap = max(_caps(b) for b in bids)
        self.total_slots = sum(_caps(b) for b in bids)
        matroid = all(isinstance(b, (UnitDemand, KDemand)) for b in bids)
        if matroid and m == 1:
            self._mode = "slots"
            self._init_slots()
        elif matroid:
            self._mode = "assignment"
            self._init_assignment()
        else:
            self._mode = "dp"
            self._init_dp()
        self._welfare_cache: dict = {}
        self._alloc_cache: dict = {}
        self._suffix_cache: dict = {}

    # -- slots path: one good, matroid bids --------------------------------

    def _init_slots(self):
        owners = []
        weights = []
        for i, b in enumerate(self.bids):
            w = b.weights[0]
            if w > 0:
                owners.extend([i] * _caps(b))
                weights.extend([w] * _caps(b))
        weights = np.asarray(weights, dtype=float)
        owners = np.asarray(owners, dtype=int)
        # Sort by weight descending; ties go to the larger bidder index so
        # that marginal copies land on later bidders (the lex-smallest
        # canonical allocation leaves earlier bidders with less).
        order = np.lexsort((-owners, -weights))
        self._slot_weights = weights[order]
        self._slot_owners = owners[order]
        self._slot_prefix = np.concatenate(([0.0], np.cumsum(self._slot_weights)))

    # -- assignment path: several goods, matroid bids -----------------------

    def _init_assignment(self):
        owners = []
        for i, b in enumerate(self.bids):
            owners.extend([i] * _caps(b))
        self._slot_owner_rows = np.asarray(owners, dtype=int)
        weight_rows = np.asarray([b.weights for b in self.bids], dtype=float)
        self._slot_weight_matrix = weight_rows[self._slot_owner_rows]  # S x m

    def _assignment_value(self, supply):
        goods = np.repeat(np.arange(self.m), supply)
        if goods.size == 0 or self.total_slots == 0:
            return 0.0
        gain = self._slot_weight_matrix[:, goods]  # S x T
        row, col = linear_sum_assignment(gain, maximize=True)
        return float(gain[row, col].sum())

    # -- dp path: explicit tables present ------------------------------------

    def _init_dp(self):
        self._candidates = [tuple(bundles_upto(self.m, _caps(b))) for b in self.bids]

    def _dp_value(self, supply, start=0):
        states = 1
        for c in supply:
            states *= c + 1
        if states > _DP_STATE_LIMIT:
            raise SizeLimitError(
                f"explicit welfare path would visit up to {states} supply states "
                f"(limit {_DP_STATE_LIMIT}); shrink the supply box or caps"
            )
        memo = self._suffix_cache

        def rec(i, rem):
            if i == self.n_bidders:
                return 0.0
            key = (i, rem)
            if key in memo:
                return memo[key]
            best = -math.inf
            for b in self._candidates[i]:
                if all(c <= r for c, r in zip(b, rem)):
                    rest = tuple(r - c for r, c in zip(rem, b))
                    best = max(best, value(self.bids[i], b) + rec(i + 1, rest))
            memo[key] = best
            return best

        return rec(start, supply)

    # -- public queries ------------------------------------------------------

    def _clip(self, supply):
        # Copies beyond the profile's total demand cap never earn welfare.
        return tuple(min(c, self.total_slots) for c in supply)

    def welfare(self, supply) -> float:
        """Maximum total bid value achievable from ``supply``."""
        supply = _as_supply(supply, self.m)
        if self._mode == "slots":
            n = min(supply[0], len(self._slot_weights))
            return float(self._slot_prefix[n])
        key = self._clip(supply)
        got = self._welfare_cache.get(key)
        if got is None:
            if self._mode == "assignment":
                got = self._assignment_value(key)
            else:
                got = self._dp_value(key)
            self._welfare_cache[key] = got
        return got

    def _suffix_value(self, start, supply):
        """Welfare of bidders start..N-1 given ``supply``, off the slots path."""
        if start == 0:
            return self.welfare(supply)
        if start == self.n_bidders:
            return 0.0
        if self._mode == "dp":
            return self._dp_value(supply, start)
        key = (start, supply)
        got = self._suffix_cache.get(key)
        if got is None:
            goods = np.repeat(np.arange(self.m), supply)
            rows = self._slot_owner_rows >= start
            gain = self._slot_weight_matrix[rows][:, goods]
            if gain.size == 0:
                got = 0.0
            else:
                r, c = linear_sum_assignment(gain, maximize=True)
                got = float(gain[r, c].sum())
            self._suffix_cache[key] = got
        return got

    def english(self, supply) -> np.ndarray:
        """Per-good welfare gain from one extra copy."""
        supply = _as_supply(supply, self.m)
        if self._mode == "slots":
            n = supply[0]
            w = self._slot_weights
            return np.array([float(w[n]) if n < len(w) else 0.0])
        base = self.welfare(supply)
        out = np.empty(self.m)
        for j in range(self.m):
            bumped = supply[:j] + (supply[j] + 1,) + supply[j + 1 :]
            out[j] = self.welfare(bumped) - base
        return np.maximum(out, 0.0)

    def dutch(self, supply) -> np.ndarray:
        """Per-good welfare loss from one fewer copy; +inf where supply is 0."""
        supply = _as_supply(supply, self.m)
        if self._mode == "slots":
            n = supply[0]
            if n == 0:
                return np.array([math.inf])
            w = self._slot_weights
            return np.array([float(w[n - 1]) if n - 1 < len(w) else 0.0])
        base = self.welfare(supply)
        out = np.empty(self.m)
        for j in range(self.m):
            if supply[j] == 0:
                out[j] = math.inf
                continue
            dropped = supply[:j] + (supply[j] - 1,) + supply[j + 1 :]
            out[j] = max(base - self.welfare(dropped), 0.0)
        return out

    def prices(self, supply, rule, lam=None) -> np.ndarray:
        if rule == "english":
            return self.english(supply)
        if rule == "dutch":
            return self.dutch(supply)
        if rule == "mix":
            if lam is None or not 0.0 <= lam <= 1.0:
                raise ValueError("mix rule needs a blend weight in [0, 1]")
            eng = self.english(supply)
            if lam == 0.0:
                return eng
            # Componentwise blend in the extended reals: a zero-supply good
            # keeps its infinite high-end price (any cheaper finite price can
            # leave a bidder strictly demanding the unavailable good once the
            # other goods are blended upward, breaking the equilibrium).
            return (1.0 - lam) * eng + lam * self.dutch(supply)
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")

    def allocation(self, supply) -> tuple:
        """Canonical welfare-maximizing allocation (lex by bidder, then bundle)."""
        supply = _as_supply(supply, self.m)
        got = self._alloc_cache.get(supply)
        if got is not None:
            return got
        if self._mode == "slots":
            n = min(supply[0], len(self._slot_owners))
            counts = np.bincount(self._slot_owners[:n], minlength=self.n_bidders)
            alloc = tuple((int(c),) for c in counts)
        else:
            alloc = self._greedy_allocation(supply)
        total = sum(value(b, x) for b, x in zip(self.bids, alloc))
        if abs(total - self.welfare(supply)) > TIE_TOL * max(1.0, abs(total)):
            raise InternalCheckError(
                f"allocation value {total} disagrees with welfare {self.welfare(supply)}"
            )
        self._alloc_cache[supply] = alloc
        return alloc

    def _greedy_allocation(self, supply):
        remaining = self._clip(supply)
        required = self.welfare(remaining)
        out = []
        for i, bid in enumerate(self.bids):
            chosen = None
            for b in bundles_upto(self.m, _caps(bid)):
                if any(c > r for c, r in zip(b, remaining)):
                    continue
                rest = tuple(r - c for r, c in zip(remaining, b))
                if value(bid, b) + self._suffix_value(i + 1, rest) >= required - TIE_TOL:
                    chosen = b
                    break
            if chosen is None:
                raise InternalCheckError("no bundle preserves the optimal welfare")
            out.append(chosen)
            remaining = tuple(r - c for r, c in zip(remaining, chosen))
            required -= value(bid, chosen)
        return tuple(out)


@dataclass(frozen=True)
class Outcome:
    """One mechanism run: prices, who got what, and what was paid."""

    rule: str
    lam: float | None
    supply: tuple[int, ...]
    prices: tuple[float, ...]
    allocation: tuple[tuple[int, ...], ...]
    payments: tuple[float, ...]
    sw_bids: float


def max_welfare(bids, supply):
    """(optimal bid welfare, canonical allocation) for ``supply``."""
    oracle = WelfareOracle(bids)
    return oracle.welfare(supply), oracle.allocation(supply)


def run_mechanism(bids, supply, rule="english", lam=None, oracle=None) -> Outcome:
    """Run the auction: price by ``rule``, allocate by bid welfare."""
    oracle = oracle or WelfareOracle(bids)
    supply = _as_supply(supply, oracle.m)
    prices = oracle.prices(supply, rule, lam)
    alloc = oracle.allocation(supply)
    payments = tuple(bundle_cost(x, prices) for x in alloc)
    return Outcome(
        rule=rule,
        lam=lam,
        supply=supply,
        prices=tuple(float(p) for p in prices),
        allocation=alloc,
        payments=payments,
        sw_bids=oracle.welfare(supply),
    )


def validate_outcome(bids, outcome, tol=1e-9):
    """Check the two equilibrium conditions; returns (ok, problems).

    (i) no good is over-allocated and positively priced goods clear exactly;
    (ii) every bidder's bundle maximizes quasi-linear utility at the prices.
    """
    problems = []
    m = bids[0].m
    prices = np.asarray(outcome.prices)
    if len(outcome.allocation) != len(bids):
        return False, ["allocation has wrong number of bidders"]
    if prices.shape != (m,) or len(outcome.supply) != m:
        return False, ["price or supply vector has wrong length"]
    if np.any(prices < -tol):
        problems.append("negative price")
    sold = np.zeros(m, dtype=int)
    for i, x in enumerate(outcome.allocation):
        if len(x) != m or any(c < 0 for c in x):
            problems.append(f"bidder {i} bundle malformed")
            continue
        sold += np.asarray(x, dtype=int)
    for j in range(m):
        if sold[j] > outcome.supply[j]:
            problems.append(f"good {j} over-allocated ({sold[j]} > {outcome.supply[j]})")
        elif prices[j] > tol and sold[j] != outcome.supply[j]:
            problems.append(
                f"good {j} priced at {prices[j]} but {sold[j]}/{outcome.supply[j]} sold"
            )
    for i, (bid, x) in enumerate(zip(bids, outcome.allocation)):
        u = value(bid, x) - bundle_cost(x, prices)
        cap = best_utility(bid, prices)
        if u < cap - tol:
            problems.append(
                f"bidder {i} got utility {u:.12g} but demands utility {cap:.12g}"
            )
    return not problems, problems


def truncated_distance(p, q, ceiling) -> float:
    """L1 distance between price vectors after capping both at ``ceiling``."""
    if ceiling < 0:
        raise ValueError("ceiling must be nonnegative")
    p = np.minimum(np.asarray(p, dtype=float), ceiling)
    q = np.minimum(np.asarray(q, dtype=float), ceiling)
    if p.shape != q.shape:
        raise ValueError("price vectors differ in length")
    return float(np.abs(p - q).sum())

