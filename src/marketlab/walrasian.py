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

The assignment path solves each maximum-weight assignment with
``_max_assignment``, a port of the rectangular shortest augmenting path
solver of Crouse (*On implementing 2D rectangular assignment algorithms*,
IEEE TAES 2016) as scipy's ``linear_sum_assignment`` runs it: the same
scan order, tie breaks and dual updates, so it returns the same rows and
columns, and welfare sums the same floats in the same order.  The port
runs in Python, so a solve costs about rows² × columns interpreted steps;
matrices beyond ``_ASSIGNMENT_CELL_LIMIT`` cells raise ``SizeLimitError``,
as the exhaustive path does past its state budget.

Public queries validate their supply once; everything inside an oracle runs
on private helpers over tuples it built itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, SizeLimitError
from .valuations import (
    KDemand,
    UnitDemand,
    _value,
    best_utility,
    bundle_cost,
    bundles_upto,
    value,
)

RULES = ("english", "dutch", "mix")

# Welfare/price ties narrower than this are treated as exact ties.
TIE_TOL = 1e-9

_DP_STATE_LIMIT = 200_000
# The assignment solver runs in Python: from about 64 rows up it is some 20
# times slower than scipy's C loop, and a two-good mechanism run at 100
# unit-demand bidders takes seconds.
_ASSIGNMENT_CELL_LIMIT = 4_096


def _as_supply(supply, m):
    supply = tuple(map(int, supply))
    if len(supply) != m:
        raise ValueError(f"supply has {len(supply)} goods, bids have {m}")
    if min(supply) < 0:
        raise ValueError("supply counts must be nonnegative")
    return supply


def _check_rule(rule, lam):
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
    if rule == "mix" and (lam is None or not 0.0 <= lam <= 1.0):
        raise ValueError("mix rule needs a blend weight in [0, 1]")


def _caps(bid):
    return bid.cap


def _max_assignment(gain):
    """Rows and columns of a maximum-weight assignment of the matrix
    ``gain``, rows ascending: ``linear_sum_assignment(gain, maximize=True)``
    to the bit.

    A line-for-line port of scipy's ``rectangular_lsap.cpp`` (Crouse, IEEE
    TAES 2016): minimize the negated gains, transposed when there are fewer
    columns than rows; grow one shortest augmenting path per row, scanning
    the unvisited columns in scipy's order and preferring an unassigned
    column among equal path costs; then move the duals of the visited rows
    and columns and flip the path.  The gains must be finite, which makes
    every path end at a free column (the oracle checks its weights once).
    """
    gain = np.asarray(gain, dtype=float)
    rows, cols = gain.shape
    if rows == 0 or cols == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    transpose = cols < rows
    cost = (-(gain.T if transpose else gain)).tolist()
    nr, nc = (cols, rows) if transpose else (rows, cols)
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        min_val = 0.0
        # Reversed, so a constant matrix is solved by the identity.
        remaining = list(range(nc - 1, -1, -1))
        shortest = [math.inf] * nc
        seen_rows, seen_cols = [], []
        i, sink = cur, -1
        while sink == -1:
            index, lowest = -1, math.inf
            seen_rows.append(i)
            row, ui = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in seen_rows:
            if i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return np.array([col4row[k] for k in order], dtype=int), np.array(order, dtype=int)
    return np.arange(nr), np.array(col4row, dtype=int)


def _assigned_sum(gain) -> float:
    """Welfare of a maximum-weight assignment of ``gain``: the assigned
    gains summed by numpy in ascending row order."""
    if gain.size == 0:
        return 0.0
    if gain.size > _ASSIGNMENT_CELL_LIMIT:
        rows, cols = gain.shape
        raise SizeLimitError(
            f"assignment path would solve a {rows} x {cols} matrix "
            f"(limit {_ASSIGNMENT_CELL_LIMIT} cells); shrink the bidders, caps or supply"
        )
    row, col = _max_assignment(gain)
    return float(gain[row, col].sum())


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
        self._welfare_cache: dict = {}
        self._alloc_cache: dict = {}
        self._suffix_cache: dict = {}
        self._menus = None

    # -- slots path: one good, matroid bids --------------------------------

    def _init_slots(self):
        # One slot per copy a bidder can use, sorted by weight descending;
        # ties go to the larger bidder index so that marginal copies land on
        # later bidders (the lex-smallest canonical allocation leaves earlier
        # bidders with less).  Small profiles, so plain lists.
        slots = sorted(
            (
                (b.weights[0], i)
                for i, b in enumerate(self.bids)
                if b.weights[0] > 0
                for _ in range(_caps(b))
            ),
            reverse=True,
        )
        self._slot_weights = [w for w, _ in slots]
        self._slot_owners = [i for _, i in slots]
        # Prefix sums, added left to right.
        self._slot_prefix = list(itertools.accumulate(self._slot_weights, initial=0.0))

    # -- assignment path: several goods, matroid bids -----------------------

    def _init_assignment(self):
        owners = []
        for i, b in enumerate(self.bids):
            owners.extend([i] * _caps(b))
        self._slot_owner_rows = np.asarray(owners, dtype=int)
        weight_rows = np.asarray([b.weights for b in self.bids], dtype=float)
        if not np.isfinite(weight_rows).all():
            raise ValueError("the assignment path needs finite item weights")
        self._slot_weight_matrix = weight_rows[self._slot_owner_rows]  # S x m

    def _assignment_value(self, supply):
        goods = np.repeat(np.arange(self.m), supply)
        return _assigned_sum(self._slot_weight_matrix[:, goods])  # S x T

    # -- explicit tables, and the greedy allocation off the slots path -------

    def _bundle_menus(self):
        """Per bidder, every bundle within its cap in lex order, with its value."""
        if self._menus is None:
            self._menus = [
                tuple((b, _value(bid, b)) for b in bundles_upto(self.m, _caps(bid)))
                for bid in self.bids
            ]
        return self._menus

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
        menus = self._bundle_menus()

        def rec(i, rem):
            if i == self.n_bidders:
                return 0.0
            key = (i, rem)
            if key in memo:
                return memo[key]
            best = -math.inf
            for b, worth in menus[i]:
                if all(c <= r for c, r in zip(b, rem)):
                    rest = tuple(r - c for r, c in zip(rem, b))
                    best = max(best, worth + rec(i + 1, rest))
            memo[key] = best
            return best

        return rec(start, supply)

    # -- queries -------------------------------------------------------------

    def _clip(self, supply):
        # Copies beyond the profile's total demand cap never earn welfare.
        return tuple(min(c, self.total_slots) for c in supply)

    def welfare(self, supply) -> float:
        """Maximum total bid value achievable from ``supply``."""
        return self._welfare(_as_supply(supply, self.m))

    def _welfare(self, supply) -> float:
        if self._mode == "slots":
            return self._slot_prefix[min(supply[0], len(self._slot_weights))]
        got = self._welfare_cache.get(supply)
        if got is None:
            key = self._clip(supply)
            got = self._welfare_cache.get(key)
            if got is None:
                if self._mode == "assignment":
                    got = self._assignment_value(key)
                else:
                    got = self._dp_value(key)
                self._welfare_cache[key] = got
            self._welfare_cache[supply] = got
        return got

    def _suffix_value(self, start, supply):
        """Welfare of bidders start..N-1 given ``supply``, off the slots path."""
        if start == 0:
            return self._welfare(supply)
        if start == self.n_bidders:
            return 0.0
        if self._mode == "dp":
            return self._dp_value(supply, start)
        key = (start, supply)
        got = self._suffix_cache.get(key)
        if got is None:
            goods = np.repeat(np.arange(self.m), supply)
            rows = self._slot_owner_rows >= start
            got = _assigned_sum(self._slot_weight_matrix[rows][:, goods])
            self._suffix_cache[key] = got
        return got

    def english(self, supply) -> np.ndarray:
        """Per-good welfare gain from one extra copy."""
        return self._english(_as_supply(supply, self.m))

    def _english(self, supply) -> np.ndarray:
        if self._mode == "slots":
            n = supply[0]
            w = self._slot_weights
            return np.array([w[n] if n < len(w) else 0.0])
        base = self._welfare(supply)
        out = np.empty(self.m)
        for j in range(self.m):
            bumped = supply[:j] + (supply[j] + 1,) + supply[j + 1 :]
            out[j] = self._welfare(bumped) - base
        return np.maximum(out, 0.0)

    def dutch(self, supply) -> np.ndarray:
        """Per-good welfare loss from one fewer copy; +inf where supply is 0."""
        return self._dutch(_as_supply(supply, self.m))

    def _dutch(self, supply) -> np.ndarray:
        if self._mode == "slots":
            n = supply[0]
            if n == 0:
                return np.array([math.inf])
            w = self._slot_weights
            return np.array([w[n - 1] if n - 1 < len(w) else 0.0])
        base = self._welfare(supply)
        out = np.empty(self.m)
        for j in range(self.m):
            if supply[j] == 0:
                out[j] = math.inf
                continue
            dropped = supply[:j] + (supply[j] - 1,) + supply[j + 1 :]
            out[j] = max(base - self._welfare(dropped), 0.0)
        return out

    def prices(self, supply, rule, lam=None) -> np.ndarray:
        _check_rule(rule, lam)
        return self._prices(_as_supply(supply, self.m), rule, lam)

    def _prices(self, supply, rule, lam) -> np.ndarray:
        if rule == "dutch":
            return self._dutch(supply)
        eng = self._english(supply)
        if rule == "english" or lam == 0.0:
            return eng
        # Componentwise blend in the extended reals: a zero-supply good
        # keeps its infinite high-end price (any cheaper finite price can
        # leave a bidder strictly demanding the unavailable good once the
        # other goods are blended upward, breaking the equilibrium).
        return (1.0 - lam) * eng + lam * self._dutch(supply)

    def allocation(self, supply) -> tuple:
        """Canonical welfare-maximizing allocation (lex by bidder, then bundle)."""
        return self._allocation(_as_supply(supply, self.m))

    def _allocation(self, supply) -> tuple:
        got = self._alloc_cache.get(supply)
        if got is not None:
            return got
        if self._mode == "slots":
            counts = [0] * self.n_bidders
            for i in self._slot_owners[: supply[0]]:
                counts[i] += 1
            alloc = tuple((c,) for c in counts)
        else:
            alloc = self._greedy_allocation(supply)
        total = sum(_value(b, x) for b, x in zip(self.bids, alloc))
        want = self._welfare(supply)
        if abs(total - want) > TIE_TOL * max(1.0, abs(total)):
            raise InternalCheckError(
                f"allocation value {total} disagrees with welfare {want}"
            )
        self._alloc_cache[supply] = alloc
        return alloc

    def _greedy_allocation(self, supply):
        remaining = self._clip(supply)
        required = self._welfare(remaining)
        out = []
        for i, menu in enumerate(self._bundle_menus()):
            chosen = None
            for b, worth in menu:
                if any(c > r for c, r in zip(b, remaining)):
                    continue
                rest = tuple(r - c for r, c in zip(remaining, b))
                if worth + self._suffix_value(i + 1, rest) >= required - TIE_TOL:
                    chosen = b
                    break
            if chosen is None:
                raise InternalCheckError("no bundle preserves the optimal welfare")
            out.append(chosen)
            remaining = tuple(r - c for r, c in zip(remaining, chosen))
            required -= worth
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
    _check_rule(rule, lam)
    prices = oracle._prices(supply, rule, lam)
    alloc = oracle._allocation(supply)
    payments = tuple(bundle_cost(x, prices) for x in alloc)
    return Outcome(
        rule=rule,
        lam=lam,
        supply=supply,
        prices=tuple(float(p) for p in prices),
        allocation=alloc,
        payments=payments,
        sw_bids=oracle._welfare(supply),
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
    malformed = set()
    for i, x in enumerate(outcome.allocation):
        if len(x) != m or any(c < 0 for c in x):
            problems.append(f"bidder {i} bundle malformed")
            malformed.add(i)
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
        if i in malformed:
            continue
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

