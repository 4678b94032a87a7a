"""Fisher market equilibria from budget-weighted log-utility maximization,
the strategic reporting game on top of them, the welfare-ratio search, and
the no-regret reporting loop.

Every good has unit supply.  Buyers spend fixed budgets; prices clear the
market where they exceed the reserve floor (zero without reserves), and the
seller keeps the remainder at reserve-priced goods.

There is one solver per utility family: closed form for Cobb-Douglas,
proportional response for linear buyers (Birnbaum, Devanur & Xiao, EC 2011)
and damped price adjustment for CES and CES/Cobb-Douglas mixes.  Each takes
a stack of report profiles of one market and iterates them together,
dropping a profile once it converges, and returns stacked prices,
allocations, floored goods and iteration counts plus each profile's error;
``solve_market`` is the one-profile call.  ``_encode`` turns a batch of
report objects into arrays: weights, scales and a family code per report
(0 Cobb-Douglas, 1 linear, rho for CES); the code rows pick each profile's
solver, and the solvers, ``_Demand`` and ``_utilities`` read only those
arrays.  A solved stack is finished as one, by array operations equal to
the per-profile clipping, checks and ``valuations.utility`` to the bit, and
the error raised is the first failing profile's, whether a ``SolverError``
or a failed check.

Without reserves, linear proportional response only has to find the
support of the equilibrium spending, the maximum-bang-per-buck graph: the
prices follow from it by linear algebra (Devanur, Papadimitriou, Saberi &
Vazirani, JACM 2008; Shmyrev 2009).  At fixed rounds, 16, 32, 64, 128, 256
and every 256th after, ``_forest_finish`` guesses a spanning forest of
that graph from the current spend, reads the prices off it and peels its
leaves for the flows, and takes the result when no flow is negative and
the solver's own duality gap is at most ``GAP_TOL``, which for such a
forest bounds how far any good beats a buyer's bang per buck.  A failed
guess lets the rounds go on.  Markets with reserves keep plain
proportional response, and ``GAP_ACCEPT``, the residual gap accepted at the
round cap, serves them alone in practice.

The reporting game works on profile rows of menu indices and builds no
equilibrium objects.  Each menu is encoded once, padded to the widest
menu, so a stack of rows becomes the ``_encode`` arrays of its reports, to
the bit, by one gather.  ``_ReportGame.table`` gathers whole (buyer,
others' reports) rows of menu utilities from a row store and builds only
the rows never seen, from a cache of solved profiles whose misses it solves
as one batch, each once in row-then-buyer order; ``utils`` solves a lone
miss with ``strategic_outcome``.  Every profile gets the bits, iteration
count and error of a lone solve.

``poa_search`` is the one search for a worst reporting equilibrium, with or
without reserve prices: the market's reserves pick the floor, and the
outcome's ``holds`` is the one verdict on it.  Its walks follow the search
rules of ``dynamics``, from the truthful profile first and on equal ranks;
as every profile keeps the bits of a lone solve, they find the equilibria of
walks run one at a time, in their order.

``run_market_learning`` drives ``dynamics._Hedge``, the learner it shares
with the auction game's loop, and reads each round's payoffs of every
buyer's whole menu from one table call.  Its draw is the inverse-CDF count that
``rng.choice(k, p=sigma)`` makes (cumulative weights divided by their total,
counted at or below one uniform per buyer), so it consumes the random stream
of a per-buyer loop and draws the same actions; the uniforms of a block of
rounds come from one ``rng.random`` call.  A round runs the draw, the
table call, the reserve-cap check and the score update; the learner keeps
its payoffs and reports and folds the regret sums (each buyer earning the
payoff of the report it drew) once per block of rounds, to the bits of a
round-by-round update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InternalCheckError, SolverError
from .dynamics import GAIN_TOL, _Hedge, _scan, _switch_gains, _walk_starts, lockstep_walks
from .valuations import CES, CobbDouglas, FisherUtility, Linear

__all__ = [
    "FisherMarket",
    "MarketEquilibrium",
    "solve_market",
    "strategic_outcome",
    "strategic_outcomes",
    "ScalingAudit",
    "audit_scaling",
    "rescale_to_unit",
    "perturbed_reports",
    "PoAOutcome",
    "poa_search",
    "PriceShiftVerdict",
    "verify_price_shift",
    "verify_utility_floor",
    "compress_prices",
    "FisherLearningResult",
    "run_market_learning",
]

PRICE_FLOOR = 1e-12
CLEAR_TOL = 1e-6
GAP_TOL = 1e-8
GAP_ACCEPT = 1e-6  # residual gap tolerable when the round budget runs out


@dataclass(frozen=True)
class FisherMarket:
    """Budgets, true utilities, and an optional reserve-price floor."""

    budgets: tuple[float, ...]
    utilities: tuple[FisherUtility, ...]
    reserves: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        budgets = tuple(float(e) for e in self.budgets)
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "utilities", tuple(self.utilities))
        if not budgets:
            raise ValueError("need at least one buyer")
        if any(e <= 0 for e in budgets):
            raise ValueError("budgets must be positive")
        if len(budgets) != len(self.utilities):
            raise ValueError("one utility per buyer")
        m = self.utilities[0].m
        if any(u.m != m for u in self.utilities):
            raise ValueError("buyers disagree on the number of goods")
        if self.reserves is not None:
            reserves = tuple(float(r) for r in self.reserves)
            object.__setattr__(self, "reserves", reserves)
            if len(reserves) != m:
                raise ValueError("one reserve per good")
            if any(r < 0 for r in reserves):
                raise ValueError("reserves must be nonnegative")

    @property
    def m(self) -> int:
        return self.utilities[0].m

    @property
    def buyers(self) -> int:
        return len(self.budgets)

    @property
    def largeness(self) -> float:
        return sum(self.budgets) / max(self.budgets)


@dataclass(frozen=True)
class MarketEquilibrium:
    prices: tuple[float, ...]
    allocation: tuple[tuple[float, ...], ...]  # buyers x goods
    unsold: tuple[float, ...]
    excess: tuple[float, ...]
    utilities: tuple[float, ...]  # of the report used to solve
    floored: tuple[int, ...]  # goods priced at the degeneracy floor
    iterations: int


def _encode(profiles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays of a stack of K profiles of n reports over m goods: weights
    ``(K, n, m)``, scales ``(K, n)`` and one family code per report
    ``(K, n)``, 0 for Cobb-Douglas, 1 for linear and rho for CES, which lies
    strictly between."""
    a = np.array([[u.a for u in reports] for reports in profiles], dtype=float)
    scale = np.array([[u.scale for u in reports] for reports in profiles], dtype=float)
    code = np.array([
        [0.0 if isinstance(u, CobbDouglas) else 1.0 if isinstance(u, Linear) else u.rho
         for u in reports]
        for reports in profiles
    ])
    return a, scale, code


def _check_equilibria(budgets, reserves, p, x, floored) -> None:
    """Solver postconditions on a stack of profiles: prices ``(K, m)``,
    allocations ``(K, n, m)`` and floored goods ``(K, m)``.  A violation is a
    solver bug, not bad input; the error raised is the first failing
    profile's, for the first condition it fails."""
    e = np.asarray(budgets)
    sold = x.sum(axis=1)
    # A stacked matmul runs one product per profile, as a lone ``x @ p`` does.
    spend = (x @ p[:, :, None])[..., 0]
    live = p > (CLEAR_TOL if reserves is None else np.asarray(reserves) + CLEAR_TOL)
    live &= (p > PRICE_FLOOR * 10) & ~floored
    failures = [
        ((sold > 1.0 + CLEAR_TOL).any(axis=1), lambda k: f"over-allocation: {sold[k]}"),
        (
            (live & (np.abs(sold - 1.0) > CLEAR_TOL)).any(axis=1),
            lambda k: f"market fails to clear: z={sold[k] - 1.0}",
        ),
        (
            (np.abs(spend - e) > CLEAR_TOL * np.maximum(1.0, e)).any(axis=1),
            lambda k: f"budgets not exhausted: {spend[k]} vs {e}",
        ),
    ]
    if reserves is None:
        total = p.sum(axis=1)
        failures.append((
            ~floored.any(axis=1) & (np.abs(total - e.sum()) > CLEAR_TOL * max(1.0, e.sum())),
            lambda k: f"price sum {total[k]} != budget sum {e.sum()}",
        ))
    bad = failures[0][0]
    for mask, _ in failures[1:]:
        bad = bad | mask
    if bad.any():
        k = int(bad.argmax())
        raise InternalCheckError(next(msg(k) for mask, msg in failures if mask[k]))


def _finish(market: FisherMarket, p, x, floored) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip, rescale and check the solved prices ``(K, m)``, allocations
    ``(K, n, m)`` and floored goods ``(K, m)`` of a stack of profiles, and
    return them.
    """
    p = np.maximum(p, PRICE_FLOOR)
    x = np.maximum(x, 0.0)
    # Clip per-good rounding overshoot so allocations stay feasible; the
    # over-allocation check sees any overshoot past CLEAR_TOL as solved.
    over = x.sum(axis=1)
    trim = (over > 1.0) & (over <= 1.0 + CLEAR_TOL)
    if trim.any():
        x = x * np.where(trim, 1.0 / np.maximum(over, 1e-300), 1.0)[:, None, :]
    _check_equilibria(market.budgets, market.reserves, p, x, floored)
    return p, x, floored


# A solver takes budgets, the ``_encode`` arrays of a stack of K report
# profiles and the reserves, and returns the stacked results of the
# profiles: prices ``(K, m)``, allocations ``(K, n, m)``, a boolean mask of
# the goods priced at the degeneracy floor ``(K, m)`` and iteration counts
# ``(K,)``, plus one entry per profile, the SolverError it ended with or
# None; a failed profile's rows are zeros.  Profile k's iterates are the
# ones a stack holding only profile k would produce, bit for bit: every
# reduction runs over the same axis of the same contiguous rows, and
# finished profiles leave the stack rather than changing its arithmetic.
#
# Proportional response runs in chunks of rounds.  The update alone runs for
# R rounds and keeps every round's prices and allocation; then the duality
# gap of all R rounds of every profile is computed in one pass.  The dual is
# bit-equal to a per-round one.  The primal's stacked product adds in another
# order than one 1-D dot per profile, so it only rules rounds out: a round
# whose stacked gap is above the tolerance by more than a rounding bound is
# not done, and every other round is decided on the per-round formula, in
# round order.  A profile therefore stops at the round, with the iterates
# and the gap, of a solver that checks every round.
#
# Without reserves a profile that is not done at a finish round, 16, 32, 64,
# 128, 256 and then every 256th round, is handed to ``_forest_finish``.  A
# chunk ends at the next finish round, and R * K * n * m stays within
# ``_CHUNK_ELEMENTS`` so that a large market keeps its chunks small.  As the
# finish rounds depend on the round alone, not on where a stack's chunks
# end, every profile is finished at the round a lone solve finishes it.

_CHUNK_FIRST = 16
_CHUNK_MAX = 256
_CHUNK_ELEMENTS = 1 << 16  # 512 KiB of float64 per (R, K, n, m) array
_SUPPORT_SHARE = 1e-3  # share of its budget that puts a buyer's edge in the guess


def _next_finish(it: int) -> int:
    """The first finish round after round ``it``."""
    return min(max(_CHUNK_FIRST, 1 << it.bit_length()), (it // _CHUNK_MAX + 1) * _CHUNK_MAX)


def _stacked(k: int, n: int, m: int):
    """Zeroed result arrays of a stack of k profiles, as solvers return them."""
    return (
        np.zeros((k, m)), np.zeros((k, n, m)), np.zeros((k, m), dtype=bool),
        np.zeros(k, dtype=int), [None] * k,
    )


def _solve_cobb_douglas(budgets, reports, reserves):
    e = np.asarray(budgets)
    a = reports[0]
    r = np.zeros(a.shape[2]) if reserves is None else np.asarray(reserves)
    # A stacked matmul runs one product per profile, as a lone ``e @ a`` does.
    p = np.maximum(e @ a, r)
    floored = p <= PRICE_FLOOR
    p = np.maximum(p, PRICE_FLOOR)
    x = (e[:, None] * a) / p[:, None, :]
    return p, x, floored, np.zeros(len(a), dtype=int), [None] * len(a)


def _dual(e, e_scaled, wanted, weights, p):
    """The dual of the linear Eisenberg-Gale program at prices ``p`` (the
    sup over allocations of the budget-weighted log objective), for prices
    of any leading shape against the profile arrays they broadcast with."""
    ratio = np.where(wanted, weights / p[..., None, :], 0.0)
    # A running maximum over the goods, exact in any order: ``max(axis=-1)``
    # loops once per (round, profile, buyer) over a short inner axis.
    best = ratio[..., 0]
    for j in range(1, p.shape[-1]):
        best = np.maximum(best, ratio[..., j])
    return p.sum(axis=-1) + (e * (np.log(e_scaled * best) - 1.0)).sum(axis=-1)


def _forest_finish(e, weights, scales, spend, dead):
    """Exact equilibrium prices ``(m,)`` and allocation ``(n, m)`` of one
    linear profile without reserves, from the spending forest that
    ``spend``, a proportional-response iterate, points to; None when the
    guess fails its certificate.  The weights ``(n, m)``, scales ``(n,)``
    and unwanted goods ``(m,)`` are the profile's rows of the solver's
    arrays."""
    forest = _spending_forest(e, weights, spend, dead)
    return _forest_equilibrium(e, weights, scales, dead, forest)


def _spending_forest(e, weights, spend, dead) -> list[tuple[int, int]]:
    """The support guess: every (buyer, good) edge that carries at least
    ``_SUPPORT_SHARE`` of its buyer's budget, plus each buyer's and each
    wanted good's largest edge, cut to a spanning forest that keeps the
    edges of most spend (Kruskal).  Returns the edges in the order taken."""
    n, m = weights.shape
    pick = spend >= _SUPPORT_SHARE * e[:, None]
    pick[np.arange(n), spend.argmax(axis=1)] = True
    goods = np.flatnonzero(~dead)
    pick[spend[:, goods].argmax(axis=0), goods] = True
    buyers, items = np.nonzero(pick & (weights > 0.0) & (spend > 0.0))
    order = np.argsort(-spend[buyers, items], kind="stable")
    parent = list(range(n + m))  # buyers 0..n-1, then goods

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    forest = []
    for i, j in zip(buyers[order].tolist(), items[order].tolist()):
        ri, rj = root(i), root(n + j)
        if ri != rj:
            parent[ri] = rj
            forest.append((i, j))
    return forest


def _forest_equilibrium(e, weights, scales, dead, forest):
    """The prices and allocation a spending forest fixes, if they certify.

    A buyer spends only on goods of its maximum bang per buck, so along a
    tree p_k = p_j a_ik / a_ij for edges (i, j) and (i, k): a tree fixes its
    prices up to scale, and each is scaled so that they sum to its buyers'
    budgets.  A good nobody wants is priced at the floor.  Peeling leaves
    gives the flows.  The forest certifies when every buyer and every wanted
    good is in it, no flow is negative and the duality gap, ``dual - e @
    logs`` as ``_solve_linear`` computes it, is at most ``GAP_TOL``.  Every
    budget is then spent at its forest bang per buck beta_i, so the gap is
    sum_i e_i log(best_i / beta_i): it certifies that no edge beats a
    buyer's maximum bang per buck by more than a factor exp(GAP_TOL / e_i).
    """
    n, m = weights.shape
    a = weights.tolist()
    adj = [[] for _ in range(n + m)]
    for i, j in forest:
        adj[i].append(n + j)
        adj[n + j].append(i)
    goods = np.flatnonzero(~dead).tolist()
    if not all(adj[:n]) or not all(adj[n + j] for j in goods):
        return None
    # Good prices, and buyers' price per unit of weight (1 / beta_i), tree
    # by tree from its first buyer.
    value = [0.0] * (n + m)
    seen = [False] * (n + m)
    left = e.tolist() + [0.0] * m  # balances still to carry over edges
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        value[start] = 1.0
        tree = [start]
        for v in tree:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    value[w] = a[v][w - n] * value[v] if v < n else value[v] / a[w][v - n]
                    tree.append(w)
        scale = sum(left[v] for v in tree if v < n) / sum(value[v] for v in tree if v >= n)
        for v in tree:
            if v >= n:
                left[v] = value[v] = value[v] * scale
    p = np.full(m, PRICE_FLOOR)
    p[goods] = [value[n + j] for j in goods]
    # A leaf carries its whole balance over its one edge.
    flow = np.zeros((n, m))
    leaves = [v for v in range(n + m) if len(adj[v]) == 1]
    while leaves:
        v = leaves.pop()
        if not adj[v]:
            continue
        w = adj[v].pop()
        adj[w].remove(v)
        if v < n:
            flow[v, w - n] = left[v]
        else:
            flow[w, v - n] = left[v]
        left[w] -= left[v]
        if len(adj[w]) == 1:
            leaves.append(w)
    if (flow < 0.0).any():
        return None
    x = flow / p
    logs = np.log(np.maximum(np.add.reduce(weights * x, axis=1) * scales, 1e-300))
    if _dual(e, e * scales, weights > 0.0, weights, p) - e @ logs > GAP_TOL:
        return None
    return p, x


def _solve_linear(budgets, reports, reserves, cap=10_000):
    """Proportional response on a stack of linear profiles, each run until
    its duality gap is at most ``GAP_TOL``, or ``GAP_ACCEPT`` at round
    ``cap``, or, without reserves, until ``_forest_finish`` certifies it at
    a finish round.

    Rounds run in chunks, as described above the solvers: the stacked gap of
    a chunk only rules rounds out, and a round it leaves in is decided on the
    exact gap, ``dual - (e @ logs + unsold @ r)`` with one 1-D dot per
    profile, in round order.  A profile not done by the gap at a finish
    round is offered to the finish, with the spend the round's update left.
    A profile leaves the stack at the end of the chunk it finished in.
    """
    e = np.asarray(budgets)
    e_col = e[:, None]
    weights, scales, _ = reports  # profiles x buyers (x goods)
    live = np.arange(len(weights))  # profile of each stack row
    m = weights.shape[2]
    r = np.zeros(m) if reserves is None else np.asarray(reserves)
    low = np.maximum(r, PRICE_FLOOR)
    dead = weights.sum(axis=1) <= 0.0  # demanded by nobody
    wanted = weights > 0
    e_scaled = e * scales
    spend = e_col * weights / weights.sum(axis=2, keepdims=True)
    out_p, out_x, out_floored, out_it, errors = _stacked(*weights.shape)
    it = 0
    while True:
        mark = min(_next_finish(it), cap)
        size = max(1, min(mark - it, _CHUNK_ELEMENTS // weights.size))
        p = np.empty((size, live.size, m))  # prices, floored at PRICE_FLOOR
        x = np.empty((size,) + weights.shape)
        mass = np.empty((size,) + scales.shape)  # unscaled utility of each bundle
        p_col, mass_col = p[:, :, None, :], mass[..., None]
        for j in range(size):
            np.maximum(np.add.reduce(spend, axis=1), low, out=p[j])
            contrib = weights * np.divide(spend, p_col[j], out=x[j])
            np.add.reduce(contrib, axis=2, out=mass[j])
            spend = e_col * contrib / np.maximum(mass_col[j], 1e-300)

        logs = np.log(np.maximum(mass * scales, 1e-300))
        dual = _dual(e, e_scaled, wanted, weights, p)
        primal = logs @ e
        # The stacked gap is off the exact one by a few ulps of this.
        magnitude = np.abs(logs) @ e + np.abs(dual) + 1.0
        if reserves is not None:
            unsold = np.maximum(1.0 - x.sum(axis=2), 0.0)
            kept = unsold @ r
            primal += kept
            magnitude += kept

        def exact_gap(j, a):
            # One 1-D dot per profile keeps the BLAS summation order of a
            # lone solve.
            primal = e @ logs[j, a]
            if reserves is not None:
                primal += unsold[j, a] @ r
            return dual[j, a] - primal

        # Each update spends every budget in full, so the market clears
        # identically at every round; a run that exhausts the budget of
        # rounds with a small residual gap is still usable.
        tol = np.full((size, 1), GAP_TOL)
        if it + size == cap:
            tol[-1] = GAP_ACCEPT
        near = dual - primal <= tol + 1e-11 * magnitude
        done = np.zeros(live.size, dtype=bool)
        for a in np.flatnonzero(near.any(axis=0)):
            for j in np.flatnonzero(near[:, a]).tolist():
                if exact_gap(j, a) <= tol[j, 0]:
                    k = live[a]
                    out_p[k], out_x[k] = p[j, a], x[j, a]
                    out_floored[k] = dead[a] & (p[j, a] <= low)
                    out_it[k] = it + j + 1
                    done[a] = True
                    break
        it += size
        if reserves is None and it == _next_finish(it - 1):
            for a in np.flatnonzero(~done):
                exact = _forest_finish(e, weights[a], scales[a], spend[a], dead[a])
                if exact is not None:
                    k = live[a]
                    out_p[k], out_x[k] = exact
                    out_floored[k], out_it[k] = dead[a], it
                    done[a] = True
        if it == cap:
            for a in np.flatnonzero(~done):
                errors[live[a]] = SolverError(
                    f"proportional response failed to converge in {cap} rounds: "
                    f"duality gap {exact_gap(size - 1, a):.3e}"
                )
            return out_p, out_x, out_floored, out_it, errors
        if done.any():
            keep = ~done
            live, weights, scales, dead, wanted, e_scaled, spend = (
                v[keep] for v in (live, weights, scales, dead, wanted, e_scaled, spend)
            )
            if not live.size:
                return out_p, out_x, out_floored, out_it, errors


class _Demand:
    """Spend of every buyer in a stack of CES/Cobb-Douglas profiles.

    CES rows are grouped by sigma so that each group makes one ``np.power``
    call with a Python-float exponent, as a lone ``fisher_demand`` does:
    numpy special-cases scalar exponents such as 2.0 and -1.0, and an array
    of exponents can round differently.
    """

    def __init__(self, budgets, reports):
        self.a, _, code = reports
        self.e = np.broadcast_to(np.asarray(budgets)[None, :], self.a.shape[:2])
        self.cd = code == 0.0
        self.sigma = np.where(self.cd, math.nan, 1.0 / (1.0 - code))
        self.groups = sorted(set(self.sigma[~self.cd]))
        self.a_pow = np.zeros_like(self.a)
        for s in self.groups:
            rows = self.sigma == s
            self.a_pow[rows] = np.power(self.a[rows], float(s))

    def keep(self, rows) -> None:
        for name in ("a", "e", "cd", "sigma", "a_pow"):
            setattr(self, name, getattr(self, name)[rows])

    def __call__(self, p) -> np.ndarray:
        x = np.empty_like(self.a)
        prices = np.broadcast_to(p[:, None, :], x.shape)
        rows = self.cd
        x[rows] = self.e[rows][:, None] * self.a[rows] / prices[rows]
        for s in self.groups:
            rows = self.sigma == s
            q = prices[rows]
            spend = self.a_pow[rows] * np.power(q, 1.0 - float(s))
            spend /= spend.sum(axis=1, keepdims=True)
            x[rows] = self.e[rows][:, None] * spend / q
        return x


def _utilities(reports, x) -> np.ndarray:
    """``utility(u, x[k, i])`` of report i of profile k, for the ``_encode``
    arrays of a stack of K profiles of n reports and their nonnegative
    ``(K, n, m)`` bundles, as ``(K, n)``.

    Equal to the per-buyer ``utility`` to the bit.  Cobb-Douglas rows are
    one array expression, and CES rows one per distinct rho, passed to
    ``np.power`` as a Python float as in ``_Demand``.  Linear rows keep one
    1-D dot each: a stacked matmul, einsum or row sum adds the products in
    another order.
    """
    a, scale, code = reports
    if not code.any():  # every report Cobb-Douglas: the rows the mask below would pick
        return scale * np.prod(np.power(x, a).reshape(-1, a.shape[2]), axis=1).reshape(scale.shape)
    cd, linear = code == 0.0, code == 1.0
    out = np.empty(scale.shape)
    out[cd] = scale[cd] * np.prod(np.power(x[cd], a[cd]), axis=1)
    for r in set(code[~cd & ~linear].tolist()):
        rows = code == r
        inner = np.sum(a[rows] * np.power(x[rows], r), axis=1)
        out[rows] = scale[rows] * np.power(inner, 1.0 / r)
    for k, i in zip(*np.nonzero(linear)):
        out[k, i] = (scale[k, i] * a[k, i]) @ x[k, i]
    return out


def _solve_tatonnement(budgets, reports, reserves, cap=200_000):
    e = np.asarray(budgets)
    demand = _Demand(budgets, reports)
    live = np.arange(len(demand.a))
    m = demand.a.shape[2]
    r = np.zeros(m) if reserves is None else np.asarray(reserves)
    low = np.maximum(r, PRICE_FLOOR)
    dead = demand.a.sum(axis=1) <= 0.0
    p = np.maximum(np.full((live.size, m), e.sum() / m), low)
    step = np.full(live.size, 0.1)
    last = np.full(live.size, math.inf)
    out_p, out_x, out_floored, out_it, errors = _stacked(*demand.a.shape)
    for it in range(cap):
        x = demand(p)
        z = x.sum(axis=1) - 1.0
        # At reserve-floored goods only excess demand counts against us.
        at_floor = p <= low * (1.0 + 1e-12)
        resid = np.where(at_floor, np.maximum(z, 0.0), np.abs(z))
        resid[dead] = 0.0
        worst = resid.max(axis=1)
        done = worst <= CLEAR_TOL
        if done.any():
            ks = live[done]
            out_p[ks] = np.where(dead[done], low, p[done])
            out_x[ks], out_floored[ks], out_it[ks] = x[done], dead[done], it + 1
            keep = ~done
            demand.keep(keep)
            live, dead, p, z, worst, step, last = (
                v[keep] for v in (live, dead, p, z, worst, step, last)
            )
            if not live.size:
                return out_p, out_x, out_floored, out_it, errors
        p = np.maximum(p * (1.0 + step[:, None] * np.clip(z, -0.9, 0.9)), low)
        step = np.where(worst < last, np.minimum(step * 1.05, 0.5), np.maximum(step * 0.5, 1e-4))
        last = worst
    for k, worst in zip(live, last):
        errors[k] = SolverError(
            f"price adjustment failed to converge in {cap} rounds: max residual {worst:.3e}"
        )
    return out_p, out_x, out_floored, out_it, errors


_SOLVERS = {
    "cobb-douglas": _solve_cobb_douglas,
    "linear": _solve_linear,
    "ces": _solve_tatonnement,
}
_KINDS = ("cobb-douglas", "linear", "ces")


def _solve_stack(market: FisherMarket, reports) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The iteration counts and ``_finish`` arrays of the ``_encode`` arrays
    of a stack; profiles whose family codes pick the same solver are solved
    as one stack, and the first failing profile's error is raised."""
    code = reports[2]
    # Linear when every code is 1, Cobb-Douglas when every code is 0, else CES.
    kinds = np.where((code == 1.0).all(axis=1), 1, np.where(code.any(axis=1), 2, 0))
    picked = dict.fromkeys(kinds.tolist())
    if len(picked) == 1:  # one solver takes the whole stack
        p, x, floored, iterations, errors = _SOLVERS[_KINDS[kinds[0]]](
            market.budgets, reports, market.reserves
        )
    else:
        p, x, floored, iterations, errors = _stacked(*reports[0].shape)
        for kind in picked:
            ks = np.flatnonzero(kinds == kind)
            *solved, errs = _SOLVERS[_KINDS[kind]](
                market.budgets, [v[ks] for v in reports], market.reserves
            )
            p[ks], x[ks], floored[ks], iterations[ks] = solved
            for k, err in zip(ks.tolist(), errs):
                errors[k] = err
    failed = next((k for k, err in enumerate(errors) if err is not None), None)
    if failed is None:
        return (iterations, *_finish(market, p, x, floored))
    if failed:
        # A failed check on an earlier profile comes first.
        _finish(market, p[:failed], x[:failed], floored[:failed])
    raise errors[failed]


def _solve_profiles(market: FisherMarket, profiles) -> tuple[list[MarketEquilibrium], np.ndarray]:
    """Equilibria of one or more report profiles of one market, in profile
    order, and their ``(K, n, m)`` allocations.

    The batch is encoded once, after every profile passed the input checks
    in order, and solved by ``_solve_stack``.
    """
    m = market.m
    for reports in profiles:
        if len(reports) != market.buyers:
            raise ValueError("one report per buyer")
        if any(u.m != m for u in reports):
            raise ValueError("report good-count mismatch")
        linear = [isinstance(u, Linear) for u in reports]
        if any(linear) and not all(linear):
            raise SolverError("linear reports cannot be mixed with other families")
    reports = _encode(profiles)
    iterations, p, x, floored = _solve_stack(market, reports)
    sold = x.sum(axis=1)
    left = 1.0 - sold
    eqs = [
        MarketEquilibrium(
            prices=tuple(prices),
            allocation=tuple(map(tuple, alloc)),
            unsold=tuple(unsold),
            excess=tuple(excess),
            utilities=tuple(utils),
            floored=tuple(j for j, f in enumerate(flags) if f),
            iterations=count,
        )
        for prices, alloc, unsold, excess, utils, flags, count in zip(
            p.tolist(),
            x.tolist(),
            np.where(left > 0.0, left, 0.0).tolist(),
            (sold - 1.0).tolist(),
            _utilities(reports, x).tolist(),
            floored.tolist(),
            iterations.tolist(),
        )
    ]
    return eqs, x


def solve_market(market: FisherMarket, reports: Optional[Sequence[FisherUtility]] = None) -> MarketEquilibrium:
    """Equilibrium prices and allocation for the reported utilities.

    Cobb-Douglas markets solve in closed form, linear markets by proportional
    response to a tight duality gap, and CES (or CES/Cobb-Douglas mixtures) by
    damped price adjustment on excess demand.
    """
    return _solve_profiles(market, [market.utilities if reports is None else reports])[0][0]


def strategic_outcomes(
    market: FisherMarket, profiles: Sequence[Sequence[FisherUtility]]
) -> list[tuple[MarketEquilibrium, tuple[float, ...]]]:
    """Clear the market on each report profile; value each bundle truthfully.

    The profiles are solved as one batch; the results equal those of one
    ``strategic_outcome`` call per profile, bit for bit.
    """
    if not profiles:
        return []
    eqs, x = _solve_profiles(market, profiles)
    truth = [np.repeat(v, len(eqs), axis=0) for v in _encode([market.utilities])]
    truthful = _utilities(truth, x).tolist()
    return [(eq, tuple(utils)) for eq, utils in zip(eqs, truthful)]


def strategic_outcome(
    market: FisherMarket, reports: Sequence[FisherUtility]
) -> tuple[MarketEquilibrium, tuple[float, ...]]:
    """Clear the market on the reports; value each bundle truthfully."""
    return strategic_outcomes(market, [reports])[0]


# ---------------------------------------------------------------------------
# Consistent scaling.


@dataclass(frozen=True)
class ScalingAudit:
    t: float
    ratios: tuple[float, ...]
    consistent: bool


def audit_scaling(market: FisherMarket) -> ScalingAudit:
    """Truthful utility per unit budget; consistent when all buyers match."""
    eq = solve_market(market)
    ratios = tuple(u / e for u, e in zip(eq.utilities, market.budgets))
    t = sum(u for u in eq.utilities) / sum(market.budgets)
    consistent = all(abs(x - t) <= 1e-6 * max(1.0, abs(t)) for x in ratios)
    return ScalingAudit(t, ratios, consistent)


def rescale_to_unit(market: FisherMarket) -> FisherMarket:
    """Rescale each utility so its truthful equilibrium utility equals its
    budget.  Demands, prices, and allocations are unchanged."""
    eq = solve_market(market)
    scaled = []
    for u, e, got in zip(market.utilities, market.budgets, eq.utilities):
        if got <= 0:
            raise SolverError("cannot rescale a buyer with zero truthful utility")
        scaled.append(replace(u, scale=u.scale * e / got))
    return FisherMarket(market.budgets, tuple(scaled), market.reserves)


# ---------------------------------------------------------------------------
# Report grids and equilibrium search.


def _reweighted(u: FisherUtility, weights) -> FisherUtility:
    total = sum(weights)
    if total <= 0:
        raise ValueError("degenerate weights")
    if isinstance(u, CobbDouglas):
        return CobbDouglas(tuple(w / total for w in weights), u.scale)
    norm = tuple(w / total for w in weights)
    if isinstance(u, Linear):
        return Linear(norm, u.scale)
    return CES(norm, u.rho, u.scale)


def perturbed_reports(
    u: FisherUtility, deltas: Sequence[float] = (0.05, 0.10, 0.20)
) -> tuple[FisherUtility, ...]:
    """Truth plus single-good weight shifts of +-delta, renormalized.

    Duplicates collapse, so a one-good market has only the truthful report.
    """
    base = _reweighted(u, u.a)
    menu = [base]
    for d in deltas:
        for j in range(u.m):
            if u.a[j] <= 0:
                continue
            for sign in (1.0, -1.0):
                w = list(u.a)
                w[j] *= 1.0 + sign * d
                if w[j] <= 0:
                    continue
                cand = _reweighted(u, w)
                if cand not in menu:
                    menu.append(cand)
    return tuple(menu)


def _stored(index: dict, table: np.ndarray, keys, rows) -> np.ndarray:
    """Append ``rows`` to ``table`` under ``keys`` in ``index``, numbered in
    order, and return the table, grown when full."""
    k, end = len(index), len(index) + len(keys)
    if end > len(table):
        table = np.resize(table, (2 * end, table.shape[1]))
    table[k:end] = rows
    index.update(zip(keys, range(k, end)))
    return table


class _ReportGame:
    """True-utility payoff table over finite report menus.

    Two caches are keyed by int64 rows packed as bytes.  The profile cache
    ``_index`` maps a profile to a row of ``_util``, every buyer's truthful
    utility.  The row store ``_rows`` maps the profile with one buyer's own
    entry replaced by -1 to a row of ``_row_util``: that buyer's true
    utility at every entry of its menu, 0 past its end.  ``table`` gathers
    whole rows; only a row never seen is built cell by cell from the profile
    cache, solving its misses as one batch, each once, in row-then-buyer
    order.  A key with an entry outside its menu is never stored, so it
    always reaches ``_fill``, which refuses it."""

    def __init__(self, market: FisherMarket, menus: Sequence[Sequence[FisherUtility]]):
        self.market = market
        self.menus = [tuple(m) for m in menus]
        if len(self.menus) != market.buyers:
            raise ValueError("one menu per buyer")
        for v, menu in zip(market.utilities, self.menus):
            if _reweighted(v, v.a) not in menu:
                raise ValueError("every menu must contain the truthful report")
            if any(u.m != market.m for u in menu):
                raise ValueError("report good-count mismatch")
        n = market.buyers
        self.sizes = np.array([len(menu) for menu in self.menus])
        width = int(self.sizes.max())
        # Weights (n, S, m), scales and family codes (n, S).
        self._menu = _encode([menu + menu[-1:] * (width - len(menu)) for menu in self.menus])
        self._linear = self._menu[2] == 1.0
        self._cells = np.arange(width) < self.sizes[:, None]  # (n, S): entry s in menu i
        self._truth = _encode([market.utilities])
        self._buyers = np.arange(n)
        self._own = np.eye(n, dtype=bool)
        self._packed = np.dtype((np.void, 8 * n))
        self._index: dict[bytes, int] = {}
        self._util = np.empty((0, n))
        self._rows: dict[bytes, int] = {}
        self._row_util = np.empty((0, width))

    def truthful_profile(self) -> tuple[int, ...]:
        return tuple(
            menu.index(_reweighted(v, v.a))
            for v, menu in zip(self.market.utilities, self.menus)
        )

    def utils(self, profile) -> tuple[float, ...]:
        key = np.asarray(profile, dtype=np.int64).tobytes()
        row = self._index.get(key)
        if row is not None:
            return tuple(self._util[row].tolist())
        if not all(0 <= s < len(menu) for s, menu in zip(profile, self.menus)):
            raise IndexError("profile entry outside its menu")
        _, hit = strategic_outcome(self.market, [self.menus[i][s] for i, s in enumerate(profile)])
        self._util = _stored(self._index, self._util, [key], [hit])
        return hit

    def _fill(self, keys) -> None:
        """Solve the packed profiles ``keys``, distinct and uncached, as one
        batch in the order listed, and cache their truthful utilities."""
        rows = np.frombuffer(b"".join(keys), dtype=np.int64).reshape(len(keys), -1)
        if ((rows < 0) | (rows >= self.sizes)).any():
            raise IndexError("profile entry outside its menu")
        linear = self._linear[self._buyers, rows]
        if (linear.any(axis=1) & ~linear.all(axis=1)).any():
            raise SolverError("linear reports cannot be mixed with other families")
        _, _, x, _ = _solve_stack(self.market, [v[self._buyers, rows] for v in self._menu])
        util = _utilities([np.repeat(v, len(keys), axis=0) for v in self._truth], x)
        self._util = _stored(self._index, self._util, keys, util)

    def table(self, profiles, who) -> np.ndarray:
        """util[p, w, s]: true utility of buyer who[p, w] switching to entry s
        of its menu against the rest of profiles[p]; 0 past the end of its
        menu."""
        who = np.asarray(who)
        rows = np.where(self._own[who], -1, np.asarray(profiles, dtype=np.int64)[:, None, :])
        keys = rows.view(self._packed).ravel().tolist()
        found = list(map(self._rows.get, keys))
        if None in found:
            self._add_rows(list(dict.fromkeys(k for k, j in zip(keys, found) if j is None)))
            found = list(map(self._rows.__getitem__, keys))
        return self._row_util.take(found, axis=0).reshape(*who.shape, -1)

    def _add_rows(self, keys) -> None:
        """Build the rows of the distinct, unstored row keys ``keys`` and
        store them."""
        rows = np.frombuffer(b"".join(keys), dtype=np.int64).reshape(len(keys), -1)
        buyers = (rows == -1).argmax(axis=1)
        cells = self._cells[buyers]
        r, s = np.nonzero(cells)
        profiles = rows[r]
        profiles[np.arange(len(r)), buyers[r]] = s
        packed = profiles.view(self._packed).ravel().tolist()
        found = list(map(self._index.get, packed))
        if None in found:
            self._fill(list(dict.fromkeys(k for k, j in zip(packed, found) if j is None)))
            found = list(map(self._index.__getitem__, packed))
        util = np.zeros(cells.shape)
        util[cells] = self._util[found, buyers[r]]
        self._row_util = _stored(self._rows, self._row_util, keys, util)

    def best_responses(self, profiles, i) -> np.ndarray:
        """Buyer i's ``dynamics._scan`` reply, on equal ranks, to every row
        of a profile stack, from one table call."""
        utils = self.table(profiles, np.full((len(profiles), 1), i))[:, 0, : self.sizes[i]]
        return _scan(utils, np.zeros(utils.shape[1]))[0]

    def is_nash(self, profile) -> tuple[bool, float]:
        """Whether no buyer gains over GAIN_TOL by switching alone, off one
        ``dynamics._switch_gains`` table, and the gain: the first over
        GAIN_TOL in (buyer, entry) order, else the largest, at least 0."""
        gains = _switch_gains(self.table([profile], [self._buyers])[0], profile, self._cells)
        above = np.flatnonzero(gains > GAIN_TOL)
        if above.size:
            return False, float(gains.flat[above[0]])
        return True, max(float(gains.max()), 0.0)

    def find_equilibria(self, rng: np.random.Generator, restarts=8, max_sweeps=100):
        """Lockstep best-reply walks from the truthful profile and ``restarts``
        random ones: the certified equilibria found, keyed by profile in walk
        order, and the number of walks still moving after ``max_sweeps``."""
        starts = np.vstack([self.truthful_profile(), _walk_starts(rng, self.sizes, restarts)])
        ends, dropped = lockstep_walks(starts, self.best_responses, max_sweeps)
        return {key: self.utils(key) for key in ends if self.is_nash(key)[0]}, dropped


@dataclass(frozen=True)
class PoAOutcome:
    gm_ratio: float  # worst over the certified equilibria; inf when none
    sum_ratio: float
    bound: float
    stated_bound: Optional[float]
    equilibria: int
    walks_dropped: int  # best-response walks that never converged
    holds: bool  # the ratios the floor applies to are all at or above it


def _ratio_pair(market, truthful_utils, ne_utils) -> tuple[float, float]:
    e = np.asarray(market.budgets)
    num = np.asarray(ne_utils)
    den = np.asarray(truthful_utils)
    if np.any(num <= 0) or np.any(den <= 0):
        raise SolverError("zero utility in a ratio; degenerate instance")
    gm = float(np.exp((e * np.log(num / den)).sum() / e.sum()))
    return gm, float(num.sum() / den.sum())


def _truthful_prices(market: FisherMarket) -> np.ndarray:
    """Equilibrium prices p* of the market without its reserves, after
    checking that no reserve exceeds a quarter of them."""
    p_star = np.asarray(solve_market(FisherMarket(market.budgets, market.utilities)).prices)
    if np.any(np.asarray(market.reserves) > p_star / 4.0 + 1e-12):
        raise ValueError(
            f"reserves exceed a quarter of truthful prices: r={market.reserves}, "
            f"p*={tuple(p_star)}"
        )
    return p_star


def poa_search(
    market: FisherMarket,
    deltas: Sequence[float] = (0.05, 0.10, 0.20),
    rng: Optional[np.random.Generator] = None,
    restarts: int = 8,
) -> PoAOutcome:
    """Worst certified reporting equilibrium against the welfare floor.

    Without reserves the floor is e^(-m/L), and both the budget-weighted
    geometric-mean ratio and the plain sum ratio must stay at or above it.
    With reserves, which must not exceed a quarter of the truthful prices,
    the floor is e^(-2m/L), the one the underlying additive bound supports,
    and only the sum ratio must clear it; the sharper e^(-2m/(5L)) of the
    source statement is reported as ``stated_bound``, never enforced.  The
    verdict is ``holds``; the search raises nothing about the floor.
    """
    L = market.largeness
    if market.reserves is None:
        bound, stated = math.exp(-market.m / L), None
    else:
        _truthful_prices(market)
        bound, stated = math.exp(-2.0 * market.m / L), math.exp(-2.0 * market.m / (5.0 * L))
    rng = rng or np.random.default_rng(0)
    game = _ReportGame(market, [perturbed_reports(v, deltas) for v in market.utilities])
    truthful = game.utils(game.truthful_profile())
    found, dropped = game.find_equilibria(rng, restarts=restarts)
    worst_gm = worst_sum = math.inf
    for utils in found.values():
        gm, sm = _ratio_pair(market, truthful, utils)
        worst_gm, worst_sum = min(worst_gm, gm), min(worst_sum, sm)
    holds = worst_sum >= bound - 1e-9 and (
        market.reserves is not None or worst_gm >= bound - 1e-9
    )
    return PoAOutcome(worst_gm, worst_sum, bound, stated, len(found), dropped, holds)


# ---------------------------------------------------------------------------
# Price perturbation and utility-floor inequalities.


@dataclass(frozen=True)
class PriceShiftVerdict:
    ok: bool
    detail: str = ""


def verify_price_shift(
    market: FisherMarket,
    reports: Sequence[FisherUtility],
    i: int,
    tol: float = 1e-8,
) -> PriceShiftVerdict:
    """Three componentwise price comparisons around one buyer:

    dropping the buyer never raises prices; adding them raises each price by
    at most their budget; and switching them to truth raises each price by at
    most the largest budget.
    """
    reports = tuple(reports)
    p_hat = np.asarray(solve_market(market, reports).prices)
    if market.buyers > 1:
        rest = FisherMarket(
            tuple(e for h, e in enumerate(market.budgets) if h != i),
            tuple(u for h, u in enumerate(market.utilities) if h != i),
            market.reserves,
        )
        p_wo = np.asarray(
            solve_market(rest, tuple(u for h, u in enumerate(reports) if h != i)).prices
        )
    else:
        p_wo = np.zeros(market.m)
    hybrid = tuple(
        market.utilities[h] if h == i else u for h, u in enumerate(reports)
    )
    p_tru = np.asarray(solve_market(market, hybrid).prices)
    e_i = market.budgets[i]
    e_max = max(market.budgets)
    checks = [
        ("drop lowers prices", p_wo, p_hat + tol),
        ("budget caps the lift", p_hat, p_wo + e_i + tol),
        ("truthful switch is bounded", p_tru, p_hat + e_max + tol),
    ]
    for name, lhs, rhs in checks:
        if np.any(lhs > rhs):
            j = int(np.argmax(lhs - rhs))
            return PriceShiftVerdict(False, f"{name}: good {j}, {lhs[j]} > {rhs[j]}")
    return PriceShiftVerdict(True)


def verify_utility_floor(market: FisherMarket, reports: Sequence[FisherUtility]) -> PriceShiftVerdict:
    """Budget-weighted log utilities of unilateral truthful switches sit at
    most m * max budget below the truthful profile's."""
    reports = tuple(reports)
    e = market.budgets
    lhs = 0.0
    for i in range(market.buyers):
        hybrid = tuple(market.utilities[h] if h == i else u for h, u in enumerate(reports))
        _, utils = strategic_outcome(market, hybrid)
        if utils[i] <= 0:
            return PriceShiftVerdict(False, f"buyer {i} starves under the hybrid")
        lhs += e[i] * math.log(utils[i])
    truthful = solve_market(market)
    rhs = sum(
        b * math.log(u) for b, u in zip(e, truthful.utilities)
    ) - market.m * max(e)
    if lhs < rhs - 1e-9:
        return PriceShiftVerdict(False, f"floor broken: {lhs} < {rhs}")
    return PriceShiftVerdict(True, f"slack {lhs - rhs:.6g}")


# ---------------------------------------------------------------------------
# Compressed prices.


def compress_prices(q, p_star, low: float, total: float) -> tuple[tuple[float, ...], float]:
    """Squeeze the price ratios q/p* into [low, t], preserving the total.

    Ratios below ``low`` are lifted to low * p*; a threshold t > 1, found by
    bisection, caps the rest so the sum stays at ``total``.  Conventions for
    zero prices: 0/0 counts as ratio 1, positive/0 as infinite.
    """
    q = np.asarray(q, dtype=float)
    ps = np.asarray(p_star, dtype=float)
    tol = 1e-10
    if not 0.0 < low <= 1.0:
        raise ValueError("compression level must lie in (0, 1]")
    if abs(q.sum() - total) > 1e-9 * max(1.0, total):
        raise ValueError(f"prices sum to {q.sum()}, expected {total}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ps > 0, q / np.where(ps > 0, ps, 1.0), np.where(q > 0, np.inf, 1.0))

    if np.any(np.isinf(ratio)):
        raise SolverError("positive price on a worthless good cannot be compressed")

    def compressed_sum(t: float) -> float:
        capped = np.minimum(np.maximum(ratio, low), t)
        return float(np.where(ps > 0, capped * ps, q).sum())

    hi = float(max(2.0, np.max(ratio, initial=2.0) + 1.0))
    if compressed_sum(hi) < total - tol:
        raise SolverError(
            f"every ratio at or below the floor {low}; no threshold restores the total"
        )
    lo_t = 1.0
    if compressed_sum(lo_t) >= total - tol:
        t = lo_t
    else:
        for _ in range(200):
            mid = 0.5 * (lo_t + hi)
            if compressed_sum(mid) < total:
                lo_t = mid
            else:
                hi = mid
            if hi - lo_t <= 1e-15 * hi:
                break
        t = hi
    capped = np.minimum(np.maximum(ratio, low), t)
    out = np.where(ps > 0, capped * ps, q)
    if abs(out.sum() - total) > tol * max(1.0, total):
        raise SolverError(f"compression missed the total: {out.sum()} vs {total}")
    return tuple(float(v) for v in out), float(t)


# ---------------------------------------------------------------------------
# No-regret reporting dynamics.


@dataclass(frozen=True)
class FisherLearningResult:
    rounds: int
    average_welfare: float
    truthful_total: float
    bound_factor: float
    rhs: float
    lambda_cap: float
    regrets: tuple[float, ...]
    phi_measured: tuple[float, ...]
    holds: bool


def run_market_learning(
    market: FisherMarket,
    rounds: int,
    deltas: Sequence[float] = (0.05, 0.10, 0.20),
    seed: int = 0,
) -> FisherLearningResult:
    """Multiplicative-weights reporting in the reserve market.

    Requires strictly positive reserves at or below a quarter of the truthful
    prices.  Realized average welfare must clear the reserve welfare floor
    minus the measured regret deficit; ``holds`` is the verdict on that
    floor, and the run raises only when a round's payoff exceeds its cap.
    """
    if market.reserves is None or any(r <= 0 for r in market.reserves):
        raise ValueError("learning floor needs strictly positive reserves")
    lam = float(np.max(_truthful_prices(market) / np.asarray(market.reserves)))

    game = _ReportGame(market, [perturbed_reports(v, deltas) for v in market.utilities])
    sizes = game.sizes
    n = market.buyers
    truthful_utils = game.utils(game.truthful_profile())
    if any(u <= 0 for u in truthful_utils):
        raise SolverError("degenerate truthful utilities")
    chi = [lam * u for u in truthful_utils]

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    T = rounds
    learner = _Hedge(sizes, T, expected=False)
    rows = np.arange(n)
    everyone = rows[None]
    chi_col = np.array(chi)[:, None]
    cap = chi_col + 1e-6 * np.maximum(1.0, chi_col)
    welfare_sum = 0.0

    for start in range(0, T, learner.block):
        # The numbers of one ``rng.random(n)`` per round, a block at a time.
        for u in rng.random((min(learner.block, T - start), n, 1)):
            sigma = learner.mixtures()
            # Inverse-CDF draw, as ``rng.choice(k, p=sigma)`` makes it: the
            # count of cumulative weights, divided by their total (sigma is
            # 0 past a menu), at or below u.
            cdf = np.add.accumulate(sigma, axis=1)
            cdf /= cdf[:, -1:]
            actions = np.add.reduce(cdf <= u, axis=1)
            utils = game.table(actions[None], everyone)[0]
            over = utils > cap
            if over.any():
                i = int(np.flatnonzero(over.any(axis=1))[0])
                raise InternalCheckError(
                    f"buyer {i} payoff exceeds the reserve cap {chi[i]}: {utils[i, :sizes[i]].max()}"
                )
            learner.scores += utils / chi_col
            learner.note(utils, actions)
            welfare_sum += float(utils[rows, actions].sum())
    learner.fold()

    regrets = learner.regrets()
    phi = tuple(reg / c for reg, c in zip(regrets, chi))
    truthful_total = float(sum(truthful_utils))
    bound_factor = math.exp(-2.0 * market.m / market.largeness) - max(phi) / T * lam
    rhs = bound_factor * truthful_total
    avg = welfare_sum / T
    holds = avg >= rhs - 1e-9 * max(1.0, abs(rhs))
    return FisherLearningResult(
        rounds=T,
        average_welfare=avg,
        truthful_total=truthful_total,
        bound_factor=bound_factor,
        rhs=rhs,
        lambda_cap=lam,
        regrets=regrets,
        phi_measured=phi,
        holds=holds,
    )
