"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately naive: direct enumerations and grid searches
written from the definitions, with no code shared with the package internals,
so tests compare two genuinely different routes to the same quantity.

There are two exceptions.  ``reference_outcome`` takes the package's own Fisher
solver output and finishes, checks and values it one profile and one buyer
at a time, the loop that the stacked finish in ``fisher`` replaces and must
match bit for bit.  ``reference_solve_linear`` is the package's
proportional-response solver as it was when it checked the duality gap at
every round, which the chunked solver must match bit for bit.
"""

import heapq
import itertools
import math

import numpy as np

from marketlab import fisher
from marketlab.errors import InternalCheckError, SolverError
from marketlab.valuations import (
    CES,
    CobbDouglas,
    Explicit,
    KDemand,
    Linear,
    UnitDemand,
    utility,
)


def oracle_value(v, bundle):
    """Bundle value by direct multiset expansion / table closure."""
    if isinstance(v, UnitDemand):
        best = 0.0
        for j, c in enumerate(bundle):
            if c > 0:
                best = max(best, v.weights[j])
        return best
    if isinstance(v, KDemand):
        items = []
        for j, c in enumerate(bundle):
            items.extend([v.weights[j]] * c)
        return float(sum(heapq.nlargest(v.cap, items)))
    assert isinstance(v, Explicit)
    table = dict(v.entries)
    best = 0.0
    for sub in itertools.product(*[range(c + 1) for c in bundle]):
        if sum(sub) <= v.cap:
            best = max(best, table.get(sub, 0.0))
    return best


def oracle_demand(v, prices):
    """All utility-maximizing bundles with at most v.cap items."""
    best = -math.inf
    scored = []
    for b in itertools.product(range(v.cap + 1), repeat=v.m):
        if sum(b) > v.cap:
            continue
        cost = sum(c * p for c, p in zip(b, prices) if c)
        u = oracle_value(v, b) - cost
        scored.append((b, u))
        best = max(best, u)
    return sorted(b for b, u in scored if u == best)


def oracle_best_allocation(bids, supply):
    """Exhaustive welfare maximization over all feasible allocations.

    Returns (value, allocation) where the allocation is the lexicographically
    smallest optimum (by bidder index, then bundle counts). Depth-first search
    trying bundles in lexicographic order with strict improvement keeps
    exactly that optimum.
    """
    best = [-1.0, None]

    def feasible_bundles(v, remaining):
        for b in itertools.product(*[range(min(v.cap, r) + 1) for r in remaining]):
            if sum(b) <= v.cap:
                yield b

    def rec(i, remaining, total, chosen):
        if i == len(bids):
            if total > best[0] + 1e-12:
                best[0] = total
                best[1] = list(chosen)
            return
        for b in sorted(feasible_bundles(bids[i], remaining)):
            chosen.append(b)
            rec(
                i + 1,
                tuple(r - c for r, c in zip(remaining, b)),
                total + oracle_value(bids[i], b),
                chosen,
            )
            chosen.pop()

    rec(0, tuple(supply), 0.0, [])
    return best[0], tuple(best[1])


def _utility_batch(u, xs):
    """Utilities of a batch of allocations, straight from the formulas."""
    xs = np.maximum(np.asarray(xs, dtype=float), 0.0)
    a = np.asarray(u.a)
    if isinstance(u, Linear):
        return u.scale * xs @ a
    if isinstance(u, CobbDouglas):
        with np.errstate(divide="ignore"):
            logs = np.where(a > 0, np.log(np.where(xs > 0, xs, 1e-300)), 0.0)
        return u.scale * np.exp(logs @ a)
    assert isinstance(u, CES)
    return u.scale * np.power(np.power(xs, u.rho) @ a, 1.0 / u.rho)


def oracle_single_buyer_optimum(u, prices, budget, rounds=5, pts=21):
    """Best utility a buyer can afford, by a zooming grid over spend shares."""
    m = u.m
    prices = np.asarray(prices, dtype=float)
    lo, hi = np.zeros(m), np.ones(m)
    best_u, best_x, best_share = -math.inf, None, np.full(m, 1.0 / m)
    for _ in range(rounds):
        axes = [np.linspace(lo[j], hi[j], pts) for j in range(m)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        tot = mesh.sum(axis=1)
        mesh = mesh[tot > 0]
        shares = mesh / mesh.sum(axis=1, keepdims=True)
        xs = budget * shares / prices
        vals = _utility_batch(u, xs)
        k = int(np.argmax(vals))
        if vals[k] > best_u:
            best_u, best_x, best_share = float(vals[k]), xs[k], mesh[k]
        width = (hi - lo) / (pts - 1)
        lo = np.maximum(best_share - 2 * width, 0.0)
        hi = np.minimum(best_share + 2 * width, 1.0)
    return best_u, best_x


def eg_objective(budgets, utilities, alloc, reserves=None):
    """Budget-weighted log utility, plus reserve revenue on unsold supply."""
    total = 0.0
    for e, u, x in zip(budgets, utilities, alloc):
        val = _utility_batch(u, np.asarray(x)[None, :])[0]
        if val <= 0:
            return -math.inf
        total += e * math.log(val)
    if reserves is not None:
        unsold = 1.0 - np.sum(alloc, axis=0)
        if np.any(unsold < -1e-9):
            return -math.inf
        total += float(np.maximum(unsold, 0.0) @ np.asarray(reserves))
    return total


def eg_grid_oracle(budgets, utilities, reserves=None, sweeps=4, pts=15, zooms=5):
    """Grid maximizer of the EG objective, cycling good by good with zoom.

    Each unit of supply is split among the buyers (plus an unsold share when
    reserves are given). One block step re-grids a single good's simplex while
    the other goods stay fixed; the window then shrinks around the incumbent.
    The objective is concave, so cyclic block grid search homes in on the
    global optimum.
    """
    n = len(budgets)
    m = utilities[0].m
    rows = n + (1 if reserves is not None else 0)
    alloc = np.full((rows, m), 1.0 / rows)
    width = 1.0
    for _ in range(zooms):
        for _ in range(sweeps):
            for j in range(m):
                lo = np.maximum(alloc[:, j] - width, 0.0)
                hi = np.minimum(alloc[:, j] + width, 1.0)
                axes = [np.linspace(lo[r], hi[r], pts) for r in range(rows)]
                mesh = np.stack(
                    np.meshgrid(*axes, indexing="ij"), axis=-1
                ).reshape(-1, rows)
                tot = mesh.sum(axis=1)
                mesh = mesh[tot > 0] / tot[tot > 0, None]
                # Objective over candidates, varying column j only.
                obj = np.zeros(len(mesh))
                feasible = np.ones(len(mesh), dtype=bool)
                for i, (e, u) in enumerate(zip(budgets, utilities)):
                    xs = np.repeat(alloc[i][None, :], len(mesh), axis=0)
                    xs[:, j] = mesh[:, i]
                    vals = _utility_batch(u, xs)
                    feasible &= vals > 0
                    with np.errstate(divide="ignore"):
                        obj += e * np.log(np.where(vals > 0, vals, 1.0))
                if reserves is not None:
                    for h in range(m):
                        if h != j:
                            obj += reserves[h] * alloc[n, h]
                    obj += reserves[j] * mesh[:, n]
                obj[~feasible] = -np.inf
                alloc[:, j] = mesh[int(np.argmax(obj))]
        width /= 4.0
    return eg_objective(budgets, utilities, alloc[:n], reserves), alloc[:n]


def reference_check(budgets, reserves, prices, alloc, floored):
    """Fisher solver postconditions for one profile, checked on their own."""
    e = np.asarray(budgets)
    p = np.asarray(prices)
    x = np.asarray(alloc)
    r = np.zeros_like(p) if reserves is None else np.asarray(reserves)
    sold = x.sum(axis=0)
    if np.any(sold > 1.0 + fisher.CLEAR_TOL):
        raise InternalCheckError(f"over-allocation: {sold}")
    live = (p > r + fisher.CLEAR_TOL) & (p > fisher.PRICE_FLOOR * 10)
    live &= np.asarray([j not in floored for j in range(p.size)])
    if np.any(np.abs(sold[live] - 1.0) > fisher.CLEAR_TOL):
        raise InternalCheckError(f"market fails to clear: z={sold - 1.0}")
    spend = x @ p
    if np.any(np.abs(spend - e) > fisher.CLEAR_TOL * np.maximum(1.0, e)):
        raise InternalCheckError(f"budgets not exhausted: {spend} vs {e}")
    if reserves is None and not floored:
        if abs(p.sum() - e.sum()) > fisher.CLEAR_TOL * max(1.0, e.sum()):
            raise InternalCheckError(f"price sum {p.sum()} != budget sum {e.sum()}")


def reference_outcome(market, reports):
    """``fisher.strategic_outcome`` one profile at a time: a lone solve,
    then clipping, the checks and one ``utility`` call per buyer and bundle."""
    reports = tuple(reports)
    kinds = {type(u) for u in reports}
    kind = "linear" if Linear in kinds else "cobb-douglas" if kinds == {CobbDouglas} else "ces"
    res = fisher._SOLVERS[kind](market.budgets, [reports], market.reserves)[0]
    if isinstance(res, SolverError):
        raise res
    prices, alloc, mask, iters = res
    floored = [int(j) for j in np.flatnonzero(mask)]
    p = np.maximum(np.asarray(prices, dtype=float), fisher.PRICE_FLOOR)
    x = np.maximum(np.asarray(alloc, dtype=float), 0.0)
    over = x.sum(axis=0)
    x = x * np.where(over > 1.0, 1.0 / np.maximum(over, 1e-300), 1.0)
    sold = x.sum(axis=0)
    reference_check(market.budgets, market.reserves, p, x, floored)
    eq = fisher.MarketEquilibrium(
        prices=tuple(float(v) for v in p),
        allocation=tuple(tuple(float(v) for v in row) for row in x),
        unsold=tuple(float(max(0.0, 1.0 - s)) for s in sold),
        excess=tuple(float(s - 1.0) for s in sold),
        utilities=tuple(float(utility(u, row)) for u, row in zip(reports, x)),
        floored=tuple(floored),
        iterations=iters,
    )
    truthful = tuple(
        float(utility(v, np.asarray(row))) for v, row in zip(market.utilities, eq.allocation)
    )
    return eq, truthful


def reference_solve_linear(budgets, stack, reserves, cap=10_000, gaps=None):
    """``fisher._solve_linear`` as it was before its rounds ran in chunks: the
    duality gap of every live profile at every round, one 1-D dot per
    profile.  The chunked solver must match it bit for bit, iteration counts
    and error texts included.  When ``gaps`` is a list, each round's gaps of
    the live profiles are appended to it as ``(live, gap)``."""
    e = np.asarray(budgets)
    weights = fisher._stack(stack, "a")  # profiles x buyers x goods
    scales = fisher._stack(stack, "scale")
    live = np.arange(len(stack))  # profile of each stack row
    m = weights.shape[2]
    r = np.zeros(m) if reserves is None else np.asarray(reserves)
    dead = weights.sum(axis=1) <= 0.0  # demanded by nobody
    wanted = weights > 0
    e_scaled = e * scales
    row_mass = weights.sum(axis=2, keepdims=True)
    spend = e[:, None] * weights / row_mass
    out = [None] * len(stack)
    for it in range(cap):
        p = np.maximum(spend.sum(axis=1), r)
        p_safe = np.maximum(p, fisher.PRICE_FLOOR)
        x = spend / p_safe[:, None, :]
        logs = np.log(np.maximum((weights * x).sum(axis=2) * scales, 1e-300))
        # One 1-D dot per profile keeps the BLAS summation order of a lone solve.
        primal = np.array([e @ row for row in logs])
        if reserves is not None:
            primal += [row @ r for row in np.maximum(1.0 - x.sum(axis=1), 0.0)]
        # The dual: sup over allocations of the budget-weighted log objective
        # at prices p.
        best = np.where(wanted, weights / p_safe[:, None, :], 0.0).max(axis=2)
        dual = p_safe.sum(axis=1) + (e * (np.log(e_scaled * best) - 1.0)).sum(axis=1)
        gap = dual - primal
        if gaps is not None:
            gaps.append((live, gap))
        # Each update spends every budget in full, so the market clears
        # identically at every round; a run that exhausts the budget of
        # rounds with a small residual gap is still usable.
        done = gap <= (fisher.GAP_ACCEPT if it + 1 == cap else fisher.GAP_TOL)
        if done.any():
            for a in np.flatnonzero(done):
                floored = dead[a] & (p[a] <= np.maximum(r, fisher.PRICE_FLOOR))
                out[live[a]] = (p_safe[a], x[a], floored, it + 1)
            keep = ~done
            live, weights, scales, dead, wanted, e_scaled, x, gap = (
                v[keep] for v in (live, weights, scales, dead, wanted, e_scaled, x, gap)
            )
            if not live.size:
                return out
        contrib = weights * x
        spend = e[:, None] * contrib / np.maximum(
            contrib.sum(axis=2, keepdims=True), 1e-300
        )
    for k, g in zip(live, gap):
        out[k] = SolverError(
            f"proportional response failed to converge in {cap} rounds: "
            f"duality gap {g:.3e}"
        )
    return out


def random_market(rng, max_bidders=5, max_goods=3, max_cap=2, max_copies=4):
    """Random matroid-bid market instance for cross-checking."""
    n_bidders = int(rng.integers(2, max_bidders + 1))
    m = int(rng.integers(1, max_goods + 1))
    bids = []
    for _ in range(n_bidders):
        weights = tuple(np.round(rng.uniform(0.0, 6.0, m), 3))
        if rng.random() < 0.4:
            bids.append(UnitDemand(weights))
        else:
            bids.append(KDemand(weights, int(rng.integers(1, max_cap + 1))))
    supply = tuple(int(c) for c in rng.integers(0, max_copies + 1, m))
    return tuple(bids), supply
