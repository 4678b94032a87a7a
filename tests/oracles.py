"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately naive: direct enumerations and grid searches
written from the definitions, with no code shared with the package internals,
so tests compare two genuinely different routes to the same quantity.

There are exceptions.  ``reference_outcome`` takes the package's own Fisher
solver output and finishes, checks and values it one profile and one buyer
at a time, the loop that the stacked finish in ``fisher`` replaces and must
match bit for bit; ``reference_table`` reads the Fisher reporting game's
payoff table with it, one lone solve per cell.  ``reference_solve_linear``
is the package's proportional-response solver as it was when it checked the
duality gap at every round, which the chunked solver must match bit for
bit; it calls the package's exact finish, at the same rounds, and
``linear_support_oracle`` checks that finish by enumerating supports.
``reference_audit`` is the package's assumption audit as it was before
one-good markets were valued on arrays, one ``WelfareOracle`` per drawn
market (``reference_welfare_draws``); every field and every draw must be
matched exactly.
``reference_parse_config`` is the package's scenario schema as it was before
the harness kept one registry entry per mode, refusing non-finite numbers as
the package now does; the registry must give the same errors and the same
values.  ``reference_best_response_dynamics`` runs the
best-reply walks one after another, one ``best_response`` call per step, as
the package did before it ran them in lockstep; ``reference_draw_bidders``
draws one bidder's weights at a time, as the harness did before it drew them
in one call.  Both must be matched exactly.  ``reference_engine_stats`` is
the package's expected-outcome evaluation as it was before every game went
through one table interface: one ``run_mechanism`` call per atom, expected
values summed atom by atom; it is matched to 1e-12, as the tables sum
expectations in another order.  ``reference_certify`` is the package's Nash
certificate as it was before it read everything off one table: own
utilities from ``stats``, one table row per deviating player, and Monte
Carlo differences from the ``outcomes`` rows of both profiles; every field
must be matched exactly.  ``reference_find_equilibria`` (with
``reference_best_response`` and ``reference_is_nash``) is the Fisher
reporting game's walk-by-walk search, one menu batch per step, as it was
before its walks ran in lockstep; the equilibria, their order, the dropped
count and the generator state must be matched exactly.
``reference_run_learning`` is the package's no-regret loop as it was before
a learning round was settled from one sorted bid row: masked mixtures over
zero-padded rows and a masked payoff-bound check; on games whose menus have
one size it must be matched exactly.  ``ScipyWelfareOracle`` is
``WelfareOracle`` with its assignments solved by scipy's
``linear_sum_assignment``, as the package did before it ported the solver;
prices, allocations and welfare must be matched exactly.
``reference_slice_counts`` and ``reference_event_probability`` are the
package's instability probes as they were before a probe computed each
supply's prices and each verdict once: every supply and good recomputed
through ``WelfareOracle.english``; counts and probabilities must be matched
exactly.
``demand_set``, ``check_gross_substitutes`` and ``assert_valid_outcome``
are test helpers built on the package's own ``value`` and
``validate_outcome``; ``SingleMinded`` is a complements bid, valued here,
that the package does not serve and ``demand_set`` also reads.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from marketlab import fisher, walrasian_modes
from marketlab.dynamics import GAIN_TOL
from marketlab.errors import InternalCheckError, ScenarioError, SolverError
from marketlab.harness import SCHEMA_VERSION, Scenario
from marketlab.sensitivity import Z99, ProbeParams, deficit_vectors
from marketlab.strategic import (
    Certification,
    EquilibriumReport,
    GameContext,
    LearningConfig,
    LearningResult,
    ScalingGrid,
    _auction,
    _Stats,
)
from marketlab.supply import (
    MultiplicityModel,
    floor_rate,
    iter_support,
    max_point_mass,
    mean_counts,
    sample,
    std_counts,
    support_size,
)
from marketlab.valuations import (
    CES,
    Bundle,
    CobbDouglas,
    KDemand,
    Linear,
    UnitDemand,
    _value,
    bundle_cost,
    bundles_upto,
    scale_bid,
    utility,
    value,
)
from marketlab.walrasian import WelfareOracle, run_mechanism, truncated_distance, validate_outcome


def oracle_value(v, bundle):
    """Bundle value by direct multiset expansion."""
    if isinstance(v, UnitDemand):
        best = 0.0
        for j, c in enumerate(bundle):
            if c > 0:
                best = max(best, v.weights[j])
        return best
    assert isinstance(v, KDemand)
    items = []
    for j, c in enumerate(bundle):
        items.extend([v.weights[j]] * c)
    return float(sum(heapq.nlargest(v.cap, items)))


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


def linear_support_oracle(budgets, weights, tol=1e-9):
    """Equilibrium prices of a linear Fisher market without reserves, n <= 4
    buyers and m <= 3 goods, by brute-force support enumeration.

    Each buyer gets a nonempty set of the goods it wants.  On those edges a
    buyer's bang per buck is one number, a_ij g_i = p_j with g_i its price
    per unit of weight; with the prices of each connected component summing
    to its buyers' budgets, and goods nobody wants at 0, that is a linear
    system, solved by least squares.  The first assignment whose system is
    consistent and that passes the KKT conditions gives the prices: every
    wanted good priced above 0, no good beating a buyer's bang per buck, and
    a flow on the chosen edges that spends every budget and clears every
    good (Gale: no set of goods costs more than its neighbours' budgets).
    None when no assignment passes.
    """
    e = np.asarray(budgets, dtype=float)
    a = np.asarray(weights, dtype=float)
    n, m = a.shape
    if n > 4 or m > 3:
        raise ValueError("support enumeration is for n <= 4 and m <= 3")
    wanted = (a > 0).any(axis=0)
    options = [
        [set(s) for r in range(1, m + 1) for s in itertools.combinations(np.flatnonzero(row > 0), r)]
        for row in a
    ]
    subsets = [
        set(t) for r in range(1, m + 1) for t in itertools.combinations(np.flatnonzero(wanted), r)
    ]
    for support in itertools.product(*options):
        if set().union(*support) != set(np.flatnonzero(wanted)):
            continue
        # Components of the support graph: buyers 0..n-1, goods n..n+m-1.
        label = list(range(n + m))
        for i, goods in enumerate(support):
            for j in goods:
                old, new = label[n + j], label[i]
                label = [new if c == old else c for c in label]
        rows, rhs = [], []
        for i, goods in enumerate(support):
            for j in goods:
                row = np.zeros(n + m)
                row[i], row[n + j] = a[i, j], -1.0
                rows.append(row)
                rhs.append(0.0)
        for c in set(label[:n]):
            rows.append(np.array([0.0] * n + [float(label[n + j] == c) for j in range(m)]))
            rhs.append(sum(e[i] for i in range(n) if label[i] == c))
        for j in np.flatnonzero(~wanted):
            rows.append(np.eye(n + m)[n + j])
            rhs.append(0.0)
        A, b = np.array(rows), np.array(rhs)
        sol = np.linalg.lstsq(A, b, rcond=None)[0]
        if np.abs(A @ sol - b).max() > tol * e.sum():
            continue
        g, p = sol[:n], sol[n:]
        if (p[wanted] <= 0).any() or (a * g[:, None] > p * (1 + tol) + tol).any():
            continue
        if all(
            p[list(t)].sum() <= sum(e[i] for i in range(n) if support[i] & t) + tol * e.sum()
            for t in subsets
        ):
            return p
    return None


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
    then clipping (a good sold over 1 is rescaled only within CLEAR_TOL),
    the checks and one ``utility`` call per buyer and bundle."""
    reports = tuple(reports)
    kinds = {type(u) for u in reports}
    kind = "linear" if Linear in kinds else "cobb-douglas" if kinds == {CobbDouglas} else "ces"
    solved = fisher._SOLVERS[kind](market.budgets, fisher._encode([reports]), market.reserves)
    prices, alloc, mask, iters, (error,) = solved
    if error is not None:
        raise error
    prices, alloc, mask, iters = prices[0], alloc[0], mask[0], int(iters[0])
    floored = [int(j) for j in np.flatnonzero(mask)]
    p = np.maximum(np.asarray(prices, dtype=float), fisher.PRICE_FLOOR)
    x = np.maximum(np.asarray(alloc, dtype=float), 0.0)
    over = x.sum(axis=0)
    trim = (over > 1.0) & (over <= 1.0 + fisher.CLEAR_TOL)  # larger overshoots fail the check
    x = x * np.where(trim, 1.0 / np.maximum(over, 1e-300), 1.0)
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


def reference_table(market, menus, profiles, who):
    """``_ReportGame.table`` cell by cell: buyer who[p][w] switching to entry
    s of its menu against the rest of profiles[p], valued by one
    ``reference_outcome``; 0 past the end of the menu."""
    util = np.zeros((len(who), len(who[0]), max(map(len, menus))))
    for p, (profile, buyers) in enumerate(zip(profiles, who)):
        for w, i in enumerate(buyers):
            for s in range(len(menus[i])):
                reports = [menu[j] for menu, j in zip(menus, profile)]
                reports[i] = menus[i][s]
                util[p, w, s] = reference_outcome(market, reports)[1][i]
    return util


def finish_round(t):
    """Whether proportional response offers its live profiles to the exact
    finish after round t: rounds 16, 32, 64, 128, 256 and every 256th."""
    return t >= fisher._CHUNK_FIRST and (t & (t - 1) == 0 or t % fisher._CHUNK_MAX == 0)


def stacked_results(entries, n, m):
    """Per-profile solver entries, ``(prices, allocation, floored,
    iterations)`` or a SolverError, stacked as the package's solvers return
    them."""
    k = len(entries)
    p, x = np.zeros((k, m)), np.zeros((k, n, m))
    floored, iterations, errors = np.zeros((k, m), dtype=bool), np.zeros(k, dtype=int), [None] * k
    for k, res in enumerate(entries):
        if isinstance(res, SolverError):
            errors[k] = res
        else:
            p[k], x[k], floored[k], iterations[k] = res
    return p, x, floored, iterations, errors


def reference_solve_linear(budgets, stack, reserves, cap=10_000, gaps=None):
    """``fisher._solve_linear`` as it was before its rounds ran in chunks: the
    duality gap of every live profile at every round, one 1-D dot per
    profile, and without reserves ``fisher._forest_finish`` on each live
    profile after every ``finish_round``.  The chunked solver must match it
    bit for bit, iteration counts and error texts included.  When ``gaps``
    is a list, each round's gaps of the live profiles are appended to it as
    ``(live, gap)``."""
    e = np.asarray(budgets)
    # profiles x buyers x goods
    weights = np.asarray([[u.a for u in reports] for reports in stack])
    scales = np.asarray([[u.scale for u in reports] for reports in stack])
    live = np.arange(len(stack))  # profile of each stack row
    n, m = weights.shape[1:]
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
        contrib = weights * x
        spend = e[:, None] * contrib / np.maximum(
            contrib.sum(axis=2, keepdims=True), 1e-300
        )
        # Each update spends every budget in full, so the market clears
        # identically at every round; a run that exhausts the budget of
        # rounds with a small residual gap is still usable.
        done = gap <= (fisher.GAP_ACCEPT if it + 1 == cap else fisher.GAP_TOL)
        for a in np.flatnonzero(done):
            floored = dead[a] & (p[a] <= np.maximum(r, fisher.PRICE_FLOOR))
            out[live[a]] = (p_safe[a], x[a], floored, it + 1)
        if reserves is None and finish_round(it + 1):
            for a in np.flatnonzero(~done):
                exact = fisher._forest_finish(e, weights[a], scales[a], spend[a], dead[a])
                if exact is not None:
                    out[live[a]] = (*exact, dead[a], it + 1)
                    done[a] = True
        keep = ~done
        live, weights, scales, dead, wanted, e_scaled, spend, gap = (
            v[keep] for v in (live, weights, scales, dead, wanted, e_scaled, spend, gap)
        )
        if not live.size:
            return stacked_results(out, n, m)
    for k, g in zip(live, gap):
        out[k] = SolverError(
            f"proportional response failed to converge in {cap} rounds: "
            f"duality gap {g:.3e}"
        )
    return stacked_results(out, n, m)


class ScipyWelfareOracle(WelfareOracle):
    """``WelfareOracle`` whose assignment path calls scipy's
    ``linear_sum_assignment``: the two solves as they were before the port."""

    def _assignment_value(self, supply):
        goods = np.repeat(np.arange(self.m), supply)
        if goods.size == 0 or self.total_slots == 0:
            return 0.0
        gain = self._slot_weight_matrix[:, goods]  # S x T
        row, col = linear_sum_assignment(gain, maximize=True)
        return float(gain[row, col].sum())

    def _suffix_value(self, start, supply):
        if start == 0:
            return self.welfare(supply)
        if start == self.n_bidders:
            return 0.0
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


def reference_best_response_dynamics(
    ctx: GameContext,
    rng: np.random.Generator,
    restarts: int = 32,
    max_sweeps: int = 200,
) -> tuple[list[EquilibriumReport], int]:
    """Round-robin best-reply walks from random profiles, one walk at a time."""
    found: dict[tuple[int, ...], EquilibriumReport] = {}
    dropped = 0
    for _ in range(restarts):
        profile = [int(rng.integers(0, len(ctx.menu[i]))) for i in range(ctx.players)]
        for _ in range(max_sweeps):
            changed = False
            for i in range(ctx.players):
                s, _ = ctx.best_response(profile, i)
                if s != profile[i]:
                    profile[i] = s
                    changed = True
            if not changed:
                break
        else:
            dropped += 1
            continue
        key = tuple(profile)
        if key not in found:
            cert = ctx.certify(key)
            if cert.kind != "not-equilibrium":
                found[key] = ctx.report(key, cert)
    return list(found.values()), dropped


def reference_best_response(self, profile, i) -> int:
    best_s, best_u = profile[i], -math.inf
    for s, got in enumerate(self.table([profile], [[i]])[0, 0, : len(self.menus[i])].tolist()):
        if got > best_u + GAIN_TOL:
            best_s, best_u = s, got
    return best_s


def reference_is_nash(self, profile) -> tuple[bool, float]:
    base = self.utils(profile)
    worst = 0.0
    trial = list(profile)
    for i in range(self.market.buyers):
        for s in range(len(self.menus[i])):
            if s == profile[i]:
                continue
            trial[i] = s
            worst = max(worst, self.utils(trial)[i] - base[i])
            if worst > GAIN_TOL:
                return False, worst
        trial[i] = profile[i]
    return True, worst


def reference_find_equilibria(self, rng: np.random.Generator, restarts=8, max_sweeps=100):
    """Best-response walks from the truthful profile and ``restarts``
    random ones.  Returns the certified equilibria found, keyed by
    profile, and the number of walks dropped for not converging within
    ``max_sweeps`` sweeps."""
    seeds = [self.truthful_profile()] + [
        tuple(int(rng.integers(0, len(m))) for m in self.menus)
        for _ in range(restarts)
    ]
    found = {}
    dropped = 0
    for start in seeds:
        profile = list(start)
        for _ in range(max_sweeps):
            changed = False
            for i in range(self.market.buyers):
                s = reference_best_response(self, profile, i)
                if s != profile[i]:
                    profile[i] = s
                    changed = True
            if not changed:
                break
        else:
            dropped += 1
            continue
        key = tuple(profile)
        if key not in found:
            ok, _ = reference_is_nash(self, key)
            if ok:
                found[key] = self.utils(key)
    return found, dropped


def reference_engine_stats(self: GameContext, profile) -> _Stats:
    """Expected utilities and true welfare of one profile, one mechanism run
    per atom."""
    bids = tuple(scale_bid(self.true_values[i], *self.menu[i][s]) for i, s in enumerate(profile))
    oracle = WelfareOracle(bids)
    utils = np.zeros(self.players)
    sw = 0.0
    for (counts, p) in zip(self._atom_counts, self._atom_probs):
        out = run_mechanism(bids, counts, self.rule, self.lam, oracle=oracle)
        for i in range(self.players):
            u = value(self.true_values[i], out.allocation[i]) - out.payments[i]
            utils[i] += p * u
            sw += p * value(self.true_values[i], out.allocation[i])
    return _Stats(tuple(float(u) for u in utils), float(sw))


def reference_certify(ctx: GameContext, profile, tol: float = GAIN_TOL) -> Certification:
    """``GameContext.certify``, one deviation at a time: the profile's own
    expected utilities from ``stats``, each player's menu from its own table
    row, and the Monte Carlo differences of the largest gain from the
    per-atom ``outcomes`` rows of the profile and of the deviation."""
    profile = tuple(profile)
    base = ctx.stats(profile).utils
    worst_gain, witness = -math.inf, None
    for i in range(ctx.players):
        row = ctx._expect(ctx._game.table([profile], [[i]], ctx._supplies))[0, 0]
        for s in range(len(ctx.menu[i])):
            gain = float(row[s]) - base[i]
            if s != profile[i] and gain > worst_gain:
                worst_gain, witness = gain, (i, s)
    if witness is None:
        return Certification("exact-nash", 0.0, None)
    if ctx.exact:
        if worst_gain <= tol:
            return Certification("exact-nash", max(worst_gain, 0.0), None)
        return Certification("not-equilibrium", worst_gain, witness)
    i, s = witness
    trial = profile[:i] + (s,) + profile[i + 1 :]
    diffs = np.array([
        ctx._game.outcomes(trial, ctx._supplies)[0][i, n]
        - ctx._game.outcomes(profile, ctx._supplies)[0][i, n]
        for n in ctx._ns
    ])
    half = Z99 * float(diffs.std(ddof=1)) / math.sqrt(diffs.size)
    lo, hi = float(diffs.mean() - half), float(diffs.mean() + half)
    if lo > tol:
        return Certification("not-equilibrium", worst_gain, witness, (lo, hi))
    return Certification("eps-nash", max(worst_gain, 0.0), witness, (lo, hi))


def reference_run_learning(
    true_values,
    grids,
    model: MultiplicityModel,
    config: LearningConfig,
    rule: str = "english",
    lam: Optional[float] = None,
    seed: int = 0,
) -> LearningResult:
    """Simultaneous no-regret play over the strategy grids.

    Full-information mode runs multiplicative weights on payoffs normalized
    from [-bound, bound] to [0, 1]; each player's measured regret (on their
    own mixture, against the best fixed menu entry in hindsight) must stay
    within the documented budget, or the run raises: the bound is a theorem
    for correctly computed payoffs.  Bandit mode runs importance-weighted
    updates from own realized payoffs only; its regret is reported, not
    asserted.  A fresh copy-count draw is made every round.
    """
    players = len(true_values)
    if isinstance(grids, ScalingGrid):
        grids = [grids] * players
    menu = [g.strategies for g in grids]
    game = _auction(true_values, menu, model.goods, rule, lam)
    sizes = [len(m) for m in menu]
    # Per-player state is a players x (largest menu) array; mask marks the
    # entries each player's menu really has.
    size_col = np.array(sizes)[:, None]
    mask = np.arange(max(sizes)) < size_col
    rows = np.arange(players)
    size_groups = [(k, np.flatnonzero(size_col[:, 0] == k)) for k in sorted(set(sizes))]
    T = config.rounds
    chi = config.payoff_bound
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    etas = np.array(
        [math.sqrt(8.0 * math.log(k) / T) if k > 1 else 0.0 for k in sizes]
    )[:, None]
    explore = np.array([
        min(1.0, math.sqrt(k * math.log(k) / ((math.e - 1.0) * T))) if k > 1 else 0.0
        for k in sizes
    ])[:, None]
    scores = np.zeros(mask.shape)  # cumulative normalized payoffs
    cum_counter = np.zeros(mask.shape)  # per-strategy counterfactual sums
    cum_mixture = np.zeros(players)
    counts = np.zeros(mask.shape, dtype=int)
    welfare_sum = 0.0

    def hedge_mixture() -> np.ndarray:
        top = np.where(mask, scores, -np.inf).max(axis=1, keepdims=True)
        wts = np.where(mask, np.exp(etas * (scores - top)), 0.0)
        return wts / wts.sum(axis=1, keepdims=True)

    true_oracle = WelfareOracle(true_values)
    if support_size(model) <= 10_000:
        expected_opt = math.fsum(p * true_oracle.welfare(c) for c, p in iter_support(model))
    else:
        sample_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        expected_opt = float(
            np.mean(
                [true_oracle.welfare(sample(model, sample_rng)) for _ in range(2000)]
            )
        )

    for _ in range(T):
        n_t = sample(model, rng)
        mixtures = hedge_mixture()
        if config.feedback == "bandit":
            mixtures = np.where(mask, (1.0 - explore) * mixtures + explore / size_col, 0.0)
        u = rng.random(players)
        # Inverse-CDF draw: the count of cumulative weights at or below u.
        drawn = (np.cumsum(mixtures, axis=1) <= u[:, None]).sum(axis=1)
        actions = np.minimum(drawn, size_col[:, 0] - 1)

        uts, welfare = game.play(actions, n_t)
        over = np.abs(uts) > chi + 1e-9
        if over.any():
            raise ValueError(
                f"payoff bound {chi} does not cover player "
                f"{np.flatnonzero(over.any(axis=1))[0]}'s payoffs"
            )
        norm = np.where(mask, (uts + chi) / (2.0 * chi), 0.0)
        if config.feedback == "full":
            scores += norm
        else:
            scores[rows, actions] += norm[rows, actions] / mixtures[rows, actions]
        cum_counter += uts
        # One dot per player over its own menu, batched over the players
        # whose menus have one size: each is the same dot as a lone one.
        for k, group in size_groups:
            cum_mixture[group] += (mixtures[group, None, :k] @ uts[group, :k, None])[:, 0, 0]
        counts[rows, actions] += 1
        welfare_sum += welfare

    regrets = tuple(
        float(cum_counter[i, :k].max() - cum_mixture[i]) for i, k in enumerate(sizes)
    )
    budgets = tuple(
        config.regret_scale * math.sqrt(T * math.log(max(k, 2))) * chi for k in sizes
    )
    if config.feedback == "full":
        for i, (r, b) in enumerate(zip(regrets, budgets)):
            if r > b + 1e-9:
                raise InternalCheckError(
                    f"player {i} measured regret {r} exceeds budget {b}"
                )
    final_mix = hedge_mixture()
    return LearningResult(
        average_welfare=welfare_sum / T,
        expected_opt=expected_opt,
        regrets=regrets,
        regret_budgets=budgets,
        mixtures=tuple(tuple(final_mix[i, :k].tolist()) for i, k in enumerate(sizes)),
        play_counts=tuple(tuple(counts[i, :k].tolist()) for i, k in enumerate(sizes)),
        rounds=T,
    )


def _reference_item_weights(rng, vb: dict, goods: int) -> tuple[float, ...]:
    if vb["kind"] == "uniform":
        return tuple(float(x) for x in rng.uniform(vb["low"], vb["high"], goods))
    return tuple(float(vb["scale"] * (1.0 + x)) for x in rng.pareto(vb["shape"], goods))


def reference_draw_bidders(rng, gen: dict, count: int):
    """Random bidders, one weight draw per bidder."""
    out = []
    for _ in range(count):
        w = _reference_item_weights(rng, gen["values"], gen["goods"])
        if gen["family"] == "unit":
            out.append(UnitDemand(w))
        else:
            out.append(KDemand(w, gen.get("cap", 1)))
    return tuple(out)


def reference_welfare_draws(rng, gen: dict, model, bidders: int, draws: int) -> list[float]:
    """The audit's optimal welfare draws, one ``WelfareOracle`` per market."""
    sw_draws = []
    for _ in range(draws):
        vals = walrasian_modes._draw_bidders(rng, gen, bidders)
        counts = sample(model, rng)
        sw_draws.append(WelfareOracle(vals).welfare(counts))
    return sw_draws


def reference_audit(
    gen: dict, assumptions: dict, sweep_n: int, bidders: int, seq, samples: int = 400
) -> walrasian_modes.AssumptionAudit:
    """``walrasian_modes.audit_assumptions`` as it was before one-good markets were
    valued on arrays: one ``WelfareOracle`` per drawn market."""
    rng = np.random.default_rng(seq)
    zeta = assumptions["zeta"]
    rho_prime = assumptions["rho_prime"]
    goods = gen["goods"]

    draws = walrasian_modes._draw_item_weights(rng, gen["values"], (samples, goods))
    per_item = draws.mean(axis=0)
    per_item_se = draws.std(axis=0, ddof=1) / math.sqrt(samples)
    zeta_hat = float(per_item.max())
    slack = 3.0 * float(per_item_se.max())
    bounded_value_ok = zeta_hat <= zeta + slack
    best_item_hat = zeta_hat
    value_floor_ok = best_item_hat >= rho_prime - slack
    best_draw = draws.max(axis=1)
    cap_hat = float(best_draw.mean())
    cap_se = float(best_draw.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    item_expectation_cap_ok = cap_hat <= goods * zeta + 3.0 * cap_se

    model = walrasian_modes._build_model(gen, sweep_n)
    mu = mean_counts(model)
    sd = std_counts(model)
    if np.any(mu <= 0):
        spread_slack, copies_share, size_ok = 0.0, 0.0, False
    else:
        spread_slack = float(np.min(1.0 - sd / mu))
        copies_share = float(np.min(mu / sweep_n))
        size_ok = spread_slack > 0.0 and copies_share > 0.0

    if size_ok:
        welfare_rate = floor_rate(spread_slack, copies_share, rho_prime)
    else:
        welfare_rate = 0.0
    sw = np.array(reference_welfare_draws(rng, gen, model, bidders, 200))
    sw_opt_hat = float(sw.mean())
    sw_se = float(sw.std(ddof=1) / math.sqrt(sw.size))
    welfare_ok = size_ok and sw_opt_hat >= welfare_rate * sweep_n - 3.0 * sw_se

    peak = max_point_mass(model)
    flag = peak >= 1.0 - 1e-12
    suppress = (not bounded_value_ok) or (not welfare_ok) or flag
    return walrasian_modes.AssumptionAudit(
        sweep=sweep_n,
        zeta=zeta,
        zeta_hat=zeta_hat,
        bounded_value_ok=bounded_value_ok,
        rho_prime=rho_prime,
        best_item_hat=best_item_hat,
        value_floor_ok=value_floor_ok,
        spread_slack=spread_slack,
        copies_share=copies_share,
        size_ok=size_ok,
        welfare_rate=welfare_rate,
        sw_opt_hat=sw_opt_hat,
        welfare_ok=welfare_ok,
        item_expectation_cap_ok=item_expectation_cap_ok,
        point_mass=peak,
        point_mass_flag=flag,
        suppress_bounds=suppress,
    )


@dataclass(frozen=True)
class SingleMinded:
    """A bidder who values every bundle holding ``want`` at ``worth`` and
    any other bundle at 0.  The goods of ``want`` are complements, so the
    valuation is not gross substitutes."""

    want: Bundle
    worth: float

    @property
    def m(self) -> int:
        return len(self.want)

    @property
    def cap(self) -> int:
        return sum(self.want)

    def value(self, bundle) -> float:
        return self.worth if all(c >= w for c, w in zip(bundle, self.want)) else 0.0


def demand_set(v, prices, tol: float = 0.0) -> tuple[Bundle, ...]:
    """All quasi-linear-utility-maximizing bundles at ``prices``.

    Enumerates bundles with at most ``v.cap`` items, which is sufficient
    because extra items never add value. Ties within ``tol`` of the maximum
    are all returned, in lexicographic bundle order.
    """
    if len(prices) != v.m:
        raise ValueError("price vector length mismatch")
    best = -math.inf
    utilities = []
    for b in bundles_upto(v.m, v.cap):
        worth = v.value(b) if isinstance(v, SingleMinded) else _value(v, b)
        u = worth - bundle_cost(b, prices)
        utilities.append((b, u))
        best = max(best, u)
    return tuple(b for b, u in utilities if u >= best - tol)


def check_gross_substitutes(v, axes):
    """Test the substitutes property of demand on a finite price grid.

    ``axes`` gives candidate prices per good; the grid is their product. For
    every grid price p, every demanded bundle x, and every single-coordinate
    raise q_j > p_j along the same axis, some bundle demanded at the raised
    prices must retain x's counts on all other goods. Returns ``(True, None)``
    or ``(False, witness)`` with witness ``(p, x, j, q_j)``.
    """
    axes = [sorted(float(q) for q in ax) for ax in axes]
    if len(axes) != v.m or any(len(ax) == 0 for ax in axes):
        raise ValueError("need one nonempty price axis per good")
    cache: dict[tuple, tuple[Bundle, ...]] = {}

    def demands(p):
        if p not in cache:
            cache[p] = demand_set(v, p)
        return cache[p]

    for p in itertools.product(*axes):
        for x in demands(p):
            for j in range(v.m):
                for q in axes[j]:
                    if q <= p[j]:
                        continue
                    raised = p[:j] + (q,) + p[j + 1 :]
                    ok = any(
                        all(y[h] >= x[h] for h in range(v.m) if h != j)
                        for y in demands(raised)
                    )
                    if not ok:
                        return False, (p, x, j, q)
    return True, None


def assert_valid_outcome(bids, outcome, tol=1e-9):
    """Raise on validation failure; for profiles known to be substitutes."""
    ok, problems = validate_outcome(bids, outcome, tol)
    if not ok:
        raise InternalCheckError("; ".join(problems))


# -- the schema before the mode registry ---------------------------------------------


_WAL_MODES = ("poa_sweep", "validity", "lemmas", "bullying", "regret", "oracle")
_FISHER_MODES = ("poa", "reserve", "regret")
_LEMMAS = (
    "unstable-count",
    "within-count",
    "event-probability",
    "price-floor",
    "price-bracket",
    "smooth",
)


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


def _need(obj: dict, path: str, key: str, kinds, check=None):
    if key not in obj:
        _fail(path, f"missing required key '{key}'")
    return _typed(obj[key], f"{path}.{key}", kinds, check)


def _opt(obj: dict, path: str, key: str, kinds, default, check=None):
    if key not in obj:
        return default
    return _typed(obj[key], f"{path}.{key}", kinds, check)


def _typed(val, path: str, kinds, check):
    if kinds is bool:
        ok = isinstance(val, bool)
    elif kinds is int:
        ok = isinstance(val, int) and not isinstance(val, bool)
    elif kinds is float:
        ok = isinstance(val, (int, float)) and not isinstance(val, bool)
    else:
        ok = isinstance(val, kinds)
    if not ok:
        name = kinds.__name__ if hasattr(kinds, "__name__") else str(kinds)
        _fail(path, f"expected {name}, got {type(val).__name__}")
    if kinds is float:
        if not math.isfinite(val):
            _fail(path, f"must be a finite number, got {val}")
        val = float(val)
    if check is not None:
        err = check(val)
        if err:
            _fail(path, err)
    return val


def _no_extras(obj: dict, path: str, allowed):
    for key in obj:
        if key not in allowed:
            _fail(path, f"unknown key '{key}'")


def _int_list(obj, path, key, minimum, required=True):
    if key not in obj:
        if required:
            _fail(path, f"missing required key '{key}'")
        return None
    vals = _typed(obj[key], f"{path}.{key}", list, None)
    if not vals:
        _fail(f"{path}.{key}", "must be non-empty")
    out = []
    for i, v in enumerate(vals):
        out.append(_typed(v, f"{path}.{key}[{i}]", int, None))
        if out[-1] < minimum:
            _fail(f"{path}.{key}[{i}]", f"must be >= {minimum}")
    return tuple(out)


def _float_list(obj, path, key, default, lo, hi):
    if key not in obj:
        return default
    vals = _typed(obj[key], f"{path}.{key}", list, None)
    out = []
    for i, v in enumerate(vals):
        x = _typed(v, f"{path}.{key}[{i}]", float, None)
        if not lo < x < hi:
            _fail(f"{path}.{key}[{i}]", f"must lie in ({lo}, {hi})")
        out.append(x)
    return tuple(out)


def _check_values_block(vb: dict, path: str):
    kind = _need(vb, path, "kind", str, lambda k: None if k in ("uniform", "pareto") else "must be 'uniform' or 'pareto'")
    if kind == "uniform":
        _no_extras(vb, path, ("kind", "low", "high"))
        low = _need(vb, path, "low", float, lambda x: None if x > 0 else "must be > 0")
        high = _need(vb, path, "high", float, lambda x: None if x > 0 else "must be > 0")
        if high < low:
            _fail(f"{path}.high", "must be >= low")
    else:
        _no_extras(vb, path, ("kind", "shape", "scale"))
        _need(vb, path, "shape", float, lambda x: None if x > 1 else "must be > 1 for a finite mean")
        _need(vb, path, "scale", float, lambda x: None if x > 0 else "must be > 0")


def _check_auction_generator(gen: dict, path: str):
    _no_extras(gen, path, ("family", "cap", "goods", "bidders", "values", "supply"))
    family = _need(gen, path, "family", str, lambda f: None if f in ("unit", "kdemand") else "must be 'unit' or 'kdemand'")
    goods = _need(gen, path, "goods", int, lambda g: None if g >= 1 else "must be >= 1")
    cap = _opt(gen, path, "cap", int, 1, lambda c: None if c >= 1 else "must be >= 1")
    if family == "unit" and cap != 1:
        _fail(f"{path}.cap", "unit-demand bidders hold one item")
    bidders = gen.get("bidders", "sweep")
    if bidders != "sweep":
        _typed(bidders, f"{path}.bidders", int, lambda b: None if b >= 1 else "must be >= 1")
    vb = _need(gen, path, "values", dict, None)
    _check_values_block(vb, f"{path}.values")
    sup = _need(gen, path, "supply", dict, None)
    kind = _need(sup, f"{path}.supply", "kind", str, lambda k: None if k in ("binomial", "fixed") else "must be 'binomial' or 'fixed'")
    if kind == "binomial":
        _no_extras(sup, f"{path}.supply", ("kind", "prob"))
        _need(sup, f"{path}.supply", "prob", float, lambda p: None if 0 < p < 1 else "must lie in (0, 1)")
    else:
        _no_extras(sup, f"{path}.supply", ("kind", "counts"))
        counts = _int_list(sup, f"{path}.supply", "counts", 0)
        if len(counts) != goods:
            _fail(f"{path}.supply.counts", f"needs one count per good ({goods})")


def _check_corpus_block(gen: dict, path: str, defaults: dict):
    allowed = ("max_bidders", "max_goods", "max_cap", "max_copies", "low", "high")
    _no_extras(gen, path, allowed)
    out = dict(defaults)
    for key in ("max_bidders", "max_goods", "max_cap", "max_copies"):
        out[key] = _opt(gen, path, key, int, defaults[key], lambda v: None if v >= 1 else "must be >= 1")
    out["low"] = _opt(gen, path, "low", float, defaults["low"], lambda v: None if v > 0 else "must be > 0")
    out["high"] = _opt(gen, path, "high", float, defaults["high"], lambda v: None if v > 0 else "must be > 0")
    if out["high"] < out["low"]:
        _fail(f"{path}.high", "must be >= low")
    return out


def _check_assumptions_block(blk: dict, path: str):
    _no_extras(blk, path, ("zeta", "rho_prime"))
    _need(blk, path, "zeta", float, lambda z: None if z > 0 else "must be > 0")
    _need(blk, path, "rho_prime", float, lambda r: None if r > 0 else "must be > 0")


def _check_grid_block(grid: dict, path: str):
    _no_extras(grid, path, ("scales", "offsets"))
    scales = grid.get("scales")
    if not isinstance(scales, list) or not scales:
        _fail(f"{path}.scales", "must be a non-empty list")
    vals = []
    for i, s in enumerate(scales):
        vals.append(_typed(s, f"{path}.scales[{i}]", float, lambda x: None if x >= 0 else "must be >= 0"))
    if 1.0 not in vals:
        _fail(f"{path}.scales", "must include the truthful scale 1.0")
    if len(set(vals)) != len(vals):
        _fail(f"{path}.scales", "must not repeat an entry")
    if "offsets" in grid:
        offs = _typed(grid["offsets"], f"{path}.offsets", list, None)
        ovals = [
            _typed(o, f"{path}.offsets[{i}]", float, lambda x: None if x >= 0 else "must be >= 0")
            for i, o in enumerate(offs)
        ]
        if 0.0 not in ovals:
            _fail(f"{path}.offsets", "must include the zero offset")
        if len(set(ovals)) != len(ovals):
            _fail(f"{path}.offsets", "must not repeat an entry")


def _check_rule(spec: dict, path: str):
    rule = _opt(spec, path, "rule", str, "english", lambda r: None if r in ("english", "dutch", "mix") else "must be english, dutch, or mix")
    if rule == "mix":
        _need(spec, path, "lam", float, lambda x: None if 0 <= x <= 1 else "must lie in [0, 1]")
    elif "lam" in spec:
        _fail(f"{path}.lam", "only the mix rule takes a blend weight")


_COMMON_KEYS = ("id", "setting", "mode", "sweep", "seeds", "csv")


def _validate_scenario(raw: dict, path: str, index: int) -> Scenario:
    _typed(raw, path, dict, None)
    sid = _need(raw, path, "id", str, lambda s: None if s and all(c.isalnum() or c == "_" for c in s) else "must be non-empty [a-z0-9_]")
    setting = _need(raw, path, "setting", str, lambda s: None if s in ("walrasian", "fisher") else "must be 'walrasian' or 'fisher'")
    modes = _WAL_MODES if setting == "walrasian" else _FISHER_MODES
    mode = _need(raw, path, "mode", str, lambda m: None if m in modes else f"must be one of {modes} for setting '{setting}'")
    sweep = _int_list(raw, path, "sweep", 1)
    seeds = _int_list(raw, path, "seeds", 0)
    csv_name = _opt(raw, path, "csv", str, sid + ".csv", None)

    spec = {k: v for k, v in raw.items() if k not in _COMMON_KEYS}
    sp = path
    if setting == "walrasian":
        if mode == "poa_sweep":
            _no_extras(spec, sp, ("generator", "assumptions", "grid", "restarts", "trend_check", "rule", "lam"))
            _check_auction_generator(_need(spec, sp, "generator", dict, None), f"{sp}.generator")
            _check_assumptions_block(_need(spec, sp, "assumptions", dict, None), f"{sp}.assumptions")
            _check_grid_block(_need(spec, sp, "grid", dict, None), f"{sp}.grid")
            _opt(spec, sp, "restarts", int, 32, lambda r: None if r >= 1 else "must be >= 1")
            _opt(spec, sp, "trend_check", bool, False, None)
            _check_rule(spec, sp)
            if spec["generator"]["supply"]["kind"] != "binomial":
                _fail(f"{sp}.generator.supply.kind", "poa_sweep sweeps binomial trial counts")
        elif mode == "validity":
            _no_extras(spec, sp, ("generator", "mix_weight"))
            spec["generator"] = _check_corpus_block(
                _opt(spec, sp, "generator", dict, {}, None), f"{sp}.generator",
                {"max_bidders": 5, "max_goods": 3, "max_cap": 2, "max_copies": 4, "low": 0.1, "high": 1.0},
            )
            _opt(spec, sp, "mix_weight", float, 0.5, lambda x: None if 0 <= x <= 1 else "must lie in [0, 1]")
        elif mode == "lemmas":
            _no_extras(spec, sp, ("generator", "lemmas", "min_applied"))
            spec["generator"] = _check_corpus_block(
                _opt(spec, sp, "generator", dict, {}, None), f"{sp}.generator",
                {"max_bidders": 5, "max_goods": 2, "max_cap": 2, "max_copies": 8, "low": 0.3, "high": 1.0},
            )
            lemmas = spec.get("lemmas", list(_LEMMAS))
            _typed(lemmas, f"{sp}.lemmas", list, None)
            for i, name in enumerate(lemmas):
                _typed(name, f"{sp}.lemmas[{i}]", str, lambda n: None if n in _LEMMAS else f"must be one of {_LEMMAS}")
            spec["lemmas"] = list(lemmas)
            _opt(spec, sp, "min_applied", int, 0, lambda v: None if v >= 0 else "must be >= 0")
        elif mode == "bullying":
            _no_extras(spec, sp, ())
        elif mode == "regret":
            _no_extras(spec, sp, ("generator", "assumptions", "grid", "players", "rounds", "feedback", "rule", "lam"))
            _check_auction_generator(_need(spec, sp, "generator", dict, None), f"{sp}.generator")
            _check_assumptions_block(_need(spec, sp, "assumptions", dict, None), f"{sp}.assumptions")
            _check_grid_block(_need(spec, sp, "grid", dict, None), f"{sp}.grid")
            _need(spec, sp, "players", int, lambda p: None if p >= 1 else "must be >= 1")
            _need(spec, sp, "rounds", int, lambda t: None if t >= 1 else "must be >= 1")
            _opt(spec, sp, "feedback", str, "full", lambda f: None if f in ("full", "bandit") else "must be 'full' or 'bandit'")
            _check_rule(spec, sp)
            if spec["generator"].get("bidders", "sweep") != "sweep":
                _fail(f"{sp}.generator.bidders", "regret mode sizes the market by 'players'")
        elif mode == "oracle":
            _no_extras(spec, sp, ("generator",))
            spec["generator"] = _check_corpus_block(
                _opt(spec, sp, "generator", dict, {}, None), f"{sp}.generator",
                {"max_bidders": 4, "max_goods": 3, "max_cap": 2, "max_copies": 3, "low": 0.1, "high": 1.0},
            )
    else:
        gen = _need(spec, sp, "generator", dict, None)
        gp = f"{sp}.generator"
        _no_extras(gen, gp, ("goods", "family", "rho", "budgets", "weight_low", "weight_high"))
        _need(gen, gp, "goods", int, lambda g: None if g >= 1 else "must be >= 1")
        family = _need(gen, gp, "family", str, lambda f: None if f in ("cobb_douglas", "linear", "ces") else "must be cobb_douglas, linear, or ces")
        if family == "ces":
            _need(gen, gp, "rho", float, lambda r: None if 0 < r < 1 else "must lie in (0, 1)")
        elif "rho" in gen:
            _fail(f"{gp}.rho", "only the ces family takes a curvature parameter")
        wl = _opt(gen, gp, "weight_low", float, 0.2, lambda v: None if v > 0 else "must be > 0")
        wh = _opt(gen, gp, "weight_high", float, 1.0, lambda v: None if v > 0 else "must be > 0")
        if wh < wl:
            _fail(f"{gp}.weight_high", "must be >= weight_low")
        if "budgets" in gen:
            budgets = _typed(gen["budgets"], f"{gp}.budgets", list, None)
            if not budgets:
                _fail(f"{gp}.budgets", "must be non-empty")
            for i, b in enumerate(budgets):
                _typed(b, f"{gp}.budgets[{i}]", float, lambda x: None if x > 0 else "must be > 0")
            if len(sweep) != 1:
                _fail(f"{gp}.budgets", "an explicit budget list fixes the market; use a single sweep value")
        spec["deltas"] = _float_list(spec, sp, "deltas", (0.05, 0.1, 0.2), 0.0, 1.0)
        _opt(spec, sp, "restarts", int, 8, lambda r: None if r >= 1 else "must be >= 1")
        if mode == "poa":
            _no_extras(spec, sp, ("generator", "deltas", "restarts", "rescale"))
            _opt(spec, sp, "rescale", bool, True, None)
        elif mode == "reserve":
            _no_extras(spec, sp, ("generator", "deltas", "restarts", "reserve_fraction", "compress_trials"))
            _opt(spec, sp, "reserve_fraction", float, 0.25, lambda x: None if 0 < x <= 0.25 else "must lie in (0, 0.25]")
            _opt(spec, sp, "compress_trials", int, 10, lambda v: None if v >= 0 else "must be >= 0")
        elif mode == "regret":
            _no_extras(spec, sp, ("generator", "deltas", "rounds", "reserve_fraction"))
            _need(spec, sp, "rounds", int, lambda t: None if t >= 1 else "must be >= 1")
            _opt(spec, sp, "reserve_fraction", float, 0.25, lambda x: None if 0 < x <= 0.25 else "must lie in (0, 0.25]")

    return Scenario(index, sid, setting, mode, sweep, seeds, csv_name, spec)


def reference_parse_config(cfg) -> list[Scenario]:
    """``harness.parse_config`` as it was when each mode was spread over the
    schema chain, the column and runner tables: the fuzz test's reference."""
    _typed(cfg, "config", dict, None)
    _no_extras(cfg, "config", ("schema_version", "scenarios"))
    version = _need(cfg, "config", "schema_version", int, None)
    if version != SCHEMA_VERSION:
        _fail("config.schema_version", f"this build reads version {SCHEMA_VERSION}, got {version}")
    raw = _need(cfg, "config", "scenarios", list, None)
    if not raw:
        _fail("config.scenarios", "must be non-empty")
    scenarios = [
        _validate_scenario(entry, f"config.scenarios[{i}]", i) for i, entry in enumerate(raw)
    ]
    seen = {}
    for i, sc in enumerate(scenarios):
        if sc.id in seen:
            _fail(f"config.scenarios[{i}].id", f"duplicate id '{sc.id}' (also scenarios[{seen[sc.id]}])")
        seen[sc.id] = i
    return scenarios


def _reference_unstable(oracle, supply, good, threshold, ceiling) -> bool:
    bumped = tuple(c + 1 if j == good else c for j, c in enumerate(supply))
    return truncated_distance(oracle.english(supply), oracle.english(bumped), ceiling) > threshold


def _reference_unstable_within(oracle, supply, good, params: ProbeParams) -> bool:
    return any(
        _reference_unstable(oracle, below, good, params.threshold, params.ceiling)
        for below in deficit_vectors(supply, params.slack)
    )


def reference_slice_counts(oracle, rest, good, params: ProbeParams) -> tuple[int, int]:
    """``sensitivity.count_unstable_slice``'s (unstable, within-slack) counts,
    every probe recomputed, without the bound checks."""
    plain = within = 0
    for nj in range(params.search_box + 1):
        supply = tuple(rest[:good]) + (nj,) + tuple(rest[good:])
        plain += _reference_unstable(oracle, supply, good, params.threshold, params.ceiling)
        within += _reference_unstable_within(oracle, supply, good, params)
    return plain, within


def reference_event_probability(
    bids, model: MultiplicityModel, params: ProbeParams, rng=None, draws=2000, exact_limit=20_000
) -> float:
    """``sensitivity.unstable_event_probability``'s probability, every probe
    recomputed: exact over the support, or the hit frequency of ``draws``."""
    oracle = WelfareOracle(bids)

    def hit(counts) -> bool:
        return min(counts) <= params.slack or any(
            _reference_unstable_within(oracle, counts, j, params) for j in range(oracle.m)
        )

    if support_size(model) <= exact_limit:
        return math.fsum(p for counts, p in iter_support(model) if hit(counts))
    return sum(hit(sample(model, rng)) for _ in range(draws)) / draws
