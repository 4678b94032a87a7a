import dataclasses
import itertools
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketlab import fisher
from marketlab.errors import InternalCheckError, SolverError
from marketlab.fisher import (
    FisherLearningResult,
    FisherMarket,
    _ReportGame,
    compress_prices,
    perturbed_reports,
    poa_search,
    rescale_to_unit,
    run_market_learning,
    solve_market,
    strategic_outcome,
    strategic_outcomes,
    verify_price_shift,
    verify_utility_floor,
)
from marketlab.dynamics import _Hedge
from marketlab.valuations import CES, CobbDouglas, Linear, fisher_demand, utility

from oracles import (
    eg_grid_oracle,
    eg_objective,
    linear_support_oracle,
    reference_best_response,
    reference_check,
    reference_find_equilibria,
    reference_is_nash,
    reference_outcome,
    reference_solve_linear,
    reference_table,
)


def cd(*weights, scale=1.0):
    return CobbDouglas(tuple(weights), scale)


# -- closed form and frozen examples ------------------------------------------


def test_separable_cobb_douglas_splits_cleanly():
    market = FisherMarket((1.0, 1.0), (cd(1.0, 0.0), cd(0.0, 1.0)))
    eq = solve_market(market)
    assert eq.prices == pytest.approx((1.0, 1.0))
    assert eq.allocation[0] == pytest.approx((1.0, 0.0))
    assert eq.allocation[1] == pytest.approx((0.0, 1.0))


def test_shared_cobb_douglas_prices_follow_budget_mass():
    market = FisherMarket((2.0, 1.0), (cd(0.5, 0.5), cd(0.5, 0.5)))
    eq = solve_market(market)
    assert eq.prices == pytest.approx((1.5, 1.5))
    assert eq.allocation[0] == pytest.approx((2 / 3, 2 / 3))
    assert eq.allocation[1] == pytest.approx((1 / 3, 1 / 3))


def test_linear_single_desired_good_splits_evenly():
    market = FisherMarket((1.0, 1.0), (Linear((1.0, 0.0)), Linear((1.0, 0.0))))
    eq = solve_market(market)
    assert eq.prices[0] == pytest.approx(2.0)
    assert eq.prices[1] <= 1e-10  # nobody wants it; floored and flagged
    assert eq.floored == (1,)
    assert eq.allocation[0][0] == pytest.approx(0.5, abs=1e-6)
    assert eq.allocation[1][0] == pytest.approx(0.5, abs=1e-6)


def test_reserve_floor_inactive_when_demand_covers_it():
    market = FisherMarket((1.0,), (Linear((1.0,)),), reserves=(0.2,))
    eq = solve_market(market)
    assert eq.prices == pytest.approx((1.0,))
    assert eq.allocation[0] == pytest.approx((1.0,))
    assert eq.unsold == pytest.approx((0.0,))


def test_reserve_floor_binds_and_leaves_supply_unsold():
    market = FisherMarket(
        (1.0, 1.0),
        (cd(0.9, 0.1), cd(0.95, 0.05)),
        reserves=(0.0, 0.5),
    )
    eq = solve_market(market)
    # Budget mass on the second good is 0.15 < 0.5, so the floor holds.
    assert eq.prices == pytest.approx((1.85, 0.5))
    assert eq.unsold[1] == pytest.approx(0.7)
    assert eq.allocation[0][1] == pytest.approx(0.2)
    # The grid maximizer of the reserve objective agrees.
    obj = eg_objective(market.budgets, market.utilities, np.asarray(eq.allocation), market.reserves)
    oracle_obj, _ = eg_grid_oracle(market.budgets, market.utilities, market.reserves)
    assert obj >= oracle_obj - 1e-5


def test_closed_form_beats_grid_oracle_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(6):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        budgets = tuple(float(b) for b in rng.uniform(0.5, 2.0, n))
        utils = []
        for _ in range(n):
            w = rng.uniform(0.2, 1.0, m)
            utils.append(cd(*(w / w.sum())))
        market = FisherMarket(budgets, tuple(utils))
        eq = solve_market(market)
        got = eg_objective(budgets, tuple(utils), np.asarray(eq.allocation))
        want, _ = eg_grid_oracle(budgets, tuple(utils))
        assert got >= want - 1e-5


def test_proportional_response_matches_grid_oracle():
    rng = np.random.default_rng(12)
    for _ in range(4):
        budgets = (1.0, float(rng.uniform(0.5, 2.0)))
        utils = (
            Linear((1.0, float(rng.uniform(0.2, 0.9)))),
            Linear((float(rng.uniform(0.2, 0.9)), 1.0)),
        )
        market = FisherMarket(budgets, utils)
        eq = solve_market(market)
        assert type(eq.iterations) is int  # as JSON writers need
        assert eq.iterations < 10_000
        assert max(abs(z) for z in eq.excess) <= 1e-6
        got = eg_objective(budgets, utils, np.asarray(eq.allocation))
        want, _ = eg_grid_oracle(budgets, utils)
        assert got >= want - 1e-5


def test_ces_price_adjustment_clears_the_market():
    market = FisherMarket(
        (1.0, 2.0),
        (CES((0.6, 0.4), 0.5), CES((0.3, 0.7), 0.5)),
    )
    eq = solve_market(market)
    assert max(abs(z) for z in eq.excess) <= 1e-6
    assert sum(eq.prices) == pytest.approx(3.0, abs=1e-5)
    got = eg_objective(market.budgets, market.utilities, np.asarray(eq.allocation))
    want, _ = eg_grid_oracle(market.budgets, market.utilities)
    assert got >= want - 1e-4


def test_budget_homogeneity_scales_prices_not_bundles():
    base = FisherMarket(
        (1.0, 2.0, 0.5),
        (cd(0.5, 0.5), cd(0.8, 0.2), cd(0.3, 0.7)),
    )
    ref = solve_market(base)
    for alpha in (0.5, 3.0):
        scaled = FisherMarket(
            tuple(alpha * e for e in base.budgets), base.utilities
        )
        eq = solve_market(scaled)
        for p, p0 in zip(eq.prices, ref.prices):
            assert p == pytest.approx(alpha * p0, abs=1e-8)
        for row, row0 in zip(eq.allocation, ref.allocation):
            assert row == pytest.approx(row0, abs=1e-8)


def test_market_validation():
    with pytest.raises(ValueError):
        FisherMarket((), ())
    with pytest.raises(ValueError):
        FisherMarket((1.0, -1.0), (cd(1.0), cd(1.0)))
    with pytest.raises(ValueError):
        FisherMarket((1.0,), (cd(0.5, 0.5),), reserves=(0.1,))
    with pytest.raises(SolverError):
        solve_market(
            FisherMarket((1.0, 1.0), (Linear((1.0, 0.5)), cd(0.5, 0.5)))
        )
    market = FisherMarket((2.0, 6.0), (cd(1.0), cd(1.0)))
    assert market.largeness == pytest.approx(8 / 6)


# -- strategic outcomes ---------------------------------------------------------


def test_truthful_reports_reproduce_equilibrium_utilities():
    market = FisherMarket((2.0, 1.0), (cd(0.5, 0.5), cd(0.2, 0.8)))
    eq = solve_market(market)
    _, utils = strategic_outcome(market, market.utilities)
    assert utils == pytest.approx(eq.utilities)


def test_misreport_payoff_follows_closed_form():
    # Buyer 1 tilts toward the good buyer 2 barely wants; prices come from
    # the reported mass, the bundle is valued truthfully.
    market = FisherMarket((1.0, 1.0), (cd(0.5, 0.5), cd(0.9, 0.1)))
    report = cd(0.3, 0.7)
    eq, utils = strategic_outcome(market, (report, market.utilities[1]))
    assert eq.prices == pytest.approx((1.2, 0.8))
    x0 = (0.3 / 1.2, 0.7 / 0.8)
    assert eq.allocation[0] == pytest.approx(x0)
    assert utils[0] == pytest.approx(utility(market.utilities[0], np.asarray(x0)))


def test_single_buyer_takes_everything_under_any_report():
    market = FisherMarket((3.0,), (cd(0.4, 0.6),))
    _, truthful = strategic_outcome(market, market.utilities)
    for report in perturbed_reports(market.utilities[0]):
        _, utils = strategic_outcome(market, (report,))
        assert utils[0] == pytest.approx(truthful[0])


# -- scaling --------------------------------------------------------------------


def test_rescaled_market_hits_unit_ratio():
    market = FisherMarket((2.0, 1.0), (cd(0.5, 0.5), cd(0.2, 0.8)))
    before = solve_market(market)
    ratios = [u / e for u, e in zip(before.utilities, market.budgets)]
    assert max(ratios) - min(ratios) > 1e-6
    scaled = solve_market(rescale_to_unit(market))
    assert scaled.utilities == pytest.approx(market.budgets, abs=1e-6)
    assert scaled.prices == pytest.approx(before.prices)


# -- report grids ----------------------------------------------------------------


def test_perturbed_reports_collapse_on_one_good():
    assert perturbed_reports(Linear((1.0,))) == (Linear((1.0,)),)


def test_perturbed_reports_cover_both_shifts():
    menu = perturbed_reports(cd(0.5, 0.5), deltas=(0.2,))
    assert len(menu) == 5  # truth + 2 goods x 2 signs
    assert menu[0] == cd(0.5, 0.5)
    for rep in menu:
        assert sum(rep.a) == pytest.approx(1.0)


# -- price of anarchy -------------------------------------------------------------


def test_truthful_only_grid_gives_ratio_one():
    market = FisherMarket((1.0, 1.0), (cd(1.0), cd(1.0)))
    out = poa_search(market, deltas=())
    assert out.gm_ratio == pytest.approx(1.0)
    assert out.sum_ratio == pytest.approx(1.0)
    assert out.stated_bound is None
    assert out.holds


def test_identical_buyers_stay_above_the_welfare_floor():
    market = FisherMarket(
        tuple([1.0] * 8), tuple([cd(0.5, 0.5)] * 8)
    )
    out = poa_search(market, deltas=(0.2,), rng=np.random.default_rng(3))
    assert out.bound == pytest.approx(math.exp(-0.25))
    assert out.gm_ratio >= out.bound - 1e-9
    assert out.sum_ratio >= out.bound - 1e-9
    assert out.equilibria >= 1
    assert out.holds


def test_poa_search_gives_reserve_markets_the_reserve_floor():
    plain = FisherMarket((1.0, 2.0), (cd(0.5, 0.5), cd(0.3, 0.7)))
    reserved = FisherMarket(plain.budgets, plain.utilities, reserves=(0.1, 0.1))
    L = plain.largeness
    assert poa_search(plain).bound == pytest.approx(math.exp(-2 / L))
    out = poa_search(reserved)
    assert out.bound == pytest.approx(math.exp(-4 / L))
    assert out.stated_bound == pytest.approx(math.exp(-4 / (5 * L)))


@pytest.mark.parametrize("reserves", (None, (0.2, 0.2)))
def test_the_floor_is_decided_on_the_worst_ratios(monkeypatch, reserves):
    market = FisherMarket((1.0,) * 4, (cd(0.5, 0.5), cd(0.3, 0.7)) * 2, reserves)
    out = poa_search(market, deltas=(0.2,))
    assert out.equilibria >= 1
    bound = out.bound

    def shifted(gm, sm):
        # Moves the geometric-mean and sum ratios to the given multiples of
        # the floor.
        monkeypatch.setattr(fisher, "_ratio_pair", lambda *a: (gm * bound, sm * bound))
        return poa_search(market, deltas=(0.2,))

    assert shifted(1.0, 1.0).holds
    assert not shifted(1.0, 0.99).holds
    # Only the sum ratio counts with reserves.
    assert shifted(0.99, 1.0).holds == (reserves is not None)


# -- price shift lemmas -----------------------------------------------------------


def test_price_shift_checks_on_random_markets():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        budgets = tuple(float(b) for b in rng.uniform(0.5, 2.0, n))
        if rng.random() < 0.5:
            utils = []
            for _ in range(n):
                w = rng.uniform(0.1, 1.0, m)
                utils.append(cd(*(w / w.sum())))
            utils = tuple(utils)
        else:
            utils = tuple(
                Linear(tuple(float(x) for x in rng.uniform(0.1, 1.0, m)))
                for _ in range(n)
            )
        market = FisherMarket(budgets, utils)
        i = int(rng.integers(0, n))
        menu = perturbed_reports(utils[i])
        report = menu[int(rng.integers(0, len(menu)))]
        reports = tuple(report if h == i else u for h, u in enumerate(utils))
        verdict = verify_price_shift(market, reports, i)
        assert verdict.ok, verdict.detail


def test_price_shift_single_buyer_edge():
    market = FisherMarket((1.5,), (cd(0.5, 0.5),))
    assert verify_price_shift(market, market.utilities, 0).ok


def test_utility_floor_truthful_has_slack():
    market = FisherMarket((1.0, 2.0), (cd(0.5, 0.5), cd(0.3, 0.7)))
    verdict = verify_utility_floor(market, market.utilities)
    assert verdict.ok
    assert "slack" in verdict.detail


def test_utility_floor_on_random_misreports():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        budgets = tuple(float(b) for b in rng.uniform(0.5, 2.0, n))
        utils = []
        for _ in range(n):
            w = rng.uniform(0.1, 1.0, 2)
            utils.append(cd(*(w / w.sum())))
        market = FisherMarket(budgets, tuple(utils))
        reports = []
        for u in utils:
            menu = perturbed_reports(u)
            reports.append(menu[int(rng.integers(0, len(menu)))])
        verdict = verify_utility_floor(market, tuple(reports))
        assert verdict.ok, verdict.detail


# -- compressed prices -------------------------------------------------------------


def test_compression_waterfills_the_example():
    prices, t = compress_prices((0.2, 1.8), (1.0, 1.0), 0.5, 2.0)
    assert prices == pytest.approx((0.5, 1.5), abs=1e-9)
    assert t == pytest.approx(1.5, abs=1e-9)


def test_compression_fixes_equilibrium_prices():
    prices, t = compress_prices((1.0, 1.0), (1.0, 1.0), 0.25, 2.0)
    assert prices == pytest.approx((1.0, 1.0))
    assert t == pytest.approx(1.0)


def test_compression_single_good_is_forced():
    prices, _ = compress_prices((3.0,), (3.0,), 0.5, 3.0)
    assert prices == pytest.approx((3.0,))


def test_compression_random_invariants():
    rng = np.random.default_rng(41)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        ps = rng.uniform(0.2, 2.0, m)
        total = float(ps.sum())
        q = rng.uniform(0.05, 1.0, m)
        q *= total / q.sum()
        low = float(rng.uniform(0.05, 0.8))
        prices, t = compress_prices(tuple(q), tuple(ps), low, total)
        assert sum(prices) == pytest.approx(total, abs=1e-10 * max(1.0, total))
        assert t >= 1.0
        for p, p_star in zip(prices, ps):
            assert low * p_star - 1e-12 <= p <= t * p_star + 1e-12


def test_compression_rejects_totals_it_cannot_reach():
    with pytest.raises(SolverError):
        compress_prices((0.5, 1.5), (5.0, 5.0), 0.9, 2.0)
    with pytest.raises(ValueError):
        compress_prices((0.5, 1.0), (1.0, 1.0), 0.5, 2.0)
    with pytest.raises(SolverError):
        compress_prices((2.0, 0.0), (0.0, 2.0), 0.5, 2.0)


# -- reserve price of anarchy --------------------------------------------------------


def test_reserve_poa_single_good_is_trivially_safe():
    market = FisherMarket(
        tuple([1.0] * 10), tuple([Linear((1.0,))] * 10), reserves=(2.5,)
    )
    out = poa_search(market)
    assert out.bound == pytest.approx(math.exp(-0.2))
    assert out.stated_bound == pytest.approx(math.exp(-0.04))
    assert out.sum_ratio == pytest.approx(1.0)  # one-good grids collapse to truth


def test_reserve_poa_two_goods_above_floor():
    market = FisherMarket(
        tuple([1.0] * 4), tuple([cd(0.5, 0.5)] * 4), reserves=(0.5, 0.5)
    )
    out = poa_search(market, deltas=(0.2,), rng=np.random.default_rng(5))
    assert out.bound == pytest.approx(math.exp(-1.0))
    assert out.sum_ratio >= out.bound - 1e-9
    assert out.holds


# Both reserve searches reject reserves above p*/4 with one message.
OVERSIZED = r"reserves exceed a quarter of truthful prices: r=\(.*\), p\*=\("


def test_reserve_poa_rejects_oversized_reserves():
    market = FisherMarket(
        tuple([1.0] * 10), tuple([Linear((1.0,))] * 10), reserves=(3.0,)
    )
    with pytest.raises(ValueError, match=OVERSIZED):
        poa_search(market)


# -- learning --------------------------------------------------------------------


def test_market_learning_holds_the_regret_adjusted_floor():
    market = FisherMarket(
        (1.0, 1.0),
        (Linear((0.7, 0.3)), Linear((0.4, 0.6))),
        reserves=(0.2, 0.2),
    )
    res = run_market_learning(market, rounds=300, deltas=(0.2,), seed=4)
    assert res.holds
    assert res.average_welfare >= res.rhs
    assert res.lambda_cap >= 4.0  # reserves at or below a quarter of prices
    assert all(r >= -1e-9 for r in res.regrets)


def test_market_learning_is_deterministic():
    market = FisherMarket(
        (1.0, 2.0),
        (cd(0.5, 0.5), cd(0.3, 0.7)),
        reserves=(0.2, 0.2),
    )
    a = run_market_learning(market, rounds=150, deltas=(0.1,), seed=9)
    b = run_market_learning(market, rounds=150, deltas=(0.1,), seed=9)
    assert a == b


def test_market_learning_rejects_bad_reserves():
    plain = FisherMarket((1.0, 1.0), (cd(0.5, 0.5), cd(0.5, 0.5)))
    with pytest.raises(ValueError):
        run_market_learning(plain, rounds=10)
    oversized = FisherMarket(
        plain.budgets, plain.utilities, reserves=(0.9, 0.9)
    )
    with pytest.raises(ValueError, match=OVERSIZED):
        run_market_learning(oversized, rounds=10)


def loop_market_learning(market, rounds, deltas, seed):
    """Reference for ``run_market_learning`` on valid reserve markets: the
    per-buyer loop with one ``rng.choice`` draw and one menu row per buyer
    and round."""
    plain = FisherMarket(market.budgets, market.utilities)
    lam = float(np.max(np.asarray(solve_market(plain).prices) / np.asarray(market.reserves)))
    game = _ReportGame(market, [perturbed_reports(v, deltas) for v in market.utilities])
    sizes = [len(m) for m in game.menus]
    n = market.buyers
    truthful_utils = game.utils(game.truthful_profile())
    chi = [lam * u for u in truthful_utils]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    T = rounds
    etas = [math.sqrt(8.0 * math.log(k) / T) if k > 1 else 0.0 for k in sizes]
    scores = [np.zeros(k) for k in sizes]
    cum_counter = [np.zeros(k) for k in sizes]
    cum_realized = np.zeros(n)
    welfare_sum = 0.0
    for _ in range(T):
        actions = []
        for i in range(n):
            w = np.exp(etas[i] * (scores[i] - scores[i].max()))
            actions.append(int(rng.choice(sizes[i], p=w / w.sum())))
        actions = tuple(actions)
        round_utils = np.zeros(n)
        for i in range(n):
            row = game.table([actions], [[i]])[0, 0, : sizes[i]]
            if np.any(row > chi[i] + 1e-6 * max(1.0, chi[i])):
                raise InternalCheckError(
                    f"buyer {i} payoff exceeds the reserve cap {chi[i]}: {row.max()}"
                )
            scores[i] += row / chi[i]
            cum_counter[i] += row
            round_utils[i] = row[actions[i]]
        cum_realized += round_utils
        welfare_sum += float(round_utils.sum())
    regrets = tuple(float(cum_counter[i].max() - cum_realized[i]) for i in range(n))
    phi = tuple(reg / c for reg, c in zip(regrets, chi))
    truthful_total = float(sum(truthful_utils))
    bound_factor = math.exp(-2.0 * market.m / market.largeness) - max(phi) / T * lam
    rhs = bound_factor * truthful_total
    avg = welfare_sum / T
    holds = avg >= rhs - 1e-9 * max(1.0, abs(rhs))
    return FisherLearningResult(T, avg, truthful_total, bound_factor, rhs, lam, regrets, phi, holds)


def learning_market(family, m, seed):
    """Reserve market of four buyers whose menus differ in size: buyer i
    never wants min(i, m - 1) goods, so with two deltas an m = 3 market has
    menus of 13, 9, 1 and 1 entries."""
    rng = np.random.default_rng(seed)
    utils = []
    for i in range(4):
        w = rng.uniform(0.2, 1.0, m)
        w[: min(i, m - 1)] = 0.0
        w /= w.sum()
        if family == "linear":
            utils.append(Linear(tuple(w), float(rng.uniform(0.5, 2.0))))
        elif family == "ces":
            utils.append(CES(tuple(w), (0.3, 0.5, 0.7)[i % 3]))
        else:
            utils.append(cd(*w))
    plain = FisherMarket(tuple(rng.uniform(0.5, 2.0, 4)), tuple(utils))
    reserves = tuple(p / 5.0 for p in solve_market(plain).prices)
    return FisherMarket(plain.budgets, plain.utilities, reserves)


def learned_or_error(learn):
    try:
        return learn()
    except InternalCheckError as e:
        return str(e)


@pytest.mark.parametrize(
    "family, m, seed, sizes",
    (
        ("cd", 3, 0, [13, 9, 1, 1]),
        ("cd", 3, 1, [13, 9, 1, 1]),
        ("linear", 3, 2, [13, 9, 1, 1]),
        ("ces", 3, 3, [13, 9, 1, 1]),
        ("cd", 2, 4, [9, 1, 1, 1]),
        ("cd", 1, 5, [1, 1, 1, 1]),
    ),
)
def test_market_learning_equals_the_per_buyer_loop(family, m, seed, sizes):
    market = learning_market(family, m, seed)
    assert [len(perturbed_reports(u, (0.1, 0.2))) for u in market.utilities] == sizes
    got = run_market_learning(market, rounds=40, deltas=(0.1, 0.2), seed=seed)
    want = loop_market_learning(market, 40, (0.1, 0.2), seed)
    assert got == want


def test_market_learning_names_the_first_buyer_over_the_cap(monkeypatch):
    market = learning_market("cd", 3, 0)
    table = _ReportGame.table
    played, trigger = [], None

    def inflated(game, profiles, who):
        # Buyers 1 and 2 both exceed their cap in a round that plays the
        # trigger profile, or in every round without one.
        played.append(tuple(np.asarray(profiles)[0].tolist()))
        scale = np.where(np.isin(who, (1, 2)), 1e3, 1.0)
        if trigger not in (None, played[-1]):
            scale[:] = 1.0
        return table(game, profiles, who) * scale[..., None]

    monkeypatch.setattr(_ReportGame, "table", inflated)
    # From the first round on, and from the first round that plays
    # (2, 1, 0, 0), past the first block.
    for rounds, trigger, first in ((10, None, 1), (1100, (2, 1, 0, 0), 768)):
        played.clear()
        got = learned_or_error(lambda: run_market_learning(market, rounds, (0.1, 0.2), 0))
        assert len(played) == first  # one table call per round
        if first > 1:
            assert first > _Hedge([13, 9, 1, 1], rounds).block
        want = learned_or_error(lambda: loop_market_learning(market, rounds, (0.1, 0.2), 0))
        assert got.startswith("buyer 1 payoff exceeds the reserve cap")
        assert got == want


def test_market_learning_equals_the_per_buyer_loop_at_the_block_edges():
    # Menus of 13, 9, 1 and 1 entries.  The learner folds and the loop draws
    # its uniforms once per block of rounds.
    market = learning_market("cd", 3, 0)
    block = _Hedge([13, 9, 1, 1], 10**6).block
    assert block == _Hedge.BLOCK_ELEMENTS // (4 * 13)
    for rounds in (1, block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 3):
        got = run_market_learning(market, rounds, (0.1, 0.2), seed=rounds)
        want = loop_market_learning(market, rounds, (0.1, 0.2), rounds)
        for field in dataclasses.fields(FisherLearningResult):
            assert getattr(got, field.name) == getattr(want, field.name), (rounds, field.name)


# -- batched menu evaluation -------------------------------------------------------


def random_market(seed, n, m, family, reserves):
    """Market with n buyers of ``family``: linear, ces-<rho>, cd
    (Cobb-Douglas), or mix (CES and Cobb-Douglas buyers side by side);
    optional reserves."""
    rng = np.random.default_rng(seed)
    budgets = tuple(float(b) for b in rng.uniform(0.5, 2.0, n))
    utils = []
    for i in range(n):
        w = rng.uniform(0.05, 1.0, m)
        if m > 1 and rng.random() < 0.2:
            w[int(rng.integers(0, m))] = 0.0  # a good this buyer never wants
        if family == "linear":
            utils.append(Linear(tuple(w), float(rng.uniform(0.5, 2.0))))
        elif family.startswith("ces"):
            utils.append(CES(tuple(w / w.sum()), float(family[4:])))
        elif family == "cd" or i % 2:
            utils.append(cd(*(w / w.sum())))
        else:
            utils.append(CES(tuple(w / w.sum()), (0.3, 0.5, 0.7)[i % 3]))
    floor = None
    if reserves:
        floor = tuple(float(r) for r in rng.uniform(0.0, 0.3, m) * sum(budgets) / m)
    return FisherMarket(budgets, tuple(utils), floor)


def solved_or_error(solve):
    try:
        return solve()
    except SolverError as e:
        return str(e)


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    m=st.integers(1, 3),
    family=st.sampled_from(("linear", "ces-0.3", "ces-0.5", "ces-0.7", "mix", "cd")),
    reserves=st.booleans(),
    k=st.integers(1, 9),
)
def test_batched_solves_equal_one_profile_solves(seed, n, m, family, reserves, k):
    market = random_market(seed, n, m, family, reserves)
    menus = [perturbed_reports(u, (0.05, 0.1, 0.2)) for u in market.utilities]
    rng = np.random.default_rng(seed + 1)
    profiles = [
        tuple(menu[int(rng.integers(0, len(menu)))] for menu in menus) for _ in range(k)
    ]
    batched = solved_or_error(lambda: strategic_outcomes(market, profiles))
    one_by_one = solved_or_error(lambda: [strategic_outcome(market, p) for p in profiles])
    # The per-profile finish, checks and utility calls on lone solves.  At
    # n >= 8 numpy sums over buyers pairwise, so n = 9 is covered too.
    loop = solved_or_error(lambda: [reference_outcome(market, p) for p in profiles])
    # Same bits and the same iteration counts, not just close.
    assert batched == one_by_one == loop


# Two buyers of budget 1, two goods: one equilibrium and one profile that
# fails each solver postcondition, each first of all at its own condition.
CHECKED = {
    "equilibrium": ((1.0, 1.0), ((1.0, 0.0), (0.0, 1.0))),
    "over-allocation": ((1.0, 1.0), ((1.0, 0.5), (0.0, 1.0))),
    "market fails to clear": ((1.0, 1.0), ((1.0, 0.0), (0.0, 0.5))),
    "budgets not exhausted": ((1.0, 1.0), ((1.0, 0.5), (0.0, 0.5))),
    "price sum": ((2.0, -2.0), ((0.5, 0.0), (0.5, 0.0))),
}


@pytest.mark.parametrize("broken", [name for name in CHECKED if name != "equilibrium"])
@pytest.mark.parametrize("reserves", (None, (0.5, 0.5)))
def test_each_check_fails_the_first_failing_profile(broken, reserves):
    e = (1.0, 1.0)

    def check(names):
        p, x = (np.array([CHECKED[name][i] for name in names]) for i in (0, 1))
        floored = np.zeros(p.shape, dtype=bool)
        try:
            fisher._check_equilibria(e, reserves, p, x, floored)
        except InternalCheckError as err:
            return str(err)

    def alone(name):
        try:
            reference_check(e, reserves, *CHECKED[name], [])
        except InternalCheckError as err:
            return str(err)

    assert check(["equilibrium"] * 3) is None
    want = alone(broken)
    if reserves is not None and broken == "price sum":
        assert want is None  # prices need not sum to the budgets above a reserve
    else:
        assert want.startswith(broken)
    # The first failing profile's error, whichever condition a later one fails.
    for later in CHECKED:
        assert check(["equilibrium", broken, later]) == (want or alone(later)), later


def test_a_failed_check_before_a_solver_error_is_raised(monkeypatch):
    market = random_market(3, 4, 2, "ces-0.5", False)
    profiles = [market.utilities] * 3
    solve = fisher._SOLVERS["ces"]

    def broken(budgets, stack, reserves):
        p, x, floored, iters, errors = solve(budgets, stack, reserves)
        x[0, :, 0] = 1.0  # every buyer gets all of good 0
        if len(errors) > 1:
            errors[1] = SolverError("profile 1 did not converge")
        return p, x, floored, iters, errors

    monkeypatch.setitem(fisher._SOLVERS, "ces", broken)
    with pytest.raises(InternalCheckError) as alone:
        reference_outcome(market, profiles[0])
    assert str(alone.value).startswith("over-allocation")
    with pytest.raises(InternalCheckError) as stacked:
        strategic_outcomes(market, profiles)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("factor", (1.0 + 1e-7, 1.01, 1.5))
def test_over_allocation_is_judged_before_the_rescale(monkeypatch, factor):
    """A solver that hands out more than the supply fails the check; only an
    overshoot within CLEAR_TOL is rescaled to the supply and passes."""
    market = random_market(2, 3, 2, "cd", False)
    solve = fisher._SOLVERS["cobb-douglas"]

    def inflated(budgets, stack, reserves):
        p, x, *rest = solve(budgets, stack, reserves)
        return (p, x * factor, *rest)

    monkeypatch.setitem(fisher._SOLVERS, "cobb-douglas", inflated)
    if factor - 1.0 <= fisher.CLEAR_TOL:
        eq = solve_market(market)
        assert (np.sum(eq.allocation, axis=0) <= 1.0 + 1e-15).all()
        assert eq == reference_outcome(market, market.utilities)[0]
    else:
        with pytest.raises(InternalCheckError, match="over-allocation"):
            solve_market(market)


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    m=st.integers(1, 3),
    family=st.sampled_from(("ces-0.3", "ces-0.5", "ces-0.7", "mix")),
    k=st.integers(1, 5),
)
def test_stacked_demand_equals_per_buyer_demand(seed, n, m, family, k):
    market = random_market(seed, n, m, family, False)
    menus = [perturbed_reports(u, (0.05, 0.1, 0.2)) for u in market.utilities]
    rng = np.random.default_rng(seed + 1)
    profiles = [
        tuple(menu[int(rng.integers(0, len(menu)))] for menu in menus) for _ in range(k)
    ]
    prices = rng.uniform(0.01, 3.0, (k, m))
    got = fisher._Demand(market.budgets, fisher._encode(profiles))(prices)
    for x, reports, p in zip(got, profiles, prices):
        want = np.stack([fisher_demand(u, p, b) for u, b in zip(reports, market.budgets)])
        assert np.array_equal(x, want)


class OneProfileGame(_ReportGame):
    """Reference game that solves each (walk, menu entry) on its own, in the
    order the batched call lists them, and picks each reply by the
    one-profile rule."""

    def best_responses(self, profiles, i):
        replies = []
        for profile in profiles.tolist():
            for s in range(len(self.menus[i])):
                self.utils(profile[:i] + [s] + profile[i + 1:])
            replies.append(reference_best_response(self, profile, i))
        return np.array(replies, dtype=int)


def cached(game):
    """The game's cached profiles in fill order, each with its truthful
    utilities."""
    return [
        (tuple(np.frombuffer(key, dtype=np.int64).tolist()), tuple(game._util[row].tolist()))
        for key, row in game._index.items()
    ]


@pytest.mark.parametrize(
    "family, reserves", (("linear", False), ("ces-0.5", True), ("mix", False))
)
def test_batched_best_responses_fill_the_same_cache(family, reserves):
    market = random_market(7, 4, 2, family, reserves)
    menus = [perturbed_reports(u, (0.1, 0.2)) for u in market.utilities]
    batched, reference = _ReportGame(market, menus), OneProfileGame(market, menus)
    got = batched.find_equilibria(np.random.default_rng(5), restarts=3)
    want = reference.find_equilibria(np.random.default_rng(5), restarts=3)
    assert got == want
    assert len(cached(batched)) > len(menus[0])
    assert cached(batched) == cached(reference)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    family=st.sampled_from(("linear", "ces-0.5", "cd", "mix")),
    reserves=st.booleans(),
    column=st.booleans(),
    k=st.integers(1, 3),
)
def test_table_equals_the_cell_by_cell_reference(seed, n, m, family, reserves, column, k):
    market = random_market(seed, n, m, family, reserves)
    # Menus differ in size where a buyer never wants a good, and collapse to
    # the truthful report in a one-good market.
    menus = [perturbed_reports(u, (0.1, 0.2)) for u in market.utilities]
    rng = np.random.default_rng(seed)

    def draw():
        return [int(rng.integers(0, len(menu))) for menu in menus]

    def moved(profile, buyers):
        # The same (profile, buyer) rows, reached with other own entries.
        return [int(rng.integers(0, len(menus[i]))) if i in buyers else s for i, s in enumerate(profile)]

    profiles = [draw() for _ in range(k)]
    # One buyer per row, as best replies ask, or every buyer of each row.
    who = [[int(rng.integers(0, n))] for _ in range(k)] if column else [list(range(n))] * k
    # Each row twice in one call, the second time from a moved own entry;
    # then those rows from other profiles and one new profile; then the
    # first stack again, from a warm store.
    first = profiles + [moved(p, w) for p, w in zip(profiles, who)]
    second = [moved(p, w) for p, w in zip(first, who + who)] + [draw()]
    game = _ReportGame(market, menus)
    pairs = set()
    for stack, buyers in ((first, who + who), (second, who + who + who[:1]), (first, who + who)):
        want = solved_or_error(lambda: reference_table(market, menus, stack, buyers).tolist())
        got = solved_or_error(lambda: game.table(stack, buyers).tolist())
        assert got == want
        if not isinstance(got, str):
            pairs |= {
                (i, tuple(s for j, s in enumerate(p) if j != i))
                for p, ws in zip(stack, buyers) for i in ws
            }
    # One stored row per distinct (buyer, others' entries) pair read.
    assert len(game._rows) == len(pairs)


def test_a_table_over_mixed_families_raises_the_solver_error():
    market = random_market(2, 3, 2, "linear", False)
    menus = [perturbed_reports(u, (0.1,)) for u in market.utilities]
    menus[0] += (CES((0.5, 0.5), 0.5),)
    game = _ReportGame(market, menus)
    truth = game.truthful_profile()
    deviations = [[u] + [menu[s] for menu, s in zip(menus[1:], truth[1:])] for u in menus[0]]
    want = solved_or_error(lambda: strategic_outcomes(market, deviations))
    assert want == "linear reports cannot be mixed with other families"
    with pytest.raises(SolverError) as err:
        game.table([truth], [[0]])
    assert str(err.value) == want
    assert not cached(game)  # the batch failed as a whole
    assert game.table([truth], [[1]]).shape == (1, 1, len(menus[0]))


def test_a_table_refuses_an_entry_past_the_end_of_its_menu():
    market = learning_market("cd", 3, 0)  # menus of 13, 9, 1 and 1 entries
    game = _ReportGame(market, [perturbed_reports(u, (0.1, 0.2)) for u in market.utilities])
    with pytest.raises(IndexError):
        game.table([[0, 9, 0, 0]], [[0]])  # within the padded width of 13
    assert game.table([[0, 8, 0, 0]], [[0]]).shape == (1, 1, 13)


def test_a_table_and_utils_refuse_a_negative_entry():
    market = learning_market("cd", 3, 0)  # menus of 13, 9, 1 and 1 entries
    game = _ReportGame(market, [perturbed_reports(u, (0.1, 0.2)) for u in market.utilities])
    entry_8 = game.table([[0, 8, 0, 0]], [[0, 2]])  # every row and profile of entry 8 stored
    for profile in ([0, -1, 0, 0], [0, -4, 0, 0], [0, 0, -1, 0]):
        with pytest.raises(IndexError):
            game.table([profile], [[0]])
        with pytest.raises(IndexError):
            game.utils(tuple(profile))
    # A buyer's own entry is replaced, whatever it is.
    assert game.table([[-1, 8, 0, 0]], [[0]]).tolist() == entry_8[:, :1].tolist()
    assert game.table([[0, 8, -3, 0]], [[2]]).tolist() == entry_8[:, 1:].tolist()


def test_a_table_raises_the_first_failing_profiles_error(monkeypatch):
    market = random_market(3, 5, 3, "linear", False)
    menus = [perturbed_reports(u, (0.05, 0.1, 0.2)) for u in market.utilities]
    game = _ReportGame(market, menus)
    truth = game.truthful_profile()
    # Buyer 0's deviations from the truthful profile, in table order.
    truthful = [menu[s] for menu, s in zip(menus, truth)]
    deviations = [[u] + truthful[1:] for u in menus[0]]
    rounds = [solve_market(market, d).iterations for d in deviations]
    # Cap the rounds at the first deviation's count: it still solves, and
    # slower ones after it fail.
    monkeypatch.setitem(fisher._SOLVERS, "linear", partial(fisher._solve_linear, cap=rounds[0]))
    alone = [solved_or_error(lambda: strategic_outcome(market, d)) for d in deviations]
    failed = [msg for msg in alone if isinstance(msg, str)]
    assert not isinstance(alone[0], str)
    assert len(set(failed)) >= 2  # each failure reports its own residual
    with pytest.raises(SolverError) as err:
        game.table([truth], [[0]])
    assert str(err.value) == failed[0]


def found_or_error(search):
    """The equilibria in walk order and the dropped count, or the error."""
    try:
        found, dropped = search()
    except SolverError:
        return "SolverError"
    return list(found.items()), dropped


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    m=st.integers(1, 3),
    family=st.sampled_from(("linear", "ces-0.5", "cd", "mix")),
    reserves=st.booleans(),
    restarts=st.integers(0, 5),
    max_sweeps=st.sampled_from((1, 2, 3, 100)),
)
def test_lockstep_walks_find_the_walk_by_walk_equilibria(
    seed, n, m, family, reserves, restarts, max_sweeps
):
    market = random_market(seed, n, m, family, reserves)
    menus = [perturbed_reports(u, (0.1, 0.2)) for u in market.utilities]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = found_or_error(
        lambda: _ReportGame(market, menus).find_equilibria(rng, restarts, max_sweeps)
    )
    want = found_or_error(
        lambda: reference_find_equilibria(_ReportGame(market, menus), ref_rng, restarts, max_sweeps)
    )
    # Keys, utilities and walk order, and the dropped count, all exact.
    assert got == want
    assert rng.random() == ref_rng.random()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    family=st.sampled_from(("linear", "ces-0.5", "cd", "mix")),
    reserves=st.booleans(),
    k=st.integers(1, 4),
)
def test_is_nash_equals_the_entry_by_entry_reference(seed, n, m, family, reserves, k):
    market = random_market(seed, n, m, family, reserves)
    menus = [perturbed_reports(u, (0.1, 0.2)) for u in market.utilities]
    if m == 1:
        assert all(len(menu) == 1 for menu in menus)  # every menu collapses to the truth
    game, reference = _ReportGame(market, menus), _ReportGame(market, menus)
    rng = np.random.default_rng(seed)
    for _ in range(k):
        profile = tuple(int(rng.integers(0, len(menu))) for menu in menus)
        try:
            got = game.is_nash(profile)
        except SolverError:
            # It solves every deviation; the reference may stop at a gain
            # before the one that fails, but can never pass the profile.
            try:
                ok, _ = reference_is_nash(reference, profile)
            except SolverError:
                continue
            assert not ok
            continue
        # The verdict and the gain, exact.
        assert got == reference_is_nash(reference, profile)


@pytest.mark.parametrize(
    "seed, family, solver", ((3, "linear", "linear"), (5, "ces-0.5", "ces"))
)
def test_cap_failure_raises_the_first_failing_profile(monkeypatch, seed, family, solver):
    market = random_market(seed, 5, 3, family, False)
    menu = perturbed_reports(market.utilities[0], (0.05, 0.1, 0.2))
    profiles = [(u,) + market.utilities[1:] for u in menu]
    rounds = [solve_market(market, p).iterations for p in profiles]
    # Cap the rounds at the fastest profile's count and put that profile
    # first: it still solves, and the slower ones after it fail.
    cap = min(rounds)
    fastest = rounds.index(cap)
    profiles.insert(0, profiles.pop(fastest))
    monkeypatch.setitem(fisher._SOLVERS, solver, partial(fisher._SOLVERS[solver], cap=cap))
    alone = [solved_or_error(lambda: solve_market(market, p)) for p in profiles]
    failed = [msg for msg in alone if isinstance(msg, str)]
    assert not isinstance(alone[0], str)
    assert len(set(failed)) >= 2  # each failure reports its own residual
    with pytest.raises(SolverError) as err:
        strategic_outcomes(market, profiles)
    assert str(err.value) == failed[0]


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_the_first_bad_profile_names_the_error(order):
    market = random_market(2, 3, 2, "linear", False)
    truth = market.utilities
    bad = [
        (truth[:-1], ValueError, "one report per buyer"),
        ((Linear((0.5, 0.3, 0.2)),) + truth[1:], ValueError, "report good-count mismatch"),
        (
            (CES((0.5, 0.5), 0.5),) + truth[1:],
            SolverError,
            "linear reports cannot be mixed with other families",
        ),
    ]
    profiles = [truth]
    for k in order:
        profiles += [bad[k][0], truth]
    _, kind, text = bad[order[0]]
    with pytest.raises(kind) as err:
        strategic_outcomes(market, profiles)
    assert type(err.value) is kind and str(err.value) == text
    # Within one profile, a wrong good count comes before a mix of families.
    both = (CES((0.5, 0.3, 0.2), 0.5),) + truth[1:]
    with pytest.raises(ValueError, match="^report good-count mismatch$"):
        strategic_outcomes(market, [truth, both] + profiles[1:])


# -- chunked proportional response ---------------------------------------------------


def linear_stack(seed, n, m, k, reserves):
    """Budgets, k profiles of n linear reports over m goods, and optional
    reserves.  Some weights are zero, and some goods nobody wants."""
    rng = np.random.default_rng(seed)
    budgets = tuple(rng.uniform(0.5, 2.0, n).tolist())
    dead = rng.random(m) < 0.25
    dead[int(rng.integers(0, m))] = False
    stack = []
    for _ in range(k):
        w = rng.uniform(0.05, 1.0, (n, m))
        w[rng.random((n, m)) < 0.2] = 0.0
        w[:, dead] = 0.0
        w[w.sum(axis=1) == 0.0, int(np.flatnonzero(~dead)[0])] = 0.5
        scales = rng.uniform(0.5, 2.0, n)
        stack.append(tuple(Linear(tuple(row), float(c)) for row, c in zip(w.tolist(), scales)))
    floor = None
    if reserves:
        floor = tuple((rng.uniform(0.0, 0.3, m) * sum(budgets) / m).tolist())
    return budgets, stack, floor


def exact_entries(solved):
    """A solver's stacked results, one entry per profile, in a form ``==``
    compares bit for bit."""
    p, x, floored, iterations, errors = solved
    return [
        str(err) if err is not None else (p[k].tolist(), x[k].tolist(), floored[k].tolist(), count)
        for k, (err, count) in enumerate(zip(errors, iterations.tolist()))
    ]


# Chunks end at the finish rounds 16, 32, 64, 128, 256, 512, 768, ...
CAPS = (1, 2, 15, 16, 17, 31, 32, 33, 128, 257, 10_000)


@settings(max_examples=120)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    m=st.integers(1, 4),
    k=st.integers(1, 9),
    reserves=st.booleans(),
    cap=st.sampled_from(CAPS),
    small_chunks=st.booleans(),
)
def test_chunked_linear_solver_equals_the_per_round_solver(
    seed, n, m, k, reserves, cap, small_chunks
):
    budgets, stack, floor = linear_stack(seed, n, m, k, reserves)
    want = exact_entries(reference_solve_linear(budgets, stack, floor, cap=cap))
    # A small element budget caps the chunk at a few rounds.
    elements = n * m * k * 3 if small_chunks else fisher._CHUNK_ELEMENTS
    with mock.patch.object(fisher, "_CHUNK_ELEMENTS", elements):
        got = exact_entries(fisher._solve_linear(budgets, fisher._encode(stack), floor, cap=cap))
    assert got == want


def running_minima(gaps):
    """Rounds (1-based) whose gap is below the gap of every earlier round."""
    low, out = math.inf, []
    for r, g in enumerate(gaps, 1):
        if g < low:
            low = g
            out.append(r)
    return out


@pytest.mark.parametrize("seed, reserves", ((0, False), (1, True), (4, False), (6, True)))
def test_the_stopping_round_is_decided_on_the_exact_gap(monkeypatch, seed, reserves):
    budgets, stack, floor = linear_stack(seed, 4, 3, 3, reserves)
    trace = []
    finished = reference_solve_linear(budgets, stack, floor, gaps=trace)[3][0]
    # Profile 0's exact gap at each round until it finished.
    gaps = [float(gap[list(live).index(0)]) for live, gap in trace[:finished]]
    minima = running_minima(gaps[:-1])
    # Without reserves the exact finish can end a profile at round 16, so
    # the rounds tried come before it.
    points = (1, 15, 16, 17, 48, finished) if reserves else (1, 4, 8, 12, 15)
    rounds = sorted({max(r for r in minima if r <= t) for t in points})
    assert len(rounds) >= 3

    def both(cap=10_000):
        want = exact_entries(reference_solve_linear(budgets, stack, floor, cap=cap))
        got = exact_entries(fisher._solve_linear(budgets, fisher._encode(stack), floor, cap=cap))
        assert got == want
        return got[0]

    for r in rounds:
        g = gaps[r - 1]
        with monkeypatch.context() as patch:
            # Round r is the first whose gap is at most its own.
            patch.setattr(fisher, "GAP_TOL", g)
            assert both()[3] == r
            patch.setattr(fisher, "GAP_TOL", math.nextafter(g, -math.inf))
            assert both()[3] > r
        with monkeypatch.context() as patch:
            # At the last round the residual gap is accepted, or not.
            patch.setattr(fisher, "GAP_ACCEPT", g)
            assert both(cap=r)[3] == r
            patch.setattr(fisher, "GAP_ACCEPT", math.nextafter(g, -math.inf))
            assert both(cap=r).startswith(f"proportional response failed to converge in {r} rounds")


# -- exact finish of linear markets ---------------------------------------------------


def finish_market(seed, n, m, shape):
    """Budgets, linear weights and scales of a market without reserves:
    random weights with some zeros, buyer 1's weights a multiple of buyer
    0's ("proportional", a cycle in the support), or a good nobody wants
    ("unwanted")."""
    rng = np.random.default_rng(seed)
    budgets = rng.uniform(0.5, 2.0, n)
    weights = rng.uniform(0.05, 1.0, (n, m))
    weights[rng.random((n, m)) < 0.2] = 0.0
    gone = int(rng.integers(0, m)) if shape == "unwanted" and m > 1 else None
    if gone is not None:
        weights[:, gone] = 0.0
    for row in weights:
        if not row.any():
            row[int(rng.integers(0, m)) if gone is None else (gone + 1) % m] = 0.5
    if shape == "proportional" and n > 1:
        weights[1] = weights[0] * rng.uniform(0.5, 2.0)
    return budgets, weights, rng.uniform(0.5, 2.0, n)


def spends_after(e, a, rounds):
    """Proportional-response spends after each count of rounds in
    ``rounds``, from spending in proportion to the weights."""
    spend = e[:, None] * a / a.sum(axis=1, keepdims=True)
    out = []
    for t in range(1, max(rounds) + 1):
        p = spend.sum(axis=0)
        x = spend / np.where(p > 0.0, p, 1.0)
        value = (a * x).sum(axis=1, keepdims=True)
        spend = e[:, None] * a * x / value
        if t in rounds:
            out.append(spend)
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    shape=st.sampled_from(("random", "proportional", "unwanted")),
)
def test_the_exact_finish_matches_support_enumeration(seed, n, m, shape):
    e, a, scales = finish_market(seed, n, m, shape)
    want = linear_support_oracle(e, a)
    assert want is not None  # a linear market always has an equilibrium
    dead = a.sum(axis=0) <= 0.0
    x = None
    for spend in spends_after(e, a, (1, 16, 64, 256, 1024)):
        got = fisher._forest_finish(e, a, scales, spend, dead)
        if got is None:
            continue  # declined: proportional response runs on
        p, x = got
        np.testing.assert_allclose(p[~dead], want[~dead], rtol=1e-12, atol=0.0)
        assert (p[dead] == fisher.PRICE_FLOOR).all() and (x[:, dead] == 0.0).all()
        fisher._check_equilibria(e, None, p[None], x[None], dead[None])
    if x is not None and n <= 2:
        utils = tuple(Linear(tuple(row), float(c)) for row, c in zip(a.tolist(), scales))
        grid, _ = eg_grid_oracle(e, utils)
        assert eg_objective(e, utils, x) >= grid - 1e-9


@pytest.mark.parametrize(
    "budgets, weights",
    (
        ((1.0, 1.5), ((0.2, 0.6), (0.5, 1.5))),
        ((1.0, 1.0, 0.7), ((1.0, 0.0, 0.5), (0.2, 0.0, 1.0), (0.4, 0.0, 0.4))),
        ((1.0, 2.0, 0.5), ((1.0,), (0.3,), (2.0,))),
    ),
    ids=("proportional-weights", "unwanted-good", "one-good"),
)
def test_the_exact_finish_certifies_degenerate_markets(budgets, weights):
    e, a = np.asarray(budgets), np.asarray(weights)
    dead = a.sum(axis=0) <= 0.0
    (spend,) = spends_after(e, a, (16,))
    p, x = fisher._forest_finish(e, a, np.ones(len(e)), spend, dead)
    want = linear_support_oracle(e, a)
    np.testing.assert_allclose(p[~dead], want[~dead], rtol=1e-12, atol=0.0)
    fisher._check_equilibria(e, None, p[None], x[None], dead[None])
    utils = tuple(Linear(tuple(row)) for row in weights)
    grid, _ = eg_grid_oracle(budgets, utils)
    assert eg_objective(budgets, utils, x) >= grid - 1e-9


def test_a_forest_with_one_wrong_edge_fails_the_gap_check(monkeypatch):
    e, a = np.array([1.3, 1.9]), np.array([[0.2, 1.0], [0.4, 0.5]])
    scales, dead = np.ones(2), np.zeros(2, dtype=bool)
    # Buyer 1 buys both goods and buyer 0 only good 1: p is (4, 5) / 9 of
    # the budgets, as buyer 1's weights are.
    p, _ = fisher._forest_equilibrium(e, a, scales, dead, [(1, 0), (0, 1), (1, 1)])
    np.testing.assert_allclose(p, 3.2 * np.array([4.0, 5.0]) / 9.0, rtol=1e-15)
    # Buyer 0 buying good 0 in buyer 1's place prices the goods as buyer 0's
    # weights; its flows are nonnegative, so only the gap rejects it.
    wrong = [(0, 0), (0, 1), (1, 1)]
    assert fisher._forest_equilibrium(e, a, scales, dead, wrong) is None
    monkeypatch.setattr(fisher, "GAP_TOL", math.inf)
    p, x = fisher._forest_equilibrium(e, a, scales, dead, wrong)
    np.testing.assert_allclose(p, 3.2 * np.array([1.0, 5.0]) / 6.0, rtol=1e-15)
    assert (x >= 0.0).all()

