import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketlab import strategic
from marketlab.errors import InternalCheckError
from marketlab.strategic import (
    GAIN_TOL,
    Certification,
    EquilibriumReport,
    GameContext,
    LearningConfig,
    LearningResult,
    ScalingGrid,
    _Engine,
    _Hedge,
    _SingleGood,
    best_response_dynamics,
    check_price_bracket,
    check_price_floor,
    check_smooth_bound,
    exhaustive_equilibria,
    ratio_bound_log,
    ratio_bound_sqrt,
    run_learning,
    worst_equilibrium,
)
from marketlab.supply import BinomialCounts, FixedCounts, iter_support, sample, support_size
from marketlab.valuations import KDemand, UnitDemand, scale_bid, value
from marketlab.walrasian import WelfareOracle, run_mechanism

from oracles import (
    random_market,
    reference_best_response_dynamics,
    reference_certify,
    reference_engine_stats,
    reference_run_learning,
)


def unit(vals):
    return tuple(UnitDemand((v,)) for v in vals)


# -- grids -------------------------------------------------------------------


def test_grid_requires_truthful_entry():
    ScalingGrid((0.0, 1.0))
    with pytest.raises(ValueError):
        ScalingGrid((0.0, 2.0))
    with pytest.raises(ValueError):
        ScalingGrid((1.0,), offsets=(0.5,))
    with pytest.raises(ValueError):
        ScalingGrid((1.0, -0.5))
    with pytest.raises(ValueError):
        ScalingGrid((1.0, 1.0))


def test_grid_strategy_order_is_scale_major():
    g = ScalingGrid((0.0, 1.0), offsets=(0.0, 2.0))
    assert g.strategies == ((0.0, 0.0), (0.0, 2.0), (1.0, 0.0), (1.0, 2.0))


# -- the bullying equilibrium ------------------------------------------------
# One copy, values 10 and 1.  The low bidder shades up to 10 and the high
# bidder drops to 0: ties go to the later owner, so no deviation by the high
# bidder wins anything at positive surplus, and welfare sticks at 1/10 of
# optimum.


def bully_context():
    vals = unit((10.0, 1.0))
    grids = [ScalingGrid((0.0, 1.0)), ScalingGrid((0.0, 1.0, 10.0))]
    return GameContext(vals, grids, FixedCounts((1,)), rule="english")


def test_bully_profile_is_exact_nash_at_ratio_one_tenth():
    ctx = bully_context()
    profile = (0, 2)  # scales (0, 10): bids 0 and 10
    cert = ctx.certify(profile)
    assert cert.kind == "exact-nash"
    rep = ctx.report(profile, cert)
    assert rep.sw_true_expected == 1.0
    assert rep.sw_opt_expected == 10.0
    assert rep.ratio == 0.1


def test_bully_truthful_profile_is_also_nash_at_ratio_one():
    ctx = bully_context()
    profile = (1, 1)
    cert = ctx.certify(profile)
    assert cert.kind == "exact-nash"
    assert ctx.report(profile, cert).ratio == 1.0


def test_bully_worst_equilibrium_is_found_exhaustively():
    ctx = bully_context()
    worst, reports, complete, dropped = worst_equilibrium(ctx, np.random.default_rng(0))
    assert complete and dropped == 0
    assert worst.ratio == 0.1
    assert {r.ratio for r in reports} >= {0.1, 1.0}


def test_certify_flags_profitable_deviation():
    ctx = bully_context()
    # High bidder at 0 against a truthful low bidder: switching to scale 1
    # wins the copy at price 1... at price 1 surplus is 9, a clear deviation.
    cert = ctx.certify((0, 1))
    assert cert.kind == "not-equilibrium"
    assert cert.witness[0] == 0
    assert cert.max_gain == pytest.approx(9.0)


# -- best responses ----------------------------------------------------------


def test_best_response_breaks_ties_toward_larger_scale():
    vals = unit((5.0,))
    ctx = GameContext(
        vals, ScalingGrid((0.0, 1.0, 2.0)), FixedCounts((1,)), rule="english"
    )
    s, u = ctx.best_response((0,), 0)
    # Alone, any positive bid wins the copy for free; ties resolve upward.
    assert ctx.menu[0][s] == (2.0, 0.0)
    assert u == pytest.approx(5.0)


def test_best_response_against_fixed_opponent():
    vals = unit((10.0, 1.0))
    grids = [ScalingGrid((0.0, 1.0)), ScalingGrid((0.0, 1.0, 10.0))]
    ctx = GameContext(vals, grids, FixedCounts((1,)), rule="english")
    # Against a bully bid of 10, the high bidder's best reply yields zero
    # utility; the tie rule then prefers the larger scale.
    s, u = ctx.best_response((1, 2), 0)
    assert u == pytest.approx(0.0)
    assert ctx.menu[0][s] == (1.0, 0.0)


def test_best_response_dynamics_reaches_certified_fixed_points():
    vals = unit((10.0, 1.0))
    grids = [ScalingGrid((0.0, 1.0)), ScalingGrid((0.0, 1.0, 10.0))]
    ctx = GameContext(vals, grids, FixedCounts((1,)), rule="english")
    reports, dropped = best_response_dynamics(ctx, np.random.default_rng(7), restarts=16)
    assert reports and dropped == 0
    for rep in reports:
        assert rep.certification.kind == "exact-nash"
    exhaustive = {r.profile for r in exhaustive_equilibria(ctx)}
    assert {r.profile for r in reports} <= exhaustive


def test_best_response_dynamics_counts_dropped_walks():
    vals = unit((10.0, 1.0))
    grids = [ScalingGrid((0.0, 1.0)), ScalingGrid((0.0, 1.0, 10.0))]
    ctx = GameContext(vals, grids, FixedCounts((1,)), rule="english")
    # One sweep converges only from a start that is already a fixed point.
    starts = np.random.default_rng(7)
    fixed = sum(
        all(
            ctx.best_response(list(p), i)[0] == p[i]
            for i in range(2)
        )
        for p in ([int(starts.integers(0, len(m))) for m in ctx.menu] for _ in range(16))
    )
    reports, dropped = best_response_dynamics(
        ctx, np.random.default_rng(7), restarts=16, max_sweeps=1
    )
    assert 0 < dropped == 16 - fixed
    assert {r.profile for r in reports} <= {r.profile for r in exhaustive_equilibria(ctx)}
    worst, found, complete, walks_dropped = worst_equilibrium(
        ctx, np.random.default_rng(7), restarts=16, exhaustive_limit=1
    )
    assert not complete and walks_dropped == 0 and worst is not None


def test_report_rejects_ratio_above_one():
    cert = Certification("exact-nash", 0.0, None)
    with pytest.raises(InternalCheckError):
        EquilibriumReport((0,), ((1.0, 0.0),), 2.0, 1.0, 2.0, cert)


# -- single-good kernel against the engine ------------------------------------


def test_fast_stats_match_engine_stats():
    """Both table implementations against the atom-by-atom engine reference:
    unit-demand games on the kernel, their one-item KDemand twins and
    two-good KDemand (cap 2) games on the engine."""
    rng = np.random.default_rng(42)
    for _ in range(12):
        n_players = int(rng.integers(2, 5))
        weights = rng.uniform(0.5, 1.0, n_players)
        vals = unit(weights)
        twins = tuple(KDemand((w,), 1) for w in weights)
        two_goods = tuple(
            KDemand((w, float(x)), 2) for w, x in zip(weights, rng.uniform(0.5, 1.0, n_players))
        )
        grid = ScalingGrid((0.3, 0.7, 1.0))
        for rule, lam in (("english", None), ("dutch", None), ("mix", 0.3)):
            model = BinomialCounts(1, int(rng.integers(1, 6)), 0.5)
            profile = tuple(int(rng.integers(0, 3)) for _ in range(n_players))
            for values, counts, kind in (
                (vals, model, _SingleGood),
                (twins, model, _Engine),
                (two_goods, BinomialCounts(2, int(rng.integers(1, 4)), 0.5), _Engine),
            ):
                ctx = GameContext(values, grid, counts, rule=rule, lam=lam)
                assert isinstance(ctx._game, kind)
                got = ctx.stats(profile)
                want = reference_engine_stats(ctx, profile)
                assert got.sw_true == pytest.approx(want.sw_true, abs=1e-12)
                for a, b in zip(got.utils, want.utils, strict=True):
                    assert a == pytest.approx(b, abs=1e-12)


def test_engine_tables_on_two_goods_equal_direct_mechanism_runs():
    # A Monte Carlo supply axis of distinct count vectors: the cached tables,
    # cold and warm, hold each run_mechanism utility to the bit.
    rng = np.random.default_rng(5)
    values = tuple(KDemand(tuple(rng.uniform(0.5, 1.0, 2)), 2) for _ in range(3))
    grid = ScalingGrid((0.3, 0.7, 1.0))
    ctx = GameContext(values, grid, BinomialCounts(2, 3, 0.5), exact_limit=0, mc_draws=40, seed=3)
    game, axis = ctx._game, ctx._supplies
    assert isinstance(game, _Engine) and len(axis) > 4
    profiles = rng.integers(0, 3, (4, 3))
    who = np.tile(np.arange(3), (4, 1))
    cold = game.table(profiles, who, axis)
    warm = game.table(profiles, who, axis)
    assert cold.tolist() == warm.tolist()
    for p, profile in enumerate(profiles.tolist()):
        for i in range(3):
            for s in range(3):
                trial = profile[:i] + [s] + profile[i + 1 :]
                bids = tuple(scale_bid(values[h], *grid.strategies[a]) for h, a in enumerate(trial))
                for a, n in enumerate(axis):
                    out = run_mechanism(bids, n)
                    want = value(values[i], out.allocation[i]) - out.payments[i]
                    assert cold[p, i, s, a] == want


def engine_utility(vals, menu, profile, i, n, rule, lam):
    bids = tuple(scale_bid(vals[h], *menu[h][a]) for h, a in enumerate(profile))
    out = run_mechanism(bids, (n,), rule, lam)
    return value(vals[i], out.allocation[i]) - out.payments[i], out


def test_fast_round_counterfactuals_match_engine():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n_players = int(rng.integers(2, 6))
        vals = unit(rng.uniform(0.5, 1.0, n_players))
        menu = [ScalingGrid((0.0, 0.6, 1.0)).strategies] * n_players
        actions = tuple(int(rng.integers(0, 3)) for _ in range(n_players))
        for rule, lam in (("english", None), ("dutch", None), ("mix", 0.4)):
            kernel = _SingleGood(vals, menu, rule, lam)
            supplies = np.arange(n_players + 2)
            table = kernel.table([actions], [range(n_players)], supplies)[0]
            for n in supplies:
                for i in range(n_players):
                    for s in range(3):
                        trial = tuple(s if h == i else a for h, a in enumerate(actions))
                        want, _ = engine_utility(vals, menu, trial, i, int(n), rule, lam)
                        assert table[i, s, n] == want, (rule, n, i, s)


def test_fast_round_realized_welfare_counts_true_values():
    vals = unit((3.0, 2.0, 1.0))
    kernel = _SingleGood(vals, [ScalingGrid((0.0, 1.0)).strategies] * 3, "english", None)
    profile = (0, 1, 1)  # bids 0, 2, 1
    supplies = np.array([1, 2, 5])
    _, won = kernel.utilities(kernel.keys([profile]), kernel.owner[None], supplies)
    won = won[0, kernel.owner, profile]
    # Winners hold true values 2 and 1; a zero bid never fills a slot.
    assert (kernel.tv @ won[:, 1:]).tolist() == [3.0, 3.0]
    assert kernel.outcomes(profile, supplies)[1].tolist() == [2.0, 3.0, 3.0]
    # The top slot holds true value 2, the next one 1.
    assert kernel.tv[won[:, 0]].tolist() == [2.0]
    assert kernel.tv[won[:, 1] & ~won[:, 0]].tolist() == [1.0]


@st.composite
def tied_single_good_games(draw):
    """Integer values and grids with offsets, so equal bids are common."""
    players = draw(st.integers(1, 5))
    values = draw(st.lists(st.integers(1, 4), min_size=players, max_size=players))
    grids = []
    for _ in range(players):
        scales = draw(st.sets(st.sampled_from((0.0, 0.5, 2.0, 3.0)), max_size=2))
        offsets = draw(st.sets(st.sampled_from((1.0, 2.0)), max_size=2))
        grids.append(ScalingGrid(tuple(sorted(scales | {1.0})), tuple(sorted(offsets | {0.0}))))
    actions = tuple(draw(st.integers(0, len(g.strategies) - 1)) for g in grids)
    rule = draw(
        st.sampled_from(
            (("english", None), ("dutch", None), ("mix", 0.3), ("mix", 0.0), ("mix", 1.0))
        )
    )
    return unit(float(v) for v in values), [g.strategies for g in grids], actions, rule


@given(tied_single_good_games(), st.data())
def test_keys_order_candidates_by_weight_then_owner(game, data):
    """Each candidate bid's key: keys of different players compare as
    (weight, owner) tuples, worth reads the bid back, and a zero bid has no
    challenge.  Menus get zero bids and uneven lengths added."""
    vals, menu, _, (rule, lam) = game
    menu = [
        list(m)[: data.draw(st.integers(1, len(m)))]
        + ([(0.0, 0.0)] if (0.0, 0.0) not in m and data.draw(st.booleans()) else [])
        for m in menu
    ]
    kernel = _SingleGood(vals, menu, rule, lam)
    cand, key = kernel.cand, kernel.key
    assert sorted(key.ravel().tolist()) == list(range(1, cand.size + 1))
    assert kernel.worth[key].tolist() == cand.tolist()
    assert kernel.worth[0] == 0.0 and kernel.worth[cand.size + 1] == np.inf
    assert kernel.challenge.tolist() == np.where(cand > 0, key, 0).tolist()
    cells = [(i, s) for i in range(cand.shape[0]) for s in range(cand.shape[1])]
    for i, s in cells:
        for h, t in cells:
            if i != h:
                assert (key[i, s] < key[h, t]) == ((cand[i, s], i) < (cand[h, t], h))


@given(tied_single_good_games())
def test_kernel_matches_engine_exactly(game):
    vals, menu, actions, (rule, lam) = game
    kernel = _SingleGood(vals, menu, rule, lam)
    players = len(vals)
    supplies = np.arange(players + 2)
    table, won = kernel.utilities(kernel.keys([actions]), [range(players)], supplies)
    table, won = table[0], won[0]
    for i in range(players):
        assert not table[i, len(menu[i]) :].any()
        for s in range(len(menu[i])):
            trial = tuple(s if h == i else a for h, a in enumerate(actions))
            want_bids = [scale_bid(vals[h], *menu[h][a]).weights[0] for h, a in enumerate(trial)]
            assert kernel.worth[kernel.keys(trial)].tolist() == want_bids
            for n in supplies:
                want, out = engine_utility(vals, menu, trial, i, int(n), rule, lam)
                assert table[i, s, n] == want, (i, s, n)
                assert won[i, s, n] == bool(out.allocation[i][0]), (i, s, n)


@given(tied_single_good_games(), st.data())
def test_stacked_kernel_rows_equal_one_profile_calls(game, data):
    vals, menu, _, (rule, lam) = game
    kernel = _SingleGood(vals, menu, rule, lam)
    players = len(vals)
    rows = data.draw(st.integers(1, 6))
    profiles = np.array(
        [[data.draw(st.integers(0, len(m) - 1)) for m in menu] for _ in range(rows)]
    )
    width = data.draw(st.integers(1, players))
    who = np.array([data.draw(st.permutations(range(players)))[:width] for _ in range(rows)])
    supplies = np.arange(players + 2)
    table, won = kernel.utilities(kernel.keys(profiles), who, supplies)
    assert table.shape == won.shape == (rows, width, kernel.cand.shape[1], supplies.size)
    for p in range(rows):
        one, one_won = kernel.utilities(kernel.keys(profiles[p : p + 1]), who[p : p + 1], supplies)
        assert table[p].tobytes() == one[0].tobytes()
        assert won[p].tobytes() == one_won[0].tobytes()


@given(
    tied_single_good_games(),
    st.sampled_from((("english", None), ("dutch", None), ("mix", 0.5), ("mix", 0.0), ("mix", 1.0))),
    st.data(),
)
def test_play_reads_the_stacked_kernel_row(game, rule, data):
    """A learning round is the one-profile ``table`` row at the round's
    supply, to the byte, and its welfare is the true value of the
    mechanism's winners."""
    vals, menu, actions, _ = game
    kernel = _SingleGood(vals, menu, *rule)
    n = (data.draw(st.integers(0, len(vals) + 2)),)
    uts, welfare = kernel.play(np.array(actions), n)
    want = kernel.table(np.array(actions)[None], kernel.owner[None], np.array(n))[0, ..., 0]
    assert uts.shape == want.shape and uts.tobytes() == want.tobytes()
    out = run_mechanism(
        tuple(scale_bid(v, *m[a]) for v, m, a in zip(vals, menu, actions)), n, *rule
    )
    assert welfare == sum(v.weights[0] for v, x in zip(vals, out.allocation) if x[0])


def scalar_best_response(ctx, profile, i):
    """The tie rule one menu entry at a time, in Python floats."""
    table = ctx._game.table([profile], [[i]], ctx._supplies)
    utils = ctx._expect(table)[0, 0, : len(ctx.menu[i])].tolist()
    best_s, best_u = None, None
    for s, u in enumerate(utils):
        if best_u is None or u > best_u + GAIN_TOL or (
            abs(u - best_u) <= GAIN_TOL
            and ctx.menu[i][s] > ctx.menu[i][best_s]
        ):
            best_s, best_u = s, u
    return best_s, best_u


@st.composite
def walk_games(draw):
    """A game for the best-reply walks: integer values and offset grids so
    that ties are common, menus of different sizes in shuffled order, exact
    or Monte Carlo atoms, and now and then a one-item KDemand game or a
    two-good KDemand (cap 2) game, which run on the exact engine.  Returns a
    context factory, restarts, max_sweeps and a seed."""
    family = draw(st.sampled_from(("unit", "unit", "unit", "one-item", "two-good")))
    goods = 2 if family == "two-good" else 1
    players = draw(st.integers(1, 5 if family == "unit" else 3))
    values = draw(st.lists(
        st.tuples(*[st.integers(1, 4)] * goods), min_size=players, max_size=players
    ))
    grids = []
    for _ in range(players):
        scales = draw(st.sets(st.sampled_from((0.0, 0.5, 2.0, 3.0)), max_size=2)) | {1.0}
        offsets = draw(st.sets(st.sampled_from((1.0, 2.0)), max_size=1)) | {0.0}
        grids.append(ScalingGrid(
            tuple(draw(st.permutations(sorted(scales)))),
            tuple(draw(st.permutations(sorted(offsets)))),
        ))
    rule, lam = draw(st.sampled_from(
        (("english", None), ("dutch", None), ("mix", 0.3), ("mix", 0.0))
    ))
    model = BinomialCounts(goods, draw(st.integers(1, 4)), 0.5)
    limit = draw(st.sampled_from((10_000, 0)))  # 0: Monte Carlo atoms
    kind = {
        "unit": UnitDemand,
        "one-item": lambda w: KDemand(w, 1),
        "two-good": lambda w: KDemand(w, 2),
    }[family]
    vals = tuple(kind(tuple(float(x) for x in v)) for v in values)

    def make():
        return GameContext(vals, grids, model, rule, lam, exact_limit=limit, mc_draws=16)

    restarts = draw(st.integers(0, 8))
    max_sweeps = draw(st.sampled_from((1, 2, 3, 50)))
    return make, restarts, max_sweeps, draw(st.integers(0, 2**16))


@settings(max_examples=150)
@given(walk_games())
def test_lockstep_walks_match_the_walk_by_walk_reference(game):
    make, restarts, max_sweeps, seed = game
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, dropped = best_response_dynamics(make(), rng, restarts, max_sweeps)
    want, want_dropped = reference_best_response_dynamics(make(), ref_rng, restarts, max_sweeps)
    assert [(r.profile, r.certification, r.ratio) for r in got] == [
        (r.profile, r.certification, r.ratio) for r in want
    ]
    assert got == want
    assert dropped == want_dropped
    assert rng.random() == ref_rng.random()


@given(walk_games(), st.data())
def test_best_responses_match_the_scalar_tie_rule(game, data):
    ctx = game[0]()
    stack = np.array([
        [data.draw(st.integers(0, len(m) - 1)) for m in ctx.menu]
        for _ in range(data.draw(st.integers(1, 5)))
    ])
    for i in range(ctx.players):
        want = [scalar_best_response(ctx, p, i) for p in stack.tolist()]
        assert [ctx.best_response(p, i) for p in stack.tolist()] == want
        assert ctx.best_responses(stack, i).tolist() == [s for s, _ in want]


def test_scan_takes_a_gain_over_the_tolerance_or_a_higher_ranked_tie():
    """Both games' reply rule on crafted ties: a gain of exactly GAIN_TOL is
    a tie, a tie goes to the higher rank, and equal ranks (the Fisher game's)
    keep the first of tied entries."""
    tol = GAIN_TOL
    utils = np.array([
        [1.0, 1.0, 1.0],  # exact ties
        [0.0, tol, -tol],  # a gain of exactly GAIN_TOL, then a tie with each
        [0.0, tol, tol / 2],  # the same gain, then a tie with both
        [0.0, 2 * tol, 0.0],  # a gain over GAIN_TOL, then a fall
        [0.0, -tol, 3 * tol],  # a tie below the best, then a gain over both
    ])
    best_s, best_u = strategic._scan(utils, np.zeros(3))
    assert best_s.tolist() == [0, 0, 0, 1, 2]
    assert best_u.tolist() == [1.0, 0.0, 0.0, 2 * tol, 3 * tol]
    assert strategic._scan(utils, np.array([2, 1, 0]))[0].tolist() == [0, 0, 0, 1, 2]
    best_s, best_u = strategic._scan(utils, np.array([0, 1, 2]))
    assert best_s.tolist() == [2, 1, 2, 1, 2]
    assert best_u.tolist() == [1.0, tol, tol / 2, 2 * tol, 3 * tol]


@pytest.mark.parametrize("restarts", (0, 1, 6))
def test_walk_starts_draw_both_games_streams(restarts):
    """The start draw equals each game's own former draw, on uneven menus:
    the auction's start array and the Fisher game's random start tuples."""
    menus = [range(k) for k in (3, 1, 5, 2)]
    auction_rng, fisher_rng, rng = (np.random.default_rng(11) for _ in range(3))
    auction = np.array(
        [[int(auction_rng.integers(0, len(m))) for m in menus] for _ in range(restarts)],
        dtype=int,
    ).reshape(restarts, len(menus))
    fisher = [
        tuple(int(fisher_rng.integers(0, len(m))) for m in menus) for _ in range(restarts)
    ]
    got = strategic._walk_starts(rng, np.array([len(m) for m in menus]), restarts)
    assert got.shape == auction.shape and got.dtype == auction.dtype
    assert got.tolist() == auction.tolist() == [list(p) for p in fisher]
    assert rng.random() == auction_rng.random() == fisher_rng.random()


def test_switch_gains_are_minus_inf_at_own_entries_and_past_menus():
    utils = np.array([[1.0, 3.0, 0.0], [2.0, 0.0, 0.0], [5.0, 4.0, 7.0]])
    cells = np.array([[True, True, False], [True, False, False], [True, True, True]])
    gains = strategic._switch_gains(utils, (1, 0, 2), cells)
    ninf = -math.inf
    assert gains.tolist() == [[-2.0, ninf, ninf], [ninf, ninf, ninf], [-2.0, -3.0, ninf]]


@given(walk_games(), st.data())
def test_certify_matches_the_per_entry_reference(game, data):
    """One table call certifies as the per-entry reference does, field for
    field, on random profiles and on the fixed points of walks from them:
    kernel and engine, every rule, exact and Monte Carlo atoms."""
    make, _, max_sweeps, _ = game
    ctx = make()
    stack = np.array([
        [data.draw(st.integers(0, len(m) - 1)) for m in ctx.menu]
        for _ in range(data.draw(st.integers(1, 4)))
    ])
    ends, _ = strategic.lockstep_walks(stack, ctx.best_responses, max_sweeps)
    for profile in [*map(tuple, stack.tolist()), *ends]:
        got, want = ctx.certify(profile), reference_certify(ctx, profile)
        if ctx.players == 1:
            # The reference's own utility is a lone ``stats`` row, which may
            # sit an ulp off the table's (see ``GameContext._expect``);
            # certify reads both off the table.
            assert got.max_gain == pytest.approx(want.max_gain, rel=1e-12, abs=1e-15)
            got = dataclasses.replace(got, max_gain=want.max_gain)
        assert got == want, profile


# Both paths below see the same game: a one-item KDemand is the same
# valuation as a UnitDemand but runs on the exact engine, and the paths must
# agree to the bit.  Values, grids and probabilities are dyadic, so every
# sum is exact: the learning test needs that, as the kernel sums realized
# welfare in slot order and the engine in player order.  Ties are common and
# one menu has a single entry.
PAIRED_WEIGHTS = (2.0, 2.0, 1.0, 3.0)
PAIRED_GRIDS = (
    ScalingGrid((0.0, 0.5, 1.0)),
    ScalingGrid((1.0,)),
    ScalingGrid((0.5, 1.0, 2.0), offsets=(0.0, 1.0)),
    ScalingGrid((1.0, 1.5)),
)
PAIRED_RULES = (("english", None), ("dutch", None), ("mix", 0.5))
# Dyadic values again, menus of 10 and 5 entries.
MIXED_VALUES = tuple(UnitDemand((w,)) for w in (0.75, 0.5, 1.0, 0.625))
MIXED_GRIDS = (
    ScalingGrid((0.0, 0.25, 0.5, 0.75, 1.0), offsets=(0.0, 0.5)),
    ScalingGrid((0.0, 0.25, 0.5, 0.75, 1.0)),
) * 2
MIXED_SEEDS = {
    ("english", "full"): 2,
    ("english", "bandit"): 0,
    ("dutch", "full"): 1,
    ("dutch", "bandit"): 5,
    ("mix", "full"): 4,
    ("mix", "bandit"): 3,
}


def paired_values(weights=PAIRED_WEIGHTS):
    return (
        tuple(UnitDemand((w,)) for w in weights),
        tuple(KDemand((w,), 1) for w in weights),
    )


def loop_learning(true_values, grids, model, config, rule, lam, seed):
    """Reference no-regret run, one player at a time, with every payoff from
    the exact engine: the draws and updates run_learning must reproduce.
    Returns (average welfare, regrets, play counts, final mixtures)."""
    players = len(true_values)
    menu = [g.strategies for g in grids]
    sizes = [len(m) for m in menu]
    T, chi = config.rounds, config.payoff_bound
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    etas = [math.sqrt(8.0 * math.log(k) / T) if k > 1 else 0.0 for k in sizes]
    explore = [
        min(1.0, math.sqrt(k * math.log(k) / ((math.e - 1.0) * T))) if k > 1 else 0.0
        for k in sizes
    ]
    scores = [np.zeros(k) for k in sizes]
    cum_counter = [np.zeros(k) for k in sizes]
    cum_mixture = [0.0] * players
    counts = [[0] * k for k in sizes]
    welfare = 0.0

    def outcome(profile, n):
        bids = tuple(scale_bid(true_values[h], *menu[h][a]) for h, a in enumerate(profile))
        return run_mechanism(bids, n, rule, lam)

    def mixture(i):
        wts = np.exp(etas[i] * (scores[i] - scores[i].max()))
        return wts / wts.sum()

    for _ in range(T):
        n = sample(model, rng)
        mixtures = []
        for i in range(players):
            sigma = mixture(i)
            if config.feedback == "bandit":
                sigma = (1.0 - explore[i]) * sigma + explore[i] / sizes[i]
            mixtures.append(sigma)
        u = rng.random(players)
        actions = [
            min(int(np.searchsorted(np.cumsum(mixtures[i]), u[i], side="right")), sizes[i] - 1)
            for i in range(players)
        ]
        for i in range(players):
            uts = np.zeros(sizes[i])
            for s in range(sizes[i]):
                o = outcome(actions[:i] + [s] + actions[i + 1 :], n)
                uts[s] = value(true_values[i], o.allocation[i]) - o.payments[i]
            norm = (uts + chi) / (2.0 * chi)
            a = actions[i]
            if config.feedback == "full":
                scores[i] += norm
            else:
                scores[i][a] += norm[a] / mixtures[i][a]
            cum_counter[i] += uts
            cum_mixture[i] += float(mixtures[i] @ uts)
            counts[i][a] += 1
        o = outcome(actions, n)
        welfare += sum(value(v, x) for v, x in zip(true_values, o.allocation))
    regrets = tuple(float(cum_counter[i].max() - cum_mixture[i]) for i in range(players))
    mixtures = tuple(tuple(mixture(i).tolist()) for i in range(players))
    return welfare / T, regrets, tuple(tuple(c) for c in counts), mixtures


@pytest.mark.parametrize("feedback", ("full", "bandit"))
@pytest.mark.parametrize("rule, lam", PAIRED_RULES)
def test_learning_paths_match_player_loop_reference(rule, lam, feedback):
    fast_vals, engine_vals = paired_values()
    chi = max(
        max(w, g * w + d) for w, grid in zip(PAIRED_WEIGHTS, PAIRED_GRIDS) for g, d in grid.strategies
    )
    cfg = LearningConfig(rounds=150, feedback=feedback, payoff_bound=chi)
    model = BinomialCounts(1, 4, 0.5)
    fast = run_learning(fast_vals, PAIRED_GRIDS, model, cfg, rule, lam, seed=3)
    engine = run_learning(engine_vals, PAIRED_GRIDS, model, cfg, rule, lam, seed=3)
    assert fast.play_counts == engine.play_counts
    assert fast.regrets == engine.regrets
    assert fast.average_welfare == engine.average_welfare
    assert fast == engine
    want = loop_learning(fast_vals, PAIRED_GRIDS, model, cfg, rule, lam, seed=3)
    assert (fast.average_welfare, fast.regrets, fast.play_counts, fast.mixtures) == want
    # Menus of 10 and 5 entries: each mixture is normalized over its own
    # menu, as the loop does.  numpy sums rows of 8 or more entries
    # pairwise, so normalizing a zero-padded row is off by an ulp; the seed
    # is one of 0-5 where it was.
    cfg = LearningConfig(rounds=200, feedback=feedback, payoff_bound=1.5)
    seed = MIXED_SEEDS[rule, feedback]
    got = run_learning(MIXED_VALUES, MIXED_GRIDS, model, cfg, rule, lam, seed=seed)
    want = loop_learning(MIXED_VALUES, MIXED_GRIDS, model, cfg, rule, lam, seed)
    assert (got.average_welfare, got.regrets, got.play_counts, got.mixtures) == want


# The bundled regret game's shape: 8 players, 5 menu entries, N = 24.
BUNDLED_GRID = ScalingGrid((0.0, 0.25, 0.5, 0.75, 1.0))


@pytest.mark.parametrize("feedback", ("full", "bandit"))
@pytest.mark.parametrize("rule, lam", PAIRED_RULES)
def test_learning_matches_the_reference_loop_on_the_bundled_shape(rule, lam, feedback):
    vals = unit(np.random.default_rng(5).uniform(0.5, 1.0, 8))
    cfg = LearningConfig(rounds=300, feedback=feedback, payoff_bound=1.0)
    model = BinomialCounts(1, 24, 0.5)
    got = run_learning(vals, BUNDLED_GRID, model, cfg, rule, lam, seed=7)
    want = reference_run_learning(vals, BUNDLED_GRID, model, cfg, rule, lam, seed=7)
    for field in dataclasses.fields(LearningResult):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


def block_edges(block):
    """Round counts at the edges of a block of ``block`` rounds: inside one
    block, exactly one, one round past it, and two folds then a partial
    block."""
    return (1, block - 1, block, block + 1, 2 * block + 3)


@pytest.mark.parametrize("feedback", ("full", "bandit"))
@pytest.mark.parametrize("rule, lam", PAIRED_RULES)
def test_learning_folds_equal_the_reference_at_the_block_edges(rule, lam, feedback):
    # The paired game's menus of 3, 1, 6 and 2 entries with values that are
    # not dyadic, so a sum taken in another order would show.
    weights = np.random.default_rng(11).uniform(0.5, 1.0, len(PAIRED_GRIDS))
    vals = unit(weights)
    chi = max(max(w, g * w + d) for w, grid in zip(weights, PAIRED_GRIDS) for g, d in grid.strategies)
    model = BinomialCounts(1, 4, 0.5)
    block = _Hedge([len(g.strategies) for g in PAIRED_GRIDS], 10**6).block
    assert block == _Hedge.BLOCK_ELEMENTS // (4 * 6)
    for rounds in block_edges(block):
        cfg = LearningConfig(rounds=rounds, feedback=feedback, payoff_bound=chi)
        got = run_learning(vals, PAIRED_GRIDS, model, cfg, rule, lam, seed=rounds)
        want = reference_run_learning(vals, PAIRED_GRIDS, model, cfg, rule, lam, seed=rounds)
        for field in dataclasses.fields(LearningResult):
            assert getattr(got, field.name) == getattr(want, field.name), (rounds, field.name)


@pytest.mark.parametrize("feedback", ("full", "bandit"))
@pytest.mark.parametrize("rule, lam", PAIRED_RULES)
def test_mixed_menu_learning_equals_the_player_loop_at_the_block_edges(monkeypatch, rule, lam, feedback):
    # The player loop runs the mechanism once per menu entry and player, so
    # the block is cut to 8 rounds here; a fold does not depend on its length.
    monkeypatch.setattr(_Hedge, "BLOCK_ROUNDS", 8)
    model = BinomialCounts(1, 4, 0.5)
    block = _Hedge([len(g.strategies) for g in MIXED_GRIDS], 10**6).block
    assert block == 8
    for rounds in block_edges(block):
        cfg = LearningConfig(rounds=rounds, feedback=feedback, payoff_bound=1.5)
        got = run_learning(MIXED_VALUES, MIXED_GRIDS, model, cfg, rule, lam, seed=rounds)
        want = loop_learning(MIXED_VALUES, MIXED_GRIDS, model, cfg, rule, lam, rounds)
        assert (got.average_welfare, got.regrets, got.play_counts, got.mixtures) == want, rounds


def test_learning_buffers_stay_within_the_element_budget(monkeypatch):
    # 1,000 players x 5 entries: a block of 512 rounds would hold 2.56 M
    # elements per buffer; the budget cuts it to one round, so every round
    # is folded on its own.
    learners = []

    class Recorded(_Hedge):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            learners.append(self)

    monkeypatch.setattr(strategic, "_Hedge", Recorded)
    vals = unit(np.random.default_rng(3).uniform(0.5, 1.0, 1000))
    cfg = LearningConfig(rounds=20, payoff_bound=1.0)
    model = BinomialCounts(1, 400, 0.5)
    got = run_learning(vals, BUNDLED_GRID, model, cfg, seed=1)
    (learner,) = learners
    assert learner.block == 1
    for buffer in (learner._payoffs, learner._mixtures, learner._actions):
        assert buffer.shape[0] == learner.block
        assert buffer.size <= _Hedge.BLOCK_ELEMENTS
    assert got == reference_run_learning(vals, BUNDLED_GRID, model, cfg, seed=1)


def test_learning_samples_the_optimum_past_the_exact_limit():
    # Two goods of 0..100 copies: 10,201 atoms, past the 10,000 that
    # ``run_learning`` sums exactly, so it averages 2,000 sampled atoms.
    model = BinomialCounts(2, 100, 0.02)
    assert support_size(model) > 10_000
    rng = np.random.default_rng(4)
    vals = tuple(UnitDemand(tuple(rng.uniform(0.5, 1.0, 2))) for _ in range(5))
    cfg = LearningConfig(rounds=3)
    got = run_learning(vals, ScalingGrid((0.5, 1.0)), model, cfg, seed=2)
    assert got == run_learning(vals, ScalingGrid((0.5, 1.0)), model, cfg, seed=2)
    oracle = WelfareOracle(vals)
    atoms = [(p, oracle.welfare(c)) for c, p in iter_support(model)]
    mean = math.fsum(p * w for p, w in atoms)
    var = math.fsum(p * (w - mean) ** 2 for p, w in atoms)
    assert got.expected_opt != mean
    assert abs(got.expected_opt - mean) <= 4.0 * math.sqrt(var / 2000)


def test_hedge_mixtures_equal_per_buyer_normalization():
    rng = np.random.default_rng(0)
    # Menus of several sizes, and of one size (no padding).
    for sizes in (np.array([13, 9, 1, 13, 8, 7, 2]), np.array([9, 9, 9])):
        learner = _Hedge(sizes, 100)
        learner.etas = rng.uniform(0.0, 1.0, (len(sizes), 1))
        own = np.arange(sizes.max()) < sizes[:, None]
        for _ in range(100):
            # Padded entries hold scores too; the hedge must not read them.
            learner.scores = np.where(own, rng.uniform(0.0, 40.0, own.shape), rng.uniform(50.0, 90.0))
            got = learner.mixtures()
            for i, k in enumerate(sizes):
                scores = learner.scores[i, :k]
                w = np.exp(float(learner.etas[i, 0]) * (scores - scores.max()))
                # Bit-equal, rows of 8 or more entries included.
                assert np.array_equal(got[i, :k], w / w.sum())
                assert not got[i, k:].any()


@pytest.mark.parametrize("rule, lam", PAIRED_RULES)
def test_best_response_and_certify_match_engine_path(rule, lam):
    rng = np.random.default_rng(11)
    for weights, model, limit in (
        (PAIRED_WEIGHTS, FixedCounts((2,)), 10_000),
        (PAIRED_WEIGHTS, BinomialCounts(1, 4, 0.5), 10_000),
        (PAIRED_WEIGHTS, BinomialCounts(1, 4, 0.5), 0),  # Monte Carlo certification
        # Non-dyadic weights over 13 atoms: sums round, but both paths
        # take expectations of bit-equal tables the same way.
        ((0.7, 1.3, 0.9, 2.1), BinomialCounts(1, 12, 0.37), 10_000),
    ):
        fast_vals, engine_vals = paired_values(weights)
        fast = GameContext(fast_vals, PAIRED_GRIDS, model, rule, lam, exact_limit=limit, mc_draws=16)
        engine = GameContext(engine_vals, PAIRED_GRIDS, model, rule, lam, exact_limit=limit, mc_draws=16)
        assert isinstance(fast._game, _SingleGood) and isinstance(engine._game, _Engine)
        profiles = np.array([[int(rng.integers(len(m))) for m in fast.menu] for _ in range(10)])
        for profile in map(tuple, profiles.tolist()):
            assert fast.stats(profile) == engine.stats(profile)
            assert fast.certify(profile) == engine.certify(profile)
            for i in range(fast.players):
                assert fast.best_response(profile, i) == engine.best_response(profile, i)
        for i in range(fast.players):
            assert (
                fast.best_responses(profiles, i).tolist()
                == engine.best_responses(profiles, i).tolist()
            )


# -- Monte Carlo mode ----------------------------------------------------------


def test_monte_carlo_stats_are_deterministic_and_close_to_exact():
    vals = unit((1.0, 0.8, 0.6))
    grid = ScalingGrid((0.5, 1.0))
    model = BinomialCounts(1, 3, 0.5)
    exact = GameContext(vals, grid, model)
    mc_a = GameContext(vals, grid, model, exact_limit=2, mc_draws=4000, seed=11)
    mc_b = GameContext(vals, grid, model, exact_limit=2, mc_draws=4000, seed=11)
    assert not mc_a.exact
    profile = (1, 1, 0)
    assert mc_a.stats(profile) == mc_b.stats(profile)
    assert mc_a.stats(profile).sw_true == pytest.approx(
        exact.stats(profile).sw_true, abs=0.1
    )


@pytest.mark.parametrize("draws", [0, 1])
def test_monte_carlo_needs_two_draws(draws):
    # One draw has no sample deviation (its interval would be NaN), and none
    # no mean.
    with pytest.raises(ValueError):
        GameContext(
            unit((1.0, 0.8)), ScalingGrid((0.0, 1.0)), BinomialCounts(1, 3, 0.5),
            exact_limit=0, mc_draws=draws,
        )


@pytest.mark.parametrize("rule, lam", [("x", None), ("mix", None)])
def test_games_reject_a_bad_rule(rule, lam):
    vals, grid, model = unit((1.0, 0.8)), ScalingGrid((0.0, 1.0)), BinomialCounts(1, 3, 0.5)
    with pytest.raises(ValueError):
        GameContext(vals, grid, model, rule, lam)
    with pytest.raises(ValueError):
        run_learning(vals, grid, model, LearningConfig(rounds=4), rule, lam)


def test_monte_carlo_certification_reports_interval():
    vals = unit((10.0, 1.0))
    grids = [ScalingGrid((0.0, 1.0)), ScalingGrid((0.0, 1.0, 10.0))]
    ctx = GameContext(
        vals, grids, FixedCounts((1,)), exact_limit=0, mc_draws=500, seed=3
    )
    cert = ctx.certify((0, 2))
    assert cert.kind == "eps-nash"
    assert cert.ci99 is not None
    # The witness is a real deviation, never the profile's own entry.
    assert cert.witness == (0, 1)
    # Degenerate supply: every draw is identical, so the interval collapses.
    assert cert.ci99[0] == pytest.approx(cert.ci99[1])
    bad = ctx.certify((0, 1))
    assert bad.kind == "not-equilibrium"
    assert bad.ci99[0] > 0


# -- ratio bounds --------------------------------------------------------------


def test_ratio_bound_sqrt_frozen_value():
    # ball = C(3,1) = 3; 3k zeta m / rho = 1/16; sqrt(3 * 0.0625 * 3) = 0.75.
    got = ratio_bound_sqrt(1, 1, 1.0, 48.0, 0.0625)
    assert got == pytest.approx(1.0 - 0.75 / 16.0)


def test_ratio_bound_log_frozen_value():
    # Y = 2 * 1 * 0.0625 * C(3,1) = 0.375, two halving steps.
    got = ratio_bound_log(1, 1, 1.0, 48.0, 0.0625)
    assert got == pytest.approx(1.0 - 0.125 * 0.375 * 2)


def test_ratio_bound_log_vacuous_when_mass_reaches_one():
    assert ratio_bound_log(1, 1, 1.0, 48.0, 0.5) == -math.inf
    assert ratio_bound_log(2, 2, 1.0, 10.0, 0.9) == -math.inf


def test_bounds_decrease_with_peak_mass():
    lo = ratio_bound_sqrt(1, 1, 1.0, 48.0, 0.01)
    hi = ratio_bound_sqrt(1, 1, 1.0, 48.0, 0.09)
    assert lo > hi


# -- price floor / bracket / smooth checks -------------------------------------


def test_price_floor_holds_on_random_markets():
    rng = np.random.default_rng(5)
    for _ in range(40):
        bids, supply = random_market(rng)
        for rule, lam in (("english", None), ("dutch", None), ("mix", 0.5)):
            for i in range(len(bids)):
                verdict = check_price_floor(bids, i, supply, rule, lam)
                assert verdict.ok, verdict.detail


def test_price_floor_hand_case():
    bids = unit((5.0, 3.0))
    assert check_price_floor(bids, 0, (1,)).ok
    assert check_price_floor(bids, 1, (1,), rule="dutch").ok


def test_bracket_gate_rejects_scarce_supply():
    vals = unit((1.0, 0.9))
    bids = tuple(scale_bid(v, 0.5) for v in vals)
    verdict = check_price_bracket(vals, bids, 0, (2,), 1, 0.05, 1.0)
    assert not verdict.applied
    assert verdict.ok


def test_bracket_and_smooth_hold_on_abundant_stable_market():
    vals = unit((1.0, 0.9, 0.8))
    bids = tuple(scale_bid(v, 0.5) for v in vals)
    # Supply beyond every demand: prices vanish on both profiles and the
    # distance probe sees no movement anywhere near the support.
    supply = (10,)
    bracket = check_price_bracket(vals, bids, 0, supply, 1, 0.05, 1.0)
    assert bracket.applied and bracket.ok
    smooth = check_smooth_bound(vals, bids, 0, supply, 1, 0.05, 1.0)
    assert smooth.applied and smooth.ok


def test_smooth_gate_requires_ceiling_above_item_values():
    vals = unit((1.0, 0.9, 0.8))
    bids = tuple(scale_bid(v, 0.5) for v in vals)
    verdict = check_smooth_bound(vals, bids, 0, (10,), 1, 0.05, 0.5)
    assert not verdict.applied


def test_bracket_and_smooth_random_corpus():
    rng = np.random.default_rng(17)
    applied = 0
    for _ in range(30):
        n_players = int(rng.integers(2, 5))
        cap = int(rng.integers(1, 3))
        vals = tuple(
            KDemand((float(rng.uniform(0.2, 1.0)),), cap) for _ in range(n_players)
        )
        bids = tuple(scale_bid(v, float(rng.uniform(0.3, 1.0))) for v in vals)
        supply = (int(rng.integers(cap + 2, n_players * cap + 4)),)
        ceiling = 1.0
        threshold = float(rng.uniform(0.05, 0.5))
        for i in range(n_players):
            b = check_price_bracket(vals, bids, i, supply, cap, threshold, ceiling)
            s = check_smooth_bound(vals, bids, i, supply, cap, threshold, ceiling)
            assert b.ok, b.detail
            assert s.ok, s.detail
            applied += b.applied + s.applied
    assert applied > 0  # the gate must not filter everything


# -- learning dynamics ----------------------------------------------------------


def test_learning_is_deterministic_under_seed():
    vals = unit((1.0, 0.7, 0.4))
    grid = ScalingGrid((0.0, 0.5, 1.0))
    cfg = LearningConfig(rounds=300)
    a = run_learning(vals, grid, BinomialCounts(1, 3, 0.5), cfg, seed=123)
    b = run_learning(vals, grid, BinomialCounts(1, 3, 0.5), cfg, seed=123)
    assert a == b
    c = run_learning(vals, grid, BinomialCounts(1, 3, 0.5), cfg, seed=124)
    assert a != c


def test_learning_regret_stays_within_budget():
    vals = unit((1.0, 0.8, 0.6, 0.4))
    grid = ScalingGrid((0.0, 0.5, 1.0))
    cfg = LearningConfig(rounds=2000)
    res = run_learning(vals, grid, BinomialCounts(1, 4, 0.5), cfg, seed=7)
    for r, budget in zip(res.regrets, res.regret_budgets):
        assert r <= budget
    assert res.rounds == 2000
    assert 0.0 < res.average_welfare <= res.expected_opt + 1e-9


def test_learning_payoff_bound_is_enforced():
    grid = ScalingGrid((0.0, 1.0))
    cases = (
        # Both players are over the bound in the first round.
        ((10.0, 1.0), FixedCounts((1,)), 50, 0, 1),
        # Only player 1 can be, and only in a round with a copy for sale:
        # the first of those comes after the first block.
        ((0.25, 10.0), BinomialCounts(1, 1, 0.001), 1000, 2, 790),
    )
    for vals, model, rounds, seed, first in cases:
        cfg = LearningConfig(rounds=rounds, payoff_bound=0.5)
        # The supply draws do not depend on play: replay them to the first
        # round that sells a copy.
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for sold in range(1, rounds + 1):
            copies = sample(model, rng)[0]
            rng.random(2)  # the round's draw of actions
            if copies:
                break
        assert sold == first
        if first > 1:
            assert first > _Hedge([2, 2], rounds).block
        with pytest.raises(ValueError) as got:
            run_learning(unit(vals), grid, model, cfg, seed=seed)
        with pytest.raises(ValueError) as want:
            reference_run_learning(unit(vals), grid, model, cfg, seed=seed)
        assert str(got.value) == str(want.value)
        player = 0 if first == 1 else 1
        assert str(got.value).startswith(f"payoff bound 0.5 does not cover player {player}'s")


def test_learning_single_bidder_learns_to_take_the_copy():
    vals = unit((1.0,))
    grid = ScalingGrid((0.0, 1.0))
    cfg = LearningConfig(rounds=800)
    res = run_learning(vals, grid, FixedCounts((1,)), cfg, seed=2)
    # Bidding truthfully wins the lone copy for free every round.
    assert res.mixtures[0][1] > 0.9
    assert res.average_welfare > 0.9


def test_learning_bandit_mode_reports_regret_without_assert():
    vals = unit((1.0, 0.6))
    grid = ScalingGrid((0.0, 0.5, 1.0))
    cfg = LearningConfig(rounds=400, feedback="bandit")
    res = run_learning(vals, grid, BinomialCounts(1, 2, 0.5), cfg, seed=5)
    assert len(res.regrets) == 2
    assert all(math.isfinite(r) for r in res.regrets)


def test_learning_general_path_matches_on_multi_good():
    vals = (KDemand((1.0, 0.8), 2), KDemand((0.9, 0.3), 1))
    grid = ScalingGrid((0.5, 1.0))
    cfg = LearningConfig(rounds=60, payoff_bound=2.0)
    res = run_learning(vals, grid, FixedCounts((1, 1)), cfg, seed=8)
    assert res.rounds == 60
    for r, budget in zip(res.regrets, res.regret_budgets):
        assert r <= budget


def test_learning_config_validation():
    with pytest.raises(ValueError):
        LearningConfig(rounds=0)
    with pytest.raises(ValueError):
        LearningConfig(rounds=10, feedback="oracle")
    with pytest.raises(ValueError):
        LearningConfig(rounds=10, payoff_bound=0.0)


@pytest.mark.parametrize("count", (2, 4))
@pytest.mark.parametrize(
    "values, supply",
    (
        ((UnitDemand((1.0,)), UnitDemand((0.8,)), UnitDemand((0.5,))), FixedCounts((2,))),
        ((KDemand((1.0, 0.8), 2), KDemand((0.9, 0.3), 1), UnitDemand((0.4, 0.7))), FixedCounts((1, 1))),
    ),
    ids=("single-good", "engine"),
)
def test_a_wrong_grid_count_is_refused_alike(values, supply, count):
    grids = [ScalingGrid((0.5, 1.0))] * count
    with pytest.raises(ValueError, match="^need one grid per player$"):
        GameContext(values, grids, supply)
    with pytest.raises(ValueError, match="^need one grid per player$"):
        run_learning(values, grids, supply, LearningConfig(rounds=5))
