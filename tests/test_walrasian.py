import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from marketlab import walrasian
from marketlab.errors import InternalCheckError, SizeLimitError
from marketlab.valuations import Explicit, KDemand, UnitDemand, value
from marketlab.walrasian import (
    Outcome,
    WelfareOracle,
    _assigned_sum,
    _max_assignment,
    max_welfare,
    run_mechanism,
    truncated_distance,
    validate_outcome,
)
from oracles import (
    ScipyWelfareOracle,
    assert_valid_outcome,
    oracle_best_allocation,
    random_market,
)

THREE_UNIT_BIDDERS = (UnitDemand((5.0,)), UnitDemand((3.0,)), UnitDemand((2.0,)))


def test_max_welfare_single_good():
    val, alloc = max_welfare(THREE_UNIT_BIDDERS, (2,))
    assert val == 8.0
    assert alloc == ((1,), (1,), (0,))
    assert max_welfare(THREE_UNIT_BIDDERS, (0,))[0] == 0.0
    assert max_welfare(THREE_UNIT_BIDDERS, (5,))[0] == 10.0


def test_english_prices_single_good():
    oracle = WelfareOracle(THREE_UNIT_BIDDERS)
    assert oracle.english((2,)) == pytest.approx([2.0])
    assert oracle.english((0,)) == pytest.approx([5.0])
    assert oracle.english((3,)) == pytest.approx([0.0])


def test_dutch_prices_single_good():
    oracle = WelfareOracle(THREE_UNIT_BIDDERS)
    assert oracle.dutch((2,)) == pytest.approx([3.0])
    assert oracle.dutch((0,))[0] == math.inf
    assert oracle.dutch((4,)) == pytest.approx([0.0])


def test_mixed_prices_blend_and_sentinel():
    oracle = WelfareOracle(THREE_UNIT_BIDDERS)
    assert oracle.prices((2,), "mix", 0.5) == pytest.approx([2.5])
    assert oracle.prices((2,), "mix", 0.0) == pytest.approx([2.0])
    assert oracle.prices((2,), "mix", 1.0) == pytest.approx([3.0])
    # At zero supply the high end is infinite and any positive blend keeps it.
    assert oracle.prices((0,), "mix", 0.5)[0] == math.inf
    assert oracle.prices((0,), "mix", 0.0) == pytest.approx([5.0])
    with pytest.raises(ValueError):
        oracle.prices((2,), "mix", 1.5)


def test_mixed_rule_stays_valid_with_zero_supply_good():
    # Regression: a finite price on the zero-supply good 2 would leave the
    # last bidder strictly preferring it over their assigned good 0.
    bids = (
        KDemand((5.224, 1.31, 1.381), cap=1),
        KDemand((4.225, 5.683, 0.407), cap=2),
        UnitDemand((2.03, 3.612, 0.254)),
        KDemand((0.49, 5.827, 3.533), cap=2),
        UnitDemand((2.222, 2.59, 3.139)),
    )
    out = run_mechanism(bids, (4, 3, 0), "mix", 0.5)
    assert out.prices[2] == math.inf
    assert_valid_outcome(bids, out)


def test_two_good_prices_match_marginal_welfare():
    bids = (KDemand((5.0, 3.0), cap=2), UnitDemand((4.0, 1.0)))
    oracle = WelfareOracle(bids)
    # SW(1,1)=8 via bundle (1,1); SW(2,1)=12 adds the unit bidder's 4;
    # SW(1,2)=10 via (0,2)+(1,0); SW(0,1)=3; SW(1,0)=5.
    assert oracle.welfare((1, 1)) == 8.0
    assert oracle.english((1, 1)) == pytest.approx([4.0, 2.0])
    assert oracle.dutch((1, 1)) == pytest.approx([5.0, 3.0])


def test_allocation_tie_goes_to_later_bidder():
    bids = (UnitDemand((5.0,)), UnitDemand((3.0,)), UnitDemand((3.0,)))
    _, alloc = max_welfare(bids, (2,))
    assert alloc == ((1,), (0,), (1,))
    assert alloc == oracle_best_allocation(bids, (2,))[1]


def test_zero_bid_slots_never_allocated():
    bids = (UnitDemand((0.0,)), UnitDemand((2.0,)))
    _, alloc = max_welfare(bids, (2,))
    assert alloc == ((0,), (1,))  # one copy stays unsold at price zero


def test_welfare_and_allocation_match_oracle_random():
    rng = np.random.default_rng(101)
    for _ in range(120):
        bids, supply = random_market(rng)
        val, alloc = max_welfare(bids, supply)
        oval, oalloc = oracle_best_allocation(bids, supply)
        assert val == pytest.approx(oval, abs=1e-9)
        assert alloc == oalloc


def test_explicit_profile_uses_exhaustive_path():
    bids = (
        Explicit(2, 2, (((1, 1), 10.0),)),
        UnitDemand((4.0, 1.0)),
    )
    val, alloc = max_welfare(bids, (1, 1))
    oval, oalloc = oracle_best_allocation(bids, (1, 1))
    assert val == pytest.approx(oval) == 10.0
    assert alloc == oalloc == ((1, 1), (0, 0))


def test_explicit_path_size_guard():
    # Per-good supply clips at the profile's total demand, so the guard needs
    # enough aggregate cap to leave a huge state space.
    bids = tuple(Explicit(4, 6, (((1, 0, 0, 0), 1.0),)) for _ in range(5))
    with pytest.raises(SizeLimitError):
        max_welfare(bids, (25, 25, 25, 25))


def test_run_mechanism_low_value_winner_at_zero_price():
    bids = (UnitDemand((0.0,)), UnitDemand((10.0,)))
    out = run_mechanism(bids, (1,), "english")
    assert out.prices == (0.0,)
    assert out.allocation == ((0,), (1,))
    assert out.payments == (0.0, 0.0)
    assert out.sw_bids == 10.0
    true_values = (UnitDemand((10.0,)), UnitDemand((1.0,)))
    assert sum(value(v, x) for v, x in zip(true_values, out.allocation)) == 1.0


def test_run_mechanism_validates_on_gs_corpus():
    rng = np.random.default_rng(55)
    for _ in range(100):
        bids, supply = random_market(rng)
        for rule, lam in (("english", None), ("dutch", None), ("mix", 0.5)):
            out = run_mechanism(bids, supply, rule, lam)
            assert_valid_outcome(bids, out)


def test_validate_flags_over_allocation():
    bids = THREE_UNIT_BIDDERS
    out = run_mechanism(bids, (1,))
    bad = Outcome(
        rule=out.rule,
        lam=None,
        supply=out.supply,
        prices=out.prices,
        allocation=((1,), (1,), (0,)),
        payments=out.payments,
        sw_bids=out.sw_bids,
    )
    ok, problems = validate_outcome(bids, bad)
    assert not ok and any("over-allocated" in p for p in problems)


def test_validate_flags_unsold_positively_priced_good():
    bids = THREE_UNIT_BIDDERS
    bad = Outcome(
        rule="english",
        lam=None,
        supply=(2,),
        prices=(2.0,),
        allocation=((1,), (0,), (0,)),
        payments=(2.0, 0.0, 0.0),
        sw_bids=8.0,
    )
    ok, problems = validate_outcome(bids, bad)
    assert not ok and any("sold" in p for p in problems)


def test_validate_flags_envy():
    bids = THREE_UNIT_BIDDERS
    bad = Outcome(
        rule="english",
        lam=None,
        supply=(2,),
        prices=(2.0,),
        allocation=((1,), (0,), (1,)),  # bidder 1 (value 3) priced in but left out
        payments=(2.0, 0.0, 2.0),
        sw_bids=8.0,
    )
    ok, problems = validate_outcome(bids, bad)
    assert not ok and any("demands utility" in p for p in problems)


def test_validate_reports_a_malformed_bundle_instead_of_raising():
    # A one-good bundle and a negative count in a two-good market: both are
    # reported, and the well-formed bundle is still checked for envy.
    bids = (UnitDemand((5.0, 3.0)), UnitDemand((2.0, 6.0)), UnitDemand((4.0, 1.0)))
    bad = Outcome(
        rule="english",
        lam=None,
        supply=(1, 1),
        prices=(1.0, 1.0),
        allocation=((1,), (0, -1), (0, 0)),
        payments=(1.0, 0.0, 0.0),
        sw_bids=5.0,
    )
    ok, problems = validate_outcome(bids, bad)
    assert not ok
    assert problems[:2] == ["bidder 0 bundle malformed", "bidder 1 bundle malformed"]
    assert [p for p in problems if p.startswith("bidder 2")] == [
        "bidder 2 got utility 0 but demands utility 3"
    ]


def test_dutch_infinite_price_good_stays_unallocated():
    bids = (UnitDemand((5.0, 3.0)), UnitDemand((2.0, 6.0)))
    out = run_mechanism(bids, (0, 2), "dutch")
    assert out.prices[0] == math.inf
    assert all(x[0] == 0 for x in out.allocation)
    assert_valid_outcome(bids, out)
    assert all(math.isfinite(p) for p in out.payments)


def test_price_bounds_and_monotonicity_random():
    rng = np.random.default_rng(77)
    for _ in range(150):
        bids, supply = random_market(rng, max_goods=2, max_copies=3)
        oracle = WelfareOracle(bids)
        eng = oracle.english(supply)
        dut = oracle.dutch(supply)
        assert np.all(eng <= dut + 1e-9)
        assert np.all(eng >= -1e-12)
        for j in range(oracle.m):
            bumped = supply[:j] + (supply[j] + 1,) + supply[j + 1 :]
            eng_up = oracle.english(bumped)
            dut_up = oracle.dutch(bumped)
            assert np.all(eng_up <= eng + 1e-9)
            assert np.all(dut_up <= dut + 1e-9)


def test_truncated_distance():
    assert truncated_distance((5.0, 3.0), (2.0, 10.0), 4.0) == pytest.approx(3.0)
    assert truncated_distance((math.inf,), (0.0,), 7.0) == pytest.approx(7.0)
    assert truncated_distance((2.0,), (2.0,), 9.0) == 0.0
    with pytest.raises(ValueError):
        truncated_distance((1.0,), (1.0,), -1.0)
    with pytest.raises(ValueError):
        truncated_distance((1.0,), (1.0, 2.0), 1.0)


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        WelfareOracle(())
    with pytest.raises(ValueError):
        WelfareOracle((UnitDemand((1.0,)), UnitDemand((1.0, 2.0))))
    with pytest.raises(ValueError):
        max_welfare(THREE_UNIT_BIDDERS, (1, 1))
    with pytest.raises(ValueError):
        max_welfare(THREE_UNIT_BIDDERS, (-1,))
    # The assignment solver needs finite gains; the oracle checks them once.
    with pytest.raises(ValueError, match="finite"):
        WelfareOracle((UnitDemand((math.inf, 1.0)), UnitDemand((1.0, 2.0))))


def test_suffix_values_agree_across_paths():
    # The greedy allocation leans on suffix welfare; spot-check it equals a
    # fresh oracle on the tail profile.  The slots path allocates without
    # it, so one-good markets are skipped.
    rng = np.random.default_rng(9)
    for _ in range(40):
        bids, supply = random_market(rng, max_goods=3)
        oracle = WelfareOracle(bids)
        if oracle._mode == "slots":
            continue
        for start in range(1, len(bids)):
            tail = WelfareOracle(bids[start:])
            got = oracle._suffix_value(start, supply)
            assert got == pytest.approx(tail.welfare(supply), abs=1e-9)


# Shapes of gain matrices, as (rows, columns) strategies.
SHAPES = {
    "tall": st.integers(1, 6).flatmap(lambda c: st.tuples(st.integers(c + 1, 7), st.just(c))),
    "wide": st.integers(1, 6).flatmap(lambda r: st.tuples(st.just(r), st.integers(r + 1, 7))),
    "square": st.integers(1, 7).map(lambda n: (n, n)),
    "one-row": st.integers(1, 7).map(lambda k: (1, k)),
    "one-column": st.integers(1, 7).map(lambda k: (k, 1)),
}
# Entries of gain matrices: a five-value grid full of ties, spread floats, zeros.
ENTRIES = {
    "tie-grid": st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0)),
    "floats": st.floats(0.0, 10.0, allow_nan=False),
    "zeros": st.just(0.0),
}


@pytest.mark.parametrize("entries", sorted(ENTRIES))
@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=60)
@given(data=st.data())
def test_max_assignment_equals_scipy(shape, entries, data):
    rows, cols = data.draw(SHAPES[shape])
    cells = data.draw(st.lists(ENTRIES[entries], min_size=rows * cols, max_size=rows * cols))
    gain = np.array(cells).reshape(rows, cols)
    want_rows, want_cols = linear_sum_assignment(gain, maximize=True)
    got_rows, got_cols = _max_assignment(gain)
    assert got_rows.tolist() == want_rows.tolist()
    assert got_cols.tolist() == want_cols.tolist()
    assert _assigned_sum(gain) == float(gain[want_rows, want_cols].sum())


@pytest.mark.parametrize("seed", range(3))
def test_max_assignment_equals_scipy_on_oracle_shaped_matrices(seed):
    # As the assignment path builds them, up to its size limit: one row per
    # copy a bidder can use, one column per copy of a good, so rows and
    # columns repeat and equal path costs are the rule.
    rng = np.random.default_rng(seed)
    for k in range(12):
        bidders, goods = int(rng.integers(8, 40)), int(rng.integers(2, 4))
        if k % 2:
            weights = rng.integers(0, 3, (bidders, goods)).astype(float)
        else:
            weights = rng.uniform(0.5, 1.0, (bidders, goods))
        slots = np.repeat(weights, rng.integers(1, 3, bidders), axis=0)
        supply = rng.integers(0, 30, goods)
        gain = slots[:, np.repeat(np.arange(goods), supply)]
        if not 0 < gain.size <= walrasian._ASSIGNMENT_CELL_LIMIT:
            continue
        want_rows, want_cols = linear_sum_assignment(gain, maximize=True)
        got_rows, got_cols = _max_assignment(gain)
        assert got_rows.tolist() == want_rows.tolist()
        assert got_cols.tolist() == want_cols.tolist()


def test_assignment_path_size_guard():
    rng = np.random.default_rng(4)
    bids = tuple(UnitDemand(tuple(rng.uniform(0.5, 1.0, 2))) for _ in range(64))
    # 64 slots by 64 copies is the largest matrix the path solves.
    assert WelfareOracle(bids).welfare((32, 32)) == ScipyWelfareOracle(bids).welfare((32, 32))
    with pytest.raises(SizeLimitError, match="64 x 65"):
        WelfareOracle(bids).welfare((32, 33))


def test_max_assignment_of_an_empty_matrix_is_empty():
    for shape in ((0, 0), (0, 3), (3, 0)):
        rows, cols = _max_assignment(np.zeros(shape))
        assert rows.size == cols.size == 0
        assert _assigned_sum(np.zeros(shape)) == 0.0


def tied_market(rng):
    """random_market with every weight on the grid {0, 1, 2}, so welfare
    ties between assignments are the rule."""
    bids, supply = random_market(rng)

    def tie(b):
        weights = tuple(float(w) for w in rng.integers(0, 3, b.m))
        return UnitDemand(weights) if isinstance(b, UnitDemand) else KDemand(weights, b.cap)

    return tuple(map(tie, bids)), supply


@pytest.mark.parametrize("draw", (random_market, tied_market))
def test_oracle_queries_equal_the_scipy_reference(draw):
    rng = np.random.default_rng(12)
    for _ in range(150):
        bids, supply = draw(rng)
        got, want = WelfareOracle(bids), ScipyWelfareOracle(bids)
        near = [supply] + [
            tuple(c + d if h == j else c for h, c in enumerate(supply))
            for j in range(len(supply))
            for d in (-1, 1)
            if supply[j] + d >= 0
        ]
        for s in near:
            assert got.welfare(s) == want.welfare(s)
            assert got.english(s).tolist() == want.english(s).tolist()
            assert got.dutch(s).tolist() == want.dutch(s).tolist()
            for rule, lam in (("english", None), ("dutch", None), ("mix", 0.3)):
                assert got.prices(s, rule, lam).tolist() == want.prices(s, rule, lam).tolist()
            assert got.allocation(s) == want.allocation(s)
