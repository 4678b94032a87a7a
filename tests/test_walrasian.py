import math

import numpy as np
import pytest

from marketlab.errors import InternalCheckError, SizeLimitError
from marketlab.valuations import Explicit, KDemand, UnitDemand, value
from marketlab.walrasian import (
    Outcome,
    WelfareOracle,
    max_welfare,
    run_mechanism,
    truncated_distance,
    validate_outcome,
)
from oracles import assert_valid_outcome, oracle_best_allocation, random_market

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
