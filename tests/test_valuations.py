import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketlab.valuations import (
    CES,
    CobbDouglas,
    KDemand,
    Linear,
    UnitDemand,
    best_utility,
    bundles_upto,
    fisher_demand,
    item_values,
    max_item_value,
    minimal_equivalent_bundle,
    scale_bid,
    utility,
    value,
)
from oracles import (
    SingleMinded,
    check_gross_substitutes,
    demand_set,
    oracle_demand,
    oracle_single_buyer_optimum,
    oracle_value,
)


def random_matroid_valuation(rng, m=None):
    m = m or rng.integers(1, 4)
    weights = tuple(np.round(rng.uniform(0.0, 6.0, m), 3))
    if rng.random() < 0.5:
        return UnitDemand(weights)
    return KDemand(weights, int(rng.integers(1, 4)))


def test_value_top_k_counts_only_best_items():
    v = KDemand((5.0, 3.0), cap=2)
    assert value(v, (2, 1)) == 10.0
    assert value(v, (1, 1)) == 8.0
    assert value(v, (0, 0)) == 0.0
    assert oracle_value(v, (2, 1)) == 10.0


def test_value_unit_demand_is_best_single_item():
    v = UnitDemand((4.0,))
    assert value(v, (3,)) == 4.0
    assert value(UnitDemand((2.0, 7.0)), (1, 1)) == 7.0


def test_value_rejects_malformed_bundles():
    v = UnitDemand((1.0, 2.0))
    with pytest.raises(ValueError):
        value(v, (1,))
    with pytest.raises(ValueError):
        value(v, (1, -1))


def test_value_random_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        v = random_matroid_valuation(rng)
        bundle = tuple(rng.integers(0, 5, v.m))
        assert value(v, bundle) == pytest.approx(oracle_value(v, bundle), abs=1e-12)


def test_demand_reports_all_ties():
    v = UnitDemand((5.0, 3.0))
    assert demand_set(v, (3.0, 1.0)) == ((0, 1), (1, 0))


def test_demand_zero_prices_unique_maximizer():
    v = KDemand((5.0, 3.0), cap=2)
    assert demand_set(v, (0.0, 0.0)) == ((2, 0),)


def test_demand_empty_bundle_when_everything_overpriced():
    v = UnitDemand((5.0, 3.0))
    assert demand_set(v, (9.0, 9.0)) == ((0, 0),)


def test_demand_skips_goods_at_infinite_price():
    v = UnitDemand((5.0, 3.0))
    assert demand_set(v, (math.inf, 1.0)) == ((0, 1),)
    assert best_utility(v, (math.inf, math.inf)) == 0.0


def test_demand_random_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = random_matroid_valuation(rng)
        prices = tuple(np.round(rng.uniform(0, 5, v.m), 2))
        assert list(demand_set(v, prices)) == oracle_demand(v, prices)


def test_minimal_equivalent_bundle_drops_dead_weight():
    v = KDemand((5.0, 3.0), cap=2)
    assert minimal_equivalent_bundle(v, (2, 1)) == (2, 0)
    assert minimal_equivalent_bundle(v, (0, 0)) == (0, 0)


def test_minimal_equivalent_bundle_respects_cap():
    v = KDemand((4.0,), cap=2)
    assert minimal_equivalent_bundle(v, (5,)) == (2,)


def test_minimal_equivalent_bundle_is_minimal_and_value_preserving():
    rng = np.random.default_rng(23)
    for _ in range(200):
        v = random_matroid_valuation(rng)
        x = tuple(rng.integers(0, 4, v.m))
        d = minimal_equivalent_bundle(v, x)
        assert all(dc <= xc for dc, xc in zip(d, x))
        assert sum(d) <= v.cap
        assert value(v, d) == pytest.approx(value(v, x), abs=1e-12)
        for j in range(v.m):  # dropping any copy loses value
            if d[j] > 0:
                smaller = d[:j] + (d[j] - 1,) + d[j + 1 :]
                assert value(v, smaller) < value(v, x) - 1e-12


def test_gross_substitutes_unit_demand():
    ok, witness = check_gross_substitutes(UnitDemand((4.0, 2.0)), [range(7), range(7)])
    assert ok and witness is None


def test_gross_substitutes_k_demand():
    ok, _ = check_gross_substitutes(
        KDemand((2.0, 5.0, 4.0), cap=2), [range(6), range(6), range(6)]
    )
    assert ok


def test_gross_substitutes_fails_on_complements():
    ok, witness = check_gross_substitutes(SingleMinded((1, 1), 10.0), [range(7), range(7)])
    assert not ok
    p, x, j, q = witness
    assert x[1 - j] >= 1  # the partner good got dropped after the raise


def test_gross_substitutes_rejects_empty_grid():
    with pytest.raises(ValueError):
        check_gross_substitutes(UnitDemand((1.0,)), [[]])


def test_scale_bid_scales_item_weights():
    v = KDemand((5.0, 3.0), cap=2)
    b = scale_bid(v, 0.5)
    assert b.weights == (2.5, 1.5)
    assert b.cap == 2
    b2 = scale_bid(v, 1.0, offset=0.25)
    assert b2.weights == (5.25, 3.25)
    with pytest.raises(ValueError):
        scale_bid(v, -1.0)


def test_item_values_and_max():
    v = KDemand((5.0, 3.0), cap=2)
    assert item_values(v) == (5.0, 3.0)
    assert max_item_value(v) == 5.0


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.floats(0, 10), min_size=1, max_size=3),
    cap=st.integers(1, 3),
    data=st.data(),
)
def test_value_is_monotone_in_bundle(weights, cap, data):
    v = KDemand(tuple(weights), cap)
    x = tuple(data.draw(st.integers(0, 3)) for _ in range(v.m))
    j = data.draw(st.integers(0, v.m - 1))
    bigger = x[:j] + (x[j] + 1,) + x[j + 1 :]
    assert value(v, bigger) >= value(v, x) - 1e-12


# --- Fisher buyer utilities ------------------------------------------------


def test_utility_formulas():
    assert utility(Linear((2.0, 1.0)), [1.0, 3.0]) == 5.0
    assert utility(CobbDouglas((0.5, 0.5)), [4.0, 1.0]) == pytest.approx(2.0)
    assert utility(CobbDouglas((0.5, 0.5)), [0.0, 1.0]) == 0.0
    u = CES((1.0, 1.0), rho=0.5)
    assert utility(u, [1.0, 1.0]) == pytest.approx(4.0)


def test_cobb_douglas_requires_normalized_weights():
    with pytest.raises(ValueError):
        CobbDouglas((0.5, 0.6))
    with pytest.raises(ValueError):
        CES((1.0,), rho=1.0)


@pytest.mark.parametrize("make", (lambda a: Linear(a), lambda a: CES(a, 0.5)))
def test_linear_and_ces_reject_all_zero_weights(make):
    with pytest.raises(ValueError, match="needs a positive weight"):
        make((0.0, 0.0))
    assert make((0.0, 1.0)).a == (0.0, 1.0)
    # An auction bid of all zeros stays valid: the corpus generators draw them.
    assert UnitDemand((0.0, 0.0)).weights == (0.0, 0.0)


def test_fisher_demand_cobb_douglas_spends_by_weight():
    u = CobbDouglas((2 / 3, 1 / 3))
    x = fisher_demand(u, (2.0, 1.0), 3.0)
    assert np.allclose(x, [1.0, 1.0])


def test_fisher_demand_linear_best_bang_per_buck():
    x = fisher_demand(Linear((3.0, 1.0)), (1.0, 1.0), 2.0)
    assert np.allclose(x, [2.0, 0.0])
    tied = fisher_demand(Linear((2.0, 2.0)), (1.0, 1.0), 2.0)
    assert np.allclose(tied, [1.0, 1.0])  # even split across ties


def test_fisher_demand_rejects_nonpositive_prices():
    with pytest.raises(ValueError):
        fisher_demand(Linear((1.0,)), (0.0,), 1.0)


def test_fisher_demand_zero_budget():
    assert np.allclose(fisher_demand(CES((1.0, 2.0), 0.5), (1.0, 2.0), 0.0), 0.0)


def test_fisher_demand_exhausts_budget():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        fam = rng.integers(0, 3)
        if fam == 0:
            u = Linear(tuple(rng.uniform(0.1, 3, m)))
        elif fam == 1:
            a = rng.uniform(0.1, 1, m)
            u = CobbDouglas(tuple(a / a.sum()))
        else:
            u = CES(tuple(rng.uniform(0.1, 3, m)), rho=float(rng.uniform(0.1, 0.9)))
        p = rng.uniform(0.2, 4, m)
        e = float(rng.uniform(0.5, 5))
        x = fisher_demand(u, p, e)
        assert np.all(x >= 0)
        assert p @ x == pytest.approx(e, rel=1e-12)


def test_fisher_demand_matches_grid_oracle():
    rng = np.random.default_rng(41)
    for _ in range(12):
        m = int(rng.integers(2, 4))
        fam = rng.integers(0, 3)
        if fam == 0:
            u = Linear(tuple(np.round(rng.uniform(0.2, 3, m), 2)))
        elif fam == 1:
            a = rng.uniform(0.2, 1, m)
            u = CobbDouglas(tuple(a / a.sum()))
        else:
            u = CES(tuple(rng.uniform(0.2, 3, m)), rho=float(rng.uniform(0.2, 0.8)))
        p = rng.uniform(0.5, 3, m)
        e = float(rng.uniform(1, 4))
        x = fisher_demand(u, p, e)
        best_u, _ = oracle_single_buyer_optimum(u, p, e)
        assert utility(u, x) >= best_u - 1e-5


def test_ces_demand_splits_evenly_when_symmetric():
    u = CES((1.5, 1.5), rho=0.3)
    x = fisher_demand(u, (2.0, 2.0), 4.0)
    assert x[0] == pytest.approx(x[1])


def test_bundles_upto_is_lexicographic():
    got = list(bundles_upto(2, 1))
    assert got == [(0, 0), (0, 1), (1, 0)]
