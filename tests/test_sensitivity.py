import math

import numpy as np
import pytest

from marketlab import strategic
from marketlab.sensitivity import (
    Z99,
    ProbeParams,
    check_counting_identities,
    comb_ext,
    count_unstable_slice,
    default_search_box,
    default_threshold,
    deficit_ball_bound,
    deficit_vectors,
    event_probability_bound,
    halving_steps,
    instability_mass,
    is_unstable,
    is_unstable_within,
    unstable_event_probability,
)
from marketlab.supply import BinomialCounts, FixedCounts, iter_support, max_point_mass
from marketlab.valuations import UnitDemand
from marketlab.walrasian import WelfareOracle, truncated_distance
from oracles import (
    oracle_best_allocation,
    random_market,
    reference_event_probability,
    reference_slice_counts,
)

THREE_UNIT_BIDDERS = (UnitDemand((5.0,)), UnitDemand((3.0,)), UnitDemand((2.0,)))


def naive_low_prices(bids, supply):
    """Marginal-welfare prices recomputed through the exhaustive oracle."""
    m = len(supply)
    base = oracle_best_allocation(bids, supply)[0]
    out = []
    for j in range(m):
        bumped = tuple(c + 1 if h == j else c for h, c in enumerate(supply))
        out.append(oracle_best_allocation(bids, bumped)[0] - base)
    return np.array(out)


def naive_unstable(bids, supply, good, threshold, ceiling):
    bumped = tuple(c + 1 if h == good else c for h, c in enumerate(supply))
    move = truncated_distance(
        naive_low_prices(bids, supply), naive_low_prices(bids, bumped), ceiling
    )
    return move > threshold


def test_single_good_frozen_examples():
    oracle = WelfareOracle(THREE_UNIT_BIDDERS)
    # One more copy at zero supply moves the price 5 -> 3.
    assert is_unstable(oracle, (0,), 0, threshold=1.0, ceiling=10.0)
    # At one copy the move is 3 -> 2, not above the threshold.
    assert not is_unstable(oracle, (1,), 0, threshold=1.0, ceiling=10.0)
    # Past total demand the price is pinned at zero.
    assert not is_unstable(oracle, (3,), 0, threshold=0.01, ceiling=10.0)
    assert not is_unstable(oracle, (9,), 0, threshold=0.01, ceiling=10.0)


def test_threshold_at_total_ceiling_mass_kills_instability():
    oracle = WelfareOracle(THREE_UNIT_BIDDERS)
    params = ProbeParams(threshold=10.0, ceiling=10.0, slack=2, search_box=8)
    assert count_unstable_slice(oracle, (), 0, params) == (0, 0)


def test_deficit_vectors_enumeration():
    got = set(deficit_vectors((2, 1), 1))
    assert got == {(2, 1), (1, 1), (2, 0)}
    got2 = set(deficit_vectors((2, 1), 2))
    assert got2 == {(2, 1), (1, 1), (2, 0), (0, 1), (1, 0)}
    assert set(deficit_vectors((0, 0), 3)) == {(0, 0)}


def test_within_slack_detects_neighbors():
    oracle = WelfareOracle(THREE_UNIT_BIDDERS)
    # (1,) is stable itself but sits one copy above the unstable (0,).
    assert not is_unstable(oracle, (1,), 0, 1.0, 10.0)
    assert is_unstable_within(oracle, (1,), 0, 1, 1.0, 10.0)
    assert not is_unstable_within(oracle, (1,), 0, 0, 1.0, 10.0)


def test_unstable_implies_within_for_every_slack():
    oracle = WelfareOracle(THREE_UNIT_BIDDERS)
    for slack in range(4):
        assert is_unstable_within(oracle, (0,), 0, slack, 1.0, 10.0)


def test_slice_counts_frozen():
    oracle = WelfareOracle(THREE_UNIT_BIDDERS)
    params = ProbeParams(threshold=0.5, ceiling=10.0, slack=1, search_box=10)
    # Moves: 5->3, 3->2, 2->0, then flat; one extra vector is within slack 1.
    assert count_unstable_slice(oracle, (), 0, params) == (3, 4)
    zero_slack = ProbeParams(threshold=0.5, ceiling=10.0, slack=0, search_box=10)
    plain, within = count_unstable_slice(oracle, (), 0, zero_slack)
    assert plain == within == 3


def test_unstable_matches_naive_oracle_on_random_markets():
    rng = np.random.default_rng(412)
    for _ in range(40):
        bids, supply = random_market(rng, max_bidders=4, max_goods=2, max_copies=3)
        oracle = WelfareOracle(bids)
        ceiling = 5.0
        threshold = float(rng.uniform(0.05, 2.0))
        for j in range(len(supply)):
            assert is_unstable(oracle, supply, j, threshold, ceiling) == naive_unstable(
                bids, supply, j, threshold, ceiling
            )


def test_slice_bounds_hold_on_random_corpus():
    rng = np.random.default_rng(901)
    for _ in range(25):
        bids, _ = random_market(rng, max_bidders=4, max_goods=2, max_copies=3)
        oracle = WelfareOracle(bids)
        m = oracle.m
        params = ProbeParams(
            threshold=float(rng.uniform(0.1, 1.0)),
            ceiling=float(rng.uniform(1.0, 5.0)),
            slack=int(rng.integers(0, 3)),
            search_box=default_search_box(bids, 2),
        )
        for j in range(m):
            rest = tuple(int(rng.integers(0, 3)) for _ in range(m - 1))
            plain, within = count_unstable_slice(oracle, rest, j, params)
            assert plain <= within


def test_probes_match_the_unmemoized_reference_on_random_markets():
    """Each probe computes a supply's prices and a (supply, good) verdict once
    per call; the counts and probabilities are those of recomputing every one."""
    rng = np.random.default_rng(2311)
    for _ in range(20):
        bids, _ = random_market(rng, max_bidders=4, max_goods=2, max_copies=3)
        oracle = WelfareOracle(bids)
        m = oracle.m
        params = ProbeParams(
            threshold=float(rng.uniform(0.05, 1.0)),
            ceiling=float(rng.uniform(1.0, 5.0)),
            slack=int(rng.integers(0, 3)),
            search_box=default_search_box(bids, 2),
        )
        for j in range(m):
            rest = tuple(int(rng.integers(0, 4)) for _ in range(m - 1))
            want = reference_slice_counts(WelfareOracle(bids), rest, j, params)
            assert count_unstable_slice(oracle, rest, j, params) == want
        model = BinomialCounts(goods=m, trials=int(rng.integers(2, 7)), prob=0.5)
        report = unstable_event_probability(bids, model, params)
        assert report.mode == "exact"
        assert report.probability == reference_event_probability(bids, model, params)
        sampled = unstable_event_probability(
            bids, model, params, rng=np.random.default_rng(5), draws=200, exact_limit=0
        )
        want = reference_event_probability(
            bids, model, params, rng=np.random.default_rng(5), draws=200, exact_limit=0
        )
        assert sampled.mode == "monte-carlo" and sampled.probability == want


def test_within_slack_grows_with_slack():
    rng = np.random.default_rng(77)
    for _ in range(15):
        bids, supply = random_market(rng, max_bidders=4, max_goods=2, max_copies=4)
        oracle = WelfareOracle(bids)
        for j in range(len(supply)):
            if is_unstable_within(oracle, supply, j, 1, 0.3, 4.0):
                assert is_unstable_within(oracle, supply, j, 2, 0.3, 4.0)


def test_event_probability_exact_single_good():
    bids = tuple(UnitDemand((float(w),)) for w in (5, 3, 2, 2))
    model = BinomialCounts(goods=1, trials=8, prob=0.5)
    params = ProbeParams(threshold=1.0, ceiling=10.0, slack=1, search_box=12)
    report = unstable_event_probability(bids, model, params)
    assert report.mode == "exact"
    assert report.probability <= report.bound

    # Recompute the event mass directly over the support.
    oracle = WelfareOracle(bids)
    direct = 0.0
    for counts, p in iter_support(model):
        hit = min(counts) <= params.slack or is_unstable_within(
            oracle, counts, 0, params.slack, params.threshold, params.ceiling
        )
        direct += p if hit else 0.0
    assert report.probability == pytest.approx(direct, abs=1e-12)
    assert report.bound == pytest.approx(
        event_probability_bound(1, max_point_mass(model), params)
    )


def test_event_probability_deterministic_cases():
    bids = tuple(UnitDemand((float(w),)) for w in (5, 3, 2))
    params = ProbeParams(threshold=1.0, ceiling=10.0, slack=0, search_box=8)
    # Seven copies: far past demand, stable, and above the slack floor.
    calm = unstable_event_probability(bids, FixedCounts((7,)), params)
    assert calm.probability == 0.0
    # Zero copies: unstable (5 -> 3) and at the slack floor; the bound is
    # vacuous but real since the point mass is 1.
    spiky = unstable_event_probability(bids, FixedCounts((0,)), params)
    assert spiky.probability == 1.0
    assert spiky.bound >= 1.0


def test_event_probability_monte_carlo_mode():
    bids = tuple(UnitDemand((float(w),)) for w in (5, 3, 2, 2))
    model = BinomialCounts(goods=1, trials=8, prob=0.5)
    params = ProbeParams(threshold=1.0, ceiling=10.0, slack=1, search_box=12)
    a = unstable_event_probability(
        bids, model, params, rng=np.random.default_rng(3), draws=400, exact_limit=0
    )
    b = unstable_event_probability(
        bids, model, params, rng=np.random.default_rng(3), draws=400, exact_limit=0
    )
    assert a.mode == "monte-carlo"
    assert a.ci99 is not None and a.ci99[0] <= a.probability <= a.ci99[1]
    assert a == b
    with pytest.raises(ValueError):
        unstable_event_probability(bids, model, params, exact_limit=0)


def test_bound_helpers_frozen_values():
    assert deficit_ball_bound(1, 1) == 2
    assert deficit_ball_bound(2, 3) == 20
    assert instability_mass(1, 1, 0.25) == pytest.approx(2 * 0.25 * 3)
    params = ProbeParams(threshold=1.0, ceiling=10.0, slack=1, search_box=5)
    assert event_probability_bound(1, 0.25, params) == pytest.approx(
        0.25 * (10.0 * 2 + 2)
    )


def test_instability_mass_matches_formula():
    rng = np.random.default_rng(10)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(0, 5))
        peak = float(rng.uniform(0.01, 1.0))
        assert instability_mass(m, k, peak) == pytest.approx(
            2 * m * m * peak * math.comb(k + 1 + m, m)
        )


def test_halving_steps():
    assert halving_steps(1.0 / 16.0) == 2
    assert halving_steps(0.6) == 2
    assert halving_steps(1e-6) == 16
    for bad in (0.0, 1.0, 2.0, -0.5):
        with pytest.raises(ValueError):
            halving_steps(bad)


def test_default_threshold_scales_with_ceiling():
    rel, absolute = default_threshold(1, 0.2734375, 1, ceiling=10.0)
    assert rel == pytest.approx(math.sqrt(0.2734375 * 3.0 / 2.0))
    assert absolute == pytest.approx(rel * 10.0)


def test_default_search_box_covers_demand():
    bids = THREE_UNIT_BIDDERS
    assert default_search_box(bids, 1) == 5
    assert default_search_box(bids, 0) == 4


def test_comb_ext_conventions():
    assert comb_ext(-1, 0) == 1
    assert comb_ext(0, 0) == 1
    assert comb_ext(0, 1) == 0
    assert comb_ext(3, 5) == 0
    assert comb_ext(5, 2) == 10
    assert comb_ext(2, -1) == 0


def test_counting_identities_exhaustive():
    for goods in range(1, 7):
        for slack in range(0, 7):
            assert check_counting_identities(goods, slack)


def test_counting_identities_spot_values():
    # goods=2, slack=3: running sums 1+2+3+4 = 10 = C(5,3)+... both forms.
    lhs = sum(comb_ext(2 + n - 1, n) for n in range(4))
    rhs = sum((3 - n + 1) * comb_ext(2 + n - 2, n) for n in range(4))
    assert lhs == rhs == 10


def test_probe_params_validation():
    with pytest.raises(ValueError):
        ProbeParams(threshold=0.0, ceiling=1.0, slack=0, search_box=1)
    with pytest.raises(ValueError):
        ProbeParams(threshold=1.0, ceiling=-1.0, slack=0, search_box=1)
    with pytest.raises(ValueError):
        ProbeParams(threshold=1.0, ceiling=1.0, slack=-1, search_box=1)


def test_z99_is_the_two_sided_99_percent_normal_quantile():
    from scipy import stats

    assert Z99 == float(stats.norm.ppf(0.995))
    assert strategic.Z99 is Z99
