import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from marketlab.supply import (
    BinomialCounts,
    FixedCounts,
    floor_rate,
    good_pmf,
    iter_support,
    max_point_mass,
    mean_counts,
    sample,
    std_counts,
    support_size,
)
from marketlab.valuations import UnitDemand
from marketlab.walrasian import max_welfare


def test_binomial_pmf_frozen_point():
    model = BinomialCounts(goods=1, trials=4, prob=0.5)
    assert good_pmf(model, 0)[2] == pytest.approx(0.375, abs=1e-15)


def test_pmf_out_of_support_is_zero():
    model = BinomialCounts(goods=1, trials=4, prob=0.5)
    # The dense vector ends at the largest count with mass, so every count
    # past it (5, 400, ...) has probability 0.
    assert len(good_pmf(model, 0)) == 5


def test_fixed_counts_pmf_is_point_mass():
    model = FixedCounts((3, 0, 2))
    assert good_pmf(model, 0)[3] == 1.0
    assert good_pmf(model, 0)[2] == 0.0
    assert good_pmf(model, 2)[2] == 1.0
    assert len(good_pmf(model, 1)) == 1


def test_binomial_pmf_matches_scipy():
    for trials, prob in [(1, 0.5), (6, 0.25), (11, 0.7), (20, 0.5)]:
        model = BinomialCounts(goods=1, trials=trials, prob=prob)
        ours = good_pmf(model, 0)
        ref = stats.binom.pmf(np.arange(trials + 1), trials, prob)
        assert np.allclose(ours, ref, atol=1e-13)


@pytest.mark.parametrize("trials", (1, 7, 64, 500, 1000))
@pytest.mark.parametrize("prob", (0.5, 0.3, 0.0, 1.0))
def test_binomial_pmf_keeps_its_bits_up_to_a_thousand_trials(trials, prob):
    # Each term as the product of comb, p^i and (1-p)^(n-i), exact in floats
    # while comb(n, i) fits in one.
    want = [math.comb(trials, i) * prob**i * (1.0 - prob) ** (trials - i) for i in range(trials + 1)]
    assert good_pmf(BinomialCounts(1, trials, prob), 0).tolist() == want


@pytest.mark.parametrize("prob", (0.5, 0.3))
def test_binomial_pmf_past_the_float_range_of_comb(prob):
    trials = 1100
    got = good_pmf(BinomialCounts(1, trials, prob), 0)
    q = Fraction(prob)
    for i, x in enumerate(got):
        want = float(math.comb(trials, i) * q**i * (1 - q) ** (trials - i))
        # Terms whose p^i or (1-p)^(n-i) underflows in floats (3e-125 and
        # less at these points) read 0.
        assert math.isclose(x, want, rel_tol=1e-9, abs_tol=1e-100), i
    assert abs(math.fsum(got) - 1.0) <= 1e-9
    for edge in (0.0, 1.0):
        point = good_pmf(BinomialCounts(1, trials, edge), 0)
        assert point[0 if edge == 0.0 else trials] == 1.0 and math.fsum(point) == 1.0


@pytest.mark.parametrize("prob", (0.5, 0.3))
def test_binomial_pmf_at_five_thousand_trials(prob):
    trials = 5000
    got = good_pmf(BinomialCounts(1, trials, prob), 0)
    assert abs(math.fsum(got) - 1.0) <= 1e-9
    for i, x in enumerate(got):
        log_comb = math.lgamma(trials + 1) - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
        want = math.exp(log_comb + i * math.log(prob) + (trials - i) * math.log1p(-prob))
        assert math.isclose(x, want, rel_tol=1e-9, abs_tol=1e-300), i


def test_pmf_sums_to_one_per_good():
    models = [
        BinomialCounts(goods=3, trials=9, prob=0.4),
        FixedCounts((2, 5)),
    ]
    for model in models:
        for j in range(model.goods):
            assert abs(math.fsum(good_pmf(model, j)) - 1.0) <= 1e-12


def test_max_point_mass_frozen_values():
    assert max_point_mass(BinomialCounts(goods=2, trials=4, prob=0.5)) == pytest.approx(
        0.375, abs=1e-15
    )
    assert max_point_mass(FixedCounts((7,))) == 1.0


def test_binomial_peak_mass_never_increases_with_trials():
    # Exact tabulation: the peak is flat from each odd trial count to the
    # next even one (the two central binomials coincide after halving) and
    # drops strictly on every even-to-odd step.
    peaks = {
        n: max_point_mass(BinomialCounts(goods=1, trials=n, prob=0.5))
        for n in range(2, 65)
    }
    assert peaks[3] == pytest.approx(peaks[4], abs=1e-15)
    for n in range(2, 64):
        assert peaks[n + 1] <= peaks[n] + 1e-15
        if n % 2 == 0:
            assert peaks[n + 1] < peaks[n]


def test_binomial_peak_mass_scaling_band():
    # C(n, n//2) / 2^n stays within [0.70, 0.85] of 1/sqrt(n) throughout.
    for n in range(16, 1025):
        peak = math.comb(n, n // 2) / 2**n
        assert 0.70 <= peak * math.sqrt(n) <= 0.85


def test_sampling_is_deterministic_per_seed():
    model = BinomialCounts(goods=3, trials=12, prob=0.5)
    a = [sample(model, np.random.default_rng(77)) for _ in range(5)]
    b = [sample(model, np.random.default_rng(77)) for _ in range(5)]
    assert a[0] == b[0]
    assert sample(FixedCounts((4, 1)), np.random.default_rng(0)) == (4, 1)
    assert sample(FixedCounts((4, 1)), np.random.default_rng(999)) == (4, 1)


def test_sampling_moments_match():
    model = BinomialCounts(goods=1, trials=30, prob=0.5)
    rng = np.random.default_rng(2024)
    draws = np.array([sample(model, rng)[0] for _ in range(10_000)])
    mu = mean_counts(model)[0]
    sigma = std_counts(model)[0]
    assert abs(draws.mean() - mu) <= 3.0 * sigma / math.sqrt(draws.size)


def test_support_iteration_is_exact():
    model = BinomialCounts(goods=2, trials=2, prob=0.5)
    atoms = dict(iter_support(model))
    assert support_size(model) == 9
    assert len(atoms) == 9
    assert abs(math.fsum(atoms.values()) - 1.0) <= 1e-12
    assert atoms[(1, 2)] == pytest.approx(0.125)
    # Expected total count via the support equals the sum of marginal means.
    ev = math.fsum(sum(c) * p for c, p in atoms.items())
    assert ev == pytest.approx(float(mean_counts(model).sum()))
    # Counts of zero mass are skipped: below a fixed count, and every count
    # but the last when each trial succeeds.
    sure = BinomialCounts(goods=2, trials=2, prob=1.0)
    assert dict(iter_support(sure)) == {(2, 2): 1.0}
    assert support_size(sure) == 1
    fixed = FixedCounts((3, 0))
    assert dict(iter_support(fixed)) == {(3, 0): 1.0}
    assert support_size(fixed) == 1


def test_binomial_support_size():
    assert support_size(BinomialCounts(goods=2, trials=8, prob=0.5)) == 81
    assert support_size(FixedCounts((9, 9, 9))) == 1


def test_floor_rate_frozen_point():
    assert floor_rate(1.0, 1.0, 1.0) == pytest.approx(0.75, abs=1e-15)


def test_floor_rate_vanishes_with_slack():
    assert floor_rate(1e-6, 1.0, 1.0) < 1e-11
    # The floor for 1000 bidders.
    assert floor_rate(1e-6, 1.0, 1.0) * 1000 < 1e-8


def test_welfare_floor_holds_on_sampled_optima():
    # 64 unit-demand bidders with unit weight on a single good; optimal
    # welfare at count n is min(n, 64), so every sampled optimum must clear
    # the floor computed from the binomial constants: the count's std dev
    # sqrt(N p (1-p)) is a (1 - slack) fraction of its mean N p.
    bidders, prob = 64, 0.5
    bids = tuple(UnitDemand((1.0,)) for _ in range(bidders))
    model = BinomialCounts(goods=1, trials=bidders, prob=prob)
    slack = 1.0 - math.sqrt((1.0 - prob) / (prob * bidders))
    assert slack == pytest.approx(1.0 - 1.0 / 8.0, abs=1e-15)
    bound = floor_rate(slack, prob, 1.0) * bidders
    rng = np.random.default_rng(np.random.SeedSequence(20240816))
    optima = [max_welfare(bids, sample(model, rng))[0] for _ in range(200)]
    assert min(optima) >= bound
    assert np.mean(optima) >= bound
