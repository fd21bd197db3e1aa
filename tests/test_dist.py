import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from twostage import (
    RandomStream,
    chisq2_cdf,
    sample_normal,
    std_normal_cdf,
    std_normal_quantile,
)


def _normal_density(t):
    return math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)


def normal_cdf_oracle(x: float) -> float:
    """Adaptive quadrature of the density; independent of the erf route."""
    tail, _ = integrate.quad(_normal_density, 0.0, abs(x), epsabs=1e-14, limit=200)
    return 0.5 + math.copysign(tail, x)


def normal_quantile_oracle(p: float) -> float:
    """Root of log Phi(x) = log(tail) at 40 digits, reflected for p > 1/2."""
    with mpmath.workdps(40):
        q = mpmath.mpf(p)
        tail = min(q, 1 - q)
        x = mpmath.findroot(
            lambda x: mpmath.log(mpmath.ncdf(x)) - mpmath.log(tail),
            -mpmath.sqrt(-2 * mpmath.log(tail)),
        )
        return float(x if q < 0.5 else -x)


def chisq2_cdf_oracle(x: float) -> float:
    val, _ = integrate.quad(lambda t: 0.5 * math.exp(-t / 2.0), 0.0, x, epsabs=1e-14, limit=200)
    return val


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_deep_tail(self):
        # 1 - 1e-20 rounds to 1.0 in double precision, so >= is the sharpest check
        assert std_normal_cdf(10.0) >= 1.0 - 1e-20
        assert std_normal_cdf(-10.0) <= 1e-20

    def test_derived_point(self):
        # oracle: numeric integration of the density
        assert abs(std_normal_cdf(1.959964) - 0.975) < 1e-6
        assert abs(std_normal_cdf(1.959964) - normal_cdf_oracle(1.959964)) < 1e-12

    def test_monotone_and_reflection(self):
        xs = np.linspace(-6.0, 6.0, 201)
        vals = std_normal_cdf(xs)
        assert np.all(np.diff(vals) > 0)
        np.testing.assert_allclose(std_normal_cdf(-xs), 1.0 - vals, atol=1e-14)

    def test_matches_mpmath_over_both_tails(self):
        xs = np.linspace(-37.0, 9.0, 1001)
        with mpmath.workdps(40):
            want = np.array([float(mpmath.ncdf(x)) for x in xs])
        np.testing.assert_allclose(std_normal_cdf(xs), want, rtol=1e-12, atol=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            std_normal_cdf(float("nan"))
        with pytest.raises(ValueError):
            std_normal_cdf(float("inf"))


class TestNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_round_trip(self):
        assert abs(std_normal_quantile(std_normal_cdf(1.3)) - 1.3) < 1e-9

    def test_derived_point(self):
        # oracle: bisection on the quadrature CDF gives 1.9599639845...
        assert abs(std_normal_quantile(0.975) - 1.959964) < 1e-5

    def test_inverse_property_grid(self):
        ps = np.linspace(1e-6, 1.0 - 1e-6, 101)
        np.testing.assert_allclose(std_normal_cdf(std_normal_quantile(ps)), ps, atol=1e-9)

    def test_matches_mpmath_from_1e_300_to_1_minus_1e_14(self):
        ps = np.concatenate(
            [np.logspace(-300.0, math.log10(0.49), 300), 1.0 - np.logspace(-14.0, math.log10(0.49), 100)]
        )
        want = np.array([normal_quantile_oracle(p) for p in ps])
        np.testing.assert_allclose(std_normal_quantile(ps), want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)


class TestChisq2:
    def test_lower_bound(self):
        assert chisq2_cdf(0.0) == 0.0

    def test_closed_form_median(self):
        assert abs(chisq2_cdf(2.0 * math.log(2.0)) - 0.5) < 1e-15

    def test_derived_point(self):
        assert abs(chisq2_cdf(5.991465) - 0.95) < 1e-6
        assert abs(chisq2_cdf(5.991465) - chisq2_cdf_oracle(5.991465)) < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            chisq2_cdf(-0.5)


class TestRandomStream:
    def test_equal_streams_replay(self):
        a = sample_normal(RandomStream(7, 42), 0.0, 1.0, size=16)
        b = sample_normal(RandomStream(7, 42), 0.0, 1.0, size=16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = sample_normal(RandomStream(7, 1), 0.0, 1.0, size=16)
        b = sample_normal(RandomStream(7, 2), 0.0, 1.0, size=16)
        assert not np.array_equal(a, b)

    def test_offset_indexing(self):
        base = RandomStream(3, 10)
        assert base.offset(5).stream_index == 15
        np.testing.assert_array_equal(
            sample_normal(base.offset(5), 0.0, 1.0, size=4),
            sample_normal(RandomStream(3, 15), 0.0, 1.0, size=4),
        )

    def test_independence_of_adjacent_streams(self):
        # adjacent indices should be uncorrelated for practical purposes
        a = sample_normal(RandomStream(11, 0), 0.0, 1.0, size=20000)
        b = sample_normal(RandomStream(11, 1), 0.0, 1.0, size=20000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            RandomStream(1, -1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        # -1 would otherwise wrap to 2**64 - 1 and replay that seed's streams.
        with pytest.raises(ValueError, match="master_seed"):
            RandomStream(seed, 0)

    def test_seeds_at_the_top_of_64_bits_stay_distinct(self):
        seeds = [2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]
        with np.errstate(all="raise"):
            draws = {seed: tuple(sample_normal(RandomStream(seed, 5), 0.0, 1.0, size=4)) for seed in seeds}
        assert len(set(draws.values())) == len(seeds)


class TestSampleNormal:
    def test_degenerate_sd(self):
        assert sample_normal(RandomStream(1, 0), 3.0, 0.0) == 3.0

    def test_moments(self):
        draws = sample_normal(RandomStream(123, 0), 0.0, 1.0, size=100_000)
        assert abs(draws.mean()) < 4.0 / math.sqrt(100_000)
        # chi-square concentration keeps the sample variance this close
        assert abs(draws.var(ddof=1) - 1.0) < 0.05

    def test_rejects_negative_sd(self):
        with pytest.raises(ValueError):
            sample_normal(RandomStream(1, 0), 0.0, -1.0)
