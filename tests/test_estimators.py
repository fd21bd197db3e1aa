import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.stats import kstest

from twostage import (
    DegenerateInputError,
    EstimatePair,
    RandomStream,
    coord_pvalue,
    joint_pvalue,
    mse_product_closed,
    product_stat,
    sobel_stat,
)
from twostage.rules import _z_critical


def pair(g, b, sg=1.0, sb=1.0, n=1):
    return EstimatePair(g, b, sg, sb, n)


class TestEstimatePair:
    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            EstimatePair(0.0, 0.0, sigma_gamma=0.0)
        with pytest.raises(ValueError):
            EstimatePair(0.0, 0.0, sigma_beta=-1.0)
        with pytest.raises(ValueError):
            EstimatePair(0.0, 0.0, n=0)
        with pytest.raises(ValueError):
            EstimatePair(math.inf, 0.0)


class TestProduct:
    def test_arithmetic(self):
        assert product_stat(pair(0.5, 0.4)) == pytest.approx(0.2)
        assert product_stat(pair(0.0, 7.0)) == 0.0

    def test_error_decomposition_identity(self):
        # gb_hat - gb splits into a cross term plus two linear terms, exactly
        rng = np.random.default_rng(0)
        for _ in range(50):
            g, b, gh, bh = rng.normal(size=4)
            lhs = gh * bh - g * b
            rhs = (gh - g) * (bh - b) + b * (gh - g) + g * (bh - b)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSobel:
    def test_symmetric_point(self):
        assert sobel_stat(pair(1.0, 1.0)) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_zero_numerator(self):
        assert sobel_stat(pair(0.0, 2.0)) == 0.0

    def test_derived_point(self):
        # direct evaluation: 12 / sqrt(2^2*3^2 + 1^2*4^2) = 12 / sqrt(52)
        assert sobel_stat(pair(3.0, 4.0, sg=1.0, sb=2.0)) == pytest.approx(12.0 / math.sqrt(52.0))

    def test_degenerate_origin(self):
        with pytest.raises(DegenerateInputError):
            sobel_stat(pair(0.0, 0.0))


class TestSimpleStats:
    def test_sign_flips(self):
        g, b = 1.3, -0.4
        assert product_stat(pair(-g, b)) == -product_stat(pair(g, b))
        assert sobel_stat(pair(-g, b)) == pytest.approx(-sobel_stat(pair(g, b)))


class TestCoordPvalue:
    def test_zero_estimate(self):
        assert coord_pvalue(0.0, 1.0, 10) == 1.0

    def test_derived_threshold(self):
        # sqrt(n)|est|/sigma = 1.959964 sits at the two-sided 5% point
        assert coord_pvalue(1.959964, 1.0, 1) == pytest.approx(0.05, abs=1e-5)

    def test_monotone_in_estimate(self):
        ps = coord_pvalue(np.linspace(0.0, 5.0, 50), 1.0, 4)
        assert np.all(np.diff(ps) < 0)

    def test_matches_mpmath_into_the_far_tail(self):
        z = np.linspace(0.0, 27.0, 1001)
        with mpmath.workdps(40):
            want = np.array([float(mpmath.erfc(mpmath.mpf(v) / mpmath.sqrt(2))) for v in z])
        np.testing.assert_allclose(coord_pvalue(z, 1.0, 1), want, rtol=1e-12, atol=0.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            coord_pvalue(1.0, 0.0, 10)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, np.array([1.0, 0.0])])
    def test_rejects_negative_nan_or_partly_zero_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            coord_pvalue(np.array([1.0, 2.0]), sigma, 10)

    def test_even_in_the_estimate(self):
        xs = np.linspace(-6.0, 6.0, 201)
        np.testing.assert_array_equal(coord_pvalue(-xs, 1.0, 1), coord_pvalue(xs, 1.0, 1))

    def test_depends_only_on_the_z_statistic(self):
        rng = np.random.default_rng(17)
        est = rng.normal(scale=0.5, size=200)
        sigma = rng.uniform(0.1, 5.0, size=200)
        n = rng.integers(1, 10_000, size=200)
        np.testing.assert_allclose(
            coord_pvalue(est, sigma, n), coord_pvalue(np.sqrt(n) * est / sigma, 1.0, 1), rtol=1e-12, atol=0.0
        )

    def test_derived_point_against_quadrature(self):
        # oracle: twice the upper tail, 1/2 minus the integral of the density over [0, z]
        z = 1.959964
        tail, _ = integrate.quad(
            lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi), 0.0, z, epsabs=1e-14, limit=200
        )
        assert abs(coord_pvalue(z, 1.0, 1) - 2.0 * (0.5 - tail)) < 1e-12

    def test_deep_tail_stays_positive(self):
        # 1 - erf(z / sqrt 2) is 0.0 in double precision from z ~ 8.3; erfc keeps
        # the relative accuracy down to 2 * Phi(-37) ~ 1e-299.
        z = np.array([10.0, 20.0, 30.0, 37.0])
        with mpmath.workdps(40):
            want = np.array([float(2 * mpmath.ncdf(-mpmath.mpf(v))) for v in z])
        got = coord_pvalue(z, 1.0, 1)
        assert np.all(got > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_scalar_in_float_out(self):
        assert type(coord_pvalue(1.0, 1.0, 4)) is float
        assert type(coord_pvalue(np.float64(1.0), 1.0, 4)) is float

    def test_array_keeps_its_shape(self):
        ps = coord_pvalue(np.zeros((3, 4)), 1.0, 4)
        assert isinstance(ps, np.ndarray)
        assert ps.shape == (3, 4)
        assert np.all(ps == 1.0)

    def test_uniform_under_null(self):
        # calibration: null coordinate p-values are Uniform(0,1)
        draws = RandomStream(2024, 0).generator.normal(0.0, 1.0 / math.sqrt(50), size=100_000)
        ps = coord_pvalue(draws, 1.0, 50)
        assert kstest(ps, "uniform").pvalue > 0.01


class TestZCritical:
    def test_inverts_coord_pvalue(self):
        # Every stage-2 threshold alpha/F and alpha*p0/F up to F = 1000, plus the minp level.
        t = np.array([0.05 / f for f in range(1, 1001)] + [0.05 * 0.3 / f for f in range(1, 1001)]
                     + [0.0004, 1 - 1e-9])
        z = np.array([_z_critical(v) for v in t])
        np.testing.assert_allclose(coord_pvalue(z, 1.0, 1), t, rtol=1e-13, atol=0.0)

    def test_zero_threshold_is_infinite(self):
        assert _z_critical(0.0) == math.inf

    def test_threshold_one_is_zero(self):
        assert _z_critical(1.0) == 0.0

    def test_five_percent_point(self):
        # oracle: bisection on the quadrature CDF gives 1.9599639845...
        assert abs(_z_critical(0.05) - 1.959964) < 1e-5

    def test_decreasing_in_the_threshold(self):
        z = np.array([_z_critical(t) for t in np.linspace(1e-6, 1.0, 201)])
        assert np.all(np.diff(z) < 0.0)

    def test_matches_mpmath_from_1e_300(self):
        # t/2 is the one-sided tail; the oracle solves log Phi(-z) = log(t/2) at 40 digits.
        half = np.logspace(-300.0, math.log10(0.49), 300)
        with mpmath.workdps(40):
            want = np.array([
                float(mpmath.findroot(
                    lambda x: mpmath.log(mpmath.ncdf(-x)) - mpmath.log(mpmath.mpf(h)),
                    mpmath.sqrt(-2 * mpmath.log(mpmath.mpf(h))),
                ))
                for h in half
            ])
        got = np.array([_z_critical(2.0 * h) for h in half])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_subnormal_thresholds(self):
        # t / 2 rounds for odd multiples of the smallest subnormal (to 0 at
        # t = 5e-324); the oracle solves for the exact half.
        assert math.isfinite(_z_critical(5e-324)) and _z_critical(5e-324) >= _z_critical(1e-323)
        multiples = [1, 2, 3, 4, 5, 7, 9, 2**20 + 1, 2**51 - 1]
        t = [k * 5e-324 for k in multiples]
        with mpmath.workdps(40):
            want = np.array([
                float(mpmath.findroot(
                    lambda x: mpmath.log(mpmath.ncdf(-x)) - mpmath.log(mpmath.mpf(2) ** -1075 * k), 38.0
                ))
                for k in multiples
            ])
        got = np.array([_z_critical(v) for v in t])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
        assert np.all(np.diff(got) < 0.0)

    def test_round_trip_from_z(self):
        z = np.linspace(0.5, 30.0, 119)
        got = np.array([_z_critical(p) for p in coord_pvalue(z, 1.0, 1)])
        np.testing.assert_allclose(got, z, rtol=1e-12, atol=0.0)


class TestJointPvalue:
    def test_one_coordinate_null(self):
        assert joint_pvalue(pair(0.0, 100.0, n=100)) == 1.0

    def test_alpha_calibration_single_null(self):
        # only the beta coordinate is null: P(p_joint <= a) -> a
        n, reps = 1000, 60_000
        stream = RandomStream(99, 0)
        g = stream.generator.normal(1.0, 1.0 / math.sqrt(n), size=reps)
        b = stream.generator.normal(0.0, 1.0 / math.sqrt(n), size=reps)
        pj = np.maximum(coord_pvalue(g, 1.0, n), coord_pvalue(b, 1.0, n))
        rate = (pj <= 0.05).mean()
        se = math.sqrt(0.05 * 0.95 / reps)
        assert abs(rate - 0.05) < 3.5 * se

    def test_alpha_squared_calibration_double_null(self):
        n, reps = 1000, 60_000
        stream = RandomStream(100, 0)
        g = stream.generator.normal(0.0, 1.0 / math.sqrt(n), size=reps)
        b = stream.generator.normal(0.0, 1.0 / math.sqrt(n), size=reps)
        pj = np.maximum(coord_pvalue(g, 1.0, n), coord_pvalue(b, 1.0, n))
        rate = (pj <= 0.05).mean()
        se = math.sqrt(0.0025 * 0.9975 / reps)
        assert abs(rate - 0.0025) < 3.5 * se


class TestProductMse:
    def test_matches_closed_form(self):
        # Monte-Carlo MSE against the closed form at unit scales
        gamma, beta, n, reps = 0.5, 0.5, 400, 100_000
        stream = RandomStream(7, 0)
        g = stream.generator.normal(gamma, 1.0 / math.sqrt(n), size=reps)
        b = stream.generator.normal(beta, 1.0 / math.sqrt(n), size=reps)
        sq = (g * b - gamma * beta) ** 2
        mc_se = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(sq.mean() - mse_product_closed(gamma, beta, n)) < 4.0 * mc_se
