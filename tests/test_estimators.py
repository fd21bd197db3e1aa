import math

import mpmath
import numpy as np
import pytest
from scipy.stats import kstest

from twostage import (
    DegenerateInputError,
    EstimatePair,
    RandomStream,
    coord_pvalue,
    hodges,
    joint_pvalue,
    min_abs_stat,
    mse_product_closed,
    norm2_stat,
    product_stat,
    sample_normal,
    shrink,
    shrink_general,
    sobel_stat,
)
from twostage.estimators import _z_critical


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
    def test_norm2(self):
        assert norm2_stat(pair(0.0, 0.0)) == 0.0
        assert norm2_stat(pair(3.0, 4.0)) == 25.0
        assert norm2_stat(pair(3.0, 4.0)) == norm2_stat(pair(4.0, 3.0))

    def test_min_abs(self):
        assert min_abs_stat(pair(2.0, -1.0)) == 1.0
        assert min_abs_stat(pair(0.0, 5.0)) == 0.0
        assert min_abs_stat(pair(-3.0, -3.0)) == 3.0

    def test_sign_flips(self):
        g, b = 1.3, -0.4
        assert product_stat(pair(-g, b)) == -product_stat(pair(g, b))
        assert sobel_stat(pair(-g, b)) == pytest.approx(-sobel_stat(pair(g, b)))
        assert norm2_stat(pair(-g, -b)) == norm2_stat(pair(g, b))
        assert min_abs_stat(pair(-g, b)) == min_abs_stat(pair(g, b))


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

    def test_uniform_under_null(self):
        # calibration: null coordinate p-values are Uniform(0,1)
        draws = sample_normal(RandomStream(2024, 0), 0.0, 1.0 / math.sqrt(50), size=100_000)
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


class TestJointPvalue:
    def test_one_coordinate_null(self):
        assert joint_pvalue(pair(0.0, 100.0, n=100)) == 1.0

    def test_alpha_calibration_single_null(self):
        # only the beta coordinate is null: P(p_joint <= a) -> a
        n, reps = 1000, 60_000
        stream = RandomStream(99, 0)
        g = sample_normal(stream, 1.0, 1.0 / math.sqrt(n), size=reps)
        b = sample_normal(stream, 0.0, 1.0 / math.sqrt(n), size=reps)
        pj = np.maximum(coord_pvalue(g, 1.0, n), coord_pvalue(b, 1.0, n))
        rate = (pj <= 0.05).mean()
        se = math.sqrt(0.05 * 0.95 / reps)
        assert abs(rate - 0.05) < 3.5 * se

    def test_alpha_squared_calibration_double_null(self):
        n, reps = 1000, 60_000
        stream = RandomStream(100, 0)
        g = sample_normal(stream, 0.0, 1.0 / math.sqrt(n), size=reps)
        b = sample_normal(stream, 0.0, 1.0 / math.sqrt(n), size=reps)
        pj = np.maximum(coord_pvalue(g, 1.0, n), coord_pvalue(b, 1.0, n))
        rate = (pj <= 0.05).mean()
        se = math.sqrt(0.0025 * 0.9975 / reps)
        assert abs(rate - 0.0025) < 3.5 * se


class TestHodges:
    def test_boundary_is_strict(self):
        assert hodges(0.5, 16) == 0.0  # threshold is exactly 0.5
        assert hodges(0.6, 16) == 0.6

    def test_small_estimate_shrinks(self):
        assert hodges(-0.01, 10_000) == 0.0


class TestShrink:
    def test_values(self):
        assert shrink(0.3, True, 0.0) == 0.0
        assert shrink(0.3, False, 0.0) == 0.3
        assert shrink(5.0, True, 2.0) == 2.0

    def test_general_form(self):
        assert shrink_general(4.0, 1.0, 2.0) == 4.0
        assert shrink_general(4.0, 0.0, 2.0) == 2.0
        assert shrink_general(4.0, 0.5, 2.0) == 3.0

    def test_general_reduces_to_indicator(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            t, psi0 = rng.normal(size=2)
            filtered = bool(rng.integers(2))
            assert shrink(t, filtered, psi0) == pytest.approx(
                shrink_general(t, 1.0 - float(filtered), psi0)
            )

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            shrink_general(1.0, 1.5, 0.0)


class TestProductMse:
    def test_matches_closed_form(self):
        # Monte-Carlo MSE against the closed form at unit scales
        gamma, beta, n, reps = 0.5, 0.5, 400, 100_000
        stream = RandomStream(7, 0)
        g = sample_normal(stream, gamma, 1.0 / math.sqrt(n), size=reps)
        b = sample_normal(stream, beta, 1.0 / math.sqrt(n), size=reps)
        sq = (g * b - gamma * beta) ** 2
        mc_se = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(sq.mean() - mse_product_closed(gamma, beta, n)) < 4.0 * mc_se
