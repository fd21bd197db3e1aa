import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from twostage import (
    MSE_RATIO_PRESETS,
    EfficiencyClass,
    LRegion,
    ParamPoint,
    ParamSequence,
    PowerSequence,
    RandomStream,
    classify_product_regime,
    mse_product_closed,
    mse_ratio_exact,
)

from probes import ks_critical_value, ks_distance, mse_ratio_experiment, rate_exponent, sobel_samples


def seq(gamma: str, beta: str) -> ParamSequence:
    return ParamSequence.parse(gamma, beta)


class TestPowerSequence:
    def test_parse_and_eval(self):
        s = PowerSequence.parse("3n^-1/2")
        assert s.at(9) == pytest.approx(1.0)

    def test_constant(self):
        s = PowerSequence.parse("0.7")
        assert s.at(1) == 0.7 and s.at(10**6) == 0.7

    def test_offset_plus_term(self):
        s = PowerSequence.parse("1+3n^-0.5")
        assert s.at(900) == pytest.approx(1.1)

    def test_bare_n_power(self):
        s = PowerSequence.parse("n^-0.6")
        assert s.at(10) == pytest.approx(10.0**-0.6)

    def test_negative_coefficient(self):
        s = PowerSequence.parse("1-2n^-1")
        assert s.at(4) == pytest.approx(0.5)

    def test_str_round_trip(self):
        for text in ("0", "1+3n^-0.5", "n^-1", "2n^-0.4", "1-2n^-1", "1e+06n^-1.5e-05"):
            s = PowerSequence.parse(text)
            assert PowerSequence.parse(str(s)) == s

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        offset=st.floats(allow_nan=False, allow_infinity=False),
        terms=st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0),
            ),
            max_size=4,
        ),
    )
    def test_str_parse_round_trip_property(self, offset, terms):
        s = PowerSequence(offset, tuple(terms))
        assert PowerSequence.parse(str(s)) == s

    def test_rejects_growth_terms(self):
        with pytest.raises(ValueError):
            PowerSequence.parse("n")
        with pytest.raises(ValueError):
            PowerSequence.parse("n^0.5")
        with pytest.raises(ValueError):
            PowerSequence.parse("")

    @pytest.mark.parametrize("text", ["n^-1/0", "2n^-3/0.0", "1+n^-0/0e5"])
    def test_rejects_zero_denominator(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            PowerSequence.parse(text)


class TestK:
    @staticmethod
    def k(gamma: str, beta: str) -> float:
        return classify_product_regime(seq(gamma, beta), c=1.0, delta=0.8).K_value

    def test_root_n_pair(self):
        # symbolic limit c^2 / sqrt(1 + 2 c^2) at c = 1
        assert self.k("n^-0.5", "n^-0.5") == pytest.approx(1.0 / math.sqrt(3.0))

    def test_faster_decay_gives_zero(self):
        assert self.k("n^-0.6", "n^-0.6") == 0.0

    def test_constant_pair_diverges(self):
        assert self.k("0.7", "0.7") == math.inf

    def test_signed_limit(self):
        assert self.k("n^-0.5", "-n^-0.5") == pytest.approx(-1.0 / math.sqrt(3.0))
        assert self.k("-0.7", "0.7n^-0.4") == -math.inf

    def test_identically_zero_coordinate_gives_zero(self):
        assert self.k("1-n^-0", "1") == 0.0
        assert self.k("0", "0.7") == 0.0

    # The finite value is formed after the exponents decide it is finite, and
    # with no intermediate out of the float range: 1e200 * 1e200 overflows,
    # and so does the root of 1 + 2 * 1.5e308**2.
    @pytest.mark.parametrize(
        "gamma, beta, want",
        [
            ("1e200n^-0.5", "1e200n^-0.5", 1e200 / math.sqrt(2.0)),
            ("1.5e308n^-0.5", "1.5e308n^-0.5", 1.5e308 / math.sqrt(2.0)),
            ("1e300n^-0.5", "1e-300", 1e300),
            ("1e-300", "-1e300n^-0.5", -1e300),
            ("1e308n^-0.5", "1", 1e308),
        ],
    )
    def test_finite_k_from_huge_coefficients(self, gamma, beta, want):
        assert self.k(gamma, beta) == pytest.approx(want, rel=1e-15)


class TestClassifier:
    def test_region_one(self):
        r = classify_product_regime(seq("n^-0.5", "n^-0.6"), c=4.0, delta=0.8)
        assert r.L_region is LRegion.ONE
        assert r.a_value == 0.0

    def test_region_one_k_zero_much_more(self):
        r = classify_product_regime(seq("n^-0.6", "n^-0.6"), c=1.0, delta=0.8)
        assert r.L_region is LRegion.ONE
        assert r.K_value == 0.0
        assert r.efficiency_class is EfficiencyClass.MUCH_MORE

    def test_region_zero_equivalent(self):
        r = classify_product_regime(seq("n^-1", "n^-1"), c=2.5, delta=1.5)
        assert r.L_region is LRegion.ZERO
        assert r.efficiency_class is EfficiencyClass.EQUIVALENT
        assert r.a_value == math.inf

    def test_region_zero_for_constants(self):
        r = classify_product_regime(seq("1", "1"), c=1.0, delta=0.8)
        assert r.L_region is LRegion.ZERO
        assert r.K_value == math.inf
        assert r.efficiency_class is EfficiencyClass.EQUIVALENT

    def test_interior_region(self):
        r = classify_product_regime(seq("0.7n^-0.5", "0.7n^-0.5"), c=2.5, delta=1.0)
        assert r.L_region is LRegion.INTERIOR
        assert r.a_value == pytest.approx(math.sqrt(1.98), rel=1e-6)
        assert r.efficiency_class is EfficiencyClass.INDETERMINATE

    def test_one_region_k_classes(self):
        much_less = classify_product_regime(seq("2n^-0.4", "n^-0.4"), c=4.0, delta=0.7)
        assert much_less.L_region is LRegion.ONE
        assert much_less.K_value == math.inf
        assert much_less.efficiency_class is EfficiencyClass.MUCH_LESS

        more = classify_product_regime(seq("n^-0.5", "n^-0.5"), c=4.0, delta=0.7)
        assert more.efficiency_class is EfficiencyClass.MORE

        less = classify_product_regime(seq("2n^-0.5", "2n^-0.5"), c=4.0, delta=0.7)
        assert less.K_value == pytest.approx(4.0 / 3.0)
        assert less.efficiency_class is EfficiencyClass.LESS

        preset = MSE_RATIO_PRESETS["k-one"]
        equivalent = classify_product_regime(
            ParamSequence(preset.gamma, preset.beta), preset.c, preset.delta
        )
        assert equivalent.efficiency_class is EfficiencyClass.EQUIVALENT

    # The sd term is at least n**(delta - 1), so delta > 1 always gives A = inf.
    @pytest.mark.parametrize("gamma, beta", [("n^-1", "n^-1"), ("0", "0"), ("n^-3", "2n^-0.5")])
    def test_delta_above_one_gives_zero_region(self, gamma, beta):
        r = classify_product_regime(seq(gamma, beta), c=2.5, delta=1.2)
        assert (r.L_region, r.a_value, r.a_sd_term) == (LRegion.ZERO, math.inf, math.inf)
        assert r.efficiency_class is EfficiencyClass.EQUIVALENT

    # Exponents compare as the fractions they were written as: 1/3 + 2/3 is 1
    # and 0.1 + 0.2 is 0.3, so these products sit exactly on delta.
    @pytest.mark.parametrize(
        "gamma, beta, delta", [("n^-1/3", "n^-2/3", 1.0), ("n^-0.1", "n^-0.2", 0.3), ("3n^-0.25", "n^-0.25", 0.5)]
    )
    def test_boundary_exponents_meet_exactly(self, gamma, beta, delta):
        r = classify_product_regime(seq(gamma, beta), c=1.0, delta=delta)
        assert r.a_mean_term == float(PowerSequence.parse(gamma).terms[0][0])

    def test_terms_merge_by_exponent(self):
        merged = classify_product_regime(seq("1+2n^-0-3n^-0+n^-0.5+n^-0.5", "1"), c=1.0, delta=0.5)
        plain = classify_product_regime(seq("2n^-0.5", "1"), c=1.0, delta=0.5)
        assert merged == plain
        # 1 - n^-0 is identically 0, so the mean term and K are 0 whatever beta is.
        zero = classify_product_regime(seq("1-n^-0", "1"), c=1.0, delta=0.5)
        assert (zero.a_mean_term, zero.K_value, zero.L_region) == (0.0, 0.0, LRegion.INTERIOR)

    def test_tiniest_exponent_decays(self):
        # n^-5e-324 is not a constant: against n^-1 at delta 1 it drives the mean term to 0, not 1.
        r = classify_product_regime(seq("n^-5e-324", "n^-1"), c=1.0, delta=1.0)
        assert r.a_mean_term == 0.0

    def test_diagnostics_are_limits(self):
        # A is 1 exactly, not a finite-n value such as 1.0001.
        r = classify_product_regime(seq("1+n^-0.5", "0"), c=1.0, delta=0.5)
        assert (r.a_value, r.a_mean_term, r.a_sd_term, r.K_value) == (1.0, 0.0, 1.0, 0.0)
        assert (r.L_region, r.efficiency_class) == (LRegion.INTERIOR, EfficiencyClass.MORE)

    # A grid up to 1e8 once took the mean term here for 0 ("soft zero": small
    # and decaying), and so K for 0 and the class for "more".
    def test_slowly_settling_mean_term(self):
        gamma = PowerSequence.parse("1-0.1434872035695638n^-0.6")
        beta = PowerSequence.parse("-0.16333886988486102n^-0.5-1.6847341498977695n^-2/3")
        r = classify_product_regime(ParamSequence(gamma, beta), c=1.0, delta=0.5)
        assert (r.a_mean_term, r.a_value, r.a_sd_term) == (0.16333886988486102, 1.0, 1.0)
        assert r.K_value == -0.16333886988486102
        assert (r.L_region, r.efficiency_class) == (LRegion.INTERIOR, EfficiencyClass.INDETERMINATE)

    def test_coefficient_sum_past_float_range(self):
        with pytest.raises(ValueError, match="gamma: the coefficients of n\\^-0.5 add up past the float range"):
            classify_product_regime(seq("1e308n^-0.5+1e308n^-0.5", "1"), c=1.0, delta=0.8)
        # A sum back inside the range is fine, however large its parts.
        r = classify_product_regime(seq("1e308n^-0.5+1e308n^-0.5-1e308n^-0.5", "n^-0.5"), c=1.0, delta=1.0)
        assert r.a_mean_term == 1e308

    # K = 1e-400 underflows to 0.0, but its order is 0, so K is not 0: in
    # region one that is "more" (not "much_more"), in the interior "indeterminate".
    @pytest.mark.parametrize(
        "delta, region, cls",
        [(0.7, LRegion.ONE, EfficiencyClass.MORE), (1.0, LRegion.INTERIOR, EfficiencyClass.INDETERMINATE)],
    )
    def test_underflowing_k_is_not_zero(self, delta, region, cls):
        r = classify_product_regime(seq("1e-200n^-0.5", "1e-200n^-0.5"), c=1.0, delta=delta)
        assert (r.L_region, r.K_value, r.efficiency_class) == (region, 0.0, cls)

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_product_regime(seq("0", "0"), c=0.0, delta=0.8)


class TestMseClosedForm:
    def test_plug_in_values(self):
        assert mse_product_closed(0.0, 0.0, 10) == pytest.approx(0.01)
        assert mse_product_closed(1.0, 0.0, 100) == pytest.approx(0.0101)

    def test_validation(self):
        with pytest.raises(ValueError):
            mse_product_closed(0.0, 0.0, 0)


class TestMseRatioExperiment:
    def test_null_sequence_ratio_vanishes(self):
        points = mse_ratio_experiment(
            seq("0", "0"), c=1.0, delta=0.8, n_grid=[100, 1000, 10_000], reps=4000,
            stream=RandomStream(10, 0),
        )
        assert points[-1].ratio < 0.05
        assert points[-1].filter_freq > 0.99

    def test_vanishing_filtration_ratio_one(self):
        points = mse_ratio_experiment(
            seq("n^-1", "n^-1"), c=2.5, delta=1.5, n_grid=[100, 1000, 10_000], reps=4000,
            stream=RandomStream(11, 0),
        )
        assert points[-1].ratio == pytest.approx(1.0, abs=0.05)

    def test_k_four_thirds_ratio(self):
        points = mse_ratio_experiment(
            seq("2n^-0.5", "2n^-0.5"), c=4.0, delta=0.7, n_grid=[10_000, 100_000, 10**6],
            reps=20_000, stream=RandomStream(12, 0),
        )
        last = points[-1]
        assert last.k_at_n == pytest.approx(4.0 / 3.0)
        assert abs(last.ratio - 16.0 / 9.0) < 0.15 * 16.0 / 9.0

    def test_zero_region_filters_rarely_one_region_mostly(self):
        zero_pts = mse_ratio_experiment(
            seq("n^-1", "n^-1"), 2.5, 1.5, [10_000, 100_000, 10**6], 2000, RandomStream(13, 0)
        )
        assert zero_pts[-1].filter_freq < 0.05
        one_pts = mse_ratio_experiment(
            seq("n^-0.6", "n^-0.6"), 1.0, 0.8, [10_000, 100_000, 10**6], 2000, RandomStream(14, 0)
        )
        assert one_pts[-1].filter_freq > 0.95

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            mse_ratio_experiment(seq("0", "0"), 1.0, 0.8, [100, 1000, 10_000], 50, RandomStream(1, 0))

    def test_full_filtration_ratio_tracks_k_squared(self):
        # sequences classified (L=1, K finite): ratio at large n near K^2
        for name, stream_idx in (("k-4over3", 40), ("k-inv-sqrt3", 41)):
            preset = MSE_RATIO_PRESETS[name]
            s = ParamSequence(preset.gamma, preset.beta)
            r = classify_product_regime(s, preset.c, preset.delta)
            assert r.L_region is LRegion.ONE and 0.0 < r.K_value < math.inf
            pts = mse_ratio_experiment(
                s, preset.c, preset.delta, [10_000, 100_000, 10**6], 10_000,
                RandomStream(15, stream_idx),
            )
            assert abs(pts[-1].ratio - r.K_value**2) <= 0.15 * r.K_value**2


def _mp_ratio(g: float, b: float, n: float, c: float, delta: float) -> tuple[float, float]:
    """MSE(shrunk)/MSE(plain) and P(filtered), to about 20 digits, as a double integral.

    The inner integral, over beta_hat given gamma_hat = x, is the truncated
    raw moments of N(b, 1/n) outside ``|y| < tau / |x|``; the outer one is
    ``mpmath.quad`` over x, split at 0, at the band's edge and at multiples
    of ``tau sqrt(n)``, the width of the dip around 0.
    """
    with mpmath.workdps(25):
        g, b, n, c, delta = (mpmath.mpf(v) for v in (g, b, n, c, delta))
        s, tau, psi = 1 / mpmath.sqrt(n), c * n**-delta, g * b
        k, root2 = 1 / mpmath.sqrt(2 * mpmath.pi), mpmath.sqrt(2)
        cache = {}

        def parts(x):
            if x not in cache:
                a = tau / abs(x)
                lo, hi = (-a - b) / s, (a - b) / s
                pdf_lo, pdf_hi = k * mpmath.exp(-lo * lo / 2), k * mpmath.exp(-hi * hi / 2)
                m0 = (mpmath.erfc(-lo / root2) + mpmath.erfc(hi / root2)) / 2
                m1, m2 = pdf_hi - pdf_lo, m0 + hi * pdf_hi - lo * pdf_lo
                y1, y2 = b * m0 + s * m1, b * b * m0 + 2 * b * s * m1 + s * s * m2
                density = k / s * mpmath.exp(-(((x - g) / s) ** 2) / 2)
                cache[x] = ((x * x * y2 - 2 * x * psi * y1 + psi * psi * m0) * density, (1 - m0) * density)
            return cache[x]

        edge = tau / s
        cuts = {g - 14 * s, g + 14 * s, *(m * edge for m in (0, 0.01, 0.1, 1, 10, 100, -0.01, -0.1, -1, -10, -100))}
        if b:
            cuts.update((tau / abs(b), -tau / abs(b)))
        cuts = sorted(x for x in cuts if g - 14 * s <= x <= g + 14 * s)
        outside = mpmath.quad(lambda x: parts(x)[0], cuts)
        freq = mpmath.quad(lambda x: parts(x)[1], cuts)
        return float((outside + psi * psi * freq) / (s * s * (s * s + g * g + b * b))), float(freq)


class TestMseRatioExact:
    @pytest.mark.parametrize("name", sorted(MSE_RATIO_PRESETS))
    def test_matches_mpmath(self, name):
        preset = MSE_RATIO_PRESETS[name]
        grid = [10**2, 10**4, 10**6]
        points = mse_ratio_exact(ParamSequence(preset.gamma, preset.beta), preset.c, preset.delta, grid)
        for point, n in zip(points, grid):
            ratio, freq = _mp_ratio(preset.gamma.at(n), preset.beta.at(n), n, preset.c, preset.delta)
            assert (point.n, point.mc_se) == (n, 0.0)
            assert abs(point.ratio - ratio) <= 1e-12 * ratio, n
            assert abs(point.filter_freq - freq) <= 1e-12, n

    def test_oracle_inner_integral_is_the_moments(self):
        # The closed-form inner integral against mpmath.quad over beta_hat, at
        # x inside, at and outside the band's edge.
        with mpmath.workdps(25):
            g, b, s, tau = mpmath.mpf(0.3), mpmath.mpf(0.2), mpmath.mpf(0.1), mpmath.mpf(0.025)
            psi = g * b
            for x in (tau / 0.5, tau / b, tau / 0.06):
                def shrunk_sq(y):
                    t = x * y
                    return ((0 if abs(t) < tau else t) - psi) ** 2 * mpmath.npdf(y, b, s)

                a = tau / x
                direct = mpmath.quad(shrunk_sq, [b - 15 * s, -a, a, b + 15 * s])
                lo, hi = (-a - b) / s, (a - b) / s
                m0 = mpmath.ncdf(lo) + mpmath.ncdf(-hi)
                m1 = mpmath.npdf(hi) - mpmath.npdf(lo)
                m2 = m0 + hi * mpmath.npdf(hi) - lo * mpmath.npdf(lo)
                y1, y2 = b * m0 + s * m1, b * b * m0 + 2 * b * s * m1 + s * s * m2
                closed = x * x * y2 - 2 * x * psi * y1 + psi * psi * m0 + psi * psi * (1 - m0)
                assert abs(direct / closed - 1) < 1e-20

    def test_k_4over3_values(self):
        points = mse_ratio_exact(seq("2n^-0.5", "2n^-0.5"), 4.0, 0.7, [10**2, 10**4, 10**5, 10**6])
        assert abs(points[0].ratio - 1.8155236306901) < 1e-12
        for point in points[1:]:
            assert abs(point.ratio - 16.0 / 9.0) < 1e-12

    @pytest.mark.parametrize("name, limit", [("k-4over3", 16.0 / 9.0), ("k-inv-sqrt3", 1.0 / 3.0), ("k-one", 1.0)])
    def test_full_filtration_limit_is_k_squared(self, name, limit):
        preset = MSE_RATIO_PRESETS[name]
        s = ParamSequence(preset.gamma, preset.beta)
        k = classify_product_regime(s, preset.c, preset.delta).K_value
        assert k * k == pytest.approx(limit, rel=1e-15)
        for point in mse_ratio_exact(s, preset.c, preset.delta, [10**4, 10**5, 10**6]):
            assert abs(point.ratio - limit) < 1e-12 * limit
            assert point.k_at_n == pytest.approx(k, rel=1e-12)
            assert point.filter_freq == 1.0

    # A cell at an interior filtration probability, one where filtration
    # vanishes and one that collapses to 0; the Monte-Carlo oracle in
    # tests/probes.py at 20,000 reps agrees with each within 4 standard errors.
    @pytest.mark.parametrize(
        "index, name, n", [(0, "partial-mid", 10**4), (1, "vanishing-filter", 10**2), (2, "superefficient", 10**2)]
    )
    def test_matches_monte_carlo(self, index, name, n):
        preset = MSE_RATIO_PRESETS[name]
        s, grid, reps = ParamSequence(preset.gamma, preset.beta), [n, 10 * n, 100 * n], 20_000
        exact = mse_ratio_exact(s, preset.c, preset.delta, grid)[0]
        mc = mse_ratio_experiment(s, preset.c, preset.delta, grid, reps, RandomStream(16, index))[0]
        assert abs(mc.ratio - exact.ratio) <= 4.0 * mc.mc_se
        freq_se = math.sqrt(exact.filter_freq * (1.0 - exact.filter_freq) / reps)
        assert abs(mc.filter_freq - exact.filter_freq) <= 4.0 * freq_se
        assert mc.k_at_n == pytest.approx(exact.k_at_n, rel=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        gamma=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e3, 1e3), st.floats(0.0, 3.0)),
        beta=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e3, 1e3), st.floats(0.0, 3.0)),
        log_c=st.floats(-300.0, 300.0),
        delta=st.floats(1e-6, 5.0),
        n=st.integers(1, 10**12),
    )
    def test_probability_and_ratio_in_range(self, gamma, beta, log_c, delta, n):
        s = ParamSequence(*(PowerSequence(offset, ((coef, exp),)) for offset, coef, exp in (gamma, beta)))
        try:
            points = mse_ratio_exact(s, 10.0**log_c, delta, [n, 10 * n, 100 * n])
        except FloatingPointError:
            return
        for point in points:
            assert 0.0 <= point.filter_freq <= 1.0
            assert 0.0 <= point.ratio < math.inf

    # The plain MSE underflows at a huge n, and overflows at a huge parameter.
    @pytest.mark.parametrize(
        "gamma, beta, grid, bad",
        [("2n^-0.5", "2n^-0.5", [100, 1000, 10**300], 10**300), ("1e200", "1e200", [100, 1000, 10_000], 100)],
    )
    def test_plain_mse_out_of_range_raises(self, gamma, beta, grid, bad):
        with pytest.raises(FloatingPointError, match=f"^at n={bad} the plain estimator's MSE"):
            mse_ratio_exact(seq(gamma, beta), 4.0, 0.7, grid)

    def test_null_pair_is_filtered_almost_surely(self):
        # At (0, 0) the shrunk estimator is exact whenever it filters.
        last = mse_ratio_exact(seq("0", "0"), 4.0, 0.7, [10**4, 10**5, 10**6])[-1]
        assert last.ratio < 1e-4 and last.filter_freq > 0.9999 and last.k_at_n == 0.0

    def test_huge_offset_is_never_filtered(self):
        # The plain MSE is about 1e158 at n = 100: in range, and never squared.
        points = mse_ratio_exact(seq("1e80", "0"), 1.0, 0.5, [100, 1000, 10_000])
        for point in points:
            assert point.ratio == pytest.approx(1.0, abs=1e-12)
            assert point.filter_freq < 1e-12 and point.k_at_n == 0.0


class TestRecords:
    def test_checked_on_construction(self):
        with pytest.raises(ValueError):
            PowerSequence(float("inf"))
        with pytest.raises(ValueError):
            PowerSequence(0.0, ((1.0, -0.5),))
        with pytest.raises(ValueError):
            ParamPoint(math.nan, 0.0)

    def test_named_tuples(self):
        s = PowerSequence(1.0, ((3.0, 0.5),))
        assert (s.offset, s.terms, s._fields) == (1.0, ((3.0, 0.5),), ("offset", "terms"))
        assert ParamSequence(s, s).at(9) == ParamPoint(2.0, 2.0)
        assert MSE_RATIO_PRESETS["k-4over3"]._fields == ("gamma", "beta", "c", "delta", "note")


class TestRateProbe:
    def test_product_rate_accelerates_at_origin(self):
        exponent = rate_exponent(
            "product", ParamPoint(0.0, 0.0), [100, 1000, 10_000, 100_000], 2000, RandomStream(20, 0)
        )
        assert abs(exponent - 1.0) < 0.1

    def test_product_rate_root_n_off_origin(self):
        exponent = rate_exponent(
            "product", ParamPoint(1.0, 0.0), [100, 1000, 10_000, 100_000], 2000, RandomStream(21, 0)
        )
        assert abs(exponent - 0.5) < 0.1

    def test_norm2_rate_at_origin(self):
        exponent = rate_exponent(
            "norm2", ParamPoint(0.0, 0.0), [100, 1000, 10_000, 100_000], 2000, RandomStream(22, 0)
        )
        assert abs(exponent - 1.0) < 0.1


class TestIrregularityProbe:
    def test_same_direction_below_critical(self):
        d = ks_distance(*sobel_samples(ParamPoint(0, 0), ParamPoint(0, 0), 10_000, 20_000, RandomStream(30, 0)))
        assert d < ks_critical_value(20_000, 20_000, 0.01)

    def test_distinct_directions_separate(self):
        d = ks_distance(*sobel_samples(ParamPoint(0, 0), ParamPoint(3, 0), 10_000, 20_000, RandomStream(31, 0)))
        assert d > ks_critical_value(20_000, 20_000, 0.01)

    def test_symmetric_in_directions(self):
        a = ks_distance(*sobel_samples(ParamPoint(0, 0), ParamPoint(3, 0), 10_000, 20_000, RandomStream(32, 0)))
        b = ks_distance(*sobel_samples(ParamPoint(3, 0), ParamPoint(0, 0), 10_000, 20_000, RandomStream(33, 0)))
        assert abs(a - b) < 0.02

    @pytest.mark.parametrize("reps, tol", [(10_000, 0.0), (20_000, 1e-12)])
    @pytest.mark.parametrize("h_b", [ParamPoint(0, 0), ParamPoint(3, 0)])
    def test_statistic_matches_scipy(self, reps, tol, h_b):
        samples = sobel_samples(ParamPoint(0, 0), h_b, 10_000, reps, RandomStream(34, 0))
        d = ks_distance(*samples)
        k = round(d * reps)
        assert d == k / reps and 0 < k <= reps
        assert abs(d - ks_2samp(*samples).statistic) <= tol


class TestPresets:
    def test_registry_contents(self):
        assert MSE_RATIO_PRESETS["k-4over3"].gamma == PowerSequence.parse("2n^-0.5")
        assert MSE_RATIO_PRESETS["k-4over3"].delta == 0.7
        assert MSE_RATIO_PRESETS["k-4over3"].c == 4.0
        assert MSE_RATIO_PRESETS["vanishing-filter"].delta == 1.5
        assert MSE_RATIO_PRESETS["vanishing-filter"].c == 2.5
        assert len([k for k in MSE_RATIO_PRESETS if k.startswith("k-")]) == 5

    def test_partial_family_constants(self):
        for name in ("partial-small", "partial-mid", "partial-large"):
            assert MSE_RATIO_PRESETS[name].delta == 1.0
            assert MSE_RATIO_PRESETS[name].c == 2.5


# ------------------------------------------------------------ oracles
#
# Each preset's note states its regime.  "smallest", "middle" and "largest"
# order the K of the partial-* family, and a note with no K states none.
_NOTE_REGION = {"L=1": LRegion.ONE, "0<L<1": LRegion.INTERIOR, "L=0": LRegion.ZERO}
_NOTE_K = {"K=inf": math.inf, "K=4/3": 4.0 / 3.0, "K=1": 1.0, "K=1/sqrt(3)": 1.0 / math.sqrt(3.0), "K=0": 0.0}


@pytest.mark.parametrize("name", sorted(MSE_RATIO_PRESETS))
def test_preset_note_is_its_regime(name):
    preset = MSE_RATIO_PRESETS[name]
    r = classify_product_regime(ParamSequence(preset.gamma, preset.beta), preset.c, preset.delta)
    region, *rest = preset.note.split(", ")
    assert r.L_region is _NOTE_REGION[region]
    for claim in rest:
        if claim in _NOTE_K:
            assert r.K_value == pytest.approx(_NOTE_K[claim], rel=1e-15)
    if "ratio -> 1" in rest:
        assert r.efficiency_class is EfficiencyClass.EQUIVALENT
    if "ratio -> 0" in rest:
        assert r.efficiency_class is EfficiencyClass.MUCH_MORE


def test_partial_presets_order_k():
    ks = [
        classify_product_regime(ParamSequence(p.gamma, p.beta), p.c, p.delta).K_value
        for p in (MSE_RATIO_PRESETS[f"partial-{size}"] for size in ("small", "mid", "large"))
    ]
    assert 0.0 < ks[0] < ks[1] < ks[2] < math.inf


# The finite-n quantities at n = 1e200, to 50 digits, against the exact
# limits.  Exponents are multiples of 0.05 and coefficients lie in [0.1, 10],
# so at n = 1e200 a finite limit is met to far below the tolerance, and an
# infinite (zero) one has grown past 1e6 (fallen below 1e-6).
# Half the rates are 1/2, where K and the sd term have finite limits.
_RATES = st.just(0.5) | st.sampled_from([0.1, 0.25, 0.4, 0.6, 0.75, 0.9, 1.0, 1.5])
_COEF = st.builds(lambda sign, mag: sign * mag, st.sampled_from([1.0, -1.0]), st.floats(0.1, 10.0))


def _rate_coordinate():
    return st.builds(
        lambda offset, terms: PowerSequence(offset, tuple(terms)),
        st.just(0.0) | _COEF,
        st.lists(st.tuples(_COEF, _RATES), max_size=3, unique_by=lambda term: term[1]),
    )


def _mp_at(s: PowerSequence, n):
    return mpmath.mpf(s.offset) + sum(mpmath.mpf(coef) * n ** -mpmath.mpf(exp) for coef, exp in s.terms)


def _near_limit(finite_n, limit) -> bool:
    if math.isinf(limit):
        return finite_n * math.copysign(1.0, limit) > 1e6
    if limit == 0.0:
        return abs(finite_n) < 1e-6
    return abs(finite_n / mpmath.mpf(limit) - 1) < 1e-12


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(gamma=_rate_coordinate(), beta=_rate_coordinate(), delta=st.sampled_from([0.25, 0.5, 0.7, 0.8, 1.0, 1.2]))
def test_limits_match_mpmath_at_1e200(gamma, beta, delta):
    r = classify_product_regime(ParamSequence(gamma, beta), 1.0, delta)
    with mpmath.workdps(50):
        n = mpmath.mpf(10) ** 200
        g, b = _mp_at(gamma, n), _mp_at(beta, n)
        k = n * g * b / mpmath.sqrt(1 + n * (g * g + b * b))
        mean = n ** mpmath.mpf(delta) * abs(g * b)
        sd = n ** (mpmath.mpf(delta) - 0.5) * mpmath.sqrt(1 / n + g * g + b * b)
        assert _near_limit(k, r.K_value), (k, r.K_value)
        assert _near_limit(mean, r.a_mean_term), (mean, r.a_mean_term)
        assert _near_limit(sd, r.a_sd_term), (sd, r.a_sd_term)


# ------------------------------------------------------------ grid reference
#
# The grid rule the classifier once used, in numpy: each quantity evaluated
# at a few sample sizes and its limit guessed from the tail (a stable tail,
# a small decaying one, or a large growing one; else None).  Wherever that
# guess resolves the region, the exact region must equal it, on inputs where
# the guess can be right:
# - rates and delta are multiples of 0.05, as n^-0.004 looks constant to the
#   grid's 1% window up to n = 1e8;
# - coefficients are at least 1, as the grid calls a limit 0 when its tail
#   ends below 0.05 (the constant 0.0039, say);
# - each coordinate's terms share one sign, so every quantity falls toward a
#   finite limit and none reaches the grid's "large and growing" rule.


def _np_at(s: PowerSequence, n: np.ndarray) -> np.ndarray:
    value = np.full(n.shape, s.offset)
    for coef, exp in s.terms:
        value = value + coef * n ** (-exp)
    return value


def _np_extrapolate(values):
    v = np.asarray(values, dtype=float)
    tail = v[-4:] if v.size >= 4 else v
    mags = np.abs(tail)
    last = float(v[-1])
    if np.all(mags < 1e-12):
        return 0.0
    rel = np.abs(np.diff(v[-3:])) / np.maximum(np.abs(v[-2:]), 1e-300)
    if np.all(rel < 0.01):
        return last
    diffs = np.diff(mags)
    if np.all(diffs <= 0):
        if abs(last) <= 0.05:
            return 0.0
        if abs(last) <= 0.25 and mags[-1] <= 0.6 * mags[0]:
            return 0.0
    if np.all(diffs >= 0) and abs(last) >= 100.0:
        return math.copysign(math.inf, last)
    return None


def _np_limits(sq: ParamSequence, delta: float, n_grid):
    """(mean_term, sd_term) as the grid guesses them."""
    grid = np.asarray(n_grid, dtype=float)
    with np.errstate(all="ignore"):
        g, b = _np_at(sq.gamma, grid), _np_at(sq.beta, grid)
        return (
            _np_extrapolate(grid**delta * np.abs(g * b)),
            _np_extrapolate(grid ** (delta - 0.5) * np.sqrt(1.0 / grid + np.square(g) + np.square(b))),
        )


def _np_region(mean, sd):
    """The L region the grid's terms give, or None where it leaves the region open."""
    if any(t is not None and math.isinf(t) for t in (mean, sd)):
        return LRegion.ZERO
    if mean is None or sd is None:
        return None
    return LRegion.ONE if max(abs(mean), sd) == 0.0 else LRegion.INTERIOR


_TWENTIETHS = st.integers(0, 60).map(lambda k: k / 20)
_RATE = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | _TWENTIETHS


def _coordinate():
    magnitude = st.floats(1.0, 1e3)
    return st.builds(
        lambda sign, offset, terms: PowerSequence(sign * offset, tuple((sign * c, e) for c, e in terms)),
        st.sampled_from([1.0, -1.0]),
        st.just(0.0) | magnitude,
        st.lists(st.tuples(magnitude, _RATE), max_size=3),
    )


_GRIDS = (
    st.just((10**2, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8))
    | st.lists(st.integers(20, 308), min_size=3, max_size=3, unique=True).map(lambda ks: [10**k for k in sorted(ks)])
)


class TestNumpyOracle:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        gamma=_coordinate(),
        beta=_coordinate(),
        delta=_RATE.filter(bool),
        n_grid=_GRIDS,
    )
    def test_region_matches_the_grid_where_it_resolves(self, gamma, beta, delta, n_grid):
        sq = ParamSequence(gamma, beta)
        region = _np_region(*_np_limits(sq, delta, n_grid))
        if region is not None:
            assert classify_product_regime(sq, 1.0, delta).L_region is region

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 10**300) | st.floats(1.0, 1e308), exp=st.floats(0.0, 50.0))
    def test_at_within_one_ulp_of_mpmath(self, n, exp):
        got = PowerSequence(0.0, ((1.0, exp),)).at(n)
        with mpmath.workprec(200):
            exact = mpmath.power(mpmath.mpf(float(n)), -mpmath.mpf(exp))
            assert abs(mpmath.mpf(got) - exact) <= math.ulp(got)
