import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from twostage import (
    DEFAULT_N_GRID,
    MSE_RATIO_PRESETS,
    EfficiencyClass,
    InconsistentRegimeError,
    LRegion,
    ParamPoint,
    ParamSequence,
    PowerSequence,
    RandomStream,
    classify_product_regime,
    compute_K,
    eval_sequence,
    extrapolate_limit,
    irregularity_probe,
    k_upper_bound,
    ks_critical_value,
    mse_product_closed,
    mse_ratio_experiment,
    rate_probe,
)
from twostage.estimators import _sobel


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

    def test_eval_sequence_op(self):
        point = eval_sequence(seq("3n^-0.5", "0"), 9)
        assert point == ParamPoint(1.0, 0.0)
        with pytest.raises(ValueError):
            eval_sequence(seq("0", "0"), 0)


class TestExtrapolateLimit:
    def test_constant_sequence(self):
        assert extrapolate_limit([0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_slow_decay_to_zero(self):
        grid = np.asarray(DEFAULT_N_GRID, dtype=float)
        assert extrapolate_limit(grid**-0.2) == 0.0

    def test_growth_to_infinity(self):
        grid = np.asarray(DEFAULT_N_GRID, dtype=float)
        assert extrapolate_limit(grid**0.5) == math.inf
        assert extrapolate_limit(-(grid**0.5)) == -math.inf

    def test_unresolved_growth(self):
        grid = np.asarray(DEFAULT_N_GRID, dtype=float)
        assert extrapolate_limit(grid**0.2) is None

    def test_stabilizing_sequence(self):
        grid = np.asarray(DEFAULT_N_GRID, dtype=float)
        assert extrapolate_limit(1.0 + grid**-0.5) == pytest.approx(1.0, abs=1e-3)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            extrapolate_limit([1.0, 2.0])


class TestComputeK:
    def test_root_n_pair(self):
        # symbolic limit c^2 / sqrt(1 + 2 c^2) at c = 1
        assert compute_K(seq("n^-0.5", "n^-0.5")) == pytest.approx(1.0 / math.sqrt(3.0))

    def test_faster_decay_gives_zero(self):
        assert compute_K(seq("n^-0.6", "n^-0.6")) == 0.0

    def test_constant_pair_diverges(self):
        assert compute_K(seq("0.7", "0.7")) == math.inf

    def test_signed_limit(self):
        assert compute_K(seq("n^-0.5", "-n^-0.5")) == pytest.approx(-1.0 / math.sqrt(3.0))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            compute_K(seq("0", "0"), n_grid=[100, 10])


class TestKUpperBound:
    def test_vanishing_scale(self):
        # n (g^2 + b^2) -> 0 forces the bound (and K) to zero
        assert k_upper_bound(seq("n^-0.6", "n^-0.6")) == 0.0

    def test_finite_scale(self):
        # n (g^2 + b^2) -> 2 gives bound 2 / sqrt(3)
        assert k_upper_bound(seq("n^-0.5", "n^-0.5")) == pytest.approx(2.0 / math.sqrt(3.0))

    def test_bound_dominates_k(self):
        # the mixed pair's bound converges like n**-0.2, so stabilize it on a
        # wide grid rather than the default one
        grid = [10.0**e for e in (6, 9, 12, 15, 18)]
        for g, b in [("n^-0.5", "n^-0.5"), ("2n^-0.5", "2n^-0.5"), ("n^-0.6", "n^-0.6"), ("n^-0.5", "n^-0.6")]:
            k = compute_K(seq(g, b), n_grid=grid)
            bound = k_upper_bound(seq(g, b), n_grid=grid)
            assert k is not None and bound is not None
            assert k <= bound + 1e-9


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
        # K here diverges like n**0.1, so confirming it needs a grid far past
        # the default cap; the default grid honestly reports indeterminate.
        slow = classify_product_regime(seq("2n^-0.4", "n^-0.4"), c=4.0, delta=0.7)
        assert slow.K_value is None
        assert slow.efficiency_class is EfficiencyClass.INDETERMINATE
        wide_grid = [10.0**e for e in (8, 16, 24, 32, 40)]
        much_less = classify_product_regime(seq("2n^-0.4", "n^-0.4"), c=4.0, delta=0.7, n_grid=wide_grid)
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

    def test_unreachable_cell_raises(self):
        # delta > 1 with a grid too short to confirm the divergence
        with pytest.raises(InconsistentRegimeError):
            classify_product_regime(seq("n^-1", "n^-1"), c=2.5, delta=1.2)

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
            assert r.L_region is LRegion.ONE and r.K_value not in (None, 0.0)
            pts = mse_ratio_experiment(
                s, preset.c, preset.delta, [10_000, 100_000, 10**6], 10_000,
                RandomStream(15, stream_idx),
            )
            assert abs(pts[-1].ratio - r.K_value**2) <= 0.15 * r.K_value**2


class TestRateProbe:
    def test_product_rate_accelerates_at_origin(self):
        exponent = rate_probe(
            "product", ParamPoint(0.0, 0.0), [100, 1000, 10_000, 100_000], 2000, RandomStream(20, 0)
        )
        assert abs(exponent - 1.0) < 0.1

    def test_product_rate_root_n_off_origin(self):
        exponent = rate_probe(
            "product", ParamPoint(1.0, 0.0), [100, 1000, 10_000, 100_000], 2000, RandomStream(21, 0)
        )
        assert abs(exponent - 0.5) < 0.1

    def test_norm2_rate_at_origin(self):
        exponent = rate_probe(
            "norm2", ParamPoint(0.0, 0.0), [100, 1000, 10_000, 100_000], 2000, RandomStream(22, 0)
        )
        assert abs(exponent - 1.0) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_probe("product", ParamPoint(0, 0), [100, 1000], 2000, RandomStream(1, 0))
        with pytest.raises(ValueError):
            rate_probe("product", ParamPoint(0, 0), [100, 300, 900], 2000, RandomStream(1, 0))
        with pytest.raises(ValueError):
            rate_probe("median", ParamPoint(0, 0), [100, 1000, 10_000], 2000, RandomStream(1, 0))


class TestIrregularityProbe:
    def test_same_direction_below_critical(self):
        d = irregularity_probe(ParamPoint(0, 0), ParamPoint(0, 0), 10_000, 20_000, RandomStream(30, 0))
        assert d < ks_critical_value(20_000, 20_000, 0.01)

    def test_distinct_directions_separate(self):
        d = irregularity_probe(ParamPoint(0, 0), ParamPoint(3, 0), 10_000, 20_000, RandomStream(31, 0))
        assert d > ks_critical_value(20_000, 20_000, 0.01)

    def test_symmetric_in_directions(self):
        a = irregularity_probe(ParamPoint(0, 0), ParamPoint(3, 0), 10_000, 20_000, RandomStream(32, 0))
        b = irregularity_probe(ParamPoint(3, 0), ParamPoint(0, 0), 10_000, 20_000, RandomStream(33, 0))
        assert abs(a - b) < 0.02

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            irregularity_probe(ParamPoint(0, 0), ParamPoint(0, 0), 100, 100, RandomStream(1, 0))

    @staticmethod
    def _probe_samples(h_a, h_b, n, reps, stream):
        """The two Sobel samples the probe draws, in its documented order."""
        root_n = math.sqrt(n)
        samples = []
        for i, h in enumerate((h_a, h_b)):
            gen = stream.offset(i).generator
            g = gen.normal(h.gamma / root_n, 1.0 / root_n, reps)
            b = gen.normal(h.beta / root_n, 1.0 / root_n, reps)
            samples.append(_sobel(g, b, 1.0, 1.0))
        return samples

    @pytest.mark.parametrize("reps, tol", [(10_000, 0.0), (20_000, 1e-12)])
    @pytest.mark.parametrize("h_b", [ParamPoint(0, 0), ParamPoint(3, 0)])
    def test_statistic_matches_scipy(self, reps, tol, h_b):
        args = (ParamPoint(0, 0), h_b, 10_000, reps, RandomStream(34, 0))
        d = irregularity_probe(*args)
        k = round(d * reps)
        assert d == k / reps and 0 < k <= reps
        assert abs(d - ks_2samp(*self._probe_samples(*args)).statistic) <= tol


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
