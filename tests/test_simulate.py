import math

import numpy as np
import pytest

from twostage import (
    Assignment,
    FiltrationAware,
    Method,
    MixtureRow,
    NoFilter,
    NormalMeanPrior,
    PowerSequence,
    ProductThreshold,
    RandomStream,
    ScenarioMixture,
    Truth,
    builtin_scenario,
    conditional_rejection_stats,
    run_experiment,
    run_replication,
    standard_methods,
)
from twostage.simulate import _BLOCK_REPS, _deterministic_counts, _draw_hypotheses


class TestBuiltinScenarios:
    def test_config1_composition(self):
        sc = builtin_scenario("config1")
        assert [r.proportion for r in sc.rows] == [0.65, 0.30, 0.05]
        assert [r.truth for r in sc.rows] == [Truth.NULL00, Truth.NULL10, Truth.ALTERNATIVE]
        assert sc.rows[1].gamma == PowerSequence(0.0, ((3.0, 0.5),))
        assert not sc.renormalized

    def test_config2_composition(self):
        sc = builtin_scenario("config2")
        assert [r.proportion for r in sc.rows] == [0.25, 0.15, 0.25, 0.10, 0.15, 0.04, 0.03, 0.03]
        # row 8: (1 + 3n^-1/2, 3n^-1/2) at 3%
        last = sc.rows[-1]
        assert last.gamma == PowerSequence(1.0, ((3.0, 0.5),))
        assert last.beta == PowerSequence(0.0, ((3.0, 0.5),))
        assert last.truth is Truth.ALTERNATIVE

    def test_config3_renormalized(self):
        sc = builtin_scenario("config3")
        assert sc.renormalized
        assert sc.raw_proportions == (0.25, 0.35, 0.15, 0.10)
        assert sum(r.proportion for r in sc.rows) == pytest.approx(1.0)
        assert sc.rows[0].proportion == pytest.approx(0.25 / 0.85)

    def test_hierarchical_structure(self):
        sc = builtin_scenario("hierarchical")
        assert sc.assignment is Assignment.MULTINOMIAL
        assert isinstance(sc.rows[1].gamma, NormalMeanPrior)
        assert sc.rows[1].gamma.mean == PowerSequence(1.0, ((1.0, 0.5),))
        assert sc.rows[1].gamma.variance == PowerSequence(0.0, ((1.0, 0.5),))
        assert sc.rows[1].beta == PowerSequence(0.0)

    def test_hierarchical_degenerate_pi(self):
        sc = builtin_scenario("hierarchical", pi=(0.7, 0.3, 0.0))
        assert all(r.truth is not Truth.ALTERNATIVE for r in sc.rows)
        report = run_experiment(sc, [Method(NoFilter())], master_seed=5)
        assert math.isnan(report.methods[0].power)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_scenario("config9")

    def test_overrides(self):
        sc = builtin_scenario("config1", m=50, reps=10, n=400, sigma=2.0, alpha=0.01)
        assert (sc.m, sc.reps, sc.n, sc.sigma, sc.alpha) == (50, 10, 400, 2.0, 0.01)


class TestDeterministicCounts:
    def test_exact_proportions(self):
        counts = _deterministic_counts([0.65, 0.30, 0.05], 200)
        assert counts.tolist() == [130, 60, 10]

    def test_largest_remainder(self):
        counts = _deterministic_counts([0.25 / 0.85, 0.35 / 0.85, 0.15 / 0.85, 0.10 / 0.85], 200)
        assert counts.sum() == 200
        assert counts.tolist() == [59, 82, 35, 24]


class TestReplication:
    def test_common_draws_across_methods(self):
        sc = builtin_scenario("config1", reps=1)
        counts = run_replication(sc, list(standard_methods()), 0, RandomStream(3, 0))
        assert counts[0].F == sc.m  # NoFilter keeps everything
        assert all(c.n_alt == counts[0].n_alt for c in counts)

    def test_replication_reproducible(self):
        sc = builtin_scenario("config1", reps=1)
        a = run_replication(sc, [Method(ProductThreshold(3.0, 1.0))], 4, RandomStream(9, 0))
        b = run_replication(sc, [Method(ProductThreshold(3.0, 1.0))], 4, RandomStream(9, 0))
        assert a == b

    def test_hierarchical_means_redrawn(self):
        sc = builtin_scenario("hierarchical", m=40)
        g0, _, _, _ = _draw_hypotheses(sc, 0, RandomStream(11, 0))
        g1, _, _, _ = _draw_hypotheses(sc, 1, RandomStream(11, 0))
        assert not np.allclose(g0, g1)

    def test_multinomial_assignment_varies(self):
        sc = builtin_scenario("hierarchical", m=60)
        alt_counts = set()
        for r in range(6):
            counts = run_replication(sc, [Method(NoFilter())], r, RandomStream(13, 0))
            alt_counts.add(counts[0].n_alt)
        assert len(alt_counts) > 1

    def test_methods_required(self):
        sc = builtin_scenario("config1", reps=1)
        with pytest.raises(ValueError):
            run_replication(sc, [], 0, RandomStream(1, 0))


class TestExperiment:
    def test_single_rep_fwer_is_binary(self):
        sc = builtin_scenario("config1", reps=1)
        report = run_experiment(sc, [Method(NoFilter())], master_seed=2)
        assert report.methods[0].empirical_fwer in (0.0, 1.0)

    def test_bonferroni_guarantee_all_null(self):
        rows = (MixtureRow(PowerSequence(0.0), PowerSequence(0.0), 1.0, Truth.NULL00),)
        sc = ScenarioMixture("null00-only", rows, m=100, reps=300, n=200)
        report = run_experiment(sc, [Method(NoFilter())], master_seed=41)
        res = report.methods[0]
        assert res.empirical_fwer <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / sc.reps)

    def test_conservative_at_double_null(self):
        # with every hypothesis at the double null, plain Bonferroni on the
        # joint p-value operates at roughly alpha^2/m scale, far below alpha
        rows = (MixtureRow(PowerSequence(0.0), PowerSequence(0.0), 1.0, Truth.NULL00),)
        sc = ScenarioMixture("null00-only", rows, m=200, reps=400, n=200)
        report = run_experiment(sc, [Method(NoFilter())], master_seed=42)
        assert report.methods[0].empirical_fwer <= 0.01

    def test_hierarchical_fwer_controlled(self):
        sc = builtin_scenario("hierarchical", m=100, reps=200)
        report = run_experiment(sc, list(standard_methods()), master_seed=47)
        cap = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / sc.reps)
        assert all(res.empirical_fwer <= cap for res in report.methods)

    def test_metadata_recorded(self):
        sc = builtin_scenario("config3", reps=2)
        report = run_experiment(sc, [Method(NoFilter())], master_seed=5)
        assert report.meta.scenario == "config3"
        assert report.meta.renormalized is True
        assert report.meta.seed == 5
        assert report.meta.assignment == "deterministic"

    def test_duplicate_method_ids_rejected(self):
        sc = builtin_scenario("config1", reps=1)
        with pytest.raises(ValueError):
            run_experiment(sc, [Method(NoFilter()), Method(NoFilter())], master_seed=1)


class TestEngine:
    @pytest.mark.parametrize("name", ["config1", "hierarchical"])
    def test_draw_layout(self, name):
        # The documented draw order, reproduced by hand on stream (seed, r).
        sc = builtin_scenario(name, m=50)
        seed, r, n = 19, 7, sc.n
        gen = RandomStream(seed, r).generator
        if sc.assignment is Assignment.MULTINOMIAL:
            cum = np.cumsum([row.proportion for row in sc.rows])
            row_idx = np.array([min(int(np.searchsorted(cum, u)), len(sc.rows) - 1) for u in gen.random(sc.m)])
        else:
            counts = _deterministic_counts([row.proportion for row in sc.rows], sc.m)
            row_idx = np.repeat(np.arange(len(sc.rows)), counts)
        z = gen.standard_normal((4, sc.m))
        sd = sc.sigma / math.sqrt(n)
        gamma_hat, beta_hat = np.empty(sc.m), np.empty(sc.m)
        for i, k in enumerate(row_idx):
            row = sc.rows[k]
            means = []
            for coord, prior_z in ((row.gamma, z[0, i]), (row.beta, z[1, i])):
                if isinstance(coord, NormalMeanPrior):
                    means.append(coord.mean.at(n) + math.sqrt(coord.variance.at(n)) * prior_z)
                else:
                    means.append(coord.at(n))
            gamma_hat[i] = means[0] + sd * z[2, i]
            beta_hat[i] = means[1] + sd * z[3, i]
        got = _draw_hypotheses(sc, r, RandomStream(seed, 0))
        np.testing.assert_array_equal(got[0], gamma_hat)
        np.testing.assert_array_equal(got[1], beta_hat)
        np.testing.assert_array_equal(got[2], row_idx)
        np.testing.assert_array_equal(got[3], [sc.rows[k].truth.is_null for k in row_idx])

    @pytest.mark.parametrize("reps", [1, _BLOCK_REPS - 1, 2 * _BLOCK_REPS + 2])
    @pytest.mark.parametrize("name", ["config2", "hierarchical"])
    def test_block_size_independence(self, name, reps):
        # run_experiment works in blocks; run_replication runs one replication.
        sc = builtin_scenario(name, m=40, reps=reps)
        methods = list(standard_methods()) + [Method(ProductThreshold(2.0, 0.9), FiltrationAware(0.5), id="aware")]
        report = run_experiment(sc, methods, master_seed=29)
        per_rep = [run_replication(sc, methods, r, RandomStream(29, 0)) for r in range(reps)]
        for j, res in enumerate(report.methods):
            counts = [rep[j] for rep in per_rep]
            assert res.empirical_fwer == np.mean([c.V >= 1 for c in counts])
            assert res.mean_F == np.mean([c.F for c in counts])
            ratios = [c.S / c.n_alt for c in counts if c.n_alt]
            assert res.power == (np.mean(ratios) if ratios else pytest.approx(math.nan, nan_ok=True))

    @pytest.mark.parametrize("name", ["config2", "hierarchical"])
    def test_callers_agree(self, name):
        # fwer-bound's statistics and simulate's report reduce the same pass,
        # over replications that cross a block boundary.
        sc = builtin_scenario(name, m=40, reps=_BLOCK_REPS + 6)
        method = Method(ProductThreshold(2.0, 0.9), id="prod")
        stats = conditional_rejection_stats(sc, method, 37)
        [res] = run_experiment(sc, [method], master_seed=37).methods
        per_rep = [run_replication(sc, [method], r, RandomStream(37, 0))[0] for r in range(sc.reps)]
        np.testing.assert_array_equal(stats.F_samples, [c.F for c in per_rep])
        assert (stats.fwer, stats.fwer_se, stats.mean_F) == (res.empirical_fwer, res.fwer_se, res.mean_F)
        assert stats.row_survived.sum() == stats.F_samples.sum()
        assert stats.row_rejected.sum() == sum(c.V + c.S for c in per_rep)
        assert (stats.row_rejected <= stats.row_survived).all()
        null_rates = [
            rej / surv
            for rej, surv, row in zip(stats.row_rejected, stats.row_survived, sc.rows)
            if row.truth.is_null and surv
        ]
        assert stats.q_max == max(null_rates, default=0.0)


class TestScenarioValidation:
    def test_proportions_must_sum_to_one(self):
        rows = (MixtureRow(PowerSequence(0.0), PowerSequence(0.0), 0.5, Truth.NULL00),)
        with pytest.raises(ValueError):
            ScenarioMixture("bad", rows)

    @pytest.mark.parametrize(
        "gamma, beta, truth",
        [
            (PowerSequence(0.0), PowerSequence(0.0), Truth.ALTERNATIVE),
            (PowerSequence(0.0), PowerSequence(0.0, ((3.0, 0.5),)), Truth.NULL10),
            (NormalMeanPrior(PowerSequence(0.0), PowerSequence(0.0, ((1.0, 1.0),))), PowerSequence(0.0), Truth.NULL00),
            # 3 n^-200 underflows to 0 at n = 1e4, so the row is a double null there.
            (PowerSequence(0.0, ((3.0, 200.0),)), PowerSequence(0.0), Truth.NULL10),
        ],
    )
    def test_truth_must_match_the_coordinates(self, gamma, beta, truth):
        with pytest.raises(ValueError, match=r"rows\[0\] has truth .* at n = 10000 make it"):
            ScenarioMixture("bad", (MixtureRow(gamma, beta, 1.0, truth),), n=10_000)

    def test_alpha_range(self):
        rows = (MixtureRow(PowerSequence(0.0), PowerSequence(0.0), 1.0, Truth.NULL00),)
        with pytest.raises(ValueError):
            ScenarioMixture("bad", rows, alpha=1.5)
