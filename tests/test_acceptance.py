"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run pytest with ``-s`` or check the
captured output).  The multiple-testing criteria share frozen-seed experiment
runs; everything is deterministic given the seeds below.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from twostage import (
    ChiSquarePValue,
    ParamPoint,
    ParamSequence,
    RandomStream,
    builtin_scenario,
    coord_pvalue,
    mse_product_closed,
    run_experiment,
    standard_methods,
)
from twostage.cli import main as cli_main
from twostage.procedure import filter_mask

from probes import ks_critical_value, ks_distance, mse_ratio_experiment, rate_exponent, sobel_samples

SEED = 20260809
FILTRATION_IDS = ("minp", "chisq2", "prod-0.8", "prod-0.9", "prod-1.0")


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def study_runs():
    """The three built-in configurations at m=200, reps=500, alpha=0.05."""
    t0 = time.perf_counter()
    runs = {
        name: run_experiment(builtin_scenario(name), standard_methods(), SEED)
        for name in ("config1", "config2", "config3")
    }
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def config2_highres():
    """config2 re-run at reps=2000 to resolve the power ordering of criterion 3."""
    scenario = builtin_scenario("config2", reps=2000)
    return run_experiment(scenario, standard_methods(), SEED + 1)


def test_criterion_01_fwer_control(study_runs):
    runs, elapsed = study_runs
    cap = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 500)
    worst, worst_at = 0.0, ""
    for name, report in runs.items():
        for res in report.methods:
            if res.empirical_fwer > worst:
                worst, worst_at = res.empirical_fwer, f"{name}/{res.method_id}"
    ok = worst <= cap and elapsed < 300.0
    _report(
        1,
        ok,
        f"max FWER {worst:.4f} at {worst_at} vs cap {cap:.4f} over 3 configs x 6 methods; "
        f"runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_02_power_improvement(study_runs):
    runs, _ = study_runs
    worst_margin, worst_at = math.inf, ""
    for name, report in runs.items():
        by_id = {res.method_id: res for res in report.methods}
        base = by_id["nofilter"]
        for mid in FILTRATION_IDS:
            res = by_id[mid]
            combined_se = math.hypot(res.power_se, base.power_se)
            margin = (res.power - base.power) / combined_se
            if margin < worst_margin:
                worst_margin, worst_at = margin, f"{name}/{mid}"
    _report(
        2,
        worst_margin > 2.0,
        f"every filtration method beats no-filter; smallest margin {worst_margin:.1f} "
        f"combined SEs at {worst_at} (need > 2)",
    )


def test_criterion_03_product_method_dominance(config2_highres):
    by_id = {res.method_id: res for res in config2_highres.methods}
    strict, floors = [], []
    for mid in ("prod-0.8", "prod-0.9"):
        res = by_id[mid]
        for other in ("minp", "chisq2"):
            se = math.hypot(res.power_se, by_id[other].power_se)
            strict.append(((res.power - by_id[other].power) / se, f"{mid}>{other}"))
        for other in FILTRATION_IDS:
            if other == mid:
                continue
            se = math.hypot(res.power_se, by_id[other].power_se)
            floors.append((res.power - (by_id[other].power - 2.0 * se), f"{mid}vs{other}"))
    min_strict = min(strict)
    min_floor = min(floors)
    ok = min_strict[0] > 2.0 and min_floor[0] >= 0.0
    _report(
        3,
        ok,
        f"config2 power ordering: weakest strict margin {min_strict[0]:.2f} SEs ({min_strict[1]}, "
        f"need > 2), weakest floor slack {min_floor[0]:+.4f} ({min_floor[1]}, need >= 0)",
    )


def test_criterion_04_mse_closed_form_grid():
    reps = 100_000
    worst, worst_at = 0.0, ""
    stream = RandomStream(SEED, 10_000)
    for i, gamma in enumerate((0.0, 0.5, 1.0)):
        for j, beta in enumerate((0.0, 0.5, 1.0)):
            for k, n in enumerate((100, 1_000, 10_000)):
                cell = stream.offset(i * 9 + j * 3 + k)
                g = cell.generator.normal(gamma, 1.0 / math.sqrt(n), size=reps)
                b = cell.generator.normal(beta, 1.0 / math.sqrt(n), size=reps)
                sq = (g * b - gamma * beta) ** 2
                mc_se = sq.std(ddof=1) / math.sqrt(reps)
                dev = abs(sq.mean() - mse_product_closed(gamma, beta, n)) / mc_se
                if dev > worst:
                    worst, worst_at = dev, f"(gamma={gamma}, beta={beta}, n={n})"
    _report(
        4,
        worst < 4.0,
        f"empirical product MSE matches n^-1(n^-1+g^2+b^2) on the 3x3x3 grid; "
        f"worst deviation {worst:.2f} MC SEs at {worst_at} (need < 4)",
    )


def test_criterion_05_regime_ratios():
    reps = 20_000
    # (a) L=1 with K=4/3: ratio at n=1e6 within 15% of K^2 = 16/9
    pts_a = mse_ratio_experiment(
        ParamSequence.parse("2n^-0.5", "2n^-0.5"), 4.0, 0.7,
        [10**4, 10**5, 10**6], reps, RandomStream(SEED, 20_000),
    )
    ratio_a = pts_a[-1].ratio
    ok_a = abs(ratio_a - 16.0 / 9.0) <= 0.15 * 16.0 / 9.0
    # (b) L=0: ratio at n=1e4 within 5% of 1
    pts_b = mse_ratio_experiment(
        ParamSequence.parse("n^-1", "n^-1"), 2.5, 1.5,
        [10**2, 10**3, 10**4], reps, RandomStream(SEED, 21_000),
    )
    ratio_b = pts_b[-1].ratio
    ok_b = abs(ratio_b - 1.0) <= 0.05
    # (c) L=1 with K=0: ratio at n=1e6 below 0.05
    pts_c = mse_ratio_experiment(
        ParamSequence.parse("n^-0.6", "n^-0.6"), 1.0, 0.8,
        [10**4, 10**5, 10**6], reps, RandomStream(SEED, 22_000),
    )
    ratio_c = pts_c[-1].ratio
    ok_c = ratio_c < 0.05
    _report(
        5,
        ok_a and ok_b and ok_c,
        f"(a) ratio {ratio_a:.4f} vs 16/9 within 15%; (b) ratio {ratio_b:.4f} vs 1 within 5%; "
        f"(c) ratio {ratio_c:.4f} < 0.05",
    )


RATE_GRID = [10**2, 10**3, 10**4, 10**5, 10**6]


def test_criterion_06_rate_separation():
    exp_origin = rate_exponent("product", ParamPoint(0.0, 0.0), RATE_GRID, 3000, RandomStream(SEED, 30_000))
    exp_offaxis = rate_exponent("product", ParamPoint(1.0, 0.0), RATE_GRID, 3000, RandomStream(SEED, 31_000))
    ok = abs(exp_origin - 1.0) <= 0.1 and abs(exp_offaxis - 0.5) <= 0.1
    _report(
        6,
        ok,
        f"product error-sd rate exponents: {exp_origin:.3f} at (0,0) (want 1.0+-0.1), "
        f"{exp_offaxis:.3f} at (1,0) (want 0.5+-0.1)",
    )


@pytest.mark.parametrize("gamma, beta, want, tol", [(0.0, 0.0, 1.0, 1e-12), (1.0, 0.0, 0.5, 1e-3)])
def test_criterion_06_closed_form_rates(gamma, beta, want, tol):
    # The exponent criterion 06 estimates, from the product's exact error sd on its grid.
    sd = [math.sqrt(mse_product_closed(gamma, beta, n)) for n in RATE_GRID]
    exponent = -np.polyfit(np.log(RATE_GRID), np.log(sd), 1)[0]
    assert abs(exponent - want) <= tol


def test_criterion_07_joint_significance_calibration():
    n, reps = 1_000, 100_000
    sd = 1.0 / math.sqrt(n)

    stream = RandomStream(SEED, 40_000)
    g = stream.generator.normal(0.0, sd, size=reps)
    b = stream.generator.normal(0.0, sd, size=reps)
    pj = np.maximum(coord_pvalue(g, 1.0, n), coord_pvalue(b, 1.0, n))
    rate_00 = float((pj <= 0.05).mean())
    se_00 = math.sqrt(0.0025 * 0.9975 / reps)

    stream = RandomStream(SEED, 41_000)
    g = stream.generator.normal(1.0, sd, size=reps)
    b = stream.generator.normal(0.0, sd, size=reps)
    pj = np.maximum(coord_pvalue(g, 1.0, n), coord_pvalue(b, 1.0, n))
    rate_10 = float((pj <= 0.05).mean())
    se_10 = math.sqrt(0.05 * 0.95 / reps)

    ok = abs(rate_00 - 0.0025) <= 3.0 * se_00 and abs(rate_10 - 0.05) <= 3.0 * se_10
    _report(
        7,
        ok,
        f"P(p_joint <= 0.05) = {rate_00:.5f} at (0,0) (want 0.0025 +- {3*se_00:.5f}) and "
        f"{rate_10:.5f} at (1,0) (want 0.05 +- {3*se_10:.5f})",
    )


def test_criterion_08_sobel_irregularity():
    n, reps = 10_000, 100_000
    crit = ks_critical_value(reps, reps, level=0.01)
    d_separated = ks_distance(*sobel_samples(ParamPoint(0, 0), ParamPoint(3, 0), n, reps, RandomStream(SEED, 50_000)))
    d_same = ks_distance(*sobel_samples(ParamPoint(0, 0), ParamPoint(0, 0), n, reps, RandomStream(SEED, 51_000)))
    ok = d_separated > crit and d_same <= crit
    _report(
        8,
        ok,
        f"KS distance {d_separated:.4f} for directions (0,0) vs (3,0) exceeds the 99% critical "
        f"value {crit:.5f}; identical directions give {d_same:.4f} below it",
    )


def test_criterion_09_distribution_kernel_oracles():
    # Normal half: coord_pvalue's two-sided erfc tail against twice the quadrature upper tail.
    xs = np.linspace(-7.0, 7.0, 1000)
    oracle = np.empty_like(xs)
    for i, x in enumerate(xs):
        tail, _ = integrate.quad(
            lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi), 0.0, abs(x),
            epsabs=1e-13, limit=200,
        )
        oracle[i] = 2.0 * (0.5 - tail)
    worst_normal = float(np.max(np.abs(coord_pvalue(xs, 1.0, 1) - oracle)))

    # Chi-square half: at gamma_hat = sqrt(w), beta_hat = 0 and unit scales the
    # chisq2 rule filters when its exp(-w/2) is >= the threshold.  It filters
    # at survivor - tol and keeps at survivor + tol exactly when that value
    # lies within tol of the quadrature survivor function.  ChiSquarePValue
    # refuses a threshold >= 1, and exp(-w/2) <= 1 is below it anyway.
    ws = np.linspace(0.0, 40.0, 1000)
    tol_chi = 1e-10
    wrong = 0
    for w in ws:
        cdf, _ = integrate.quad(lambda t: 0.5 * math.exp(-t / 2.0), 0.0, w, epsabs=1e-13, limit=200)
        survivor = 1.0 - cdf
        decide = lambda threshold: bool(filter_mask(ChiSquarePValue(threshold), math.sqrt(w), 0.0, 1.0, 1.0, 1))
        wrong += not decide(survivor - tol_chi) or (survivor + tol_chi < 1.0 and decide(survivor + tol_chi))

    ok = worst_normal < 1e-8 and wrong == 0
    _report(
        9,
        ok,
        f"vs quadrature oracles on 1000-point grids: two-sided normal p-value max err {worst_normal:.2e} "
        f"(need < 1e-8); chi-square(2) survivor value off by >= {tol_chi:g} at {wrong} points (need 0)",
    )


def test_criterion_10_thread_determinism(tmp_path):
    outs = {}
    for threads in (1, 4, 16):
        out = str(tmp_path / f"t{threads}.csv")
        code = cli_main(
            [
                "simulate", "--scenario", "config1", "--methods", "all",
                "--seed", str(SEED), "--reps", "40", "--threads", str(threads),
                "--out", out,
            ]
        )
        assert code == 0
        outs[threads] = open(out, "rb").read()
    ok = outs[1] == outs[4] == outs[16]
    _report(
        10,
        ok,
        f"simulate output byte-identical across 1/4/16 threads ({len(outs[1])} bytes)",
    )
