import copy
import csv
import functools
import importlib
import json
import math
import operator
import os
import re
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import twostage
from twostage.cli import main


def run_cli(*argv):
    return main(list(argv))


def _csv_report(path):
    """A CSV report's ``# key=value`` block as a dict of text, and its rows as lists of cells."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    return meta, list(csv.reader(line for line in lines if not line.startswith("#")))[1:]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestSimulateCommand:
    def test_standard_menu_row_count(self, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        code = run_cli(
            "simulate", "--scenario", "config2", "--methods", "all",
            "--seed", "7", "--reps", "40", "--out", out,
        )
        assert code == 0
        _, rows = _csv_report(out)
        # no-filter plus the five filtration methods
        assert [row[0] for row in rows] == [
            "nofilter", "minp", "chisq2", "prod-0.8", "prod-0.9", "prod-1.0",
        ]
        body = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
        assert len(body) == 7  # header + 6 method rows

    def test_repeat_invocation_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["simulate", "--scenario", "config1", "--seed", "11", "--reps", "25", "--threads", "2"]
        assert run_cli(*args, "--out", a) == 0
        assert run_cli(*args, "--out", b) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_zero_reps_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--scenario", "config1", "--reps", "0", "--seed", "1")
        assert exc.value.code == 2

    def test_negative_prior_variance_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        row = {"gamma": {"normal": {"mean": "0", "variance": "-1"}}, "beta": "3", "proportion": 1}
        scenario = json.dumps({"name": "neg", "rows": [row]})
        assert run_cli("simulate", "--scenario", scenario, "--reps", "3", "--seed", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scenario: rows[0].gamma.normal.variance is -1.0 at n = 200; a variance must be finite and >= 0\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_zero_prior_variance_runs_as_a_null_row(self, tmp_path):
        # A mean of 0 with variance exactly 0 is a zero coordinate, so the row is null and power is NaN.
        row = {"gamma": {"normal": {"mean": "0", "variance": "0"}}, "beta": "3", "proportion": 1}
        out = str(tmp_path / "zero.csv")
        scenario = json.dumps({"name": "zero", "rows": [row]})
        assert run_cli("simulate", "--scenario", scenario, "--reps", "3", "--seed", "1", "--out", out) == 0
        lines = [line for line in Path(out).read_text().splitlines() if not line.startswith("#")]
        assert {row["power"] for row in csv.DictReader(lines)} == {"nan"}

    def test_unknown_scenario_exit_2(self):
        assert run_cli("simulate", "--scenario", "config7", "--seed", "1", "--reps", "2") == 2

    def test_config_file_with_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "config1", "repz": 3}))
        assert run_cli("simulate", "--config", str(cfg), "--seed", "1") == 2

    def test_inline_scenario_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": {
                        "name": "tiny",
                        "rows": [
                            {"gamma": "0", "beta": "0", "proportion": 0.8},
                            {"gamma": "3n^-0.5", "beta": "3n^-0.5", "proportion": 0.2},
                        ],
                    },
                    "methods": ["nofilter", {"rule": {"kind": "product", "c": 2.0, "delta": 0.9}, "id": "custom"}],
                    "m": 30,
                    "reps": 10,
                    "n": 100,
                    "seed": 5,
                }
            )
        )
        out = str(tmp_path / "r.json")
        assert run_cli("simulate", "--config", str(cfg), "--out", out, "--format", "json") == 0
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert [m["method_id"] for m in payload["methods"]] == ["nofilter", "custom"]
        assert payload["meta"]["scenario"] == "tiny"

    def test_filtration_aware_without_p0_takes_the_exact_p0(self, tmp_path):
        rule = {"kind": "product", "c": 2.0, "delta": 0.9}
        p0 = twostage.ProductThreshold(2.0, 0.9).p0(1.0, 1.0, 150)
        adjustments = [{"kind": "filtration_aware"}, {"kind": "filtration_aware", "p0": p0}, None]
        reports = []
        for i, adjustment in enumerate(adjustments):
            out = tmp_path / f"r{i}.csv"
            methods = [{"rule": rule, "adjustment": adjustment, "id": "prod"}]
            cfg = {"scenario": "config2", "n": 150, "reps": 20, "seed": 4, "methods": methods, "out": str(out)}
            assert _run_config(tmp_path, "simulate", cfg) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] != reports[2]

    def test_svg_output(self, tmp_path):
        out = str(tmp_path / "r.csv")
        svg = str(tmp_path / "r.svg")
        assert run_cli(
            "simulate", "--scenario", "config1", "--seed", "3", "--reps", "10",
            "--out", out, "--svg", svg,
        ) == 0
        assert open(svg).read().startswith("<svg")


class TestMseRatioCommand:
    def test_preset_run(self, tmp_path, capsys):
        out = str(tmp_path / "mr.csv")
        code = run_cli(
            "mse-ratio", "--preset", "vanishing-filter", "--reps", "500", "--seed", "2",
            "--n-grid", "1000,10000,100000", "--out", out,
        )
        assert code == 0
        tail = capsys.readouterr().out
        assert "ratio" in tail
        rows = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
        assert rows[0] == "n,ratio,mc_se,k_at_n,filter_freq"
        assert len(rows) == 4

    def test_unknown_preset(self):
        assert run_cli("mse-ratio", "--preset", "fig9", "--seed", "1") == 2

    def test_inline_sequence_with_svg(self, tmp_path):
        out = str(tmp_path / "mr.csv")
        svg = str(tmp_path / "mr.svg")
        code = run_cli(
            "mse-ratio", "--gamma", "2n^-0.5", "--beta", "2n^-0.5", "--c", "4", "--delta", "0.7",
            "--n-grid", "1000,10000,100000", "--reps", "500", "--seed", "2",
            "--out", out, "--svg", svg,
        )
        assert code == 0
        assert "<svg" in open(svg).read()

    def test_missing_sequence_parts(self):
        assert run_cli("mse-ratio", "--gamma", "n^-0.5", "--seed", "1") == 2

    def test_empty_n_grid(self):
        assert run_cli("mse-ratio", "--preset", "vanishing-filter", "--n-grid", "", "--seed", "1") == 2

    def test_reports_the_requested_sample_sizes(self, tmp_path, capsys):
        out = tmp_path / "mr.json"
        grid = [100, 1000, 10**24]
        code = run_cli(
            "mse-ratio", "--preset", "k-4over3", "--reps", "100", "--seed", "1",
            "--n-grid", ",".join(map(str, grid)), "--format", "json", "--out", str(out),
        )
        assert code == 0
        assert [p["n"] for p in json.loads(out.read_text(), parse_constant=_reject_constant)["points"]] == grid
        assert f"n={10**24} ratio=" in capsys.readouterr().out

    # A c or delta <= 0 filters nothing, or everything, at every n; mse-ratio
    # refuses it with classify's error.
    @pytest.mark.parametrize("c, delta", [("-1", "0.7"), ("0", "0.7"), ("1", "-2"), ("1", "0")])
    def test_nonpositive_c_or_delta_exit_2(self, tmp_path, capsys, c, delta):
        out = tmp_path / "mr.csv"
        argv = ["--gamma", "n^-0.5", "--beta", "n^-0.5", "--c", c, "--delta", delta]
        assert run_cli("mse-ratio", *argv, "--reps", "100", "--seed", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: c and delta must be positive\n"
        assert not out.exists()
        assert run_cli("classify", *argv) == 2
        assert capsys.readouterr().err == "error: c and delta must be positive\n"

    # The plain MSE underflows at a huge n, and overflows at a huge parameter.
    # A warning would be printed before the error line, so warnings fail the test.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "settings, n",
        [
            ({"preset": "k-4over3", "n_grid": [100, 1000, 10**300]}, 10**300),
            ({"gamma": {"offset": 1e200}, "beta": {"offset": 1e200}, "c": 1, "delta": 0.5}, 100),
        ],
    )
    def test_plain_mse_out_of_range_exit_5(self, tmp_path, capsys, settings, n):
        cfg, out = tmp_path / "cfg.json", tmp_path / "mr.json"
        cfg.write_text(json.dumps({"n_grid": [100, 1000, 10_000], **settings, "reps": 100, "seed": 1, "format": "json"}))
        assert run_cli("mse-ratio", "--config", str(cfg), "--out", str(out)) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error: at n={n} ") and "Traceback" not in err
        assert not out.exists()

    # A plain MSE near 1e158 is in range, and the exact ratio squares nothing
    # twice: gamma_hat near 1e80 makes the band around 0 vanish.
    @pytest.mark.filterwarnings("error")
    def test_huge_offset_exit_0(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "mr.csv"
        settings = {"gamma": {"offset": 1e80}, "beta": "0", "c": 1, "delta": 0.5, "n_grid": [100, 1000, 10_000]}
        cfg.write_text(json.dumps({**settings, "reps": 100, "seed": 1}))
        assert run_cli("mse-ratio", "--config", str(cfg), "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        _, rows = _csv_report(out)
        assert [row[0] for row in rows] == ["100", "1000", "10000"]
        for row in rows:
            assert abs(float(row[1]) - 1.0) < 1e-12 and float(row[4]) < 1e-12

    # Inputs at the edges of the float range: each prints a probability and a
    # finite, non-negative ratio per cell, and nothing on stderr.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "override",
        [
            ["--gamma", "0", "--beta", "0"],
            ["--c", "1e308"],
            ["--delta", "1e-300"],
            ["--c", "1e-300", "--delta", "5"],
            ["--n-grid", "1,2,3"],
        ],
        ids=["null-pair", "huge-c", "tiny-delta", "tiny-threshold", "smallest-n"],
    )
    def test_float_range_edges_exit_0(self, tmp_path, capsys, override):
        out = tmp_path / "mr.csv"
        base = {"--gamma": "2n^-0.5", "--beta": "2n^-0.5", "--c": "4", "--delta": "0.7"}
        base.update(zip(override[::2], override[1::2]))
        assert run_cli("mse-ratio", *(item for pair in base.items() for item in pair), "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        _, rows = _csv_report(out)
        for row in rows:
            ratio, mc_se, freq = float(row[1]), float(row[2]), float(row[4])
            assert 0.0 <= ratio < math.inf and mc_se == 0.0 and 0.0 <= freq <= 1.0

    # The ratio is exact: reps and seed are range-checked, and change no byte.
    def test_reps_and_seed_are_ignored(self, tmp_path, capsys):
        argv = ["mse-ratio", "--preset", "k-4over3", "--n-grid", "100,1000,10000"]
        outputs = []
        for extra in ([], ["--reps", "100"], ["--seed", "7"], ["--reps", _TOO_MANY, "--seed", "1"]):
            out = tmp_path / "mr.csv"
            assert run_cli(*argv, *extra, "--out", str(out)) == 0
            outputs.append((capsys.readouterr(), out.read_bytes()))
        assert all(output == outputs[0] for output in outputs)
        assert b"seed" not in outputs[0][1] and b"reps" not in outputs[0][1]
        assert outputs[0][0].out.splitlines()[0] == f"wrote {tmp_path / 'mr.csv'} (3 sample sizes)"
        for extra in (["--reps", "0"], ["--seed", "-1"], ["--reps", "1" + "0" * 20]):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv, *extra)
            assert exc.value.code == 2
        assert _run_config(tmp_path, "mse-ratio", dict(_BASE["mse-ratio"], reps=0)) == 2

    def test_svg_band_has_zero_width(self, tmp_path):
        svg = tmp_path / "mr.svg"
        argv = ["mse-ratio", "--preset", "k-4over3", "--out", str(tmp_path / "mr.csv"), "--svg", str(svg)]
        assert run_cli(*argv) == 0
        root = ET.parse(svg).getroot()
        [band] = [el for el in root.iter() if el.tag.endswith("polygon")]
        points = band.get("points").split()
        assert len(points) == 10 and points[:5] == points[5:][::-1]


class TestClassifyCommand:
    def test_much_more_case(self, capsys):
        code = run_cli("classify", "--gamma", "n^-0.6", "--beta", "n^-0.6", "--c", "1", "--delta", "0.8")
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["L_region"] == "one"
        assert payload["K"] == 0.0
        assert payload["efficiency_class"] == "much_more"

    def test_constant_sequence_zero_region(self, capsys):
        code = run_cli("classify", "--gamma", "0.7", "--beta", "0.7", "--c", "1", "--delta", "0.8")
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["L_region"] == "zero"
        assert payload["K"] == "inf"
        assert payload["efficiency_class"] == "equivalent"

    def test_n_grid_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("classify", "--gamma", "n^-0.6", "--beta", "n^-0.6", "--c", "1", "--delta", "0.8", "--n-grid", "100,1000,10000")
        assert exc.value.code == 2
        assert "unrecognized arguments: --n-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["n^0.5", "n^-1/0", "1e308n^-0.5+1e308n^-0.5"])
    def test_bad_sequence_exit_2(self, capsys, gamma):
        assert run_cli("classify", "--gamma", gamma, "--beta", "0", "--c", "1", "--delta", "0.8") == 2
        assert capsys.readouterr().err.startswith("error: gamma: ")

    def test_hyperprior_only_in_scenario_rows_exit_2(self, capsys):
        gamma = json.dumps({"normal": {"mean": "0", "variance": "1"}})
        assert run_cli("classify", "--gamma", gamma, "--beta", "0", "--c", "1", "--delta", "0.8") == 2
        assert capsys.readouterr().err.startswith("error: unknown key(s) ['normal'] in gamma")


class TestFitCommand:
    def _write_synthetic(self, tmp_path, noise=0.0, n=300):
        rng = np.random.default_rng(8)
        x1 = rng.normal(size=n)
        a = rng.normal(size=n)
        # mediator noise floored at a sliver to keep the outcome design full rank
        m = 0.5 + 0.2 * x1 + 0.8 * a + max(noise, 1e-8) * rng.normal(size=n)
        y = 1.0 - 0.1 * x1 + 0.2 * a + 0.5 * m + noise * rng.normal(size=n)
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            fh.write("x1,a,m,y\n")
            for row in zip(x1, a, m, y):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return str(path)

    def test_zero_noise_exact(self, tmp_path, capsys):
        path = self._write_synthetic(tmp_path, noise=0.0)
        assert run_cli("fit", path) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert abs(payload["gamma_hat"] - 0.8) < 1e-8
        assert abs(payload["beta_hat"] - 0.5) < 1e-8

    def test_noisy_fit_strong_rejection(self, tmp_path, capsys):
        path = self._write_synthetic(tmp_path, noise=1.0, n=10_000)
        assert run_cli("fit", path) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert abs(payload["sobel_z"]) > 10.0
        assert payload["joint_pvalue"] < 1e-6

    def test_missing_column_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1,2\n")
        assert run_cli("fit", str(path)) == 2
        assert "'m'" in capsys.readouterr().err

    # A nan cell used to end in "rank deficient" (exit 5), and an inf cell in
    # a numpy warning on stderr; both now fail at the file's line, exit 2.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_exit_2(self, tmp_path, capsys, cell):
        path = tmp_path / "data.csv"
        lines = Path(self._write_synthetic(tmp_path, noise=1.0)).read_text().splitlines()
        lines[7] = ",".join([cell] + lines[7].split(",")[1:])
        path.write_text("\n".join(lines[:5]) + "\n\n" + "\n".join(lines[5:]) + "\n")
        assert run_cli("fit", str(path)) == 2
        assert capsys.readouterr().err == f"error: line 9: non-finite field '{cell}'\n"

    def test_outcome_near_float_range_fits(self, tmp_path, capsys):
        # The outcome's residuals, about 1e289, square past float range; the
        # fit then sums squares of residuals scaled by the largest.  Scaling y
        # by 2^-1000 is exact, so that fit's scale, scaled back, is the oracle.
        rng = np.random.default_rng(1)
        a = 1e-5 * rng.standard_normal(50)
        m = 1e5 * a + 0.1 * rng.standard_normal(50)
        y = 1e305 * m + 1e150 * rng.standard_normal(50)
        payloads = []
        for name, outcome in (("big.csv", y), ("scaled.csv", np.ldexp(y, -1000))):
            lines = ["a,m,y", *(f"{u:.17g},{v:.17g},{w:.17g}" for u, v, w in zip(a, m, outcome))]
            (tmp_path / name).write_text("\n".join(lines) + "\n")
            assert run_cli("fit", str(tmp_path / name)) == 0
            payloads.append(json.loads(capsys.readouterr().out, parse_constant=pytest.fail))
        big, scaled = payloads
        assert big["product"] == "inf"  # about 1e5 * 1e305, as strict JSON
        assert big["sigma_gamma"] == scaled["sigma_gamma"]
        assert big["sigma_beta"] == pytest.approx(math.ldexp(scaled["sigma_beta"], 1000), rel=1e-12)

    def test_missing_file_exit_3(self, tmp_path):
        assert run_cli("fit", str(tmp_path / "nope.csv")) == 3

    def test_singular_design_exit_5(self, tmp_path):
        path = tmp_path / "sing.csv"
        lines = ["x1,a,m,y"]
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = float(rng.normal())
            m, y = float(rng.normal()), float(rng.normal())
            lines.append(f"{a!r},{a!r},{m!r},{y!r}")  # x1 == a
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("fit", str(path)) == 5

    def test_lapack_error_exit_5(self, tmp_path, capsys, monkeypatch):
        def qr(design):
            raise np.linalg.LinAlgError("QR did not converge")

        monkeypatch.setattr(np.linalg, "qr", qr)
        assert run_cli("fit", self._write_synthetic(tmp_path, noise=1.0)) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: QR did not converge\n"


_FWER_BOUND_KEYS = ["rule", "scenario", "p0", "q_max", "survivor_bound", "fwer", "mean_F"]


class TestFwerBoundCommand:
    def test_nofilter_reduces_to_bonferroni(self, tmp_path, capsys):
        # Without a filter F = m, and the hypotheses are rejected independently
        # at alpha/m: P(V = 0) is a product over the null hypotheses.
        out = tmp_path / "bound.json"
        assert run_cli("fwer-bound", "--scenario", "config1", "--rule", "nofilter", "--out", str(out)) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        assert json.loads(out.read_text(), parse_constant=_reject_constant) == payload
        assert list(payload) == _FWER_BOUND_KEYS
        assert (payload["p0"], payload["mean_F"]) == (1.0, 200.0)
        level = 0.05 / 200
        zeta = norm.isf(level / 2)
        # config1's null rows: 130 double nulls and 60 with gamma = 3 n^-1/2 (3 in z units).
        single = norm.sf(zeta - 3.0) + norm.cdf(-zeta - 3.0)
        assert payload["q_max"] == pytest.approx(single * level, rel=1e-12)
        none = (1.0 - level * level) ** 130 * (1.0 - single * level) ** 60
        assert payload["fwer"] == pytest.approx(1.0 - none, rel=1e-12)
        assert payload["survivor_bound"] == pytest.approx(1.0 - (1.0 - payload["q_max"]) ** 200, rel=1e-12)
        assert payload["fwer"] <= payload["survivor_bound"] <= 200 * payload["q_max"] <= 0.05

    def test_product_rule_bound_consistency(self, capsys):
        inline = '{"kind": "product", "c": 2.0, "delta": 0.9}'
        assert run_cli("fwer-bound", "--scenario", "config2", "--rule", inline) == 0
        stdout = capsys.readouterr().out
        assert run_cli("fwer-bound", "--scenario", "config2", "--rule", "prod-0.9") == 0
        assert capsys.readouterr().out == stdout
        payload = json.loads(stdout)
        assert 0.0 < payload["p0"] < 1.0
        # The exact FWER lies below the survivor bound, which here lies above alpha.
        assert 0.0 < payload["fwer"] <= payload["survivor_bound"]
        assert (round(payload["fwer"], 4), round(payload["survivor_bound"], 4)) == (0.0463, 0.0758)

    def test_row_far_from_zero_keeps_its_digits(self, capsys):
        # At n = 1e24, beta_hat lies 1e12 sd from 0, where its ulp is 1e-4 sd.
        # 200 (1 - P(|gamma_hat beta_hat| < 2 n^-0.9)) by a 30-digit mpmath integral: 199.99999991983218.
        row = '{"rows": [{"gamma": "0", "beta": "1", "proportion": 1}]}'
        assert run_cli("fwer-bound", "--scenario", row, "--rule", "prod-0.9", "--n", str(10**24)) == 0
        mean_f = json.loads(capsys.readouterr().out)["mean_F"]
        assert mean_f == pytest.approx(199.99999991983218, rel=1e-14)

    @pytest.mark.parametrize("c", [60, 100])
    def test_double_null_mean_f_is_m_p0_at_wide_bands(self, capsys, c):
        # Every hypothesis is at the double null, so F has mean m p0, with p0 = 4.3e-46 or 1.0e-75.
        row = '{"rows": [{"gamma": "0", "beta": "0", "proportion": 1}]}'
        rule = json.dumps({"kind": "product", "c": c, "delta": 0.9})
        assert run_cli("fwer-bound", "--scenario", row, "--rule", rule, "--m", "200") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean_F"] == pytest.approx(200 * payload["p0"], rel=1e-13, abs=0)

    def test_seed_and_reps_are_ignored(self, tmp_path, capsys):
        runs = []
        for extra in (["--seed", "1"], ["--seed", "7", "--reps", "3"], ["--reps", "100000000000000", "--p0-reps", "5"]):
            out = tmp_path / "bound.json"
            assert run_cli("fwer-bound", "--scenario", "hierarchical", "--rule", "minp", *extra, "--out", str(out)) == 0
            runs.append((capsys.readouterr().out, out.read_bytes()))
        assert runs[1:] == runs[:1] * 2
        for bad in (["--seed", "-1"], ["--reps", "0"]):
            with pytest.raises(SystemExit) as exc:
                run_cli("fwer-bound", "--scenario", "hierarchical", "--rule", "minp", *bad)
            assert exc.value.code == 2

    @pytest.mark.parametrize("rule, p0", [("nofilter", 1.0), ("minp", 0.0004 * (2 - 0.0004)), ("chisq2", 0.001)])
    def test_p0_is_the_closed_form_at_any_seed(self, capsys, rule, p0):
        for seed in ("1", "2"):
            argv = ["--scenario", "hierarchical", "--rule", rule, "--reps", "5", "--m", "20", "--seed", seed]
            assert run_cli("fwer-bound", *argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["p0"] == p0
            assert not {"adjusted_threshold_factor", "p0_se"} & payload.keys()  # p0 is reported once

    # Each structured flag reads text that opens with { or [ as JSON.
    @pytest.mark.parametrize(
        "argv",
        [
            ["fwer-bound", "--scenario", "config1", "--rule"],
            ["fwer-bound", "--rule", "minp", "--scenario"],
            ["simulate", "--scenario", "config1", "--methods"],
            ["classify", "--beta", "0", "--c", "1", "--delta", "0.8", "--gamma"],
            ["mse-ratio", "--gamma", "0", "--c", "1", "--delta", "0.8", "--beta"],
        ],
    )
    def test_structured_flag_json_error_names_flag_exit_2(self, capsys, argv):
        flag = argv[-1]
        for text in ("{bad", "[1,"):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv, text, "--seed", "1")
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"error: argument {flag}: " in err and "Traceback" not in err

    def test_structured_flags_read_json(self, tmp_path, capsys):
        scenario = {"name": "flagged", "rows": [{"proportion": 1.0}]}
        methods = [{"rule": {"kind": "product", "c": 2.0, "delta": 0.9}, "id": "custom"}]
        out = tmp_path / "r.csv"
        argv = ["--scenario", json.dumps(scenario), "--methods", json.dumps(methods), "--reps", "3", "--m", "10"]
        assert run_cli("simulate", *argv, "--seed", "1", "--out", str(out)) == 0
        meta, rows = _csv_report(out)
        assert (meta["scenario"], [row[0] for row in rows]) == ("flagged", ["custom"])
        gamma = json.dumps({"offset": 0.0, "terms": [[1.0, 0.6]]})
        assert run_cli("classify", "--gamma", gamma, "--beta", "n^-0.6", "--c", "1", "--delta", "0.8") == 0
        assert capsys.readouterr().out.endswith(_CLASSIFY_LINE + "\n")

    def test_p0_reps_is_ignored(self, capsys):
        argv = ["fwer-bound", "--scenario", "config2", "--rule", "prod-0.9", "--reps", "5", "--seed", "3"]
        assert run_cli(*argv) == 0
        without = capsys.readouterr().out
        assert run_cli(*argv, "--p0-reps", "10") == 0
        assert capsys.readouterr().out == without

    def test_requires_rule(self):
        assert run_cli("fwer-bound", "--scenario", "config1", "--seed", "1") == 2

    def test_unwritable_out_prints_no_result(self, tmp_path, capsys):
        code = run_cli(
            "fwer-bound", "--scenario", "config1", "--rule", "minp",
            "--reps", "5", "--m", "20", "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestSeedHandling:
    def test_env_seed_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TWOSTAGE_SEED", "321")
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli("simulate", "--scenario", "config1", "--reps", "8", "--out", a) == 0
        monkeypatch.delenv("TWOSTAGE_SEED")
        assert run_cli("simulate", "--scenario", "config1", "--reps", "8", "--seed", "321", "--out", b) == 0
        assert open(a).read() == open(b).read()

    @pytest.mark.parametrize("seed", ["abc", -5, 1.5, True, 2**64])
    @pytest.mark.parametrize("command", ["simulate", "fwer-bound"])
    def test_bad_config_seed_exit_2(self, tmp_path, capsys, command, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "config1", "reps": 2, "seed": seed}))
        extra = ["--rule", "nofilter"] if command == "fwer-bound" else []
        assert run_cli(command, "--config", str(cfg), *extra, "--out", str(tmp_path / "r.csv")) == 2
        assert capsys.readouterr().err.startswith("error: seed must be")

    @pytest.mark.parametrize("env", ["abc", "-3", "1.5", str(2**64 + 3)])
    def test_bad_env_seed_exit_2(self, tmp_path, capsys, monkeypatch, env):
        monkeypatch.setenv("TWOSTAGE_SEED", env)
        assert run_cli("simulate", "--scenario", "config1", "--reps", "2", "--out", str(tmp_path / "r.csv")) == 2
        assert capsys.readouterr().err.startswith("error: TWOSTAGE_SEED must be")

    def test_config_seed_matches_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "config1", "reps": 3, "seed": 321}))
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli("simulate", "--config", str(cfg), "--out", a) == 0
        assert run_cli("simulate", "--scenario", "config1", "--reps", "3", "--seed", "321", "--out", b) == 0
        assert open(a).read() == open(b).read()

    @pytest.mark.parametrize("threads", [0, "many", 2.5])
    def test_bad_config_threads_exit_2(self, tmp_path, threads):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "config1", "reps": 2, "seed": 1, "threads": threads}))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")) == 2

    @pytest.mark.parametrize(
        "command, key, value",
        [("simulate", "pi", 5), ("simulate", "pi", ["a", 0.5, 0.5])]
        + [
            (command, key, value)
            for command in ("simulate", "fwer-bound")
            for key, value in [("reps", "abc"), ("m", 2.5), ("n", [200]), ("alpha", "x"),
                               ("sigma", [1.0]), ("sigma", float("nan"))]
        ]
        + [("simulate", "out", 5), ("simulate", "out", ["a"]), ("simulate", "svg", 5),
           ("simulate", "format", "xml"), ("fwer-bound", "out", 5), ("fwer-bound", "p0_reps", 0)],
    )
    def test_bad_config_type_exit_2(self, tmp_path, capsys, command, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "hierarchical", "reps": 2, "seed": 1, key: value}))
        extra = ["--rule", "nofilter"] if command == "fwer-bound" else []
        assert run_cli(command, "--config", str(path), *extra, "--out", str(tmp_path / "r.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be") and "Traceback" not in err

    def test_bad_inline_scenario_types_exit_2(self, tmp_path, capsys):
        row = {"proportion": 1.0}
        for scenario in ({"rows": [row], "m": [3]}, {"rows": [dict(row, proportion="1")]}):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"scenario": scenario, "reps": 2, "seed": 1}))
            assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "r.csv")) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_fwer_bound_config_dimensions_match_flags(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "config1", "reps": 4, "m": 30, "n": 50, "seed": 2}))
        flags = ["--rule", "prod-0.9"]
        assert run_cli("fwer-bound", "--config", str(path), *flags) == 0
        from_config = capsys.readouterr().out
        argv = ["--scenario", "config1", "--reps", "4", "--m", "30", "--n", "50", "--seed", "2"]
        assert run_cli("fwer-bound", *argv, *flags) == 0
        assert from_config == capsys.readouterr().out
        assert json.loads(from_config)["mean_F"] <= 30

    def test_drawn_seed_reported_in_the_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("TWOSTAGE_SEED", raising=False)
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--scenario", "config1", "--reps", "2", "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        seed = re.match(r"wrote \S+ \(6 methods, seed (\d+), reps 2\)\n", stdout).group(1)
        assert _csv_report(out)[0]["seed"] == seed
        report = out.read_bytes()
        assert run_cli("simulate", "--scenario", "config1", "--reps", "2", "--out", str(out), "--seed", seed) == 0
        assert (capsys.readouterr().out, out.read_bytes()) == (stdout, report)

    def test_seedless_fwer_bound_prints_one_json_line(self, capsys, monkeypatch):
        # fwer-bound draws nothing, so it neither draws nor prints a seed, and TWOSTAGE_SEED is not read.
        monkeypatch.delenv("TWOSTAGE_SEED", raising=False)
        argv = ["fwer-bound", "--scenario", "config1", "--rule", "minp", "--reps", "2", "--m", "20"]
        assert run_cli(*argv) == 0
        stdout = capsys.readouterr().out
        [line] = stdout.splitlines()
        assert list(json.loads(line)) == _FWER_BOUND_KEYS
        monkeypatch.setenv("TWOSTAGE_SEED", "abc")
        assert run_cli(*argv, "--seed", "12") == 0
        assert capsys.readouterr().out == stdout

    # A seed is drawn before the settings are checked; a run refused for its
    # settings never ran, so it offers no seed to reproduce it.
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scenario", "config7", "--reps", "2"],
            ["fwer-bound", "--scenario", "config7", "--rule", "minp"],
            ["mse-ratio", "--gamma", "n^-0.5", "--beta", "n^-0.5", "--c", "-1", "--delta", "0.7"],
        ],
    )
    def test_settings_error_after_a_drawn_seed_prints_no_stdout(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.delenv("TWOSTAGE_SEED", raising=False)
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


_SIZE = ["--m", "40", "--reps", "5", "--seed", "1"]
_CLASSIFY = ["classify", "--gamma", "n^-0.6", "--beta", "n^-0.6", "--c", "1", "--delta", "0.8"]
_MSE_RATIO = ["mse-ratio", "--preset", "k-4over3", "--n-grid", "100,1000,10000", "--reps", "200", "--seed", "1"]
_SIMULATE = ["simulate", "--scenario", "config2", "--methods", "all", *_SIZE]
# An inline scenario whose coordinates are sequence text, a sequence object and a hyperprior.
_SEQUENCE_ROWS = {
    "name": "seq",
    "rows": [
        {"gamma": "1+3n^-0.5", "beta": {"offset": 0.0, "terms": [[3.0, 0.5]]}, "proportion": 0.5},
        {"gamma": {"normal": {"mean": "n^-0.5", "variance": "n^-1"}}, "beta": "0", "proportion": 0.5},
    ],
}


def _run_python(code, **kwargs):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(twostage.__file__))
    env = kwargs.pop("env", os.environ)
    env = dict(env, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, **kwargs)


# Each case runs in a fresh interpreter: the subcommand's calls and the exit
# code each must give, then the modules that must still be absent.  Both
# stages decide on |z| against critical values, so no command needs scipy;
# importing the CLI, help, usage errors, classify, mse-ratio and fwer-bound
# need no numpy.  The package's records are NamedTuples, so no command loads
# dataclasses, and those that skip numpy skip inspect too.
_HEAVY = ["numpy", "dataclasses", "inspect"]
@pytest.mark.parametrize(
    "calls, code, forbidden",
    [
        ([], 0, ["numpy"]),
        ([["--help"]], 0, ["numpy"]),
        ([["classify", "--help"]], 0, ["numpy"]),
        ([["simulate", "--scenario", "config1", "--reps", "0"]], 2, ["numpy"]),
        ([["fit", "fit.csv"]], 0, ["simulate", "procedure", "asymptotics", "report", "svgplot", "dist", "numpy.random", "dataclasses"]),
        ([_CLASSIFY], 0, ["simulate", "procedure", "ingest", "report", "svgplot", "dist", "estimators", *_HEAVY]),
        ([_MSE_RATIO], 0, ["simulate", "procedure", "ingest", "svgplot", "dist", *_HEAVY]),
        ([[*_MSE_RATIO, "--svg", "r.svg"]], 0, ["simulate", "procedure", "ingest", "dist", *_HEAVY]),
        ([_SIMULATE], 0, ["ingest", "svgplot", "asymptotics", "dataclasses"]),
        ([[*_SIMULATE, "--svg", "r.svg"]], 0, ["ingest", "asymptotics", "dataclasses"]),
        ([["simulate", "--scenario", json.dumps(_SEQUENCE_ROWS), *_SIZE]], 0, ["ingest", "svgplot", "asymptotics", "dataclasses"]),
        (
            [
                ["fwer-bound", "--scenario", "hierarchical", "--rule", rule, *_SIZE, "--out", "b.json"]
                for rule in ("nofilter", "minp", "chisq2", "prod-0.9")
            ],
            0,
            ["ingest", "svgplot", "asymptotics", "dist", "simulate", "procedure", "estimators", *_HEAVY],
        ),
    ],
    ids=[
        "import", "help", "classify-help", "usage-error", "fit", "classify", "mse-ratio", "mse-ratio-svg",
        "simulate", "simulate-svg", "simulate-inline", "fwer-bound",
    ],
)
def test_each_command_loads_only_what_it_runs(tmp_path, calls, code, forbidden):
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(50, 3))
    (tmp_path / "fit.csv").write_text("a,m,y\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows))
    forbidden = [name if name in _HEAVY or name.startswith("numpy") else f"twostage.{name}" for name in forbidden]
    script = textwrap.dedent(
        f"""
        import sys
        from twostage.cli import main
        for argv in {calls!r}:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code == {code!r}, (argv, code)
        loaded = sorted(m for m in sys.modules if m in {forbidden!r} or m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
        """
    )
    run = _run_python(script, cwd=tmp_path)
    assert run.returncode == 0, run.stderr


# classify's exact line at defaults, also checked by the benchmark's quick-cmds workload.
_CLASSIFY_LINE = (
    '{"L_region": "one", "K": 0.0, "efficiency_class": "much_more", '
    '"A_diagnostics": {"A": 0.0, "mean_term": 0.0, "sd_term": 0.0}}'
)


def test_classify_runs_without_numpy():
    script = textwrap.dedent(
        f"""
        import sys
        sys.modules["numpy"] = None  # any import of numpy now raises ImportError
        from twostage.cli import main
        sys.exit(main({_CLASSIFY!r}))
        """
    )
    run = _run_python(script)
    assert (run.returncode, run.stdout, run.stderr) == (0, _CLASSIFY_LINE + "\n", "")


def test_fwer_bound_runs_without_numpy(tmp_path):
    argv = ["fwer-bound", "--scenario", "hierarchical", "--rule", "prod-0.9", "--seed", "1", "--out", "bound.json"]
    script = textwrap.dedent(
        f"""
        import sys
        sys.modules["numpy"] = None  # any import of numpy now raises ImportError
        from twostage.cli import main
        sys.exit(main({argv!r}))
        """
    )
    run = _run_python(script, cwd=tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    [line, wrote] = run.stdout.splitlines()
    assert json.loads(line) == json.loads((tmp_path / "bound.json").read_text())
    assert wrote == "wrote bound.json"


def test_mse_ratio_runs_without_numpy(tmp_path):
    argv = ["mse-ratio", "--preset", "k-4over3", "--seed", "1", "--out", "ratio.csv"]
    script = textwrap.dedent(
        f"""
        import sys
        sys.modules["numpy"] = None  # any import of numpy now raises ImportError
        from twostage.cli import main
        sys.exit(main({argv!r}))
        """
    )
    run = _run_python(script, cwd=tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    lines = (tmp_path / "ratio.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert rows[0] == ["n", "ratio", "mc_se", "k_at_n", "filter_freq"]
    assert [row[0] for row in rows[1:]] == ["100", "1000", "10000", "100000", "1000000"]
    assert all(abs(float(row[3]) - 4.0 / 3.0) < 1e-12 for row in rows[1:])


def _classify_line(region, k, efficiency, a, mean, sd):
    return json.dumps(
        {"L_region": region, "K": k, "efficiency_class": efficiency, "A_diagnostics": {"A": a, "mean_term": mean, "sd_term": sd}}
    ) + "\n"


# Inputs whose terms overflow a float at finite n: the limits are exact, and
# nothing but the result line may be printed.
@pytest.mark.parametrize(
    "argv, out",
    [
        (["--gamma", "1e308n^-0.5", "--beta", "1", "--c", "1", "--delta", "0.8"],
         _classify_line("zero", 1e308, "equivalent", "inf", "inf", "inf")),
        (["--gamma", "1e200", "--beta", "1e200", "--c", "1", "--delta", "0.8"],
         _classify_line("zero", "inf", "equivalent", "inf", "inf", "inf")),
        (["--gamma", "n^-0.6", "--beta", "n^-0.6", "--c", "1", "--delta", "1e308"],
         _classify_line("zero", 0.0, "equivalent", "inf", "inf", "inf")),
    ],
    ids=["huge-coefficient", "huge-offsets", "huge-delta"],
)
def test_classify_overflow_prints_no_warning(argv, out):
    script = f"import sys\nfrom twostage.cli import main\nsys.exit(main({['classify', *argv]!r}))\n"
    run = _run_python(script)
    assert (run.returncode, run.stdout, run.stderr) == (0, out, "")


# OpenBLAS splits a dot product across threads above 10,000 elements, so a
# residual sum formed by BLAS would move fit's last digits with the count (it
# did on this file: sigma_gamma and the statistics built on it).
def test_fit_digits_do_not_depend_on_blas_threads(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(16_000, 4))
    rows[:, 3] += 0.3 * rows[:, 2]
    (tmp_path / "fit.csv").write_text("x1,a,m,y\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows))
    script = "import sys\nfrom twostage.cli import main\nsys.exit(main(['fit', 'fit.csv']))\n"
    outputs = []
    for threads in ("1", "2"):
        run = _run_python(script, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), cwd=tmp_path)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy first loads it, so the
# check needs a fresh interpreter in which main() is the first to load numpy.
@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_main_runs_blas_in_one_thread_unless_set(tmp_path, preset, want):
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(2000, 4))
    (tmp_path / "fit.csv").write_text("x1,a,m,y\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows))
    script = textwrap.dedent(
        """
        import os, sys
        from twostage.cli import main
        assert "numpy" not in sys.modules
        assert main(["fit", "fit.csv"]) == 0
        print(os.environ.get("OPENBLAS_NUM_THREADS"))
        print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else "")
        """
    )
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    run = _run_python(script, env=env, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    value, threads = run.stdout.splitlines()[-2:]
    assert value == want
    if preset is None and threads:  # /proc/self/task lists one entry per thread (Linux)
        assert threads == "1"


def test_count_bound_is_numpys_largest_index():
    assert sys.maxsize == np.iinfo(np.intp).max


def test_package_names_load_their_module_on_first_use():
    code = textwrap.dedent(
        """
        import sys
        import twostage
        assert not [m for m in sys.modules if m.startswith("twostage.")]
        assert twostage.PowerSequence is sys.modules["twostage.asymptotics"].PowerSequence
        assert "twostage.simulate" not in sys.modules
        assert set(twostage.__all__) <= set(dir(twostage))
        for name in twostage.__all__:
            getattr(twostage, name)
        try:
            twostage.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("no AttributeError")
        """
    )
    run = _run_python(code)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("module", sorted(twostage._EXPORTS))
def test_package_exports_each_modules_all(module):
    names = importlib.import_module(f"twostage.{module}").__dict__.get("__all__")
    if names is not None:
        assert set(twostage._EXPORTS[module]) == set(names)


@pytest.mark.parametrize("command", ["simulate", "fwer-bound", "mse-ratio"])
def test_help_lists_scenarios_and_presets(capsys, command):
    from twostage.asymptotics import MSE_RATIO_PRESETS
    from twostage.scenario import BUILTIN_SCENARIOS

    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    label, names = ("named preset", sorted(MSE_RATIO_PRESETS)) if command == "mse-ratio" else ("builtin scenario", list(BUILTIN_SCENARIOS))
    listed = re.search(label + r": ((?:[\w.-]+, )*[\w.-]+)", text)
    assert listed is not None, text
    assert listed.group(1).split(", ") == names


# Smallest valid config per subcommand; each test below changes one key.
_ROW = {"proportion": 1.0}
_BASE = {
    "simulate": {"scenario": "config1", "reps": 2, "m": 20, "seed": 1},
    "fwer-bound": {"scenario": "config1", "rule": "nofilter", "reps": 2, "m": 20, "p0_reps": 10, "seed": 1},
    "mse-ratio": {"preset": "k-4over3", "reps": 100, "n_grid": [100, 1000, 10000], "seed": 1},
}


def _run_config(tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return run_cli(command, "--config", str(path))


class TestSettingsTable:
    @pytest.mark.parametrize(
        "command, key, value, where",
        [
            ("simulate", "scenario", {"rows": 5}, "scenario.rows"),
            ("simulate", "scenario", {"rows": [5]}, "scenario.rows[0]"),
            ("simulate", "scenario", {"rows": "ab"}, "scenario.rows"),
            ("simulate", "scenario", {"rows": [dict(_ROW, gamma={"normal": 5})]}, "scenario.rows[0].gamma.normal"),
            ("simulate", "scenario", {"rows": [dict(_ROW, beta={"normal": {"variance": "1"}})]},
             "scenario.rows[0].beta.normal needs a mean"),
            ("simulate", "scenario", {"rows": [_ROW], "name": [1]}, "scenario.name"),
            # An inline scenario's sizes come from the top-level settings alone.
            ("simulate", "scenario", {"rows": [_ROW], "m": 3}, "unknown key(s) ['m'] in scenario"),
            ("simulate", "methods", [{"rule": "nofilter", "id": 5}], "methods[0].id"),
            ("fwer-bound", "rule", {"kind": 5}, "rule.kind"),
            ("mse-ratio", "preset", [], "preset"),
            ("mse-ratio", "n_grid", {"a": 1}, "n_grid"),
            ("mse-ratio", "n_grid", [100.5, 1000, 10000], "n_grid"),
            # Numbers in inline rules, adjustments and sequences: booleans and text are refused.
            ("fwer-bound", "rule", {"kind": "product", "c": True, "delta": 0.9}, "rule.c must be a finite number"),
            ("simulate", "methods", [{"rule": {"kind": "product", "c": 2, "delta": "0.9"}}], "methods[0].rule.delta must"),
            ("simulate", "methods", [{"rule": {"kind": "minp", "threshold": True}}], "methods[0].rule.threshold must"),
            ("simulate", "methods", [{"rule": "minp", "adjustment": {"kind": "filtration_aware", "p0": True}}],
             "methods[0].adjustment.p0 must"),
            ("simulate", "scenario", {"rows": [dict(_ROW, gamma={"offset": True})]}, "scenario.rows[0].gamma.offset must"),
            ("simulate", "scenario", {"rows": [dict(_ROW, beta={"terms": [[1, "0.5"]]})]},
             "scenario.rows[0].beta.terms[0][1] must be a finite number"),
            # Missing keys and malformed shapes are named by their dotted path.
            ("fwer-bound", "rule", {"kind": "product", "delta": 0.9}, "rule needs a c\n"),
            ("simulate", "methods", [{"rule": {"kind": "minp"}}], "methods[0].rule needs a threshold\n"),
            ("simulate", "methods", [{"adjustment": {"kind": "bonferroni"}}], "methods[0] needs a rule\n"),
            ("simulate", "scenario", {"rows": [dict(_ROW, gamma={"terms": [[1]]})]},
             "scenario.rows[0].gamma.terms[0] must be a list of 2, got [1]"),
            ("simulate", "scenario", {"rows": [dict(_ROW, gamma={"terms": 5})]}, "scenario.rows[0].gamma.terms must be a list"),
            ("simulate", "scenario", {"rows": [_ROW], "assignment": ["foo"]}, "scenario.assignment must be"),
            ("simulate", "scenario", {"rows": [_ROW], "assignment": "foo"}, "scenario.assignment must be"),
            # A row's null status follows from its coordinates, so no row states it.
            ("simulate", "scenario", {"rows": [dict(_ROW, truth="null00")]},
             "unknown key(s) ['truth'] in scenario.rows[0]; allowed: ['beta', 'gamma', 'proportion']"),
            ("simulate", "scenario", {"rows": [dict(_ROW, gamma={"terms": [[1, -0.5]]})]},
             "scenario.rows[0].gamma: exponent must be non-negative"),
            ("simulate", "scenario", {"rows": [dict(_ROW, proportion=0.5)]}, "scenario: row proportions must sum to 1"),
            ("simulate", "scenario", {"name": "x"}, "scenario needs a rows"),
            ("simulate", "methods", [{"rule": {"kind": "product", "c": 2, "delta": 0.9, "threshold": 0.1}}],
             "unknown key(s) ['threshold'] in methods[0].rule"),
            ("simulate", "methods", [{"rule": {"c": 2, "delta": 0.9}}], "methods[0].rule must be an object with a kind"),
            # The exact p0 of this rule at n = 200 is below the smallest float.
            ("simulate", "methods", [{"rule": {"kind": "product", "c": 1000, "delta": 0.5},
                                      "adjustment": {"kind": "filtration_aware"}}], "methods[0].adjustment: the exact p0"),
        ],
    )
    def test_malformed_config_names_location_exit_2(self, tmp_path, capsys, monkeypatch, command, key, value, where):
        monkeypatch.chdir(tmp_path)
        assert _run_config(tmp_path, command, dict(_BASE[command], **{key: value})) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}") and "Traceback" not in err
        # No Python-internal text: an unpacking or iteration error, or a bare KeyError key.
        assert "unpack" not in err and "iterable" not in err and not re.search(r": '[^']*'$", err.strip())
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]  # refused before any report is written

    @pytest.mark.parametrize(
        "adjustment, message",
        [
            ({"kind": "bonferroni", "bogus": 1}, "unknown key(s) ['bogus'] in methods[0].adjustment"),
            ("bonferroni", "methods[0].adjustment must be an object with a kind of bonferroni or filtration_aware"),
        ],
    )
    def test_adjustment_is_an_object_with_known_keys_exit_2(self, tmp_path, capsys, adjustment, message):
        cfg = dict(_BASE["simulate"], methods=[{"rule": "nofilter", "adjustment": adjustment}])
        assert _run_config(tmp_path, "simulate", cfg) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("gamma", "n^-0.5"), ("beta", "n^-0.5"), ("c", 4), ("delta", 0.7)])
    def test_preset_refuses_custom_sequence_exit_2(self, tmp_path, capsys, key, value):
        assert _run_config(tmp_path, "mse-ratio", dict(_BASE["mse-ratio"], **{key: value})) == 2
        argv = ["mse-ratio", "--preset", "k-4over3", f"--{key}", str(value), "--reps", "100", "--seed", "1"]
        assert run_cli(*argv, "--n-grid", "100,1000,10000", "--out", str(tmp_path / "r.csv")) == 2
        assert capsys.readouterr().err.count("fixes gamma, beta, c and delta") == 2

    @pytest.mark.parametrize("c", ["inf", "nan", "-inf"])
    def test_classify_refuses_non_finite_c(self, capsys, c):
        with pytest.raises(SystemExit) as exc:
            run_cli("classify", "--gamma", "n^-0.6", "--beta", "n^-0.6", f"--c={c}", "--delta", "0.8")
        assert exc.value.code == 2
        assert "c must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, values",
        [
            ("simulate", {"pi": [0.5, 0.4, 0.1]}),
            ("fwer-bound", {"sigma": 2.0, "alpha": 0.1}),
        ],
    )
    def test_new_flags_match_config(self, tmp_path, capsys, command, values):
        # simulate --pi and fwer-bound --sigma/--alpha used to be config-only spellings.
        base = dict(_BASE[command], scenario="hierarchical", reps=10)
        if command == "fwer-bound":
            base["rule"] = "minp"  # with no filter, mean_F is m whatever sigma is
        outs = [str(tmp_path / name) for name in ("config", "flags", "plain")]
        assert _run_config(tmp_path, command, dict(base, **values, out=outs[0])) == 0
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(base))
        flags = {"pi": ["--pi", "0.5,0.4,0.1"], "sigma": ["--sigma", "2"], "alpha": ["--alpha", "0.1"]}
        argv = [arg for key in values for arg in flags[key]]
        assert run_cli(command, "--config", str(plain), *argv, "--out", outs[1]) == 0
        assert run_cli(command, "--config", str(plain), "--out", outs[2]) == 0
        config_out, flags_out, plain_out = (open(out, "rb").read() for out in outs)
        assert config_out == flags_out != plain_out

    @pytest.mark.parametrize("scenario", ["config1", {"rows": [_ROW]}])
    def test_pi_outside_hierarchical_exit_2(self, tmp_path, capsys, scenario):
        cfg = dict(_BASE["simulate"], scenario=scenario, out=str(tmp_path / "r.csv"))
        assert _run_config(tmp_path, "simulate", dict(cfg, pi=[0.5, 0.4, 0.1])) == 2
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(path), "--pi", "0.5,0.4,0.1") == 2
        err = capsys.readouterr().err
        assert err.count("error: pi applies only to the hierarchical scenario") == 2
        assert not (tmp_path / "r.csv").exists()

    def test_fwer_bound_has_no_pi(self, tmp_path, capsys):
        cfg = dict(_BASE["fwer-bound"], scenario="hierarchical", pi=[0.5, 0.4, 0.1])
        assert _run_config(tmp_path, "fwer-bound", cfg) == 2
        assert "unknown key(s) ['pi']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run_cli("fwer-bound", "--scenario", "hierarchical", "--rule", "minp", "--pi", "0.5,0.4,0.1")
        assert exc.value.code == 2

    # A comma or line break (any that str.splitlines splits on) would split a
    # CSV report's cell or line, a leading # would make a row a comment, and
    # the reader strips the metadata values.
    @pytest.mark.parametrize("bad", ["", "a,b", "a\nb", "a\rb", "a\u2028b", "#a", " a", "a\t"])
    @pytest.mark.parametrize("key", ["methods", "scenario"])
    def test_report_names_refused_exit_2(self, tmp_path, capsys, monkeypatch, key, bad):
        monkeypatch.chdir(tmp_path)
        value = [{"rule": "minp", "id": bad}] if key == "methods" else {"name": bad, "rows": [_ROW]}
        assert _run_config(tmp_path, "simulate", dict(_BASE["simulate"], **{key: value})) == 2
        where = "methods[0].id" if key == "methods" else "scenario.name"
        assert capsys.readouterr().err.startswith(f"error: {where} must be one line of text")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    # Without --out, simulate writes simulate-<name>.csv in the working directory.
    @pytest.mark.parametrize("bad", ["a/b", "x/../../y", "a\\b"])
    def test_scenario_name_with_a_path_separator_exit_2(self, tmp_path, capsys, monkeypatch, bad):
        monkeypatch.chdir(tmp_path)
        assert _run_config(tmp_path, "simulate", dict(_BASE["simulate"], scenario={"name": bad, "rows": [_ROW]})) == 2
        assert capsys.readouterr().err.startswith("error: scenario.name must be one line of text with no comma")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    # A row where some coordinate is zero is null, so its rejections count as
    # false: at alpha = 0.9 and m = 2, some double null is rejected in about a third of replications.
    def test_double_null_row_rejections_count_toward_fwer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scenario = {"name": "double-null", "rows": [{"gamma": "0", "beta": "0", "proportion": 1}]}
        sizes = {"scenario": scenario, "alpha": 0.9, "m": 2, "reps": 20}
        assert _run_config(tmp_path, "fwer-bound", dict(_BASE["fwer-bound"], **sizes)) == 0
        bound = json.loads(capsys.readouterr().out)
        assert bound["fwer"] > 0 and bound["q_max"] > 0
        cfg = dict(_BASE["simulate"], **sizes, methods=["nofilter"], out="r.csv")
        assert _run_config(tmp_path, "simulate", cfg) == 0
        [[method, fwer, _, power, *_]] = _csv_report(tmp_path / "r.csv")[1]
        assert (method, float(fwer) > 0, power) == ("nofilter", True, "nan")

    def test_report_names_round_trip(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = dict(_BASE["simulate"], scenario={"name": "a b=c;#", "rows": [_ROW]}, out=str(out))
        assert _run_config(tmp_path, "simulate", dict(cfg, methods=[{"rule": "minp", "id": "x=y #z"}])) == 0
        meta, rows = _csv_report(out)
        assert (meta["scenario"], rows[0][0]) == ("a b=c;#", "x=y #z")

    def test_config_value_checked_even_when_flag_overrides(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(_BASE["simulate"], reps="abc")))
        assert run_cli("simulate", "--config", str(path), "--reps", "3", "--out", str(tmp_path / "r.csv")) == 2
        assert capsys.readouterr().err.startswith("error: reps must be")


# A sigma whose square is beyond float range: the chi-square filter used to
# square it as a Python float and end in an OverflowError traceback.  A
# subnormal sigma makes |z| overflow, which must come out inf without a
# warning.  Numpy warnings would reach stderr, so they fail the test.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["fwer-bound", "--scenario", "hierarchical", "--rule", "chisq2", "--sigma", "1e155", "--reps", "2"],
        ["simulate", "--scenario", "config2", "--sigma", "1e160", "--reps", "2", "--out", "r.csv"],
        ["fwer-bound", "--scenario", "hierarchical", "--rule", "minp", "--sigma", "1e-320", "--reps", "2"],
        ["simulate", "--scenario", "config2", "--sigma", "1e-320", "--reps", "2", "--out", "r.csv"],
    ],
)
def test_extreme_sigma_exits_0(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--seed", "1") == 0
    assert capsys.readouterr().err == ""


# At alpha = 1e-321 the threshold alpha/F reaches the smallest subnormal,
# whose half rounds to 0 in the critical-value computation.
_TINY_ALPHA_P0 = {
    "name": "tiny-alpha",
    "rows": [
        {"proportion": 0.5},
        {"gamma": "3", "beta": "3", "proportion": 0.5},
    ],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scenario", "config2", "--alpha", "1e-321", "--methods", "nofilter", "--out", "r.csv"],
        ["fwer-bound", "--scenario", "config2", "--rule", "nofilter", "--alpha", "1e-321"],
        ["simulate", "--scenario", json.dumps(_TINY_ALPHA_P0), "--m", "4", "--out", "r.csv", "--methods",
         json.dumps([{"rule": {"kind": "product", "c": 434, "delta": 0.9}, "adjustment": {"kind": "filtration_aware"}}])],
    ],
)
def test_smallest_subnormal_threshold_exits_0(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--reps", "2", "--seed", "1") == 0
    assert capsys.readouterr().err == ""


_HUGE = "1" + "0" * 400  # beyond float range
_TOO_MANY = "100000000000000"  # numpy refuses arrays this long before allocating them


class TestOversizedCounts:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--scenario", "config1", "--n", _HUGE], "argument --n: n must be at most"),
            (["fwer-bound", "--scenario", "config1", "--rule", "minp", "--n", _HUGE], "argument --n: n must be at most"),
            (["simulate", "--scenario", "config1", "--m", "1" + "0" * 20], "argument --m: m must be at most"),
            # Philox keys are 64-bit: seed 2**64 + 3 would replay seed 3.
            (["simulate", "--scenario", "config1", "--seed", str(2**64 + 3)],
             f"argument --seed: seed must be at most {2**64 - 1}"),
            (["mse-ratio", "--preset", "k-4over3", "--n-grid", f"100,1000,{_HUGE}"], "argument --n-grid: n_grid must be"),
        ],
    )
    def test_flag_beyond_range_exit_2(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, cfg, where",
        [
            ("simulate", {"n": int(_HUGE)}, "n"),
            ("simulate", {"scenario": {"rows": [dict(_ROW, proportion=int(_HUGE))]}}, "scenario.rows[0].proportion"),
            ("mse-ratio", {"n_grid": [100, 1000, int(_HUGE)]}, "n_grid"),
        ],
    )
    def test_config_beyond_float_exit_2(self, tmp_path, capsys, monkeypatch, command, cfg, where):
        monkeypatch.chdir(tmp_path)
        assert _run_config(tmp_path, command, dict(_BASE[command], **cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where} must be") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, setting",
        [
            (["simulate", "--scenario", "config1", "--m", _TOO_MANY], "m"),
            (["simulate", "--scenario", "hierarchical", "--m", _TOO_MANY], "m"),
            (["fwer-bound", "--scenario", "config1", "--rule", "minp", "--m", _TOO_MANY], "m"),
            (["fwer-bound", "--scenario", "hierarchical", "--rule", "minp", "--m", _TOO_MANY], "m"),
        ],
    )
    def test_count_beyond_memory_exit_2(self, tmp_path, capsys, monkeypatch, argv, setting):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--seed", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {setting} = {_TOO_MANY} needs more memory") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


# JSON values of every shape; integers stay small, so a size key never asks for a big run.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 50) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_SCENARIO_KEYS = ["scenario", "reps", "m", "n", "sigma", "alpha", "seed", "out"]
_KEYS = {
    "simulate": _SCENARIO_KEYS + ["pi", "methods", "format", "svg", "threads"],
    "fwer-bound": _SCENARIO_KEYS + ["rule", "p0_reps"],
    "mse-ratio": ["preset", "gamma", "beta", "c", "delta", "n_grid", "reps", "format", "svg", "seed", "out"],
}
_SIZE_KEYS = {"reps", "m", "n", "p0_reps", "threads"}
_PATH_KEYS = {"out", "svg"}


def _allowed(key, value):
    if key in _PATH_KEYS and isinstance(value, str):
        return False  # a drawn path could point anywhere; string paths are the base case
    if key in _SIZE_KEYS and isinstance(value, str):
        try:
            return int(value) <= 50
        except ValueError:
            return True
    return True


# Nested objects with each kind of rule, adjustment, row and sequence object.
_INLINE = {
    "name": "s",
    "assignment": "multinomial",
    "rows": [
        {"gamma": {"offset": 0.0, "terms": [[3.0, 0.5]]}, "beta": "0", "proportion": 0.5},
        {"gamma": "0", "beta": {"normal": {"mean": "n^-0.5", "variance": "n^-1"}}, "proportion": 0.5},
    ],
}
_NESTED = {
    "simulate": {
        "scenario": _INLINE,
        "methods": [
            "nofilter",
            {"rule": {"kind": "minp", "threshold": 0.001}, "adjustment": {"kind": "filtration_aware"}, "id": "a"},
            {"rule": {"kind": "product", "c": 2.0, "delta": 0.9}, "adjustment": {"kind": "bonferroni"}},
        ],
    },
    "fwer-bound": {"scenario": _INLINE, "rule": {"kind": "chisq2", "threshold": 0.001}},
    "mse-ratio": {"preset": None, "gamma": {"offset": 0.0, "terms": [[2.0, 0.5]]}, "beta": "2n^-0.5", "c": 4.0, "delta": 0.7},
}


def _slots(obj, path=()):
    """The path of each key and list entry inside ``obj``, and of one unknown key in each object."""
    if isinstance(obj, dict):
        items = [*obj.items(), ("nosuchkey", None)]
    else:
        items = list(enumerate(obj)) if isinstance(obj, list) else []
    return [slot for key, value in items for slot in [(*path, key), *_slots(value, (*path, key))]]


@pytest.mark.parametrize("command", sorted(_BASE))
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_value_exits_cleanly(tmp_path, capsys, monkeypatch, command, data):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TWOSTAGE_SEED", raising=False)
    cfg = dict(_BASE[command], out=str(tmp_path / "report"))
    if data.draw(st.booleans()):  # a value inside one of the nested objects
        cfg.update(copy.deepcopy(_NESTED[command]))
        *path, key = data.draw(st.sampled_from(_slots(_NESTED[command])))
        value = data.draw(_JSON)
    else:
        path, key = [], data.draw(st.sampled_from([*_KEYS[command], "nosuchkey"]))
        value = data.draw(_JSON.filter(lambda v: _allowed(key, v)))
    functools.reduce(operator.getitem, path, cfg)[key] = value
    try:
        code = _run_config(tmp_path, command, cfg)
    except SystemExit as exc:
        code = exc.code
    assert code in {0, 2, 3, 5}
    assert "Traceback" not in capsys.readouterr().err


def test_nested_base_configs_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command, nested in _NESTED.items():
        assert _run_config(tmp_path, command, dict(_BASE[command], **nested, out=str(tmp_path / "report"))) == 0
