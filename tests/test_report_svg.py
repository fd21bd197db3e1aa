import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import (
    Method,
    MethodResult,
    MseRatioPoint,
    NoFilter,
    SimulationReport,
    builtin_scenario,
    run_experiment,
)
from twostage.report import (
    format_float,
    read_mse_ratio_report,
    read_simulation_report,
    write_mse_ratio_report,
    write_simulation_report,
)
from twostage.simulate import ReportMeta
from twostage.svgplot import Series, line_plot


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def small_report():
    sc = builtin_scenario("config1", m=40, reps=12)
    return run_experiment(sc, [Method(NoFilter())], master_seed=17)


class TestFloatFormat:
    def test_round_trips_doubles(self):
        rng = np.random.default_rng(0)
        for x in rng.normal(scale=1e3, size=200):
            assert float(format_float(x)) == x
        for x in (1e-300, 1.0 / 3.0, math.pi, 0.0):
            assert float(format_float(x)) == x


class TestSimulationReportIO:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_exact_round_trip(self, small_report, tmp_path, fmt):
        path = str(tmp_path / f"report.{fmt}")
        write_simulation_report(small_report, path, fmt)
        again = read_simulation_report(path)
        assert again == small_report

    def test_csv_shape(self, small_report, tmp_path):
        path = str(tmp_path / "report.csv")
        write_simulation_report(small_report, path, "csv")
        text = open(path).read()
        assert text.endswith("\n") and "\r" not in text
        body = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert body[0] == "method,empirical_fwer,fwer_se,power,power_se,mean_F"
        assert len(body) == 1 + len(small_report.methods)

    def test_nan_power_round_trips(self, tmp_path):
        sc = builtin_scenario("hierarchical", m=30, reps=4, pi=(0.7, 0.3, 0.0))
        report = run_experiment(sc, [Method(NoFilter())], master_seed=3)
        assert math.isnan(report.methods[0].power)
        path = str(tmp_path / "r.csv")
        write_simulation_report(report, path, "csv")
        again = read_simulation_report(path)
        assert math.isnan(again.methods[0].power)

    def test_nan_power_strict_json(self, tmp_path):
        sc = builtin_scenario("hierarchical", m=30, reps=4, pi=(0.7, 0.3, 0.0))
        report = run_experiment(sc, [Method(NoFilter())], master_seed=3)
        path = str(tmp_path / "r.json")
        write_simulation_report(report, path, "json")
        payload = json.loads(open(path).read(), parse_constant=_reject_constant)
        assert payload["methods"][0]["power"] is None
        again = read_simulation_report(path)
        assert math.isnan(again.methods[0].power) and math.isnan(again.methods[0].power_se)
        assert again.methods[0].empirical_fwer == report.methods[0].empirical_fwer

    def test_json_infinities_round_trip(self, small_report, tmp_path):
        res = small_report.methods[0]
        report = SimulationReport(
            small_report.meta,
            (MethodResult(res.method_id, res.empirical_fwer, math.inf, res.power, -math.inf, res.mean_F),),
        )
        path = str(tmp_path / "r.json")
        write_simulation_report(report, path, "json")
        json.loads(open(path).read(), parse_constant=_reject_constant)
        assert read_simulation_report(path) == report


def _same_float(a: float, b: float) -> bool:
    """Equal with the same sign (so -0.0 stays -0.0), or both NaN."""
    return math.isnan(a) and math.isnan(b) or a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


_SIM_FIELDS = ("empirical_fwer", "fwer_se", "power", "power_se", "mean_F")
_META = ReportMeta(1, "config1", 40, 12, 1000, 1.0, 0.05, "deterministic", False)
_MSE_FIELDS = ("ratio", "mc_se", "k_at_n", "filter_freq")
_MSE_META = {"gamma": "n^-0.5", "beta": "n^-0.5", "c": 4.0, "delta": 0.7, "reps": 100, "seed": 1}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(st.tuples(*[st.floats()] * 5), min_size=1, max_size=4),
    fmt=st.sampled_from(["csv", "json"]),
    kind=st.sampled_from(["simulate", "mse-ratio"]),
)
def test_any_float_round_trips(tmp_path_factory, rows, fmt, kind):
    path = str(tmp_path_factory.mktemp("report") / f"r.{fmt}")
    if kind == "simulate":
        report = SimulationReport(_META, tuple(MethodResult(f"m{i}", *row) for i, row in enumerate(rows)))
        write_simulation_report(report, path, fmt)
        again = read_simulation_report(path)
        assert again.meta == report.meta
        assert [m.method_id for m in again.methods] == [m.method_id for m in report.methods]
        pairs, fields = zip(again.methods, report.methods), _SIM_FIELDS
    else:
        points = [MseRatioPoint(10**i, *row[:4]) for i, row in enumerate(rows)]
        write_mse_ratio_report(points, _MSE_META, path, fmt)
        again, _ = read_mse_ratio_report(path)
        assert [p.n for p in again] == [p.n for p in points]
        pairs, fields = zip(again, points), _MSE_FIELDS
    if fmt == "json":
        json.loads(open(path).read(), parse_constant=_reject_constant)
    for got, want in pairs:
        assert all(_same_float(getattr(got, k), getattr(want, k)) for k in fields), (got, want)


class TestMseRatioReportIO:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip(self, tmp_path, fmt):
        points = [
            MseRatioPoint(100, 0.5, 0.01, 1.0 / 3.0, 0.25),
            MseRatioPoint(1000, 0.75, 0.002, 0.1, 0.9),
        ]
        meta = {"gamma": "n^-0.5", "beta": "n^-0.5", "c": 4.0, "delta": 0.7, "reps": 100, "seed": 1}
        path = str(tmp_path / f"mr.{fmt}")
        write_mse_ratio_report(points, meta, path, fmt)
        again, raw_meta = read_mse_ratio_report(path)
        assert again == points
        assert str(raw_meta["gamma"]) == "n^-0.5"


class TestSvg:
    def test_emits_well_formed_document(self, tmp_path):
        path = str(tmp_path / "plot.svg")
        line_plot(
            path,
            [
                Series("a", [100, 1000, 10000], [0.5, 0.7, 0.9], [0.05, 0.02, 0.01]),
                Series("b", [100, 1000, 10000], [1.0, 1.0, 1.0]),
            ],
            x_label="n",
            y_label="ratio",
            title="demo",
            log_x=True,
        )
        text = open(path).read()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == 2
        assert text.count("<polygon") == 1  # one band
        assert "1e2" in text and "demo" in text

    def test_rejects_log_x_with_nonpositive(self, tmp_path):
        with pytest.raises(ValueError):
            line_plot(str(tmp_path / "p.svg"), [Series("a", [0, 1], [1, 2])], log_x=True)

    def test_rejects_mismatched_lengths(self, tmp_path):
        with pytest.raises(ValueError):
            line_plot(str(tmp_path / "p.svg"), [Series("a", [1, 2], [1.0], None)])
