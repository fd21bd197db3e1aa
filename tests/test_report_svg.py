import csv
import json
import math
import struct
from typing import get_type_hints

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
from twostage.report import format_float, write_mse_ratio_report, write_simulation_report
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


def _read(path: str, key: str):
    """A written report as ``(meta, rows)``, each row its cells in column order.

    JSON goes through strict ``json.load``; CSV metadata values and cells stay text.
    """
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".json"):
            payload = json.load(fh, parse_constant=_reject_constant)
            return payload["meta"], [list(row.values()) for row in payload[key]]
        lines = fh.read().splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    return meta, list(csv.reader(line for line in lines if not line.startswith("#")))[1:]


def _cell(x) -> float:
    """A float cell: CSV text, or a strict JSON value with null for NaN."""
    return math.nan if x is None else float(x)


def _results(rows) -> tuple[MethodResult, ...]:
    return tuple(MethodResult(row[0], *map(_cell, row[1:])) for row in rows)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestSimulationReportIO:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_exact_round_trip(self, small_report, tmp_path, fmt):
        path = str(tmp_path / f"report.{fmt}")
        write_simulation_report(small_report, path, fmt)
        meta, rows = _read(path, "methods")
        assert _results(rows) == small_report.methods
        if fmt == "json":
            assert ReportMeta(**meta) == small_report.meta

    def test_csv_meta_block_lists_every_field_in_order(self, small_report, tmp_path):
        path = str(tmp_path / "report.csv")
        write_simulation_report(small_report, path, "csv")
        meta, _ = _read(path, "methods")
        assert list(meta) == list(ReportMeta._fields)
        assert meta == {
            "seed": "17", "scenario": "config1", "m": "40", "reps": "12", "n": "200", "sigma": "1",
            "alpha": "0.050000000000000003", "assignment": "deterministic", "renormalized": "false",
        }
        hints = get_type_hints(ReportMeta)
        parsed = {name: text == "true" if hints[name] is bool else hints[name](text) for name, text in meta.items()}
        assert ReportMeta(**parsed) == small_report.meta

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
        _, rows = _read(path, "methods")
        assert math.isnan(_results(rows)[0].power)

    def test_nan_power_strict_json(self, tmp_path):
        sc = builtin_scenario("hierarchical", m=30, reps=4, pi=(0.7, 0.3, 0.0))
        report = run_experiment(sc, [Method(NoFilter())], master_seed=3)
        path = str(tmp_path / "r.json")
        write_simulation_report(report, path, "json")
        _, rows = _read(path, "methods")
        assert rows[0][3] is None
        again = _results(rows)[0]
        assert math.isnan(again.power) and math.isnan(again.power_se)
        assert again.empirical_fwer == report.methods[0].empirical_fwer

    def test_json_infinities_round_trip(self, small_report, tmp_path):
        res = small_report.methods[0]
        report = SimulationReport(
            small_report.meta,
            (MethodResult(res.method_id, res.empirical_fwer, math.inf, res.power, -math.inf, res.mean_F),),
        )
        path = str(tmp_path / "r.json")
        write_simulation_report(report, path, "json")
        _, rows = _read(path, "methods")
        assert _results(rows) == report.methods

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_special_floats_keep_their_bits(self, tmp_path, fmt):
        values = (-0.0, math.nan, math.inf, -math.inf, 5e-324)
        path = str(tmp_path / f"r.{fmt}")
        write_simulation_report(SimulationReport(_META, (MethodResult("m", *values),)), path, fmt)
        _, [row] = _read(path, "methods")
        if fmt == "json":
            assert row[2:5] == [None, "inf", "-inf"]
        assert [_bits(_cell(cell)) for cell in row[1:]] == [_bits(x) for x in values]


def _same_float(a: float, b: float) -> bool:
    """Equal with the same sign (so -0.0 stays -0.0), or both NaN."""
    return math.isnan(a) and math.isnan(b) or a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


_META = ReportMeta(1, "config1", 40, 12, 1000, 1.0, 0.05, "deterministic", False)
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
        records = [MethodResult(f"m{i}", *row) for i, row in enumerate(rows)]
        write_simulation_report(SimulationReport(_META, tuple(records)), path, fmt)
        key = "methods"
    else:
        records = [MseRatioPoint(10**i, *row[:4]) for i, row in enumerate(rows)]
        write_mse_ratio_report(records, _MSE_META, path, fmt)
        key = "points"
    _, got = _read(path, key)
    want = [tuple(record) for record in records]
    assert [str(row[0]) for row in got] == [str(row[0]) for row in want]
    for got_row, want_row in zip(got, want):
        assert all(_same_float(_cell(g), w) for g, w in zip(got_row[1:], want_row[1:])), (got_row, want_row)


class TestMseRatioReportIO:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip(self, tmp_path, fmt):
        points = [
            MseRatioPoint(100, 0.5, 0.01, 1.0 / 3.0, 0.25),
            MseRatioPoint(1000, 0.75, 0.002, 0.1, 0.9),
        ]
        path = str(tmp_path / f"mr.{fmt}")
        write_mse_ratio_report(points, _MSE_META, path, fmt)
        meta, rows = _read(path, "points")
        assert [MseRatioPoint(int(row[0]), *map(_cell, row[1:])) for row in rows] == points
        assert {name: type(value)(meta[name]) for name, value in _MSE_META.items()} == _MSE_META
        assert list(meta) == list(_MSE_META)


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
