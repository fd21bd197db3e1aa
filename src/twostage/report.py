"""Report serialization: CSV and JSON writers plus exact round-trip readers.

CSV files carry a ``# key=value`` metadata block before the header row, use
'.' decimals, ',' separators, LF line endings and 17 significant digits, so
every float survives a write/read cycle bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Sequence

from .asymptotics import MseRatioPoint
from .exceptions import DataFormatError
from .simulate import MethodResult, ReportMeta, SimulationReport

__all__ = [
    "format_float",
    "write_simulation_report",
    "read_simulation_report",
    "write_mse_ratio_report",
    "read_mse_ratio_report",
]

_SIM_COLUMNS = ("method", "empirical_fwer", "fwer_se", "power", "power_se", "mean_F")
_MSE_COLUMNS = ("n", "ratio", "mc_se", "k_at_n", "filter_freq")


def format_float(x: float) -> str:
    """17-significant-digit text form; round-trips every finite double."""
    return f"{x:.17g}"


def _meta_lines(meta: dict) -> list[str]:
    return [f"# {key}={_plain(value)}" for key, value in meta.items()]


def _plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _parse_meta(lines: Sequence[str]) -> dict[str, str]:
    meta = {}
    for line in lines:
        body = line[1:].strip()
        if "=" in body:
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
    return meta


def write_simulation_report(report: SimulationReport, path: str, fmt: str = "csv") -> None:
    if fmt == "json":
        # Strict JSON has no NaN or infinity: such fields go through nan_to_none.
        methods = [
            {**asdict(m), **{k: nan_to_none(getattr(m, k)) for k in _SIM_COLUMNS[1:]}}
            for m in report.methods
        ]
        payload = {"meta": asdict(report.meta), "methods": methods}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = _meta_lines(asdict(report.meta))
    lines.append(",".join(_SIM_COLUMNS))
    for m in report.methods:
        lines.append(
            ",".join(
                [
                    m.method_id,
                    format_float(m.empirical_fwer),
                    format_float(m.fwer_se),
                    format_float(m.power),
                    format_float(m.power_se),
                    format_float(m.mean_F),
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _meta_from_strings(raw: dict[str, str]) -> ReportMeta:
    try:
        return ReportMeta(
            seed=int(raw["seed"]),
            scenario=raw["scenario"],
            m=int(raw["m"]),
            reps=int(raw["reps"]),
            n=int(raw["n"]),
            sigma=float(raw["sigma"]),
            alpha=float(raw["alpha"]),
            assignment=raw["assignment"],
            renormalized=raw["renormalized"] == "true",
        )
    except KeyError as exc:
        raise DataFormatError(f"report metadata missing key {exc}") from exc


def read_simulation_report(path: str) -> SimulationReport:
    """Parse a report written by :func:`write_simulation_report` (either format)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        meta = ReportMeta(**payload["meta"])
        methods = tuple(
            MethodResult(**{**m, **{k: _float_from_json(m[k]) for k in _SIM_COLUMNS[1:]}})
            for m in payload["methods"]
        )
        return SimulationReport(meta, methods)

    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = _meta_from_strings(_parse_meta([ln for ln in lines if ln.startswith("#")]))
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0] != ",".join(_SIM_COLUMNS):
        raise DataFormatError("missing or unexpected simulate report header")
    methods = []
    for line in body[1:]:
        parts = line.split(",")
        if len(parts) != len(_SIM_COLUMNS):
            raise DataFormatError(f"expected {len(_SIM_COLUMNS)} fields, got {len(parts)}")
        methods.append(
            MethodResult(
                method_id=parts[0],
                empirical_fwer=float(parts[1]),
                fwer_se=float(parts[2]),
                power=float(parts[3]),
                power_se=float(parts[4]),
                mean_F=float(parts[5]),
            )
        )
    return SimulationReport(meta, tuple(methods))


def write_mse_ratio_report(points: Sequence[MseRatioPoint], meta: dict, path: str, fmt: str = "csv") -> None:
    if fmt == "json":
        payload = {"meta": meta, "points": [asdict(p) for p in points]}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = _meta_lines(meta)
    lines.append(",".join(_MSE_COLUMNS))
    for p in points:
        lines.append(
            ",".join(
                [
                    str(p.n),
                    format_float(p.ratio),
                    format_float(p.mc_se),
                    format_float(p.k_at_n),
                    format_float(p.filter_freq),
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mse_ratio_report(path: str) -> tuple[list[MseRatioPoint], dict[str, str]]:
    """Parse a ratio report back into points plus raw metadata strings."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        points = [MseRatioPoint(**p) for p in payload["points"]]
        return points, payload["meta"]

    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = _parse_meta([ln for ln in lines if ln.startswith("#")])
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0] != ",".join(_MSE_COLUMNS):
        raise DataFormatError("missing or unexpected mse-ratio report header")
    points = []
    for line in body[1:]:
        parts = line.split(",")
        if len(parts) != len(_MSE_COLUMNS):
            raise DataFormatError(f"expected {len(_MSE_COLUMNS)} fields, got {len(parts)}")
        points.append(
            MseRatioPoint(
                n=int(parts[0]),
                ratio=float(parts[1]),
                mc_se=float(parts[2]),
                k_at_n=float(parts[3]),
                filter_freq=float(parts[4]),
            )
        )
    return points, meta


def _float_from_json(x) -> float:
    """Inverse of :func:`nan_to_none`: None is NaN, "inf"/"-inf" are infinities."""
    return math.nan if x is None else float(x)


def nan_to_none(x: float):
    """JSON-safe float: None for NaN, strings for infinities."""
    if x is None or math.isnan(x):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x
