"""Report serialization: CSV and JSON writers plus exact round-trip readers.

CSV files carry a ``# key=value`` metadata block before the header row, use
'.' decimals, ',' separators, LF line endings and 17 significant digits, so
every float survives a write/read cycle bit-exactly.  JSON files are strict
JSON: NaN is written as null and infinities as "inf"/"-inf".  Both report
kinds go through one table writer and one table reader.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple
from typing import Sequence, get_type_hints

from .asymptotics import MseRatioPoint
from .exceptions import DataFormatError
from .simulate import MethodResult, ReportMeta, SimulationReport

__all__ = [
    "format_float",
    "write_json",
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


def _plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _strict(value):
    """``value`` with every float, at any depth, passed through :func:`nan_to_none`."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict(item) for item in value]
    return nan_to_none(value) if isinstance(value, float) else value


def write_json(payload: dict, path: str) -> None:
    """Write ``payload`` as a strict JSON document: 2-space indent, LF endings, final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_strict(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_table(path: str, fmt: str, meta: dict, key: str, columns: Sequence[str], rows: Sequence) -> None:
    """Write dataclass ``rows`` under ``meta``: JSON keys are field names, CSV headers ``columns``."""
    if fmt == "json":
        write_json({"meta": meta, key: [asdict(row) for row in rows]}, path)
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"# {name}={_plain(value)}" for name, value in meta.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(_plain(value) for value in astuple(row)) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_table(path: str, key: str, columns: Sequence[str], row_type) -> tuple[dict, list]:
    """Inverse of :func:`_write_table`: raw metadata (strings from CSV) and ``row_type`` rows."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    types = get_type_hints(row_type)  # field name -> type, in field order
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        meta = payload["meta"]
        records = [[row[name] for name in types] for row in payload[key]]
    else:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        meta = {}
        for name, eq, value in (ln[1:].partition("=") for ln in lines if ln.startswith("#")):
            if eq:
                meta[name.strip()] = value.strip()
        body = [ln for ln in lines if not ln.startswith("#")]
        if not body or body[0] != ",".join(columns):
            raise DataFormatError(f"missing or unexpected report header; expected {','.join(columns)}")
        records = [line.split(",") for line in body[1:]]
        for record in records:
            if len(record) != len(columns):
                raise DataFormatError(f"expected {len(columns)} fields, got {len(record)}")
    cells = [_float_from_json if cell is float else cell for cell in types.values()]
    return meta, [row_type(*(cell(value) for cell, value in zip(cells, record))) for record in records]


def _meta_from_strings(raw: dict) -> ReportMeta:
    """ReportMeta from CSV metadata text or from the typed JSON ``meta`` object."""
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
            renormalized=raw["renormalized"] in (True, "true"),
        )
    except KeyError as exc:
        raise DataFormatError(f"report metadata missing key {exc}") from exc


def write_simulation_report(report: SimulationReport, path: str, fmt: str = "csv") -> None:
    _write_table(path, fmt, asdict(report.meta), "methods", _SIM_COLUMNS, report.methods)


def read_simulation_report(path: str) -> SimulationReport:
    """Parse a report written by :func:`write_simulation_report` (either format)."""
    meta, methods = _read_table(path, "methods", _SIM_COLUMNS, MethodResult)
    return SimulationReport(_meta_from_strings(meta), tuple(methods))


def write_mse_ratio_report(points: Sequence[MseRatioPoint], meta: dict, path: str, fmt: str = "csv") -> None:
    _write_table(path, fmt, meta, "points", _MSE_COLUMNS, points)


def read_mse_ratio_report(path: str) -> tuple[list[MseRatioPoint], dict]:
    """Parse a ratio report back into points plus raw metadata (strings from CSV)."""
    meta, points = _read_table(path, "points", _MSE_COLUMNS, MseRatioPoint)
    return points, meta


def _float_from_json(x) -> float:
    """A float cell, from JSON or CSV text: None (see :func:`nan_to_none`) is NaN."""
    return math.nan if x is None else float(x)


def nan_to_none(x: float):
    """JSON-safe float: None for NaN, strings for infinities."""
    if x is None or math.isnan(x):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x
