"""Report serialization: CSV and JSON writers.

CSV files carry a ``# key=value`` metadata block before the header row, use
'.' decimals, ',' separators, LF line endings and 17 significant digits, so
``float()`` of every numeric cell gives back the written double bit-exactly.
JSON files are strict JSON: NaN is written as null and infinities as
"inf"/"-inf".  Both report kinds go through one table writer.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Sequence

from .jsonsafe import strict

if TYPE_CHECKING:
    from .asymptotics import MseRatioPoint
    from .simulate import SimulationReport

__all__ = [
    "format_float",
    "write_json",
    "write_simulation_report",
    "write_mse_ratio_report",
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


def write_json(payload: dict, path: str) -> None:
    """Write ``payload`` as a strict JSON document: 2-space indent, LF endings, final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(strict(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_table(path: str, fmt: str, meta: dict, key: str, columns: Sequence[str], rows: Sequence) -> None:
    """Write NamedTuple ``rows`` under ``meta``: JSON keys are field names, CSV headers ``columns``."""
    if fmt == "json":
        write_json({"meta": meta, key: [row._asdict() for row in rows]}, path)
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"# {name}={_plain(value)}" for name, value in meta.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(_plain(value) for value in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_simulation_report(report: SimulationReport, path: str, fmt: str = "csv") -> None:
    _write_table(path, fmt, report.meta._asdict(), "methods", _SIM_COLUMNS, report.methods)


def write_mse_ratio_report(points: Sequence[MseRatioPoint], meta: dict, path: str, fmt: str = "csv") -> None:
    _write_table(path, fmt, meta, "points", _MSE_COLUMNS, points)

