"""JSON-safe floats, shared by the report files and the CLI's JSON lines.

Strict JSON has no NaN or infinity, so NaN is written as null and the
infinities as the strings "inf" and "-inf".
"""

from __future__ import annotations

import math

__all__ = ["nan_to_none", "strict"]


def nan_to_none(x: float):
    """JSON-safe float: None for NaN, strings for infinities."""
    if x is None or math.isnan(x):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def strict(value):
    """``value`` with every float, at any depth, passed through :func:`nan_to_none`."""
    if isinstance(value, dict):
        return {key: strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [strict(item) for item in value]
    return nan_to_none(value) if isinstance(value, float) else value
