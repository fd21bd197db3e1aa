"""Turn raw tabular observations into an estimate pair.

The mediation model is two linear regressions: the mediator on covariates
and exposure, and the outcome on covariates, exposure and mediator.  The
coefficient of the exposure in the first fit and of the mediator in the
second are the coordinate estimates; their classical OLS standard errors set
the scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import EstimatePair
from .exceptions import DataFormatError, SingularDesignError

__all__ = ["ObservationTable", "read_observations", "ols_mediation_fit"]

_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class ObservationTable:
    """Observations with covariates x (n, d), exposure a, mediator m, outcome y."""

    x: np.ndarray
    a: np.ndarray
    m: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.size == 0:
            x = x.reshape(len(self.a), 0)
        object.__setattr__(self, "x", x)
        for name in ("a", "m", "y"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        rows = len(self.a)
        if not (len(self.m) == len(self.y) == self.x.shape[0] == rows):
            raise ValueError("columns must have equal length")
        if rows < self.x.shape[1] + 3:
            raise ValueError(
                f"need at least d + 3 = {self.x.shape[1] + 3} rows to identify the model, got {rows}"
            )

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def d(self) -> int:
        return self.x.shape[1]


def read_observations(path: str, delimiter: str | None = None) -> ObservationTable:
    """Read a delimited text file with a header naming a, m, y and optional x1..xd.

    The delimiter is sniffed from the header (comma, semicolon, tab, else
    whitespace) unless given.  Blank and whitespace-only lines are skipped.
    Decimal separator is '.'; a cell that is not a finite number in ASCII
    without digit separators fails with its 1-based line number in the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if start is None:
        raise DataFormatError("file is empty")

    header_line = lines[start]
    if delimiter is None:
        for cand in (",", ";", "\t"):
            if cand in header_line:
                delimiter = cand
                break
    delimiter = delimiter or None  # None splits on runs of whitespace

    def split(line: str) -> list[str]:
        return [p.strip() for p in line.split(delimiter)]

    header = [h.lower() for h in split(header_line)]
    for required in ("a", "m", "y"):
        if required not in header:
            raise DataFormatError(f"missing required column {required!r}", line=start + 1)
    x_names = sorted(
        (h for h in header if h.startswith("x") and h[1:].isdigit()),
        key=lambda h: int(h[1:]),
    )
    expected = set(x_names) | {"a", "m", "y"}
    unknown = [h for h in header if h not in expected]
    if unknown:
        raise DataFormatError(f"unexpected column(s) {unknown}", line=start + 1)
    if x_names and [int(h[1:]) for h in x_names] != list(range(1, len(x_names) + 1)):
        raise DataFormatError(f"covariate columns must be x1..xd without gaps, got {x_names}", line=start + 1)

    body = [ln for ln in lines[start + 1:] if ln.strip()]
    if not body:
        raise DataFormatError("no data rows")
    data = None
    # loadtxt parses in C but takes only a one-character delimiter other than
    # a newline, and names no line of the file when it fails.
    if delimiter is None or len(delimiter) == 1 and delimiter not in "\r\n":
        try:
            data = np.loadtxt(body, delimiter=delimiter, comments=None, ndmin=2)
        except ValueError:
            pass
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        data = _read_rows(lines, start + 1, split, len(header))

    col = {name: header.index(name) for name in header}
    x = data[:, [col[h] for h in x_names]] if x_names else np.empty((len(data), 0))
    try:
        return ObservationTable(x=x, a=data[:, col["a"]], m=data[:, col["m"]], y=data[:, col["y"]])
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc


def _read_rows(lines: list[str], first: int, split, width: int) -> np.ndarray:
    """``lines[first:]`` parsed one at a time; the first bad line fails with its number."""
    rows = []
    for lineno, line in enumerate(lines[first:], start=first + 1):
        if not line.strip():
            continue
        parts = split(line)
        if len(parts) != width:
            raise DataFormatError(f"expected {width} fields, found {len(parts)}", line=lineno)
        rows.append([_cell(p, lineno) for p in parts])
    return np.asarray(rows, dtype=float)


def _cell(text: str, lineno: int) -> float:
    """``text`` as a finite float, read as ``np.loadtxt`` reads it.

    ``float`` also takes digit separators (``1_000``) and non-ASCII digits;
    loadtxt refuses both, and so does this.
    """
    try:
        value = float(text) if text.isascii() and "_" not in text else None
    except ValueError:
        value = None
    if value is None:
        raise DataFormatError(f"non-numeric field {text!r}", line=lineno)
    if not math.isfinite(value):
        raise DataFormatError(f"non-finite field {text!r}", line=lineno)
    return value


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``r @ x = b`` for upper-triangular ``r``; ``b`` is a vector or has one column per system."""
    x = np.zeros(b.shape)
    for i in range(len(r) - 1, -1, -1):
        x[i] = (b[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
    return x


def _ols(design: np.ndarray, response: np.ndarray):
    """Least squares through QR with rank detection.

    Returns coefficients and classical standard errors.  Exact fits
    (zero residual) report standard errors clamped to the smallest positive
    float, so downstream scale invariants (sigma > 0) still hold.
    """
    n, p = design.shape
    try:
        q, r = np.linalg.qr(design)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(str(exc)) from exc
    diag = np.abs(np.diag(r))
    if diag.min() <= _RANK_RTOL * max(diag.max(), 1.0):
        raise SingularDesignError("design matrix is rank deficient")
    coef = _back_substitute(r, q.T @ response)
    resid = response - design @ coef
    # fsum, not a BLAS dot product, whose split across threads would move the
    # last digits with the thread count.  Squaring in place adds no array.
    resid *= resid
    rss = math.fsum(resid)
    df = n - p
    s2 = rss / df if df > 0 else 0.0
    r_inv = _back_substitute(r, np.eye(p))
    se = np.sqrt(np.maximum(s2 * np.sum(r_inv**2, axis=1), 0.0))
    se = np.maximum(se, np.finfo(float).tiny)
    return coef, se


def ols_mediation_fit(table: ObservationTable) -> EstimatePair:
    """Fit the two mediation regressions and package the coordinate estimates.

    Fits ``m ~ 1 + x + a`` and ``y ~ 1 + x + a + m``; gamma_hat is the
    exposure coefficient of the first fit and beta_hat the mediator
    coefficient of the second.  Scales are sqrt(n) times the fitted standard
    errors, so ``sigma / sqrt(n)`` reproduces them.
    """
    n = table.n
    ones = np.ones((n, 1))
    design_m = np.hstack([ones, table.x, table.a[:, None]])
    design_y = np.hstack([ones, table.x, table.a[:, None], table.m[:, None]])

    coef_m, se_m = _ols(design_m, table.m)
    coef_y, se_y = _ols(design_y, table.y)

    root_n = np.sqrt(n)
    return EstimatePair(
        gamma_hat=float(coef_m[-1]),
        beta_hat=float(coef_y[-1]),
        sigma_gamma=float(se_m[-1] * root_n),
        sigma_beta=float(se_y[-1] * root_n),
        n=n,
    )
