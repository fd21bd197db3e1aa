"""Drifting parameter sequences, apart from ``asymptotics`` so ``simulate`` needs no regime classifier."""

from __future__ import annotations

import math
import re
from typing import NamedTuple

__all__ = ["PowerSequence"]


def _pow(x: float, y: float) -> float:
    """``x**y`` for x > 0 as libm's pow gives it, and inf where that overflows."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


def _product_bound(c: float, delta: float, n: float) -> float:
    """The product rule's bound ``c n^-delta`` on ``|gamma_hat beta_hat|``, from libm's pow."""
    return c * math.pow(n, -delta)


_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TERM_RE = re.compile(rf"^([+-]?(?:{_NUMBER})?)(n\^-({_NUMBER}(?:/{_NUMBER})?))?$")


def _shortest(x: float) -> str:
    """The shortest text that parses back to ``x``, with no trailing ".0"."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


class _Terms(NamedTuple):
    offset: float = 0.0
    terms: tuple[tuple[float, float], ...] = ()


class PowerSequence(_Terms):
    """One coordinate of a drifting parameter: offset + sum of coef * n**-exponent.

    Exponents are stored as the (non-negative) decay rates, so the term
    ``(3, 0.5)`` means ``3 * n**-0.5``.
    """

    __slots__ = ()

    def __new__(cls, offset: float = 0.0, terms: tuple[tuple[float, float], ...] = ()):
        if not math.isfinite(offset):
            raise ValueError("offset must be finite")
        for coef, exp in terms:
            if not (math.isfinite(coef) and math.isfinite(exp)):
                raise ValueError("term entries must be finite")
            if exp < 0:
                raise ValueError(f"exponent must be non-negative, got {exp}")
        return super().__new__(cls, offset, terms)

    def at(self, n: int | float) -> float:
        """Value of the sequence at one sample size n > 0."""
        n = float(n)
        value = float(self.offset)
        for coef, exp in self.terms:
            value = value + coef * _pow(n, -exp)
        return value

    @classmethod
    def parse(cls, text: str) -> "PowerSequence":
        """Parse strings like ``"0"``, ``"3n^-0.5"`` or ``"1+3n^-3/4"``.

        Each '+'/'-'-separated term is either a constant (added to the
        offset) or ``coef n^-exp`` with a decaying exponent; exponents may be
        decimals or simple fractions.  Numbers may use exponent notation
        (``1e+06n^-1.5e-05``), so the text of ``str`` parses back exactly.
        """
        # '^~' shields the exponent's minus sign from the term splitter, which
        # also leaves the sign of an 'e' exponent inside its number.
        s = text.replace(" ", "").replace("^-", "^~")
        if not s:
            raise ValueError("empty sequence expression")
        offset = 0.0
        terms: list[tuple[float, float]] = []
        for piece in re.findall(r"[+-]?(?:[eE][+-]|[^+-])+", s):
            piece = piece.replace("^~", "^-")
            m = _TERM_RE.match(piece)
            if m is None:
                raise ValueError(f"cannot parse sequence term {piece!r} in {text!r}")
            coef_text, has_n, exp_text = m.group(1), m.group(2), m.group(3)
            if coef_text in ("", "+", "-"):
                coef = -1.0 if coef_text == "-" else 1.0
                if not has_n:
                    raise ValueError(f"bare sign in sequence term {piece!r}")
            else:
                coef = float(coef_text)
            if has_n:
                num, _, den = exp_text.partition("/")
                if den and float(den) == 0.0:
                    raise ValueError(f"zero denominator in exponent of {piece!r} in {text!r}")
                terms.append((coef, float(num) / float(den) if den else float(num)))
            else:
                offset += coef
        return cls(offset, tuple(terms))

    def __str__(self) -> str:
        """Text that :meth:`parse` reads back to an equal sequence."""
        pieces = []
        if self.offset != 0.0 or not self.terms:
            pieces.append(_shortest(self.offset))
        for coef, exp in self.terms:
            lead = _shortest(coef)
            if pieces and not lead.startswith("-"):
                lead = "+" + lead
            if lead in ("1", "+1", "-1"):
                lead = lead[:-1]
            # abs: a -0.0 exponent would print as 'n^--0', which parse refuses.
            pieces.append(f"{lead}n^-{_shortest(abs(exp))}")
        return "".join(pieces)
