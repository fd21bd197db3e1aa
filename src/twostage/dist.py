"""Probability kernel: standard-normal and chi-square(2df) distributions plus
seedable, splittable random streams.

The CDF/quantile functions accept scalars or numpy arrays and are pure, so
they are safe to call from any thread.  The normal ones apply the standard
library's ``math.erfc`` and ``statistics.NormalDist`` elementwise, so the
package needs numpy and nothing else; the arrays on those paths are small.

Randomness goes through :class:`RandomStream`, a thin wrapper over numpy's
counter-based Philox generator: every ``(master_seed, stream_index)`` pair
names one reproducible stream, and distinct indices give statistically
independent streams that are O(1) to construct.  Parallel code owns one
stream per work unit and never shares generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator

__all__ = [
    "RandomStream",
    "std_normal_cdf",
    "std_normal_quantile",
    "chisq2_cdf",
    "chisq2_quantile",
    "sample_normal",
]

_UINT64 = 2**64


@dataclass
class RandomStream:
    """One independent, reproducible stream of randomness.

    Streams are identified by ``(master_seed, stream_index)``; equal pairs
    replay identical sequences.  The underlying Philox generator is keyed by
    the pair, so constructing stream ``k`` costs O(1) regardless of ``k`` and
    different indices never overlap.
    """

    master_seed: int
    stream_index: int = 0
    _gen: Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # Philox takes each as one 64-bit key word, so a value outside
        # [0, 2**64) would replay the stream of the value it wraps to.
        for name in ("master_seed", "stream_index"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or not 0 <= value < _UINT64:
                raise ValueError(f"{name} must be an integer in [0, 2**64 - 1], got {value!r}")

    @property
    def generator(self) -> Generator:
        """The stream's numpy Generator, created on first use."""
        if self._gen is None:
            # Deferred: numpy.random takes about 12 ms to import, and only
            # the commands that draw need it.
            from numpy.random import Generator, Philox

            # An explicit uint64 key: numpy would turn a list holding a value
            # >= 2**63 into float64, and nearby seeds would share one stream.
            key = np.array([int(self.master_seed), int(self.stream_index)], dtype=np.uint64)
            self._gen = Generator(Philox(key=key))
        return self._gen

    def offset(self, k: int) -> "RandomStream":
        """A fresh stream at index ``stream_index + k`` (same master seed)."""
        return RandomStream(self.master_seed, self.stream_index + k)


def _as_float(x, name: str):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _scalar_or_array(result, *inputs):
    if all(np.isscalar(x) or np.ndim(x) == 0 for x in inputs):
        return float(result)
    return result


# math.erfc over an array; stays accurate in the far tail, where 1 - erf(x) cancels.
_erfc = np.vectorize(math.erfc, otypes=[float])


def std_normal_cdf(x):
    """Standard normal CDF, accurate to better than 1e-12 in both tails."""
    arr = _as_float(x, "x")
    return _scalar_or_array(0.5 * _erfc(-arr / np.sqrt(2.0)), x)


def std_normal_quantile(p):
    """Inverse of :func:`std_normal_cdf` on the open interval (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("p must lie strictly inside (0, 1)")
    from statistics import NormalDist  # deferred: import twostage.cli does not need it

    return _scalar_or_array(np.vectorize(NormalDist().inv_cdf, otypes=[float])(arr), p)


def chisq2_cdf(x):
    """Chi-square CDF with 2 degrees of freedom: 1 - exp(-x/2)."""
    arr = _as_float(x, "x")
    if np.any(arr < 0.0):
        raise ValueError("x must be non-negative")
    # -expm1 keeps full precision for small x where 1 - exp(-x/2) cancels.
    return _scalar_or_array(-np.expm1(-arr / 2.0), x)


def chisq2_quantile(p):
    """Inverse of :func:`chisq2_cdf`: -2*log(1 - p) for p in [0, 1)."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr >= 0.0) & (arr < 1.0)):
        raise ValueError("p must lie in [0, 1)")
    return _scalar_or_array(-2.0 * np.log1p(-arr), p)


def sample_normal(stream: RandomStream, mean: float, sd: float, size: int | None = None):
    """Draw from N(mean, sd^2) on the given stream.

    ``sd == 0`` is the degenerate point mass at ``mean``.  With ``size=None``
    a single float is returned, otherwise an ndarray of that shape.
    """
    if not math.isfinite(mean):
        raise ValueError("mean must be finite")
    if not (math.isfinite(sd) and sd >= 0.0):
        raise ValueError(f"sd must be non-negative, got {sd}")
    if sd == 0.0:
        return mean if size is None else np.full(size, float(mean))
    draw = stream.generator.normal(mean, sd, size=size)
    return float(draw) if size is None else draw
