"""Seedable, splittable random streams.

Randomness goes through :class:`RandomStream`, a thin wrapper over numpy's
counter-based Philox generator: every ``(master_seed, stream_index)`` pair
names one reproducible stream, and distinct indices give statistically
independent streams that are O(1) to construct.  Every draw is a method of
a stream's ``generator``, or of ``generators(ks)``, which re-keys one
Philox to each stream in turn.  Parallel code owns one stream per work unit
and never shares generator state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator

__all__ = ["RandomStream"]

_UINT64 = 2**64


class RandomStream:
    """One independent, reproducible stream of randomness.

    Streams are identified by ``(master_seed, stream_index)``; equal pairs
    replay identical sequences.  The underlying Philox generator is keyed by
    the pair, so constructing stream ``k`` costs O(1) regardless of ``k`` and
    different indices never overlap.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        # Philox takes each as one 64-bit key word, so a value outside
        # [0, 2**64) would replay the stream of the value it wraps to.
        for name, value in (("master_seed", master_seed), ("stream_index", stream_index)):
            if not isinstance(value, (int, np.integer)) or not 0 <= value < _UINT64:
                raise ValueError(f"{name} must be an integer in [0, 2**64 - 1], got {value!r}")
        self.master_seed, self.stream_index, self._gen = master_seed, stream_index, None

    @property
    def generator(self) -> Generator:
        """The stream's numpy Generator, created on first use."""
        if self._gen is None:
            # Deferred: numpy.random takes about 12 ms to import, and only
            # the commands that draw need it.
            from numpy.random import Generator, Philox

            self._gen = Generator(Philox(key=self._key))
        return self._gen

    @property
    def _key(self) -> np.ndarray:
        # An explicit uint64 key: numpy would turn a list holding a value
        # >= 2**63 into float64, and nearby seeds would share one stream.
        return np.array([int(self.master_seed), int(self.stream_index)], dtype=np.uint64)

    def offset(self, k: int) -> "RandomStream":
        """A fresh stream at index ``stream_index + k`` (same master seed)."""
        return RandomStream(self.master_seed, self.stream_index + k)

    def generators(self, ks: Iterable[int]) -> Iterator[Generator]:
        """For each k in ``ks``, a Generator that draws what ``offset(k).generator`` draws.

        One Generator, its Philox re-keyed for each k: each is valid until the next is yielded.
        """
        from numpy.random import Generator, Philox

        bits = Philox(key=self._key)
        # A new Philox's state (counter and buffer zeroed, no uint32 half-word); only its key changes.
        gen, fresh = Generator(bits), bits.state
        for k in ks:
            fresh["state"]["key"] = self.offset(k)._key
            bits.state = fresh
            yield gen
