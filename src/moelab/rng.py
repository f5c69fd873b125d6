"""Deterministic counter-based random streams.

Every stochastic draw in the library is addressed by a tuple of tags, for
example ``("route_noise", layer_index, step)``, instead of consuming a shared
mutable stream.  The same seed and tags always reproduce the same values, no
matter how many unrelated draws happened in between.  That property is what
makes deferred tiling bitwise-equal to naive tiling, lets gradient checks
freeze the routing noise, and gives byte-identical reruns.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_words(seed: int, tags: tuple) -> np.ndarray:
    """Hash (seed, tags) into a 128-bit Philox key."""
    h = hashlib.blake2b(digest_size=16)
    h.update(str(int(seed)).encode())
    for t in tags:
        h.update(b"|")
        if isinstance(t, (bool,)):
            raise TypeError("stream tags must be ints or strings")
        if isinstance(t, (int, np.integer)):
            h.update(b"i" + str(int(t)).encode())
        elif isinstance(t, str):
            h.update(b"s" + t.encode())
        else:
            raise TypeError(f"stream tags must be ints or strings, got {type(t).__name__}")
    return np.frombuffer(h.digest(), dtype=np.uint64).copy()


class Rng:
    """Root of a family of independent, addressable Philox streams."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"

    def stream(self, *tags) -> np.random.Generator:
        """Fresh generator for this (seed, tags) address.

        Calling twice with the same tags gives generators that produce
        identical sequences; distinct tags give statistically independent
        streams.
        """
        return np.random.Generator(np.random.Philox(key=_key_words(self.seed, tags)))

    def normal(self, shape, *tags) -> np.ndarray:
        """Standard normal draw of `shape`, addressed by tags."""
        return self.stream(*tags).standard_normal(shape, dtype=np.float64)
