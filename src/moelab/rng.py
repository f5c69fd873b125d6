"""Deterministic counter-based random streams.

Every stochastic draw in the library is addressed by a tuple of tags, for
example ``("route_noise", layer_index, step)``, instead of consuming a shared
mutable stream.  The same seed and tags always reproduce the same values, no
matter how many unrelated draws happened in between.  That property is what
makes deferred tiling bitwise-equal to naive tiling, lets gradient checks
freeze the routing noise, and gives byte-identical reruns.

Building a Philox generator costs more than the small draws most callers
make, so the hot draws (``normal`` and ``raw``) re-key one Philox that the
``Rng`` owns instead: they reset its key and counter to the start of the
addressed stream and draw at once, with bitwise the values a fresh
``stream(*tags)`` gives.  A key is the blake2b digest of the seed and the
tags; the ``Rng`` hashes the seed once and copies that hasher per key.  An
``Rng`` is therefore not for sharing between threads: use one per thread.
Draws depend only on (seed, tags), so ``Rng(rng.seed)`` draws the same
bits as ``rng``; ``trainer.evaluate`` gives each helper thread such a
clone.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_words(prefix, tags: tuple) -> np.ndarray:
    """Hash (seed, tags) into a 128-bit Philox key, from prefix, the
    blake2b hasher that has taken the seed (left as it is)."""
    h = prefix.copy()
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
        self._prefix = hashlib.blake2b(str(self.seed).encode(),
                                       digest_size=16)
        self._bits = np.random.Philox(0)
        self._gen = np.random.Generator(self._bits)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"

    def stream(self, *tags) -> np.random.Generator:
        """Fresh generator for this (seed, tags) address.

        Calling twice with the same tags gives generators that produce
        identical sequences; distinct tags give statistically independent
        streams.
        """
        return np.random.Generator(
            np.random.Philox(key=_key_words(self._prefix, tags)))

    def _keyed(self, tags: tuple) -> np.random.Generator:
        """The owned generator, reset to the start of the (seed, tags)
        stream: the state of a fresh ``Philox(key=...)``.  Valid until the
        next keyed draw."""
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": _key_words(self._prefix, tags)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        return self._gen

    def normal(self, shape, *tags) -> np.ndarray:
        """Standard normal draw of `shape`, addressed by tags."""
        return self._keyed(tags).standard_normal(shape, dtype=np.float64)

    def raw(self, shape, *tags) -> np.ndarray:
        """The uint64 words of stream(*tags) in C order, as `shape`: those
        its random() maps to (raw >> 11) * 2**-53, one word per draw."""
        self._keyed(tags)
        return self._bits.random_raw(shape)
