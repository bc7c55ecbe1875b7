"""Deterministic named random streams.

Every stochastic component of the simulation (meter noise, workload
jitter, page-dirtying, phase-duration variation) draws from its *own*
generator derived from a master seed and a stable string key.  This gives

* exact reproducibility of every experiment, table and figure from a seed;
* *independence between components*: adding a random draw to one component
  does not perturb the stream seen by any other component (a classic
  variance-reduction requirement for simulation studies).

Streams are derived with :class:`numpy.random.SeedSequence` spawned with a
key hashed via SHA-256, so keys can be arbitrary human-readable strings.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np
# numpy loads ``numpy.random`` on first use; loading it with this module
# lets a campaign worker pay that import at start-up, not in its first run.
import numpy.random  # noqa: F401

__all__ = ["derive_seed", "RandomStreams"]


def derive_seed(master_seed: int, key: str) -> int:
    """Derive a 64-bit child seed from a master seed and a string key.

    The derivation is a SHA-256 hash of the master seed and the key, so it
    is stable across Python processes and platforms (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{master_seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """A factory of named, independent :class:`numpy.random.Generator` streams.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> a = streams.stream("meter:m01")
    >>> b = streams.stream("meter:m01")
    >>> float(a.random()) == float(b.random())  # same key -> same stream
    True
    >>> c = streams.stream("meter:m02")
    >>> float(streams.stream("meter:m01").random()) != float(c.random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed this factory derives from."""
        return self._seed

    def stream(self, key: str) -> np.random.Generator:
        """Return the cached generator for ``key``, creating it on demand.

        Repeated calls with the same key return the *same* generator object
        (which therefore keeps advancing); use :meth:`fresh` to restart a
        stream from its derived seed.
        """
        gen = self._cache.get(key)
        if gen is None:
            gen = self.fresh(key)
            self._cache[key] = gen
        return gen

    def fresh(self, key: str) -> np.random.Generator:
        """Return a brand-new generator for ``key`` seeded deterministically."""
        return np.random.default_rng(derive_seed(self._seed, key))

    def spawn(self, key: str) -> "RandomStreams":
        """Create a child factory with a seed derived from ``key``.

        Used to give each experiment *run* its own independent universe of
        streams while remaining fully reproducible.
        """
        return RandomStreams(derive_seed(self._seed, f"spawn:{key}"))

    def keys(self) -> Iterator[str]:
        """Iterate over the keys of streams created so far."""
        return iter(tuple(self._cache))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomStreams seed={self._seed} streams={len(self._cache)}>"
