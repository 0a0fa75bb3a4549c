"""Reproducible named random streams.

Every stochastic component in :mod:`repro` draws from a named substream so
that (a) experiments are bit-reproducible given a root seed, and (b) adding
a new random consumer does not perturb the draws of existing ones (unlike a
single shared generator).  Substreams are derived with
``numpy.random.SeedSequence`` using a stable hash of the stream name.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_to_entropy(name: str) -> int:
    """Stable 128-bit integer derived from a stream name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


class RandomStreams:
    """A factory of independent, named ``numpy.random.Generator`` streams.

    Parameters
    ----------
    root_seed:
        Root seed for the whole experiment.

    Examples
    --------
    >>> streams = RandomStreams(42)
    >>> a = streams.stream("workload.ior")
    >>> b = streams.stream("pfs.oss.3")
    >>> a is not b
    True
    >>> streams2 = RandomStreams(42)
    >>> float(a.random()) == float(streams2.stream("workload.ior").random())
    True
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._cache: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (created on first use).

        Repeated calls with the same name return the *same* generator
        object, so state advances across calls; construct a fresh
        :class:`RandomStreams` to restart an experiment.
        """
        if name not in self._cache:
            seq = np.random.SeedSequence(
                entropy=self.root_seed, spawn_key=(_name_to_entropy(name),)
            )
            self._cache[name] = np.random.default_rng(seq)
        return self._cache[name]
