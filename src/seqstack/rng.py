"""Deterministic random-number streams.

One root seed fans out into independently seeded named substreams so that
each stochastic site (parameter init, dropout, data sampling, shuffling)
is reproducible on its own, regardless of what the other sites consume.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_key(names: tuple[str, ...]) -> int:
    digest = hashlib.sha256("/".join(names).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SeedStreams:
    """Factory for named, deterministic numpy generators.

    Two SeedStreams built from the same seed hand out identical streams for
    identical names; distinct names give statistically independent streams.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, *names: str) -> np.random.Generator:
        if not names:
            raise ValueError("stream() needs at least one name")
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, _name_key(names)])
        )

    def __repr__(self) -> str:
        return f"SeedStreams(seed={self.seed})"


class NoDraws:
    """Hands out no generator, so `tensor.uniform_parameter` draws nothing."""

    def stream(self, *names: str) -> None:
        return None
