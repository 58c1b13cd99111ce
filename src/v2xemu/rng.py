"""Deterministic named RNG sub-streams derived from a single base seed.

Every random draw in the emulator flows from one 64-bit seed through a
named stream path such as ``(seed, "gnss", node_id, first_seen_t)``.
Streams are independent of each other and stable across platforms and
runs, so adding a vehicle to a scenario never perturbs the draws of any
other vehicle.
"""
from __future__ import annotations

import hashlib

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; do it at import, not inside a step


def _entropy(parts: tuple) -> list[int]:
    # surrogatepass: a trace id may hold a lone surrogate, which JSON can
    # escape; valid text encodes as with plain UTF-8
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode("utf-8", "surrogatepass")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]


def substream(seed: int, *path: str | int | float) -> np.random.Generator:
    """Return a generator for the stream named by ``path`` under ``seed``.

    Same (seed, path) always yields an identical sequence; distinct paths
    yield independent sequences.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy((seed, *path)))))
