"""Deterministic random draws derived from a single base seed.

Every random number flows from one seed through a named path such as
``(seed, "gnss", node_id, first_seen_t)``. Tracker draws are counter-based
(Salmon et al., SC'11): draw n of an episode is ``draw(key(seed, *path),
n)``. Synthesis and the stationary GNSS series draw from a numpy
``substream``. Both are stable across platforms, runs and hash seeds.
A tracker ends the episodes of the ids it has not seen for its horizon
with ``evict``.
"""
from __future__ import annotations

import hashlib
import heapq
import math

import numpy as np


def _name(parts: tuple) -> bytes:
    # surrogatepass: a trace id may hold a lone surrogate, which JSON can
    # escape; valid text encodes as with plain UTF-8
    return "/".join(str(p) for p in parts).encode("utf-8", "surrogatepass")


def substream(seed: int, *path: str | int | float) -> np.random.Generator:
    """A generator for the stream named by ``path`` under ``seed``; the
    same (seed, path) always yields an identical sequence."""
    digest = hashlib.sha256(_name((seed, *path))).digest()
    entropy = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def key(seed: int, *path: str | int | float) -> bytes:
    """The 16-byte key of the episode named by ``path`` under ``seed``."""
    return hashlib.blake2b(_name((seed, *path)), digest_size=16).digest()


def draw(key: bytes, n: int) -> tuple[float, float]:
    """Draw ``n`` of the episode ``key``, a pure function: a standard normal
    (Box-Muller, whose log1p(-u) never takes log(0)) and a uniform on [0, 1),
    from the top 53 bits of each 64-bit word of a keyed blake2b of n."""
    h = int.from_bytes(hashlib.blake2b(n.to_bytes(8, "little"), digest_size=24, key=key).digest(), "little")
    u, v = (h >> 11) % 2**53 * 2.0**-53, (h >> 75) % 2**53 * 2.0**-53
    return math.sqrt(-2.0 * math.log1p(-u)) * math.cos(2.0 * math.pi * v), (h >> 139) * 2.0**-53


def evict(entries: dict, due: list, cutoff: float, last: int) -> None:
    """End the episodes of the tracker ``entries`` (id -> tuple) last
    updated before ``cutoff``, at item ``last`` of the tuple.

    ``due`` is a heap of (time, id) items that holds, for every entry, at
    least one item no later than its last update. Only the items before
    ``cutoff`` are looked at: each drops its entry if that is stale, or is
    queued again at the entry's last update. So a call costs what comes
    due, not the size of the table."""
    while due and due[0][0] < cutoff:
        _, eid = heapq.heappop(due)
        entry = entries.get(eid)
        if entry is None:  # dropped through another item of the same id
            continue
        if entry[last] < cutoff:
            del entries[eid]
        else:
            heapq.heappush(due, (entry[last], eid))
