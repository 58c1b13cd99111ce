"""Deterministic random draws derived from a single base seed.

Every random number flows from one seed through a named path such as
``(seed, "gnss", node_id, first_seen_t)``. Tracker draws are counter-based
(Salmon et al., SC'11): draw n of an episode is a pure function of the
episode's ``key(seed, *path)`` and n, computed by ``draws`` for whole
columns of (key, n) at once. Synthesis draws from a numpy ``substream``.
Both are stable across platforms, runs and hash seeds. Each tracker
keeps its episodes in an ``EpisodeTable``.

Only integer mixing and correctly rounded arithmetic run on numpy arrays;
every transcendental runs on Python's ``math``, one element at a time,
so that the output bytes never depend on how numpy vectorises those on
the host CPU.
"""
from __future__ import annotations

import math

import numpy as np

try:
    # the builtin module: ``import hashlib`` would also load OpenSSL's
    # libcrypto, which only ``substream`` (synthesis) needs
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

# splitmix64 (Steele et al., OOPSLA'14): the state's increment and the
# two multipliers of its output mix
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
# (3n + j) * gamma = n * (3 * gamma) + j * gamma, mod 2**64, for the words
# j = 1, 2, 3 of a draw: two for Box-Muller, one uniform
_GAMMA3 = np.uint64(3 * _GAMMA % 2**64)
_WORDS = np.arange(1, 4, dtype=np.uint64)[:, None] * np.uint64(_GAMMA)
_SHIFT30, _SHIFT27, _SHIFT31, _SHIFT53 = map(np.uint64, (30, 27, 31, 11))


def _name(parts: tuple) -> bytes:
    # surrogatepass: a trace id may hold a lone surrogate, which JSON can
    # escape; valid text encodes as with plain UTF-8
    return "/".join(str(p) for p in parts).encode("utf-8", "surrogatepass")


def substream(seed: int, *path: str | int | float) -> np.random.Generator:
    """A generator for the stream named by ``path`` under ``seed``; the
    same (seed, path) always yields an identical sequence."""
    import hashlib

    digest = hashlib.sha256(_name((seed, *path))).digest()
    entropy = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def key(seed: int, *path: str | int | float) -> int:
    """The key of the episode named by ``path`` under ``seed``: an 8-byte
    blake2b of the path, read little-endian, so an int in [0, 2**64)."""
    return int.from_bytes(blake2b(_name((seed, *path)), digest_size=8).digest(), "little")


def draws(keys, counts) -> tuple[list[float], list[float]]:
    """Draw ``counts[i]`` of the episode ``keys[i]`` for every i (two
    sequences of ints in [0, 2**64)): a standard normal z and a uniform u
    on [0, 1), each a pure function of its key and count alone.

    Word j (1, 2, 3) of draw n of key k is output 3n + j of splitmix64
    seeded with k, all mod 2**64:

        s = k + (3n + j) * 0x9E3779B97F4A7C15
        s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9
        s = (s ^ (s >> 27)) * 0x94D049BB133111EB
        w_j = (s ^ (s >> 31)) >> 11, read as w_j * 2**-53 in [0, 1)

    z = sqrt(-2 * log1p(-w_1)) * cos(2 * pi * w_2) (Box-Muller, whose
    log1p(-w_1) never takes log(0)) and u = w_3, as two lists of floats.
    The mixing runs on numpy uint64 arrays, Box-Muller on ``math``.
    """
    s = np.array(counts, np.uint64) * _GAMMA3 + _WORDS
    s += np.array(keys, np.uint64)
    w1, w2, w3 = ((_mix_columns(s) >> _SHIFT53) * 2.0**-53).tolist()  # exact: each word has 53 bits
    return [math.sqrt(-2.0 * math.log1p(-u)) * math.cos(2.0 * math.pi * v) for u, v in zip(w1, w2)], w3


def _mix_columns(s: np.ndarray) -> np.ndarray:
    """splitmix64's output function of every state of the uint64 array
    ``s``, in place."""
    s ^= s >> _SHIFT30
    s *= _MIX1
    s ^= s >> _SHIFT27
    s *= _MIX2
    s ^= s >> _SHIFT31
    return s


class EpisodeTable:
    """A tracker's per-id episodes, in order of last update; each tracker
    subclasses it. An entry is a flat tuple of numbers, ``(*state, last
    update, key, draws made)``, which the collector never tracks. A call
    of a tracker advances its distinct ids to a time after the last
    call's (else ``ValueError`` is raised and nothing changes), with one
    ``draws`` call; each id advances as if on its own, so their order does
    not matter. An id not in the table starts the episode ``key(seed,
    kind, id, t)`` from ``start``, last updated at -inf. Entries unseen for
    over ``horizon`` are dropped, so memory stays bounded; an id met again
    starts anew."""

    def __init__(self, seed: int, kind: str, start: tuple, horizon: float):
        self.seed = int(seed)
        self._kind, self._start, self._horizon = kind, start, horizon
        self._state: dict[str, tuple] = {}
        self._t = -math.inf  # time of the last call

    def _take(self, ids, t: float) -> tuple[list[tuple], list[float], list[float]]:
        """The popped entries of ``ids`` and their next draws, at a ``t`` after the last call's."""
        if not t > self._t:  # nan fails too
            raise ValueError(f"time {t} is not after the last update at {self._t}")
        self._t = t
        state = self._state
        # each entry is popped, so that its update goes to the end of the table
        entries = [state.pop(i, None) or (*self._start, -math.inf, key(self.seed, self._kind, i, t), 0) for i in ids]
        noise, u = draws([entry[-2] for entry in entries], [entry[-1] for entry in entries])
        return entries, noise, u

    def _put(self, ids, entries: list[tuple]) -> None:
        """Store the updated entries of ``ids`` at the end, then drop the stale head."""
        self._state.update(zip(ids, entries))
        self._evict(self._t - self._horizon)

    def _evict(self, cutoff: float) -> None:
        """Drop the entries last updated before ``cutoff``, the table's head."""
        state, stale = self._state, []
        for i, entry in state.items():
            if not entry[-3] < cutoff:  # a nan cutoff, inf - inf, drops nothing
                break
            stale.append(i)
        for i in stale:
            del state[i]
