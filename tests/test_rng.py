import hashlib
import math

import numpy as np
import pytest

from v2xemu import rng
from v2xemu.rng import draws, key, substream


def test_same_path_same_stream():
    a = substream(42, "gnss", "v0001").random(8)
    b = substream(42, "gnss", "v0001").random(8)
    assert np.array_equal(a, b)


def test_different_seed_differs():
    a = substream(1, "gnss", "v0001").random(8)
    b = substream(2, "gnss", "v0001").random(8)
    assert not np.array_equal(a, b)


def test_different_path_differs():
    a = substream(7, "gnss", "v0001").random(8)
    b = substream(7, "gnss", "v0002").random(8)
    c = substream(7, "shadow", "v0001").random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_creation_order_irrelevant():
    first = substream(9, "shadow", "x")
    _ = substream(9, "shadow", "y").random(100)  # interleaved other stream
    second = substream(9, "shadow", "x")
    assert np.array_equal(first.random(16), second.random(16))


def test_key_names_an_episode():
    assert key(5, "shadow", "v1", 0.0) == key(5, "shadow", "v1", 0.0)
    paths = [(5, "shadow", "v1", 0.0), (6, "shadow", "v1", 0.0), (5, "gnss", "v1", 0.0), (5, "shadow", "v2", 0.0), (5, "shadow", "v1", 0.1)]
    assert len({key(*p) for p in paths}) == len(paths)
    assert 0 <= key(5, "shadow", "\ud800", 0.0) < 2**64  # a lone surrogate, which JSON can escape


@pytest.mark.parametrize(
    "path", [(5, "shadow", "v1", 0.0), (0, "gnss", "ego", 12.5), (2**64 - 1, "a/b", "", -0.0), (5, "shadow", "\ud800", 0.1), (7,)]
)
def test_key_is_the_8_byte_blake2b_of_the_path(path):
    name = "/".join(map(str, path)).encode("utf-8", "surrogatepass")
    assert key(*path) == int.from_bytes(hashlib.blake2b(name, digest_size=8).digest(), "little")


def test_draw_is_a_pure_function_of_key_and_count():
    k = key(3, "shadow", "v", 0.0)
    forward = list(zip(*draws([k] * 200, range(200))))
    # one at a time, interleaved with another episode and made in reverse:
    # the same values
    other = key(3, "shadow", "w", 0.0)
    backward = []
    for n in reversed(range(200)):
        draws((other,), (n,))
        (z,), (u,) = draws((k,), (n,))
        backward.append((z, u))
    assert backward[::-1] == forward
    assert all(isinstance(z, float) and isinstance(u, float) for z, u in forward)


def test_draw_differs_across_keys_and_counts():
    a, b = key(3, "shadow", "v", 0.0), key(3, "shadow", "v", 100.0)
    z, u = draws([a] * 100 + [b] * 100, [*range(100), *range(100)])
    values = {*z, *u}
    assert len(values) == 400


def test_draw_uniform_and_normal_are_well_formed():
    k = key(1, "rng-test", "moments")
    z, u = map(np.array, draws([k] * 20_000, range(20_000)))
    assert ((0.0 <= u) & (u < 1.0)).all()
    assert np.isfinite(z).all()
    assert abs(u.mean() - 0.5) < 0.01 and abs(z.mean()) < 0.03 and abs(z.std() - 1.0) < 0.02
    assert abs(np.corrcoef(z, u)[0, 1]) < 0.03


@pytest.mark.parametrize("word, u", [(0, 0.0), (2**64 - 1, 1.0 - 2.0**-53)], ids=["u=0", "u=1-2^-53"])
def test_draw_is_finite_at_both_ends_of_the_uniform(monkeypatch, word, u):
    # a mixer output of all zero or all one bits gives the smallest and the
    # largest uniform a draw can make; Box-Muller's log1p(-u) stays finite
    monkeypatch.setattr(rng, "_mix_columns", lambda s: np.full_like(s, word))
    (z,), (got,) = draws((key(1, "ends"),), (0,))
    assert got == u
    assert z == math.sqrt(-2.0 * math.log1p(-u)) * math.cos(2.0 * math.pi * u)
    assert math.isfinite(z) and abs(z) < 9.0
