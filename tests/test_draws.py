"""The vector draw against a pure-Python reading of its documented formula,
and batched tracker updates against their recursions run one id at a time.

``rng.draws`` mixes uint64 columns with numpy; the reference below does
the same arithmetic on Python ints, mod 2**64, and Box-Muller on
``math``. Both must agree bit for bit, whatever else shares a batch.
"""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from v2xemu.channel import ShadowingTracker, update_shadowing
from v2xemu.gnss import TWO_PI, GnssConfig, GnssErrorState, GnssTracker, update_error
from v2xemu.rng import draws, key

M64 = 2**64


def reference_draw(k: int, n: int) -> tuple[float, float]:
    """Draw n of the episode k as the ``rng.draws`` docstring states it."""
    words = []
    for j in (1, 2, 3):
        s = (k + (3 * n + j) * 0x9E3779B97F4A7C15) % M64
        s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) % M64
        s = ((s ^ (s >> 27)) * 0x94D049BB133111EB) % M64
        words.append(((s ^ (s >> 31)) >> 11) * 2.0**-53)
    u1, u2, u3 = words
    return math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(2.0 * math.pi * u2), u3


def _vector(keys, counts):
    return list(zip(*draws(keys, counts)))


def test_the_first_words_are_splitmix64s_outputs():
    # splitmix64 seeded with 0 starts 0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4,
    # 0x06c45d188009454f: the three words of draw 0 of key 0
    z, u = reference_draw(0, 0)
    assert u == (0x06C45D188009454F >> 11) * 2.0**-53
    assert _vector([0], [0]) == [(z, u)]


uint64 = st.integers(0, M64 - 1)
EDGE_KEYS = (0, 1, 2**63, M64 - 1)
EDGE_COUNTS = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**53, M64 // 3, M64 - 1)


def test_edge_keys_and_counts_match_the_reference():
    pairs = [(k, n) for k in EDGE_KEYS for n in EDGE_COUNTS]
    keys, counts = zip(*pairs)
    assert _vector(keys, counts) == [reference_draw(k, n) for k, n in pairs]


@pytest.mark.parametrize("size", range(1, 10))
def test_both_mixing_paths_match_the_reference(size):
    # the column mixer and the reference, on a batch of each small size:
    # the sizes of a step's shadowing and GNSS calls
    pairs = [(k, n) for k in EDGE_KEYS for n in EDGE_COUNTS][-size:]
    keys, counts = zip(*pairs)
    assert _vector(keys, counts) == [reference_draw(k, n) for k, n in pairs]


@given(st.lists(st.tuples(uint64, st.one_of(st.integers(0, 10**6), st.integers(2**32, M64 - 1))), min_size=1, max_size=40))
def test_draws_match_the_reference(pairs):
    keys, counts = zip(*pairs)
    assert _vector(keys, counts) == [reference_draw(k, n) for k, n in pairs]


@given(uint64, st.integers(0, M64 - 1), st.lists(st.tuples(uint64, uint64), max_size=20), st.integers(0, 20))
def test_a_draw_does_not_depend_on_its_batch(k, n, others, at):
    # the same (key, count) alone and at any place among other keys and
    # counts: the same bits
    (alone,) = _vector((k,), (n,))
    batch = others[:at] + [(k, n)] + others[at:]
    keys, counts = zip(*batch)
    assert _vector(keys, counts)[min(at, len(others))] == alone == reference_draw(k, n)


def test_draws_of_nothing():
    assert draws([], []) == ([], [])


# ---------------------------------------------------------------------------
# a tracker's one call per step against its documented recursion, drawn by
# the reference and run one id at a time
# ---------------------------------------------------------------------------

ids = st.sampled_from([f"v{i}" for i in range(8)])
coord = st.floats(-500, 500)


@st.composite
def schedules(draw_):
    """Steps of (time, [(id, x, y), ...]) with distinct ids per step; time
    moves on, now and then past every horizon."""
    t, steps = 0.0, []
    for _ in range(draw_(st.integers(1, 12))):
        t += draw_(st.sampled_from((0.1, 0.1, 2.5, 70.0)))
        links = draw_(st.lists(st.tuples(ids, coord, coord), unique_by=lambda v: v[0], max_size=6))
        steps.append((t, links))
    return steps


def _reference_shadowing(schedule, ex, ey, horizon, seed=4, std=3.0, d_corr=10.0):
    """Per step, ({id: value}, the table after the step): the
    correlated-shadowing recursion of each link, its first update the
    stationary draw of the episode keyed by its id and that time. Each step
    ends by dropping the links last updated before ``t - horizon``."""
    state = {}
    for t, links in schedule:
        values = {}
        for vid, x, y in links:
            far = (0.0, math.inf, math.inf, math.inf, math.inf, t, key(seed, "shadow", vid, t), 0)
            value, ex0, ey0, tx0, ty0, _, k, n = state.get(vid, far)
            delta_d = math.hypot(ex0 - ex, ey0 - ey) + math.hypot(tx0 - x, ty0 - y)
            values[vid] = update_shadowing(value, delta_d, reference_draw(k, n)[0], std, d_corr)
            state[vid] = (values[vid], ex, ey, x, y, t, k, n + 1)
        state = {vid: entry for vid, entry in state.items() if entry[5] >= t - horizon}
        yield values, state


def _in_id_order(schedule):
    return [(t, sorted(links)) for t, links in schedule]


def _check_shadowing(schedule, ex, ey, horizon):
    # the tracker takes each step's links in schedule order, the reference
    # in id order: the values must not depend on it
    tracker = ShadowingTracker(seed=4, std=3.0, d_corr=10.0, eviction_s=horizon)
    for (t, links), (want, table) in zip(schedule, _reference_shadowing(_in_id_order(schedule), ex, ey, horizon)):
        vids = tuple(vid for vid, _, _ in links)
        tx, ty = ([v[i] for v in links] for i in (1, 2))
        assert dict(zip(vids, tracker.update_links(vids, ex, ey, tx, ty, t))) == want
        assert tracker._state == table


def _reference_gnss(schedule, cfg, seed=4):
    """Per step, ({id: (mu, theta)}, the table after the step): each node's
    error recursion, its first update the stationary draw of the episode
    keyed by its id and that time. Each step ends by dropping the nodes
    last updated before ``t - 20 * t_corr``."""
    state = {}
    for t, links in schedule:
        values = {}
        for vid, _, _ in links:
            mu, theta, last_t, k, n = state.get(vid, (0.0, 0.0, -math.inf, key(seed, "gnss", vid, t), 0))
            z, u = reference_draw(k, n)
            values[vid] = tuple(update_error(GnssErrorState(mu, theta), t - last_t, cfg, z, TWO_PI * u))
            state[vid] = (*values[vid], t, k, n + 1)
        state = {vid: entry for vid, entry in state.items() if entry[2] >= t - 20.0 * cfg.t_corr}
        yield values, state


def _check_gnss(schedule, cfg):
    tracker = GnssTracker(seed=4, cfg=cfg)
    for (t, links), (want, table) in zip(schedule, _reference_gnss(_in_id_order(schedule), cfg)):
        vids = [vid for vid, _, _ in links]
        assert dict(zip(vids, map(tuple, tracker.errors_at(vids, t)))) == want
        assert tracker._state == table


@given(schedules(), coord, coord)
def test_batched_shadowing_equals_one_link_at_a_time(schedule, ex, ey):
    _check_shadowing(schedule, ex, ey, horizon=5.0)


@given(schedules())
def test_batched_gnss_equals_one_node_at_a_time(schedule):
    _check_gnss(schedule, GnssConfig(t_corr=0.5))  # a horizon of 10 s


@given(schedules(), coord, coord)
def test_shadowing_follows_its_recursion(schedule, ex, ey):
    _check_shadowing(schedule, ex, ey, horizon=math.inf)  # no link is evicted


@given(schedules())
def test_gnss_follows_its_recursion(schedule):
    _check_gnss(schedule, GnssConfig(t_corr=1e6))  # no node is evicted
