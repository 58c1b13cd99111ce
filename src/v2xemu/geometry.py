"""Link-condition classification with range culling.

Per step, every in-range ego<->vehicle link gets one of three labels:

* ``LOS``   nothing on the straight segment between the antennas,
* ``NLOSb`` some building wall crosses the segment (checked first, wins),
* ``NLOSv`` no wall, but a third vehicle sits in the corridor around the
  segment (lateral distance below a threshold, projection strictly
  between the endpoints).

Candidate sets are culled by two radii before any segment test runs:
buildings within ``r_b`` of the ego (nearest polygon vertex, strict),
found by one scan over the building boxes; vehicles within ``r_v``
(center distance, strict). Both radii may be infinite, which reproduces
the exhaustive reference behavior. Culling and classification are
separate phases so the pipeline can time them independently.

The building index is built from a map's ``BuildingColumns`` and is
where its polygons are checked: one closed-segment test decides whether
a wall blocks a link and whether two walls of a polygon touch.

Determinism: buildings are kept sorted by id. The reported NLOSb blocker
is a culled building whose wall touches the link. A classifier carries
each NLOSb link's blocker to its next step, keyed by target id, and if
that building is still culled and still touches the link, it is reported
again. Any other link gets, of the buildings hit, the first in (near
distance of its padded box, id) order, not always the smallest id. So the
blocker may depend on the steps before, but no label does. The vehicles
left after culling are sorted by id and the NLOSv blocker is the first
qualifying id. Results never depend on input ordering.
"""
from __future__ import annotations

import enum
import math
from itertools import compress, repeat
from dataclasses import dataclass, field

import numpy as np

from .scenario import MAX_COORD, BuildingColumns, InvalidPolygonError, Position, VehicleColumns, VehicleState

DEFAULT_NLOSV_THRESHOLD = 1.0

# Below this separation the link geometry is meaningless; treat as LOS.
_DEGENERATE_DIST = 1e-12
# Building boxes are widened by this much (m) so that rounding in the
# box tests can only keep a building, never drop one the exact wall test
# would hit.
_BOX_PAD = 1e-6
# Largest link x wall, link x building or link x vehicle pairing built at once.
_MAX_PAIRS = 1 << 16


class LinkCondition(str, enum.Enum):
    """A link label; a str, so JSON writes its value (``"NLOSb"``)."""

    LOS = "LOS"
    NLOSB = "NLOSb"
    NLOSV = "NLOSv"


@dataclass(frozen=True)
class CullingRanges:
    """Candidate radii in meters; ``inf`` disables culling on that axis."""

    r_b: float = math.inf
    r_v: float = math.inf

    def __post_init__(self):
        # written so that nan fails too: the box scan would cull everything
        if not (self.r_b >= 0 and self.r_v >= 0):
            raise ValueError("culling ranges must be >= 0")


class SpatialIndex:
    """Static buildings as flat arrays, and the one place that checks them:
    the constructor takes ``BuildingColumns`` (as the loader or
    ``scenario.buildings_from_json`` reads a map), orders the buildings by
    id and raises ``InvalidPolygonError`` for the first one in that index
    order that is not a simple polygon (see ``_first_invalid_polygon``) or
    has a vertex beyond ``MAX_COORD``. The polygon check tests each wall
    against the next wall of its building once, and two other walls only
    where their boxes meet. It is read-only once built, so one index serves
    any number of emulators.

    ``ids`` holds the building ids in index order.

    A radius query scans every building's box once and runs the exact
    nearest-vertex test only on the buildings whose box reaches the disc's
    bounding box.

    Walls are stored flat, grouped per building in index order and in edge
    order within a building; ``_wall_start``/``_wall_count`` locate each
    building's walls and ``_box_bounds`` holds its bounding box, padded by
    ``_BOX_PAD`` so that a box test can only keep more than the exact one.
    Vertices must lie within ``MAX_COORD``, the loader's bound, which keeps
    every difference and product in the classifier finite.
    """

    def __init__(self, cols: BuildingColumns):
        if not isinstance(cols, BuildingColumns):
            raise TypeError(f"SpatialIndex takes BuildingColumns, got {type(cols).__name__}")
        order = sorted(range(len(cols.ids)), key=cols.ids.__getitem__)
        self.ids: tuple[str, ...] = tuple(map(cols.ids.__getitem__, order))
        order = np.fromiter(order, np.intp, len(order))
        count = cols.counts[order]
        start = np.cumsum(count) - count
        self._walls = np.empty((4, count.sum()))  # rows ax, ay, bx, by
        xy = self._walls[:2]  # the vertices
        cols.xy.take(_runs((np.cumsum(cols.counts) - cols.counts)[order], count), axis=1, out=xy)
        self._wall_bld = np.repeat(np.arange(count.size, dtype=np.intp), count)
        # the bound the loader checks, for buildings made in code; nan fails too
        if not -MAX_COORD <= xy.min(initial=0.0) <= xy.max(initial=0.0) <= MAX_COORD:
            k = int(np.argmin((np.abs(xy) <= MAX_COORD).all(axis=0)))
            b = int(self._wall_bld[k])
            x, y = xy[:, k].tolist()
            raise InvalidPolygonError(self.ids[b], f"vertex {k - start[b]} ({x}, {y}) beyond {MAX_COORD:g} m")
        # wall k runs from vertex k to the next vertex of its building
        end = np.arange(1, xy.shape[1] + 1)
        end[(start + count - 1)[count > 0]] = start[count > 0]
        xy.take(end, axis=1, out=self._walls[2:])
        self._wall_count, self._wall_start = count, start
        bad = _first_invalid_polygon(self, end)
        if bad is not None:
            raise InvalidPolygonError(self.ids[bad[0]], bad[1])

        # per-building bounds over each building's run of vertices, (2, n)
        lo, hi = np.minimum.reduceat(xy, start, axis=1), np.maximum.reduceat(xy, start, axis=1)
        x0, y0 = lo - _BOX_PAD
        x1, y1 = hi + _BOX_PAD
        # (x0, y0, -x1, -y1): a box meets the one from lo to hi where these
        # are at most (hi, -lo), exactly
        self._box_bounds = np.array((x0, y0, -x1, -y1))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def diagonal(self) -> float:
        """Diagonal of the bounding box of every vertex; 0.0 for no building."""
        if not self._walls.size:
            return 0.0
        ax, ay = self._walls[:2]
        return math.hypot(float(ax.max() - ax.min()), float(ay.max() - ay.min()))

    def candidate_indices(self, center: Position, radius: float) -> np.ndarray:
        """Indices (ascending) of buildings with nearest vertex strictly
        inside ``radius`` (>= 0, as ``CullingRanges`` holds it) of
        ``center``."""
        if math.isinf(radius):
            return np.arange(len(self.ids), dtype=np.intp)
        cx, cy = center.x, center.y
        # differences from the centre, (x0 - cx, y0 - cy, cx - x1, cy - y1):
        # rounding is monotone, so this keeps every building the exact test
        # below keeps (and maybe more)
        cand = np.flatnonzero(((self._box_bounds + ((-cx,), (-cy,), (cx,), (cy,))) < radius).all(axis=0))
        walls = self.wall_indices(cand)  # wall k starts at vertex k
        d2 = (self._walls[0, walls] - cx) ** 2 + (self._walls[1, walls] - cy) ** 2
        count = self._wall_count[cand]
        return cand[np.minimum.reduceat(d2, count.cumsum() - count) < radius * radius]

    def wall_indices(self, building_indices: np.ndarray) -> np.ndarray:
        """Indices of the walls of the given buildings: grouped per
        building in the given order, in edge order within a building."""
        return _runs(self._wall_start[building_indices], self._wall_count[building_indices])


@dataclass
class Candidates:
    """Culling output: everything classification and the per-link work
    after it need, precomputed. The targets are the vehicles strictly
    within ``r_v``, sorted by id; every array holds one value per target,
    in that order."""

    ego: VehicleState
    target_ids: tuple[str, ...]
    distances: np.ndarray  # center distance
    vx: np.ndarray  # position
    vy: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    height: np.ndarray
    building_indices: np.ndarray
    index: SpatialIndex = field(repr=False)

    @property
    def wall_arrays(self) -> tuple[np.ndarray, ...]:
        """``(ax, ay, bx, by)`` of every culled wall, in wall order.

        Built on access, for callers that inspect the working set;
        classification reads the culled buildings' boxes instead.
        """
        idx = self.index
        return tuple(idx._walls.take(idx.wall_indices(self.building_indices), axis=1))


class LinkClassifier:
    """Two-phase classifier bound to one building index.

    ``select_candidates`` does the range culling, ``classify_candidates``
    the per-link geometry; timing them separately is the whole point of
    the split. Classification handles all links of a step at once, in two
    array passes: buildings (see ``_building_hits``), then vehicles, as a
    link x vehicle matrix. Each works in blocks of at most ``_MAX_PAIRS``
    link x building, link x wall or link x vehicle pairs.

    Consecutive steps see almost the same geometry, so the classifier
    keeps, per target id, the building that blocked that link at the last
    step it classified (``_hints``, rebuilt from every step's NLOSb links).
    A hint is only a first guess for the exact test.
    """

    def __init__(
        self,
        index: SpatialIndex,
        ranges: CullingRanges | None = None,
        nlosv_threshold: float = DEFAULT_NLOSV_THRESHOLD,
    ):
        if not 0 < nlosv_threshold < math.inf:  # nan fails too
            raise ValueError(f"nlosv_threshold must be within (0, inf), got {nlosv_threshold}")
        self.index = index
        self.ranges = ranges or CullingRanges()
        self.nlosv_threshold = float(nlosv_threshold)
        self._hints: dict[str, int] = {}  # target id -> index of its last blocker

    def select_candidates(self, ego: VehicleState, others: VehicleColumns) -> Candidates:
        """Cull ``others``, which must be ``VehicleColumns``, on their
        position columns, then sort only the vehicles left by id. Any other
        type raises ``TypeError``."""
        if not isinstance(others, VehicleColumns):
            raise TypeError(f"select_candidates takes VehicleColumns, got {type(others).__name__}")
        ids, values = others.ids, others.values
        ex, ey = ego.position.x, ego.position.y
        # sqrt of the explicit sum of squares (not hypot): keeps the
        # decision bit-identical to a plain scalar reimplementation
        dist = np.sqrt((values[:, 0] - ex) ** 2 + (values[:, 1] - ey) ** 2)
        near = sorted(np.flatnonzero(dist < self.ranges.r_v).tolist(), key=ids.__getitem__)
        x, y, speed, heading, _, _, height = values[near].T
        return Candidates(
            ego=ego,
            target_ids=tuple(ids[i] for i in near),
            distances=dist[near],
            vx=x,
            vy=y,
            speed=speed,
            heading=heading,
            height=height,
            building_indices=self.index.candidate_indices(ego.position, self.ranges.r_b),
            index=self.index,
        )

    def classify_candidates(self, cand: Candidates) -> tuple[np.ndarray, np.ndarray]:
        """Per link (in ``cand.target_ids`` order), the index into
        ``index.ids`` of a culled building hit and the position in
        ``cand.target_ids`` of the first vehicle between, each -1 for none.
        The vehicle is only looked for on links no building blocks.

        The building is the one that blocked the same target's link at the
        last step, if it is still culled and still touches the link, else
        the first hit in (near distance, index) order (see
        ``_building_hits``). Which building is reported may so depend on
        the steps before; whether one is, never does."""
        ego = np.array([[cand.ego.position.x], [cand.ego.position.y]])
        targets = np.array((cand.vx, cand.vy))
        rel = targets - ego  # the link vectors
        live = cand.distances >= _DEGENERATE_DIST
        hint = self._hinted(cand, live)
        hit = self._building_hits(ego, targets, rel, cand.distances, cand.building_indices, hint)
        between = self._first_vehicle_between(rel, live & (hit < 0))
        blocked = hit >= 0
        self._hints = dict(zip(compress(cand.target_ids, blocked.tolist()), hit[blocked].tolist()))
        return hit, between

    def _hinted(self, cand: Candidates, live: np.ndarray) -> np.ndarray:
        """Per link, the building that blocked it at the last step if that
        building is culled now and the link is not degenerate, else -1."""
        b_idx = cand.building_indices
        if b_idx.size == 0:
            return np.full(live.size, -1, dtype=np.intp)
        hint = np.fromiter(map(self._hints.get, cand.target_ids, repeat(-1)), np.intp, live.size)
        culled = b_idx.take(b_idx.searchsorted(hint), mode="clip") == hint  # ascending, and -1 is never in it
        return np.where(live & culled, hint, -1)

    def _building_hits(self, ego, targets, rel, reach, b_idx, hint) -> np.ndarray:
        """Per link, the index of a building of ``b_idx`` with a wall that
        touches the closed segment ego -> target, or -1. Arguments are as
        for ``_first_building_hit``; ``reach`` holds the link lengths and
        ``hint`` a building index of ``b_idx`` per link, or -1.

        The exact test runs first on each hinted (link, building) pair, and
        a hit decides the link. The links still open then go through
        ``_first_building_hit`` in blocks of at most ``_MAX_PAIRS`` link x
        building pairs, of links that point into the same quadrant and are
        about as long, each with only the buildings whose padded box meets
        its links' common box: a wall point on a link lies in both boxes,
        and these comparisons of stored coordinates are exact. A link with
        no hint, as on a drive's first step, starts open.
        """
        tried = (hint >= 0).nonzero()[0]
        out = np.full(reach.size, -1, dtype=np.intp)
        self._first_hits(ego, targets, tried, hint[tried], out)
        todo = ((out < 0) & (reach >= _DEGENERATE_DIST)).nonzero()[0]
        if todo.size == 0 or b_idx.size == 0:
            return out
        step = max(1, _MAX_PAIRS // b_idx.size)
        if todo.size > step:
            way = rel.take(todo, axis=1)
            todo = todo[np.lexsort((np.abs(way).max(axis=0), way[1] < 0, way[0] < 0))]
        for lo in range(0, todo.size, step):
            links = todo[lo : lo + step]
            ends = targets.take(links, axis=1)
            # the links' box as (hi, -lo), to compare with the buildings' bounds
            box = np.concatenate((np.maximum(ends, ego), -np.minimum(ends, ego))).max(axis=1, keepdims=True)
            nearby = b_idx[(self.index._box_bounds.take(b_idx, axis=1) <= box).all(axis=0)]
            if nearby.size:
                out[links] = self._first_building_hit(ego, ends, rel.take(links, axis=1), nearby)
        return out

    def _first_building_hit(self, ego, targets, rel, b_idx) -> np.ndarray:
        """Per link, the first building of ``b_idx`` (ascending) in (near
        distance of its padded box, index) order with a wall that touches
        the closed segment ego -> target, or -1. Points are (2, n) arrays
        (the ego (2, 1)), ``rel`` is targets - ego; callers pass only links
        of at least ``_DEGENERATE_DIST``. Only the pairs that
        ``_meeting_pairs`` keeps get the exact test."""
        out = np.full(rel.shape[1], -1, dtype=np.intp)
        link, b = _meeting_pairs(ego, targets, rel, self.index._box_bounds.take(b_idx, axis=1))
        self._first_hits(ego, targets, link, b_idx.take(b), out)
        return out

    def _first_hits(self, ego, targets, link, b, out) -> None:
        """Set ``out`` (all -1 on entry) of each link to the building of its
        first pair (``link``, ``b``) hit, testing the pairs in order in
        blocks of at most ``_MAX_PAIRS`` walls."""
        for lo, hi in _blocks(self.index._wall_count[b].cumsum(), _MAX_PAIRS):
            l, bb = link[lo:hi], b[lo:hi]
            if lo:  # links hit in an earlier block are done
                open_ = out[l] < 0
                l, bb = l[open_], bb[open_]
            hl, hb = self._hits(ego, targets, l, bb)
            head = _run_starts(hl)
            out[hl[head]] = hb[head]

    def _hits(self, ego, targets, link, b):
        """The walls of buildings ``b`` that touch the segments from
        ``ego`` to the columns ``link`` of ``targets``, as (link, building)
        arrays in the order of the pairs; a pair hit by several walls is
        listed once per wall."""
        idx = self.index
        count = idx._wall_count[b]
        w = _runs(idx._wall_start[b], count)
        link = link.repeat(count)
        wall = idx._walls.take(w, axis=1)
        hit = _segment_hits(ego, targets.take(link, axis=1), wall[:2], wall[2:])
        return link[hit], idx._wall_bld[w[hit]]

    def _first_vehicle_between(self, rel, rows) -> np.ndarray:
        """Per link (``rel``: the (2, n) link vectors), the position (in id
        order) of the first other in-range vehicle inside the link
        corridor, or -1. Only links flagged in ``rows`` are tested."""
        vx, vy = rel
        out = np.full(vx.size, -1, dtype=np.intp)
        rows = rows.nonzero()[0]
        if rows.size == 0 or vx.size <= 1:
            return out
        step = max(1, _MAX_PAIRS // vx.size)
        for lo in range(0, rows.size, step):
            r = rows[lo : lo + step]
            dx, dy = vx[r, None], vy[r, None]
            l2 = dx * dx + dy * dy
            t = (vx * dx + vy * dy) / l2
            d_orth = np.abs(dx * vy - dy * vx) / np.sqrt(l2)
            qual = (t > 0.0) & (t < 1.0) & (d_orth < self.nlosv_threshold)
            qual[np.arange(r.size), r] = False
            out[r] = np.where(qual.any(axis=1), qual.argmax(axis=1), -1)
        return out


def _meeting_pairs(ego, targets, rel, bounds):
    """The pairs (link, column of ``bounds``) of a link ego -> target and a
    padded box that it meets, link by link, each link's in (near distance,
    column) order. ``rel`` is targets - ego, and ``bounds`` holds boxes as
    ``SpatialIndex._box_bounds`` does.

    A link meets a box where the two boxes meet, compared exactly on stored
    coordinates, and the link's line does not leave the box on one side.
    The wall test hits only there, whatever the rounding: it needs the boxes
    to meet, and it puts a point p on a side of the line by comparing
    dx * (py - ey) with dy * (px - ex), rounded as here. Rounding is
    monotone, so over the box each product stays within its values at the
    box's sides; a wall end on the line, or ends on both sides, make the two
    ranges meet, as do the ego and the target, whose products are equal.
    """
    box = bounds - np.concatenate((ego, -ego))  # x0 - ex, y0 - ey, ex - x1, ey - y1
    gap = np.maximum(np.maximum(box[:2], box[2:]), 0.0)
    near = np.sqrt((gap * gap).sum(axis=0))
    x0, y0, x1, y1 = box * ((1.0,), (1.0,), (-1.0,), (-1.0,))
    link_box = np.concatenate((np.maximum(targets, ego), -np.minimum(targets, ego)))  # (hi, -lo)
    i, j = np.divmod(np.flatnonzero((bounds[:, None] <= link_box[:, :, None]).all(axis=0)), near.size)
    dx, dy = rel[0].take(i), rel[1].take(i)
    # dx * (y - ey) at y0 and y1, and dy * (x - ex) at x0 and x1
    ya, yb, xa, xb = dx * y0.take(j), dx * y1.take(j), dy * x0.take(j), dy * x1.take(j)
    keep = (np.maximum(ya, yb) >= np.minimum(xa, xb)) & (np.minimum(ya, yb) <= np.maximum(xa, xb))
    i, j = i[keep], j[keep]
    order = np.lexsort((near.take(j), i))  # by link, then near distance, then column
    return i.take(order), j.take(order)


def _first_invalid_polygon(idx: SpatialIndex, succ: np.ndarray) -> tuple[int, str] | None:
    """The first building that is not a simple polygon and its first
    violation, or None; ``succ[k]`` is the wall after wall k in its
    building. The rules, in order: three vertices, no zero-length wall,
    then over the wall pairs (i, j > i) adjacent walls that do not fold
    back and other walls that do not touch. The pairs are checked only in
    the buildings before the first one that breaks one of the first two
    rules, and the smallest (i, j) that breaks a rule is reported.

    Each wall is tested against its successor once, in one pass. The other
    pairs are built in groups of about ``_MAX_PAIRS`` and get the exact
    test only where their closed wall boxes meet, compared on the stored
    coordinates. This drops no hit of ``_segment_hits``: a proper crossing
    needs its ``overlap``, which is this box test, and a touching end lies
    in the other wall's box as well as in its own."""
    count, start, bld = idx._wall_count, idx._wall_start, idx._wall_bld
    walls = idx._walls
    ax, ay, bx, by = walls
    zero = (ax == bx) & (ay == by)
    bad = count < 3
    bad[bld[zero]] = True
    first = int(np.argmax(bad)) if bad.any() else count.size
    rows = int(start[first]) if first < count.size else ax.size
    found = []  # the first hit of each pass, as (i, j, verb)
    # adjacent walls k -> succ[k]: k ends where its successor starts; the
    # pair is (k, k + 1), or (first wall, k) for a building's last wall
    nxt = succ[:rows]
    k = np.flatnonzero(_folds_back(walls[2:, :rows], walls[:2, :rows], walls[2:].take(nxt, axis=1)))
    if k.size:
        i, j = np.minimum(k, nxt[k]), np.maximum(k, nxt[k])
        m = np.lexsort((j, i))[0]
        found.append((int(i[m]), int(j[m]), "fold back"))
        rows = found[0][0] + 1  # a later row cannot hold a smaller pair
    # row i pairs wall i with the walls j >= i + 2 of its building, but a
    # first wall not with the last
    row = np.arange(rows)
    later = (start + count - 1)[bld[:rows]] - row - 1 - (start[bld[:rows]] == row)
    np.maximum(later, 0, out=later)
    lo, hi = np.minimum(walls[:2], walls[2:]), np.maximum(walls[:2], walls[2:])
    for r0, r1 in _blocks(later.cumsum(), _MAX_PAIRS):
        n = later[r0:r1]
        i = np.repeat(np.arange(r0, r1), n)
        j = i + 2 + np.arange(i.size) - np.repeat(np.cumsum(n) - n, n)
        meet = ((lo.take(i, axis=1) <= hi.take(j, axis=1)) & (lo.take(j, axis=1) <= hi.take(i, axis=1))).all(axis=0)
        i, j = i[meet], j[meet]
        p, q = walls.take(i, axis=1), walls.take(j, axis=1)
        hit = _segment_hits(p[:2], p[2:], q[:2], q[2:])
        if hit.any():
            k = int(np.argmax(hit))
            found.append((int(i[k]), int(j[k]), "intersect"))
            break
    if found:
        i, j, verb = min(found)
        b = int(bld[i])
        return b, f"edges {i - start[b]} and {j - start[b]} {verb}"
    if first == count.size:
        return None
    if count[first] < 3:
        return first, f"needs >= 3 vertices, got {count[first]}"
    return first, f"degenerate zero-length edge at vertex {int(np.argmax(zero[start[first]:]))}"


def _folds_back(s, fa, fb) -> np.ndarray:
    """Adjacent walls fa -> s -> fb fold back: the three points are
    collinear and one far end lies in the box of s and the other. Points
    are (2, m) arrays."""
    u, v = fa - s, fb - s
    return (u[0] * v[1] - u[1] * v[0] == 0) & (_in_box(fb, s, fa) | _in_box(fa, s, fb))


def _segment_hits(p, q, a, b) -> np.ndarray:
    """Closed-segment intersection of p -> q with a -> b, pairwise;
    touching counts. Points are (2, m) arrays, or (2, 1) for one point
    shared by every pair.

    The signs of the four orientations (each end against the other
    segment's line) decide. Strictly opposite signs at both segments are a
    proper crossing, kept where the two boxes overlap: rounding can flip
    the sign of a tiny orientation of two segments far apart. An
    orientation of exactly zero puts that end on the other line, and it
    touches when it lies in the other segment's box; the boxes then
    overlap anyway, so these terms skip the box test and run only on the
    pairs with a zero orientation.
    """
    ab, pa, pq, qa, bp = b - a, p - a, q - p, q - a, b - p
    # the orientations, each a cross product: p and q against a -> b, then
    # a and b against p -> q; pa x pq is pq x (a - p), bit for bit
    d = np.array(
        (
            ab[0] * pa[1] - ab[1] * pa[0],
            ab[0] * qa[1] - ab[1] * qa[0],
            pa[0] * pq[1] - pa[1] * pq[0],
            pq[0] * bp[1] - pq[1] * bp[0],
        )
    )
    apart = np.sign(d)
    apart = apart[0::2] * apart[1::2]  # -1 where the ends lie strictly on both sides
    overlap = (np.maximum(a, b) >= np.minimum(p, q)) & (np.minimum(a, b) <= np.maximum(p, q))
    hit = (np.maximum(apart[0], apart[1]) < 0) & overlap[0] & overlap[1]
    if not apart.all():
        z = (apart[0] * apart[1] == 0).nonzero()[0]
        p, q, a, b = (np.broadcast_to(x, (2, hit.size))[:, z] for x in (p, q, a, b))
        on = d[:, z] == 0
        hit[z] = on[0] & _in_box(p, a, b) | on[1] & _in_box(q, a, b) | on[2] & _in_box(a, p, q) | on[3] & _in_box(b, p, q)
    return hit


def _blocks(total: np.ndarray, limit: int):
    """Consecutive ranges ``(lo, hi)`` of the items whose running sum is
    ``total``, each summing to at most ``limit`` or holding one item."""
    lo = done = 0
    while lo < total.size:
        hi = total.size
        if total[-1] - done > limit:
            hi = max(lo + 1, int(total.searchsorted(done + limit, "right")))
        yield lo, hi
        lo, done = hi, total[hi - 1]


def _runs(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The indices ``start[i]``, ..., ``start[i] + count[i] - 1`` of every
    run i, run after run."""
    offset = count.cumsum() - count  # where each run begins in the output
    return (start - offset).repeat(count) + np.arange(count.sum())


def _run_starts(v: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``v`` starts."""
    head = np.empty(v.size, dtype=bool)
    head[:1] = True
    np.not_equal(v[1:], v[:-1], out=head[1:])
    return head


def _in_box(p, a, b) -> np.ndarray:
    """Point p lies in the box of segment a -> b; (2, m) arrays."""
    inside = (np.minimum(a, b) <= p) & (p <= np.maximum(a, b))
    return inside[0] & inside[1]
