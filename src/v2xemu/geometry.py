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

The building index is the one in-memory form of a building map, and
where its polygons are checked: one closed-segment test decides whether
a wall blocks a link and whether two walls of a polygon touch.

Determinism: buildings are kept sorted by id. The reported NLOSb blocker
is a building whose wall touches the link: of those hit, the first in
(near distance of its padded box, id) order, not always the smallest id.
The vehicles left after culling are sorted by id and the NLOSv blocker is
the first qualifying id. Results never depend on input ordering.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import MAX_COORD, Building, BuildingColumns, InvalidPolygonError, Position, VehicleColumns, VehicleState

DEFAULT_NLOSV_THRESHOLD = 1.0

# Below this separation the link geometry is meaningless; treat as LOS.
_DEGENERATE_DIST = 1e-12
# Building boxes are widened by this much (m) so that rounding in the
# box tests can only keep a building, never drop one the exact wall test
# would hit.
_BOX_PAD = 1e-6
# Largest link x wall or link x vehicle pairing built at once.
_MAX_PAIRS = 1 << 16
# Slack on each building's bearing interval (rad) and, relative, on its
# near distance, so that rounding can only keep extra link x building
# pairs (see LinkClassifier._first_building_hit).
_BEARING_PAD = 1e-9
_NEAR_SLACK = 1e-9
_PAD_SPAN = np.array([[-_BEARING_PAD], [_BEARING_PAD]])
# every bearing of the links' first listing, none of the second (> pi)
_ALL_BEARINGS = np.array([[-math.inf], [math.nextafter(math.pi, 4.0)]])


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
    the constructor takes ``BuildingColumns`` (as the loader reads a map)
    or an iterable of ``Building``, orders the buildings by id and raises
    ``InvalidPolygonError`` for the first one in that index order that is
    not a simple polygon (see ``_first_invalid_polygon``). It is read-only
    once built, so one index serves any number of emulators.

    ``ids`` holds the building ids in index order. ``buildings``, one
    ``Building`` per id, is built on first access; nothing that culls or
    classifies reads it.

    A radius query scans every building's box once and runs the exact
    nearest-vertex test only on the buildings whose box reaches the disc's
    bounding box.

    Walls are stored flat, grouped per building in index order and in edge
    order within a building; ``_wall_start``/``_wall_count`` locate each
    building's walls and ``_box_*`` (and ``_corners``) hold its bounding
    box, padded by ``_BOX_PAD`` so that a box test can only keep more than
    the exact one. Vertices must lie within ``MAX_COORD``, the loader's
    bound, which the classifier's rounding argument relies on.
    """

    def __init__(self, buildings):
        cols = BuildingColumns.of(buildings)
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
        bad = _first_invalid_polygon(self)
        if bad is not None:
            raise InvalidPolygonError(self.ids[bad[0]], bad[1])

        # per-building bounds over each building's run of vertices, (2, n)
        lo, hi = np.minimum.reduceat(xy, start, axis=1), np.maximum.reduceat(xy, start, axis=1)
        x0, y0 = lo - _BOX_PAD
        x1, y1 = hi + _BOX_PAD
        # the padded box's corners (x0, y0), (x1, y0), (x1, y1), (x0, y1), as (2, 4, n)
        self._corners = np.array(((x0, x1, x1, x0), (y0, y0, y1, y1)))
        self._box_minx, self._box_maxx = self._corners[0, :2]
        self._box_miny, self._box_maxy = self._corners[1, 1:3]

    def __len__(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def buildings(self) -> tuple[Building, ...]:
        """One ``Building`` per id, in index order, with float vertices."""
        xy = self._walls[:2].T.tolist()
        runs = zip(self.ids, self._wall_start.tolist(), self._wall_count.tolist())
        return tuple(Building(bid, tuple(map(tuple, xy[s : s + n]))) for bid, s, n in runs)

    @property
    def diagonal(self) -> float:
        """Diagonal of the bounding box of every vertex; 0.0 for no building."""
        if not self._walls.size:
            return 0.0
        ax, ay = self._walls[:2]
        return math.hypot(float(ax.max() - ax.min()), float(ay.max() - ay.min()))

    def candidate_indices(self, center: Position, radius: float) -> np.ndarray:
        """Indices (ascending) of buildings with nearest vertex strictly
        inside ``radius`` of ``center``."""
        if radius <= 0:
            return np.empty(0, dtype=np.intp)
        if math.isinf(radius):
            return np.arange(len(self.ids), dtype=np.intp)
        cx, cy = center.x, center.y
        # differences from the centre: rounding is monotone, so this keeps
        # every building the exact test below keeps (and maybe more)
        near = (
            (self._box_maxx - cx > -radius)
            & (self._box_minx - cx < radius)
            & (self._box_maxy - cy > -radius)
            & (self._box_miny - cy < radius)
        )
        cand = np.flatnonzero(near)
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
    array passes: buildings, paired with the links by bearing (see
    ``_first_building_hit``), then vehicles, as a link x vehicle matrix.
    Each works in blocks of at most ``_MAX_PAIRS`` link x wall or link x
    vehicle pairs.
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

    def select_candidates(self, ego: VehicleState, others) -> Candidates:
        """Cull ``others`` (``VehicleColumns``, or any iterable of
        ``VehicleState``) on their position columns, then sort only the
        vehicles left by id."""
        cols = VehicleColumns.of(others)
        ids, values = cols.ids, cols.values
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
        ``index.ids`` of a building hit (see ``_first_building_hit``)
        and the position in ``cand.target_ids`` of the first vehicle
        between, each -1 for none. The vehicle is only looked for on links
        no building blocks."""
        ego = np.array([[cand.ego.position.x], [cand.ego.position.y]])
        targets = np.array((cand.vx, cand.vy))
        rel = targets - ego  # the link vectors
        live = cand.distances >= _DEGENERATE_DIST
        hit = self._first_building_hit(ego, targets, rel, cand.distances, cand.building_indices)
        between = self._first_vehicle_between(rel, live & (hit < 0))
        return hit, between

    def _first_building_hit(self, ego, targets, rel, reach, b_idx) -> np.ndarray:
        """Per link, the index of a building with a wall that touches the
        closed segment ego -> target, or -1: of the buildings hit, the
        first in (near distance, index) order. Points are (2, n) arrays
        (the ego (2, 1)), ``rel`` is targets - ego and ``reach`` the link
        lengths; links shorter than ``_DEGENERATE_DIST`` are not tested.

        Every link starts at the ego, so seen from there a building's
        padded box covers one interval of bearings (all of them if the box
        holds the ego) and begins at the box's near distance. A link is
        paired with the buildings whose interval holds its bearing and
        whose near distance it reaches; only the walls of those pairs get
        the exact test, each link's nearest pair first, then the other
        pairs of the links still open.

        The pairing can only keep extra pairs. A wall point on a link lies
        in the box, at the link's bearing and no farther than its length.
        Coordinates are within ``MAX_COORD``, so a difference from the ego
        is below 2e9 m and rounds by at most 1.2e-7 m, well inside
        ``_BOX_PAD``: the padded box taken relative to the ego still holds
        the building, and its corners' bearings and near distance bound
        the building's. What rounding is left, ``arctan2``'s few ulp of pi
        on each bearing (with the link's own rounded differences, below
        1e-15 rad) and a few ulp on each length, ``_BEARING_PAD`` and
        ``_NEAR_SLACK`` cover many times over.
        """
        out = np.empty(reach.size, dtype=np.intp)
        out.fill(-1)
        if reach.size == 0 or b_idx.size == 0:
            return out
        idx = self.index
        # the links by bearing, listed twice, the second time at bearing +
        # 2*pi, so that the bearings of any box are one range of the list
        bearing = np.arctan2(rel[1], rel[0])
        order = bearing.argsort()
        bearing = bearing[order]
        bearing = np.concatenate((bearing, bearing + 2 * math.pi))

        corner = idx._corners.take(b_idx, axis=2)
        corner -= ego[:, None]
        gap = np.maximum(corner[:, 0], -corner[:, 2])  # from (x0, y0) and (x1, y1)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        near = np.sqrt(gap[0] + gap[1])
        # a box left of the ego (x1 < 0) is turned by pi about it, which
        # keeps its corners' bearings within (-pi/2, pi/2), so min and max
        # bound them
        turn = np.copysign(1.0, corner[0, 1])
        corner *= turn
        bearings = np.arctan2(corner[1], corner[0])
        bearings += (turn < 0) * math.pi
        span = np.array((bearings.min(axis=0), bearings.max(axis=0)))
        span += _PAD_SPAN
        if not near.all():  # a box that holds the ego takes every bearing
            span[:, near == 0] = _ALL_BEARINGS
        # the padding keeps every link that can hit off the ends of a span
        first, count = bearing.searchsorted(span)
        count -= first
        # the buildings with links in their bearings, in (near distance, index) order
        some = count.nonzero()[0]
        some = some[near[some].argsort(kind="stable")]
        b_idx, near, first, count = b_idx[some], near[some] * (1 - _NEAR_SLACK), first[some], count[some]
        np.maximum(near, _DEGENERATE_DIST, out=near)  # which no shorter link reaches
        walls = (count * idx._wall_count[b_idx]).cumsum()
        for lo_b, hi_b in _blocks(walls, _MAX_PAIRS):
            if lo_b:  # links hit in a nearer block are done
                reach = np.where(out < 0, reach, -1.0)
            n = count[lo_b:hi_b]
            end = n.cumsum()
            pos = np.arange(end[-1]) + (first[lo_b:hi_b] - end + n).repeat(n)
            link = order.take(pos, mode="wrap")
            keep = reach[link] >= near[lo_b:hi_b].repeat(n)
            link, bld = link[keep], b_idx[lo_b:hi_b].repeat(n)[keep]
            by_link = link.argsort(kind="stable")  # then (near distance, index)
            link, bld = link[by_link], bld[by_link]
            head = _run_starts(link)
            hl, hb = self._hits(ego, targets, link[head], bld[head])
            out[hl] = hb
            rest = (~head & (out[link] < 0)).nonzero()[0]
            if rest.size:  # the other pairs of the links still open
                hl, hb = self._hits(ego, targets, link[rest], bld[rest])
                head = _run_starts(hl)
                out[hl[head]] = hb[head]
        return out

    def _hits(self, ego, targets, link, b):
        """The walls of buildings ``b`` that touch the segments from
        ``ego`` to the columns ``link`` of ``targets``, as (link, building)
        arrays in the order of the pairs; a pair hit by several walls is
        listed once per wall."""
        idx = self.index
        w = idx.wall_indices(b)
        link = link.repeat(idx._wall_count[b])
        wall = idx._walls.take(w, axis=1)
        hit = _segment_hits(ego, targets.take(link, axis=1), wall[:2], wall[2:])
        return link[hit], idx._wall_bld[w[hit]]

    def _first_vehicle_between(self, rel, rows) -> np.ndarray:
        """Per link (``rel``: the (2, n) link vectors), the position (in id
        order) of the first other in-range vehicle inside the link
        corridor, or -1. Only links flagged in ``rows`` are tested."""
        vx, vy = rel
        out = np.empty(vx.size, dtype=np.intp)
        out.fill(-1)
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


def _first_invalid_polygon(idx: SpatialIndex) -> tuple[int, str] | None:
    """The first building that is not a simple polygon and its first
    violation, or None. The rules, in order: three vertices, no zero-length
    wall, then over the wall pairs (i, j > i) adjacent walls that do not
    fold back and other walls that do not touch. The pairs are checked in
    groups of about ``_MAX_PAIRS``, up to the first building that breaks
    one of the first two rules."""
    count, start, bld = idx._wall_count, idx._wall_start, idx._wall_bld
    walls = idx._walls
    ax, ay, bx, by = walls
    zero = (ax == bx) & (ay == by)
    bad = count < 3
    bad[bld[zero]] = True
    first = int(np.argmax(bad)) if bad.any() else count.size
    rows = int(start[first]) if first < count.size else ax.size
    # row i pairs wall i with the later walls of its building
    later = (start + count - 1)[bld[:rows]] - np.arange(rows)
    for lo, hi in _blocks(later.cumsum(), _MAX_PAIRS):
        n = later[lo:hi]
        i = np.repeat(np.arange(lo, hi), n)
        j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(n) - n, n)
        gap = j - i
        adj = (gap == 1) | (gap == count[bld[i]] - 1)
        hit = np.empty(i.size, dtype=bool)
        # adjacent walls p -> q: p ends where q starts
        p, q = np.where(gap == 1, i, j)[adj], np.where(gap == 1, j, i)[adj]
        p, q = walls.take(p, axis=1), walls[2:].take(q, axis=1)
        hit[adj] = _folds_back(p[2:], p[:2], q)
        p, q = walls.take(i[~adj], axis=1), walls.take(j[~adj], axis=1)
        hit[~adj] = _segment_hits(p[:2], p[2:], q[:2], q[2:])
        if hit.any():
            k = int(np.argmax(hit))
            b = int(bld[i[k]])
            return b, f"edges {i[k] - start[b]} and {j[k] - start[b]} {'fold back' if adj[k] else 'intersect'}"
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
