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

Determinism: buildings are kept sorted by id and walls in edge order, so
the reported NLOSb blocker is the first hit in that fixed order; the
vehicles left after culling are sorted by id and the NLOSv blocker is
likewise the first qualifying id. Results never depend on input ordering.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .scenario import Building, InvalidPolygonError, Position, VehicleColumns, VehicleState

DEFAULT_NLOSV_THRESHOLD = 1.0

# Below this separation the link geometry is meaningless; treat as LOS.
_DEGENERATE_DIST = 1e-12
# Building boxes are widened by this much (m) so that rounding in the
# box tests can only keep a building, never drop one the exact wall test
# would hit.
_BOX_PAD = 1e-6
# Largest link x building or link x vehicle matrix built at once.
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
    the constructor flattens an iterable of ``Building`` and raises
    ``InvalidPolygonError`` for the first building in index (id) order
    that is not a simple polygon (see ``_first_invalid_polygon``). It is
    read-only once built, so one index serves any number of emulators.

    A radius query scans every building's box once and runs the exact
    nearest-vertex test only on the buildings whose box reaches the disc's
    bounding box.

    Walls are stored flat, grouped per building in index order and in edge
    order within a building; ``_wall_start``/``_wall_count`` locate each
    building's walls and ``_box_*`` hold its bounding box, padded by
    ``_BOX_PAD`` so that a box test can only keep more than the exact one.
    """

    def __init__(self, buildings):
        self.buildings: tuple[Building, ...] = tuple(sorted(buildings, key=lambda b: b.id))
        count = np.fromiter((len(b.vertices) for b in self.buildings), dtype=np.intp, count=len(self.buildings))
        start = np.cumsum(count) - count
        # wall k runs from vertex k to the next vertex of its building
        flat = chain.from_iterable(chain.from_iterable(b.vertices for b in self.buildings))
        self._wax, self._way = np.fromiter(flat, dtype=np.float64, count=2 * count.sum()).reshape(-1, 2).T.copy()
        end = np.arange(1, self._wax.size + 1)
        end[(start + count - 1)[count > 0]] = start[count > 0]
        self._wbx, self._wby = self._wax[end], self._way[end]
        self._wall_bld = np.repeat(np.arange(count.size, dtype=np.intp), count)
        self._wall_count, self._wall_start = count, start
        bad = _first_invalid_polygon(self)
        if bad is not None:
            raise InvalidPolygonError(self.buildings[bad[0]].id, bad[1])

        # vertices padded by repetition so plain min() works row-wise
        slot = np.arange(count.max(initial=3))
        vertex = start[:, None] + np.where(slot < count[:, None], slot, 0)
        self._verts = np.stack((self._wax[vertex], self._way[vertex]), axis=-1)
        lo, hi = self._verts.min(axis=1), self._verts.max(axis=1)  # per-building bounds, (n, 2)
        self._box_minx, self._box_miny = lo[:, 0] - _BOX_PAD, lo[:, 1] - _BOX_PAD
        self._box_maxx, self._box_maxy = hi[:, 0] + _BOX_PAD, hi[:, 1] + _BOX_PAD

    def __len__(self) -> int:
        return len(self.buildings)

    @property
    def diagonal(self) -> float:
        """Diagonal of the bounding box of every vertex; 0.0 for no building."""
        if not self._wax.size:
            return 0.0
        return math.hypot(float(self._wax.max() - self._wax.min()), float(self._way.max() - self._way.min()))

    def candidate_indices(self, center: Position, radius: float) -> np.ndarray:
        """Indices (ascending) of buildings with nearest vertex strictly
        inside ``radius`` of ``center``."""
        if radius <= 0:
            return np.empty(0, dtype=np.intp)
        if math.isinf(radius):
            return np.arange(len(self.buildings), dtype=np.intp)
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
        v = self._verts[cand]
        d2 = (v[:, :, 0] - cx) ** 2 + (v[:, :, 1] - cy) ** 2
        return cand[d2.min(axis=1) < radius * radius]

    def wall_indices(self, building_indices: np.ndarray) -> np.ndarray:
        """Indices of the walls of the given buildings: grouped per
        building in the given order, in edge order within a building."""
        count = self._wall_count[building_indices]
        offset = np.cumsum(count) - count  # where each building's walls begin in the output
        return np.repeat(self._wall_start[building_indices] - offset, count) + np.arange(count.sum())


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
        w = idx.wall_indices(self.building_indices)
        return idx._wax[w], idx._way[w], idx._wbx[w], idx._wby[w]


class LinkClassifier:
    """Two-phase classifier bound to one building index.

    ``select_candidates`` does the range culling, ``classify_candidates``
    the per-link geometry; timing them separately is the whole point of
    the split. Classification handles all links of a step at once, in two
    array passes (buildings, then vehicles), each building its link x
    building or link x vehicle matrix in blocks of at most ``_MAX_PAIRS``
    elements.
    """

    def __init__(
        self,
        index: SpatialIndex,
        ranges: CullingRanges | None = None,
        nlosv_threshold: float = DEFAULT_NLOSV_THRESHOLD,
    ):
        if nlosv_threshold <= 0:
            raise ValueError("nlosv_threshold must be > 0")
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
        ``index.buildings`` of the first building hit and the position in
        ``cand.target_ids`` of the first vehicle between, each -1 for none.
        The vehicle is only looked for on links no building blocks."""
        ex, ey = cand.ego.position.x, cand.ego.position.y
        live = cand.distances >= _DEGENERATE_DIST
        hit = self._first_building_hit(ex, ey, cand.vx, cand.vy, live, cand.building_indices)
        between = self._first_vehicle_between(ex, ey, cand.vx, cand.vy, live & (hit < 0))
        return hit, between

    def _first_building_hit(self, ex, ey, tx, ty, rows, b_idx) -> np.ndarray:
        """Per link, the index of the first building (in index order) with
        a wall that touches the closed segment ego -> target, or -1. Only
        links flagged in ``rows`` are tested.

        Links are paired with the buildings whose padded box overlaps the
        link's box and straddles (or touches) the link's line; only the
        walls of those pairs get the exact test.
        """
        out = np.full(tx.size, -1, dtype=np.intp)
        rows = np.flatnonzero(rows)
        if rows.size == 0 or b_idx.size == 0:
            return out
        idx = self.index
        x0, x1 = idx._box_minx[b_idx], idx._box_maxx[b_idx]
        y0, y1 = idx._box_miny[b_idx], idx._box_maxy[b_idx]
        step = max(1, _MAX_PAIRS // b_idx.size)
        for lo in range(0, rows.size, step):
            r = rows[lo : lo + step]
            px, py = tx[r], ty[r]
            near = (
                (x1 >= np.minimum(ex, px)[:, None])
                & (x0 <= np.maximum(ex, px)[:, None])
                & (y1 >= np.minimum(ey, py)[:, None])
                & (y0 <= np.maximum(ey, py)[:, None])
            )
            li, bj = np.nonzero(near)  # row-major: per link, buildings in index order
            # side of the link line for the box corners: keep the pair
            # unless all four lie strictly on one side
            pqx, pqy = px[li] - ex, py[li] - ey
            sy0, sy1 = pqx * (y0[bj] - ey), pqx * (y1[bj] - ey)
            sx0, sx1 = pqy * (x0[bj] - ex), pqy * (x1[bj] - ex)
            keep = (np.minimum(sy0, sy1) - np.maximum(sx0, sx1) <= 0) & (
                np.maximum(sy0, sy1) - np.minimum(sx0, sx1) >= 0
            )
            li, b = li[keep], b_idx[bj[keep]]
            w = idx.wall_indices(b)
            lw = np.repeat(li, idx._wall_count[b])
            hit = _segment_hits(ex, ey, px[lw], py[lw], idx._wax[w], idx._way[w], idx._wbx[w], idx._wby[w])
            first = lw[hit]
            if first.size:
                new = np.ones(first.size, dtype=bool)
                new[1:] = first[1:] != first[:-1]
                out[r[first[new]]] = idx._wall_bld[w[hit][new]]
        return out

    def _first_vehicle_between(self, ex, ey, tx, ty, rows) -> np.ndarray:
        """Per link, the position (in id order) of the first other
        in-range vehicle inside the link corridor, or -1. Only links
        flagged in ``rows`` are tested."""
        out = np.full(tx.size, -1, dtype=np.intp)
        rows = np.flatnonzero(rows)
        if rows.size == 0 or tx.size <= 1:
            return out
        vx, vy = tx - ex, ty - ey
        step = max(1, _MAX_PAIRS // tx.size)
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


def link_conditions(hit: np.ndarray, between: np.ndarray) -> tuple[LinkCondition, ...]:
    """Per link, its condition from the arrays ``classify_candidates``
    returns: NLOSb where a building was hit, else NLOSv where a vehicle
    is between, else LOS."""
    return tuple(
        LinkCondition.NLOSB if b >= 0 else LinkCondition.NLOSV if v >= 0 else LinkCondition.LOS
        for b, v in zip(hit.tolist(), between.tolist())
    )


def nlosv_split(cand: Candidates, between: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Along-link distances ego -> blocker (``d1``) and blocker -> target
    (``d2``) of every NLOSv link, nan on the other links. The blocker is
    projected orthogonally onto the link, so ``d1 + d2`` is the 2D
    distance."""
    d1 = np.full(between.size, np.nan)
    d2 = np.full(between.size, np.nan)
    rows = np.flatnonzero(between >= 0)
    ex, ey = cand.ego.position.x, cand.ego.position.y
    dx, dy = cand.vx[rows] - ex, cand.vy[rows] - ey
    b = between[rows]
    t = ((cand.vx[b] - ex) * dx + (cand.vy[b] - ey) * dy) / (dx * dx + dy * dy)
    d = cand.distances[rows]
    d1[rows] = t * d
    d2[rows] = d - d1[rows]
    return d1, d2


def _first_invalid_polygon(idx: SpatialIndex) -> tuple[int, str] | None:
    """The first building that is not a simple polygon and its first
    violation, or None. The rules, in order: three vertices, no zero-length
    wall, then over the wall pairs (i, j > i) adjacent walls that do not
    fold back and other walls that do not touch. The pairs are checked in
    groups of about ``_MAX_PAIRS``, up to the first building that breaks
    one of the first two rules."""
    count, start, bld = idx._wall_count, idx._wall_start, idx._wall_bld
    ax, ay, bx, by = idx._wax, idx._way, idx._wbx, idx._wby
    zero = (ax == bx) & (ay == by)
    bad = count < 3
    bad[bld[zero]] = True
    first = int(np.argmax(bad)) if bad.any() else count.size
    rows = int(start[first]) if first < count.size else ax.size
    lo = 0
    while lo < rows:
        # row i pairs wall i with the later walls of its building; every
        # row but a building's last has one, so this window fills a group
        r = np.arange(lo, min(rows, lo + _MAX_PAIRS))
        n = (start + count - 1)[bld[r]] - r
        n = n[: max(1, int(np.searchsorted(np.cumsum(n), _MAX_PAIRS, side="right")))]
        i = np.repeat(r[: n.size], n)
        j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(n) - n, n)
        gap = j - i
        adj = (gap == 1) | (gap == count[bld[i]] - 1)
        hit = np.empty(i.size, dtype=bool)
        # adjacent walls p -> q: p ends where q starts
        p, q = np.where(gap == 1, i, j)[adj], np.where(gap == 1, j, i)[adj]
        hit[adj] = _folds_back(bx[p], by[p], ax[p], ay[p], bx[q], by[q])
        p, q = i[~adj], j[~adj]
        hit[~adj] = _segment_hits(ax[p], ay[p], bx[p], by[p], ax[q], ay[q], bx[q], by[q])
        if hit.any():
            k = int(np.argmax(hit))
            b = int(bld[i[k]])
            return b, f"edges {i[k] - start[b]} and {j[k] - start[b]} {'fold back' if adj[k] else 'intersect'}"
        lo += n.size
    if first == count.size:
        return None
    if count[first] < 3:
        return first, f"needs >= 3 vertices, got {count[first]}"
    return first, f"degenerate zero-length edge at vertex {int(np.argmax(zero[start[first]:]))}"


def _folds_back(sx, sy, fax, fay, fbx, fby) -> np.ndarray:
    """Adjacent walls fa -> s -> fb fold back: the three points are
    collinear and one far end lies in the box of s and the other."""
    on_a = _in_box(fbx, fby, np.minimum(sx, fax), np.maximum(sx, fax), np.minimum(sy, fay), np.maximum(sy, fay))
    on_b = _in_box(fax, fay, np.minimum(sx, fbx), np.maximum(sx, fbx), np.minimum(sy, fby), np.maximum(sy, fby))
    return ((fax - sx) * (fby - sy) - (fay - sy) * (fbx - sx) == 0) & (on_a | on_b)


def _segment_hits(px, py, qx, qy, ax, ay, bx, by) -> np.ndarray:
    """Closed-segment intersection of p -> q with a -> b, pairwise, after
    a bounding-box prefilter; touching counts."""
    sminx, smaxx = np.minimum(px, qx), np.maximum(px, qx)
    sminy, smaxy = np.minimum(py, qy), np.maximum(py, qy)
    wminx, wmaxx = np.minimum(ax, bx), np.maximum(ax, bx)
    wminy, wmaxy = np.minimum(ay, by), np.maximum(ay, by)
    near = (wmaxx >= sminx) & (wminx <= smaxx) & (wmaxy >= sminy) & (wminy <= smaxy)
    abx, aby = bx - ax, by - ay
    d1 = abx * (py - ay) - aby * (px - ax)
    d2 = abx * (qy - ay) - aby * (qx - ax)
    pqx, pqy = qx - px, qy - py
    d3 = pqx * (ay - py) - pqy * (ax - px)
    d4 = pqx * (by - py) - pqy * (bx - px)
    proper = ((d1 > 0) != (d2 > 0)) & (d1 != 0) & (d2 != 0)
    proper &= ((d3 > 0) != (d4 > 0)) & (d3 != 0) & (d4 != 0)
    # a zero cross product puts the point on the other segment's line;
    # it touches that segment when it lies in the segment's box
    touch = (d1 == 0) & _in_box(px, py, wminx, wmaxx, wminy, wmaxy)
    touch |= (d2 == 0) & _in_box(qx, qy, wminx, wmaxx, wminy, wmaxy)
    touch |= (d3 == 0) & _in_box(ax, ay, sminx, smaxx, sminy, smaxy)
    touch |= (d4 == 0) & _in_box(bx, by, sminx, smaxx, sminy, smaxy)
    return near & (proper | touch)


def _in_box(px, py, x0, x1, y0, y1):
    return (x0 <= px) & (px <= x1) & (y0 <= py) & (py <= y1)
