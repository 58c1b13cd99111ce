"""Independent reference implementations for pinning expected values.

Nothing in this module imports the package under test. The high-precision
formula oracles run on mpmath at 50 digits; the brute-force classifier is
deliberately unoptimized pure Python working on plain tuples, implementing
the link-condition definitions directly from their mathematical statement.
"""
from __future__ import annotations

import json
import math

from mpmath import mp, mpf, log10 as mplog10, sqrt as mpsqrt

mp.dps = 50

C_LIGHT = mpf(299792458)


# ---------------------------------------------------------------------------
# JSON decoding oracle
# ---------------------------------------------------------------------------


def json_lines(path) -> list:
    """A JSON-lines file as the standard library reads it: (line number,
    value) for each line that is not blank after ``str.strip``, read in
    text mode and decoded by ``json.loads``. A line it cannot decode gives
    its ``json.JSONDecodeError`` in place of the value and ends the list."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append((lineno, json.loads(line)))
            except json.JSONDecodeError as exc:
                out.append((lineno, exc))
                break
    return out


def json_file(path):
    """A JSON file's value as ``json.load`` reads it in text mode, or its
    ``json.JSONDecodeError``."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            return exc


# ---------------------------------------------------------------------------
# building map oracle
# ---------------------------------------------------------------------------


class MapError(Exception):
    """A building map the reference loader refuses; the text is the
    loader's message."""


# The loader's bound on |x| and |y|, in meters.
MAX_COORD = 1e9


class _Point:
    """A vertex checked as it is made, as the loader once checked one."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite position ({x}, {y})")
        if not (abs(x) <= MAX_COORD and abs(y) <= MAX_COORD):
            raise ValueError(f"position ({x}, {y}) beyond {MAX_COORD:g} m")
        self.x, self.y = x, y


def building_map(path) -> list:
    """A building map file as the loader reads it, one record and one
    vertex object at a time: ``json`` decodes the file; every record, in
    file order, needs an ``id`` (compared as text, unique) and a list of
    vertices, each a pair that ``float()`` reads as a finite point with
    |x| and |y| at most ``MAX_COORD``; then every polygon, in id order,
    must pass ``polygon_violation``.

    Returns ``[(id, ((x, y), ...)), ...]`` in id order, or raises
    ``MapError`` with the message of the first error.
    """
    path = str(path)
    data = json_file(path)
    if isinstance(data, json.JSONDecodeError):
        raise MapError(f"{path}, line {data.lineno}: invalid JSON: {data.msg}")
    if not isinstance(data, list):
        raise MapError(f"{path}: top level must be an array of buildings")
    buildings = {}
    for i, rec in enumerate(data):
        where = f"{path}, record {i}"
        if not isinstance(rec, dict) or "id" not in rec or "vertices" not in rec:
            raise MapError(f"{where}: building record needs 'id' and 'vertices'")
        bid = str(rec["id"])
        if bid in buildings:
            raise MapError(f"{where}: duplicate building id {bid!r}")
        try:
            points = tuple(_Point(float(x), float(y)) for x, y in rec["vertices"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise MapError(f"{where}: bad vertex list for {bid!r}: {exc}") from exc
        buildings[bid] = tuple((p.x, p.y) for p in points)
    for bid in sorted(buildings):
        reason = polygon_violation(list(buildings[bid]))
        if reason is not None:
            raise MapError(f"building {bid!r}: {reason}")
    return sorted(buildings.items())


# ---------------------------------------------------------------------------
# high-precision formula oracles
# ---------------------------------------------------------------------------


def pl_los_hp(d3d, fc) -> mpf:
    return mpf("38.77") + mpf("16.7") * mplog10(mpf(d3d)) + mpf("18.2") * mplog10(mpf(fc))


def pl_nlosb_hp(d3d, fc) -> mpf:
    return mpf("36.85") + mpf(30) * mplog10(mpf(d3d)) + mpf("18.9") * mplog10(mpf(fc))


def knife_edge_branch_hp(nu) -> mpf:
    """The above-threshold branch expression, evaluated unconditionally."""
    nu = mpf(nu)
    return mpf("6.9") + mpf(20) * mplog10(mpsqrt((nu - mpf("0.1")) ** 2 + 1) + nu - mpf("0.1"))


def knife_edge_hp(nu) -> mpf:
    return mpf(0) if mpf(nu) <= mpf("0.7") else knife_edge_branch_hp(nu)


def fresnel_radius_hp(d1, d2, fc) -> mpf:
    lam = C_LIGHT / (mpf(fc) * mpf(10) ** 9)
    return mpsqrt(lam * mpf(d1) * mpf(d2) / (mpf(d1) + mpf(d2)))


def nu_hp(h_obstacle, h_link, d1, d2, fc) -> mpf:
    return mpsqrt(2) * (mpf(h_obstacle) - mpf(h_link)) / fresnel_radius_hp(d1, d2, fc)


def nlosv_extra_hp(h_obstacle, h_link, d1, d2, fc) -> mpf:
    return knife_edge_hp(nu_hp(h_obstacle, h_link, d1, d2, fc))


def los_delivery_boundary_hp(tx, sensitivity, fc) -> mpf:
    """Distance where tx - PL_LOS(d) = sensitivity, by bisection."""
    target = mpf(tx) - mpf(sensitivity)
    lo, hi = mpf(1), mpf(10) ** 9
    for _ in range(400):
        mid = (lo + hi) / 2
        if pl_los_hp(mid, fc) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# brute-force link classifier
# ---------------------------------------------------------------------------

_DEGENERATE = 1e-12


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_seg(ax, ay, bx, by, px, py):
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Closed segments; touching or collinear overlap counts."""
    d1 = _orient(q1[0], q1[1], q2[0], q2[1], p1[0], p1[1])
    d2 = _orient(q1[0], q1[1], q2[0], q2[1], p2[0], p2[1])
    d3 = _orient(p1[0], p1[1], p2[0], p2[1], q1[0], q1[1])
    d4 = _orient(p1[0], p1[1], p2[0], p2[1], q2[0], q2[1])
    if ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _on_seg(q1[0], q1[1], q2[0], q2[1], p1[0], p1[1]):
        return True
    if d2 == 0 and _on_seg(q1[0], q1[1], q2[0], q2[1], p2[0], p2[1]):
        return True
    if d3 == 0 and _on_seg(p1[0], p1[1], p2[0], p2[1], q1[0], q1[1]):
        return True
    if d4 == 0 and _on_seg(p1[0], p1[1], p2[0], p2[1], q2[0], q2[1]):
        return True
    return False


def polygon_violation(pts) -> str | None:
    """The first reason why the closed polygon ``pts`` ([(x, y), ...]) is
    not simple, or None: fewer than three vertices, then a zero-length
    edge, then over the edge pairs (i, j > i) in order, adjacent edges
    that fold back onto each other or other edges that touch."""
    n = len(pts)
    if n < 3:
        return f"needs >= 3 vertices, got {n}"
    for i in range(n):
        if pts[i] == pts[(i + 1) % n]:
            return f"degenerate zero-length edge at vertex {i}"
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            b1, b2 = pts[j], pts[(j + 1) % n]
            if (j + 1) % n == i or (i + 1) % n == j:
                # adjacent: only the far endpoints folding onto the
                # neighbouring edge is a violation
                shared = a2 if b1 == a2 else (a1 if b2 == a1 else None)
                if shared is None:
                    continue
                far_a = a1 if shared == a2 else a2
                far_b = b2 if shared == b1 else b1
                if _orient(*shared, *far_a, *far_b) == 0 and (
                    _on_seg(*shared, *far_a, *far_b) or _on_seg(*shared, *far_b, *far_a)
                ):
                    return f"edges {i} and {j} fold back"
            elif segments_intersect(a1, a2, b1, b2):
                return f"edges {i} and {j} intersect"
    return None


def point_to_line_distance(a, b, p) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    return abs(dx * (p[1] - a[1]) - dy * (p[0] - a[0])) / math.sqrt(dx * dx + dy * dy)


def bbox_diagonal(buildings, points=()) -> float:
    """Diagonal of the bounding box over building vertices and extra
    points. buildings: [(id, [(x, y), ...]), ...]; points: [(x, y), ...]."""
    xs = [x for _, verts in buildings for x, _ in verts] + [x for x, _ in points]
    ys = [y for _, verts in buildings for _, y in verts] + [y for _, y in points]
    if not xs:
        return 0.0
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def city_diagonal(cfg) -> float:
    """Diagonal of a synthetic grid city's full extent, boundary streets
    included; ``cfg`` has the ``grid``, ``pitch`` and ``street_width`` of
    a ``SynthConfig``."""
    nx, ny = cfg.grid
    return math.hypot(nx * cfg.pitch + cfg.street_width, ny * cfg.pitch + cfg.street_width)


EARTH_RADIUS_M = 6_371_008.8  # IUGG mean radius


def geodetic_to_planar(origin_lat, origin_lon, lat, lon) -> tuple[float, float]:
    """Equirectangular projection: degrees -> local (x, y) meters."""
    y = math.radians(lat - origin_lat) * EARTH_RADIUS_M
    x = math.radians(lon - origin_lon) * EARTH_RADIUS_M * math.cos(math.radians(origin_lat))
    return x, y


# Scalar helpers on point objects (anything with ``.x``/``.y``) and
# polygons (anything with ``.vertices`` of ``(x, y)`` pairs), for tests
# that state single geometric facts.


def orthogonal_distance(a, b, p) -> float:
    """Distance from point p to the infinite line through a and b.

    Uses the cross-product form |(b-a) x (p-a)| / |b-a|, which stays exact
    for vertical segments where a slope-based formula degenerates.
    """
    dx, dy = b.x - a.x, b.y - a.y
    norm = math.hypot(dx, dy)
    if norm < _DEGENERATE:
        raise ValueError("line endpoints coincide")
    return abs(dx * (p.y - a.y) - dy * (p.x - a.x)) / norm


def is_between(ego, target, third, threshold) -> bool:
    """True when ``third`` blocks the ego->target corridor: lateral offset
    strictly below ``threshold`` and projection strictly interior."""
    dx, dy = target.x - ego.x, target.y - ego.y
    l2 = dx * dx + dy * dy
    if l2 < _DEGENERATE * _DEGENERATE:
        return False
    t = ((third.x - ego.x) * dx + (third.y - ego.y) * dy) / l2
    if not (0.0 < t < 1.0):
        return False
    d_orth = abs(dx * (third.y - ego.y) - dy * (third.x - ego.x)) / math.sqrt(l2)
    return d_orth < threshold


def segment_intersects_building(a, b, building) -> bool:
    """Closed-segment test against every wall; touching counts as blocked."""
    verts = building.vertices
    n = len(verts)
    return any(segments_intersect((a.x, a.y), (b.x, b.y), verts[k], verts[(k + 1) % n]) for k in range(n))


def sort_then_filter(ego, vehicles, r_v):
    """The in-range vehicles, found the way culling first did it: sort all
    of them by id, then keep those whose center distance is strictly
    below ``r_v``. ego: (x, y); vehicles: [(id, x, y), ...] in any order.
    Returns [(id, distance, x, y), ...] in id order."""
    ex, ey = ego
    kept = []
    for vid, x, y in sorted(vehicles):
        # products, not ** 2: Python's float power goes through libm pow,
        # which can miss the correctly rounded square by an ulp
        dx, dy = x - ex, y - ey
        d = math.sqrt(dx * dx + dy * dy)
        if d < r_v:
            kept.append((vid, d, x, y))
    return kept


def brute_force_classify(ego, vehicles, buildings, r_b, r_v, threshold):
    """Reference classifier on plain tuples.

    ego: (x, y); vehicles: [(id, x, y), ...]; buildings:
    [(id, [(x, y), ...]), ...]. Returns {vehicle_id: (condition_string,
    blocker_id)} for every vehicle strictly within r_v; the blocker is the
    first in id order (building for NLOSb, vehicle for NLOSv) and None for
    LOS. Buildings count as in range when their nearest vertex is strictly
    within r_b.
    """
    ex, ey = ego

    in_b = []
    for bid, verts in sorted(buildings):
        if math.isinf(r_b):
            in_b.append((bid, verts))
            continue
        best = min((vx - ex) ** 2 + (vy - ey) ** 2 for vx, vy in verts)
        if best < r_b * r_b:
            in_b.append((bid, verts))

    in_v = []
    for vid, x, y in sorted(vehicles):
        if math.sqrt((x - ex) ** 2 + (y - ey) ** 2) < r_v:
            in_v.append((vid, x, y))

    out = {}
    for vid, tx, ty in in_v:
        d = math.sqrt((tx - ex) ** 2 + (ty - ey) ** 2)
        if d < _DEGENERATE:
            out[vid] = ("LOS", None)
            continue

        blocked_by = None
        for bid, verts in in_b:
            n = len(verts)
            for k in range(n):
                if segments_intersect((ex, ey), (tx, ty), verts[k], verts[(k + 1) % n]):
                    blocked_by = bid
                    break
            if blocked_by is not None:
                break
        if blocked_by is not None:
            out[vid] = ("NLOSb", blocked_by)
            continue

        dx, dy = tx - ex, ty - ey
        l2 = dx * dx + dy * dy
        between = None
        for sid, sx, sy in in_v:
            if sid == vid:
                continue
            t = ((sx - ex) * dx + (sy - ey) * dy) / l2
            if not (0.0 < t < 1.0):
                continue
            d_orth = abs(dx * (sy - ey) - dy * (sx - ex)) / math.sqrt(l2)
            if d_orth < threshold:
                between = sid
                break
        if between is not None:
            out[vid] = ("NLOSv", between)
        else:
            out[vid] = ("LOS", None)
    return out
