"""Independent reference implementations for pinning expected values.

Nothing in this module imports the package under test. The high-precision
formula oracles run on mpmath at 50 digits; the brute-force classifier is
deliberately unoptimized pure Python working on plain tuples, implementing
the link-condition definitions directly from their mathematical statement.
The reference fleet walks one vehicle at a time, in plain scalar loops.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np
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


def segment_intersects_building(a, b, verts) -> bool:
    """Closed-segment test against every wall of the polygon ``verts``;
    touching counts as blocked."""
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


def building_in_range(ex, ey, verts, r_b) -> bool:
    """Nearest vertex strictly within ``r_b`` of the ego; every building
    when ``r_b`` is infinite."""
    return math.isinf(r_b) or min((vx - ex) ** 2 + (vy - ey) ** 2 for vx, vy in verts) < r_b * r_b


def link_conditions(hit, between) -> tuple[str, ...]:
    """Per link, its label from the arrays ``classify_candidates`` returns:
    NLOSb where a building was hit, else NLOSv where a vehicle is between,
    else LOS."""
    return tuple(
        "NLOSb" if b >= 0 else "NLOSv" if v >= 0 else "LOS" for b, v in zip(hit.tolist(), between.tolist())
    )


def without_building_blockers(labels: dict) -> dict:
    """``{id: (condition, blocker)}`` with the NLOSb blocker left out, for
    comparing classifiers that may name different buildings hit."""
    return {tid: (cond, None if cond == "NLOSb" else blocker) for tid, (cond, blocker) in labels.items()}


# The classifier pads each building's bounding box by this much (m).
BOX_PAD = 1e-6


def padded_box_near(ex, ey, verts) -> float:
    """Distance from (ex, ey) to the bounding box of ``verts`` padded by
    ``BOX_PAD``, 0 inside it, with the classifier's expression: per axis
    the larger of (low side - ego) and -(high side - ego), floored at 0,
    then the root of the sum of the squares."""
    xs, ys = [x for x, _ in verts], [y for _, y in verts]
    gx = max(min(xs) - BOX_PAD - ex, -(max(xs) + BOX_PAD - ex), 0.0)
    gy = max(min(ys) - BOX_PAD - ey, -(max(ys) + BOX_PAD - ey), 0.0)
    gx *= gx
    gy *= gy
    return math.sqrt(gx + gy)


def first_blocker(ego, target, buildings, r_b):
    """The building a fresh classifier reports on the link ego -> target,
    or None: of the buildings in range whose wall touches the link, the
    first in (``padded_box_near`` from the ego, id) order. A link shorter
    than ``_DEGENERATE`` has none. ego, target: (x, y); buildings:
    [(id, [(x, y), ...]), ...]."""
    (ex, ey), (tx, ty) = ego, target
    dx, dy = tx - ex, ty - ey
    if math.sqrt(dx * dx + dy * dy) < _DEGENERATE:
        return None
    hit = [
        (padded_box_near(ex, ey, verts), bid)
        for bid, verts in buildings
        if building_in_range(ex, ey, verts, r_b)
        and any(segments_intersect(ego, target, verts[k], verts[(k + 1) % len(verts)]) for k in range(len(verts)))
    ]
    return min(hit)[1] if hit else None


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

    in_b = [(bid, verts) for bid, verts in sorted(buildings) if building_in_range(ex, ey, verts, r_b)]

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


# ---------------------------------------------------------------------------
# Sweep scoring oracle
# ---------------------------------------------------------------------------


def serial_sweep_scores(run, trace, rb_values, rv_values) -> tuple[int, list]:
    """The sweep's scores found the serial way: store the trace, run the
    unculled reference over it and then each (r_b, r_v) pair in turn,
    keep every step's NLOSb-target and delivered-id sets, and count the
    set differences step by step.

    ``run(r_b, r_v, steps)`` yields one result per step with
    ``target_ids``, ``conditions`` and ``messages``. Returns
    ``total_reference_nlosb`` and, per pair in rb-major order,
    ``(rb, rv, nlosb_missed, delivered_diff)``.
    """
    steps = list(trace)

    def record(r_b, r_v):
        return [
            (
                frozenset(tid for tid, c in zip(res.target_ids, res.conditions) if c == "NLOSb"),
                frozenset(m.sender_id for m in res.messages),
            )
            for res in run(r_b, r_v, steps)
        ]

    reference = record(math.inf, math.inf)
    rows = []
    for rb in rb_values:
        for rv in rv_values:
            records = record(float(rb), float(rv))
            assert len(records) == len(reference)
            missed = sum(len(ref[0] - rec[0]) for ref, rec in zip(reference, records))
            ddiff = sum(len(ref[1] ^ rec[1]) for ref, rec in zip(reference, records))
            rows.append((float(rb), float(rv), missed, ddiff))
    return sum(len(nlosb) for nlosb, _ in reference), rows


# ---------------------------------------------------------------------------
# synthetic city and fleet oracle
# ---------------------------------------------------------------------------

SPEED_RANGE = (8.0, 14.0)
CAR_SIZE = (4.5, 1.8, 1.5)
TRUCK_SIZE = (12.0, 2.5, 3.2)


def reference_city(cfg) -> list[dict]:
    """The building records of a ``SynthConfig``'s city: one square of
    side ``block_size`` per block, inset half a street from its grid
    lines, ids b0000, b0001, ... row by row."""
    nx, ny = cfg.grid
    p, half = cfg.block_size + cfg.street_width, cfg.street_width / 2.0
    records = []
    for bj in range(ny):
        for bi in range(nx):
            x0, y0 = bi * p + half, bj * p + half
            x1, y1 = x0 + cfg.block_size, y0 + cfg.block_size
            records.append({"id": f"b{len(records):04d}", "vertices": [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]})
    return records


def _vehicle_stream(seed: int, i: int) -> np.random.Generator:
    """Vehicle i's numpy generator: PCG64 seeded with the sha256 of
    "seed/veh/i" as eight little-endian 32-bit words."""
    digest = hashlib.sha256(f"{seed}/veh/{i}".encode()).digest()
    words = [int.from_bytes(digest[k : k + 4], "little") for k in range(0, 32, 4)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def _reference_pick(rng, node, nx, ny, exclude):
    """A uniform pick among the grid neighbours of ``node``, in the order
    (i-1, j), (i+1, j), (i, j-1), (i, j+1); ``exclude``, the intersection
    just left, is dropped unless it is the only neighbour."""
    i, j = node
    options = []
    if i > 0:
        options.append((i - 1, j))
    if i < nx:
        options.append((i + 1, j))
    if j > 0:
        options.append((i, j - 1))
    if j < ny:
        options.append((i, j + 1))
    if exclude is not None and len(options) > 1:
        options = [n for n in options if n != exclude]
    return options[int(rng.integers(0, len(options)))]


def reference_fleet(cfg) -> list[dict]:
    """The trace of a ``SynthConfig`` as the records of its lines, one
    vehicle at a time.

    Vehicle i (the ego first, then v0001, ...) draws from its own stream:
    a speed in ``SPEED_RANGE``, a uniform that makes it a truck when below
    ``truck_fraction``, a start intersection (x index, then y), its first
    target and its distance past the start, uniform on [0, pitch). Each
    step after the first it drives ``speed * step_period`` further, and at
    every intersection it reaches it picks the next one, never turning
    back. It keeps right, a quarter street off the street's axis."""
    nx, ny = cfg.grid
    p, lane, dt = cfg.block_size + cfg.street_width, cfg.street_width / 4.0, cfg.step_period
    vehicles = []
    for i in range(cfg.vehicle_count):
        rng = _vehicle_stream(cfg.seed, i)
        speed = float(rng.uniform(*SPEED_RANGE))
        size = TRUCK_SIZE if float(rng.random()) < cfg.truck_fraction else CAR_SIZE
        node = (int(rng.integers(0, nx + 1)), int(rng.integers(0, ny + 1)))
        target = _reference_pick(rng, node, nx, ny, None)
        s = float(rng.uniform(0.0, p))
        vehicles.append(["ego" if i == 0 else f"v{i:04d}", rng, speed, size, node, target, s])
    steps = []
    for k in range(cfg.step_count):
        records = []
        for vehicle in vehicles:
            vid, rng, speed, size, node, target, s = vehicle
            if k > 0:
                s += speed * dt
                while s >= p:
                    s -= p
                    node, target = target, _reference_pick(rng, target, nx, ny, node)
                vehicle[4:] = node, target, s
            ax, ay = node[0] * p, node[1] * p
            dx, dy = (target[0] * p - ax) / p, (target[1] * p - ay) / p
            heading = math.atan2(dy, dx) % (2 * math.pi)
            records.append({
                "id": vid, "x": ax + dx * s + dy * lane, "y": ay + dy * s - dx * lane, "speed": speed,
                "heading": heading if heading < 2 * math.pi else 0.0,
                "length": size[0], "width": size[1], "height": size[2],
            })
        steps.append({"t": k * dt, "ego": records[0], "vehicles": records[1:]})
    return steps
