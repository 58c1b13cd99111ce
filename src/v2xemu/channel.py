"""Urban V2V radio channel: path loss, vehicle blockage, shadowing, rx power.

Path loss is condition-specific (frequency in GHz, distance in meters,
antenna to antenna in 3D):

* LOS:    38.77 + 16.7 log10(d) + 18.2 log10(fc)
* NLOSb:  36.85 + 30.0 log10(d) + 18.9 log10(fc)
* NLOSv:  LOS plus a single-knife-edge term for the blocking vehicle.

The knife-edge term uses the normalized obstruction nu = sqrt(2) * H / r_f
(H is how far the blocker body rises above the straight line connecting
the two antennas at the blocker's position, r_f the first Fresnel zone
radius there) and is zero for nu <= 0.7, else
6.9 + 20 log10(sqrt((nu - 0.1)^2 + 1) + nu - 0.1).

Shadowing is log-normal and spatially correlated per link: each update
mixes the previous value with fresh noise, value' = rho * value +
sqrt(1 - rho^2) * N(0, std^2), rho = exp(-delta_d / d_corr), where
delta_d is how far the two link endpoints moved combined since the last
update. Draw n of a link's episode is a pure function of its key and
n, so results are independent of evaluation order.

All of a step's links are shadowed in one call, which makes their draws
at once (see ``rng.draws``); the recursion then runs link by link on
Python floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import itemgetter

from .geometry import LinkCondition
from .rng import EpisodeTable

C_LIGHT = 299_792_458.0  # m/s

# Formula floor: below 1 m the log-distance fit is out of its domain, and
# overtaking maneuvers can bring antenna centers arbitrarily close.
MIN_ASSESS_DISTANCE = 1.0
# how long a link may go unseen before its shadowing is dropped [s]
DEFAULT_SHADOW_EVICTION_S = 60.0
# largest shadowing_std [dB], see RadioConfig
MAX_SHADOWING_STD = 1e9


@dataclass(frozen=True)
class RadioConfig:
    """Link budget parameters. ``carrier_freq`` must lie in 0.5-100 GHz,
    the range 3GPP TR 38.901 clause 7 states for its channel models, on
    which the TR 37.885 V2X path-loss fits used here build. Every field
    must be finite, and ``shadowing_std`` at most ``MAX_SHADOWING_STD``,
    so that ``tx_power - path loss - shadowing`` stays finite for every
    draw: a Box-Muller normal from 53-bit words has |z| <= z_max =
    sqrt(106 ln 2) ~ 8.57, and an update keeps |shadowing| <= M = z_max *
    2**27 * std, as rho * M + sqrt(1 - rho^2) * z_max * std <= M for every
    float rho < 1 (then 1 - rho >= 2**-53), and rho = 1 keeps the value.
    At the bound M is under 1.2e18 dB, far inside the float range."""

    tx_power: float = 23.0  # dBm
    sensitivity: float = -82.0  # dBm
    carrier_freq: float = 5.9  # GHz
    shadowing_std: float = 3.0  # dB
    decorrelation_distance: float = 10.0  # m

    def __post_init__(self):
        if not 0.5 <= self.carrier_freq <= 100.0:  # nan fails too
            raise ValueError(f"carrier_freq must be within [0.5, 100] GHz, got {self.carrier_freq}")
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not 0 <= self.shadowing_std <= MAX_SHADOWING_STD:
            raise ValueError(f"shadowing_std must be within [0, {MAX_SHADOWING_STD:g}] dB, got {self.shadowing_std}")
        if not self.decorrelation_distance > 0:
            raise ValueError(f"decorrelation_distance must be > 0, got {self.decorrelation_distance}")


def path_loss_los(distance_3d: float, carrier_freq_ghz: float) -> float:
    if distance_3d <= 0:
        raise ValueError("distance must be > 0")
    return 38.77 + 16.7 * math.log10(distance_3d) + 18.2 * math.log10(carrier_freq_ghz)


def path_loss_nlosb(distance_3d: float, carrier_freq_ghz: float) -> float:
    if distance_3d <= 0:
        raise ValueError("distance must be > 0")
    return 36.85 + 30.0 * math.log10(distance_3d) + 18.9 * math.log10(carrier_freq_ghz)


def wavelength(carrier_freq_ghz: float) -> float:
    return C_LIGHT / (carrier_freq_ghz * 1e9)


def fresnel_radius(wavelength_m: float, d1: float, d2: float) -> float:
    """First Fresnel zone radius at the obstacle, distances d1/d2 to the ends."""
    if not (d1 > 0 and d2 > 0):  # also rejects nan
        raise ValueError("obstacle must lie strictly between the endpoints")
    return math.sqrt(wavelength_m * d1 * d2 / (d1 + d2))


def knife_edge_loss(nu: float) -> float:
    """Single knife-edge diffraction loss in dB; zero below nu = 0.7."""
    if nu <= 0.7:
        return 0.0
    try:
        root = math.sqrt((nu - 0.1) ** 2 + 1.0)
    except OverflowError:  # a square beyond the float range; from 2**27 on the root rounds to nu - 0.1
        root = nu - 0.1
    return 6.9 + 20.0 * math.log10(root + nu - 0.1)


def link_height_at(h_tx: float, h_rx: float, d1: float, d2: float) -> float:
    """Height of the straight tx->rx line at the obstacle (linear in range)."""
    return h_tx + (h_rx - h_tx) * d1 / (d1 + d2)


def nlosv_extra_loss(
    h_obstacle: float, h_link_at_blocker: float, d1: float, d2: float, carrier_freq_ghz: float
) -> float:
    """Extra loss from one blocking vehicle, added on top of the LOS loss."""
    h = h_obstacle - h_link_at_blocker
    r_f = fresnel_radius(wavelength(carrier_freq_ghz), d1, d2)
    if r_f == 0.0:  # d1 * d2 underflows; the limit of nu is +-inf, or 0 for h = 0
        return math.inf if h > 0 else 0.0
    return knife_edge_loss(math.sqrt(2.0) * h / r_f)


def update_shadowing(value: float, delta_d: float, noise: float, std: float, d_corr: float) -> float:
    """One correlated-shadowing step; ``noise`` is a standard normal draw."""
    rho = math.exp(-delta_d / d_corr)
    return rho * value + math.sqrt(1.0 - rho * rho) * std * noise


class ShadowingTracker(EpisodeTable):
    """Per-link shadowing with distance-based decorrelation.

    Links are keyed by target id (the ego side is common to all); the
    state of each is its value in dB and the ego x/y and target x/y of its
    last update. A link never seen has a zero value and both ends
    infinitely far, so its first update is the stationary draw N(0,
    std^2). One update draws one normal. Links unseen for ``eviction_s``
    are dropped.
    """

    def __init__(self, seed: int, std: float, d_corr: float, eviction_s: float = DEFAULT_SHADOW_EVICTION_S):
        if not eviction_s >= 0:  # nan fails too; a nan horizon would evict nothing
            raise ValueError(f"eviction_s must be >= 0, got {eviction_s}")
        super().__init__(seed, "shadow", (0.0, math.inf, math.inf, math.inf, math.inf), float(eviction_s))
        self.std = float(std)
        self.d_corr = float(d_corr)

    def update_links(self, ids, ex: float, ey: float, tx, ty, t: float) -> list[float]:
        """The shadowing in dB at time ``t`` of the links to the distinct
        ``ids``, with the ego at (``ex``, ``ey``) and target i at
        (``tx[i]``, ``ty[i]``)."""
        entries, noise, _ = self._take(ids, t)
        std, d_corr = self.std, self.d_corr
        rows = [
            (update_shadowing(value, math.hypot(ex0 - ex, ey0 - ey) + math.hypot(tx0 - x, ty0 - y), z, std, d_corr), ex, ey, x, y, t, k, c + 1)
            for (value, ex0, ey0, tx0, ty0, _, k, c), z, x, y in zip(entries, noise, tx, ty)
        ]
        self._put(ids, rows)
        return list(map(itemgetter(0), rows))


def link_rx_power(
    radio: RadioConfig,
    condition: LinkCondition,
    distance_2d: float,
    h_ego: float,
    h_target: float,
    d1: float,
    d2: float,
    h_blocker: float,
    shadow_db: float,
) -> float:
    """Received power in dBm of one link, from floats.

    Antenna heights are above ground. ``d1`` and ``d2`` (along-link
    distances ego -> blocker -> target) and ``h_blocker`` (the blocking
    vehicle's height) are read on an NLOSv link only. The 3D distance is
    antenna to antenna and floored at MIN_ASSESS_DISTANCE. The formulas
    above run on Python floats, so there is one implementation of each and
    its results do not depend on how numpy vectorises on the host CPU.
    """
    fc = radio.carrier_freq
    d3d = max(math.hypot(distance_2d, h_target - h_ego), MIN_ASSESS_DISTANCE)
    if condition is LinkCondition.NLOSB:
        pl = path_loss_nlosb(d3d, fc)
    else:
        pl = path_loss_los(d3d, fc)
        if condition is LinkCondition.NLOSV:
            pl += nlosv_extra_loss(h_blocker, link_height_at(h_ego, h_target, d1, d2), d1, d2, fc)
    return radio.tx_power - pl - shadow_db
