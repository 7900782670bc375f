"""Network dimensioning: cost per delivered secret bit as a function of
single-link length, for relay chains and two-dimensional grids.

With a fixed cost per device and an exponential rate law, shorter links mean
more devices but faster links; the trade-off has an interior optimum. For a
chain spanning distance ``D`` with links of length ``l``, the continuous
relaxation minimizes ``(1/l) * 10**(alpha*l/10)``, whose stationary point is
``l* = 10 / (alpha * ln 10)``. A 2-D grid needs devices proportional to
``(D/l)**2`` but offers ``D/l`` parallel relay rows across any cut, so its
cost per aggregate bit reduces to the same objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import DeviceProfile
from .links import key_rate
from .model import full_mesh_link_count, network_access_link_count

# hop-by-hop relaying spends fragment + tag bytes per link: 1024/(1024+32)
RELAY_EFFICIENCY = 1024 / 1056

# device-count parsimony: when several integer link counts price within this
# band of the optimum, prefer the fewest devices (longest links)
COST_TIE_BAND = 0.02


class Geometry(str, Enum):
    CHAIN = "chain"
    GRID2D = "grid"


@dataclass
class PlannerParams:
    device_cost: float = 1.0
    r0_bps: float = 10000.0
    alpha_db_per_km: float = 0.2
    total_distance_km: float = 100.0
    geometry: Geometry = Geometry.CHAIN
    target_pair_rate_bps: float = 1000.0

    def __post_init__(self) -> None:
        if min(self.device_cost, self.r0_bps, self.alpha_db_per_km,
               self.total_distance_km, self.target_pair_rate_bps) <= 0:
            raise ValueError("planner parameters must be positive")

    def profile(self) -> DeviceProfile:
        return DeviceProfile(
            id="planner", r0_bps=self.r0_bps, alpha_db_per_km=self.alpha_db_per_km,
            max_length_km=float("inf"), restart_latency_s=0.0,
        )


def link_count(total_km: float, link_km: float) -> int:
    return math.ceil(round(total_km / link_km, 9))


def chain_rate(total_km: float, link_km: float, params: PlannerParams) -> float:
    """End-to-end rate of a chain of equal links: the bottleneck link rate
    derated by the relay tag overhead."""
    if not 0 < link_km <= total_km:
        raise ValueError("link length must be in (0, total distance]")
    return key_rate(params.profile(), link_km) * RELAY_EFFICIENCY


def cost_per_bit(total_km: float, link_km: float, params: PlannerParams) -> float:
    """Device cost divided by delivered rate.

    Chains deliver the bottleneck rate through ``n`` links (2n devices).
    Grids hold ``2 n^2`` devices but carry ``n`` disjoint relay rows in
    parallel, so the delivered aggregate is ``n`` times the chain rate.
    """
    n = link_count(total_km, link_km)
    rate = chain_rate(total_km, link_km, params)
    if params.geometry is Geometry.GRID2D:
        return (2 * n * n * params.device_cost) / (n * rate)
    return (2 * n * params.device_cost) / rate


def relaxed_optimum_km(alpha_db_per_km: float) -> float:
    """Closed-form stationary point of the continuous relaxation."""
    return 10.0 / (alpha_db_per_km * math.log(10.0))


def scan_cost_curve(params: PlannerParams, resolution_km: float = 0.01,
                    relaxed: bool = True) -> list[tuple[float, float, float]]:
    """(link length, chain rate, cost per bit) over a length grid.

    ``relaxed`` uses the fractional device count ``D/l`` (the continuous
    objective); otherwise the integer ``ceil(D/l)`` staircase applies.
    """
    rows = []
    steps = int(round(params.total_distance_km / resolution_km))
    for i in range(1, steps + 1):
        l = i * resolution_km
        rate = chain_rate(params.total_distance_km, l, params)
        if relaxed:
            n_frac = params.total_distance_km / l
            if params.geometry is Geometry.GRID2D:
                # devices scale with area, but D/l relay rows work in parallel
                cost = (2 * n_frac * n_frac * params.device_cost) / (n_frac * rate)
            else:
                cost = (2 * n_frac * params.device_cost) / rate
        else:
            cost = cost_per_bit(params.total_distance_km, l, params)
        rows.append((round(l, 9), rate, cost))
    return rows


def optimal_link_length(params: PlannerParams, integer_devices: bool = False,
                        resolution_km: float = 0.01) -> float:
    """Cost-minimizing single-link length.

    The relaxed mode scans the continuous objective at the given resolution.
    Integer mode evaluates every feasible device count (equal links D/n) and,
    because neighbouring counts often price within modeling noise, prefers
    the smallest device count among all counts within COST_TIE_BAND of the
    cheapest: device count is the hard capital constraint, a couple of
    percent on cost per bit is not.
    """
    if not integer_devices:
        best_l, best_cost = None, math.inf
        for l, _, cost in scan_cost_curve(params, resolution_km, relaxed=True):
            if cost < best_cost:
                best_l, best_cost = l, cost
        return best_l
    d = params.total_distance_km
    n_max = max(1, int(math.ceil(d / resolution_km)))
    n_max = min(n_max, 10000)
    costs = {}
    for n in range(1, n_max + 1):
        costs[n] = cost_per_bit(d, d / n, params)
    floor = min(costs.values())
    for n in sorted(costs):
        if costs[n] <= floor * (1 + COST_TIE_BAND):
            return d / n
    raise AssertionError("unreachable")


def curve_csv(params: PlannerParams, resolution_km: float = 0.1,
              relaxed: bool = True) -> str:
    rows = ["l_km,rate_bps,cost_per_bit"]
    for l, rate, cost in scan_cost_curve(params, resolution_km, relaxed):
        rows.append(f"{l!r},{rate!r},{cost!r}")
    return "\n".join(rows) + "\n"


def scaling_table(n_users_list: list[int]) -> list[tuple[int, int, int]]:
    """Rows of (users, full-mesh link count, access-network link count)."""
    return [
        (n, full_mesh_link_count(n), network_access_link_count(n))
        for n in n_users_list
    ]
