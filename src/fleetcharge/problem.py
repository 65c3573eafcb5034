"""Optimization problem assembly for fleet charge scheduling.

A :class:`ProblemInstance` freezes everything the optimizer needs: the
admitted charging tasks, a shared slot grid anchored at the optimization
start, the electricity price per slot, station and per-vehicle current
limits, and the objective weights.  All vehicles share absolute slot
indices so the price series aligns across the fleet; slots past a vehicle's
own charging period are structurally zero.

Times are plain floats in hours on a common clock (the simulator converts
timestamps before building instances).  A vehicle's last slot may be
shorter than the grid step when its departure falls inside the slot; the
per-slot duration matrix carries that, so delivered energy and fade are
computed on the time the vehicle is actually present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .fade import FadeModelParams, cyclic_fade_surface

__all__ = [
    "COMPONENTS",
    "ChargingTask",
    "SlotGrid",
    "ProblemInstance",
    "ObjectiveBreakdown",
    "NormalizationPoints",
    "ConstraintSet",
    "build_instance",
    "charging_period",
    "availability_weights",
    "objective_components",
    "build_constraints",
    "compute_normalization_points",
    "normalized_objective",
]

COMPONENTS = ("cost", "fade", "availability")

NORMALIZATION_EPS = 1e-9


@dataclass(frozen=True)
class ChargingTask:
    """One vehicle's charging request."""

    vehicle_id: str
    t_arr: float        # arrival time, h
    t_dep: float        # departure time, h
    soc_start: float    # SoC fraction at optimization start
    soc_dep: float      # required departure SoC fraction

    def __post_init__(self):
        if self.t_dep < self.t_arr:
            raise ValueError(f"task {self.vehicle_id}: departure before arrival")
        if not 0.0 <= self.soc_start <= 1.0:
            raise ValueError(f"task {self.vehicle_id}: soc_start {self.soc_start} not in [0, 1]")
        if not 0.0 <= self.soc_dep <= 1.0:
            raise ValueError(f"task {self.vehicle_id}: soc_dep {self.soc_dep} not in [0, 1]")

    @property
    def zero_need(self) -> bool:
        """Already at or above the required departure SoC."""
        return self.soc_start >= self.soc_dep


def charging_period(t_dep: float, t_s: float, dt: float) -> int:
    """Number of slots from the optimization start to a departure time.

    Ceiling of the remaining duration over the slot length; zero when the
    departure coincides with the start.
    """
    if dt <= 0:
        raise ValueError("slot length must be > 0")
    if t_dep < t_s:
        raise ValueError("negative-duration: departure precedes optimization start")
    return max(0, math.ceil((t_dep - t_s) / dt - 1e-9))


def availability_weights(tt_v: int) -> np.ndarray:
    """Strictly decreasing slot weights 1/(i + tt_v) for i in [0, tt_v)."""
    if tt_v < 1:
        raise ValueError("empty-period: charging period has no slots")
    return 1.0 / (np.arange(tt_v) + tt_v)


@dataclass(frozen=True)
class SlotGrid:
    """Shared slot grid anchored at the optimization start."""

    t_s: float               # optimization start, h
    dt: float                # slot length, h
    tt: np.ndarray           # per-vehicle slot counts
    horizon: int             # max(tt), 0 when empty

    def slot_start(self, i: int) -> float:
        return self.t_s + i * self.dt


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Raw values of the three objective components."""

    cost: float          # $
    fade: float          # Ah
    availability: float  # negative weighted power, W

    def component(self, name: str) -> float:
        return getattr(self, name)


@dataclass(frozen=True)
class NormalizationPoints:
    """Per-component utopia (best) and nadir (worst payoff-table) values."""

    utopia: dict
    nadir: dict

    def __post_init__(self):
        for k in COMPONENTS:
            if self.nadir[k] < self.utopia[k] - 1e-12:
                raise ValueError(f"nadir below utopia for {k}")

    def spread(self, name: str) -> float:
        return self.nadir[name] - self.utopia[name]


@dataclass(frozen=True)
class ProblemInstance:
    """Frozen input of one scheduling optimization."""

    tasks: tuple                 # ChargingTask, ordered by (t_dep, vehicle_id)
    grid: SlotGrid
    i_max: float                 # per-vehicle current limit, A
    ic_max: float                # station current limit, A
    voltage: float               # charging voltage, V
    c_bat: float                 # nominal capacity, Ah
    soc_xtra: float              # extra-charge headroom, Ah
    weights: tuple               # (alpha_cost, alpha_fade, alpha_availability)
    fade_params: FadeModelParams

    # derived, filled by build_instance
    durations: np.ndarray = field(repr=False, default=None)   # (H, V) hours
    active: np.ndarray = field(repr=False, default=None)      # (H, V) bool
    avail_w: np.ndarray = field(repr=False, default=None)     # (H, V)
    e_lo: np.ndarray = field(repr=False, default=None)        # (V,) Ah
    e_hi: np.ndarray = field(repr=False, default=None)        # (V,) Ah
    soc_start: np.ndarray = field(repr=False, default=None)   # (V,)
    wep: np.ndarray = field(repr=False, default=None)         # (H,) $/kWh

    @property
    def n_vehicles(self) -> int:
        return len(self.tasks)

    @property
    def horizon(self) -> int:
        return self.grid.horizon

    def empty_allocation(self) -> np.ndarray:
        return np.zeros((self.horizon, self.n_vehicles))


def build_instance(
    tasks: Sequence[ChargingTask],
    t_s: float,
    dt: float,
    prices_fn: Callable[[float], float],
    i_max: float,
    ic_max: float,
    voltage: float,
    c_bat: float,
    soc_xtra_ah: float,
    weights: tuple,
    fade_params: FadeModelParams,
) -> ProblemInstance:
    """Assemble a frozen instance from fleet state.

    ``prices_fn`` maps an absolute time in hours to the price in force at
    that instant; it is sampled once at each slot start.
    """
    if not 0.0 < i_max <= ic_max:
        raise ValueError("require 0 < i_max <= ic_max")
    if voltage <= 0 or c_bat <= 0 or dt <= 0:
        raise ValueError("voltage, capacity and slot length must be > 0")
    if soc_xtra_ah < 0:
        raise ValueError("extra-charge headroom must be >= 0")
    w = np.asarray(weights, dtype=float)
    if w.shape != (3,) or np.any(w < 0) or not np.any(w > 0):
        raise ValueError("weights must be three nonnegative values, not all zero")

    ordered = tuple(sorted(tasks, key=lambda t: (t.t_dep, t.vehicle_id)))
    tt = np.array([charging_period(t.t_dep, t_s, dt) for t in ordered], dtype=int)
    horizon = int(tt.max()) if len(tt) else 0
    grid = SlotGrid(t_s=t_s, dt=dt, tt=tt, horizon=horizon)

    n = len(ordered)
    durations = np.zeros((horizon, n))
    active = np.zeros((horizon, n), dtype=bool)
    avail_w = np.zeros((horizon, n))
    for v, task in enumerate(ordered):
        if tt[v] == 0:
            continue
        active[: tt[v], v] = True
        durations[: tt[v], v] = dt
        rem = (task.t_dep - t_s) - (tt[v] - 1) * dt
        durations[tt[v] - 1, v] = min(dt, max(rem, 0.0))
        avail_w[: tt[v], v] = availability_weights(int(tt[v]))

    soc_start = np.array([t.soc_start for t in ordered])
    need = np.array([max(0.0, t.soc_dep - t.soc_start) * c_bat for t in ordered])
    e_lo = need.copy()
    e_hi = np.where(
        need > 0.0,
        np.minimum(need + soc_xtra_ah, (1.0 - soc_start) * c_bat),
        0.0,
    )

    wep = np.array([prices_fn(t_s + i * dt) for i in range(horizon)])
    if np.any(wep < 0):
        raise ValueError("prices must be >= 0")
    return ProblemInstance(
        tasks=ordered,
        grid=grid,
        i_max=i_max,
        ic_max=ic_max,
        voltage=voltage,
        c_bat=c_bat,
        soc_xtra=soc_xtra_ah,
        weights=tuple(w),
        fade_params=fade_params,
        durations=durations,
        active=active,
        avail_w=avail_w,
        e_lo=e_lo,
        e_hi=e_hi,
        soc_start=soc_start,
        wep=wep,
    )


# ---------------------------------------------------------------------------
# Objective evaluation
# ---------------------------------------------------------------------------


def soc_before_slots(alloc: np.ndarray, inst: ProblemInstance,
                     vehicles: np.ndarray | None = None) -> np.ndarray:
    """SoC of each vehicle at the start of each slot, (H, V).

    With ``vehicles`` (K,), ``alloc`` is (H, K) and its column k belongs to
    vehicle ``vehicles[k]``.
    """
    v = slice(None) if vehicles is None else vehicles
    delta = alloc * inst.durations[:, v] / inst.c_bat
    soc = np.empty_like(delta)
    soc[0, :] = inst.soc_start[v]
    if inst.horizon > 1:
        soc[1:, :] = inst.soc_start[v][None, :] + np.cumsum(delta, axis=0)[:-1, :]
    return soc


def fade_terms(alloc: np.ndarray, inst: ProblemInstance,
               vehicles: np.ndarray | None = None):
    """Vectorised per-slot cyclic and calendric fade, each (H, V) in Ah.

    Matches the scalar slot operations exactly: the quadratic is clamped at
    zero, forced to zero at zero current, and branch selection uses the
    slot's initial SoC.  Calendric loss for a fractional final slot is
    scaled by the fraction of the grid step actually spent plugged.
    ``vehicles`` maps columns to vehicles as in :func:`soc_before_slots`.
    """
    v = slice(None) if vehicles is None else vehicles
    p = inst.fade_params
    durations, active = inst.durations[:, v], inst.active[:, v]
    cyclic, avg, _ = cyclic_fade_surface(
        soc_before_slots(alloc, inst, vehicles), alloc, durations, inst.c_bat, p
    )
    cyclic[~active] = 0.0

    frac = np.where(active, durations / inst.grid.dt, 0.0)
    calendric = frac * (p.p1 * avg + p.p2)
    return cyclic, calendric


def objective_components(alloc: np.ndarray, inst: ProblemInstance) -> ObjectiveBreakdown:
    """Raw cost, fade and availability values of an allocation."""
    if alloc.shape != (inst.horizon, inst.n_vehicles):
        raise ValueError(
            f"dimension-mismatch: allocation {alloc.shape}, "
            f"instance ({inst.horizon}, {inst.n_vehicles})"
        )
    if inst.n_vehicles == 0 or inst.horizon == 0:
        return ObjectiveBreakdown(cost=0.0, fade=0.0, availability=0.0)

    energy_kwh = alloc * inst.durations * inst.voltage / 1000.0
    cost = float(np.sum(inst.wep[:, None] * energy_kwh))
    cyclic, calendric = fade_terms(alloc, inst)
    fade = float(np.sum(cyclic) + np.sum(calendric))
    availability = float(-np.sum(inst.avail_w * alloc * inst.voltage))
    return ObjectiveBreakdown(cost=cost, fade=fade, availability=availability)


def normalized_objective(
    breakdown: ObjectiveBreakdown,
    points: NormalizationPoints,
    weights: tuple,
) -> float:
    """Weighted sum of utopia/nadir-normalized components.

    A component whose utopia-nadir spread is below the normalization guard
    contributes zero (degenerate objectives must not blow up the sum).
    """
    total = 0.0
    for alpha, name in zip(weights, COMPONENTS):
        spread = points.spread(name)
        if spread < NORMALIZATION_EPS:
            continue
        total += alpha * (breakdown.component(name) - points.utopia[name]) / spread
    return total


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSet:
    """Affine feasible region of one instance.

    Box limits per cell, a shared station current cap per slot, per-vehicle
    delivered-energy windows (with the SoC<=1 cap folded into the upper
    bound) and structural zeros outside each vehicle's charging period.
    """

    inst: ProblemInstance
    infeasible_reason: str | None  # early counting-bound rejection

    @property
    def feasible_by_construction(self) -> bool:
        return self.infeasible_reason is None

    def audit(self, alloc: np.ndarray, tol: float = 1e-6) -> list:
        """All constraint violations beyond ``tol``; empty means feasible."""
        inst = self.inst
        problems = []
        if alloc.shape != (inst.horizon, inst.n_vehicles):
            return [f"dimension-mismatch: {alloc.shape}"]
        if np.any(alloc < -tol):
            problems.append(f"negative current {alloc.min():.3e} A")
        if np.any(alloc > inst.i_max + tol):
            problems.append(f"vehicle current limit exceeded ({alloc.max():.6f} A)")
        if inst.n_vehicles and np.any(~inst.active & (np.abs(alloc) > tol)):
            problems.append("allocation outside a vehicle's charging period")
        if inst.horizon:
            slot_sum = alloc.sum(axis=1)
            worst = slot_sum.max() if len(slot_sum) else 0.0
            if worst > inst.ic_max + tol:
                problems.append(f"station current limit exceeded ({worst:.6f} A)")
        delivered = (alloc * inst.durations).sum(axis=0)
        for v in range(inst.n_vehicles):
            if delivered[v] < self.inst.e_lo[v] - tol:
                problems.append(
                    f"vehicle {inst.tasks[v].vehicle_id}: delivered {delivered[v]:.6f} Ah "
                    f"below window [{inst.e_lo[v]:.6f}, {inst.e_hi[v]:.6f}]"
                )
            if delivered[v] > self.inst.e_hi[v] + tol:
                problems.append(
                    f"vehicle {inst.tasks[v].vehicle_id}: delivered {delivered[v]:.6f} Ah "
                    f"above window [{inst.e_lo[v]:.6f}, {inst.e_hi[v]:.6f}]"
                )
        if inst.n_vehicles and inst.horizon:
            soc_end = soc_before_slots(alloc, inst)[-1, :] + (
                alloc[-1, :] * inst.durations[-1, :] / inst.c_bat
            )
            if np.any(soc_end > 1.0 + max(tol / inst.c_bat, 1e-9)):
                problems.append(f"SoC cap exceeded ({soc_end.max():.9f})")
        return problems


def build_constraints(inst: ProblemInstance) -> ConstraintSet:
    """Constraint set of an instance, with an early counting-bound check.

    A vehicle whose energy need exceeds what its current limit can deliver
    over its remaining presence is flagged infeasible-by-construction before
    any solve is attempted.
    """
    reason = None
    capacity = inst.i_max * inst.durations.sum(axis=0)
    for v in range(inst.n_vehicles):
        if inst.e_lo[v] > capacity[v] + 1e-9:
            reason = (
                f"vehicle-capacity: {inst.tasks[v].vehicle_id} needs "
                f"{inst.e_lo[v]:.3f} Ah but can receive at most {capacity[v]:.3f} Ah"
            )
            break
    return ConstraintSet(inst=inst, infeasible_reason=reason)


def compute_normalization_points(
    inst: ProblemInstance,
    solver: Callable[[ProblemInstance, str], np.ndarray],
) -> NormalizationPoints:
    """Payoff-table utopia and nadir points.

    Each component is minimized alone by ``solver(inst, component)``; the
    utopia point is its own optimum and the nadir is the worst value the
    component takes across the three single-objective optima.
    """
    breakdowns = {}
    for name in COMPONENTS:
        alloc = solver(inst, name)
        breakdowns[name] = objective_components(alloc, inst)
    utopia = {k: breakdowns[k].component(k) for k in COMPONENTS}
    nadir = {
        k: max(max(b.component(k) for b in breakdowns.values()), utopia[k])
        for k in COMPONENTS
    }
    return NormalizationPoints(utopia=utopia, nadir=nadir)
