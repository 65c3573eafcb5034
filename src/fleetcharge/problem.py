"""Optimization problem assembly for fleet charge scheduling.

A :class:`ProblemInstance` freezes the fleet and the station: the admitted
vehicles' ids and energy windows, a shared slot grid that starts at the
optimization start, the electricity price per slot, and station and
per-vehicle current limits.  The objective weights are the solve's, not the
instance's.  All vehicles share absolute slot indices so the price series
aligns across the fleet; slots past a vehicle's own charging period are
structurally zero.

Times are plain floats in hours on a common clock (the simulator converts
timestamps before building instances).  A vehicle's last slot may be
shorter than the grid step when its departure falls inside the slot; the
per-slot duration matrix carries that, so delivered energy and fade are
computed on the time the vehicle is actually present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .fade import FadeModelParams, cyclic_fade_approx

__all__ = [
    "COMPONENTS",
    "ChargingTask",
    "StationLimits",
    "SlotGrid",
    "ProblemInstance",
    "ObjectiveBreakdown",
    "NormalizationPoints",
    "ConstraintSet",
    "build_instance",
    "charging_period",
    "availability_weights",
    "max_power_allocation",
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


@dataclass(frozen=True)
class StationLimits:
    """Physical station and pack parameters shared by both policies, checked
    once, when built: each number finite, ``dt``, ``voltage`` and ``c_bat``
    > 0, ``0 < i_max <= ic_max`` and ``soc_xtra_ah >= 0``, or ``ValueError``
    naming the field."""

    dt: float = 0.5             # slot length, h
    i_max: float = 80.0         # per-vehicle current limit, A
    ic_max: float = 400.0       # station current limit, A
    voltage: float = 410.0      # V
    c_bat: float = 210.0        # Ah
    soc_xtra_ah: float = 21.0   # extra-charge headroom, Ah
    fade_params: FadeModelParams = field(default_factory=FadeModelParams)

    def __post_init__(self):
        for name in ("dt", "i_max", "ic_max", "voltage", "c_bat", "soc_xtra_ah"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name in ("dt", "voltage", "c_bat") and not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if not 0.0 < self.i_max <= self.ic_max:
            raise ValueError(f"i_max must be > 0 and <= ic_max {self.ic_max}, got {self.i_max}")
        if not self.soc_xtra_ah >= 0:
            raise ValueError(f"soc_xtra_ah must be >= 0, got {self.soc_xtra_ah}")


def charging_period(t_dep, t_s: float, dt: float):
    """Number of slots from the optimization start to each departure time:
    an int array shaped like the array ``t_dep``.

    Ceiling of the remaining duration over the slot length, with a 1e-9 slot
    slack; zero when the departure coincides with the start.  The departures
    must be finite and not before ``t_s``, and ``dt > 0``: every
    :class:`StationLimits` has ``dt > 0``, and :func:`build_instance` checks
    the departures before it counts.
    """
    return np.maximum(np.ceil((t_dep - t_s) / dt - 1e-9), 0.0).astype(int)


def availability_weights(tt_v) -> np.ndarray:
    """Strictly decreasing slot weights 1/(i + n) for i in [0, n), one column
    per slot count n of the array ``tt_v`` (V,), shaped (max(tt_v), V) and
    zero past its count: a zero count is a zero column.
    """
    tt_v = np.asarray(tt_v)
    i = np.arange(tt_v.max(initial=0))[:, None]
    slots = i + tt_v
    return np.divide(1.0, slots, out=np.zeros(slots.shape), where=i < tt_v)


@dataclass(frozen=True)
class SlotGrid:
    """Shared slot grid starting at the optimization start."""

    t_s: float               # optimization start, h
    dt: float                # slot length, h
    tt: np.ndarray           # per-vehicle slot counts
    horizon: int             # max(tt), 0 when empty


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

    def weight_per_spread(self, weights: tuple) -> dict:
        """Each component's weight over its spread, 0.0 where the spread is
        below ``NORMALIZATION_EPS`` (the component drops out)."""
        return {k: alpha / self.spread(k) if self.spread(k) >= NORMALIZATION_EPS else 0.0
                for alpha, k in zip(weights, COMPONENTS)}


@dataclass(frozen=True)
class ProblemInstance:
    """Frozen input of one scheduling optimization, the same under any
    objective weights: one instance can be solved under several.

    ``build_instance`` fills the derived arrays, except the availability
    weights ``avail_w``, which are built on first read and then kept: the
    baseline policy never evaluates an objective, so it never builds them.
    """

    vehicle_ids: tuple           # str, in departure order, as the fleet holds them
    grid: SlotGrid
    i_max: float                 # per-vehicle current limit, A
    ic_max: float                # station current limit, A
    voltage: float               # charging voltage, V
    c_bat: float                 # nominal capacity, Ah
    fade_params: FadeModelParams

    # derived; build_instance, the one constructor, passes all six
    durations: np.ndarray = field(repr=False)   # (H, V) hours
    active: np.ndarray = field(repr=False)      # (H, V) bool
    e_lo: np.ndarray = field(repr=False)        # (V,) Ah
    e_hi: np.ndarray = field(repr=False)        # (V,) Ah
    soc_start: np.ndarray = field(repr=False)   # (V,)
    wep: np.ndarray = field(repr=False)         # (H,) $/kWh

    @cached_property
    def avail_w(self) -> np.ndarray:
        """(H, V) ``availability_weights(grid.tt)``, built on first read."""
        return availability_weights(self.grid.tt)

    @property
    def n_vehicles(self) -> int:
        return len(self.vehicle_ids)

    @property
    def horizon(self) -> int:
        return self.grid.horizon

    def empty_allocation(self) -> np.ndarray:
        return np.zeros((self.horizon, self.n_vehicles))


def build_instance(
    vehicle_ids: Sequence[str],
    t_dep: np.ndarray,
    soc_start: np.ndarray,
    soc_dep: np.ndarray,
    t_s: float,
    prices_fn: Callable[[np.ndarray], np.ndarray],
    limits: StationLimits,
) -> ProblemInstance:
    """Assemble a frozen instance from fleet state, given as columns: one
    id, departure time, start SoC and required departure SoC per vehicle.

    ``limits`` was checked when built; only the columns and the sampled
    prices are checked here, each by one range check: both SoC columns in
    [0, 1] at once, then every departure finite and not before ``t_s``, then
    every price finite and >= 0.  Only when a check fails is the failing
    column searched, so the error names the first vehicle, in the order
    given, with a bad start SoC, else the first with a bad departure SoC,
    else the first with a departure that is not finite or is before the
    start ("negative-duration"); for prices, "finite" comes before ">= 0".
    The departures are checked here, where the fleet enters, so
    :func:`charging_period` counts without checks.  The columns must come
    in departure order, which :class:`~fleetcharge.scheduler.FleetState`
    keeps, ties in any order: they are kept as given, and the instance's
    ``vehicle_ids`` are the ids given, as a tuple (the same tuple when a
    tuple is given).  Departures that decrease, checked after the ranges,
    raise ``ValueError`` naming the first vehicle whose departure is before
    the one before it.  The instance's start SoCs are a copy, never the
    array given.
    ``prices_fn`` maps an array of absolute times in hours to the prices in
    force at those instants; it is called once, with every slot start.
    """
    t_dep, soc_dep = np.asarray(t_dep, dtype=float), np.asarray(soc_dep, dtype=float)
    soc_start = np.array(soc_start, dtype=float)
    n = len(vehicle_ids)
    if not t_dep.shape == soc_start.shape == soc_dep.shape == (n,):
        raise ValueError("vehicle columns must hold one value per vehicle")
    both = np.concatenate((soc_start, soc_dep))
    if not (np.minimum.reduce(both, initial=0.0) >= 0.0  # NaN fails both
            and np.maximum.reduce(both, initial=1.0) <= 1.0):
        for name, soc in (("soc_start", soc_start), ("soc_dep", soc_dep)):
            bad = ~((0.0 <= soc) & (soc <= 1.0))
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"vehicle {vehicle_ids[k]}: {name} {soc[k]} not in [0, 1]")
    stay = t_dep - t_s
    if not (np.minimum.reduce(stay, initial=0.0) >= 0.0  # NaN fails both
            and np.maximum.reduce(stay, initial=0.0) < math.inf):
        k = int(np.argmax(~((0.0 <= stay) & (stay < math.inf))))
        if math.isfinite(stay[k]):
            raise ValueError(f"vehicle {vehicle_ids[k]}: negative-duration: t_dep {t_dep[k]} "
                             f"before the start {t_s}")
        raise ValueError(f"vehicle {vehicle_ids[k]}: t_dep {t_dep[k]} not finite")
    early = t_dep[1:] < t_dep[:-1]
    if early.any():
        k = int(np.argmax(early)) + 1
        raise ValueError(f"vehicle {vehicle_ids[k]}: t_dep {t_dep[k]} before the departure "
                         f"{t_dep[k - 1]} of the vehicle before it: columns out of order")
    dt, c_bat = limits.dt, limits.c_bat
    tt = charging_period(t_dep, t_s, dt)
    horizon = int(tt.max(initial=0))
    grid = SlotGrid(t_s=t_s, dt=dt, tt=tt, horizon=horizon)

    # Every slot before a vehicle's last lasts dt; the last lasts what is
    # left of its stay.
    slot = np.arange(horizon)[:, None]
    active = slot < tt
    last = np.minimum(dt, np.maximum((t_dep - t_s) - (tt - 1) * dt, 0.0))
    durations = np.where(active, np.where(slot == tt - 1, last, dt), 0.0)

    need = np.maximum(0.0, soc_dep - soc_start) * c_bat
    e_lo = need.copy()
    e_hi = np.where(
        need > 0.0,
        np.minimum(need + limits.soc_xtra_ah, (1.0 - soc_start) * c_bat),
        0.0,
    )

    wep = np.asarray(prices_fn(t_s + np.arange(horizon) * dt), dtype=float)
    if wep.shape != (horizon,):
        raise ValueError("prices_fn must return one price per slot start")
    if not (np.minimum.reduce(wep, initial=0.0) >= 0.0  # NaN fails both
            and np.maximum.reduce(wep, initial=0.0) < math.inf):
        if not np.all(np.isfinite(wep)):
            raise ValueError("prices must be finite")
        raise ValueError("prices must be >= 0")
    return ProblemInstance(
        vehicle_ids=tuple(vehicle_ids),
        grid=grid,
        i_max=limits.i_max,
        ic_max=limits.ic_max,
        voltage=limits.voltage,
        c_bat=c_bat,
        fade_params=limits.fade_params,
        durations=durations,
        active=active,
        e_lo=e_lo,
        e_hi=e_hi,
        soc_start=soc_start,
        wep=wep,
    )


def max_power_allocation(inst: ProblemInstance) -> np.ndarray:
    """Maximum power toward 100% SoC, earliest-departure-first under the cap.

    Each vehicle gets its current limit for the lesser of the slots needed
    to reach full charge and the slots left before departure; the energy
    windows are not enforced.  The slots to full charge are counted by
    :func:`charging_period`, as the hours to full charge at the limit from a
    start of 0.  The plan is built in one pass over all slots.
    It is the plan of a slot-by-slot walk that subtracts each slot's charge
    from the need, bit for bit, when no slot is longer than the grid step,
    as in every instance :func:`build_instance` makes: a longer slot could
    take less than the limit yet leave the walk a rounding residue to charge
    in the next counted slot.
    """
    d, i_max = inst.durations, inst.i_max
    remaining_ah = (1.0 - inst.soc_start) * inst.c_bat
    n_slots = np.minimum(charging_period(remaining_ah / i_max, 0.0, inst.grid.dt), inst.grid.tt)
    # What is left before each slot while every slot before it took i_max,
    # subtracted in slot order, as the walk subtracts it.
    left = np.empty((inst.horizon + 1, inst.n_vehicles))
    left[0] = remaining_ah
    np.multiply(i_max, d, out=left[1:])
    left = np.subtract.accumulate(left, out=left)[:-1]
    # A vehicle charges min(i_max, left/d) from slot 0 until its first slot
    # that is past its count, has no length or finds it full.  A slot whose
    # left/d rounds below i_max has left <= i_max*d as rounded, so the next
    # slot finds it full: a slot charges only after slots that took i_max,
    # where ``left`` is what the walk has left.
    go = (np.arange(inst.horizon)[:, None] < n_slots) & (d > 0) & (left > 0)
    amps = np.minimum(i_max, np.divide(left, d, out=np.zeros_like(d), where=go))
    alloc = np.where(np.logical_and.accumulate(go), amps, 0.0)
    # Station cap: columns are in earliest-departure order, guaranteed by
    # build_instance's check, so a cumulative-headroom pass curtails
    # later-departing vehicles first.  Only slots whose total passes the cap
    # are touched, and the pass runs only when some slot's does.
    used = np.add.accumulate(alloc, axis=1)
    over = used[:, -1:] > inst.ic_max
    if not over.any():
        return alloc
    capped = np.maximum(np.minimum(alloc, inst.ic_max - (used - alloc)), 0.0)
    return np.where(over, capped, alloc)


# ---------------------------------------------------------------------------
# Objective evaluation
# ---------------------------------------------------------------------------


def soc_before_slots(alloc: np.ndarray, inst: ProblemInstance,
                     vehicles: np.ndarray | None = None) -> np.ndarray:
    """SoC of each vehicle at the start of each slot, shaped like ``alloc``:
    (H, V), or a stack (..., H, V) of allocations, each of which gets the
    values it would get alone.

    With ``vehicles`` (K,), ``alloc`` is (..., H, K) and its column k belongs
    to vehicle ``vehicles[k]``.
    """
    d, start = inst.durations, inst.soc_start
    if vehicles is not None:
        d, start = d[:, vehicles], start[vehicles]
    delta = alloc * (d / inst.c_bat)
    soc = np.empty_like(delta)
    soc[..., 0, :] = start
    np.add(start, np.add.accumulate(delta[..., :-1, :], axis=-2), out=soc[..., 1:, :])
    return soc


def fade_terms(alloc: np.ndarray, inst: ProblemInstance,
               vehicles: np.ndarray | None = None):
    """Vectorised per-slot cyclic and calendric fade, each (H, V) in Ah.

    The cyclic part is :func:`cyclic_fade_approx`, the kernel the simulator's
    ledger records: the quadratic is clamped at zero, forced to zero at zero
    current, and branch selection uses the slot's initial SoC.  Calendric
    loss for a fractional final slot is scaled by the fraction of the grid
    step actually spent plugged.
    ``vehicles`` maps columns to vehicles as in :func:`soc_before_slots`.
    """
    v = slice(None) if vehicles is None else vehicles
    p = inst.fade_params
    durations, active = inst.durations[:, v], inst.active[:, v]
    cyclic, avg, _ = cyclic_fade_approx(
        soc_before_slots(alloc, inst, vehicles), alloc, durations, inst.c_bat, p
    )
    cyclic[~active] = 0.0

    frac = np.where(active, durations / inst.grid.dt, 0.0)
    return cyclic, frac * p.calendric(avg)


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
            worst = alloc.sum(axis=1).max()
            if worst > inst.ic_max + tol:
                problems.append(f"station current limit exceeded ({worst:.6f} A)")
        delivered = (alloc * inst.durations).sum(axis=0)
        for v in range(inst.n_vehicles):
            if delivered[v] < self.inst.e_lo[v] - tol:
                problems.append(
                    f"vehicle {inst.vehicle_ids[v]}: delivered {delivered[v]:.6f} Ah "
                    f"below window [{inst.e_lo[v]:.6f}, {inst.e_hi[v]:.6f}]"
                )
            if delivered[v] > self.inst.e_hi[v] + tol:
                problems.append(
                    f"vehicle {inst.vehicle_ids[v]}: delivered {delivered[v]:.6f} Ah "
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
    short = np.flatnonzero(inst.e_lo > capacity + 1e-9)
    if len(short):
        v = short[0]
        reason = (
            f"vehicle-capacity: {inst.vehicle_ids[v]} needs "
            f"{inst.e_lo[v]:.3f} Ah but can receive at most {capacity[v]:.3f} Ah"
        )
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
