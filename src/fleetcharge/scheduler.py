"""Scheduling policies and fleet-state transitions.

Two strategies produce allocations from the current fleet state:

* the business-as-usual baseline charges every vehicle at maximum power
  toward 100% SoC, earliest departure first when the station cap binds;
* the proposed policy builds a frozen optimization instance from the state
  and minimizes the normalized weighted objective.

Task admission gates the proposed policy: a new task is accepted only when
a linear feasibility solve succeeds for the whole resulting fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fade import (
    FadeModelParams,
    SlotCharge,
    calendric_fade_approx,
    cyclic_fade_approx,
    cyclic_fade_exact,
)
from .problem import ChargingTask, ProblemInstance, build_instance, max_power_allocation
from .solver import feasibility_check, solve

__all__ = [
    "StationLimits",
    "Policy",
    "VehicleState",
    "FleetState",
    "Admission",
    "LedgerEntry",
    "SocOverflowError",
    "baseline_schedule",
    "proposed_schedule",
    "admit_task",
    "apply_slot",
]

ZERO_PRICES = lambda t: 0.0  # noqa: E731  (feasibility and baseline ignore prices)


class SocOverflowError(RuntimeError):
    """A slot update pushed a vehicle past full charge: solver constraint bug."""


@dataclass(frozen=True)
class StationLimits:
    """Physical station and pack parameters shared by both policies."""

    dt: float = 0.5             # slot length, h
    i_max: float = 80.0         # per-vehicle current limit, A
    ic_max: float = 400.0       # station current limit, A
    voltage: float = 410.0      # V
    c_bat: float = 210.0        # Ah
    soc_xtra_ah: float = 21.0   # extra-charge headroom, Ah
    fade_params: FadeModelParams = field(default_factory=FadeModelParams)


@dataclass(frozen=True)
class Policy:
    kind: str                      # "baseline" | "proposed"
    weights: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.kind not in ("baseline", "proposed"):
            raise ValueError(f"unknown policy kind {self.kind!r}")


@dataclass
class VehicleState:
    task: ChargingTask
    soc_cur: float


@dataclass
class FleetState:
    """Plugged vehicles and the station clock, in hours."""

    now: float
    vehicles: dict = field(default_factory=dict)  # vehicle_id -> VehicleState

    def current_tasks(self) -> list:
        """Tasks re-anchored at the current state (start SoC = current SoC)."""
        out = []
        for vs in self.vehicles.values():
            t = vs.task
            out.append(
                ChargingTask(
                    vehicle_id=t.vehicle_id,
                    t_arr=t.t_arr,
                    t_dep=max(t.t_dep, self.now),
                    soc_start=vs.soc_cur,
                    soc_dep=t.soc_dep,
                )
            )
        return out


def _instance_from_state(
    state: FleetState,
    limits: StationLimits,
    weights: tuple,
    prices_fn: Callable[[float], float],
    extra_task: ChargingTask | None = None,
) -> ProblemInstance:
    tasks = state.current_tasks()
    if extra_task is not None:
        tasks.append(extra_task)
    return build_instance(
        tasks,
        t_s=state.now,
        dt=limits.dt,
        prices_fn=prices_fn,
        i_max=limits.i_max,
        ic_max=limits.ic_max,
        voltage=limits.voltage,
        c_bat=limits.c_bat,
        soc_xtra_ah=limits.soc_xtra_ah,
        weights=weights,
        fade_params=limits.fade_params,
    )


def baseline_schedule(
    state: FleetState,
    limits: StationLimits,
    prices_fn: Callable[[float], float] = ZERO_PRICES,
):
    """Business-as-usual schedule, :func:`max_power_allocation`; returns
    (allocation, instance)."""
    inst = _instance_from_state(state, limits, (1.0, 1.0, 1.0), prices_fn)
    return max_power_allocation(inst), inst


def proposed_schedule(
    state: FleetState,
    weights: tuple,
    limits: StationLimits,
    prices_fn: Callable[[float], float],
):
    """Optimized schedule; returns (allocation, solve report, instance).

    :func:`solve` takes the baseline's maximum-power allocation as its
    first descent start.  Admission must have accepted all tasks, so an
    infeasible solve here signals a bug.
    """
    inst = _instance_from_state(state, limits, weights, prices_fn)
    alloc, rep = solve(inst)
    if alloc is None:
        raise RuntimeError(
            "proposed_schedule hit an infeasible instance; admission should prevent this"
        )
    return alloc, rep, inst


@dataclass(frozen=True)
class Admission:
    accepted: bool
    reason: str | None = None  # vehicle-capacity | station-capacity


def admit_task(task: ChargingTask, state: FleetState, limits: StationLimits) -> Admission:
    """Accept a new task iff the whole fleet stays feasible with it."""
    inst = _instance_from_state(
        state, limits, (1.0, 1.0, 1.0), ZERO_PRICES, extra_task=task
    )
    result = feasibility_check(inst)
    if result.feasible:
        return Admission(accepted=True)
    return Admission(accepted=False, reason=result.reason)


@dataclass(frozen=True)
class LedgerEntry:
    """Realized charging of one vehicle over one (possibly partial) slot."""

    time_h: float
    vehicle_id: str
    duration_h: float
    current_a: float
    power_kw: float
    price_usd_per_kwh: float
    cost_usd: float
    energy_ah: float
    soc: float            # after the slot
    fade_exact_ah: float  # exact cyclic + calendric
    fade_approx_ah: float  # quadratic cyclic + calendric


def apply_slot(
    state: FleetState,
    alloc: np.ndarray,
    slot_index: int,
    inst: ProblemInstance,
    duration: float | None = None,
) -> tuple[LedgerEntry, ...]:
    """Advance the fleet through one slot of a schedule.

    Mutates the state in place (SoC recursion, clock) and returns one
    :class:`LedgerEntry` per plugged vehicle present in the slot.
    ``duration`` truncates the slot when an event falls inside it; each
    vehicle is charged for its own presence within that window.
    Calendric fade is pro-rated by the fraction of a full slot realized.
    """
    if not 0 <= slot_index < inst.horizon:
        raise IndexError(f"slot {slot_index} outside allocation horizon {inst.horizon}")
    window = inst.grid.dt if duration is None else duration
    if window <= 0:
        raise ValueError("slot duration must be > 0")
    params = inst.fade_params
    entries = []
    slot_t = inst.grid.slot_start(slot_index)
    for v, task in enumerate(inst.tasks):
        vs = state.vehicles.get(task.vehicle_id)
        if vs is None:
            continue
        d = min(window, inst.durations[slot_index, v])
        if d <= 0:
            continue
        amps = float(alloc[slot_index, v])
        ah = amps * d
        soc_new = vs.soc_cur + ah / inst.c_bat
        if soc_new > 1.0 + 1e-9:
            raise SocOverflowError(
                f"vehicle {task.vehicle_id} would reach SoC {soc_new:.9f}"
            )
        slot = SlotCharge(
            soc_init=vs.soc_cur, current=amps, dt=d, c_bat=inst.c_bat
        )
        soc_avg = vs.soc_cur + 0.5 * ah / inst.c_bat
        cal = (d / inst.grid.dt) * calendric_fade_approx(min(soc_avg, 1.0), params)
        exact = cyclic_fade_exact(slot, params) + cal
        approx = cyclic_fade_approx(slot, params) + cal
        kwh = ah * inst.voltage / 1000.0
        price = float(inst.wep[slot_index])
        entries.append(
            LedgerEntry(
                time_h=slot_t,
                vehicle_id=task.vehicle_id,
                duration_h=d,
                current_a=amps,
                power_kw=amps * inst.voltage / 1000.0,
                price_usd_per_kwh=price,
                cost_usd=kwh * price,
                energy_ah=ah,
                soc=min(soc_new, 1.0),
                fade_exact_ah=exact,
                fade_approx_ah=approx,
            )
        )
        vs.soc_cur = min(soc_new, 1.0)
    state.now = slot_t + window
    return tuple(entries)
