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

import dataclasses
import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .fade import (
    InvalidSlotError,
    calendric_fade_approx,
    cyclic_fade_approx,
    cyclic_fade_exact,
)
from .problem import (ChargingTask, ProblemInstance, StationLimits, build_instance,
                      max_power_allocation)
from .solver import feasibility_check, solve

__all__ = [
    "Policy",
    "FleetState",
    "Admission",
    "LedgerEntry",
    "Ledger",
    "SocOverflowError",
    "baseline_schedule",
    "proposed_schedule",
    "admit_task",
    "apply_slot",
]

ZERO_PRICES = np.zeros_like  # feasibility and baseline ignore prices
_LEFT_SOC = np.zeros(1)  # the SoC slot a walk appends for the vehicles that have left


class SocOverflowError(RuntimeError):
    """A slot update pushed a vehicle past full charge: solver constraint bug."""


@dataclass(frozen=True)
class Policy:
    """A scheduling policy and its objective weights (alpha_cost, alpha_fade,
    alpha_availability), checked once, when built: three finite, nonnegative
    values, not all zero, held as a tuple of Python floats."""

    kind: str                      # "baseline" | "proposed"
    weights: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.kind not in ("baseline", "proposed"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        w = tuple(float(x) for x in self.weights)
        if len(w) != 3:
            raise ValueError(f"weights must be three values, got {w}")
        if not all(map(math.isfinite, w)):
            raise ValueError(f"weights must be finite, got {w}")
        if not (all(x >= 0 for x in w) and any(x > 0 for x in w)):
            raise ValueError(f"weights must be nonnegative and not all zero, got {w}")
        object.__setattr__(self, "weights", w)


def _empty_column() -> np.ndarray:
    return np.empty(0)


@dataclass
class FleetState:
    """Plugged vehicles and the station clock, in hours.

    The fleet is one table of columns, one entry per plugged vehicle, kept
    in (departure, vehicle id) order as vehicles plug in and leave: the ids,
    the tasks, the departures, the required departure SoCs and the current
    SoCs, the last three as float arrays.  :meth:`plug` and :meth:`unplug`
    build new columns and :func:`apply_slot` a new ``soc_cur``; no column is
    written into, so a copy that shares them is never changed by another.
    """

    now: float
    ids: tuple = ()
    tasks: tuple = ()
    t_dep: np.ndarray = field(default_factory=_empty_column)
    soc_dep: np.ndarray = field(default_factory=_empty_column)
    soc_cur: np.ndarray = field(default_factory=_empty_column)

    def plug(self, task: ChargingTask, soc: float) -> None:
        """Plug ``task``'s vehicle in at SoC ``soc``, at its place in
        (departure, id) order; a vehicle already plugged in raises
        ``ValueError``."""
        vid, t_dep = task.vehicle_id, task.t_dep
        if vid in self.ids:
            raise ValueError(f"duplicate arrival for {vid}")
        lo = bisect_left(self.t_dep, t_dep)
        k = bisect_left(self.ids, vid, lo, bisect_right(self.t_dep, t_dep, lo))
        self.ids = (*self.ids[:k], vid, *self.ids[k:])
        self.tasks = (*self.tasks[:k], task, *self.tasks[k:])
        self.t_dep, self.soc_dep, self.soc_cur = (
            _inserted(col, k, value) for col, value in
            ((self.t_dep, t_dep), (self.soc_dep, task.soc_dep), (self.soc_cur, soc)))

    def unplug(self, vehicle_id: str):
        """Unplug a vehicle; returns its task and its current SoC, or None
        when no vehicle of that id is plugged in."""
        try:
            k = self.ids.index(vehicle_id)
        except ValueError:
            return None
        task, soc = self.tasks[k], float(self.soc_cur[k])
        self.ids = self.ids[:k] + self.ids[k + 1:]
        self.tasks = self.tasks[:k] + self.tasks[k + 1:]
        self.t_dep, self.soc_dep, self.soc_cur = (
            np.concatenate((col[:k], col[k + 1:])) for col in (self.t_dep, self.soc_dep,
                                                                self.soc_cur))
        return task, soc


def _inserted(col: np.ndarray, k: int, value: float) -> np.ndarray:
    """A new float array: ``col`` with ``value`` inserted before index ``k``."""
    out = np.empty(len(col) + 1)
    out[:k], out[k], out[k + 1:] = col[:k], value, col[k:]
    return out


def _instance_from_state(
    state: FleetState,
    limits: StationLimits,
    prices_fn: Callable[[np.ndarray], np.ndarray],
) -> ProblemInstance:
    """The instance of the fleet as it stands: each vehicle starts at its
    current SoC, and a departure already past is clamped to the clock.
    The columns pass as they are held, already in (departure, id) order, so
    :func:`build_instance` sorts only when clamping ties departures.
    ``limits``, already checked, passes through.  Admission, the baseline and
    the proposed policy all build their instances here."""
    now = state.now
    return build_instance(state.ids, np.maximum(state.t_dep, now), state.soc_cur,
                          state.soc_dep, now, prices_fn, limits)


def baseline_schedule(
    state: FleetState,
    limits: StationLimits,
    prices_fn: Callable[[np.ndarray], np.ndarray] = ZERO_PRICES,
):
    """Business-as-usual schedule, :func:`max_power_allocation`; returns
    (allocation, instance)."""
    inst = _instance_from_state(state, limits, prices_fn)
    return max_power_allocation(inst), inst


def proposed_schedule(
    state: FleetState,
    weights: tuple,
    limits: StationLimits,
    prices_fn: Callable[[np.ndarray], np.ndarray],
):
    """Optimized schedule under ``weights``, as :class:`Policy` holds them;
    returns (allocation, solve report, instance).

    :func:`solve` takes the baseline's maximum-power allocation as its
    first descent start.  Admission must have accepted all tasks, so an
    infeasible solve here signals a bug.
    """
    inst = _instance_from_state(state, limits, prices_fn)
    alloc, rep = solve(inst, weights)
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
    """Accept a new task iff the whole fleet stays feasible with it: the
    instance is that of a copy of the fleet with the newcomer plugged in at
    its start SoC, so a departure already past is clamped to the clock as
    any other.  The state is not changed."""
    fleet = dataclasses.replace(state)
    fleet.plug(task, task.soc_start)
    inst = _instance_from_state(fleet, limits, ZERO_PRICES)
    result = feasibility_check(inst)
    if result.feasible:
        return Admission(accepted=True)
    return Admission(accepted=False, reason=result.reason)


class LedgerEntry(NamedTuple):
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


_DERIVE_BATCH_ROWS = 1 << 12  # pending ledger rows derived at once: bounds memory


class Ledger(Sequence):
    """Time-ordered :class:`LedgerEntry` rows, stored as columns.

    Each numeric field is one ``array("d")`` and the vehicle ids one list,
    so a replay keeps no Python object per row for the garbage collector to
    walk.  :meth:`append` takes each row's primitive fields and the SoC
    before it; the derived fields (power, cost, energy and both fades) of
    the rows not yet derived are computed together, one call of each fade
    kernel per batch, when ``_DERIVE_BATCH_ROWS`` rows are pending, when an
    append brings another slot model and before any read.  The kernels
    work element by element, so a row's values do not depend on its batch.
    It has a ``len``, and its rows are read by indexing, iteration and
    ``==`` against any sequence of rows, each built as it is read.
    """

    __slots__ = ("_ids", "_floats", "_soc_before", "_model")

    def __init__(self):
        self._ids: list = []
        self._floats = {name: array("d") for name in LedgerEntry._fields if name != "vehicle_id"}
        self._soc_before = array("d")  # of the pending rows, which are not derived yet
        self._model = None  # (c_bat, voltage, dt, fade_params) of the pending rows

    def append(self, time_h, vehicle_ids, duration_h, current_a, price_usd_per_kwh,
               soc_before, soc, c_bat, voltage, dt, fade_params):
        """Append rows after the rows held, given as columns (the vehicle
        ids, and arrays of floats): each row's primitive fields, its SoC
        before, and the slot model all these rows charged under, that is
        the pack capacity (Ah), the voltage (V), the full slot length (h)
        and the fade parameters."""
        model = (c_bat, voltage, dt, fade_params)
        if model != self._model:
            self._derive()
            self._model = model
        self._ids.extend(vehicle_ids)
        floats = self._floats
        for store, col in ((floats["time_h"], time_h), (floats["duration_h"], duration_h),
                           (floats["current_a"], current_a),
                           (floats["price_usd_per_kwh"], price_usd_per_kwh),
                           (floats["soc"], soc), (self._soc_before, soc_before)):
            store.frombytes(np.asarray(col, dtype=np.float64).tobytes())
        if len(self._soc_before) >= _DERIVE_BATCH_ROWS:
            self._derive()

    def _derive(self):
        """Compute the derived fields of the pending rows."""
        if not self._soc_before:
            return
        c_bat, voltage, dt, params = self._model
        floats = self._floats
        start = len(floats["power_kw"])
        soc = np.array(self._soc_before)
        d, amps, price = (np.frombuffer(floats[name][start:])
                          for name in ("duration_h", "current_a", "price_usd_per_kwh"))
        exact = cyclic_fade_exact(soc, amps, d, c_bat, params)
        approx, soc_avg, _ = cyclic_fade_approx(soc, amps, d, c_bat, params)
        cal = (d / dt) * calendric_fade_approx(np.minimum(soc_avg, 1.0), params)
        ah = amps * d
        for name, col in (("power_kw", amps * voltage / 1000.0),
                          ("cost_usd", ah * voltage / 1000.0 * price), ("energy_ah", ah),
                          ("fade_exact_ah", exact + cal), ("fade_approx_ah", approx + cal)):
            floats[name].frombytes(col.tobytes())
        del self._soc_before[:]

    def column(self, name: str):
        """One field's values in row order, as stored, not copied: the list
        of vehicle ids or an ``array("d")``."""
        return self._columns()[LedgerEntry._fields.index(name)]

    def _columns(self) -> tuple:
        self._derive()
        time_h, *rest = self._floats.values()
        return (time_h, self._ids, *rest)

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i) -> LedgerEntry:
        i = operator.index(i)  # one row: slices are not supported
        return LedgerEntry._make(c[i] for c in self._columns())

    def __iter__(self):
        return map(LedgerEntry, *self._columns())

    def __eq__(self, other):
        try:
            n = len(other)
        except TypeError:
            return NotImplemented
        return n == len(self) and all(map(operator.eq, self, other))


def apply_slot(
    state: FleetState,
    alloc: np.ndarray,
    inst: ProblemInstance,
    until: float,
    ledger: Ledger,
) -> None:
    """Walk a schedule from the clock to ``until`` and move the clock there.

    ``alloc`` and ``inst`` are a schedule that starts at the clock.  A slot
    applies whole when it ends by ``until``; the slot that holds ``until``
    applies up to it, measured from the clock the slot before left.  A walk,
    or the part of a slot it would apply, shorter than 1e-12 h applies
    nothing: a slot's start ``t_s + i * dt`` can round past the end the slot
    before left, and a row for that gap would start at ``until`` and overlap
    the next schedule's first row.  Each vehicle of the state is
    charged for its own presence within a slot's window, and calendric
    fade is pro-rated by the fraction of a full slot realized.

    Only each slot's start and window are found slot by slot; the walk's
    slots are then one (slots, vehicles) block of ``min(window, duration)``
    hours, and a cell makes a row when its vehicle is in the state and its
    hours are positive.  The plan's vehicles are found in the fleet by id,
    so one that has left makes no row.  The SoC recursion runs over the
    whole plan's SoC vector once per slot, and only cells that make rows
    change it, so every row and SoC has the bits of a walk that gathers each
    slot's vehicles on their own.

    Moves the clock, replaces the state's SoC column with one that holds
    each vehicle's SoC after its last row, and appends the walk's rows to
    ``ledger``, slot by slot, in vehicle order: their primitive fields and
    SoC before, from which the ledger derives cost and fade (see
    :class:`Ledger`).  Every row is checked before any state changes.
    """
    now, grid, ids = state.now, inst.grid, inst.vehicle_ids
    if until <= now + 1e-12 or not inst.horizon:
        state.now = until
        return
    t_s, dt = grid.t_s, grid.dt
    starts, windows = [], []
    for i in range(inst.horizon):
        slot_t = t_s + i * dt
        slot_end = slot_t + dt
        window = dt if slot_end <= until else until - now
        if window <= 1e-12:  # only rounding left between the last slot's end and ``until``
            break
        starts.append(slot_t)
        windows.append(window)
        now = slot_t + window
        if slot_end >= until:
            break
    w = len(starts)
    index = dict(zip(state.ids, range(len(state.ids))))
    pos = np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.intp, count=len(ids))
    fleet_soc = np.concatenate((state.soc_cur, _LEFT_SOC))  # pos -1 is the appended slot
    soc = fleet_soc[pos]
    d = np.minimum(np.array(windows)[:, None], inst.durations[:w])
    rows = d > 0
    rows &= pos >= 0
    delta = np.multiply(alloc[:w], d, out=np.zeros(d.shape), where=rows)
    delta /= inst.c_bat
    soc_before, soc_after = np.empty(d.shape), np.empty(d.shape)
    for i in range(w):
        soc_before[i] = soc
        np.add(soc, delta[i], out=soc_after[i])
        np.minimum(soc_after[i], 1.0, out=soc, where=rows[i])  # cells without a row keep it
    slot_of, col_of = rows.nonzero()
    row_ids = list(map(ids.__getitem__, col_of.tolist()))
    d, amps, soc_init, soc_new = d[rows], alloc[:w][rows], soc_before[rows], soc_after[rows]
    if not (np.minimum.reduce(amps, initial=0.0) >= 0.0  # NaN fails each of these
            and np.minimum.reduce(soc_init, initial=0.0) >= 0.0
            and np.maximum.reduce(soc_init, initial=0.0) <= 1.0):
        for name, bad, value in (("current", ~(amps >= 0.0), amps),
                                 ("soc_init", ~((0.0 <= soc_init) & (soc_init <= 1.0)), soc_init)):
            if bad.any():
                k = int(np.argmax(bad))
                raise InvalidSlotError(name, f"vehicle {row_ids[k]}: {value[k]} out of range")
    if np.maximum.reduce(soc_new, initial=0.0) > 1.0 + 1e-9:
        k = int(np.argmax(soc_new > 1.0 + 1e-9))
        raise SocOverflowError(f"vehicle {row_ids[k]} would reach SoC {soc_new[k]:.9f}")

    fleet_soc[pos] = soc  # each vehicle's SoC after its last row, or as it was
    state.soc_cur = fleet_soc[:-1]
    state.now = until
    ledger.append(
        np.array(starts).take(slot_of), row_ids, d, amps, inst.wep.take(slot_of),
        soc_init, np.minimum(soc_new, 1.0), inst.c_bat, inst.voltage, dt, inst.fade_params,
    )
