"""Event-driven replay of a charging-session log.

Arrivals and departures drive the simulation: every event is applied and
then answered with a fresh schedule that starts at the event time, generated
with the active policy.  So each plan is walked once, from its anchor to
the next event, by one :func:`~fleetcharge.scheduler.apply_slot` call that
appends the realized charging, per slot and vehicle, to a
:class:`~fleetcharge.scheduler.Ledger`.  The ledger keeps its rows as float
columns, derives their cost and fade a batch of rows at a time and builds a
row only when one is read; the performance metrics are summed over its
columns once, when the log is done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .problem import ChargingTask, ProblemInstance, StationLimits
from .scheduler import (
    Admission,
    FleetState,
    Ledger,
    Policy,
    admit_task,
    apply_slot,
    baseline_schedule,
    proposed_schedule,
)

__all__ = [
    "Event",
    "event_sort_key",
    "SimConfig",
    "MetricsReport",
    "DepartureRecord",
    "RunResult",
    "run",
    "peak_power_period",
    "value_loss",
]

ACTIVE_CURRENT_EPS = 1e-3  # A; below this a slot does not count as charging


@dataclass(frozen=True)
class Event:
    """Arrival or departure at the station, in hours on the run clock."""

    time_h: float
    kind: str                        # "arrival" | "departure"
    task: ChargingTask | None = None  # arrivals
    vehicle_id: str | None = None     # departures

    def __post_init__(self):
        if self.kind == "arrival" and self.task is None:
            raise ValueError("arrival event needs a task")
        if self.kind == "departure" and not self.vehicle_id:
            raise ValueError("departure event needs a vehicle id")
        if self.kind not in ("arrival", "departure"):
            raise ValueError(f"unknown event kind {self.kind!r}")


_KIND_ORDER = {"arrival": 0, "departure": 1}


def event_sort_key(e: Event) -> tuple:
    """Time order, arrivals before departures at equal times, then vehicle id."""
    return (e.time_h, _KIND_ORDER[e.kind], e.task.vehicle_id if e.task else e.vehicle_id)


@dataclass(frozen=True)
class SimConfig(StationLimits):
    """Station limits plus the reporting parameters of one simulated run,
    checked once, when built: the limits, then ``peak_threshold``,
    ``battery_cost_usd`` and ``default_soc_start``."""

    battery_cost_usd: float = 11610.0
    peak_threshold: float = 0.75     # fraction of maximum power
    default_soc_start: float = 0.4
    policy: Policy = field(default_factory=lambda: Policy("proposed"))

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.peak_threshold <= 1.0:
            raise ValueError("peak_threshold must be in (0, 1]")
        if not self.battery_cost_usd > 0:
            raise ValueError("battery_cost_usd must be > 0")
        if not 0.0 <= self.default_soc_start <= 1.0:
            raise ValueError(
                f"default_soc_start must be in [0, 1], got {self.default_soc_start}")


@dataclass
class MetricsReport:
    """Aggregate performance metrics of one run."""

    total_charging_cost: float = 0.0       # $
    total_fade_exact: float = 0.0          # Ah
    total_fade_approx: float = 0.0         # Ah
    total_value_loss: float = 0.0          # $
    total_peak_power_period: float = 0.0   # h, realized peak slots across vehicles
    total_charging_time: float = 0.0       # h, realized active vehicle-slots
    max_opt_time_ms: float = 0.0
    n_rejected: int = 0
    per_event_peak_period: list = field(default_factory=list)  # h per scheduled plan

    def as_dict(self) -> dict:
        return {
            "total_charging_cost_usd": self.total_charging_cost,
            "total_fade_exact_ah": self.total_fade_exact,
            "total_fade_approx_ah": self.total_fade_approx,
            "total_value_loss_usd": self.total_value_loss,
            "total_peak_power_period_h": self.total_peak_power_period,
            "total_charging_time_h": self.total_charging_time,
            "n_rejected": self.n_rejected,
            "per_event_peak_period_h": list(self.per_event_peak_period),
        }


@dataclass(frozen=True)
class DepartureRecord:
    vehicle_id: str
    soc_at_departure: float
    soc_dep_required: float
    soc_start: float


@dataclass
class RunResult:
    metrics: MetricsReport
    ledger: Ledger
    departures: list                  # DepartureRecord
    rejected: list                    # (ChargingTask, reason)


def peak_power_period(alloc: np.ndarray, config: SimConfig) -> float:
    """Hours of slots allocated strictly more than the peak-power threshold.

    Summed across vehicles; a slot at exactly the threshold does not count.
    """
    if alloc.size == 0:
        return 0.0
    peaking = alloc > config.peak_threshold * config.i_max
    return np.count_nonzero(peaking) * config.dt


def value_loss(fade_ah: float, config: SimConfig) -> float:
    """Battery pack cost prorated by the fraction of nominal capacity faded."""
    if fade_ah < 0:
        raise ValueError("fade must be >= 0")
    return config.battery_cost_usd * fade_ah / config.c_bat


def _left_fold(values) -> float:
    """``functools.reduce(operator.add, values, 0.0)``, added by numpy."""
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def _reschedule(
    state: FleetState,
    config: SimConfig,
    prices_fn: Callable[[np.ndarray], np.ndarray],
    result: RunResult,
) -> tuple[np.ndarray, ProblemInstance]:
    policy = config.policy
    if policy.kind == "baseline":
        alloc, inst = baseline_schedule(state, config, prices_fn)
        opt_ms = 0.0
    else:
        alloc, rep, inst = proposed_schedule(state, policy.weights, config, prices_fn)
        opt_ms = rep.wall_time_ms
    result.metrics.max_opt_time_ms = max(result.metrics.max_opt_time_ms, opt_ms)
    result.metrics.per_event_peak_period.append(peak_power_period(alloc, config))
    return alloc, inst


def run(
    events: list,
    prices_fn: Callable[[np.ndarray], np.ndarray],
    config: SimConfig,
) -> RunResult:
    """Replay an event list under one policy and accumulate metrics.

    Events are processed in time order with arrivals before departures at
    equal timestamps.  Deterministic: repeated runs produce identical
    results apart from measured optimization wall time.
    """
    events = sorted(events, key=event_sort_key)
    result = RunResult(
        metrics=MetricsReport(), ledger=Ledger(), departures=[], rejected=[]
    )
    if not events:
        return result

    state = FleetState(now=events[0].time_h)
    rejected_ids = set()  # the vehicle ids of result.rejected
    plan = None  # the first event is at state.now: nothing to walk
    for ev in events:
        if plan is not None:
            apply_slot(state, *plan, ev.time_h, result.ledger)
        if ev.kind == "arrival":
            task = ev.task  # a duplicate arrival raises, in admission or in plug
            admission: Admission | None = None
            if config.policy.kind == "proposed":
                admission = admit_task(task, state, config)
            if admission is None or admission.accepted:
                state.plug(task, task.soc_start)
            else:
                result.metrics.n_rejected += 1
                result.rejected.append((task, admission.reason))
                rejected_ids.add(task.vehicle_id)
        else:
            gone = state.unplug(ev.vehicle_id)
            if gone is not None:
                task, soc = gone
                result.departures.append(
                    DepartureRecord(
                        vehicle_id=ev.vehicle_id,
                        soc_at_departure=soc,
                        soc_dep_required=task.soc_dep,
                        soc_start=task.soc_start,
                    )
                )
            elif ev.vehicle_id not in rejected_ids:
                raise ValueError(f"unmatched-departure: {ev.vehicle_id}")
            # a rejected task never plugged in, but its departure still ends
            # in a reschedule: the walk may have applied part of a slot
        plan = _reschedule(state, config, prices_fn, result)

    # Tail: drain any vehicles whose departure events were missing, to the
    # latest departure, the last in the fleet's departure order.
    if state.ids:
        apply_slot(state, *plan, float(state.t_dep[-1]), result.ledger)

    # Each total adds its rows one at a time, in row order, from 0.0: a
    # pairwise or compensated sum would change its bits.  A masked total
    # adds 0.0 for each row it skips, which leaves the running sum as is.
    m, column = result.metrics, result.ledger.column
    hours, amps = np.asarray(column("duration_h")), np.asarray(column("current_a"))
    m.total_charging_cost = _left_fold(column("cost_usd"))
    m.total_fade_exact = _left_fold(column("fade_exact_ah"))
    m.total_fade_approx = _left_fold(column("fade_approx_ah"))
    m.total_charging_time = _left_fold(np.where(amps > ACTIVE_CURRENT_EPS, hours, 0.0))
    m.total_peak_power_period = _left_fold(
        np.where(amps > config.peak_threshold * config.i_max, hours, 0.0))
    m.total_value_loss = value_loss(m.total_fade_exact, config)
    return result
