"""Shared fixtures: paths to the bundled weeks and small reusable instances."""

import gc
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from fleetcharge.fade import FadeModelParams, cyclic_fade_approx, cyclic_fade_exact
from fleetcharge.problem import ChargingTask, StationLimits, build_instance
from fleetcharge.scheduler import FleetState, Ledger, LedgerEntry, apply_slot

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@pytest.fixture(scope="session")
def fade_params():
    return FadeModelParams()


@pytest.fixture(scope="session")
def fixture_paths():
    return {
        "sessions_week": FIXTURES / "sessions_week.csv",
        "prices_week": FIXTURES / "prices_week.csv",
        "config_week": FIXTURES / "config_week.cfg",
        "sessions_overnight": FIXTURES / "sessions_overnight.csv",
        "prices_overnight": FIXTURES / "prices_overnight.csv",
        "config_overnight": FIXTURES / "config_overnight.cfg",
    }


def perfbench_workloads():
    """``perfbench/workloads.py``, loaded once as module ``workloads``."""
    if "workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("workloads",
                                                      ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


def price_fn(prices):
    """A price function over arrays of instants, as ``build_instance`` and
    the simulator call it, from a flat price or a per-instant callable."""
    one = prices if callable(prices) else (lambda t: prices)
    return lambda t_h: np.array([one(t) for t in t_h.tolist()], dtype=float)


def reachable(root) -> list:
    """``root`` and every object it refers to, directly or not; types and
    modules are not followed."""
    seen, todo, out = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        todo.extend(gc.get_referents(obj))
    return out


def fleet(now, *tasks_soc) -> FleetState:
    """A :class:`FleetState` at the clock ``now`` with each ``(task, soc)``
    plugged in at SoC ``soc``."""
    state = FleetState(now=now)
    for task, soc in tasks_soc:
        state.plug(task, soc)
    return state


def soc_of(state, vid):
    """The current SoC of the plugged vehicle ``vid``."""
    return state.soc_cur[state.ids.index(vid)]


def set_soc(state, vid, soc):
    """Give the plugged vehicle ``vid`` the SoC ``soc``, in a new SoC column,
    as the program replaces a column rather than write into it."""
    soc_cur = state.soc_cur.copy()
    soc_cur[state.ids.index(vid)] = soc
    state.soc_cur = soc_cur


def slot_rows(state, alloc, inst, until) -> Ledger:
    """A fresh :class:`Ledger` holding the rows of one :func:`apply_slot`
    walk from the clock to ``until``."""
    ledger = Ledger()
    apply_slot(state, alloc, inst, until, ledger)
    return ledger


def ledger_row(time_h, vid, d, amps, price, soc_before, soc, c_bat, voltage, dt, params):
    """The :class:`LedgerEntry` of one row given by its primitive fields,
    its SoC before and its slot model (pack capacity, voltage, full slot
    length, fade parameters): the derived fields come from the fade kernels
    evaluated on that row alone."""
    exact = cyclic_fade_exact(soc_before, amps, d, c_bat, params)
    approx, soc_avg, _ = cyclic_fade_approx(soc_before, amps, d, c_bat, params)
    cal = d / dt * params.calendric(np.minimum(soc_avg, 1.0))
    ah = amps * d
    return LedgerEntry(time_h, vid, d, amps, amps * voltage / 1000.0, price,
                       ah * voltage / 1000.0 * price, ah, soc, float(exact + cal),
                       float(approx + cal))


def task_columns(tasks) -> tuple:
    """``build_instance``'s vehicle columns of a list of tasks, in
    (departure, id) order as :class:`FleetState` holds them: ids,
    departures, start SoCs and departure SoCs."""
    tasks = sorted(tasks, key=lambda t: (t.t_dep, t.vehicle_id))
    return ([t.vehicle_id for t in tasks], [t.t_dep for t in tasks],
            [t.soc_start for t in tasks], [t.soc_dep for t in tasks])


def make_instance(
    tasks,
    prices=0.10,
    t_s=0.0,
    dt=0.5,
    i_max=80.0,
    ic_max=400.0,
    voltage=410.0,
    c_bat=210.0,
    soc_xtra_ah=0.0,
    params=None,
):
    """Small-instance builder with a flat price or a per-instant callable."""
    limits = StationLimits(dt=dt, i_max=i_max, ic_max=ic_max, voltage=voltage, c_bat=c_bat,
                           soc_xtra_ah=soc_xtra_ah, fade_params=params or FadeModelParams())
    return build_instance(*task_columns(tasks), t_s=t_s, prices_fn=price_fn(prices),
                          limits=limits)


@pytest.fixture
def two_by_three_instance():
    """Two vehicles on a three-slot grid with distinct prices, from the
    frozen reference computation in test_problem."""
    tasks = [
        ChargingTask("A", 0.0, 1.0, 0.50, 0.80),
        ChargingTask("B", 0.0, 1.5, 0.40, 0.85),
    ]
    price_steps = {0.0: 0.30, 0.5: 0.10, 1.0: 0.20}
    return make_instance(
        tasks,
        prices=lambda t: price_steps[t],
        dt=0.5,
        i_max=60.0,
        ic_max=120.0,
        voltage=400.0,
        c_bat=200.0,
        soc_xtra_ah=10.0,
    )
