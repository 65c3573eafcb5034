"""The package names the benchmark in ``perfbench/`` looks up at run time.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` of its
``LAYERS`` with a timing wrapper, and ``perfbench/workloads.py``'s
``RescheduleProbe`` patches the policy functions the simulator calls and the
CLI's simulator entry point and event digest, and its ``depot-baseline``
workload reads the rows of each run's ledger.  A name dropped or renamed, or
a result shape changed, here would break the benchmark only when it runs.
"""

import importlib
import importlib.util
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fleetcharge.problem import StationLimits, build_instance
from fleetcharge.solver import SolveReport, SolveStatus

from conftest import ROOT, perfbench_workloads

_spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)
workloads = perfbench_workloads()

# The attributes RescheduleProbe.install patches.
PROBED = [
    ("fleetcharge.simulator", "proposed_schedule"),
    ("fleetcharge.simulator", "baseline_schedule"),
    ("fleetcharge.cli", "run"),
    ("fleetcharge.cli", "events_digest"),
]


@pytest.mark.parametrize("name, module, attr", tracer.LAYERS,
                         ids=[name for name, _, _ in tracer.LAYERS])
def test_traced_layer_resolves(name, module, attr):
    assert name == f"{module.split('.')[-1]}.{attr}"
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, attr", PROBED, ids=[f"{m}.{a}" for m, a in PROBED])
def test_probed_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_depot_ledger_rows_add_up(tmp_path):
    """The ledger check of ``DepotBaseline.run_pass``: the run's ledger
    iterates rows with a ``cost_usd`` that add up to the reported total."""
    depot = workloads.DepotBaseline()
    sim_config, events, prices_fn = depot.ingest(depot.prepare(ROOT, tmp_path, 1, tiny=True))
    result = workloads.fc_simulator.run(events, prices_fn, sim_config)
    ledger_cost = sum(e.cost_usd for e in result.ledger)
    assert len(result.ledger) > 0 and ledger_cost > 0.0
    assert math.isclose(ledger_cost, result.metrics.total_charging_cost, rel_tol=1e-9)


def test_depot_reschedules_pass_the_probe_checks(tmp_path):
    """``DepotBaseline.run_pass``'s reschedule checks on the tiny depot:
    the probe sees one baseline reschedule per event, and each plan passes
    ``check_reschedules``, which reads the instance's fields."""
    depot = workloads.DepotBaseline()
    sim_config, events, prices_fn = depot.ingest(depot.prepare(ROOT, tmp_path, 1, tiny=True))
    probe = workloads.RescheduleProbe()
    probe.install()
    try:
        workloads.fc_simulator.run(events, prices_fn, sim_config)
    finally:
        probe.uninstall()
    res = workloads.PassResult(wall_s=0.0, events=len(events))
    workloads.check_reschedules(probe, "baseline", res)
    assert res.problems == [] and res.failed == 0
    assert res.attempted == len(events) > 0


def test_failed_plans_counted_and_placed_in_time():
    """``check_reschedules`` on a baseline plan over the station cap and a
    proposed plan below a vehicle's energy window: each is counted failed,
    and its problem gives the instance's start time.  This pins the
    instance fields the checks read (``horizon``, ``n_vehicles``,
    ``i_max``, ``ic_max``, ``active``, ``grid.t_s``) and the report's
    ``objective``."""
    inst = build_instance(["a", "b"], [4.0, 4.0], [0.4, 0.4], [0.6, 0.6], t_s=3.0,
                          prices_fn=lambda t: np.full(len(t), 0.1),
                          limits=StationLimits(i_max=80.0, ic_max=100.0, soc_xtra_ah=0.0))
    over_cap = np.full((inst.horizon, inst.n_vehicles), 80.0)
    rep = SolveReport(objective=0.25, breakdown=None, wall_time_ms=1.0, iterations=3,
                      status=SolveStatus.FEASIBLE, points=None)
    # check_reschedules reads only the probe's calls: (policy, ms, output, error)
    probe = SimpleNamespace(calls=[("baseline", 0.1, (over_cap, inst), None),
                                   ("proposed", 0.2, (inst.empty_allocation(), rep, inst), None)])
    for policy, violation in (("baseline", "station current limit exceeded"),
                              ("proposed", "below window")):
        res = workloads.PassResult(wall_s=0.0)
        workloads.check_reschedules(probe, policy, res)
        assert (res.attempted, res.failed, len(res.problems)) == (1, 1, 1)
        assert res.problems[0].startswith(f"{policy} plan at t=3.0000 h: ")
        assert violation in res.problems[0]
        assert res.objectives == ([0.25] if policy == "proposed" else [])
