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

import pytest

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
