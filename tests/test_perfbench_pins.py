"""The package names the benchmark in ``perfbench/`` looks up at run time.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` of its
``LAYERS`` with a timing wrapper, and ``perfbench/workloads.py``'s
``RescheduleProbe`` patches the policy functions the simulator calls and the
CLI's simulator entry point and event digest.  A name dropped or renamed
here would break the benchmark only when it runs.
"""

import importlib
import importlib.util

import pytest

from conftest import ROOT

_spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

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
