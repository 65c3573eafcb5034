"""Smoke test of ``scripts/random_logs.py``: its ``main`` runs a few logs
under each policy and prints its three counts, so a change to the package's
contracts cannot break the script unnoticed."""

import importlib.util
import re

import pytest

from conftest import ROOT

_spec = importlib.util.spec_from_file_location(
    "random_logs", ROOT / "scripts" / "random_logs.py")
random_logs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(random_logs)


def _counts(out):
    return {kind: int(n) for kind, n in
            re.findall(r"^(raise|overlap|over-feeder) +(\d+)$", out, re.MULTILINE)}


@pytest.mark.parametrize("policy, n", [("baseline", 5), ("proposed", 3)])
def test_main_prints_the_three_counts(policy, n, capsys):
    assert random_logs.main(["--policy", policy, "--n", str(n), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert f"{n} logs, policy {policy}, seed 1" in out
    counts = _counts(out)
    assert set(counts) == {"raise", "overlap", "over-feeder"}
    # The baseline replay has no known raise; the proposed one's re-anchoring
    # fault and both policies' overlaps are left for the counts to show.
    if policy == "baseline":
        assert counts["raise"] == 0, out
