"""Command-line driver tests on a small two-session log."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fleetcharge import cli
from fleetcharge.cli import main
from fleetcharge.ingest import parse_sessions

from conftest import ROOT

SESSIONS = """\
session_id,connection_time,disconnect_time,kwh_requested,space_id
S1,2021-05-03T07:30:00Z,2021-05-03T15:30:00Z,18,CA-01
S2,2021-05-03T18:00:00Z,2021-05-04T06:00:00Z,22,CA-02
"""

PRICES_HEADER = "timestamp,price_usd_per_kwh\n"


def price_rows():
    rows = []
    for day in (3, 4):
        for hour in range(24):
            if hour < 6:
                p = 0.03
            elif hour < 9:
                p = 0.06
            elif hour < 16:
                p = 0.02
            else:
                p = 0.12
            rows.append(f"2021-05-{day:02d}T{hour:02d}:00:00Z,{p}")
    return "\n".join(rows) + "\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "sessions.csv").write_text(SESSIONS)
    (tmp_path / "prices.csv").write_text(PRICES_HEADER + price_rows())
    return tmp_path


def io_args(workdir, out):
    return ["--sessions", str(workdir / "sessions.csv"),
            "--prices", str(workdir / "prices.csv"),
            "--out", str(out)]


class TestSimulate:
    def test_baseline_writes_outputs(self, workdir):
        out = workdir / "out"
        rc = main(["simulate", "--policy", "baseline"] + io_args(workdir, out))
        assert rc == 0
        metrics = json.loads((out / "metrics_baseline.json").read_text())
        assert metrics["total_charging_cost_usd"] > 0
        assert (out / "ledger_baseline.csv").exists()
        assert (out / "metrics_baseline.txt").exists()
        assert "max_opt_time_ms" not in metrics  # timing lives in the sidecar
        assert (out / "timing_baseline.json").exists()

    def test_missing_price_file_is_price_gap(self, workdir, capsys):
        rc = main(["simulate", "--policy", "baseline",
                   "--sessions", str(workdir / "sessions.csv"),
                   "--prices", str(workdir / "nope.csv"),
                   "--out", str(workdir / "out")])
        assert rc == 1
        assert "price-gap" in capsys.readouterr().err

    def test_bad_weights_rejected(self, workdir, capsys):
        rc = main(["simulate", "--policy", "proposed", "--weights", "1,2"]
                  + io_args(workdir, workdir / "out"))
        assert rc == 1
        assert "weights" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["nan,1,1", "1,inf,1", "1,1,-inf"])
    def test_non_finite_weights_rejected(self, workdir, capsys, raw):
        rc = main(["simulate", "--policy", "proposed", "--weights", raw]
                  + io_args(workdir, workdir / "out"))
        assert rc == 1
        assert "weights must be finite" in capsys.readouterr().err

    def test_bad_default_soc_start_stops_a_run_without_sessions(self, workdir, capsys):
        """The configured arrival SoC is checked before ingest, so a session
        file holding only its header does not hide it."""
        (workdir / "sessions.csv").write_text(SESSIONS.splitlines()[0] + "\n")
        (workdir / "c.cfg").write_text("default_soc_start = 1.5\n")
        out = workdir / "out"
        rc = main(["simulate", "--policy", "baseline", "--config", str(workdir / "c.cfg")]
                  + io_args(workdir, out))
        assert rc == 1
        assert "default_soc_start" in capsys.readouterr().err
        assert not (out / "metrics_baseline.json").exists()

    def test_usage_error_exit_code(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--policy", "sideways"] + io_args(workdir, workdir / "o"))
        assert exc.value.code == 2


class TestCompare:
    def test_proposed_beats_baseline_cost(self, workdir):
        out = workdir / "cmp"
        rc = main(["compare"] + io_args(workdir, out))
        assert rc == 0
        report = json.loads((out / "compare_report.json").read_text())
        assert report["proposed"]["total_charging_cost_usd"] < \
            report["baseline"]["total_charging_cost_usd"]
        assert (out / "compare_report.txt").exists()

    def test_json_outputs_are_strict(self, workdir):
        """Every JSON file compare writes parses without NaN or Infinity; a
        metric whose baseline is zero has a null delta and n/a in the text."""
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        out = workdir / "strict"
        assert main(["compare"] + io_args(workdir, out)) == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 4
        for path in files:
            json.loads(path.read_text(), parse_constant=reject)
        report = json.loads((out / "compare_report.json").read_text())
        assert report["baseline"]["n_rejected"] == 0
        assert report["delta_percent"]["n_rejected"] is None
        text = (out / "compare_report.txt").read_text()
        assert "n/a" in text and "nan" not in text

    def test_reports_byte_identical_across_runs(self, workdir):
        out1, out2 = workdir / "c1", workdir / "c2"
        assert main(["compare"] + io_args(workdir, out1)) == 0
        assert main(["compare"] + io_args(workdir, out2)) == 0
        for name in ("compare_report.txt", "compare_report.json",
                     "metrics_baseline.json", "metrics_proposed.json",
                     "ledger_baseline.csv", "ledger_proposed.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestSweep:
    def test_three_default_triples(self, workdir):
        out = workdir / "sw"
        rc = main(["sweep"] + io_args(workdir, out))
        assert rc == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + three triples
        assert rows[1].startswith("0.6,0.3,0.1")

    def test_explicit_triples(self, workdir, monkeypatch):
        """Only the policy changes per triple: the sessions are parsed once."""
        parses = []
        monkeypatch.setattr(cli, "parse_sessions",
                            lambda path: parses.append(path) or parse_sessions(path))
        out = workdir / "sw2"
        rc = main(["sweep", "--weights", "1,0,0", "--weights", "0,0,1"]
                  + io_args(workdir, out))
        assert rc == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert len(parses) == 1


class TestValidateFade:
    def test_reports_fit(self, tmp_path, capsys):
        out = tmp_path / "vf"
        rc = main(["validate-fade", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "fade_validation.json").read_text())
        assert report["hi"]["r_squared"] >= 0.99
        assert report["lo"]["r_squared"] >= 0.99
        assert "R^2" in capsys.readouterr().out

    def test_custom_grid(self, capsys):
        rc = main(["validate-fade", "--grid-n", "40", "--grid-imax", "60"])
        assert rc == 0
        assert "40x40" in capsys.readouterr().out

    @pytest.mark.parametrize("imax", ["0", "-5", "nan", "inf"])
    def test_bad_grid_current_rejected(self, capsys, imax):
        """An explicit zero is not replaced by the config's limit; no
        non-positive or non-finite limit yields a report."""
        assert main(["validate-fade", "--grid-imax", imax]) == 1
        err = capsys.readouterr().err
        assert "grid current limit must be finite and > 0" in err

    def test_negative_grid_size_rejected(self, capsys):
        assert main(["validate-fade", "--grid-n", "-1"]) == 1
        assert "grid size must be >= 0, got -1" in capsys.readouterr().err

    def test_tiny_grid_is_strict_json(self, tmp_path, capsys):
        """A 2x2 grid leaves the low-current branch empty: exit 0, null
        statistics in strict JSON and n/a in the text."""
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        out = tmp_path / "vf2"
        assert main(["validate-fade", "--grid-n", "2", "--out", str(out)]) == 0
        report = json.loads((out / "fade_validation.json").read_text(),
                            parse_constant=reject)
        assert report["lo"] == {"n_points": 0, "r_squared": None,
                                "rmse_ah": None, "max_abs_err_ah": None}
        assert report["hi"]["n_points"] == 2
        assert "R^2 = n/a over 0 points" in (out / "fade_validation.txt").read_text()
        assert "n/a" in capsys.readouterr().out


_LP_STACK_PROBE = """
import sys

import fleetcharge
import fleetcharge.cli

week, out = sys.argv[1], sys.argv[2]
rc = fleetcharge.cli.main(["simulate", "--policy", "baseline",
                           "--sessions", f"{week}/sessions_week.csv",
                           "--prices", f"{week}/prices_week.csv",
                           "--config", f"{week}/config_week.cfg", "--out", out])
print(rc, "scipy.optimize" in sys.modules, "scipy.sparse" in sys.modules)

from fleetcharge.problem import StationLimits, build_instance
from fleetcharge.scheduler import ZERO_PRICES
from fleetcharge.solver import feasibility_check

inst = build_instance(["A"], [4.0], [0.4], [0.8], t_s=0.0, prices_fn=ZERO_PRICES,
                      limits=StationLimits(soc_xtra_ah=0.0))
print(feasibility_check(inst).feasible, "scipy.optimize._highspy._core" in sys.modules,
      "scipy.optimize" in sys.modules, "scipy.sparse" in sys.modules)
"""


def test_baseline_replay_never_loads_the_lp_stack(tmp_path):
    """Importing the package and its CLI and replaying the week under the
    baseline load neither ``scipy.optimize`` nor ``scipy.sparse``; the first
    LP loads only scipy's HiGHS extension.  A fresh interpreter, so no other
    test has imported scipy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _LP_STACK_PROBE, str(ROOT / "fixtures"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    assert done.stdout.splitlines()[-2:] == ["0 False False", "True True False False"]
