"""Unit tests of the report and solve comparisons in ``scripts/parity.py``."""

import importlib.util
import math

import numpy as np

from fleetcharge.problem import COMPONENTS, ChargingTask, NormalizationPoints, build_constraints
from fleetcharge.solver import solve

from conftest import ROOT, make_instance

_spec = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def _line(digest, objective, iterations=3, status="optimal-local"):
    return f"{digest} {objective!r} {iterations} {status}"


class TestDiffer:
    def test_changed_and_one_sided_keys_sorted(self):
        mine = {"b/x.json": "1", "a/y.txt": "2", "same": "3"}
        theirs = {"b/x.json": "9", "c/z.txt": "4", "same": "3"}
        assert parity._differ(mine, theirs) == ["a/y.txt", "b/x.json", "c/z.txt"]

    def test_equal_sides(self):
        assert parity._differ({"k": "v"}, {"k": "v"}) == []


class TestSolveGap:
    def test_identical_runs(self):
        lines = [_line("aa", 1.5), _line("bb", 2.0)]
        assert parity._solve_gap(lines, list(lines)) == (0, 0.0)

    def test_largest_relative_objective_gap(self):
        mine = [_line("aa", 2.0), _line("bb", 4.0), _line("cc", 1.0)]
        theirs = [_line("aa", 2.0), _line("b2", 5.0), _line("c2", 1.1)]
        differ, gap = parity._solve_gap(mine, theirs)
        assert differ == 2
        assert gap == 1.0 / 5.0   # the larger of 1/5 and 0.1/1.1

    def test_plan_moves_with_equal_objective(self):
        """A differing line counts even when its objective has no gap, as
        do two infeasible solves' infinities."""
        mine = [_line("aa", 2.0), _line("n1", math.inf, 0, "infeasible")]
        theirs = [_line("a2", 2.0), _line("n2", math.inf, 0, "infeasible")]
        assert parity._solve_gap(mine, theirs) == (2, 0.0)

    def test_one_side_infeasible(self):
        differ, gap = parity._solve_gap([_line("aa", 2.0)], [_line("n", math.inf)])
        assert (differ, gap) == (1, math.inf)

    def test_solve_on_one_side_only(self):
        lines = [_line("aa", 2.0)]
        assert parity._solve_gap(lines + [_line("bb", 3.0)], lines) == (1, math.inf)


class TestValues:
    def test_json_leaves_by_key_path(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"a": {"b": [1.5, "x"]}, "c": null, "d": []}')
        assert parity._values(path) == {("a", "b", 0): 1.5, ("a", "b", 1): "x", ("c",): None}

    def test_csv_cells_and_text_words_by_position(self, tmp_path):
        table, text = tmp_path / "l.csv", tmp_path / "r.txt"
        table.write_text('t,soc\n0.5,"0.25"\n')
        text.write_text("cost 1.5 $\n\nfade  2\n")
        assert parity._values(table) == {(0, 0): "t", (0, 1): "soc",
                                         (1, 0): "0.5", (1, 1): "0.25"}
        assert parity._values(text) == {(0, 0): "cost", (0, 1): "1.5", (0, 2): "$",
                                        (2, 0): "fade", (2, 1): "2"}


class TestValueGap:
    def test_ulp_move_reads_as_one(self):
        """A last-digit change counts once, with a gap of about one ulp."""
        a = 0.1 + 0.2
        b = math.nextafter(a, 1.0)
        mine = {(1, 0): "x", (1, 1): repr(b), (1, 2): "2.0"}
        theirs = {(1, 0): "x", (1, 1): repr(a), (1, 2): "2.0"}
        differ, gap = parity._value_gap(mine, theirs)
        assert differ == 1
        assert gap == (b - a) / b and gap < 2.3e-16

    def test_largest_relative_difference(self):
        mine = {("a",): 1.0, ("b",): 4.0, ("c",): "1"}
        theirs = {("a",): 1.1, ("b",): 5.0, ("c",): "1.0"}
        differ, gap = parity._value_gap(mine, theirs)
        assert differ == 3          # "1" and "1.0" differ as text, with no gap
        assert gap == 1.0 / 5.0

    def test_text_or_one_sided_value_has_infinite_gap(self):
        assert parity._value_gap({("k",): "on"}, {("k",): "off"}) == (1, math.inf)
        assert parity._value_gap({("k",): 1.0}, {}) == (1, math.inf)
        assert parity._value_gap({("k",): 1.0}, {("k",): 1.0}) == (0, 0.0)


class TestShared:
    def test_lower_utopia_and_higher_nadir_per_component(self):
        a = NormalizationPoints(utopia=dict(zip(COMPONENTS, (1.0, 5.0, -3.0))),
                                nadir=dict(zip(COMPONENTS, (9.0, 6.0, 0.0))))
        b = NormalizationPoints(utopia=dict(zip(COMPONENTS, (2.0, 4.0, -4.0))),
                                nadir=dict(zip(COMPONENTS, (8.0, 7.0, 1.0))))
        got = parity._shared(a, b)
        assert got.utopia == dict(zip(COMPONENTS, (1.0, 4.0, -4.0)))
        assert got.nadir == dict(zip(COMPONENTS, (9.0, 7.0, 1.0)))
        assert parity._shared(b, a) == got

    def test_one_side_without_points(self):
        a = NormalizationPoints(utopia=dict.fromkeys(COMPONENTS, 0.0),
                                nadir=dict.fromkeys(COMPONENTS, 1.0))
        assert parity._shared(a, None) is a
        assert parity._shared(None, a) is a
        assert parity._shared(None, None) is None


class TestPlanGap:
    def test_largest_absolute_current_difference(self):
        theirs = np.array([[10.0, 0.0], [5.0, 80.0]])
        mine = theirs + np.array([[0.0, 2e-13], [-6e-13, 0.0]])
        assert parity._plan_gap(theirs, mine) == abs(mine[1, 0] - theirs[1, 0])
        assert parity._plan_gap(theirs, theirs.copy()) == 0.0

    def test_missing_or_misshapen_plan(self):
        plan = np.zeros((2, 3))
        assert parity._plan_gap(None, None) == 0.0
        assert parity._plan_gap(plan, None) == math.inf
        assert parity._plan_gap(None, plan) == math.inf
        assert parity._plan_gap(plan, np.zeros((3, 2))) == math.inf
        assert parity._plan_gap(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0


class TestCompareObjectives:
    PRICES = {0.0: 0.3, 0.5: 0.1, 1.0: 0.2, 1.5: 0.05}

    def _records(self):
        """This checkout's solves of two small instances, as a run pickles them."""
        records = []
        for tasks in ([ChargingTask("A", 0.0, 2.0, 0.3, 0.5),
                       ChargingTask("B", 0.0, 1.5, 0.4, 0.6)],
                      [ChargingTask("C", 0.0, 1.0, 0.2, 0.35)]):
            inst = make_instance(tasks, prices=lambda t: self.PRICES[t], ic_max=120.0,
                                 soc_xtra_ah=21.0)
            alloc, rep = solve(inst, (1.0, 1.0, 1.0))
            records.append((inst, (1.0, 1.0, 1.0), rep.points, alloc, rep))
        return records

    def test_resolves_equal_and_print_no_solve_time(self, capsys):
        assert parity.compare_objectives("small", self._records())
        out = capsys.readouterr().out
        assert "worse 0," in out and "equal 2;" in out and "plans differ 0," in out
        assert "solve time" not in out

    def test_worse_feasible_plan_fails(self, capsys, monkeypatch):
        """C's whole need in its dearer first slot: feasible, and worse than
        the recorded plan."""
        records = self._records()
        inst, weights, points, alloc, _ = records[1]
        worse = np.array([[63.0], [0.0]])
        assert build_constraints(inst).audit(worse) == []
        assert (parity._score(inst, weights, points, worse)
                > parity._score(inst, weights, points, alloc))
        resolve = parity._resolve_all

        def with_worse_plan(recs):
            out = resolve(recs)
            out[1] = (out[1][0], worse, out[1][2])
            return out

        monkeypatch.setattr(parity, "_resolve_all", with_worse_plan)
        assert not parity.compare_objectives("small", records)
        out = capsys.readouterr().out
        assert "worse 1," in out and "at solve 2;" in out and "audit failures 0 -> 0" in out
        assert "solve time" not in out
