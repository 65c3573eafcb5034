"""Minimization of the normalized weighted-sum objective over the schedule polytope.

The objective mixes two linear components (charging cost, negative weighted
power) with the piecewise-quadratic fade term whose branch membership
depends on the decision variables themselves.  The solver fixes the branch
assignment, descends the resulting smooth surrogate with projected gradient
steps from several deterministic feasible starts, re-derives branches from
the solution and repeats until the assignment is stable, keeping the best
start's final repaired point measured by the true objective.

Linear single-objective subproblems (cost and availability) are solved
exactly as LPs on one HiGHS model per instance (dual simplex, Huangfu & Hall
2018), built once and passed afresh with each cost vector.  The cost LP is
every entry point's feasibility verdict, and its vertex anchors every repair.
The model runs on scipy's HiGHS extension, loaded on its own at the first LP.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fade import BranchCoefficients
from .problem import (
    COMPONENTS,
    ConstraintSet,
    NormalizationPoints,
    ObjectiveBreakdown,
    ProblemInstance,
    build_constraints,
    compute_normalization_points,
    fade_terms,
    max_power_allocation,
    normalized_objective,
    objective_components,
    soc_before_slots,
)

__all__ = [
    "SolveReport",
    "SolveStatus",
    "FeasibilityResult",
    "feasibility_check",
    "solve",
    "single_objective_minimizer",
]


class SolveStatus:
    OPTIMAL_LOCAL = "optimal-local"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


TOL_OBJ = 1e-6          # relative objective convergence tolerance
JUMP_TRIALS = 3         # the line search ends after this many rejected trials ...
JUMP_RTOL = 1e-3        # ... whose rises fc - f agree to this relative tolerance
MAX_BRANCH_ITERS = 20   # branch-fixing rounds
MAX_INNER_ITERS = 150   # projected-gradient steps per round


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    reason: str | None = None       # vehicle-capacity | station-capacity
    point: np.ndarray | None = None  # a feasible allocation when one exists


@dataclass
class SolveReport:
    objective: float
    breakdown: ObjectiveBreakdown | None
    wall_time_ms: float
    iterations: int
    status: str
    points: NormalizationPoints | None  # the payoff points used; None when empty or infeasible


# ---------------------------------------------------------------------------
# Linear subproblems
# ---------------------------------------------------------------------------


def _lp_matrices(inst: ProblemInstance):
    """Column-wise A_ub ``(start, index, value)``, b_ub and variable bounds
    of the schedule polytope.

    Rows: station cap per slot, then each vehicle's energy window top, then
    its floor (negated).  Cell ``j = i * V + v`` is column j: it holds row
    i with value 1 and, when ``d > 0``, row ``H + v`` with ``d`` and row
    ``H + V + v`` with ``-d``, rows ascending.
    """
    h, n = inst.horizon, inst.n_vehicles
    size = h * n
    ub = np.where(inst.active, inst.i_max, 0.0).ravel()
    d = inst.durations.ravel()
    vs = np.tile(np.arange(n), h)
    rows = np.column_stack([np.repeat(np.arange(h), n), h + vs, h + n + vs])
    values = np.column_stack([np.ones(size), d, -d])
    held = np.column_stack([np.ones(size, dtype=bool), d > 0, d > 0])
    start = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(held.sum(axis=1), out=start[1:])
    b = np.concatenate([np.full(h, inst.ic_max), inst.e_hi, -inst.e_lo])
    a_ub = (start, rows[held].astype(np.int32), values[held])
    return a_ub, b, np.column_stack([np.zeros(size), ub])


_HIGHS = "scipy.optimize._highspy._core"


def _highs():
    """scipy's HiGHS extension, loaded without ``scipy`` or
    ``scipy.optimize``'s package init.

    The module is registered in ``sys.modules`` under its full name, so
    ``scipy.optimize`` reuses it when it is loaded later, and this returns
    the one ``scipy.optimize`` loaded earlier.
    """
    module = sys.modules.get(_HIGHS)
    if module is not None:
        return module
    package = importlib.util.find_spec("scipy")  # locates scipy, does not import it
    if package is None:
        raise ImportError("scipy is not installed", name=_HIGHS)
    folder = os.path.join(package.submodule_search_locations[0], "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS, [folder])
    if spec is None:
        raise ImportError(f"no HiGHS extension in {folder}", name=_HIGHS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS] = module
    spec.loader.exec_module(module)
    return module


class _LinearProgram:
    """The instance's schedule polytope as one HiGHS model, built once.

    Calling it with a cost array (H, V) minimizes that linear objective over
    the polytope and returns the allocation, or None unless HiGHS reports
    the optimum.  The options are those of ``linprog(method="highs")``:
    presolve on, dual simplex, no output.  Every call passes the model
    afresh with its cost, so each LP starts cold and returns the vertex a
    fresh model would, whatever was solved before.  Changing the cost in
    place and clearing the solver is not enough: HiGHS keeps state that can
    move a later LP's optimal vertex.  The matrix is :func:`_lp_matrices`'
    column-wise triple, passed as it is, and the HiGHS extension is loaded
    here by :func:`_highs` rather than with the package, so a run that
    builds no LP (the baseline replay) never loads it.
    """

    def __init__(self, inst: ProblemInstance):
        highs = _highs()

        self.inst = inst
        self.size = inst.horizon * inst.n_vehicles
        if self.size == 0:
            return
        (start, index, value), b_ub, bounds = _lp_matrices(inst)
        lp = highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = self.size
        lp.num_row_ = lp.a_matrix_.num_row_ = len(b_ub)
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value
        lp.col_lower_, lp.col_upper_ = bounds.T.copy()
        lp.row_lower_ = np.full(len(b_ub), -highs.kHighsInf)
        lp.row_upper_ = b_ub
        options = highs.HighsOptions()
        options.presolve = "on"
        options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.output_flag = False
        options.log_to_console = False
        self.lp = lp
        self.optimal = highs.HighsModelStatus.kOptimal
        self.model = highs._Highs()
        self.model.passOptions(options)

    def __call__(self, c: np.ndarray) -> np.ndarray | None:
        inst = self.inst
        if self.size == 0:
            return inst.empty_allocation()
        self.lp.col_cost_ = np.ravel(c).astype(float)
        self.model.passModel(self.lp)
        self.model.run()
        if self.model.getModelStatus() != self.optimal:
            return None
        x = np.array(self.model.getSolution().col_value).reshape(inst.horizon, inst.n_vehicles)
        x = np.clip(x, 0.0, None)
        x[~inst.active] = 0.0
        return x


def _cost_coeffs(inst: ProblemInstance) -> np.ndarray:
    return inst.wep[:, None] * inst.durations * inst.voltage / 1000.0


def _avail_coeffs(inst: ProblemInstance) -> np.ndarray:
    return -inst.avail_w * inst.voltage


def _verdict(constraints: ConstraintSet, lp: _LinearProgram) -> FeasibilityResult:
    """The one feasibility verdict: the counting bound, then the cost LP."""
    if not constraints.feasible_by_construction:
        return FeasibilityResult(False, reason="vehicle-capacity")
    x = lp(_cost_coeffs(lp.inst))
    if x is None:
        return FeasibilityResult(False, reason="station-capacity")
    return FeasibilityResult(True, point=x)


def feasibility_check(inst: ProblemInstance) -> FeasibilityResult:
    """Linear feasibility of the current limits and energy windows.

    Infeasibility is classified as vehicle-capacity when some vehicle alone
    cannot receive its required charge, and as station-capacity otherwise.
    The point is the cost vertex :func:`solve` anchors on (all-zero costs
    at zero prices).
    """
    return _verdict(build_constraints(inst), _LinearProgram(inst))


# ---------------------------------------------------------------------------
# Feasible-point construction and repair
# ---------------------------------------------------------------------------


def _fill_latest(inst: ProblemInstance) -> np.ndarray:
    """Per vehicle, maximum current from the last slot backward to the window floor."""
    x = inst.empty_allocation()
    for v in range(inst.n_vehicles):
        remaining = inst.e_lo[v]
        for i in range(inst.horizon - 1, -1, -1):
            d = inst.durations[i, v]
            if d <= 0 or remaining <= 0:
                continue
            amps = min(inst.i_max, remaining / d)
            x[i, v] = amps
            remaining -= amps * d
    return x


def _fill_spread(inst: ProblemInstance) -> np.ndarray:
    """Per vehicle, the window floor delivered at a uniform current."""
    x = inst.empty_allocation()
    for v in range(inst.n_vehicles):
        total_h = inst.durations[:, v].sum()
        if total_h <= 0 or inst.e_lo[v] <= 0:
            continue
        amps = min(inst.i_max, inst.e_lo[v] / total_h)
        x[:, v] = np.where(inst.durations[:, v] > 0, amps, 0.0)
    return x


def _repair_exact(
    x: np.ndarray, inst: ProblemInstance, order_key: np.ndarray, anchor: np.ndarray
) -> np.ndarray:
    """Deterministically restore exact feasibility of a near-feasible point.

    Clips to the box, scales overloaded slots down to the station cap,
    scales over-delivered vehicles down to their window top, then tops up
    under-delivered vehicles cell by cell in ``order_key`` order.  Falls
    back to ``anchor`` if the top-up runs out of capacity.
    """
    h, n = inst.horizon, inst.n_vehicles
    ub = np.where(inst.active, inst.i_max, 0.0)
    x = np.clip(x, 0.0, ub)

    col = x.sum(axis=1)
    over = col > inst.ic_max
    if np.any(over):
        factor = np.ones(h)
        factor[over] = inst.ic_max / col[over]
        x = x * factor[:, None]

    delivered = (x * inst.durations).sum(axis=0)
    too_much = delivered > inst.e_hi
    if np.any(too_much):
        factor = np.ones(n)
        nz = too_much & (delivered > 0)
        factor[nz] = inst.e_hi[nz] / delivered[nz]
        x = x * factor[None, :]

    delivered = (x * inst.durations).sum(axis=0)
    col = x.sum(axis=1)
    for v in range(n):
        deficit = inst.e_lo[v] - delivered[v]
        if deficit <= 1e-12:
            continue
        slots = np.argsort(order_key[:, v], kind="stable")  # ties in slot order
        for i in slots:
            d = inst.durations[i, v]
            if d <= 0:
                continue
            amp_room = min(ub[i, v] - x[i, v], inst.ic_max - col[i])
            if amp_room <= 0:
                continue
            take = min(amp_room * d, deficit)
            x[i, v] += take / d
            col[i] += take / d
            deficit -= take
            if deficit <= 1e-12:
                break
        if deficit > 1e-9:
            return anchor.copy()
    x[x < 1e-12] = 0.0
    return x


class _Projector:
    """Projection onto the schedule polytope, with the instance's constants
    built once.

    Both methods take a stack of points ``(k, H, V)``, one per start, and
    treat each start exactly as it would be treated alone.  :meth:`windows`
    projects each column onto its box and energy window; calling the
    projector alternates that with a uniform shave of every slot over the
    station cap (30 rounds at most).  A start leaves the rounds as soon as
    its slots are within the cap.  The result never shares memory with the
    input: when every start leaves in the first round it is that round's
    array, returned without a copy, and otherwise each start's rows are
    copied out as it leaves.

    Cost model.  The solver's instances are small (the week ``compare``'s
    are at most 4 vehicles x 27 slots, with a few starts per call), so a
    round's few dozen numpy calls, not its element work, set the cost: a
    least-squares fit over the week's 2,284 calls (8,540 rounds; 1,728
    calls end in their first round) gives about 47 us per round and
    0.9 us per column-round (one vehicle column of one start through one
    round), and no cost per call beyond its rounds (an intercept within
    5 us of zero), on one CPU of a 2-vCPU Xeon host.
    """

    def __init__(self, inst: ProblemInstance):
        d = inst.durations
        h, n = d.shape
        self.d = d
        self.ub = np.where(inst.active, inst.i_max, 0.0)
        self.e_lo, self.e_hi = inst.e_lo, inst.e_hi
        self.lo_tol, self.hi_tol = inst.e_lo - 1e-12, inst.e_hi + 1e-12
        # One row per vehicle, for the out-of-window columns' breakpoint search.
        self.d_rows = d.T.copy()
        self.ub_rows = self.ub.T.copy()
        # Idle cells (d = 0) divide by inf: they sit at lam = 0 with no slope.
        # Doubled, a row divides both halves of a column's breakpoints.
        safe_d = np.where(d > 0, d, np.inf).T
        self.safe_d2 = np.concatenate([safe_d, safe_d], axis=1)
        bend = self.d_rows * self.d_rows
        self.bends = np.concatenate([bend, -bend], axis=1).ravel()
        self.bend_rows = np.arange(0, 2 * h * n, 2 * h)  # flat start of each row of bends
        self.slots = np.arange(0, h * n, n)              # flat offset of each slot in a point
        self.start_cells = h * n
        self.ic_max = inst.ic_max
        self.n = n

    def windows(self, y: np.ndarray) -> np.ndarray:
        """Euclidean projection of each column onto box + energy window.

        The projection is ``x = clip(y + lam * d, 0, ub)`` with one
        multiplier per column.  Delivered energy ``s(lam) = sum(d * x)`` is
        piecewise linear in ``lam``: a cell with ``d > 0`` starts to rise at
        ``-y / d`` and saturates at ``(ub - y) / d``, adding and then
        removing ``d**2`` of slope.  Sorting those breakpoints and summing
        the segments gives ``s`` at every breakpoint, so ``lam`` follows
        exactly by interpolation on the segment that brackets the window
        edge (breakpoint search for the continuous quadratic knapsack).
        Cells with ``d = 0`` carry no slope; an unreachable target leaves
        the column at its box top.  The out-of-window columns of every
        start are searched together, one row each, gathered and scattered
        by flat index.  The clips are ``np.minimum(np.maximum(...))``, which
        keep ``np.clip``'s bits, signed zeros included.
        """
        x = np.maximum(y, 0.0)
        np.minimum(x, self.ub, out=x)
        # Summed over axis 1, a start's delivered energy adds its slots in
        # the order an (H, V) column sum does, for V = 1 as well.
        s = np.add.reduce(x * self.d, axis=1)
        lo_bad = s < self.lo_tol
        bad = s > self.hi_tol
        bad |= lo_bad
        ks, vs = bad.nonzero()
        if len(vs) == 0:
            return x
        target = np.where(lo_bad, self.e_lo, self.e_hi)[bad]  # in nonzero's order
        ks *= self.start_cells
        ks += vs  # flat index of each column's first cell
        cells = ks[:, None] + self.slots  # (m, H) flat cells of the columns in y and x
        yc = y.take(cells)
        dc, ubc = self.d_rows.take(vs, axis=0), self.ub_rows.take(vs, axis=0)
        points = np.concatenate([-yc, ubc - yc], axis=1)
        points /= self.safe_d2.take(vs, axis=0)
        width = points.shape[1]
        rows = np.arange(0, len(vs) * width, width)  # flat start of each row
        order = points.argsort(axis=1, kind="stable")
        points = points.take(order + rows[:, None])
        bends = self.bends.take(order + self.bend_rows.take(vs)[:, None])
        slope = np.add.accumulate(bends, axis=1)
        # energy at each breakpoint; s is zero left of the first one
        energy = np.zeros(points.shape)
        np.add.accumulate(slope[:, :-1] * (points[:, 1:] - points[:, :-1]), axis=1,
                          out=energy[:, 1:])

        reached = energy >= target[:, None]
        first = reached.argmax(axis=1)  # first breakpoint at or past the target
        seg = np.maximum(first - 1, 0) + rows
        rise = slope.take(seg)
        lam = points.take(seg) + (target - energy.take(seg)) / np.where(rise > 0, rise, 1.0)
        below = first == 0
        if below.any():
            lam[below] = points[below, 0] - 1.0         # target <= 0
            top = below & ~reached[:, 0]                # reached nowhere: box top
            if top.any():
                lam[top] = points[top, -1] + 1.0
        moved = lam[:, None] * dc
        moved += yc
        np.maximum(moved, 0.0, out=moved)
        np.minimum(moved, ubc, out=moved)
        x.put(cells, moved)
        return x

    def __call__(self, y: np.ndarray) -> np.ndarray:
        out = live = None
        x = y
        for _ in range(30):
            x = self.windows(x)
            excess = np.add.reduce(x, axis=2)
            excess -= self.ic_max
            done = np.maximum.reduce(excess, axis=1, initial=0.0) <= 1e-10
            if done.all():
                if live is None:
                    return x  # every start left in the first round
                out[live] = x
                return out
            if live is None:
                out, live = np.empty_like(y), np.arange(len(y))
            if done.any():
                out[live[done]] = x[done]
                left = ~done
                live, x, excess = live[left], x[left], excess[left]
            np.maximum(excess, 0.0, out=excess)
            excess /= self.n
            x -= excess[:, :, None]
        out[live] = self.windows(x)
        return out


# ---------------------------------------------------------------------------
# Smooth surrogate with a fixed branch assignment
# ---------------------------------------------------------------------------


class _Surrogate:
    """Objective model of a stack of starts, each with its own branch
    membership frozen per cell, and the instance's projection.

    ``evaluate`` takes points ``(m, H, V)`` of the starts ``rows`` and
    returns, from one pass over their SoC trajectories and quadratics, one
    value (m,) and one gradient (m, H, V) per start.
    """

    def __init__(self, inst: ProblemInstance, lin: np.ndarray, fade_weight: float,
                 is_hi: np.ndarray, project: _Projector):
        self.coef = inst.fade_params.branch_coefficients(is_hi)  # (5, k, H, V)
        self.inst = inst
        self.project = project
        self.lin = lin
        self.fw = fade_weight
        self.frac = np.where(inst.active, inst.durations / inst.grid.dt, 0.0)
        self.half = 0.5 * inst.durations / inst.c_bat
        self.dc = inst.durations / inst.c_bat
        # The calendric term's slopes: along a vehicle's path, and on its own cell.
        self.path_cal = self.frac * inst.fade_params.p1
        self.own_cal = self.path_cal * self.half

    def evaluate(self, x, rows):
        c = BranchCoefficients(*self.coef.take(rows, axis=1))
        avg = soc_before_slots(x, self.inst)
        avg += self.half * x
        poly = c.evaluate(avg, x)
        mask = x > 0.0
        mask &= poly > 0.0
        mask &= self.inst.active
        flat = (len(x), -1)
        # Each start sums its own active cells, as it would alone.
        active = np.array([np.add.reduce(pj[mj]) for pj, mj in zip(poly, mask)])
        cal = self.frac * self.inst.fade_params.calendric(avg)
        fade = active + np.add.reduce(cal.reshape(flat), axis=1)
        value = np.add.reduce((self.lin * x).reshape(flat), axis=1) + self.fw * fade
        path = c.p10 + c.p11 * x
        own = np.where(mask, path * self.half + c.p01 + c.p11 * avg + 2.0 * x * c.p02, 0.0)
        own += self.own_cal
        path_src = np.where(mask, path, 0.0)
        path_src += self.path_cal
        suffix = np.add.accumulate(path_src[:, ::-1], axis=1)[:, ::-1] - path_src
        return value, self.lin + self.fw * (own + self.dc * suffix)


def _derive_branches(x: np.ndarray, inst: ProblemInstance) -> np.ndarray:
    """Branch membership of every cell of an allocation (H, V), or of a
    stack (k, H, V) of them, from its SoC trajectory."""
    return inst.fade_params.is_hi(x, soc_before_slots(x, inst))


def _jump(rises: list) -> bool:
    """True when the last ``JUMP_TRIALS`` rejected rises agree with the latest.

    A rise that no longer shrinks with the step is a jump of the objective,
    such as the fade activation constant of a cell woken from zero, which
    every shorter step along the projection arc pays as well.  ``rises``
    holds one rise per distinct candidate: steps that the projection clips
    to the same point say nothing about how the rise scales with the step.
    """
    if len(rises) < JUMP_TRIALS:
        return False
    latest = rises[-1]
    return all(abs(r - latest) <= JUMP_RTOL * abs(latest) for r in rises[-JUMP_TRIALS:])


def _descend(model: _Surrogate, x0: np.ndarray):
    """Projected-gradient descent of a stack of starts ``x0`` (k, H, V), with
    backtracking line search along the projection arc; returns (x,
    iterations), one of each per start.

    The starts advance in lockstep and each keeps its own step, rises and
    exits, so it follows the path it would follow alone.  A line search
    rejects its iteration after 30 trials or once the rejected rises
    ``fc - f`` of distinct candidates stop shrinking with the step
    (:func:`_jump`).  A start ends on a zero gradient, a rejected iteration,
    a decrease within ``TOL_OBJ`` or its ``MAX_INNER_ITERS``-th iteration.

    The model is two calls: ``project`` and ``evaluate``, which gives each
    point's value and gradient together.  Each tick projects and evaluates,
    in one stacked call each, a live start's next trials ``s, s/2, s/4,
    ...``: as many as its previous line search took, plus one (two for its
    first).  Its trials are then consumed in order by the sequential rule,
    and those after the one that ends the search are dropped.  An accepted
    trial keeps its value and gradient, so the next iteration steps from
    them without scoring the point again.  Every live start gets one trial;
    extra trials fill the tick in start order up to ``_SPECULATIVE_CELLS``
    cells, which bounds the element work a dropped trial wastes on big
    instances.  A stack row is treated exactly as alone and halving a step
    is exact, so the speculation changes the number of calls, never the
    path.
    """
    x = model.project(x0)
    k = len(x)
    f, g = model.evaluate(x, np.arange(k))
    step = np.ones(k)
    iters = np.zeros(k, dtype=int)
    trials, rises, prev = [0] * k, [[] for _ in range(k)], [None] * k
    took = [1] * k   # trials of each start's last line search
    live, fresh = [], np.arange(k)   # fresh: starts that begin an iteration
    while True:
        if len(fresh):
            iters[fresh] += 1
            stalled = np.abs(g[fresh]).max(axis=(1, 2), initial=0.0) <= 0
            fresh = fresh[~stalled]
            step[fresh] = np.minimum(step[fresh] * 2.0, 1e8)
            for j in fresh:
                trials[j], rises[j], prev[j] = 0, [], None
            live += fresh.tolist()
        if not live:
            return x, iters
        # Each live start's next trials, up to the cap; a trial past the
        # step floor or the 30th is never consumed, so it is not projected.
        spare = max(_SPECULATIVE_CELLS // x[0].size - len(live), 0)
        rows, steps = [], []
        for j in live:
            s, depth = step[j], min(took[j] + 1, 30 - trials[j])
            rows.append(j)
            steps.append(s)
            while spare and depth > 1 and s * 0.5 >= 1e-12:
                s, depth, spare = s * 0.5, depth - 1, spare - 1
                rows.append(j)
                steps.append(s)
        idx, steps = np.array(rows), np.array(steps)
        cand = model.project(x[idx] - steps[:, None, None] * g[idx])
        fc, gc = model.evaluate(cand, idx)
        move = cand - x[idx]
        sq = (move * move).reshape(len(idx), -1).sum(axis=1)
        accepted = fc <= f[idx] - 1e-4 * sq / np.maximum(steps, 1e-16)
        fresh, ended = [], set()   # ended: starts whose search ended this tick
        for i, j in enumerate(rows):
            if j in ended:
                continue   # a trial after the one that ended j's search
            ended.add(j)
            if accepted[i]:
                dec = f[j] - fc[i]
                x[j], f[j], g[j] = cand[i], fc[i], gc[i]
                took[j] = trials[j] + 1
                if not (dec <= TOL_OBJ * max(abs(f[j]), 1.0) or iters[j] == MAX_INNER_ITERS):
                    fresh.append(j)
                continue
            if prev[j] is None or not np.array_equal(cand[i], prev[j]):
                rises[j].append(fc[i] - f[j])
                if _jump(rises[j]):
                    continue
            prev[j] = cand[i]
            step[j] *= 0.5
            trials[j] += 1
            if not (step[j] < 1e-12 or trials[j] == 30):
                ended.discard(j)
        live = [j for j in live if j not in ended]
        fresh = np.array(fresh, dtype=int)


def _branch_fixed_descent(inst: ProblemInstance, lin: np.ndarray, fw: float,
                          x0: np.ndarray, anchor: np.ndarray):
    """Branch-fixing rounds from a stack of starts ``x0`` (k, H, V); returns
    (iterations, stable, x), each per start, ``x`` (k, H, V) holding each
    start's final repaired point.

    Projects and repairs each start, then freezes the branches of its
    current point, descends the surrogate ``lin . x + fw * fade`` and
    repairs the result, until its branches stop changing (at most
    ``MAX_BRANCH_ITERS`` rounds).  The starts still changing branches
    descend together, and the branches a round's check derives are the
    next round's.
    """
    project = _Projector(inst)
    x = np.stack([_repair_exact(p, inst, lin, anchor) for p in project(x0)])
    branches = _derive_branches(x, inst)
    iterations = np.zeros(len(x0), dtype=int)
    stable = np.zeros(len(x0), dtype=bool)
    live = np.arange(len(x0))
    for _ in range(MAX_BRANCH_ITERS):
        descended, iters = _descend(_Surrogate(inst, lin, fw, branches[live], project), x[live])
        iterations[live] += iters
        x[live] = [_repair_exact(xj, inst, lin, anchor) for xj in descended]
        derived = _derive_branches(x[live], inst)
        stable[live] = (derived == branches[live]).all(axis=(1, 2))
        branches[live] = derived
        live = live[~stable[live]]
        if len(live) == 0:
            break
    return iterations, stable, x


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


class _BestTracker:
    """Lowest ``score(x)`` seen; a tie (within a relative 1e-12) keeps the
    point considered first."""

    def __init__(self, score):
        self.score = score
        self.alloc = None
        self.objective = np.inf

    def consider(self, x: np.ndarray):
        obj = self.score(x)
        if obj < self.objective - 1e-12 * max(1.0, abs(obj)):
            self.alloc, self.objective = x.copy(), obj


def _zero_snap_polish(x: np.ndarray, inst: ProblemInstance, tracker: _BestTracker):
    """Try zeroing small allocations, moving their charge into active slots."""
    snap_level = 0.02 * inst.i_max
    cand = x.copy()
    changed = False
    for v in range(inst.n_vehicles):
        col = cand[:, v]
        small = np.nonzero((col > 0) & (col < snap_level))[0]
        for i in small:
            moved_ah = col[i] * inst.durations[i, v]
            targets = np.nonzero((col > snap_level) & (inst.durations[:, v] > 0))[0]
            done = False
            for j in targets:
                room_amp = min(
                    inst.i_max - col[j],
                    inst.ic_max - cand[j, :].sum(),
                )
                if room_amp * inst.durations[j, v] >= moved_ah - 1e-15:
                    col[j] += moved_ah / inst.durations[j, v]
                    col[i] = 0.0
                    done = True
                    break
            if not done and inst.e_lo[v] <= (col * inst.durations[:, v]).sum() - moved_ah + 1e-12:
                col[i] = 0.0  # dropping the charge keeps the window floor
                done = True
            changed = changed or done
    if changed:
        tracker.consider(cand)


_MOVE_POLISH_CELLS = 160  # skip the local search on big instances
_SWAP_POLISH_ACTIVES = 30  # pairwise exchanges: budget on active cells
_POLISH_BATCH_CELLS = 1 << 12  # candidate cells scored at once: bounds memory
_SPECULATIVE_CELLS = 1 << 11  # line-search trial cells projected per descent tick


def _neighbourhood(x, inst):
    """One pass's moves: relocations, then (on few active cells) exchanges.

    A relocation moves one active cell's charge (in Ah) to another slot of
    its vehicle, within box and station headroom.  An exchange trades the
    slots of two vehicles' active cells ``(i, u)`` and ``(j, v)``; it is
    needed when a relocation is blocked by the station cap and only becomes
    feasible once the other vehicle vacates the target slot.

    Returns one entry per candidate column, ``(owners, gain, amps, zero)``:
    the owner vehicle, the slot that gains charge, the amps it gains and
    the slot zeroed; and ``bounds`` (moves + 1), the offsets of each move's
    columns.  Relocations are one column each, ordered by vehicle, source
    slot, then target slot; exchanges are two, u's then v's, ordered by
    ``(i, u)``, then ``(j, v)``, each cell by vehicle, then slot.
    """
    tt, d, target = inst.grid.tt, inst.durations, np.arange(inst.horizon)
    col_sum = x.sum(axis=1)
    # Active cells by vehicle, then slot; row k of a (cells, H) array is
    # cell k's vehicle at every target slot.
    veh, slot = np.nonzero((x.T > 0.0) & (target < tt[:, None]))
    x_to, d_to = x.T[veh], d.T[veh]
    with np.errstate(divide="ignore", invalid="ignore"):
        amps = (x[slot, veh] * d[slot, veh])[:, None] / d_to
    usable = (target < tt[veh, None]) & (d_to > 0)
    room = np.minimum(inst.i_max - x, inst.ic_max - col_sum[:, None]).T[veh]
    c, j = np.nonzero(usable & (slot[:, None] != target) & ~(amps > room + 1e-12))
    moves = [(veh[c], j, amps[c, j], slot[c])]
    if int((x > 0).sum()) <= _SWAP_POLISH_ACTIVES:
        # into[a, b]: cell a's charge fits into cell b's slot on a's vehicle
        # once b's vehicle vacates it.
        amps_in = amps[:, slot]
        free = col_sum[slot] - x[slot, veh]
        into = ((usable & ~(x_to + amps > inst.i_max + 1e-12))[:, slot]
                & ~(free + amps_in > inst.ic_max + 1e-12))
        a, b = np.nonzero(into & into.T & (veh[:, None] != veh) & (slot[:, None] != slot))
        pairs = ((veh[a], veh[b]), (slot[b], slot[a]), (amps_in[a, b], amps_in[b, a]),
                 (slot[a], slot[b]))
        moves.append([np.stack(pair, axis=1).ravel() for pair in pairs])
    columns = [np.concatenate(col) for col in zip(*moves)]
    bounds = np.concatenate([np.arange(len(c)), np.arange(len(c), len(columns[0]) + 1, 2)])
    return columns, bounds


def _move_columns(x, owners, gain, amps, zero):
    """The (H, K) candidate columns: each owner's column of ``x`` with
    ``amps`` added at its gain slot and its zeroed slot set to 0."""
    cols = x.take(owners, axis=1)  # C order: the scores' column sums depend on it
    k = np.arange(len(owners))
    cols[gain, k] += amps
    cols[zero, k] = 0.0
    return cols


def _column_parts(cols: np.ndarray, vs: np.ndarray, inst: ProblemInstance) -> np.ndarray:
    """Raw (cost, fade, availability) of K candidate columns, (K, 3).

    Column k of ``cols`` (H, K) is an allocation of vehicle ``vs[k]``.  The
    objective separates by vehicle, so the rows of a full allocation's
    columns sum to its :func:`objective_components`.  Each column sums slot
    by slot as in a block (numpy would sum a lone one pairwise), so its row
    does not depend on the columns scored with it.  Only a lone column takes
    the ``np.cumsum``: on blocks it gives the block sum's bits (3,000 random
    blocks) but is slower, 5.9 against 3.1 us at 20 x 12 and 24.2 against
    4.5 us at 40 x 100 on a 2-vCPU Xeon host, and the polish scores many
    blocks.
    """

    def slot_sums(a):
        return np.cumsum(a, axis=0)[-1] if a.shape[1] == 1 else a.sum(axis=0)

    d = inst.durations[:, vs]
    cost = slot_sums(inst.wep[:, None] * (cols * d * inst.voltage / 1000.0))
    cyclic, calendric = fade_terms(cols, inst, vs)
    availability = -slot_sums(inst.avail_w[:, vs] * cols * inst.voltage)
    return np.column_stack([cost, slot_sums(cyclic) + slot_sums(calendric), availability])


def _normalized_score(points: NormalizationPoints, weights: tuple):
    """:func:`normalized_objective` over (K, 3) rows of raw components."""

    def score(parts: np.ndarray) -> np.ndarray:
        total = normalized_objective(ObjectiveBreakdown(*parts.T), points, weights)
        return np.broadcast_to(total, len(parts))  # scalar 0 if every spread is degenerate

    return score


def _score_moves(cols, vs, starts, parts, inst: ProblemInstance, score) -> np.ndarray:
    """Objective of each move applied to the allocation whose per-vehicle
    rows of raw components are ``parts`` (V, 3).  The moves' columns are
    ``cols`` (H, K) of vehicles ``vs``; move m's first column is
    ``starts[m]``."""
    new = _column_parts(cols, vs, inst)
    return score(parts.sum(axis=0) + np.add.reduceat(new - parts[vs], starts, axis=0))


def _local_move_polish(x, inst: ProblemInstance, score):
    """Hill-climb over slot relocations (and exchanges on small instances).

    The fade term's per-slot activation constant makes the objective
    discontinuous in the active set, so gradient steps cannot transfer
    charge into an idle slot; relocating one slot's charge wholesale (in
    Ah, respecting box and station headroom) explores exactly those
    combinatorial neighbors.  Deterministic best-improvement passes.

    ``score`` maps (K, 3) rows of raw (cost, fade, availability) to (K,)
    objective values.  A move changes one column (relocation) or two
    (swap), so candidates are scored in batches of moves from the changed
    columns alone; the first candidate in enumeration order that beats the
    running best by 1e-12 and is not beaten in turn wins the pass.  A batch
    holds ``_POLISH_BATCH_CELLS // H`` moves, and its columns are built only
    when it is scored, which bounds memory.
    """
    h, n = inst.horizon, inst.n_vehicles
    cells = h * n
    if cells > _MOVE_POLISH_CELLS:
        return x
    x = x.copy()
    every = np.arange(n)
    parts = _column_parts(x, every, inst)
    best = score(parts.sum(axis=0, keepdims=True))[0]
    batch_size = max(1, _POLISH_BATCH_CELLS // h)
    for _ in range(6):
        (owners, gain, amps, zero), bounds = _neighbourhood(x, inst)
        move = None
        for first in range(0, len(bounds) - 1, batch_size):
            starts = bounds[first:first + batch_size + 1]
            c = slice(starts[0], starts[-1])
            cols = _move_columns(x, owners[c], gain[c], amps[c], zero[c])
            objs = _score_moves(cols, owners[c], starts[:-1] - starts[0], parts, inst, score)
            for k, obj in enumerate(objs.tolist()):
                if obj < best - 1e-12:
                    best, move = obj, first + k
        if move is None:
            break
        c = slice(bounds[move], bounds[move + 1])
        x[:, owners[c]] = _move_columns(x, owners[c], gain[c], amps[c], zero[c])
        parts = _column_parts(x, every, inst)
    return x


def single_objective_minimizer(inst: ProblemInstance, component: str) -> np.ndarray:
    """Minimize one raw objective component alone over the polytope."""
    if component not in COMPONENTS:
        raise ValueError(f"unknown objective component {component!r}")
    if inst.horizon == 0 or inst.n_vehicles == 0:
        return inst.empty_allocation()
    lp = _LinearProgram(inst)
    verdict = _verdict(build_constraints(inst), lp)
    if not verdict.feasible:
        raise ValueError("infeasible-instance")
    return _payoff_point(lp, verdict.point, inst, component)


def _payoff_point(lp: _LinearProgram, vertex: np.ndarray, inst: ProblemInstance,
                  component: str) -> np.ndarray:
    """One component's payoff point on a non-empty feasible instance with LP
    model ``lp`` and cost vertex ``vertex``: cost is the vertex, availability
    the availability LP on the same model, and fade :func:`_minimize_fade`
    with the vertex as its anchor."""
    if component == "cost":
        return vertex
    if component == "fade":
        return _minimize_fade(inst, vertex)
    x = lp(_avail_coeffs(inst))
    if x is None:
        raise ValueError("infeasible-instance")
    return x


def _minimize_fade(inst: ProblemInstance, anchor: np.ndarray) -> np.ndarray:
    """Fade alone on a non-empty feasible instance; ``anchor`` is a point of
    its polytope, the cost payoff vertex."""
    lin = np.zeros((inst.horizon, inst.n_vehicles))
    starts = np.stack([_fill_latest(inst), _fill_spread(inst)])
    tracker = _BestTracker(lambda x: objective_components(x, inst).fade)
    for x in _branch_fixed_descent(inst, lin, 1.0, starts, anchor)[2]:
        tracker.consider(x)
    return _local_move_polish(tracker.alloc, inst, lambda parts: parts[:, 1])


def solve(inst: ProblemInstance, weights: tuple):
    """Minimize the normalized objective weighted by ``weights`` (alpha_cost,
    alpha_fade, alpha_availability, as ``scheduler.Policy`` checks them);
    returns (allocation, report).

    Deterministic for identical inputs; the payoff points do not depend on
    the weights.  The allocation is None exactly when the instance is
    infeasible.  Branch-fixed descent starts from the maximum-power
    allocation, the exact LP corner of the linear objective part (when it
    has one), and the latest and spread fills; zero-snap and local-move
    polish then refine the best start's final repaired point.
    """
    t0 = time.perf_counter()

    def report(status, alloc=None, objective=np.inf, iterations=0, points=None):
        wall = (time.perf_counter() - t0) * 1000.0
        breakdown = None if alloc is None else objective_components(alloc, inst)
        return alloc, SolveReport(objective, breakdown, wall, iterations, status, points)

    if inst.horizon == 0 or inst.n_vehicles == 0:
        return report(SolveStatus.OPTIMAL_LOCAL, inst.empty_allocation(), 0.0)

    # One LP model serves the verdict, the linear payoff points and the LP
    # corner; the cost vertex is the repair anchor.
    constraints = build_constraints(inst)
    lp = _LinearProgram(inst)
    verdict = _verdict(constraints, lp)
    if not verdict.feasible:
        return report(SolveStatus.INFEASIBLE)
    anchor = verdict.point
    points = compute_normalization_points(inst, partial(_payoff_point, lp, anchor))

    # The surrogate's coefficients; degenerate components drop out.
    scale = points.weight_per_spread(weights)
    lin = scale["cost"] * _cost_coeffs(inst) + scale["availability"] * _avail_coeffs(inst)
    fw = scale["fade"]

    tracker = _BestTracker(lambda x: normalized_objective(
        objective_components(x, inst), points, weights))
    starts = [max_power_allocation(inst)]
    if np.any(lin != 0.0):
        # Exact corner of the linear objective part; descent only refines
        # the fade trade-off from there.
        lp_corner = lp(lin)
        if lp_corner is not None:
            starts.append(lp_corner)
    starts.extend([_fill_latest(inst), _fill_spread(inst)])

    iterations, stable, finals = _branch_fixed_descent(
        inst, lin, fw, np.stack(starts), anchor)
    for x in finals:
        tracker.consider(x)

    _zero_snap_polish(tracker.alloc, inst, tracker)
    polished = _local_move_polish(
        tracker.alloc, inst, _normalized_score(points, weights)
    )
    tracker.consider(polished)

    violations = constraints.audit(tracker.alloc, 1e-6)
    if violations:  # repair guarantees feasibility; failing here is a bug
        raise RuntimeError(f"solver returned an infeasible allocation: {violations}")
    status = SolveStatus.OPTIMAL_LOCAL if stable.any() else SolveStatus.FEASIBLE
    return report(status, tracker.alloc, tracker.objective, int(iterations.sum()), points)
