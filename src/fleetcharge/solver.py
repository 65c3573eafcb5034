"""Minimization of the normalized weighted-sum objective over the schedule polytope.

The objective mixes two linear components (charging cost, negative weighted
power) with the piecewise-quadratic fade term whose branch membership
depends on the decision variables themselves.  The solver fixes the branch
assignment, descends the resulting smooth surrogate with projected gradient
steps from several deterministic feasible starts, re-derives branches from
the solution and repeats until the assignment is stable, keeping the best
feasible iterate measured by the true objective.

Linear single-objective subproblems (cost, availability, and plain
feasibility) are solved exactly as LPs.  A brute-force grid oracle over
tiny instances provides an independent check of solution quality.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .fade import Branch
from .problem import (
    COMPONENTS,
    NORMALIZATION_EPS,
    NormalizationPoints,
    ObjectiveBreakdown,
    ProblemInstance,
    build_constraints,
    compute_normalization_points,
    fade_terms,
    normalized_objective,
    objective_components,
    soc_before_slots,
)

__all__ = [
    "SolveReport",
    "SolveStatus",
    "FeasibilityResult",
    "OracleError",
    "feasibility_check",
    "solve",
    "oracle_grid_search",
    "single_objective_minimizer",
]


class SolveStatus:
    OPTIMAL_LOCAL = "optimal-local"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


class OracleError(ValueError):
    """Raised when the grid oracle cannot be applied to an instance."""


TOL_OBJ = 1e-6          # relative objective convergence tolerance
MAX_BRANCH_ITERS = 20   # branch-fixing rounds
MAX_INNER_ITERS = 150   # projected-gradient steps per round
ORACLE_LEVELS = 8       # grid discretization of the oracle


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
    branch_assignment: np.ndarray | None  # (H, V) of Branch
    status: str


# ---------------------------------------------------------------------------
# Linear subproblems
# ---------------------------------------------------------------------------


def _lp_matrices(inst: ProblemInstance):
    """Sparse A_ub, b_ub and variable bounds of the schedule polytope."""
    h, n = inst.horizon, inst.n_vehicles
    size = h * n
    ub = np.where(inst.active, inst.i_max, 0.0).ravel()
    rows, cols, data, b = [], [], [], []
    r = 0
    for i in range(h):  # station cap per slot
        for v in range(n):
            rows.append(r)
            cols.append(i * n + v)
            data.append(1.0)
        b.append(inst.ic_max)
        r += 1
    d_flat = inst.durations
    for v in range(n):  # energy window, upper then lower
        for i in range(h):
            if d_flat[i, v] > 0:
                rows.append(r)
                cols.append(i * n + v)
                data.append(d_flat[i, v])
        b.append(inst.e_hi[v])
        r += 1
    for v in range(n):
        for i in range(h):
            if d_flat[i, v] > 0:
                rows.append(r)
                cols.append(i * n + v)
                data.append(-d_flat[i, v])
        b.append(-inst.e_lo[v])
        r += 1
    a_ub = sparse.csr_matrix((data, (rows, cols)), shape=(r, size))
    return a_ub, np.array(b), np.column_stack([np.zeros(size), ub])


def _solve_lp(inst: ProblemInstance, c: np.ndarray) -> np.ndarray | None:
    """Minimize a linear objective over the polytope; None if infeasible."""
    if inst.horizon == 0 or inst.n_vehicles == 0:
        return inst.empty_allocation()
    a_ub, b_ub, bounds = _lp_matrices(inst)
    res = linprog(c.ravel(), A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        return None
    x = res.x.reshape(inst.horizon, inst.n_vehicles)
    x = np.clip(x, 0.0, None)
    x[~inst.active] = 0.0
    return x


def _cost_coeffs(inst: ProblemInstance) -> np.ndarray:
    return inst.wep[:, None] * inst.durations * inst.voltage / 1000.0


def _avail_coeffs(inst: ProblemInstance) -> np.ndarray:
    return -inst.avail_w * inst.voltage


def feasibility_check(inst: ProblemInstance) -> FeasibilityResult:
    """Linear feasibility of the current limits and energy windows.

    Weights play no role; infeasibility is classified as vehicle-capacity
    when some vehicle alone cannot receive its required charge, and as
    station-capacity otherwise.
    """
    cs = build_constraints(inst)
    if not cs.feasible_by_construction:
        return FeasibilityResult(False, reason="vehicle-capacity")
    if inst.n_vehicles == 0 or inst.horizon == 0:
        return FeasibilityResult(True, point=inst.empty_allocation())
    x = _solve_lp(inst, np.zeros((inst.horizon, inst.n_vehicles)))
    if x is None:
        return FeasibilityResult(False, reason="station-capacity")
    return FeasibilityResult(True, point=x)


# ---------------------------------------------------------------------------
# Feasible-point construction and repair
# ---------------------------------------------------------------------------


def _fill_forward(inst: ProblemInstance) -> np.ndarray:
    """Per vehicle, maximum current from the first slot until the window top."""
    x = inst.empty_allocation()
    for v in range(inst.n_vehicles):
        remaining = inst.e_hi[v]
        for i in range(inst.horizon):
            d = inst.durations[i, v]
            if d <= 0 or remaining <= 0:
                continue
            amps = min(inst.i_max, remaining / d)
            x[i, v] = amps
            remaining -= amps * d
    return x


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
    x: np.ndarray,
    inst: ProblemInstance,
    order_key: np.ndarray | None = None,
    anchor: np.ndarray | None = None,
) -> np.ndarray:
    """Deterministically restore exact feasibility of a near-feasible point.

    Clips to the box, scales overloaded slots down to the station cap,
    scales over-delivered vehicles down to their window top, then tops up
    under-delivered vehicles cell by cell in ``order_key`` order.  Falls
    back to ``anchor`` if the top-up runs out of capacity.
    """
    h, n = inst.horizon, inst.n_vehicles
    if h == 0 or n == 0:
        return inst.empty_allocation()
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
    if order_key is None:
        order_key = np.zeros((h, n))
    for v in range(n):
        deficit = inst.e_lo[v] - delivered[v]
        if deficit <= 1e-12:
            continue
        slots = np.lexsort((np.arange(h), order_key[:, v]))
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
            if anchor is not None:
                return anchor.copy()
            raise RuntimeError("repair failed and no feasible anchor available")
    x[x < 1e-12] = 0.0
    return x


def _project_vehicle_windows(y: np.ndarray, inst: ProblemInstance) -> np.ndarray:
    """Euclidean projection of each column onto box + energy-window.

    The projection is ``x = clip(y + lam * d, 0, ub)`` with one multiplier
    per column.  Delivered energy ``s(lam) = sum(d * x)`` is piecewise
    linear in ``lam``: a cell with ``d > 0`` starts to rise at ``-y / d``
    and saturates at ``(ub - y) / d``, adding and then removing ``d**2`` of
    slope.  Sorting those breakpoints and summing the segments gives ``s``
    at every breakpoint, so ``lam`` follows exactly by interpolation on the
    segment that brackets the window edge (breakpoint search for the
    continuous quadratic knapsack).  Cells with ``d = 0`` carry no slope;
    an unreachable target leaves the column at its box top.
    """
    ub = np.where(inst.active, inst.i_max, 0.0)
    x = np.clip(y, 0.0, ub)
    d = inst.durations
    s = (x * d).sum(axis=0)
    lo_bad = s < inst.e_lo - 1e-12
    hi_bad = s > inst.e_hi + 1e-12
    bad = np.where(lo_bad | hi_bad)[0]
    if len(bad) == 0:
        return x
    target = np.where(lo_bad, inst.e_lo, inst.e_hi)[bad]
    yc, dc, ubc = y[:, bad], d[:, bad], ub[:, bad]
    # Idle cells (d = 0) divide by inf: they sit at lam = 0 with no slope.
    safe_d = np.where(dc > 0, dc, np.inf)
    points = np.concatenate([-yc / safe_d, (ubc - yc) / safe_d])
    bend = dc * dc
    bends = np.concatenate([bend, -bend])
    cols = np.arange(len(bad))
    order = points.argsort(axis=0, kind="stable")
    points = points[order, cols]
    slope = bends[order, cols].cumsum(axis=0)
    # energy at each breakpoint; s is zero left of the first one
    energy = np.zeros_like(points)
    np.cumsum(slope[:-1] * (points[1:] - points[:-1]), axis=0, out=energy[1:])

    reached = energy >= target
    first = reached.argmax(axis=0)  # first breakpoint at or past the target
    seg = np.maximum(first - 1, 0)
    rise = slope[seg, cols]
    lam = points[seg, cols] + (target - energy[seg, cols]) / np.where(rise > 0, rise, 1.0)
    lam[first == 0] = points[0, first == 0] - 1.0    # target <= 0
    top = ~reached.any(axis=0)                       # unreachable: box top
    lam[top] = points[-1, top] + 1.0
    x[:, bad] = np.clip(yc + lam * dc, 0.0, ubc)
    return x


def _project_polytope(y: np.ndarray, inst: ProblemInstance) -> np.ndarray:
    """Alternating projections onto vehicle windows and station caps (30 rounds at most)."""
    n = max(inst.n_vehicles, 1)
    x = y
    for _ in range(30):
        x = _project_vehicle_windows(x, inst)
        col = x.sum(axis=1)
        excess = col - inst.ic_max
        if excess.max(initial=0.0) <= 1e-10:
            return x
        shave = np.maximum(excess, 0.0) / n
        x = x - shave[:, None]
    return _project_vehicle_windows(x, inst)


# ---------------------------------------------------------------------------
# Smooth surrogate with a fixed branch assignment
# ---------------------------------------------------------------------------


class _Surrogate:
    """Objective model with branch membership frozen per cell."""

    def __init__(self, inst: ProblemInstance, lin: np.ndarray, fade_weight: float,
                 is_hi: np.ndarray):
        self.coef = inst.fade_params.branch_coefficients(is_hi)
        self.inst = inst
        self.lin = lin
        self.fw = fade_weight
        self.frac = np.where(inst.active, inst.durations / inst.grid.dt, 0.0)
        self.half = 0.5 * inst.durations / inst.c_bat
        self.dc = inst.durations / inst.c_bat

    def _soc_init(self, x):
        inst = self.inst
        delta = x * self.dc
        soc = np.empty_like(delta)
        soc[0, :] = inst.soc_start
        if inst.horizon > 1:
            soc[1:, :] = inst.soc_start[None, :] + np.cumsum(delta, axis=0)[:-1, :]
        return soc

    def _pieces(self, x):
        avg = self._soc_init(x) + self.half * x
        poly = self.coef.evaluate(avg, x)
        mask = self.inst.active & (x > 0.0) & (poly > 0.0)
        return avg, poly, mask

    def value(self, x) -> float:
        avg, poly, mask = self._pieces(x)
        p = self.inst.fade_params
        fade = float(np.sum(poly[mask])) + float(np.sum(self.frac * (p.p1 * avg + p.p2)))
        return float(np.sum(self.lin * x)) + self.fw * fade

    def gradient(self, x) -> np.ndarray:
        avg, poly, mask = self._pieces(x)
        p, c = self.inst.fade_params, self.coef
        own = np.where(
            mask,
            (c.p10 + c.p11 * x) * self.half + c.p01 + c.p11 * avg + 2.0 * x * c.p02,
            0.0,
        )
        own = own + self.frac * p.p1 * self.half
        path_src = np.where(mask, c.p10 + c.p11 * x, 0.0) + self.frac * p.p1
        suffix = np.flip(np.cumsum(np.flip(path_src, 0), 0), 0) - path_src
        return self.lin + self.fw * (own + self.dc * suffix)


def _derive_branches(x: np.ndarray, inst: ProblemInstance) -> np.ndarray:
    """Branch membership of every cell from the allocation's SoC trajectory."""
    if inst.horizon == 0 or inst.n_vehicles == 0:
        return np.zeros((inst.horizon, inst.n_vehicles), dtype=bool)
    soc_init = soc_before_slots(x, inst)
    return x >= inst.fade_params.branch_slope * soc_init


def _descend(model: _Surrogate, x0: np.ndarray):
    """Projected-gradient descent with backtracking line search."""
    inst = model.inst
    x = _project_polytope(x0, inst)
    f = model.value(x)
    step = 1.0
    iters = 0
    for _ in range(MAX_INNER_ITERS):
        iters += 1
        g = model.gradient(x)
        g_inf = np.abs(g).max(initial=0.0)
        if g_inf <= 0:
            break
        step = min(step * 2.0, 1e8)
        accepted = False
        for _bt in range(30):
            cand = _project_polytope(x - step * g, inst)
            fc = model.value(cand)
            move = cand - x
            if fc <= f - 1e-4 * float(np.sum(move * move)) / max(step, 1e-16):
                dec = f - fc
                x, f = cand, fc
                accepted = True
                break
            step *= 0.5
            if step < 1e-12:
                break
        if not accepted:
            break
        if dec <= TOL_OBJ * max(abs(f), 1.0):
            break
    return x, f, iters


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


def _lex_prefers(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` places charge earlier than ``b`` (tie-breaking order)."""
    diff = (a - b).ravel()
    idx = np.nonzero(np.abs(diff) > 1e-12)[0]
    if len(idx) == 0:
        return False
    return diff[idx[0]] > 0


class _BestTracker:
    def __init__(self, inst, points, weights):
        self.inst = inst
        self.points = points
        self.weights = weights
        self.alloc = None
        self.objective = np.inf

    def consider(self, x: np.ndarray):
        obj = normalized_objective(
            objective_components(x, self.inst), self.points, self.weights
        )
        tol = 1e-12 * max(1.0, abs(obj))
        if obj < self.objective - tol:
            self.alloc, self.objective = x.copy(), obj
        elif abs(obj - self.objective) <= tol and self.alloc is not None:
            if _lex_prefers(x, self.alloc):
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


def _relocation_candidates(x, inst, col_sum, v):
    """Feasible single-slot relocations of vehicle v's charge, as new columns."""
    tt = int(inst.grid.tt[v])
    for i in np.nonzero(x[:tt, v] > 0.0)[0]:
        ah = x[i, v] * inst.durations[i, v]
        for j in range(tt):
            if j == i:
                continue
            d_j = inst.durations[j, v]
            if d_j <= 0:
                continue
            amps = ah / d_j
            room = min(inst.i_max - x[j, v], inst.ic_max - col_sum[j])
            if amps > room + 1e-12:
                continue
            cand = x[:, v].copy()
            cand[j] += amps
            cand[i] = 0.0
            yield cand


def _swap_candidates(x, inst, col_sum):
    """Pairwise exchanges: two vehicles trade the slots of one charge block.

    Needed when a single relocation is blocked by the station cap and only
    becomes feasible once the other vehicle vacates the target slot.
    Yields ``(u, v, column_u, column_v)``.
    """
    n = inst.n_vehicles
    cells = [
        (i, v)
        for v in range(n)
        for i in np.nonzero(x[: int(inst.grid.tt[v]), v] > 0.0)[0]
    ]
    for i, u in cells:
        for j, v in cells:
            if u == v or i == j:
                continue
            if j >= inst.grid.tt[u] or i >= inst.grid.tt[v]:
                continue
            d_ju, d_iv = inst.durations[j, u], inst.durations[i, v]
            if d_ju <= 0 or d_iv <= 0:
                continue
            amps_u = x[i, u] * inst.durations[i, u] / d_ju
            amps_v = x[j, v] * inst.durations[j, v] / d_iv
            if x[j, u] + amps_u > inst.i_max + 1e-12:
                continue
            if x[i, v] + amps_v > inst.i_max + 1e-12:
                continue
            if col_sum[j] - x[j, v] + amps_u > inst.ic_max + 1e-12:
                continue
            if col_sum[i] - x[i, u] + amps_v > inst.ic_max + 1e-12:
                continue
            cand_u, cand_v = x[:, u].copy(), x[:, v].copy()
            cand_u[j] += amps_u
            cand_u[i] -= x[i, u]
            cand_v[i] += amps_v
            cand_v[j] -= x[j, v]
            yield u, v, cand_u, cand_v


def _column_parts(cols: np.ndarray, vs: np.ndarray, inst: ProblemInstance) -> np.ndarray:
    """Raw (cost, fade, availability) of K candidate columns, (K, 3).

    Column k of ``cols`` (H, K) is an allocation of vehicle ``vs[k]``.  The
    objective separates by vehicle, so the rows of a full allocation's
    columns sum to its :func:`objective_components`.
    """
    d = inst.durations[:, vs]
    cost = (inst.wep[:, None] * (cols * d * inst.voltage / 1000.0)).sum(axis=0)
    cyclic, calendric = fade_terms(cols, inst, vs)
    availability = -(inst.avail_w[:, vs] * cols * inst.voltage).sum(axis=0)
    return np.column_stack([cost, cyclic.sum(axis=0) + calendric.sum(axis=0), availability])


def _normalized_score(points: NormalizationPoints, weights: tuple):
    """:func:`normalized_objective` over (K, 3) rows of raw components."""

    def score(parts: np.ndarray) -> np.ndarray:
        total = normalized_objective(ObjectiveBreakdown(*parts.T), points, weights)
        return np.broadcast_to(total, len(parts))  # scalar 0 if every spread is degenerate

    return score


def _score_moves(moves, parts, inst: ProblemInstance, score) -> np.ndarray:
    """Objective of each move ``(vehicles, columns)`` applied to the allocation
    whose per-vehicle rows of raw components are ``parts`` (V, 3)."""
    vs = np.array([v for owners, _ in moves for v in owners])
    new = _column_parts(np.column_stack([c for _, cols in moves for c in cols]), vs, inst)
    starts = np.cumsum([0] + [len(owners) for owners, _ in moves[:-1]])
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
    (swap), so candidates are scored in batches from the changed columns
    alone; the first candidate in enumeration order that beats the running
    best by 1e-12 and is not beaten in turn wins the pass.
    """
    h, n = inst.horizon, inst.n_vehicles
    cells = h * n
    if cells > _MOVE_POLISH_CELLS or cells == 0:
        return x
    x = x.copy()
    every = np.arange(n)
    parts = _column_parts(x, every, inst)
    best = score(parts.sum(axis=0, keepdims=True))[0]
    batch_size = max(1, _POLISH_BATCH_CELLS // h)
    for _ in range(6):
        col_sum = x.sum(axis=1)
        moves = itertools.chain(
            (((v,), (cand,))
             for v in range(n)
             for cand in _relocation_candidates(x, inst, col_sum, v)),
            (((u, v), (cu, cv))
             for u, v, cu, cv in _swap_candidates(x, inst, col_sum))
            if int((x > 0).sum()) <= _SWAP_POLISH_ACTIVES else (),
        )
        move = None
        while batch := list(itertools.islice(moves, batch_size)):
            for k, obj in enumerate(_score_moves(batch, parts, inst, score).tolist()):
                if obj < best - 1e-12:
                    best, move = obj, batch[k]
        if move is None:
            break
        for v, col in zip(*move):
            x[:, v] = col
        parts = _column_parts(x, every, inst)
    return x


def single_objective_minimizer(inst: ProblemInstance, component: str) -> np.ndarray:
    """Minimize one raw objective component alone over the polytope."""
    if component == "cost":
        x = _solve_lp(inst, _cost_coeffs(inst))
    elif component == "availability":
        x = _solve_lp(inst, _avail_coeffs(inst))
    elif component == "fade":
        return _minimize_fade(inst)
    else:
        raise ValueError(f"unknown objective component {component!r}")
    if x is None:
        raise ValueError("infeasible-instance")
    return x


def _minimize_fade(inst: ProblemInstance) -> np.ndarray:
    if inst.horizon == 0 or inst.n_vehicles == 0:
        return inst.empty_allocation()
    fc = feasibility_check(inst)
    if not fc.feasible:
        raise ValueError("infeasible-instance")
    lin = np.zeros((inst.horizon, inst.n_vehicles))
    best_x, best_f = None, np.inf
    for x0 in (_fill_latest(inst), _fill_spread(inst)):
        x = _repair_exact(_project_polytope(x0, inst), inst, anchor=fc.point)
        for _ in range(MAX_BRANCH_ITERS):
            branches = _derive_branches(x, inst)
            model = _Surrogate(inst, lin, 1.0, branches)
            x, _, _ = _descend(model, x)
            x = _repair_exact(x, inst, anchor=fc.point)
            if np.array_equal(_derive_branches(x, inst), branches):
                break
        raw = objective_components(x, inst).fade
        if raw < best_f - 1e-15 or (best_x is None):
            best_x, best_f = x, raw
    return _local_move_polish(best_x, inst, lambda parts: parts[:, 1])


def solve(
    inst: ProblemInstance,
    points: NormalizationPoints | None = None,
    warm_start: np.ndarray | None = None,
):
    """Minimize the normalized weighted objective; returns (allocation, report).

    Deterministic for identical inputs.  The allocation is None exactly when
    the instance is infeasible.  ``warm_start`` (typically the maximum-power
    schedule) seeds both a descent start and the initial branch assignment.
    """
    t0 = time.perf_counter()

    def report(status, alloc=None, objective=np.inf, iterations=0):
        wall = (time.perf_counter() - t0) * 1000.0
        if alloc is None:
            return None, SolveReport(
                objective=objective, breakdown=None, wall_time_ms=wall,
                iterations=iterations, branch_assignment=None, status=status,
            )
        is_hi = _derive_branches(alloc, inst)
        branches = np.where(is_hi, Branch.HI, Branch.LO)
        return alloc, SolveReport(
            objective=objective,
            breakdown=objective_components(alloc, inst),
            wall_time_ms=wall,
            iterations=iterations,
            branch_assignment=branches,
            status=status,
        )

    if inst.horizon == 0 or inst.n_vehicles == 0:
        alloc = inst.empty_allocation()
        points = points or NormalizationPoints(
            utopia={k: 0.0 for k in COMPONENTS}, nadir={k: 0.0 for k in COMPONENTS}
        )
        obj = normalized_objective(objective_components(alloc, inst), points, inst.weights)
        return report(SolveStatus.OPTIMAL_LOCAL, alloc, obj)

    fc = feasibility_check(inst)
    if not fc.feasible:
        return report(SolveStatus.INFEASIBLE)
    if points is None:
        points = compute_normalization_points(inst, single_objective_minimizer)

    # Fold normalization scales into the surrogate coefficients; degenerate
    # components drop out, mirroring normalized_objective.
    a = dict(zip(COMPONENTS, inst.weights))
    scale = {k: points.spread(k) for k in COMPONENTS}
    lin = np.zeros((inst.horizon, inst.n_vehicles))
    if scale["cost"] >= NORMALIZATION_EPS:
        lin = lin + (a["cost"] / scale["cost"]) * _cost_coeffs(inst)
    if scale["availability"] >= NORMALIZATION_EPS:
        lin = lin + (a["availability"] / scale["availability"]) * _avail_coeffs(inst)
    fw = a["fade"] / scale["fade"] if scale["fade"] >= NORMALIZATION_EPS else 0.0

    tracker = _BestTracker(inst, points, inst.weights)
    starts = []
    if warm_start is not None:
        starts.append(warm_start)
    else:
        starts.append(_fill_forward(inst))
    if np.any(lin != 0.0):
        # Exact corner of the linear objective part; descent only refines
        # the fade trade-off from there.
        lp_corner = _solve_lp(inst, lin)
        if lp_corner is not None:
            starts.append(lp_corner)
    starts.extend([_fill_latest(inst), _fill_spread(inst)])

    iterations = 0
    converged = False
    for x0 in starts:
        x = _repair_exact(_project_polytope(x0, inst), inst, order_key=lin, anchor=fc.point)
        tracker.consider(x)
        prev_obj = np.inf
        for _round in range(MAX_BRANCH_ITERS):
            branches = _derive_branches(x, inst)
            model = _Surrogate(inst, lin, fw, branches)
            x, f, iters = _descend(model, x)
            iterations += iters
            x = _repair_exact(x, inst, order_key=lin, anchor=fc.point)
            tracker.consider(x)
            stable = np.array_equal(_derive_branches(x, inst), branches)
            small_change = abs(prev_obj - f) <= TOL_OBJ * max(abs(f), 1.0)
            prev_obj = f
            if stable or small_change:
                converged = converged or stable
                break

    _zero_snap_polish(tracker.alloc, inst, tracker)
    polished = _local_move_polish(
        tracker.alloc, inst, _normalized_score(points, inst.weights)
    )
    tracker.consider(polished)

    violations = build_constraints(inst).audit(tracker.alloc, 1e-6)
    if violations:  # repair guarantees feasibility; failing here is a bug
        raise RuntimeError(f"solver returned an infeasible allocation: {violations}")
    status = SolveStatus.OPTIMAL_LOCAL if converged else SolveStatus.FEASIBLE
    return report(status, tracker.alloc, tracker.objective, iterations)


# ---------------------------------------------------------------------------
# Brute-force grid oracle
# ---------------------------------------------------------------------------

_ORACLE_CELL_GUARD = 12
_ORACLE_COMBO_GUARD = 2_000_000


def _vehicle_combos(inst: ProblemInstance, v: int, levels: int):
    """Feasible per-vehicle allocations on the current grid.

    The energy window is relaxed to the nearest achievable grid total when
    no combination lands inside it.
    """
    tt = int(inst.grid.tt[v])
    grid = np.linspace(0.0, inst.i_max, levels)
    if tt == 0:
        return np.zeros((1, 0))
    if levels ** tt > _ORACLE_COMBO_GUARD:
        raise OracleError("instance-too-large: per-vehicle grid would explode")
    combos = np.array(list(itertools.product(grid, repeat=tt)))
    delivered = combos @ inst.durations[:tt, v]
    dist = np.maximum(inst.e_lo[v] - delivered, 0.0) + np.maximum(
        delivered - inst.e_hi[v], 0.0
    )
    keep = dist <= dist.min() + 1e-9
    return combos[keep]


def _combo_contributions(inst: ProblemInstance, v: int, combos: np.ndarray,
                         scaled: dict) -> np.ndarray:
    """Per-combination share of the normalized objective for one vehicle."""
    p = inst.fade_params
    tt = combos.shape[1]
    n_c = combos.shape[0]
    cost = np.zeros(n_c)
    fade = np.zeros(n_c)
    avail = np.zeros(n_c)
    soc = np.full(n_c, inst.soc_start[v])
    for i in range(tt):
        x = combos[:, i]
        d = inst.durations[i, v]
        cost += inst.wep[i] * x * d * inst.voltage / 1000.0
        dev = 0.5 * x * d / inst.c_bat
        avg = soc + dev
        hi, lo = p.branch_hi, p.branch_lo
        is_hi = x >= p.branch_slope * soc
        poly = np.where(
            is_hi,
            hi.p00 + hi.p10 * avg + hi.p01 * x + hi.p11 * avg * x + hi.p02 * x * x,
            lo.p00 + lo.p10 * avg + lo.p01 * x + lo.p11 * avg * x + lo.p02 * x * x,
        )
        cyc = np.where(x == 0.0, 0.0, np.maximum(poly, 0.0))
        frac = d / inst.grid.dt
        fade += cyc + frac * (p.p1 * avg + p.p2)
        avail += -inst.avail_w[i, v] * x * inst.voltage
        soc = soc + x * d / inst.c_bat
    return scaled["cost"] * cost + scaled["fade"] * fade + scaled["availability"] * avail


def oracle_grid_search(
    inst: ProblemInstance,
    levels: int = ORACLE_LEVELS,
    points: NormalizationPoints | None = None,
):
    """Exhaustive search over a discretized current grid; returns (alloc, objective).

    Exact branch logic and the true objective are applied to every grid
    point.  Guarded against combinatorial explosion: at most 12 decision
    cells.  Raises ``OracleError`` when the instance is too large or no grid
    point satisfies the station cap.
    """
    if levels < 2:
        raise OracleError("levels must be >= 2")
    cells = int(inst.grid.tt.sum())
    if inst.horizon * inst.n_vehicles > _ORACLE_CELL_GUARD and cells > _ORACLE_CELL_GUARD:
        raise OracleError(
            f"instance-too-large: {inst.horizon}x{inst.n_vehicles} decision cells"
        )
    if inst.n_vehicles == 0 or inst.horizon == 0:
        alloc = inst.empty_allocation()
        return alloc, 0.0
    if points is None:
        points = compute_normalization_points(inst, single_objective_minimizer)
    a = dict(zip(COMPONENTS, inst.weights))
    scaled = {
        k: (a[k] / points.spread(k) if points.spread(k) >= NORMALIZATION_EPS else 0.0)
        for k in COMPONENTS
    }

    per_vehicle = []
    for v in range(inst.n_vehicles):
        combos = _vehicle_combos(inst, v, levels)
        contrib = _combo_contributions(inst, v, combos, scaled)
        order = np.lexsort(tuple(combos.T[::-1]) + (contrib,))
        per_vehicle.append((combos[order], contrib[order]))

    n = inst.n_vehicles
    min_rest = np.zeros(n + 1)
    for v in range(n - 1, -1, -1):
        min_rest[v] = min_rest[v + 1] + per_vehicle[v][1][0]

    best_obj = np.inf
    best_rows: list | None = None
    col = np.zeros(inst.horizon)
    chosen: list = [None] * n

    def dfs(v: int, partial: float):
        nonlocal best_obj, best_rows
        if v == n:
            if partial < best_obj - 1e-15:
                best_obj = partial
                best_rows = [c.copy() for c in chosen]
            return
        combos, contrib = per_vehicle[v]
        tt = combos.shape[1]
        for row, q in zip(combos, contrib):
            if partial + q + min_rest[v + 1] >= best_obj - 1e-15:
                break  # contributions sorted ascending
            col[:tt] += row
            if np.all(col[:tt] <= inst.ic_max + 1e-9):
                chosen[v] = row
                dfs(v + 1, partial + q)
            col[:tt] -= row
        chosen[v] = None

    dfs(0, 0.0)
    if best_rows is None:
        raise OracleError("no-feasible-grid-point")

    alloc = inst.empty_allocation()
    for v, row in enumerate(best_rows):
        alloc[: len(row), v] = row
    objective = normalized_objective(objective_components(alloc, inst), points, inst.weights)
    return alloc, objective
