"""Brute-force grid oracle: the reference optimum of small instances.

Acceptance criterion 2 and ``test_solver.TestOracle`` compare ``solve``
against an exhaustive search of the normalized objective over a grid of
currents.  The oracle keeps its own transcription of the fade quadratic and
branch rule, so it is an independent check of the package's kernels, and it
uses only the package's public names.
"""

import itertools

import numpy as np

from fleetcharge.problem import (
    NormalizationPoints,
    ProblemInstance,
    compute_normalization_points,
    normalized_objective,
    objective_components,
)
from fleetcharge.solver import single_objective_minimizer

_ORACLE_CELL_GUARD = 12
_ORACLE_COMBO_GUARD = 2_000_000


class OracleError(ValueError):
    """Raised when the grid oracle cannot be applied to an instance."""


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
    cost, fade, avail = np.zeros((3, len(combos)))
    soc = np.full(len(combos), inst.soc_start[v])
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
    weights: tuple,
    levels: int = 8,
    points: NormalizationPoints | None = None,
):
    """Exhaustive search over a discretized current grid for the objective
    weighted by ``weights``; returns (alloc, objective).

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
        return inst.empty_allocation(), 0.0
    if points is None:
        points = compute_normalization_points(inst, single_objective_minimizer)
    scaled = points.weight_per_spread(weights)

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
    objective = normalized_objective(objective_components(alloc, inst), points, weights)
    return alloc, objective
