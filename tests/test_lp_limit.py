"""The LP limit of the objective: with the fade weight at zero, the normalized
objective is linear in the currents, so ``solve`` must reach the optimum of
that linear program.  Unlike acceptance criterion 2's grid oracle, this
reference is exact at any size, including several vehicles under a station
cap that binds."""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix

from fleetcharge.problem import ChargingTask, normalized_objective, objective_components
from fleetcharge.solver import _lp_matrices, feasibility_check, solve

from conftest import make_instance

WEIGHTS = [(1.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.3, 0.0, 0.7)]


def _lp_instances(seed, count):
    """Seeded feasible instances, each paired with its objective weights: 2-8
    vehicles leaving within 20 h on 30-minute slots, a 160 A (binding), 400 A
    or 1200 A feeder, and the weight triples of ``WEIGHTS`` in turn."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        n = int(rng.integers(2, 9))
        tasks = []
        for v in range(n):
            soc_start = float(rng.uniform(0.2, 0.6))
            tasks.append(ChargingTask(f"v{v}", 0.0, float(rng.uniform(1.0, 20.0)), soc_start,
                                      min(1.0, soc_start + float(rng.uniform(0.05, 0.4)))))
        table = rng.uniform(0.02, 0.3, 40)
        inst = make_instance(
            tasks, prices=lambda t, p=table: p[int(round(t / 0.5))],
            i_max=80.0, ic_max=float(rng.choice([160.0, 400.0, 1200.0])),
            soc_xtra_ah=float(rng.choice([0.0, 21.0])),
        )
        if feasibility_check(inst).feasible:
            found.append((inst, WEIGHTS[len(found) % len(WEIGHTS)]))
    return found


def _linear_optimum(inst, weights, points):
    """The minimum of the normalized cost and availability terms over the
    schedule polytope, by ``linprog``, scored as ``solve`` scores a plan."""
    scaled = points.weight_per_spread(weights)
    c = (scaled["cost"] * inst.wep[:, None] * inst.durations * inst.voltage / 1000.0
         - scaled["availability"] * inst.avail_w * inst.voltage)
    (start, index, value), b_ub, bounds = _lp_matrices(inst)
    a_ub = csc_matrix((value, index, start), shape=(len(b_ub), c.size))
    res = linprog(c.ravel(), A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success, res.message
    x = np.clip(res.x.reshape(inst.horizon, inst.n_vehicles), 0.0, None)
    return normalized_objective(objective_components(x, inst), points, weights)


def test_solve_reaches_the_lp_optimum_without_fade():
    binding = 0
    for k, (inst, weights) in enumerate(_lp_instances(20240607, 10)):
        alloc, rep = solve(inst, weights)
        lp = _linear_optimum(inst, weights, rep.points)
        assert abs(rep.objective - lp) <= 1e-9 * max(abs(lp), 1.0), (
            f"instance {k} ({inst.n_vehicles} x {inst.horizon}, {inst.ic_max} A): "
            f"solve {rep.objective!r}, LP {lp!r}")
        binding += bool(np.any(alloc.sum(axis=1) >= inst.ic_max - 1e-6))
    assert binding > 0  # the station cap binds on some plans
