"""Lithium-ion capacity fade models for charging slots.

Two fade mechanisms are modelled for an LFP/graphite pack:

* cyclic fade, driven by the charging stress factors (average state of
  charge, SoC deviation and charge processed).  Available in an exact
  nonlinear form and a piecewise-quadratic approximation whose two
  coefficient sets are selected by the ratio of charging current to
  initial SoC.
* calendric fade, approximated as an affine function of the average SoC.

All quantities use SoC as a fraction in [0, 1], current in A, charge in Ah
and time in hours.  Each model is one kernel over scalars or arrays of
slots, shared by the ledger, the optimizer's evaluator and the fit report.
Every function here is pure; values are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BranchCoefficients",
    "FadeModelParams",
    "InvalidSlotError",
    "cyclic_fade_exact",
    "cyclic_fade_approx",
    "calendric_fade_approx",
    "fade_fit_report",
]

class InvalidSlotError(ValueError):
    """A charging slot violates its physical preconditions."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"invalid-slot [{field_name}]: {message}")


@dataclass(frozen=True)
class BranchCoefficients:
    """Quadratic surface coefficients (p00, p10, p01, p11, p02).

    The fields are floats for one branch, or per-cell arrays when branches
    are mixed (``BranchCoefficients(*params.branch_coefficients(is_hi))``);
    either way :meth:`evaluate` is the one place the quadratic is spelled
    out.
    """

    p00: float
    p10: float
    p01: float
    p11: float
    p02: float

    def evaluate(self, soc_avg: float, current: float):
        return (
            self.p00
            + self.p10 * soc_avg
            + self.p01 * current
            + self.p11 * soc_avg * current
            + self.p02 * current * current
        )


# Quadratic coefficients of the cyclic-fade approximation on its two domains.
BRANCH_HI_DEFAULT = BranchCoefficients(
    p00=4.169e-6, p10=-9.871e-5, p01=1.63e-6, p11=2.661e-6, p02=-5.757e-9
)
BRANCH_LO_DEFAULT = BranchCoefficients(
    p00=6.886e-6, p10=-1.075e-5, p01=1.361e-6, p11=6.348e-7, p02=-1.902e-10
)


@dataclass(frozen=True)
class FadeModelParams:
    """Coefficients of the cyclic and calendric fade models.

    The exact cyclic coefficients ``k1..k4`` default to values calibrated so
    that the bundled quadratic branch coefficients reproduce the exact model
    on the default validation envelope (30-minute slots, 210 Ah pack,
    currents up to 80 A); see :func:`fade_fit_report`.  They are plain
    configuration inputs and may be overridden for other cells.
    """

    k1: float = 1.0548e-4
    k2: float = 0.61412
    k3: float = 8.3566e-6
    k4: float = -0.70409
    branch_hi: BranchCoefficients = field(default_factory=lambda: BRANCH_HI_DEFAULT)
    branch_lo: BranchCoefficients = field(default_factory=lambda: BRANCH_LO_DEFAULT)
    branch_slope: float = 480.0  # A per unit of initial SoC
    p1: float = 0.0001347        # calendric slope, Ah per unit SoC
    p2: float = 0.00005356       # calendric intercept, Ah
    # (2, 5): the HI then the LO branch's coefficients in field order,
    # built from the two branches once; read-only
    branch_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.branch_slope <= 0:
            raise ValueError("branch_slope must be > 0")
        table = np.array([[c.p00, c.p10, c.p01, c.p11, c.p02]
                          for c in (self.branch_hi, self.branch_lo)])
        table.flags.writeable = False
        object.__setattr__(self, "branch_table", table)

    def is_hi(self, current, soc_init):
        """The branch rule, for scalars or arrays: a slot charges on the HI
        quadratic iff its current is at least ``branch_slope`` times its
        initial SoC, else on the LO one."""
        return current >= self.branch_slope * soc_init

    def branch_coefficients(self, is_hi) -> np.ndarray:
        """Per-cell coefficients stacked in field order, shaped (5, *shape
        of ``is_hi``): the HI branch where ``is_hi``, else LO."""
        hi, lo = self.branch_table.reshape((2, 5) + (1,) * np.ndim(is_hi))
        return np.where(is_hi, hi, lo)

    def calendric(self, soc_avg):
        """Affine calendric loss ``p1 * soc_avg + p2`` per slot, in Ah, of a
        scalar or array average SoC, unchecked (see
        :func:`calendric_fade_approx`)."""
        return self.p1 * soc_avg + self.p2


def cyclic_fade_exact(soc_init, current, dt, c_bat, params: FadeModelParams):
    """Exact nonlinear cyclic capacity loss, in Ah, of slots given as
    scalars or broadcastable arrays.

    With constant current the SoC rises linearly, so the average SoC sits
    half a slot's charge above the initial SoC and the SoC deviation equals
    that same half-charge fraction; the charge processed is ``current *
    dt``.  Zero at zero current (the square-root charge factor vanishes).
    No slot validation: callers check their slots.
    """
    dev = 0.5 * current * dt / c_bat
    avg = soc_init + dev
    exact = (
        params.k1 * dev * np.exp(params.k2 * avg)
        + params.k3 * np.exp(params.k4 * dev)
    ) * np.sqrt(current * dt)
    return np.where(current == 0.0, 0.0, exact)


def cyclic_fade_approx(soc_init, current, dt, c_bat, params: FadeModelParams):
    """Piecewise-quadratic cyclic capacity loss of slots given as scalars or
    broadcastable arrays.

    Returns ``(cyclic, soc_avg, is_hi)``, each shaped like the broadcast of
    ``soc_init``, ``current`` and ``dt``: the loss in Ah, the slot's average
    SoC and its branch.  The loss is forced to zero at zero current, for
    consistency with the exact model, and clamped at zero elsewhere (the
    quadratic can dip negative at low currents and high SoC).  No slot
    validation: callers check their slots.
    """
    soc_avg = soc_init + 0.5 * current * dt / c_bat
    is_hi = params.is_hi(current, soc_init)
    coef = BranchCoefficients(*params.branch_coefficients(is_hi))
    cyclic = np.maximum(coef.evaluate(soc_avg, current), 0.0)
    return np.where(current == 0.0, 0.0, cyclic), soc_avg, is_hi


def calendric_fade_approx(soc_avg, params: FadeModelParams):
    """Affine calendric capacity loss per slot, in Ah, of a scalar or array
    average SoC; every value must lie in [0, 1]."""
    if not np.logical_and(0.0 <= soc_avg, soc_avg <= 1.0).all():
        raise InvalidSlotError("soc_avg", f"{soc_avg} not in [0, 1]")
    return params.calendric(soc_avg)


# ---------------------------------------------------------------------------
# Approximation quality over a (soc_init, current) grid
# ---------------------------------------------------------------------------


def _surfaces(
    params: FadeModelParams,
    soc_grid: np.ndarray,
    current_grid: np.ndarray,
    dt: float,
    c_bat: float,
):
    """Vectorised exact/approx surfaces over the feasible wedge.

    Points whose slot would charge past 100% SoC are masked out, matching
    the physical domain on which the quadratic branches were fit.
    """
    soc, cur = np.meshgrid(soc_grid, current_grid, indexing="ij")
    feasible = soc + cur * dt / c_bat <= 1.0 + 1e-12
    soc, cur = soc[feasible], cur[feasible]

    approx, _, is_hi = cyclic_fade_approx(soc, cur, dt, c_bat, params)
    return cyclic_fade_exact(soc, cur, dt, c_bat, params), approx, is_hi


def fade_fit_report(
    params: FadeModelParams,
    n: int = 100,
    i_max: float = 80.0,
    dt: float = 0.5,
    c_bat: float = 210.0,
) -> dict:
    """Goodness of fit of the quadratic approximation against the exact model.

    Evaluates both models on an ``n x n`` grid of (soc_init, current) with
    strictly positive currents up to ``i_max``, restricted to slots that do
    not charge past 100% SoC, and reports the coefficient of determination
    on each branch domain together with residual statistics.  A statistic
    a branch cannot define (no grid points, or constant exact values for
    R^2) is None.
    """
    if n < 0:
        raise ValueError(f"grid size must be >= 0, got {n}")
    if not (math.isfinite(i_max) and i_max > 0):
        raise ValueError(f"grid current limit must be finite and > 0, got {i_max}")
    soc_grid = np.linspace(0.0, 1.0, n)
    current_grid = np.linspace(0.0, i_max, n + 1)[1:]
    exact, approx, is_hi = _surfaces(params, soc_grid, current_grid, dt, c_bat)

    report: dict = {
        "grid_n": n,
        "i_max": i_max,
        "dt_hours": dt,
        "c_bat_ah": c_bat,
        "n_points": int(exact.size),
    }
    for name, mask in (("hi", is_hi), ("lo", ~is_hi)):
        ex, ap = exact[mask], approx[mask]
        count = int(mask.sum())
        stats = {"n_points": count, "r_squared": None, "rmse_ah": None, "max_abs_err_ah": None}
        if count:
            ss_res = float(np.sum((ap - ex) ** 2))
            ss_tot = float(np.sum((ex - ex.mean()) ** 2))
            stats["r_squared"] = 1.0 - ss_res / ss_tot if ss_tot > 0 else None
            stats["rmse_ah"] = math.sqrt(ss_res / count)
            stats["max_abs_err_ah"] = float(np.max(np.abs(ap - ex)))
        report[name] = stats
    return report
