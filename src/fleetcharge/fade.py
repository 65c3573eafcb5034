"""Lithium-ion capacity fade models for charging slots.

Two fade mechanisms are modelled for an LFP/graphite pack:

* cyclic fade, driven by the charging stress factors (average state of
  charge, SoC deviation and charge processed) with an Arrhenius temperature
  factor.  Available in an exact nonlinear form and a piecewise-quadratic
  approximation whose two coefficient sets are selected by the ratio of
  charging current to initial SoC.
* calendric fade, approximated as an affine function of the average SoC.

All quantities use SoC as a fraction in [0, 1], current in A, charge in Ah
and time in hours.  Every function here is pure; values are safe to share
across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Branch",
    "BranchCoefficients",
    "FadeModelParams",
    "SlotCharge",
    "StressFactors",
    "InvalidSlotError",
    "stress_factors",
    "cyclic_fade_exact",
    "select_branch",
    "cyclic_fade_approx",
    "cyclic_fade_surface",
    "calendric_fade_approx",
    "total_fade_approx",
    "fade_fit_report",
]

GAS_CONSTANT = 8.314  # J/(mol*K)


class InvalidSlotError(ValueError):
    """A charging slot violates its physical preconditions."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"invalid-slot [{field_name}]: {message}")


class Branch(enum.Enum):
    """Domain piece of the quadratic cyclic-fade approximation."""

    HI = "hi"  # current >= branch_slope * soc_init
    LO = "lo"  # current <  branch_slope * soc_init


@dataclass(frozen=True)
class BranchCoefficients:
    """Quadratic surface coefficients (p00, p10, p01, p11, p02).

    The fields are floats for one branch, or per-cell arrays when branches
    are mixed (see :meth:`FadeModelParams.branch_coefficients`); either way
    :meth:`evaluate` is the one place the quadratic is spelled out.
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
    ea: float = 31500.0          # activation energy, J/mol
    r_gas: float = GAS_CONSTANT  # J/(mol*K)
    t_amb: float = 298.15        # ambient temperature, K
    branch_hi: BranchCoefficients = field(default_factory=lambda: BRANCH_HI_DEFAULT)
    branch_lo: BranchCoefficients = field(default_factory=lambda: BRANCH_LO_DEFAULT)
    branch_slope: float = 480.0  # A per unit of initial SoC
    p1: float = 0.0001347        # calendric slope, Ah per unit SoC
    p2: float = 0.00005356       # calendric intercept, Ah

    def __post_init__(self):
        if self.branch_slope <= 0:
            raise ValueError("branch_slope must be > 0")
        if self.r_gas <= 0:
            raise ValueError("gas constant must be > 0")
        if self.ea < 0:
            raise ValueError("activation energy must be >= 0")
        if self.t_amb <= 0:
            raise ValueError("ambient temperature must be > 0")

    def branch_coefficients(self, is_hi: np.ndarray) -> BranchCoefficients:
        """Per-cell coefficient arrays: the HI branch where ``is_hi``, else LO."""
        hi, lo = self.branch_hi, self.branch_lo
        return BranchCoefficients(
            *(np.where(is_hi, getattr(hi, f), getattr(lo, f))
              for f in ("p00", "p10", "p01", "p11", "p02"))
        )


@dataclass(frozen=True)
class SlotCharge:
    """Constant-current charging conditions over one time slot.

    ``temp`` is the battery temperature during the slot; it defaults to the
    ambient temperature of the fade parameters in use (no thermal model), in
    which case the Arrhenius factor is exactly 1.
    """

    soc_init: float      # SoC fraction at slot start
    current: float       # charging current, A
    dt: float            # slot length, h
    c_bat: float         # nominal capacity, Ah
    temp: float | None = None  # battery temperature, K

    SOC_CAP_EPS = 1e-9

    def validate(self):
        if not 0.0 <= self.soc_init <= 1.0:
            raise InvalidSlotError("soc_init", f"{self.soc_init} not in [0, 1]")
        if self.current < 0.0:
            raise InvalidSlotError("current", f"{self.current} < 0")
        if self.dt <= 0.0:
            raise InvalidSlotError("dt", f"{self.dt} <= 0")
        if self.c_bat <= 0.0:
            raise InvalidSlotError("c_bat", f"{self.c_bat} <= 0")
        soc_end = self.soc_init + self.current * self.dt / self.c_bat
        if soc_end > 1.0 + self.SOC_CAP_EPS:
            raise InvalidSlotError(
                "current", f"slot ends above full charge (SoC {soc_end:.6f})"
            )
        if self.temp is not None and self.temp <= 0.0:
            raise InvalidSlotError("temp", f"{self.temp} <= 0")


@dataclass(frozen=True)
class StressFactors:
    """Charging stress factors of one slot."""

    soc_avg: float  # average SoC over the slot, fraction
    soc_dev: float  # SoC deviation over the slot, fraction
    ah: float       # charge processed, Ah


def stress_factors(slot: SlotCharge) -> StressFactors:
    """Average SoC, SoC deviation and charge processed for a slot.

    With constant current the SoC rises linearly, so the average sits half
    a slot's charge above the initial SoC and the deviation equals that
    same half-charge fraction.
    """
    slot.validate()
    half_frac = 0.5 * slot.current * slot.dt / slot.c_bat
    return StressFactors(
        soc_avg=slot.soc_init + half_frac,
        soc_dev=half_frac,
        ah=slot.current * slot.dt,
    )


def _temperature_factor(temp: float | None, params: FadeModelParams) -> float:
    if temp is None or temp == params.t_amb:
        return 1.0
    return math.exp(-params.ea / params.r_gas * (1.0 / temp - 1.0 / params.t_amb))


def cyclic_fade_exact(slot: SlotCharge, params: FadeModelParams) -> float:
    """Exact nonlinear cyclic capacity loss for one slot, in Ah.

    Identically zero at zero current (the trailing square-root charge factor
    vanishes).
    """
    sf = stress_factors(slot)
    if slot.current == 0.0:
        return 0.0
    stress = params.k1 * sf.soc_dev * math.exp(params.k2 * sf.soc_avg) + (
        params.k3 * math.exp(params.k4 * sf.soc_dev)
    )
    return stress * _temperature_factor(slot.temp, params) * math.sqrt(sf.ah)


def select_branch(current: float, soc_init: float, params: FadeModelParams) -> Branch:
    """Pick the approximation branch: HI iff current >= slope * soc_init."""
    if current >= params.branch_slope * soc_init:
        return Branch.HI
    return Branch.LO


def cyclic_fade_approx(slot: SlotCharge, params: FadeModelParams) -> float:
    """Piecewise-quadratic cyclic capacity loss for one slot, in Ah.

    Forced to zero at zero current for consistency with the exact model,
    and clamped at zero elsewhere (the quadratic can dip negative at low
    currents and high SoC).
    """
    sf = stress_factors(slot)
    if slot.current == 0.0:
        return 0.0
    branch = select_branch(slot.current, slot.soc_init, params)
    coeffs = params.branch_hi if branch is Branch.HI else params.branch_lo
    return max(0.0, coeffs.evaluate(sf.soc_avg, slot.current))


def cyclic_fade_surface(soc_init, current, dt, c_bat, params: FadeModelParams):
    """Vectorised :func:`cyclic_fade_approx` over arrays of slots.

    Returns ``(cyclic, soc_avg, is_hi)``, each shaped like the broadcast of
    ``soc_init``, ``current`` and ``dt``.  No slot validation: callers pass
    slots from a feasible schedule or a masked grid.
    """
    soc_avg = soc_init + 0.5 * current * dt / c_bat
    is_hi = current >= params.branch_slope * soc_init
    cyclic = np.maximum(params.branch_coefficients(is_hi).evaluate(soc_avg, current), 0.0)
    cyclic[current == 0.0] = 0.0
    return cyclic, soc_avg, is_hi


def calendric_fade_approx(soc_avg: float, params: FadeModelParams) -> float:
    """Affine calendric capacity loss for one slot, in Ah."""
    if not 0.0 <= soc_avg <= 1.0:
        raise InvalidSlotError("soc_avg", f"{soc_avg} not in [0, 1]")
    return params.p1 * soc_avg + params.p2


def total_fade_approx(slot: SlotCharge, params: FadeModelParams) -> float:
    """Cyclic approximation plus calendric loss for one slot, in Ah."""
    cyc = cyclic_fade_approx(slot, params)
    cal = calendric_fade_approx(stress_factors(slot).soc_avg, params)
    return cyc + cal


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

    approx, avg, is_hi = cyclic_fade_surface(soc, cur, dt, c_bat, params)
    dev = 0.5 * cur * dt / c_bat
    exact = (
        params.k1 * dev * np.exp(params.k2 * avg)
        + params.k3 * np.exp(params.k4 * dev)
    ) * np.sqrt(cur * dt)
    exact = np.where(cur == 0.0, 0.0, exact)
    return exact, approx, is_hi


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
