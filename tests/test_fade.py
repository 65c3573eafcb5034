"""Capacity-fade model tests.

Expected values marked "frozen" were computed with an independent
transcription of the formulas (plain math, no package imports) and pasted
here; see the module-level constants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcharge.fade import (
    Branch,
    FadeModelParams,
    InvalidSlotError,
    SlotCharge,
    calendric_fade_approx,
    cyclic_fade_approx,
    cyclic_fade_exact,
    fade_fit_report,
    select_branch,
    stress_factors,
    total_fade_approx,
)

# Frozen reference values (independent scalar evaluation).
EXACT_03_60 = 4.949190498299563e-05       # soc 0.3, 60 A, 0.25 h, 210 Ah, T=T_amb
APPROX_LO_05_100 = 0.00016849523015873016  # soc 0.5, 100 A, 1/12 h, 210 Ah
APPROX_HI_01_200 = 0.00016043998412698418  # soc 0.1, 200 A, 1/12 h, 210 Ah
CAL_HALF = 0.00012091
CAL_FULL = 0.00018826


class TestStressFactors:
    def test_zero_current(self, fade_params):
        sf = stress_factors(SlotCharge(0.5, 0.0, 0.25, 200.0))
        assert (sf.soc_avg, sf.soc_dev, sf.ah) == (0.5, 0.0, 0.0)

    def test_direct_substitution(self, fade_params):
        # charge processed equals 0.2 of capacity
        sf = stress_factors(SlotCharge(0.2, 40.0, 1.0, 200.0))
        assert sf.soc_avg == pytest.approx(0.3)
        assert sf.soc_dev == pytest.approx(0.1)
        assert sf.ah == pytest.approx(40.0)

    def test_half_charge_fraction(self):
        sf = stress_factors(SlotCharge(0.0, 40.0, 0.5, 200.0))
        assert sf.soc_avg == pytest.approx(0.05)
        assert sf.soc_dev == pytest.approx(0.05)
        assert sf.ah == pytest.approx(20.0)

    @given(
        soc=st.floats(0.0, 0.5),
        current=st.floats(0.1, 40.0),
        dt=st.floats(0.1, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_linear_in_current(self, soc, current, dt):
        """Doubling the current doubles deviation, charge, and the rise of
        the average above the initial SoC."""
        c_bat = 210.0
        a = stress_factors(SlotCharge(soc, current, dt, c_bat))
        b = stress_factors(SlotCharge(soc, 2.0 * current, dt, c_bat))
        assert b.soc_dev == pytest.approx(2.0 * a.soc_dev)
        assert b.ah == pytest.approx(2.0 * a.ah)
        assert b.soc_avg - soc == pytest.approx(2.0 * (a.soc_avg - soc))

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(soc_init=-0.1, current=10, dt=0.5, c_bat=200), "soc_init"),
            (dict(soc_init=0.5, current=-1, dt=0.5, c_bat=200), "current"),
            (dict(soc_init=0.5, current=10, dt=0.0, c_bat=200), "dt"),
            (dict(soc_init=0.5, current=10, dt=0.5, c_bat=0.0), "c_bat"),
            (dict(soc_init=0.99, current=80, dt=1.0, c_bat=200), "current"),
        ],
    )
    def test_invalid_slot_reports_field(self, kwargs, field):
        with pytest.raises(InvalidSlotError) as err:
            stress_factors(SlotCharge(**kwargs))
        assert err.value.field_name == field


class TestCyclicFadeExact:
    def test_zero_current_is_zero(self, fade_params):
        assert cyclic_fade_exact(SlotCharge(0.6, 0.0, 0.5, 210.0), fade_params) == 0.0

    def test_ambient_temperature_form(self, fade_params):
        """At T = T_amb the Arrhenius factor is one, leaving the stress
        terms times the square-root charge factor."""
        slot = SlotCharge(0.4, 50.0, 0.5, 210.0)
        sf = stress_factors(slot)
        expected = (
            fade_params.k1 * sf.soc_dev * math.exp(fade_params.k2 * sf.soc_avg)
            + fade_params.k3 * math.exp(fade_params.k4 * sf.soc_dev)
        ) * math.sqrt(sf.ah)
        assert cyclic_fade_exact(slot, fade_params) == pytest.approx(expected, rel=1e-12)

    def test_frozen_value(self, fade_params):
        got = cyclic_fade_exact(SlotCharge(0.3, 60.0, 0.25, 210.0), fade_params)
        assert got == pytest.approx(EXACT_03_60, rel=1e-12)

    def test_hotter_battery_fades_more(self, fade_params):
        cool = SlotCharge(0.4, 50.0, 0.5, 210.0, temp=fade_params.t_amb)
        hot = SlotCharge(0.4, 50.0, 0.5, 210.0, temp=fade_params.t_amb + 15.0)
        assert cyclic_fade_exact(hot, fade_params) > cyclic_fade_exact(cool, fade_params)


class TestSelectBranch:
    def test_below_line(self, fade_params):
        assert select_branch(100.0, 0.5, fade_params) is Branch.LO  # 100 < 240

    def test_boundary_is_high(self, fade_params):
        assert select_branch(240.0, 0.5, fade_params) is Branch.HI  # inclusive

    def test_above_line(self, fade_params):
        assert select_branch(200.0, 0.1, fade_params) is Branch.HI  # 200 >= 48


class TestCyclicFadeApprox:
    def test_zero_current_forced_zero(self, fade_params):
        assert cyclic_fade_approx(SlotCharge(0.3, 0.0, 0.5, 210.0), fade_params) == 0.0

    def test_low_branch_frozen(self, fade_params):
        got = cyclic_fade_approx(SlotCharge(0.5, 100.0, 1.0 / 12.0, 210.0), fade_params)
        assert got == pytest.approx(APPROX_LO_05_100, rel=1e-12)

    def test_high_branch_frozen(self, fade_params):
        got = cyclic_fade_approx(SlotCharge(0.1, 200.0, 1.0 / 12.0, 210.0), fade_params)
        assert got == pytest.approx(APPROX_HI_01_200, rel=1e-12)

    @given(soc=st.floats(0.0, 1.0), frac=st.floats(0.001, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_never_negative(self, soc, frac):
        params = FadeModelParams()
        current = frac * min(80.0, (1.0 - soc) * 210.0 / 0.5)
        if current <= 0:
            return
        slot = SlotCharge(soc, current, 0.5, 210.0)
        assert cyclic_fade_approx(slot, params) >= 0.0


class TestCalendricFadeApprox:
    def test_intercept_exact(self, fade_params):
        assert calendric_fade_approx(0.0, fade_params) == 5.356e-05

    def test_full_charge(self, fade_params):
        assert calendric_fade_approx(1.0, fade_params) == pytest.approx(CAL_FULL, rel=1e-12)

    def test_half_charge(self, fade_params):
        assert calendric_fade_approx(0.5, fade_params) == pytest.approx(CAL_HALF, rel=1e-12)

    def test_out_of_range(self, fade_params):
        with pytest.raises(InvalidSlotError):
            calendric_fade_approx(1.2, fade_params)

    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_nondecreasing(self, a, b):
        params = FadeModelParams()
        lo, hi = sorted((a, b))
        assert calendric_fade_approx(lo, params) <= calendric_fade_approx(hi, params)

    @given(soc=st.floats(0.0, 0.9), frac=st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_positive_alongside_cyclic(self, soc, frac):
        """For any charging slot the calendric loss is strictly positive and
        the cyclic approximation nonnegative."""
        params = FadeModelParams()
        current = frac * min(80.0, (1.0 - soc) * 210.0 / 0.5)
        if current <= 0:
            return
        slot = SlotCharge(soc, current, 0.5, 210.0)
        sf = stress_factors(slot)
        assert calendric_fade_approx(sf.soc_avg, params) > 0.0
        assert cyclic_fade_approx(slot, params) >= 0.0


class TestTotalFadeApprox:
    def test_idle_slot_is_calendric_only(self, fade_params):
        got = total_fade_approx(SlotCharge(0.0, 0.0, 0.5, 210.0), fade_params)
        assert got == 5.356e-05

    def test_definitional_sum(self, fade_params):
        slot = SlotCharge(0.45, 30.0, 0.5, 210.0)
        expected = cyclic_fade_approx(slot, fade_params) + calendric_fade_approx(
            stress_factors(slot).soc_avg, fade_params
        )
        assert total_fade_approx(slot, fade_params) == expected

    def test_frozen_sum(self, fade_params):
        slot = SlotCharge(0.5, 100.0, 1.0 / 12.0, 210.0)
        soc_avg = stress_factors(slot).soc_avg
        expected = APPROX_LO_05_100 + fade_params.p1 * soc_avg + fade_params.p2
        assert total_fade_approx(slot, fade_params) == pytest.approx(expected, rel=1e-12)


class TestApproximationQuality:
    def test_branch_fit_report(self, fade_params):
        """The quadratic tracks the exact surface with a coefficient of
        determination of at least 0.99 on each branch domain."""
        report = fade_fit_report(fade_params, n=100)
        assert report["hi"]["r_squared"] >= 0.99
        assert report["lo"]["r_squared"] >= 0.99
        assert report["hi"]["n_points"] > 500
        assert report["lo"]["n_points"] > 500

    def test_undefined_statistics_are_none(self, fade_params):
        """One grid point: the low branch is empty and the high branch has
        no variance, so R^2 is undefined there but the residuals are not."""
        report = fade_fit_report(fade_params, n=1)
        assert report["lo"] == {"n_points": 0, "r_squared": None,
                                "rmse_ah": None, "max_abs_err_ah": None}
        assert report["hi"]["n_points"] == 1
        assert report["hi"]["r_squared"] is None
        assert report["hi"]["rmse_ah"] == report["hi"]["max_abs_err_ah"] > 0.0

    def test_zero_current_agreement(self, fade_params):
        slot = SlotCharge(0.7, 0.0, 0.5, 210.0)
        assert cyclic_fade_exact(slot, fade_params) == 0.0
        assert cyclic_fade_approx(slot, fade_params) == 0.0


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs", [dict(branch_slope=0.0), dict(r_gas=0.0), dict(ea=-1.0), dict(t_amb=0.0)]
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FadeModelParams(**kwargs)

    def test_table_defaults(self, fade_params):
        assert fade_params.branch_slope == 480.0
        assert fade_params.p1 == 0.0001347
        assert fade_params.p2 == 0.00005356
        assert fade_params.branch_lo.p00 == 6.886e-6
        assert fade_params.branch_hi.p02 == -5.757e-9
