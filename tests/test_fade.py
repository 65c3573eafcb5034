"""Capacity-fade model tests.

Expected values marked "frozen" were computed with an independent
transcription of the formulas (plain math, no package imports) and pasted
here; see the module-level constants.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcharge.fade import (
    FadeModelParams,
    InvalidSlotError,
    calendric_fade_approx,
    cyclic_fade_approx,
    cyclic_fade_exact,
    fade_fit_report,
)

# Frozen reference values (independent scalar evaluation).
EXACT_03_60 = 4.949190498299563e-05       # soc 0.3, 60 A, 0.25 h, 210 Ah, T=T_amb
APPROX_LO_05_100 = 0.00016849523015873016  # soc 0.5, 100 A, 1/12 h, 210 Ah
APPROX_HI_01_200 = 0.00016043998412698418  # soc 0.1, 200 A, 1/12 h, 210 Ah
CAL_HALF = 0.00012091
CAL_FULL = 0.00018826


def reference_exact(soc, current, dt, c_bat, p):
    """Exact cyclic fade of one slot, transcribed in plain ``math``."""
    if current == 0.0:
        return 0.0
    dev = 0.5 * current * dt / c_bat
    avg = soc + dev
    return (p.k1 * dev * math.exp(p.k2 * avg) + p.k3 * math.exp(p.k4 * dev)) * math.sqrt(
        current * dt)


def reference_approx(soc, current, dt, c_bat, p):
    """Piecewise-quadratic cyclic fade of one slot, transcribed in plain
    Python: zero at zero current, HI iff the current is at least
    ``branch_slope`` times the initial SoC, clamped at zero."""
    if current == 0.0:
        return 0.0
    c = p.branch_hi if current >= p.branch_slope * soc else p.branch_lo
    avg = soc + 0.5 * current * dt / c_bat
    return max(0.0, c.p00 + c.p10 * avg + c.p01 * current + c.p11 * avg * current
               + c.p02 * current * current)


class TestStressFactors:
    """The slot's average SoC, which :func:`cyclic_fade_approx` returns, and
    both kernels against the plain-``math`` reference."""

    def test_zero_current(self, fade_params):
        cyclic, soc_avg, _ = cyclic_fade_approx(0.5, 0.0, 0.25, 200.0, fade_params)
        assert (cyclic, soc_avg) == (0.0, 0.5)
        assert cyclic_fade_exact(0.5, 0.0, 0.25, 200.0, fade_params) == 0.0

    def test_direct_substitution(self, fade_params):
        # charge processed equals 0.2 of capacity
        _, soc_avg, _ = cyclic_fade_approx(0.2, 40.0, 1.0, 200.0, fade_params)
        assert soc_avg == pytest.approx(0.3)

    def test_half_charge_fraction(self, fade_params):
        _, soc_avg, _ = cyclic_fade_approx(0.0, 40.0, 0.5, 200.0, fade_params)
        assert soc_avg == pytest.approx(0.05)

    @given(
        soc=st.floats(0.0, 0.5),
        current=st.floats(0.1, 40.0),
        dt=st.floats(0.1, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_linear_in_current(self, soc, current, dt):
        """Doubling the current doubles the rise of the average above the
        initial SoC."""
        params, c_bat = FadeModelParams(), 210.0
        _, a, _ = cyclic_fade_approx(soc, current, dt, c_bat, params)
        _, b, _ = cyclic_fade_approx(soc, 2.0 * current, dt, c_bat, params)
        assert b - soc == pytest.approx(2.0 * (a - soc))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_array_equals_scalar_and_reference(self, seed, n):
        """On random slots, with both branches, zero current and the clamp
        at zero among them, every cell of an array call equals the scalar
        call on that cell, and both equal the reference: the exact model
        within 1e-15 relative (numpy's and ``math``'s ``exp`` may differ by
        an ulp), the quadratic bit for bit."""
        params, c_bat = FadeModelParams(), 210.0
        rng = np.random.default_rng(seed)
        dt = rng.choice([0.5, 0.25, 1.0 / 12.0, 0.01], n)
        soc = rng.uniform(0.0, 1.0, n)
        room = (1.0 - soc) * c_bat / dt
        current = rng.uniform(0.0, 1.0, n) * np.minimum(room, 300.0)
        current[rng.random(n) < 0.2] = 0.0
        # appended cells: HI, LO, zero current, and a clamped (negative) quadratic
        soc = np.concatenate([soc, [0.05, 0.6, 0.3, 0.95]])
        current = np.concatenate([current, [60.0, 40.0, 0.0, 0.2]])
        dt = np.concatenate([dt, [0.5, 0.5, 0.5, 0.5]])

        exact = cyclic_fade_exact(soc, current, dt, c_bat, params)
        approx, soc_avg, is_hi = cyclic_fade_approx(soc, current, dt, c_bat, params)
        assert is_hi.any() and (~is_hi).any()
        assert np.any((current > 0.0) & (approx == 0.0))
        for k, (s, i, d) in enumerate(zip(soc.tolist(), current.tolist(), dt.tolist())):
            one = cyclic_fade_approx(s, i, d, c_bat, params)
            assert (float(one[0]), one[1], one[2]) == (approx[k], soc_avg[k], is_hi[k])
            assert float(cyclic_fade_exact(s, i, d, c_bat, params)) == exact[k]
            assert approx[k] == reference_approx(s, i, d, c_bat, params)
            assert math.isclose(exact[k], reference_exact(s, i, d, c_bat, params),
                                rel_tol=1e-15, abs_tol=0.0)


class TestCyclicFadeExact:
    def test_zero_current_is_zero(self, fade_params):
        assert cyclic_fade_exact(0.6, 0.0, 0.5, 210.0, fade_params) == 0.0

    def test_ambient_temperature_form(self, fade_params):
        """The stress terms times the square-root charge factor."""
        assert cyclic_fade_exact(0.4, 50.0, 0.5, 210.0, fade_params) == pytest.approx(
            reference_exact(0.4, 50.0, 0.5, 210.0, fade_params), rel=1e-12)

    def test_frozen_value(self, fade_params):
        got = cyclic_fade_exact(0.3, 60.0, 0.25, 210.0, fade_params)
        assert got == pytest.approx(EXACT_03_60, rel=1e-12)


class TestSelectBranch:
    """The branch rule, :meth:`FadeModelParams.is_hi`."""

    def test_below_line(self, fade_params):
        assert fade_params.is_hi(100.0, 0.5) is False  # 100 < 240

    def test_boundary_is_high(self, fade_params):
        assert fade_params.is_hi(240.0, 0.5) is True  # inclusive

    def test_above_line(self, fade_params):
        assert fade_params.is_hi(200.0, 0.1) is True  # 200 >= 48

    def test_array_matches_scalar_rule(self, fade_params):
        """Every cell of an array call, the boundary cells among them, gets
        the scalar call's branch."""
        rng = np.random.default_rng(7)
        soc = np.concatenate([rng.uniform(0.0, 1.0, 40), [0.5, 0.1, 0.0, 0.25]])
        current = np.concatenate([rng.uniform(0.0, 480.0, 40), [240.0, 48.0, 0.0, 120.0]])
        grid = fade_params.is_hi(current[:, None], soc[None, :])
        assert grid.shape == (44, 44) and grid.any() and not grid.all()
        assert grid.tolist() == [[fade_params.is_hi(float(c), float(s)) for s in soc]
                                 for c in current]


class TestCyclicFadeApprox:
    def test_zero_current_forced_zero(self, fade_params):
        assert cyclic_fade_approx(0.3, 0.0, 0.5, 210.0, fade_params)[0] == 0.0

    def test_low_branch_frozen(self, fade_params):
        got, _, is_hi = cyclic_fade_approx(0.5, 100.0, 1.0 / 12.0, 210.0, fade_params)
        assert not is_hi
        assert got == pytest.approx(APPROX_LO_05_100, rel=1e-12)

    def test_high_branch_frozen(self, fade_params):
        got, _, is_hi = cyclic_fade_approx(0.1, 200.0, 1.0 / 12.0, 210.0, fade_params)
        assert is_hi
        assert got == pytest.approx(APPROX_HI_01_200, rel=1e-12)

    @given(soc=st.floats(0.0, 1.0), frac=st.floats(0.001, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_never_negative(self, soc, frac):
        params = FadeModelParams()
        current = frac * min(80.0, (1.0 - soc) * 210.0 / 0.5)
        if current <= 0:
            return
        assert cyclic_fade_approx(soc, current, 0.5, 210.0, params)[0] >= 0.0


class TestBranchCoefficients:
    def test_stack_selects_each_field_per_cell(self):
        """One stacked array (5, *shape): field f of the HI branch where the
        cell is HI, else of LO, as five separate selections give."""
        params = FadeModelParams()
        is_hi = np.random.default_rng(5).random((3, 4, 6)) < 0.5
        stack = params.branch_coefficients(is_hi)
        assert stack.shape == (5, 3, 4, 6)
        for f, got in zip(("p00", "p10", "p01", "p11", "p02"), stack):
            want = np.where(is_hi, getattr(params.branch_hi, f), getattr(params.branch_lo, f))
            assert got.tobytes() == want.tobytes()
        assert params.branch_coefficients(True).tolist() == list(
            dataclasses.astuple(params.branch_hi))

    def test_table_is_the_spelled_out_coefficients(self):
        """The table built with the params holds the HI then the LO
        coefficients; a scalar and an array branch select from it, and it
        takes no part in ``repr``, equality or hashing."""
        hi = [4.169e-6, -9.871e-5, 1.63e-6, 2.661e-6, -5.757e-9]
        lo = [6.886e-6, -1.075e-5, 1.361e-6, 6.348e-7, -1.902e-10]
        params = FadeModelParams()
        assert params.branch_table.tolist() == [hi, lo]
        assert params.branch_coefficients(True).tolist() == hi
        assert params.branch_coefficients(np.bool_(False)).tolist() == lo
        is_hi = np.array([True, False, False, True])
        assert params.branch_coefficients(is_hi).tolist() == [[h, l, l, h]
                                                              for h, l in zip(hi, lo)]
        swapped = FadeModelParams(branch_hi=params.branch_lo, branch_lo=params.branch_hi)
        assert swapped.branch_table.tolist() == [lo, hi]
        other = FadeModelParams()
        assert other == params and hash(other) == hash(params)
        assert swapped != params and "branch_table" not in repr(params)


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
        with pytest.raises(InvalidSlotError):
            calendric_fade_approx(np.array([0.5, -0.1]), fade_params)

    def test_array_equals_scalar(self, fade_params):
        soc_avg = np.linspace(0.0, 1.0, 11)
        assert calendric_fade_approx(soc_avg, fade_params).tolist() == [
            calendric_fade_approx(a, fade_params) for a in soc_avg.tolist()]

    def test_affine_form_is_unchecked(self, fade_params):
        """``FadeModelParams.calendric`` is the affine form the kernel checks
        and returns; it takes an average SoC outside [0, 1] as it is."""
        soc_avg = np.array([0.0, 0.37, 1.0])
        assert fade_params.calendric(soc_avg).tobytes() == \
            calendric_fade_approx(soc_avg, fade_params).tobytes()
        assert fade_params.calendric(1.2) == fade_params.p1 * 1.2 + fade_params.p2

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
        cyclic, soc_avg, _ = cyclic_fade_approx(soc, current, 0.5, 210.0, params)
        assert calendric_fade_approx(soc_avg, params) > 0.0
        assert cyclic >= 0.0


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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(i_max=0.0), "grid current limit"),
        (dict(i_max=-5.0), "grid current limit"),
        (dict(i_max=float("nan")), "grid current limit"),
        (dict(i_max=float("inf")), "grid current limit"),
        (dict(n=-1), "grid size"),
    ])
    def test_bad_grid_rejected(self, fade_params, kwargs, message):
        with pytest.raises(ValueError, match=message):
            fade_fit_report(fade_params, **kwargs)

    def test_zero_current_agreement(self, fade_params):
        assert cyclic_fade_exact(0.7, 0.0, 0.5, 210.0, fade_params) == 0.0
        assert cyclic_fade_approx(0.7, 0.0, 0.5, 210.0, fade_params)[0] == 0.0


class TestParamsValidation:
    @pytest.mark.parametrize("kwargs", [dict(branch_slope=0.0)])
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FadeModelParams(**kwargs)

    def test_table_defaults(self, fade_params):
        assert fade_params.branch_slope == 480.0
        assert fade_params.p1 == 0.0001347
        assert fade_params.p2 == 0.00005356
        assert fade_params.branch_lo.p00 == 6.886e-6
        assert fade_params.branch_hi.p02 == -5.757e-9
