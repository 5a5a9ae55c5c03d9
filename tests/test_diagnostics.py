import math

import numpy as np
import pytest
import scipy.fft

from fkdvlab import (ConfigurationError, DomainError, Field, InitialCondition,
                     decay_fit, invariants, l2_norm, make_grid, moment_first,
                     spectral_jump, weighted_norm)
from fkdvlab.diagnostics import make_record, outer_region, tail_fraction
from fkdvlab.solver import _Stepper
from fkdvlab.spectral import (apply_multiplier, derivative_symbol, frac_deriv,
                              hilbert_symbol, weight_profile)


def line_grid(n=4096, L=200.0):
    return make_grid(n, L)


class TestInvariants:
    def test_single_mode_energy(self):
        # alpha = 1: D^(1/2) cos(2x) = sqrt(2) cos(2x); cube integrates to 0
        g = make_grid(256, 2 * np.pi)
        f = Field(g, np.cos(2 * g.x))
        i1, i2, i3, _ = invariants(f, 1.0)
        assert i3 == pytest.approx(2 * np.pi, rel=1e-12)

    def test_odd_field_mean(self):
        g = line_grid()
        f = Field(g, g.x * np.exp(-g.x ** 2))
        i1, _, _, _ = invariants(f, 0.5)
        assert abs(i1) <= 1e-12 * l2_norm(f)

    def test_gaussian_mass(self):
        g = line_grid()
        f = Field(g, np.exp(-g.x ** 2))
        i1, _, _, _ = invariants(f, 0.5)
        assert i1 == pytest.approx(np.sqrt(np.pi), abs=1e-10)

    def test_i3_absent_for_negative_alpha_with_mean(self):
        g = line_grid()
        f = Field(g, np.exp(-g.x ** 2))
        _, _, i3, reason = invariants(f, -0.5)
        assert i3 is None
        assert "zero mean" in reason

    def test_i2_equals_squared_l2_norm(self):
        g = line_grid(1024, 100.0)
        f = InitialCondition("random_band", (2, 0.5, 4.0, 1.0)).build(g)
        i2 = invariants(f, 0.5)[1]
        assert i2 == pytest.approx(l2_norm(f) ** 2, rel=1e-12)


class TestMoment:
    def test_gaussian_derivative_moment(self):
        g = line_grid()
        f = Field(g, g.x * np.exp(-g.x ** 2))
        assert moment_first(f) == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-10)

    def test_even_field(self):
        g = line_grid()
        f = Field(g, np.exp(-g.x ** 2))
        assert abs(moment_first(f)) <= 1e-12 * l2_norm(f)

    def test_scaled_odd_gaussian(self):
        g = line_grid()
        f = Field(g, -4 * g.x * np.exp(-g.x ** 2))
        assert moment_first(f) == pytest.approx(-2 * np.sqrt(np.pi), abs=1e-10)


class TestWeightedNorm:
    def test_order_zero_is_l2(self):
        g = line_grid(1024, 100.0)
        f = InitialCondition("random_band", (11, 0.5, 4.0, 1.3)).build(g)
        assert weighted_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-14)

    def test_gaussian_first_order(self):
        # integral (1+x^2) e^(-2x^2) = sqrt(pi/2) * 5/4
        g = line_grid()
        f = Field(g, np.exp(-g.x ** 2))
        expect = math.sqrt(math.sqrt(math.pi / 2) * 1.25)
        assert weighted_norm(f, 1.0) == pytest.approx(expect, rel=1e-10)

    def test_truncated_increases_to_exact(self):
        g = line_grid()
        f = Field(g, np.exp(-g.x ** 2))
        exact = weighted_norm(f, 1.0)
        ws = [weight_profile(np.abs(g.x), n_w, 1.0) for n_w in (4.0, 8.0, 16.0)]
        vals = [math.sqrt(np.sum((w * f.samples) ** 2) * g.dx) for w in ws]
        assert vals == sorted(vals)
        assert vals[-1] <= exact
        assert vals[-1] == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_monotone_in_order(self, seed):
        g = line_grid(1024, 100.0)
        f = InitialCondition("random_band", (seed, 0.5, 4.0, 1.0)).build(g)
        rs = (0.0, 0.5, 1.0, 1.5, 2.0)
        vals = [weighted_norm(f, r) for r in rs]
        assert vals == sorted(vals)

    @pytest.mark.parametrize("r", [-1.0, math.nan, math.inf])
    def test_order_outside_zero_to_inf_rejected(self, r):
        g = line_grid(1024, 100.0)
        with pytest.raises(ConfigurationError, match="weight order"):
            weighted_norm(Field(g, np.exp(-g.x ** 2)), r)


class TestDecayFit:
    @pytest.mark.parametrize("p_true", [1.0, 1.5, 2.0, 2.5])
    def test_recovers_power_law(self, p_true):
        g = line_grid(8192, 400.0)
        f = Field(g, (1.0 + g.x ** 2) ** (-p_true / 2.0))
        fit = decay_fit(f, (20.0, 120.0))
        assert fit.accepted
        assert fit.fitted_p == pytest.approx(p_true, rel=0.01)

    def test_gaussian_flagged_superalgebraic(self):
        g = line_grid()
        f = Field(g, np.exp(-g.x ** 2))
        fit = decay_fit(f, (5.0, 20.0))
        assert fit.superalgebraic
        assert math.isinf(fit.fitted_p)

    def test_exponential_tail_flagged_superalgebraic(self):
        # the tail mass stays positive, so the fit runs and hits its p >= 14 edge
        g = line_grid()
        fit = decay_fit(Field(g, np.exp(-np.abs(g.x))), (10.0, 40.0))
        assert fit.superalgebraic
        assert not fit.accepted
        assert math.isinf(fit.fitted_p)

    def test_constant_frequency_linear_tail(self):
        # closed-form free solution cos(t) u0 - sin(t) H u0 has a 1/x tail
        g = make_grid(16384, 1600.0)
        u0 = Field(g, np.exp(-g.x ** 2))
        t = 1.0
        hu0 = apply_multiplier(u0, hilbert_symbol())
        u = Field(g, math.cos(t) * u0.samples - math.sin(t) * hu0.samples)
        fit = decay_fit(u, (0.015 * g.length, 0.035 * g.length))
        assert fit.accepted
        assert fit.fitted_p == pytest.approx(1.0, abs=0.05)

    def test_window_validation(self):
        g = line_grid()
        f = Field(g, np.exp(-g.x ** 2))
        with pytest.raises(Exception):
            decay_fit(f, (50.0, 90.0))   # beyond 0.35 L


class TestSpectralJump:
    def test_moment_from_jump(self):
        # smooth transform: i * m_plus recovers the first moment as L grows
        vals = []
        for n, L in ((4096, 200.0), (8192, 400.0)):
            g = make_grid(n, L)
            f = Field(g, g.x * np.exp(-g.x ** 2))
            m_plus = spectral_jump(f)
            vals.append((1j * m_plus).real)
        target = np.sqrt(np.pi) / 2
        assert vals[0] == pytest.approx(target, rel=1e-3)
        assert abs(vals[1] - target) < abs(vals[0] - target)

    def test_conjugate_antisymmetry(self):
        # real fields give m_minus = -conj(m_plus); the quotient at 0- is
        # minus the one at 0+ of the reflected field u(-x)
        g = line_grid()
        for fam, params in (("odd_gaussian", (1.0, 1.0)),
                            ("sine_packet", (1.0, 2.0, 3.0)),
                            ("gaussian", (1.0, 1.0, 2.0))):
            f = InitialCondition(fam, params, True).build(g)
            reflected = Field(g, f.samples[(-np.arange(g.n)) % g.n])
            m_minus = -spectral_jump(reflected)
            assert m_minus == pytest.approx(-np.conj(spectral_jump(f)), rel=1e-12)

    def test_requires_zero_mean(self):
        g = line_grid()
        f = Field(g, np.exp(-g.x ** 2))
        with pytest.raises(DomainError, match="jump estimator needs zero mean"):
            spectral_jump(f)

    def test_three_point_matches_derivative(self):
        # mean-free data with a curved transform near 0: the 3-point quotient
        # meets the exact derivative -i sqrt(pi)/2 to O(k1^2), so doubling
        # the box (halving k1) cuts its error about fourfold
        errs = []
        for n, L in ((4096, 200.0), (8192, 400.0)):
            g = make_grid(n, L)
            u = g.x * np.exp(-g.x ** 2) + (4 * g.x ** 2 - 2) * np.exp(-g.x ** 2)
            target = -1j * np.sqrt(np.pi) / 2    # the second term carries no moment
            errs.append(abs(spectral_jump(Field(g, u)) - target) / abs(target))
            assert errs[-1] <= g.k[1] ** 2
        assert errs[0] / errs[1] >= 3.5


class TestRecord:
    def test_unread_columns_are_not_computed(self):
        g = line_grid(1024, 100.0)
        f = InitialCondition("odd_gaussian", (-1.0, 1.0)).build(g)
        full = make_record(f, 0.3, 0.5, weight_orders=(1.0,))
        lean = make_record(f, 0.3, 0.5, weight_orders=(1.0,), columns=("moment_x",))
        assert (lean.t, lean.moment_x, lean.tail_frac) == \
            (full.t, full.moment_x, full.tail_frac)
        assert all(math.isnan(getattr(lean, name))
                   for name in ("i1", "i2", "max_u", "min_ux"))
        assert lean.i3 is None and "not read" in lean.i3_reason
        assert lean.wnorms == {}

    @pytest.mark.parametrize("columns", [("moment",), ("min_u", "moment_x")])
    def test_unknown_column_rejected(self, columns):
        g = line_grid(256, 50.0)
        f = InitialCondition("gaussian", (0.2, 1.0, 0.0)).build(g)
        with pytest.raises(ConfigurationError, match="unknown diagnostics column"):
            make_record(f, 0.0, 0.5, columns=columns)

    def test_outer_region_built_once_per_grid(self):
        g = line_grid(256, 50.0)
        mask = outer_region(g)
        assert outer_region(g) is mask and not mask.flags.writeable
        assert np.array_equal(mask, np.abs(g.x) > 0.45 * g.length)
        u = np.zeros(g.n)
        u[mask] = np.arange(mask.sum())
        shelf = u[mask] - np.mean(u[mask])
        assert tail_fraction(u, g) == np.sum(shelf ** 2) / np.sum((u - np.mean(u)) ** 2)

    def test_record_fields(self):
        g = line_grid(1024, 100.0)
        f = InitialCondition("gaussian", (0.2, 1.0, 0.0), True).build(g)
        rec = make_record(f, 0.3, 0.5, weight_orders=(1.0, 2.0))
        assert rec.t == 0.3
        assert rec.i2 > 0
        assert set(rec.wnorms) == {1.0, 2.0}
        assert rec.wnorms[1.0] <= rec.wnorms[2.0]
        assert 0.0 <= rec.tail_frac <= 1.0

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5])
    @pytest.mark.parametrize("family,params", [
        ("odd_gaussian", (1.0, 1.0)), ("gaussian", (0.5, 1.0, 0.0))])
    def test_record_from_stepper_spectrum(self, alpha, family, params):
        # the half spectrum the stepper holds gives the row computed from
        # the samples alone, and the row the spectral operators give
        g = line_grid(1024, 100.0)
        u0 = InitialCondition(family, params).build(g)
        stepper = _Stepper(g, alpha, 1e-3, True, True)
        uh = stepper.start(u0.samples)
        for _ in range(20):
            uh = stepper.step(uh)
        f = Field(g, scipy.fft.irfft(uh, g.n))
        fed = make_record(f, 0.02, alpha, spectrum=uh)
        own = make_record(f, 0.02, alpha)
        for name in ("i1", "i2", "moment_x", "max_u", "tail_frac"):
            assert getattr(fed, name) == getattr(own, name)
        assert fed.min_ux == pytest.approx(own.min_ux, rel=1e-12)
        ux = apply_multiplier(f, derivative_symbol()).samples
        assert fed.min_ux == pytest.approx(float(np.min(ux)), rel=1e-12)
        if alpha < 0 and family == "gaussian":
            with pytest.raises(DomainError) as exc:
                frac_deriv(f, alpha / 2.0)
            assert fed.i3 is None and own.i3 is None
            assert fed.i3_reason == own.i3_reason == str(exc.value)
        else:
            i3 = (np.sum(frac_deriv(f, alpha / 2.0).samples ** 2) * g.dx
                  - np.sum(f.samples ** 3) * g.dx / 3.0)
            assert fed.i3 == pytest.approx(own.i3, rel=1e-12)
            assert fed.i3 == pytest.approx(i3, rel=1e-12)
