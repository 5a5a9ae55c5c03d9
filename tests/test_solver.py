import math

import numpy as np
import pytest
import scipy.fft

from fkdvlab import (ConfigurationError, DomainError, Field, InitialCondition,
                     NumericError, SimConfig, StepError, l2_norm, linear_propagator,
                     make_grid, picard_oracle, solve)
from fkdvlab.errors import OracleDivergenceError
from fkdvlab.solver import _random_band, _Stepper, cfl_bound


def small_cfg(**kw):
    base = dict(alpha=0.5, dt=1e-3, t_final=0.1, n=1024, length=100.0,
                diag_every=20)
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_alpha_zero_rejected(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            small_cfg(alpha=0.0)

    def test_alpha_range(self):
        with pytest.raises(ConfigurationError):
            small_cfg(alpha=1.5)
        small_cfg(alpha=1.5, extended=True)   # allowed behind the flag
        with pytest.raises(ConfigurationError):
            small_cfg(alpha=-1.2)

    def test_positive_steps(self):
        with pytest.raises(ConfigurationError):
            small_cfg(dt=-1.0)
        with pytest.raises(ConfigurationError):
            small_cfg(t_final=0.0)

    @pytest.mark.parametrize("key", ["dt", "t_final", "length"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            small_cfg(**{key: value})

    def test_nan_tail_tol_rejected(self):
        # every tail_frac > nan is false, so the guard would be silently off
        with pytest.raises(ConfigurationError, match="tail_tol"):
            small_cfg(tail_tol=math.nan)
        small_cfg(tail_tol=math.inf)            # an explicit "never truncate"

    def test_negative_store_every_rejected(self):
        with pytest.raises(ConfigurationError, match="store_every"):
            small_cfg(store_every=-3)
        small_cfg(store_every=0)                # endpoints only


class TestInitialConditions:
    def test_gaussian(self):
        g = make_grid(512, 50.0)
        u = InitialCondition("gaussian", (2.0, 1.5, 3.0)).build(g)
        assert np.allclose(u.samples, 2.0 * np.exp(-((g.x - 3.0) / 1.5) ** 2))

    def test_zero_mean_projection(self):
        g = make_grid(512, 50.0)
        u = InitialCondition("gaussian", (1.0, 1.0, 0.0), True).build(g)
        assert abs(np.sum(u.samples)) <= 1e-13

    def test_random_band_deterministic(self):
        g = make_grid(512, 50.0)
        ic = InitialCondition("random_band", (42, 0.5, 4.0, 1.0))
        a, b = ic.build(g), ic.build(g)
        assert np.array_equal(a.samples, b.samples)
        assert l2_norm(a) == pytest.approx(1.0, rel=1e-12)

    def test_random_band_spectrum_confined(self):
        g = make_grid(512, 50.0)
        u = InitialCondition("random_band", (7, 1.0, 3.0, 1.0)).build(g)
        uh = np.fft.fft(u.samples)
        outside = (np.abs(g.k) < 1.0) | (np.abs(g.k) > 3.0)
        assert np.max(np.abs(uh[outside])) <= 1e-12 * np.max(np.abs(uh))

    def test_random_band_batch_rows_equal_single_builds(self):
        g = make_grid(512, 50.0)

        def one_seed(seed):
            # reference: one rng, one irfft and one norm per field
            rng = np.random.default_rng(seed)
            k = g.k[: g.n // 2 + 1]
            idx = np.nonzero((k >= 0.5) & (k <= 4.0) & (k > 0))[0]
            coeff = np.zeros(k.size, dtype=complex)
            coeff[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
            u = scipy.fft.irfft(coeff, g.n)
            return u * (1.3 / np.sqrt(np.sum(u ** 2) * g.dx))

        seeds = [3, 4, 11, 1000]
        batch = _random_band(g, seeds, 0.5, 4.0, 1.3)
        assert batch.shape == (len(seeds), g.n)
        for row, seed in zip(batch, seeds):
            built = InitialCondition("random_band", (seed, 0.5, 4.0, 1.3)).build(g)
            assert np.array_equal(row, one_seed(seed))
            assert np.array_equal(row, built.samples)

    def test_random_band_without_grid_modes_rejected(self):
        g = make_grid(512, 50.0)
        with pytest.raises(ConfigurationError, match="no grid modes"):
            _random_band(g, [1, 2], 100.0, 200.0, 1.0)

    def test_unknown_family(self):
        g = make_grid(512, 50.0)
        with pytest.raises(ConfigurationError, match="family"):
            InitialCondition("bump", (1.0,)).build(g)

    @pytest.mark.parametrize("family,params", [
        ("gaussian", (1.0, 2.0)), ("odd_gaussian", (1.0,)),
        ("random_band", (1, 0.5, 4.0)), ("file", ())])
    def test_wrong_arity_rejected(self, family, params):
        with pytest.raises(ConfigurationError, match="parameter"):
            InitialCondition(family, params)


class TestLinearPropagator:
    def test_zero_time_is_identity(self):
        g = make_grid(512, 50.0)
        f = InitialCondition("random_band", (1, 0.5, 4.0, 1.0)).build(g)
        out = linear_propagator(f, 0.0, 0.5)
        assert np.max(np.abs(out.samples - f.samples)) <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_constant_frequency_phase_shift(self, k):
        # alpha = -1 advances every mode by the same unit frequency
        g = make_grid(256, 2 * np.pi)
        f = Field(g, np.sin(k * g.x))
        t = 0.7
        out = linear_propagator(f, t, -1.0)
        assert np.allclose(out.samples, np.sin(k * g.x + t), atol=1e-12)

    def test_norm_preserved(self):
        g = make_grid(1024, 100.0)
        f = InitialCondition("gaussian", (0.5, 1.0, 0.0)).build(g)
        out = linear_propagator(f, 1.3, 0.5)
        assert l2_norm(out) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_unitary_below_nyquist(self):
        # the band stops well short of the Nyquist wavenumber pi n / L ~ 10
        g = make_grid(64, 20.0)
        f = InitialCondition("random_band", (3, 0.5, 4.0, 1.0)).build(g)
        out = linear_propagator(f, 0.3, 0.5)
        assert l2_norm(out) == pytest.approx(l2_norm(f), rel=1e-13)

    def test_nyquist_mode_scaled_by_cosine(self):
        # the unpaired mode keeps the real part of exp(i t k|k|^alpha)
        g = make_grid(64, 20.0)
        t, alpha = 0.3, 0.5
        f = Field(g, np.cos(np.pi * np.arange(g.n)))
        k_nyq = abs(g.k[g.nyquist_index])
        scale = math.cos(t * k_nyq ** (1.0 + alpha))
        out = linear_propagator(f, t, alpha)
        assert np.allclose(out.samples, scale * f.samples, rtol=0, atol=1e-13)
        assert l2_norm(out) / l2_norm(f) == pytest.approx(0.9905, abs=5e-5)

    def test_group_property(self):
        g = make_grid(1024, 100.0)
        f = InitialCondition("gaussian", (0.5, 1.0, 0.0)).build(g)
        a = linear_propagator(linear_propagator(f, 0.4, -0.5), 0.6, -0.5)
        b = linear_propagator(f, 1.0, -0.5)
        assert np.allclose(a.samples, b.samples, atol=1e-13)

    def test_time_reversibility(self):
        g = make_grid(1024, 100.0)
        f = InitialCondition("gaussian", (0.5, 1.0, 0.0)).build(g)
        out = linear_propagator(linear_propagator(f, 2.0, 0.5), -2.0, 0.5)
        assert np.max(np.abs(out.samples - f.samples)) <= 1e-12


def nonlinear_samples(f, dealias=True):
    """-1/2 d/dx (u^2) as the stepper evaluates it, back on the grid."""
    st = _Stepper(f.grid, 0.5, 1e-3, dealias, nonlinear=True)
    return scipy.fft.irfft(st.nhat(scipy.fft.rfft(f.samples)), f.grid.n)


def one_step(f, cfg):
    st = _Stepper(f.grid, cfg.alpha, cfg.dt, cfg.dealias, cfg.nonlinear)
    return scipy.fft.irfft(st.step(scipy.fft.rfft(f.samples)), f.grid.n)


class TestNonlinearTerm:
    def test_zero_field(self):
        g = make_grid(256, 2 * np.pi)
        out = nonlinear_samples(Field(g, np.zeros(g.n)))
        assert np.all(out == 0.0)

    def test_single_mode_closed_form(self):
        # -1/2 d/dx sin^2 = -sin cos = -sin(2x)/2
        g = make_grid(256, 2 * np.pi)
        out = nonlinear_samples(Field(g, np.sin(g.x)))
        assert np.allclose(out, -0.5 * np.sin(2 * g.x), atol=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_orthogonality(self, seed):
        g = make_grid(1024, 100.0)
        f = InitialCondition("random_band", (seed, 0.5, 6.0, 2.0)).build(g)
        n = nonlinear_samples(f, dealias=True)
        val = np.sum(f.samples * n) * g.dx
        assert abs(val) <= 1e-12 * l2_norm(f) ** 3

    def test_mean_conserved(self):
        g = make_grid(1024, 100.0)
        f = InitialCondition("gaussian", (1.0, 2.0, 0.0)).build(g)
        n = nonlinear_samples(f)
        assert abs(np.sum(n)) <= 1e-14


class TestStepper:
    def test_linear_only_matches_propagator(self):
        cfg = small_cfg(nonlinear=False)
        g = cfg.grid()
        f = InitialCondition("gaussian", (0.3, 1.0, 0.0)).build(g)
        a = one_step(f, cfg)
        b = linear_propagator(f, cfg.dt, cfg.alpha)
        assert np.max(np.abs(a - b.samples)) <= 1e-15

    def test_zero_field(self):
        cfg = small_cfg()
        g = cfg.grid()
        out = one_step(Field(g, np.zeros(g.n)), cfg)
        assert np.all(out == 0.0)

    def test_cfl_violation_carries_suggestion(self):
        cfg = small_cfg(dt=0.5, t_final=0.5)
        g = cfg.grid()
        f = InitialCondition("gaussian", (5.0, 1.0, 0.0)).build(g)
        with pytest.raises(StepError) as exc:
            solve(cfg, grid=g, u0=f)
        assert exc.value.suggested_dt is not None
        u_max = float(np.max(np.abs(f.samples)))
        assert exc.value.suggested_dt == pytest.approx(cfl_bound(u_max, g.dx))

    def test_richardson_order_four(self):
        # self-convergence against a dt/8 reference
        cfg = small_cfg(alpha=0.5, n=4096, length=200.0, t_final=0.5,
                        ic=InitialCondition("gaussian", (0.1, 1.0, 0.0), True))
        g = cfg.grid()
        u0 = cfg.ic.build(g)
        from dataclasses import replace
        ref = solve(replace(cfg, dt=0.0025), grid=g, u0=u0).final
        errs = []
        for dt in (0.02, 0.01):
            tr = solve(replace(cfg, dt=dt), grid=g, u0=u0)
            errs.append(np.linalg.norm(tr.final.samples - ref.samples)
                        / np.linalg.norm(ref.samples))
        order = np.log2(errs[0] / errs[1])
        assert order == pytest.approx(4.0, abs=0.2)


def reference_ifrk4(u0, grid, alpha, dt, steps, dealias, nonlinear):
    """Integrating-factor RK4 on the complex full spectrum with the 2/3
    mask applied around the square: an independent reference for the
    half-spectrum stepper."""
    k = grid.k
    gen = np.zeros(grid.n, dtype=complex)
    nz = k != 0
    gen[nz] = 1j * k[nz] * np.abs(k[nz]) ** alpha
    E, E2 = np.exp(0.5 * dt * gen), np.exp(dt * gen)
    ny = grid.n // 2
    E[ny], E2[ny] = E[ny].real, E2[ny].real
    m = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    mask = (np.abs(m) <= grid.n // 3).astype(float) if dealias else np.ones(grid.n)

    def nhat(vh):
        if not nonlinear:
            return np.zeros_like(vh)
        v = np.fft.ifft(mask * vh).real
        return -0.5j * k * mask * np.fft.fft(v * v)

    uh = np.fft.fft(u0).astype(complex)
    for _ in range(steps):
        k1 = nhat(uh)
        k2 = nhat(E * (uh + 0.5 * dt * k1))
        k3 = nhat(E * uh + 0.5 * dt * k2)
        k4 = nhat(E2 * uh + dt * E * k3)
        uh = E2 * uh + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)
    return np.fft.ifft(uh).real


class TestHalfSpectrumStepper:
    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5])
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_matches_complex_reference(self, alpha, dealias, nonlinear):
        cfg = small_cfg(alpha=alpha, n=512, length=50.0, dt=1e-3, t_final=0.1,
                        diag_every=100, dealias=dealias, nonlinear=nonlinear,
                        tail_tol=1.0,
                        ic=InitialCondition("random_band", (5, 0.5, 6.0, 1.0)))
        g = cfg.grid()
        u0 = cfg.ic.build(g)
        out = solve(cfg, grid=g, u0=u0).final.samples
        ref = reference_ifrk4(u0.samples, g, alpha, cfg.dt, 100, dealias, nonlinear)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSolve:
    def test_zero_data(self):
        cfg = small_cfg(ic=InitialCondition("gaussian", (0.0, 1.0, 0.0)))
        traj = solve(cfg)
        assert all(r.i1 == 0.0 and r.i2 == 0.0 for r in traj.diagnostics)
        assert np.all(traj.final.samples == 0.0)

    def test_l2_conservation(self):
        cfg = small_cfg(alpha=0.5, t_final=0.5,
                        ic=InitialCondition("gaussian", (0.2, 1.0, 0.0), True))
        traj = solve(cfg)
        i2 = [r.i2 for r in traj.diagnostics]
        assert abs(i2[-1] - i2[0]) / i2[0] <= 1e-8

    def test_mean_conserved_exactly(self):
        cfg = small_cfg(alpha=-0.5, t_final=0.2,
                        ic=InitialCondition("odd_gaussian", (1.0, 1.0)))
        traj = solve(cfg)
        assert all(abs(r.i1) <= 1e-13 for r in traj.diagnostics)

    def test_deterministic_rerun(self):
        cfg = small_cfg(tail_tol=1.0,
                        ic=InitialCondition("random_band", (3, 0.5, 4.0, 0.5)))
        a = solve(cfg)
        b = solve(cfg)
        assert np.array_equal(a.final.samples, b.final.samples)
        assert [r.i2 for r in a.diagnostics] == [r.i2 for r in b.diagnostics]

    def test_linear_path_independent_of_diag_cadence(self):
        cfg = small_cfg(nonlinear=False,
                        ic=InitialCondition("gaussian", (0.3, 1.0, 0.0)))
        from dataclasses import replace
        a = solve(replace(cfg, diag_every=5))
        b = solve(replace(cfg, diag_every=50))
        assert np.array_equal(a.final.samples, b.final.samples)

    def test_linear_solve_matches_propagator(self):
        cfg = small_cfg(nonlinear=False, t_final=0.5,
                        ic=InitialCondition("gaussian", (0.3, 1.0, 0.0)))
        g = cfg.grid()
        u0 = cfg.ic.build(g)
        traj = solve(cfg, grid=g, u0=u0)
        direct = linear_propagator(u0, 0.5, cfg.alpha)
        rel = np.linalg.norm(traj.final.samples - direct.samples) / l2_norm(direct)
        assert rel <= 1e-11

    def test_initial_tail_contamination_rejected(self):
        cfg = small_cfg(ic=InitialCondition("gaussian", (0.5, 1.0, 48.0)))
        with pytest.raises(DomainError, match="tail"):
            solve(cfg)

    def test_truncation_flag_on_tail_growth(self):
        cfg = small_cfg(alpha=-0.5, t_final=2.0, tail_tol=1e-14, diag_every=10,
                        ic=InitialCondition("odd_gaussian", (0.5, 1.0)))
        traj = solve(cfg)
        assert traj.truncated
        assert "tail" in traj.truncation_reason
        assert traj.times[-1] < 2.0

    def test_t_final_off_the_step_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="not a multiple of dt"):
            solve(small_cfg(t_final=0.0105))

    def test_non_finite_state_names_last_good_time(self, monkeypatch):
        step, calls = _Stepper.step, []

        def nan_on_third(self, uh):
            calls.append(1)
            out = step(self, uh)
            return out * np.nan if len(calls) == 3 else out
        monkeypatch.setattr(_Stepper, "step", nan_on_third)
        with pytest.raises(NumericError, match=r"at t = 0\.003; last good t = 0\.002$"):
            solve(small_cfg())


class TestPicardOracle:
    def test_zero_iterations_is_linear(self):
        cfg = small_cfg()
        g = cfg.grid()
        u0 = InitialCondition("gaussian", (0.1, 1.0, 0.0)).build(g)
        a = picard_oracle(u0, cfg, 0.05, iterations=0)
        b = linear_propagator(u0, 0.05, cfg.alpha)
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-13

    def test_linear_config_is_free_evolution(self):
        cfg = small_cfg(n=256, length=50.0, dt=0.02, nonlinear=False)
        g = cfg.grid()
        u0 = InitialCondition("gaussian", (0.1, 1.0, 0.0)).build(g)
        pic = picard_oracle(u0, cfg, 0.1, iterations=6)
        ref = linear_propagator(u0, 0.1, cfg.alpha)
        assert (np.max(np.abs(pic.samples - ref.samples))
                <= 1e-13 * np.max(np.abs(ref.samples)))

    def test_zero_data(self):
        cfg = small_cfg()
        g = cfg.grid()
        out = picard_oracle(Field(g, np.zeros(g.n)), cfg, 0.05, iterations=4)
        assert np.all(out.samples == 0.0)

    def test_agrees_with_stepper(self):
        cfg = small_cfg(alpha=0.5, n=4096, length=200.0, dt=1e-3)
        g = cfg.grid()
        u0 = InitialCondition("gaussian", (0.1, 1.0, 0.0)).build(g)
        from dataclasses import replace
        pic = picard_oracle(u0, cfg, 0.05, iterations=6)
        tr = solve(replace(cfg, t_final=0.05), grid=g, u0=u0)
        rel = np.linalg.norm(pic.samples - tr.final.samples) / l2_norm(tr.final)
        assert rel <= 1e-6

    def test_divergence_detected(self):
        cfg = small_cfg(alpha=-0.9, dt=1e-3)
        g = cfg.grid()
        u0 = InitialCondition("odd_gaussian", (40.0, 1.0)).build(g)
        with pytest.raises(OracleDivergenceError):
            picard_oracle(u0, cfg, 3.0, iterations=12, n_quad=16)
