import math

import numpy as np
import pytest

from fkdvlab import (ConfigurationError, DomainError, InitialCondition,
                     MetricEntry, SimConfig, make_grid, run_convergence,
                     run_decay_threshold, run_moment_law, run_symmetry_checks,
                     run_tstar, run_two_time_bh, run_wave_breaking, solve)
from fkdvlab.experiments import _scaled_ic
from fkdvlab.solver import _cumulative_simpson


def cfg_for(alpha, **kw):
    base = dict(alpha=alpha, dt=1e-3, t_final=1.0, n=4096, length=200.0,
                diag_every=100)
    base.update(kw)
    return SimConfig(**base)


class TestMetricEntry:
    def test_abs_mode(self):
        assert MetricEntry(1.0, 1.05, 0.1).passed
        assert not MetricEntry(1.0, 1.2, 0.1).passed

    def test_one_sided_modes(self):
        assert MetricEntry(0.5, 1.0, 0.0, mode="le").passed
        assert not MetricEntry(1.5, 1.0, 0.0, mode="le").passed

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            MetricEntry(0.0, 0.0, 0.0, mode="huh")


class TestMomentLaw:
    def test_rejects_constant_frequency_case(self):
        cfg = cfg_for(-1.0, ic=InitialCondition("odd_gaussian", (1.0, 1.0)))
        with pytest.raises(DomainError, match="alpha"):
            run_moment_law(cfg)

    def test_rejects_nonzero_mean(self):
        cfg = cfg_for(0.5, ic=InitialCondition("gaussian", (0.5, 1.0, 0.0)))
        with pytest.raises(DomainError, match="moment law needs zero mean"):
            run_moment_law(cfg)

    def test_zero_data_trivially_exact(self):
        cfg = cfg_for(0.5, t_final=0.2,
                      ic=InitialCondition("gaussian", (0.0, 1.0, 0.0)))
        rep = run_moment_law(cfg)
        assert rep.metrics["moment_max_deviation"].measured == 0.0
        assert rep.metrics["dispersive_mean"].measured == 0.0

    def test_slope_matches_production_law(self):
        # the box moment follows the affine law up to tail flux; the
        # fitted slope is far more robust than pointwise deviations
        # tail_tol 1e-6 lets the solve reach t_final; at 1e-8 it stops at t = 0.4
        cfg = cfg_for(0.5, t_final=2.0, diag_every=200, tail_tol=1e-6,
                      ic=InitialCondition("odd_gaussian", (-4.0, 1.0)))
        rep = run_moment_law(cfg)
        assert not rep.truncated
        note = rep.notes[0]
        slope, predicted = [float(tok.split()[-1]) for tok in note.split(" vs ")]
        assert slope == pytest.approx(predicted, rel=1e-3)
        # pointwise deviations sit on the tail-flux floor: far above the
        # line-identity target, but small and bounded
        dev = rep.metrics["moment_max_deviation"]
        l2sq = dev.tolerance / 1e-5
        assert dev.measured <= 1e-3 * l2sq

    def test_dispersive_mean_vanishes_by_convention(self):
        cfg = cfg_for(-0.5, t_final=0.3, tail_tol=1e-6,
                      ic=InitialCondition("odd_gaussian", (1.0, 1.0)))
        rep = run_moment_law(cfg)
        assert rep.metrics["dispersive_mean"].measured <= 1e-15
        assert any("convention" in n for n in rep.notes)

    def test_truncated_solve_leaves_max_deviation_nan(self):
        # the rows up to the stop at t = 0.2 deviate by 4.8e-7, inside the
        # 3.1e-6 tolerance, though the run to t = 1 deviates by 1.1e-5
        cfg = cfg_for(0.5, n=1024, length=100.0, tail_tol=1e-15,
                      ic=InitialCondition("odd_gaussian", (-1.0, 1.0)))
        rep = run_moment_law(cfg)
        assert rep.truncated
        assert math.isnan(rep.metrics["moment_max_deviation"].measured)
        assert not rep.passed

    def test_truncated_slope_note_names_where_the_fit_stops(self):
        cfg = cfg_for(0.5, n=1024, length=100.0, tail_tol=1e-15,
                      ic=InitialCondition("odd_gaussian", (-1.0, 1.0)))
        rep = run_moment_law(cfg)
        assert rep.truncated and cfg.t_final == 1.0
        assert rep.notes[0].startswith("fitted moment slope ")
        assert rep.notes[0].endswith(
            "; the fit stops at the truncation time t = 0.2, short of t_final = 1")


class TestTStar:
    def test_reference_run(self):
        cfg = cfg_for(0.5, t_final=3.0, tail_tol=1e-6,
                      ic=InitialCondition("odd_gaussian", (-4.0, 1.0)))
        rep = run_tstar(cfg)
        zc = rep.metrics["zero_crossing"]
        # the crossing is expected at t*/2, so 2 * expected is t* exactly
        assert 2 * zc.expected == pytest.approx(2 * math.sqrt(2), rel=1e-7)
        assert rep.passed
        assert rep.metrics["integral_residual"].measured <= 1e-4
        assert zc.measured == pytest.approx(math.sqrt(2), abs=1e-3)

    def test_wrong_sign_rejected(self):
        cfg = cfg_for(0.5, t_final=3.0,
                      ic=InitialCondition("odd_gaussian", (4.0, 1.0)))
        with pytest.raises(DomainError, match="positive"):
            run_tstar(cfg)

    def test_horizon_too_short(self):
        cfg = cfg_for(0.5, t_final=1.0,
                      ic=InitialCondition("odd_gaussian", (-4.0, 1.0)))
        with pytest.raises(ConfigurationError, match="horizon"):
            run_tstar(cfg)

    def test_residual_step_error_fourth_order_in_dt(self, monkeypatch):
        # the signed residual is a box-flux floor (near +2.6e-5 here) plus a
        # step error of the other sign, so its magnitude need not shrink with
        # dt; successive differences cancel the floor and leave the step error
        integrals = []

        def spy(y, h):
            out = _cumulative_simpson(y, h)
            integrals.append(out[-1])
            return out
        monkeypatch.setattr("fkdvlab.experiments._cumulative_simpson", spy)
        signed = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = cfg_for(0.5, dt=dt, t_final=3.0, tail_tol=1e-6,
                          ic=InitialCondition("odd_gaussian", (-4.0, 1.0)))
            measured = run_tstar(cfg).metrics["integral_residual"].measured
            signed.append(math.copysign(measured, integrals[-1]))
        d_coarse, d_fine = signed[0] - signed[1], signed[1] - signed[2]
        assert d_coarse / d_fine >= 16.0

    @pytest.mark.parametrize("dt", [2e-3, 5e-4])
    def test_rows_form_an_odd_simpson_grid(self, monkeypatch, dt):
        # 1,414 and 5,657 steps would give 708 and 2,830 rows at diag_every=2,
        # where scipy's simpson switches to its even-count end correction
        from scipy.integrate import simpson
        seen = []

        def spy(y, h):
            seen.append((y, h))
            return _cumulative_simpson(y, h)
        monkeypatch.setattr("fkdvlab.experiments._cumulative_simpson", spy)
        cfg = cfg_for(0.5, dt=dt, t_final=3.0, n=256, length=40.0, tail_tol=math.inf,
                      ic=InitialCondition("odd_gaussian", (-4.0, 1.0)))
        t_star = 2 * float(run_tstar(cfg).metrics["zero_crossing"].expected)
        ((y, h),) = seen
        assert y.size % 2 == 1
        assert h * (y.size - 1) == pytest.approx(t_star, rel=1e-14)
        m0 = y[0]
        assert abs(_cumulative_simpson(y, h)[-1] - simpson(y, dx=h)) \
            <= 1e-14 * abs(m0) * t_star

    def test_truncated_solve_leaves_integral_residual_nan(self):
        # the partial series would read a residual near 1 - t_end/t*,
        # small for a late truncation, though the run never reached t*
        run, kw, _ = TRUNCATING["tstar"]
        rep = run(cfg_for(**kw))
        assert rep.truncated
        assert math.isnan(rep.metrics["integral_residual"].measured)
        assert not rep.metrics["integral_residual"].passed


class TestTwoTimeBH:
    def test_requires_constant_frequency(self):
        cfg = cfg_for(0.5, ic=InitialCondition("odd_gaussian", (0.5, 1.0)))
        with pytest.raises(ConfigurationError, match="alpha"):
            run_two_time_bh(cfg, 0.5, 1.0)

    def test_linear_flow_pure_rotation(self):
        cfg = cfg_for(-1.0, n=2048, length=100.0, nonlinear=False,
                      ic=InitialCondition("odd_gaussian", (1.0, 1.0)))
        rep = run_two_time_bh(cfg, 0.5, 1.0)
        assert rep.metrics["jump_law_rel_error_t1"].measured <= 1e-6
        assert rep.metrics["jump_law_rel_error_t2"].measured <= 1e-6

    def test_full_equation_sourced_rotation(self):
        cfg = cfg_for(-1.0, ic=InitialCondition("odd_gaussian", (0.5, 1.0)))
        rep = run_two_time_bh(cfg, 0.5, 1.0)
        assert rep.metrics["jump_law_rel_error_t2"].measured <= 1e-3
        # generic data violates the two-time identity
        assert abs(rep.metrics["identity_residual_vs_prediction"].measured) > 0.01
        assert rep.metrics["identity_residual_vs_prediction"].passed

    def test_extrapolation_cancels_the_quadratic_bias(self):
        # the three-point jump's bias is O(k1^2), so the boxes combine as
        # (4 J(2L) - J(L)) / 3; the O(k1) weights 2 J(2L) - J(L) read 1.27e-4 here
        cfg = SimConfig(alpha=-1.0, n=1024, length=100.0, dt=0.01, t_final=1.0,
                        ic=InitialCondition("odd_gaussian", (0.5, 1.0)))
        rep = run_two_time_bh(cfg, 0.33, 1.0)
        assert rep.metrics["jump_law_rel_error_t2"].measured <= 1e-5

    def test_truncated_solves_leave_the_metrics_nan(self):
        # the L = 100 and L = 200 solves stop at t = 0.09 and 0.25, before t1
        run, kw, _ = TRUNCATING["two-time-bh"]
        rep = run(cfg_for(**kw))
        assert rep.truncated
        for metric in rep.metrics.values():
            assert math.isnan(metric.measured) and not metric.passed

    def test_jump_error_decreases_under_box_doubling(self):
        import numpy as np
        from fkdvlab import solve
        from fkdvlab.diagnostics import invariants, spectral_jump
        errs = []
        for scale in (1, 2):
            cfg = cfg_for(-1.0, n=2048 * scale, length=100.0 * scale,
                          tail_tol=1e-4,
                          ic=InitialCondition("odd_gaussian", (0.5, 1.0)))
            u0 = cfg.ic.build(cfg.grid())
            tr = solve(cfg, u0)
            i2 = invariants(u0, -1.0)[1]
            m0 = spectral_jump(u0)
            m_t = spectral_jump(tr.final)
            pred = np.exp(1j) * m0 - 0.5 * i2 * (np.exp(1j) - 1.0)
            errs.append(abs(m_t - pred) / abs(pred))
        assert errs[1] < errs[0]


class TestDecayThreshold:
    def test_positive_dispersion(self):
        cfg = cfg_for(0.5, ic=InitialCondition("gaussian", (1.0, 1.0, 0.0)))
        rep = run_decay_threshold(cfg, [], [100.0, 200.0])
        assert rep.metrics["tail_exponent"].measured == pytest.approx(2.5, abs=0.15)

    def test_zero_mean_lifts_threshold(self):
        cfg = cfg_for(0.5, ic=InitialCondition("odd_gaussian", (1.0, 1.0)))
        rep = run_decay_threshold(cfg, [], [200.0, 400.0])
        assert "critical_norm_convergence" in rep.metrics
        assert rep.metrics["critical_norm_convergence"].passed
        assert rep.metrics["tail_exponent"].measured == pytest.approx(3.5, abs=0.15)

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_nonlinear_flag_noted_not_applied(self, nonlinear):
        cfg = cfg_for(0.5, nonlinear=nonlinear,
                      ic=InitialCondition("gaussian", (1.0, 1.0, 0.0)))
        rep = run_decay_threshold(cfg, [], [100.0, 200.0])
        noted = [n for n in rep.notes if "not applied" in n]
        assert noted == (["nonlinear = true is not applied: decay-threshold "
                          "evolves the free (linear) flow"] if nonlinear else [])

    def test_projected_shelf_rejected(self):
        cfg = cfg_for(0.5, ic=InitialCondition("gaussian", (1.0, 1.0, 0.0), True))
        with pytest.raises(ConfigurationError, match="shelf"):
            run_decay_threshold(cfg, [], [200.0, 400.0])

    def test_needs_two_boxes(self):
        cfg = cfg_for(0.5, ic=InitialCondition("gaussian", (1.0, 1.0, 0.0)))
        with pytest.raises(ConfigurationError):
            run_decay_threshold(cfg, [], [200.0])


class TestSymmetry:
    def test_identity_scaling_is_exact(self):
        cfg = cfg_for(0.5, t_final=0.2, n=1024, length=100.0,
                      ic=InitialCondition("sine_packet", (0.1, 2.0, 4.0)))
        rep = run_symmetry_checks(cfg, 1.0)
        assert rep.metrics["scaling_residual"].measured <= 1e-10

    def test_band_concentrated_data_passes_all(self):
        cfg = cfg_for(0.5, t_final=0.5,
                      ic=InitialCondition("sine_packet", (0.1, 2.0, 4.0)))
        rep = run_symmetry_checks(cfg, 2.0)
        assert rep.passed

    def test_lambda_range(self):
        cfg = cfg_for(0.5, ic=InitialCondition("sine_packet", (0.1, 2.0, 4.0)))
        with pytest.raises(ConfigurationError, match="lambda"):
            run_symmetry_checks(cfg, 3.0)

    def test_truncated_solve_leaves_scaling_residual_nan(self):
        # the tail guard stops the original solve at t = 0.4, before the
        # time that matches the rescaled solve's horizon
        cfg = cfg_for(0.5, n=512, length=12.0, t_final=0.5, tail_tol=1e-6,
                      ic=InitialCondition("sine_packet", (0.1, 2.0, 2.0)))
        rep = run_symmetry_checks(cfg, 1.5)
        assert rep.truncated
        assert math.isnan(rep.metrics["scaling_residual"].measured)
        assert not rep.metrics["scaling_residual"].passed
        assert any(n.startswith("TRUNCATED: original solve: ") for n in rep.notes)

    def test_random_band_not_scalable(self):
        cfg = cfg_for(0.5, tail_tol=1.0,
                      ic=InitialCondition("random_band", (1, 0.5, 2.0, 0.1)))
        with pytest.raises(ConfigurationError, match="analytic"):
            run_symmetry_checks(cfg, 2.0)

    @pytest.mark.parametrize("ic,closed_form", [
        (InitialCondition("gaussian", (0.3, 1.5, 2.0)),
         lambda x: 0.3 * np.exp(-((x - 2.0) / 1.5) ** 2)),
        (InitialCondition("odd_gaussian", (-0.7, 1.2)),
         lambda x: -0.7 * x * np.exp(-((x / 1.2) ** 2))),
    ], ids=["gaussian", "odd_gaussian"])
    @pytest.mark.parametrize("lam,alpha", [(2.0, 0.5), (0.5, -0.5), (1.5, -1.0)])
    def test_scaled_ic_is_the_rescaled_field(self, ic, closed_form, lam, alpha):
        # lam^alpha u0(lam x) at the grid nodes
        g = make_grid(1024, 100.0)
        scaled = _scaled_ic(ic, lam, alpha).build(g)
        np.testing.assert_allclose(scaled.samples, lam ** alpha * closed_form(lam * g.x),
                                   rtol=1e-12, atol=1e-15)


class TestBreaking:
    def test_range_enforced(self):
        cfg = cfg_for(0.5, ic=InitialCondition("odd_gaussian", (-3.0, 1.0)))
        with pytest.raises(ConfigurationError, match="range"):
            run_wave_breaking(cfg)

    def test_steep_data_breaks_and_control_does_not(self):
        cfg = cfg_for(-1.0, dt=2e-3, t_final=3.0, diag_every=25, tail_tol=1e-5,
                      ic=InitialCondition("odd_gaussian", (-3.0, 1.0)))
        rep = run_wave_breaking(cfg)
        assert rep.metrics["onset_detected"].passed
        assert rep.metrics["onset_dt_stability"].passed
        assert rep.metrics["control_gradient_growth"].passed

    def test_small_amplitude_stays_smooth(self):
        cfg = cfg_for(-1.0, dt=2e-3, t_final=3.0, diag_every=50, tail_tol=1e-5,
                      ic=InitialCondition("odd_gaussian", (-0.02, 1.0)))
        gs = [max(-r.min_ux, 0.0) for r in solve(cfg).diagnostics]
        assert max(gs) / gs[0] <= 1.5


# campaign -> (runner, config, labels of the solves the tail guard truncates)
TRUNCATING = {
    "moment-law": (run_moment_law, dict(
        alpha=-0.5, n=1024, length=100.0, t_final=0.5, tail_tol=1e-4,
        ic=InitialCondition("odd_gaussian", (-4.0, 1.0))), {"main"}),
    "two-time-bh": (lambda cfg: run_two_time_bh(cfg, 0.33, 1.0), dict(
        alpha=-1.0, n=1024, length=100.0, dt=0.01, tail_tol=1e-12,
        ic=InitialCondition("odd_gaussian", (0.5, 1.0))), {"L=100", "L=200"}),
    "tstar": (run_tstar, dict(
        alpha=0.5, n=1024, length=100.0, t_final=3.0, tail_tol=1e-12,
        ic=InitialCondition("odd_gaussian", (-4.0, 1.0))), {"main"}),
    "breaking": (run_wave_breaking, dict(
        alpha=-1.0, dt=2e-3, t_final=3.0, diag_every=25, tail_tol=1e-5,
        ic=InitialCondition("odd_gaussian", (-3.0, 1.0))), {"dt", "dt/2"}),
    "symmetry": (lambda cfg: run_symmetry_checks(cfg, 1.5), dict(
        alpha=0.5, n=512, length=12.0, t_final=0.5, tail_tol=1e-6,
        ic=InitialCondition("sine_packet", (0.1, 2.0, 2.0))), {"original"}),
    "convergence": (run_convergence, dict(
        alpha=-0.5, n=1024, length=100.0, dt=0.01,
        ic=InitialCondition("gaussian", (0.1, 1.0, 0.0), True)),
        {"dt/8", "dt", "dt/2"}),
}


@pytest.mark.parametrize("campaign", sorted(TRUNCATING))
def test_every_truncated_solve_is_named(campaign):
    run, kw, labels = TRUNCATING[campaign]
    rep = run(cfg_for(**kw))
    named = {n.split(" solve: ")[0].removeprefix("TRUNCATED: ")
             for n in rep.notes if n.startswith("TRUNCATED: ")}
    assert rep.truncated
    assert named == labels
    for n in rep.notes:
        if n.startswith("TRUNCATED: "):
            assert "exceeded tail_tol" in n.split(" solve: ", 1)[1]
