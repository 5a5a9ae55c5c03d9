import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from fkdvlab import (ConfigurationError, DomainError, Field, InitialCondition,
                     NumericError, ProbeParams, QuadSpec, SteinRequest, SteinTarget,
                     commutator_probe, make_grid, nonmembership_scan,
                     power_cutoff, propagator_stein_bound, sign_propagator,
                     signed_power_cutoff, stein_derivative, stein_slope_fit,
                     truncated_weight, weight_target)
from fkdvlab import stein
from fkdvlab.stein import (_bessel_weighted, _probe_ratios, probe_ensemble,
                           propagator_target)


SCAN_QUAD = QuadSpec(n_panels=1024, y_max=50.0)

# values and error estimates recorded with the per-breakpoint panel construction
# that the single vectorised one replaced
PINNED = [
    (SteinRequest(0.8, _bessel_weighted(-0.7, 1.0, "propagator"),
                  np.array([1e-5, 0.5]), SCAN_QUAD),
     [551.5516003164028, 2.2225409301451386], [2.078434211724338, 0.017855549367113116]),
    (SteinRequest(0.8, _bessel_weighted(0.3, 0.0, "symbol"), np.array([1e-5, 0.5]),
                  SCAN_QUAD),
     [280.97532419059604, 0.7927806934499003], [0.12771935701458634, 0.018338608384070365]),
    (SteinRequest(0.5, power_cutoff(0.2), np.geomspace(1e-5, 1e-3, 3)),
     [22.412712446119354, 11.16343516861253, 5.480050254454523],
     [1.78827263235409e-07, 9.114343791889713e-09, 4.979480740818215e-09]),
    (SteinRequest(0.5, propagator_target(0.5, 1.0), np.array([0.5, 4.0])),
     [2.5663929796179, 4.337179496092911], [0.0010027416024837976, 0.0006313196847138816]),
    # recorded with signed_power_cutoff's own target code, before the cut-off
    # targets were made by one shared function
    (SteinRequest(0.5, signed_power_cutoff(0.2), np.array([1e-5, 0.5])),
     [69.1216487904554, 2.3063098311668715], [5.798479238968612e-08, 1.1954461280301199e-08]),
]


@pytest.mark.parametrize("req,values,errors", PINNED,
                         ids=["scan_propagator", "scan_symbol", "power_cutoff", "propagator",
                              "signed_power_cutoff"])
def test_stein_values_pinned(req, values, errors):
    res = stein_derivative(req)
    np.testing.assert_allclose(res.values, values, rtol=1e-14, atol=0)
    np.testing.assert_allclose(res.error_estimates, errors, rtol=1e-14, atol=0)


class TestSteinDerivative:
    def test_constant_target_vanishes(self):
        const = SteinTarget("const", lambda y: np.ones_like(y) + 0j,
                            tail_limits=(1.0, 1.0),
                            holder=lambda eta: (math.inf, 0.0))
        res = stein_derivative(SteinRequest(0.5, const, np.array([0.3, 1.0, 5.0])))
        assert np.max(res.values) <= 1e-12

    @pytest.mark.parametrize("b", [0.25, 0.5, 0.75])
    def test_sign_propagator_closed_form(self, b):
        # exact value 2|sin t| (2b)^(-1/2) |x|^(-b)
        for t in (0.5, np.pi / 2):
            target = sign_propagator(t)
            xs = np.array([0.5, 1.0, 2.0])
            res = stein_derivative(SteinRequest(b, target, xs))
            exact = 2 * abs(math.sin(t)) * (2 * b) ** -0.5 * xs ** -b
            assert np.max(np.abs(res.values - exact) / exact) <= 1e-3

    def test_jump_point_rejected(self):
        target = sign_propagator(1.0)
        with pytest.raises(DomainError, match="Hölder"):
            stein_derivative(SteinRequest(0.5, target, np.array([0.0])))

    def test_order_range_validated(self):
        with pytest.raises(ConfigurationError):
            SteinRequest(1.2, sign_propagator(1.0), np.array([1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="points"):
            SteinRequest(0.5, sign_propagator(1.0), np.array([1.0, bad]))

    @pytest.mark.parametrize("b,target", [
        (0.5, power_cutoff(0.5)),               # gamma = beta = b: S_b diverges at 0
        (0.6, propagator_target(-0.5, 1.0)),    # gamma = 1 + alpha = 0.5 < b
    ], ids=["power_at_b", "propagator_below_b"])
    def test_infinite_inner_bound_gives_infinite_error(self, b, target):
        res = stein_derivative(SteinRequest(b, target, np.array([0.0, 1.0])))
        assert np.all(np.isfinite(res.values))
        assert res.error_estimates[0] == math.inf
        assert 0 < res.error_estimates[1] < math.inf

    def test_target_without_holder_pair_gives_infinite_error(self):
        bare = SteinTarget("bare", power_cutoff(0.6).func, breakpoints=(0.0,),
                           tail_limits=(0.0, 0.0))
        res = stein_derivative(SteinRequest(0.3, bare, np.array([0.5])))
        assert res.error_estimates[0] == math.inf

    def test_target_without_tail_model_gives_infinite_error(self):
        # neither tail_limits nor oscillatory_tail: the tail beyond y_max is unbounded
        base = power_cutoff(0.6)
        no_tail = SteinTarget("no_tail", base.func, breakpoints=base.breakpoints,
                              holder=base.holder)
        res = stein_derivative(SteinRequest(0.3, no_tail, np.array([0.5, 3.0])))
        assert np.all(np.isfinite(res.values)) and np.all(res.values > 0)
        assert np.all(res.error_estimates == math.inf)

    @pytest.mark.parametrize("target", [
        propagator_target(-0.5, 1.0), _bessel_weighted(-0.5, 1.0, "propagator"),
        _bessel_weighted(-0.5, 1.0, "symbol")], ids=["propagator", "scan_propagator",
                                                      "scan_symbol"])
    def test_negative_power_at_origin_is_silent(self, target):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = target.func(np.array([0.0, 0.5]))
        assert np.all(np.isfinite(vals))

    def test_error_estimates_shrink_under_refinement(self):
        target = power_cutoff(0.6)
        pts = np.array([0.01, 0.1])
        coarse = stein_derivative(SteinRequest(0.3, target, pts,
                                               QuadSpec(n_panels=64)))
        fine = stein_derivative(SteinRequest(0.3, target, pts,
                                             QuadSpec(n_panels=128)))
        # at least linear decay until the estimates hit round-off
        assert np.all((fine.error_estimates <= 0.6 * coarse.error_estimates)
                      | (fine.error_estimates <= 5e-12))
        assert np.allclose(fine.values, coarse.values, rtol=1e-5)

    def test_scale_covariance(self):
        # S_b of f(lam .) at eta equals lam^b S_b f(lam eta)
        lam = 2.0
        b = 0.4
        base = power_cutoff(0.6)
        scaled = SteinTarget("scaled", lambda y: base.func(lam * y),
                            breakpoints=tuple(bp / lam for bp in base.breakpoints),
                            tail_limits=(0.0, 0.0),
                            holder=lambda eta: base.holder(lam * eta))
        for eta in (0.05, 0.3):
            lhs = stein_derivative(SteinRequest(b, scaled, np.array([eta]))).values[0]
            rhs = lam ** b * stein_derivative(
                SteinRequest(b, base, np.array([lam * eta]))).values[0]
            assert lhs == pytest.approx(rhs, rel=5e-3)

    @pytest.mark.parametrize("theta,n_w", [(0.5, 8.0), (1.0, 4.0), (0.3, 20.0)])
    def test_weight_target_is_the_truncated_weight(self, theta, n_w):
        g = make_grid(4096, 200.0)
        assert np.array_equal(weight_target(theta, n_w).func(g.x),
                              truncated_weight(g, n_w, theta))


class TestSlopeFits:
    def test_small_eta_power_regime(self):
        # beta < theta: pure power |eta|^(beta-theta)
        req = SteinRequest(0.5, power_cutoff(0.2), np.geomspace(1e-5, 1e-3, 7))
        fit = stein_slope_fit(req, "small_eta")
        assert fit.accepted
        assert fit.expected_slope == pytest.approx(-0.3)
        assert fit.fitted_slope == pytest.approx(-0.3, abs=0.05)

    def test_small_eta_saturation(self):
        # beta > theta: bounded near zero
        req = SteinRequest(0.3, power_cutoff(0.6), np.geomspace(1e-5, 1e-3, 7))
        fit = stein_slope_fit(req, "small_eta")
        assert fit.expected_slope == 0.0
        assert abs(fit.fitted_slope) <= 0.1

    def test_large_eta_decay(self):
        req = SteinRequest(0.5, power_cutoff(0.6), np.geomspace(5.0, 80.0, 7))
        fit = stein_slope_fit(req, "large_eta")
        assert fit.accepted
        assert fit.fitted_slope == pytest.approx(-1.0, abs=0.05)

    def test_log_branch_detection(self):
        req = SteinRequest(0.4, power_cutoff(0.4), np.geomspace(1e-6, 1e-3, 8))
        fit = stein_slope_fit(req, "small_eta")
        assert fit.log_correction_detected

    def test_log_branch_at_seven_digit_exponent(self):
        # beta = b to more digits than the target's display name keeps; the
        # log term overtakes the constant closer to 0 when b is small
        b = 0.1234567
        req = SteinRequest(b, power_cutoff(b), np.geomspace(1e-8, 1e-4, 8))
        fit = stein_slope_fit(req, "small_eta")
        assert math.isnan(fit.expected_slope)
        assert fit.log_correction_detected

    def test_power_carried_by_power_targets_only(self):
        assert power_cutoff(0.1234567).power == 0.1234567
        assert signed_power_cutoff(0.2).power == 0.2
        scans = [_bessel_weighted(-0.7, 1.0, "propagator"),
                 _bessel_weighted(0.3, 0.0, "symbol")]
        assert [t.power for t in scans] == [None, None]
        req = SteinRequest(0.8, scans[1], np.geomspace(1e-5, 1e-3, 6), SCAN_QUAD)
        assert math.isnan(stein_slope_fit(req, "small_eta").expected_slope)

    def test_signed_variant_same_small_eta_law(self):
        req = SteinRequest(0.5, signed_power_cutoff(0.2),
                           np.geomspace(1e-5, 1e-3, 7))
        fit = stein_slope_fit(req, "small_eta")
        assert fit.fitted_slope == pytest.approx(-0.3, abs=0.05)

    @pytest.mark.parametrize("b,beta,pts,regime", [
        (0.5, 0.2, np.geomspace(1e-5, 1e-3, 7), "small_eta"),
        (0.5, 0.6, np.geomspace(5.0, 80.0, 7), "large_eta"),
        (0.4, 0.4, np.geomspace(1e-6, 1e-3, 8), "small_eta")],
        ids=["power", "large", "log"])
    def test_fit_reads_stein_derivative_values(self, monkeypatch, b, beta, pts, regime):
        req = SteinRequest(b, power_cutoff(beta), pts)
        fit = stein_slope_fit(req, regime)
        monkeypatch.setattr(stein, "_stein_values", lambda r: stein_derivative(r).values)
        np.testing.assert_equal(astuple(fit), astuple(stein_slope_fit(req, regime)))

    def test_needs_six_points(self):
        req = SteinRequest(0.5, power_cutoff(0.2), np.geomspace(1e-4, 1e-3, 4))
        with pytest.raises(ConfigurationError):
            stein_slope_fit(req, "small_eta")


class TestPropagatorBound:
    def test_positive_dispersion_stable(self):
        rep = propagator_stein_bound(0.5, 0.5, (0.5, 1.0, 2.0), (0.1, 1.0, 10.0),
                                     QuadSpec(n_panels=512, y_max=200.0))
        assert math.isfinite(rep.constant)
        assert rep.constant > 0
        assert rep.stable

    def test_zero_time_ratio_zero(self):
        rep = propagator_stein_bound(0.5, 0.5, (0.0,), (1.0,),
                                     QuadSpec(n_panels=256, y_max=100.0))
        assert rep.constant == 0.0

    def test_negative_dispersion_power_envelope(self):
        # alpha < 0 off the log case: envelope |t|^(b/(1+alpha)) + |t| |x|^(1+alpha-b)
        alpha, b, ts, xs = -0.5, 0.3, (0.5, 1.0), (0.5, 2.0)
        rep = propagator_stein_bound(alpha, b, ts, xs)
        ratios = [stein_derivative(SteinRequest(b, propagator_target(alpha, t),
                                                np.array([x]))).values[0]
                  / (t ** (b / (1.0 + alpha)) + t * x ** (1.0 + alpha - b))
                  for t in ts for x in xs]
        assert rep.constant == pytest.approx(max(ratios), rel=1e-12)
        assert rep.stable

    def test_constant_reads_stein_derivative_values(self, monkeypatch):
        args = (0.5, 0.5, (0.5, 1.0, 2.0), (0.1, 1.0, 10.0),
                QuadSpec(n_panels=512, y_max=200.0))
        rep = propagator_stein_bound(*args)
        monkeypatch.setattr(stein, "_stein_values", lambda r: stein_derivative(r).values)
        assert rep == propagator_stein_bound(*args)

    def test_log_corrected_branch(self):
        # 1 + alpha - b = 0: small-x bound switches to the log form
        rep = propagator_stein_bound(-0.5, 0.5, (1.0,), (0.01, 0.1),
                                     QuadSpec(n_panels=512, y_max=200.0))
        assert math.isfinite(rep.constant)
        assert rep.stable


class TestNonmembership:
    def test_weak_dispersion_log_divergence(self):
        table = nonmembership_scan(-0.7, 1.0, 0.8, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4))
        assert table.divergent
        assert table.fitted_c > 0
        assert table.residual <= 0.10

    def test_zero_time_bounded(self):
        table = nonmembership_scan(-0.7, 0.0, 0.8, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4))
        assert not table.divergent

    def test_symbol_scan_divergence(self):
        table = nonmembership_scan(0.3, 0.0, 0.8, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4))
        assert table.divergent

    def test_local_derivative_branch(self):
        table = nonmembership_scan(-0.5, 1.0, 1.0, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4))
        assert table.divergent

    @pytest.mark.parametrize("alpha,t,kind,b", [
        (-0.7, 1.0, "propagator", 0.8), (0.5, 1.0, "propagator", 0.3),
        (0.3, 0.0, "symbol", 0.8), (-0.5, 0.0, "symbol", 0.3)])
    def test_scan_targets_mirror_symmetric(self, alpha, t, kind, b):
        # the one-sided scan counts S(eta) twice for S(eta)^2 + S(-eta)^2
        etas = np.geomspace(1e-5, 1.0, 6)
        target = _bessel_weighted(alpha, t, kind)
        plus = stein_derivative(SteinRequest(b, target, etas, SCAN_QUAD)).values
        minus = stein_derivative(SteinRequest(b, target, -etas, SCAN_QUAD)).values
        np.testing.assert_allclose(minus, plus, rtol=1e-14, atol=0)

    # (fitted_c, residual) recorded when both sides of the origin were evaluated
    @pytest.mark.parametrize("alpha,t,order,fitted_c,residual", [
        (-0.7, 1.0, 0.8, 6.225448776651367, 0.0078103772251598615),
        (-0.5, 1.0, 1.0, 0.5142026879834458, 0.0080923177271481),
        (0.3, 0.0, 0.8, 1.6152698483707353, 0.007727298415707444)])
    def test_criterion_7_scans_pinned(self, alpha, t, order, fitted_c, residual):
        table = nonmembership_scan(alpha, t, order,
                                   (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5))
        assert table.fitted_c == pytest.approx(fitted_c, rel=1e-12, abs=0)
        assert table.residual == pytest.approx(residual, rel=1e-12, abs=0)

    def test_order_must_match_a_scan(self):
        with pytest.raises(ConfigurationError, match="order"):
            nonmembership_scan(-0.7, 1.0, 0.5, (1e-2, 1e-3, 1e-4))


def packet(grid, amp=1.0, kc=2.0, width=4.0):
    return InitialCondition("sine_packet", (amp, kc, width)).build(grid)


PROBE_KINDS = ["hilbert_frac", "frac_com", "triple", "projector", "hilbert_local"]


class TestCommutatorProbes:
    def test_constant_g_gives_zero(self):
        g = make_grid(1024, 100.0)
        const = Field(g, np.ones(g.n))
        f = packet(g)
        assert commutator_probe("hilbert_frac", const, f,
                                ProbeParams(beta=0.5)) == 0.0

    def test_gaussian_pair_ratio_bounded(self):
        g = make_grid(1024, 100.0)
        gg = Field(g, np.exp(-g.x ** 2))
        ratio = commutator_probe("hilbert_frac", gg, gg, ProbeParams(beta=0.5))
        assert 0.0 < ratio <= 10.0

    @pytest.mark.parametrize("kind,params,msg", [
        ("hilbert_frac", ProbeParams(beta=0.0), "beta"),
        ("frac_com", ProbeParams(beta=1.5), "beta"),
        ("triple", ProbeParams(beta=0.5, gamma=0.8), "gamma"),
        ("projector", ProbeParams(beta=0.5, gamma=0.0), "gamma"),
        ("hilbert_local", ProbeParams(l=0, m=0), "l"),
    ])
    def test_hypothesis_violations_named(self, kind, params, msg):
        g = make_grid(512, 50.0)
        f = packet(g)
        with pytest.raises(ConfigurationError, match=msg):
            commutator_probe(kind, f, f, params)

    def test_unknown_kind(self):
        g = make_grid(512, 50.0)
        f = packet(g)
        with pytest.raises(ConfigurationError):
            commutator_probe("mystery", f, f, ProbeParams())

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_ensemble_needs_a_pair(self, n_pairs):
        with pytest.raises(ConfigurationError, match="pairs"):
            probe_ensemble("frac_com", make_grid(64, 10.0), ProbeParams(), n_pairs=n_pairs)

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    def test_ensemble_matches_per_pair_probes(self, kind):
        params = ProbeParams(beta=0.5, gamma=0.25, l=1, m=0)
        g = make_grid(512, 50.0)
        mx, med = probe_ensemble(kind, g, params, n_pairs=9, seed=4)

        def band(seed):
            return InitialCondition("random_band", (seed, 0.5, 4.0, 1.0)).build(g)
        ratios = [commutator_probe(kind, band(4 + 2 * j), band(5 + 2 * j), params)
                  for j in range(9)]
        assert mx == pytest.approx(max(ratios), rel=1e-13)
        assert med == pytest.approx(float(np.median(ratios)), rel=1e-13)

    def test_constant_g_row_gives_zero(self):
        g = make_grid(512, 50.0)
        f = packet(g).samples
        ratios = _probe_ratios("hilbert_frac", g, np.stack([np.ones(g.n), f]),
                               np.stack([f, f]), ProbeParams(beta=0.5))
        assert ratios[0] == 0.0
        assert ratios[1] > 0.0

    def test_zero_rhs_row_rejected(self):
        # d/dx of the Nyquist mode is zero, while its commutator with H is not
        g = make_grid(512, 50.0)
        f = packet(g).samples
        nyq = np.cos(np.pi * np.arange(g.n))
        params = ProbeParams(l=1, m=0)
        assert _probe_ratios("hilbert_local", g, f[None], f[None], params)[0] > 0.0
        with pytest.raises(DomainError, match="zero right-hand side"):
            _probe_ratios("hilbert_local", g, np.stack([f, nyq]), np.stack([f, f]), params)
        with pytest.raises(DomainError, match="zero right-hand side"):
            commutator_probe("hilbert_local", Field(g, nyq), Field(g, f), params)

    def test_overflow_raises_numeric_error(self):
        g = make_grid(512, 50.0)
        big = packet(g, amp=1e200)
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            commutator_probe("hilbert_frac", big, big, ProbeParams(beta=0.5))

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    def test_ensemble_finite_and_resolution_stable(self, kind):
        params = ProbeParams(beta=0.5, gamma=0.25, l=1, m=0)
        g1 = make_grid(1024, 100.0)
        g2 = make_grid(2048, 100.0)
        mx1, med1 = probe_ensemble(kind, g1, params, n_pairs=12, seed=3)
        mx2, _ = probe_ensemble(kind, g2, params, n_pairs=12, seed=3)
        assert math.isfinite(mx1) and math.isfinite(mx2)
        assert mx2 <= 2.0 * mx1
        assert mx1 <= 2.0 * mx2
        assert mx1 <= 10.0 * med1
