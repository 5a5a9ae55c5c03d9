import math
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from fkdvlab import (ConfigurationError, DomainError, Field, InitialCondition,
                     NumericError, ProbeParams, QuadSpec, SteinRequest, SteinTarget,
                     make_grid, nonmembership_scan, power_cutoff, propagator_stein_bound,
                     sign_propagator, signed_power_cutoff, stein_derivative,
                     stein_slope_fit, weight_target)
from fkdvlab import stein
from fkdvlab.spectral import random_band, weight_profile
from fkdvlab.stein import (_bessel_weighted, _probe_ratios, probe_ensemble,
                           propagator_target)


SCAN_QUAD = QuadSpec(n_panels=1024, y_max=50.0)

# values and error estimates recorded with the per-breakpoint panel construction
# that the single vectorised one replaced; the two propagator rows were
# re-recorded when their increments moved to real arithmetic in polar form,
# which changed them by round-off only (1e-13 relative or less)
PINNED = [
    (SteinRequest(0.8, _bessel_weighted(-0.7, 1.0, "propagator"),
                  np.array([1e-5, 0.5]), SCAN_QUAD),
     [551.5516003163891, 2.2225409301455765], [2.078434211715208, 0.01785554936724827]),
    (SteinRequest(0.8, _bessel_weighted(0.3, 0.0, "symbol"), np.array([1e-5, 0.5]),
                  SCAN_QUAD),
     [280.97532419059604, 0.7927806934499003], [0.12771935701458634, 0.018338608384070365]),
    (SteinRequest(0.5, power_cutoff(0.2), np.geomspace(1e-5, 1e-3, 3)),
     [22.412712446119354, 11.16343516861253, 5.480050254454523],
     [1.78827263235409e-07, 9.114343791889713e-09, 4.979480740818215e-09]),
    (SteinRequest(0.5, propagator_target(0.5, 1.0), np.array([0.5, 4.0])),
     [2.5663929796179, 4.337179496092911], [0.0010027416024836245, 0.0006313196847138816]),
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

    @pytest.mark.parametrize("t", [0.5, np.pi / 2, -1.3, 0.0])
    def test_sign_propagator_levels_are_the_direct_exp(self, t):
        # the three precomputed levels carry the bits of exp(i t sign(y))
        y = np.array([[-2.0, -1e-300, -0.0], [0.0, 1e-300, 3.0]])
        got = sign_propagator(t).func(y)
        want = np.exp(1j * t * np.sign(y))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_quadrature_rule_is_leggauss_16(self):
        nodes, weights = stein._GAUSS_LEGENDRE
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(16)
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()

    @pytest.mark.parametrize("req", [
        SteinRequest(0.5, sign_propagator(1.0), np.array([1e-3, 0.5, 2.0])),
        SteinRequest(0.5, power_cutoff(0.2), np.geomspace(1e-5, 1e-3, 3)),
        SteinRequest(0.8, _bessel_weighted(-0.7, 1.0, "propagator"),
                     np.array([1e-5, 0.5]), SCAN_QUAD),
        SteinRequest(0.5, SteinTarget("sign", lambda y: np.sign(y) + 0j,
                                      breakpoints=(-50.0, -0.0, 0.0, 50.0),
                                      tail_limits=(1.0, -1.0),
                                      holder=lambda eta: (math.inf, 0.0)),
                     np.array([0.5, -49.0]), QuadSpec(y_max=50.0)),
    ], ids=["sign_propagator", "power_cutoff", "scan_propagator", "breaks_at_zeros_and_ends"])
    def test_edge_merge_gives_the_np_unique_values(self, monkeypatch, req):
        # the panel edges hold both ends +-y_max and the repeated breakpoint
        # panels; merged by np.unique the values keep every bit
        res = stein_derivative(req)
        monkeypatch.setattr(stein, "_sorted_distinct", np.unique)
        ref = stein_derivative(req)
        assert res.values.tobytes() == ref.values.tobytes()
        assert res.error_estimates.tobytes() == ref.error_estimates.tobytes()

    @pytest.mark.parametrize("req", [
        SteinRequest(0.8, _bessel_weighted(-0.7, 1.0, "propagator"),
                     np.array([1e-5, 0.5, 1.0, 2.0 + 1e-9, -1.5]), SCAN_QUAD),
        SteinRequest(0.5, propagator_target(0.5, 1.0), np.array([0.5, 4.0, 1e-14])),
        SteinRequest(0.5, weight_target(0.5, 8.0), np.array([8.0, 24.0, -3.0])),
    ], ids=["scan_propagator", "propagator", "weight"])
    def test_batched_radii_are_the_per_point_rows(self, req):
        # one geomspace over the (points, centres) table gives the bits of one
        # call per point over its kept centres, for the full and the coarse rule
        rules = (stein._n_dyadic(req), stein._n_dyadic(req) // 2)
        deltas, centres, kept, radii = stein._panels(req, rules)
        for n, table in zip(rules, radii):
            for i, eta in enumerate(req.eval_points):
                delta = stein.INNER_RADIUS * max(abs(eta), stein.INNER_FLOOR)
                near = [bp for bp in req.target.breakpoints if abs(bp - eta) > 2.0 * delta]
                row = [delta] + [1e-13 * max(1.0, abs(bp - eta)) for bp in near]
                want = np.geomspace(row, 2.0 * req.quad.y_max, n + 1, axis=-1)
                assert deltas[i] == delta
                assert centres[i, kept[i]].tolist() == [eta] + near
                assert table[i, kept[i]].tobytes() == want.tobytes()

    def test_quadrature_memory_does_not_grow_with_panels(self):
        # the nodes go through the integrand in blocks of panels, so beyond the
        # (panels, 16) table of weighted terms the working set is one block's;
        # a single-array evaluation traced ~4x the peak at 4x the panels
        peaks = []
        for n_panels in (2048, 8192):
            req = SteinRequest(0.5, propagator_target(0.5, 1.0), np.array([1.0]),
                               QuadSpec(n_panels=n_panels))
            stein._stein_values(req)            # first-use work is not traced
            tracemalloc.start()
            try:
                stein._stein_values(req)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(peak - 16 * 8 * n_panels)
        assert peaks[1] < 2 * peaks[0]

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
                              weight_profile(np.abs(g.x), n_w, theta))

    @pytest.mark.parametrize("build,name", [
        (lambda: power_cutoff(math.inf), "beta"),
        (lambda: signed_power_cutoff(math.nan), "beta"),
        (lambda: propagator_target(0.5, math.inf), "time t"),
        (lambda: sign_propagator(math.nan), "time t"),
    ])
    def test_non_finite_target_parameter_rejected(self, build, name):
        with pytest.raises(ConfigurationError, match=name):
            build()

    @pytest.mark.parametrize("n_w", [0.0, -1.0, math.nan, math.inf])
    def test_weight_scale_checked_alike(self, n_w):
        with pytest.raises(ConfigurationError, match="n_w must be positive and finite"):
            weight_target(0.5, n_w)


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


def pair_ratio(kind, g, f, params):
    """The probe ratio of one pair of fields, as a one-row block."""
    return float(_probe_ratios(kind, g.grid, g.samples[None], f.samples[None], params)[0])


def assert_ensemble_is_per_pair_max_and_median(kind, g, n_pairs, seed):
    """probe_ensemble's max and median equal, bit for bit, those of the ratios
    of its pairs probed one at a time."""
    params = ProbeParams(beta=0.5, gamma=0.25, l=1, m=0)
    mx, med = probe_ensemble(kind, g, params, n_pairs=n_pairs, seed=seed)

    def band(s):
        return Field(g, random_band(g, [s], *stein.PROBE_BAND, 1.0)[0])
    ratios = [pair_ratio(kind, band(seed + 2 * j), band(seed + 1 + 2 * j), params)
              for j in range(n_pairs)]
    assert mx == max(ratios)
    assert med == float(np.median(ratios))


class TestCommutatorProbes:
    def test_constant_g_gives_zero(self):
        g = make_grid(1024, 100.0)
        const = Field(g, np.ones(g.n))
        f = packet(g)
        assert pair_ratio("hilbert_frac", const, f, ProbeParams(beta=0.5)) == 0.0

    def test_gaussian_pair_ratio_bounded(self):
        g = make_grid(1024, 100.0)
        gg = Field(g, np.exp(-g.x ** 2))
        ratio = pair_ratio("hilbert_frac", gg, gg, ProbeParams(beta=0.5))
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
            pair_ratio(kind, f, f, params)

    def test_unknown_kind(self):
        g = make_grid(512, 50.0)
        f = packet(g)
        with pytest.raises(ConfigurationError):
            pair_ratio("mystery", f, f, ProbeParams())

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
        ratios = [pair_ratio(kind, band(4 + 2 * j), band(5 + 2 * j), params)
                  for j in range(9)]
        assert mx == pytest.approx(max(ratios), rel=1e-13)
        assert med == pytest.approx(float(np.median(ratios)), rel=1e-13)

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    def test_ensemble_blocks_match_per_pair_probes_exactly(self, kind):
        # 37 pairs at n = 2048 run as blocks of 16, 16 and 5 rows
        g = make_grid(2048, 100.0)
        assert 37 % (stein._PROBE_BLOCK_BYTES // (8 * g.n)) != 0
        assert_ensemble_is_per_pair_max_and_median(kind, g, n_pairs=37, seed=2)

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    def test_even_pair_count_median_exact(self, kind):
        # the benchmark's 50 pairs: the median is the mean of the middle two
        assert_ensemble_is_per_pair_max_and_median(kind, make_grid(1024, 100.0),
                                                   n_pairs=50, seed=1)

    def test_ensemble_memory_does_not_grow_with_pairs(self):
        # one (rows, n) block at a time; holding all 64 pairs at once traced ~15 MiB
        params = ProbeParams(beta=0.5)
        g = make_grid(4096, 100.0)
        tracemalloc.start()
        try:
            probe_ensemble("hilbert_frac", g, params, n_pairs=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

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
            pair_ratio("hilbert_local", Field(g, nyq), Field(g, f), params)

    def test_overflow_raises_numeric_error(self):
        g = make_grid(512, 50.0)
        big = packet(g, amp=1e200)
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            pair_ratio("hilbert_frac", big, big, ProbeParams(beta=0.5))

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
