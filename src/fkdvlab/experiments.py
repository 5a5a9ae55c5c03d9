"""Scripted campaigns: moment law, sharp time, constant-frequency jump
evolution, decay thresholds, symmetry checks, wave breaking, step
convergence.

Each campaign returns a report whose metrics carry (measured, expected,
tolerance, passed); passes are always derived from those numbers.  Each
solve the tail guard truncated is named in a ``TRUNCATED: <label> solve:
<reason>`` note, and a metric that compares the end states of solves is
NaN, so fails, when any of them was truncated.  All campaigns are
deterministic for a fixed configuration, seeds included.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace
from typing import Sequence

import numpy as np

from . import diagnostics as diag
from .errors import ConfigurationError, DomainError
from .solver import (InitialCondition, SimConfig, Trajectory, _cumulative_simpson,
                     _step_count, linear_propagator, picard_oracle, solve)
from .spectral import (Field, apply_multiplier, coordinate_multiply,
                       dispersion_symbol, frac_deriv, integrate, is_zero_mean,
                       l2_norm, line_spectrum)


@dataclass
class MetricEntry:
    """One falsifiable number; ``mode`` is 'abs' (|m-e| <= tol) or
    'le' (m <= e + tol)."""

    measured: float
    expected: float
    tolerance: float
    mode: str = "abs"
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.mode == "abs":
            ok = abs(self.measured - self.expected) <= self.tolerance
        elif self.mode == "le":
            ok = self.measured <= self.expected + self.tolerance
        else:
            raise ConfigurationError(f"unknown metric mode '{self.mode}'")
        self.passed = bool(ok)


@dataclass
class ExperimentReport:
    """A campaign's metrics and notes.  ``solves`` (label -> trajectory)
    sets ``truncated`` and the TRUNCATED notes of the module docstring."""

    name: str
    metrics: dict
    notes: list = field(default_factory=list)
    solves: InitVar[dict] = None
    truncated: bool = field(init=False, default=False)

    def __post_init__(self, solves):
        for label, traj in (solves or {}).items():
            if traj.truncated:
                self.notes.append(f"TRUNCATED: {label} solve: {traj.truncation_reason}")
                self.truncated = True

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.metrics.values())


_MEAN_TOL = 1e-10                # relative mean tolerance of campaign data


def _mean_free(u0: Field, campaign: str, required: bool = False) -> bool:
    """Whether ``u0`` has zero mean: the campaigns' one data guard.  Data with
    a mean raises DomainError when ``required``; zero-mean data must decay to
    0 at the box edge, as a shelf's weighted content grows with the box and
    its x u0 is a box-sized sawtooth."""
    mean = integrate(u0)
    if not is_zero_mean(mean, l2_norm(u0), _MEAN_TOL):
        if required:
            raise DomainError(f"{campaign} needs zero mean; u_hat(0) = {mean:.3e} "
                              f"exceeds {_MEAN_TOL:g} * ||u||")
        return False
    shelf = float(np.mean(u0.samples[diag.outer_region(u0.grid)]))
    if abs(shelf) > 1e-12 * float(np.max(np.abs(u0.samples))):
        raise ConfigurationError(
            f"{campaign}: zero-mean data must decay to 0 at the box edge, but the "
            f"outer 10% of the box sits on a shelf at u = {shelf:.3e}")
    return True


def _scaled_cfg(cfg: SimConfig, L: float) -> SimConfig:
    """``cfg`` on a box of length L at the same resolution n / L."""
    factor = L / cfg.length
    n = int(round(cfg.n * factor))
    n += n % 2
    return replace(cfg, n=n, length=L)


def _rel_err(u: np.ndarray, ref: np.ndarray) -> float:
    scale = np.linalg.norm(ref)
    return float(np.linalg.norm(u - ref) / scale) if scale > 0 else math.nan


# ---------------------------------------------------------------------------
# moment law


def run_moment_law(cfg: SimConfig) -> ExperimentReport:
    """First-moment production law: d/dt of the first moment is half the
    conserved squared L2 norm, for zero-mean data and -1 < alpha < 1.

    The box moment can only track the line identity up to the moment
    carried by dispersive tails leaving the window; the irreducible gap
    is recorded in the notes.  A truncated solve never reaches t_final, so
    its maximum deviation is NaN and its slope note says where the fit stops.
    """
    if not (-1.0 < cfg.alpha < 1.0) or cfg.alpha == 0.0:
        raise DomainError(
            "the moment production law holds for -1 < alpha < 1, alpha != 0; "
            f"got alpha = {cfg.alpha}")
    u0 = cfg.ic.build(cfg.grid())
    _mean_free(u0, "moment law", required=True)
    traj = solve(cfg, u0, columns=("moment_x",))
    ms = traj.rows["moment_x"]
    l2sq = diag.invariants(u0, cfg.alpha)[1]
    max_dev = (math.nan if traj.truncated
               else float(np.max(np.abs(ms - (ms[0] + 0.5 * l2sq * traj.times)))))
    # integral of D^alpha u vanishes identically under the zero-mode convention
    dmean = max(abs(integrate(frac_deriv(traj.final, cfg.alpha))), 0.0)
    slope = diag.line_fit(traj.times, ms)[0]
    fit = f"fitted moment slope {slope:.8f} vs predicted {0.5 * l2sq:.8f}"
    if traj.truncated:
        fit += (f"; the fit stops at the truncation time t = {traj.times[-1]:g}, "
                f"short of t_final = {cfg.t_final:g}")
    return ExperimentReport(
        "moment_law",
        {
            "moment_max_deviation": MetricEntry(max_dev, 0.0, 1e-5 * l2sq),
            "dispersive_mean": MetricEntry(dmean, 0.0, 1e-14),
        },
        notes=[
            fit,
            "dispersive_mean is zero by the zero-mode convention; "
            "its vanishing is a consistency note, not evidence",
        ], solves={"main": traj})


# ---------------------------------------------------------------------------
# sharp time


def run_tstar(cfg: SimConfig) -> ExperimentReport:
    """Time-integrated first moment vanishes exactly at the sharp time
    t* = -4 (first moment) / (squared L2 norm) of the data.

    The verdict gates the integral residual (1e-4, relative to |m0| t*)
    and the moment's zero crossing, expected at t*/2 (1e-3).  A truncated
    solve never reaches t*, so its residual is NaN.
    """
    u0 = cfg.ic.build(cfg.grid())
    _mean_free(u0, "sharp-time run", required=True)
    m0 = diag.moment_first(u0)
    l2sq = diag.invariants(u0, cfg.alpha)[1]
    t_star = -4.0 * m0 / l2sq
    if t_star <= 0:
        raise DomainError(
            f"t* = {t_star:g} is not positive (first moment {m0:g} must be negative)")
    if t_star > cfg.t_final:
        raise ConfigurationError(
            f"t* = {t_star:g} exceeds the horizon t_final = {cfg.t_final:g}; "
            f"rerun with t_final >= {t_star:g}")
    # land on t* exactly; rows every 2nd of 4k steps give Simpson's odd node count
    n_steps = max(8, int(round(t_star / cfg.dt)))
    n_steps += -n_steps % 4
    dt_eff = t_star / n_steps
    run_cfg = replace(cfg, dt=dt_eff, t_final=t_star, diag_every=2)
    traj = solve(run_cfg, u0, columns=("moment_x",))
    ts, ms = traj.times, traj.rows["moment_x"]
    residual = (math.nan if traj.truncated
                else abs(_cumulative_simpson(ms, 2.0 * dt_eff)[-1]) / (abs(m0) * t_star))
    # moment zero crossing, expected at t*/2
    sign_change = np.nonzero(np.diff(np.sign(ms)))[0]
    if sign_change.size:
        j = sign_change[0]
        zc = ts[j] + (ts[j + 1] - ts[j]) * (-ms[j]) / (ms[j + 1] - ms[j])
    else:
        zc = math.nan
    return ExperimentReport(
        "tstar",
        {
            "integral_residual": MetricEntry(residual, 0.0, 1e-4),
            "zero_crossing": MetricEntry(float(zc), 0.5 * t_star, 1e-3),
        },
        [f"t* = {t_star:.17g}", f"moment0 = {m0:.17g}", f"l2sq = {l2sq:.17g}"],
        solves={"main": traj})


# ---------------------------------------------------------------------------
# constant-frequency (alpha = -1) jump evolution


def _states_at(cfg: SimConfig, u0: Field, times: Sequence[float]) -> tuple:
    """({time: state}, trajectory) of one solve through ``times``.  A time
    that a truncated solve did not reach before the guard tripped is left out."""
    idx = [_step_count(t, cfg.dt, "time") for t in times]
    cadence = math.gcd(*idx) if idx else 1
    run_cfg = replace(cfg, store_every=max(cadence, 1),
                      t_final=max(times), diag_every=max(cadence, 1))
    traj = solve(run_cfg, u0, columns=())
    end = traj.times[-1] if traj.truncated else math.inf
    # solve keys the state of step i by i * dt
    out = {t: traj.states[i * cfg.dt] for t, i in zip(times, idx) if i * cfg.dt < end}
    return out, traj


def run_two_time_bh(cfg: SimConfig, t1: float, t2: float) -> ExperimentReport:
    """Jump evolution and the two-time identity for the alpha = -1 flow.

    The one-sided derivative of u_hat at 0+ obeys
    ``m(t) = e^{it} m(0) - (||u0||^2 / 2)(e^{it} - 1)`` for the full
    equation (pure rotation when the nonlinearity is off).  The two-time
    identity residual ``R = 2 sin(t2-t1) * moment(t1) -
    (cos(t2-t1) - 1) ||u0||^2`` is reported against the value that the
    jump law predicts; R = 0 is what extra decay at both times would
    force, and generic data violates it.
    """
    if cfg.alpha != -1.0:
        raise ConfigurationError("two-time identity run requires alpha = -1")
    if not (0 <= t1 < t2 <= cfg.t_final):
        raise ConfigurationError(f"need 0 <= t1 < t2 <= t_final, got {t1}, {t2}")
    jumps = {}
    runs = {}
    times = sorted({t for t in (t1, t2) if t > 0})
    for scale in (1, 2):
        sc_cfg = _scaled_cfg(cfg, cfg.length * scale)
        u0 = cfg.ic.build(sc_cfg.grid())
        _mean_free(u0, "two-time identity run", required=True)
        states, runs[f"L={sc_cfg.length:g}"] = _states_at(sc_cfg, u0, times)
        at = {0.0: u0, **states}             # keyed by 0, t1 and t2
        jumps[scale] = {t: diag.spectral_jump(f) for t, f in at.items()}
        if scale == 1:
            i2 = diag.invariants(u0, cfg.alpha)[1]
        else:                                # the identity reads the larger box
            moment_t1 = diag.moment_first(at[t1]) if t1 in at else math.nan

    # Richardson in k1 = 2 pi / L: the three-point quotient's bias is O(k1^2),
    # so doubling the box quarters it; a time a truncated solve missed is NaN
    ext = {t: (4.0 * jumps[2].get(t, math.nan) - jumps[1].get(t, math.nan)) / 3.0
           for t in (0.0, t1, t2)}
    m0 = ext[0.0]

    def predicted(t):
        rot = np.exp(1j * t)
        if cfg.nonlinear:
            return rot * m0 - 0.5 * i2 * (rot - 1.0)
        return rot * m0

    tol = 1e-3 if cfg.nonlinear else 1e-6
    errs = {t: abs(ext[t] - predicted(t)) / abs(predicted(t)) for t in (t1, t2)}
    delta = t2 - t1
    r_meas = 2.0 * math.sin(delta) * moment_t1 - (math.cos(delta) - 1.0) * i2
    r_pred = 2.0 * math.sin(delta) * (-predicted(t1).imag) - (math.cos(delta) - 1.0) * i2
    report = ExperimentReport(
        "two_time_bh",
        {
            "jump_law_rel_error_t1": MetricEntry(errs[t1], 0.0, tol),
            "jump_law_rel_error_t2": MetricEntry(errs[t2], 0.0, tol),
            "identity_residual_vs_prediction": MetricEntry(
                r_meas, r_pred, max(1e-3 * i2, 5e-3 * abs(r_pred))),
        },
        notes=[
            f"identity residual R = {r_meas:.6e} (zero only if extra decay holds "
            "at both times; generic data keeps it nonzero)",
            f"jump m(0) extrapolated = {m0:.6e}",
        ], solves=runs)
    if abs(delta - 2 * math.pi) < 1e-12:
        report.metrics["identity_trivial_at_2pi"] = MetricEntry(
            abs(r_meas), 0.0, 1e-6 * i2)
    return report


# ---------------------------------------------------------------------------
# decay thresholds


def run_decay_threshold(cfg: SimConfig, r_probe: Sequence[float],
                        L_list: Sequence[float]) -> ExperimentReport:
    """Tail exponent and weighted-norm growth of the free evolution.

    The same physical data is embedded in boxes of increasing size; the
    pointwise tail exponent p of the solution at t_final is fitted from
    the tail-mass profile, and the weighted norm of order r is tracked
    across boxes: at the critical order it keeps growing (log-type),
    a quarter below it converges.  The nonlinear term is never applied;
    a config with ``nonlinear`` set gets a note saying so.
    """
    if len(L_list) < 2:
        raise ConfigurationError("need at least two box sizes")
    L_list = sorted(L_list)
    t = cfg.t_final
    alpha = cfg.alpha
    zero_mean = _mean_free(cfg.ic.build(cfg.grid()), "decay scans")
    r_crit = 1.5 + alpha
    ps = []                     # fitted tail exponent per box
    wnorms = {r: [] for r in set(list(r_probe) + [r_crit, r_crit - 0.25])}
    for L in L_list:
        sc = _scaled_cfg(cfg, L)
        grid = sc.grid()
        u0 = sc.ic.build(grid)
        u_t = linear_propagator(u0, t, alpha)
        if diag.tail_fraction(u_t.samples, grid) > 1e-3:
            raise DomainError(f"contamination before measurement time at L = {L:g}")
        if alpha == -1.0:
            window = (0.015 * L, 0.035 * L)
        else:
            window = (0.04 * L, 0.12 * L)
        ps.append(diag.decay_fit(u_t, window).fitted_p)
        for r in wnorms:
            wnorms[r].append(diag.weighted_norm(u_t, r))
    # bias from the periodized tail shrinks like 1/L; extrapolate when monotone
    if all(np.isfinite(ps)) and (np.all(np.diff(ps) <= 0) or np.all(np.diff(ps) >= 0)):
        p = 2.0 * ps[-1] - ps[-2]
    else:
        p = ps[-1]
    p_expected = 1.0 if alpha == -1.0 else 2.0 + alpha
    p_tol = 0.05 if alpha == -1.0 else 0.15
    if zero_mean:
        p_expected += 1.0
        # zero-mean data gains one order of tail decay; threshold lifted

    g_crit = np.asarray(wnorms[r_crit])
    g_below = np.asarray(wnorms[r_crit - 0.25])
    inc = np.diff(g_crit ** 2)
    conv_below = abs(g_below[-1] - g_below[-2]) / g_below[-1]
    metrics = {
        "tail_exponent": MetricEntry(float(p), p_expected, p_tol),
        "subcritical_norm_convergence": MetricEntry(conv_below, 0.0, 0.02),
    }
    if zero_mean:
        conv_crit = abs(g_crit[-1] - g_crit[-2]) / g_crit[-1]
        metrics["critical_norm_convergence"] = MetricEntry(conv_crit, 0.0, 0.02)
    else:
        growing = bool(np.all(inc > 0) and inc[-1] >= 0.4 * inc[0])
        metrics["critical_norm_growth"] = MetricEntry(float(growing), 1.0, 0.0)
    def _table(vals, digits):
        return {L: round(float(v), digits) for L, v in zip(L_list, vals)}

    notes = [
        f"per-box tail exponents {_table(ps, 4)}",
        f"critical-order norms {_table(g_crit, 6)}",
        f"subcritical norms {_table(g_below, 6)}",
    ] + [f"w_{r:g} across boxes: {np.round(wnorms[r], 6).tolist()}"
         for r in sorted(r_probe)]
    if cfg.nonlinear:
        notes.append("nonlinear = true is not applied: decay-threshold "
                     "evolves the free (linear) flow")
    return ExperimentReport("decay_threshold", metrics, notes)


# ---------------------------------------------------------------------------
# symmetry checks


def _evaluate_at(f: Field, pts: np.ndarray) -> np.ndarray:
    """Trigonometric-interpolant values at arbitrary points."""
    spec = line_spectrum(f)
    spec[1:-1] *= 2.0                # modes 1..n/2-1 stand for the pair +-m
    k = f.grid.k[: spec.size]
    out = np.zeros(pts.size)
    chunk = 512
    for j in range(0, pts.size, chunk):
        ph = np.exp(1j * np.outer(pts[j:j + chunk], k))
        out[j:j + chunk] = (ph @ spec).real
    return out / f.grid.length


def _scaled_ic(ic: InitialCondition, lam: float, alpha: float) -> InitialCondition:
    amp_factor = lam ** alpha
    if ic.family == "gaussian":
        a, s, x0 = ic.params
        return replace(ic, params=(a * amp_factor, s / lam, x0 / lam))
    if ic.family == "odd_gaussian":
        a, s = ic.params
        return replace(ic, params=(a * amp_factor * lam, s / lam))
    if ic.family == "sine_packet":
        a, kc, s = ic.params
        return replace(ic, params=(a * amp_factor, kc * lam, s / lam))
    raise ConfigurationError(
        f"scaling check supports analytic families only, not '{ic.family}'")


def run_symmetry_checks(cfg: SimConfig, lam: float) -> ExperimentReport:
    """Scaling covariance of the flow and the coordinate commutation laws.

    (a) lam^alpha u(lam x, lam^(1+alpha) t) solves the equation when u
    does; (b) the free flow commutes with x + (1+alpha) t D^alpha;
    (c) [x, d/dx D^alpha] f = -(1+alpha) D^alpha f.
    Zero-mean data that does not decay to 0 at the box edge is rejected,
    as x u then carries a box-sized sawtooth.
    """
    if not (-1.0 < cfg.alpha < 1.0) or cfg.alpha == 0.0:
        raise ConfigurationError("symmetry checks need -1 < alpha < 1, alpha != 0")
    if not (0.5 <= lam <= 2.0):
        raise ConfigurationError(f"lambda must lie in [1/2, 2], got {lam}")
    grid = cfg.grid()
    alpha = cfg.alpha
    ic2 = _scaled_ic(cfg.ic, lam, alpha)      # analytic, so decaying, data only
    u0 = cfg.ic.build(grid)
    # negative-order derivatives below act on the zero-mean class only
    _mean_free(u0, "symmetry checks", required=alpha < 0)

    # (a) two solver runs compared through the scaling map
    u0_scaled = ic2.build(grid)
    if diag.tail_fraction(u0_scaled.samples, grid) > cfg.tail_tol:
        raise ConfigurationError("rescaled data does not fit the box")
    T1 = cfg.t_final
    T2 = T1 / lam ** (1.0 + alpha)
    traj1 = solve(replace(cfg, t_final=T1), u0, columns=())
    dt2 = T2 / max(1, int(round(T2 / cfg.dt)))
    traj2 = solve(replace(cfg, ic=ic2, t_final=T2, dt=dt2), u0_scaled, columns=())
    runs = {"original": traj1, "rescaled": traj2}
    scale_res = math.nan           # the end states are compared at matched times only
    if not (traj1.truncated or traj2.truncated):
        sel = np.abs(grid.x) <= 0.25 * grid.length / max(lam, 1.0)
        v1 = lam ** alpha * _evaluate_at(traj1.final, lam * grid.x[sel])
        scale_res = _rel_err(v1, traj2.final.samples[sel])

    # (b) commuting vector field along the free flow:
    #     x e^{tL} u0 + (1+alpha) t D^alpha e^{tL} u0 = e^{tL} (x u0)
    t = cfg.t_final
    vt = linear_propagator(u0, t, alpha)
    lhs = coordinate_multiply(vt) + (1.0 + alpha) * t * frac_deriv(vt, alpha)
    rhs = linear_propagator(coordinate_multiply(u0), t, alpha)
    comm_res = _rel_err(lhs.samples, rhs.samples)

    # (c) coordinate commutator with the dispersion generator
    gen = dispersion_symbol(alpha)
    a_term = coordinate_multiply(apply_multiplier(u0, gen))
    b_term = apply_multiplier(coordinate_multiply(u0), gen)
    c_term = (1.0 + alpha) * frac_deriv(u0, alpha)
    num = np.linalg.norm(a_term.samples - b_term.samples + c_term.samples)
    den = np.linalg.norm(c_term.samples)
    ident_res = float(num / den) if den > 0 else 0.0

    return ExperimentReport(
        "symmetry_checks",
        {
            "scaling_residual": MetricEntry(scale_res, 0.0, 1e-6),
            "commuting_field_residual": MetricEntry(comm_res, 0.0, 1e-8),
            "coordinate_commutator_residual": MetricEntry(ident_res, 0.0, 1e-8),
        },
        notes=[f"lambda = {lam:g}, matched times ({T1:g}, {T2:g})"], solves=runs)


# ---------------------------------------------------------------------------
# wave breaking


def _grad_sup(traj: Trajectory) -> np.ndarray:
    """The gradient sup max(-min u_x, 0) of each row."""
    return np.maximum(-traj.rows["min_ux"], 0.0)


def _onset_time(ts, gs, threshold):
    above = np.nonzero(gs >= threshold)[0]
    if not above.size:
        return math.nan
    j = above[0]
    if j == 0:
        return float(ts[0])
    # linear crossing between diagnostics rows
    frac = (threshold - gs[j - 1]) / (gs[j] - gs[j - 1])
    return float(ts[j - 1] + frac * (ts[j] - ts[j - 1]))


def run_wave_breaking(cfg: SimConfig) -> ExperimentReport:
    """Gradient blow-up detector for the weak-dispersion range.

    Declares onset when the gradient sup exceeds 10x its initial value,
    requires the onset time to be stable (5 percent) under halving dt,
    and contrasts with a dispersive control run at alpha = 0.5 on the
    same data.  Contamination before onset flags the run inconclusive.
    """
    if not (-1.0 <= cfg.alpha < -1.0 / 3.0):
        raise ConfigurationError(
            f"breaking range is -1 <= alpha < -1/3, got {cfg.alpha}")
    u0 = cfg.ic.build(cfg.grid())
    _mean_free(u0, "wave-breaking run", required=True)
    traj = solve(cfg, u0, columns=("min_ux",))
    gs = _grad_sup(traj)
    g0 = gs[0]
    onset = _onset_time(traj.times, gs, 10.0 * g0)
    notes = []
    if traj.truncated and math.isnan(onset):
        notes.append("INCONCLUSIVE: tail contamination before gradient growth")
    half = replace(cfg, dt=0.5 * cfg.dt, diag_every=2 * cfg.diag_every)
    traj_h = solve(half, u0, columns=("min_ux",))
    onset_h = _onset_time(traj_h.times, _grad_sup(traj_h), 10.0 * g0)
    control = solve(replace(cfg, alpha=0.5), u0, columns=("min_ux",))
    growth_c = float(np.max(_grad_sup(control)) / g0)

    detected = not math.isnan(onset)
    metrics = {
        "onset_detected": MetricEntry(float(detected), 1.0, 0.0),
        "onset_dt_stability": MetricEntry(
            abs(onset - onset_h) / onset if detected and not math.isnan(onset_h)
            else math.inf, 0.0, 0.05),
        "control_gradient_growth": MetricEntry(growth_c, 0.0, 10.0, mode="le"),
    }
    notes.append(f"onset at dt: {onset:g}, at dt/2: {onset_h:g}; "
                 f"max gradient growth {float(np.max(gs) / g0):.2f}x")
    return ExperimentReport("wave_breaking", metrics, notes, solves={
        "dt": traj, "dt/2": traj_h, "alpha=0.5 control": control})


# ---------------------------------------------------------------------------
# step convergence


def run_convergence(cfg: SimConfig) -> ExperimentReport:
    """Step convergence against a dt/8 reference, and agreement with the
    Picard oracle over the first steps.

    The stepper is exact on the linear problem, so a config with
    ``nonlinear = false`` gates the step error itself instead of the
    Richardson order.
    """
    u0 = cfg.ic.build(cfg.grid())
    t_cmp = max(1, int(min(0.05, cfg.t_final) / cfg.dt)) * cfg.dt
    solves = {"dt/8": replace(cfg, dt=cfg.dt / 8.0), "dt": cfg,
              "dt/2": replace(cfg, dt=cfg.dt / 2.0),
              "oracle window": replace(cfg, t_final=t_cmp)}
    runs = {label: solve(c, u0, columns=()) for label, c in solves.items()}
    ref, short = runs["dt/8"], runs["oracle window"]
    errs = [math.nan, math.nan]
    if not any(runs[label].truncated for label in ("dt/8", "dt", "dt/2")):
        errs = [_rel_err(runs[label].final.samples, ref.final.samples)
                for label in ("dt", "dt/2")]
    pic = picard_oracle(u0, cfg, t_cmp, iterations=6)
    pic_err = math.nan if short.truncated else _rel_err(pic.samples, short.final.samples)
    if cfg.nonlinear:
        ratio = errs[0] / errs[1] if errs[1] > 0 else math.nan
        order = math.log2(ratio) if 0 < ratio < math.inf else math.nan
        step = {"richardson_order": MetricEntry(order, 4.0, 0.2)}
    else:
        step = {"linear_step_error": MetricEntry(float(np.max(errs)), 0.0, 1e-12)}
    return ExperimentReport(
        "convergence", {**step, "picard_agreement": MetricEntry(pic_err, 0.0, 1e-6)},
        [f"step errors against dt/8: {errs[0]:.3e} at dt, {errs[1]:.3e} at dt/2"],
        solves=runs)
