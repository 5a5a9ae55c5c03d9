"""Scripted campaigns: moment law, sharp time, constant-frequency jump
evolution, decay thresholds, symmetry checks, wave breaking, step
convergence; and ``CRITERIA``, the acceptance criteria as a table of rows
that the acceptance suite and ``fkdvlab verify`` both read.

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
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import diagnostics as diag
from .errors import ConfigurationError, DomainError
from .solver import (InitialCondition, SimConfig, Trajectory, _cumulative_simpson,
                     _step_count, linear_propagator, picard_oracle, solve)
from .spectral import (Field, apply_multiplier, coordinate_multiply,
                       dispersion_symbol, frac_deriv, hilbert_symbol, integrate,
                       is_zero_mean, l2_norm, line_spectrum, make_grid,
                       require_zero_mean)
from .stein import (_PROBE_KINDS, ProbeParams, SteinRequest, nonmembership_scan,
                    power_cutoff, probe_ensemble, sign_propagator, stein_derivative,
                    stein_slope_fit)

# metric mode -> whether (measured, expected, tolerance) passes
_MODES = {
    "abs": lambda m, e, tol: abs(m - e) <= tol,
    "le": lambda m, e, tol: m <= e + tol,
    "ge": lambda m, e, tol: m >= e - tol,
    "lt": lambda m, e, tol: m < e + tol,
    "gt": lambda m, e, tol: m > e - tol,
}


@dataclass
class MetricEntry:
    """One falsifiable number, judged by its ``mode``'s rule in ``_MODES``;
    'lt' and 'gt' are strict.  A NaN measurement fails in every mode."""

    measured: float
    expected: float
    tolerance: float
    mode: str = "abs"
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigurationError(f"unknown metric mode '{self.mode}'")
        self.passed = bool(_MODES[self.mode](self.measured, self.expected, self.tolerance))


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


def _nonzero(u0: Field, campaign: str):
    """No metric has a scale on all-zero data: ConfigurationError if ``u0`` is 0."""
    if not np.any(u0.samples):
        raise ConfigurationError(
            f"{campaign}: u0 is zero everywhere, so no metric has a scale")


def _mean_free(u0: Field, campaign: str):
    """The campaigns' one data guard: ``u0`` must be nonzero (:func:`_nonzero`),
    have zero mean (DomainError otherwise) and decay to 0 at the box edge, as
    a shelf's weighted content grows with the box and its x u0 is a box-sized
    sawtooth."""
    _nonzero(u0, campaign)
    require_zero_mean(u0, campaign, _MEAN_TOL)
    shelf = float(np.mean(u0.samples[diag.outer_region(u0.grid)]))
    if abs(shelf) > 1e-12 * float(np.max(np.abs(u0.samples))):
        raise ConfigurationError(
            f"{campaign}: zero-mean data must decay to 0 at the box edge, but the "
            f"outer 10% of the box sits on a shelf at u = {shelf:.3e}")


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
    The verdict gates the pointwise law (1e-5 of the squared norm), the
    mean of D^alpha u and the fitted slope of the moment (1e-3, absolute).

    The box moment can only track the line identity up to the moment
    carried by dispersive tails leaving the window, a gap the pointwise
    deviation shows and the slope does not.  A truncated solve never
    reaches t_final, so its maximum deviation is NaN and its slope is
    fitted up to the time its TRUNCATED note names.
    """
    if not (-1.0 < cfg.alpha < 1.0) or cfg.alpha == 0.0:
        raise DomainError(
            "the moment production law holds for -1 < alpha < 1, alpha != 0; "
            f"got alpha = {cfg.alpha}")
    u0 = cfg.ic.build(cfg.grid())
    _mean_free(u0, "moment law")
    traj = solve(cfg, u0, columns=("moment_x",))
    ms = traj.rows["moment_x"]
    l2sq = diag.invariants(u0, cfg.alpha)[1]
    max_dev = (math.nan if traj.truncated
               else float(np.max(np.abs(ms - (ms[0] + 0.5 * l2sq * traj.times)))))
    # integral of D^alpha u vanishes identically under the zero-mode convention
    dmean = max(abs(integrate(frac_deriv(traj.final, cfg.alpha))), 0.0)
    slope = diag.line_fit(traj.times, ms)[0]
    return ExperimentReport(
        "moment_law",
        {
            "moment_max_deviation": MetricEntry(max_dev, 0.0, 1e-5 * l2sq),
            "dispersive_mean": MetricEntry(dmean, 0.0, 1e-14),
            "moment_slope": MetricEntry(slope, 0.5 * l2sq, 1e-3),
        },
        notes=[
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
    _mean_free(u0, "sharp-time run")
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
    zc = _crossing_time(ts, ms, 0.0)     # the moment rises through 0 at t*/2
    return ExperimentReport(
        "tstar",
        {
            "integral_residual": MetricEntry(residual, 0.0, 1e-4),
            "zero_crossing": MetricEntry(zc, 0.5 * t_star, 1e-3),
        },
        [f"t* = {t_star:.17g}", f"moment0 = {m0:.17g}", f"l2sq = {l2sq:.17g}"],
        solves={"main": traj})


# ---------------------------------------------------------------------------
# constant-frequency (alpha = -1) jump evolution


def run_two_time_bh(cfg: SimConfig, t1: float, t2: float) -> ExperimentReport:
    """Jump evolution and the two-time identity for the alpha = -1 flow.

    The one-sided derivative of u_hat at 0+ obeys
    ``m(t) = e^{it} m(0) - (||u0||^2 / 2)(e^{it} - 1)`` for the full
    equation (pure rotation when the nonlinearity is off).  The two-time
    identity residual ``R = 2 sin(t2-t1) * moment(t1) -
    (cos(t2-t1) - 1) ||u0||^2`` is reported against the value that the
    jump law predicts; R = 0 is what extra decay at both times would
    force, and generic data violates it.  One solve on the config's box
    gives both: the jump from ``diag.spectral_jump`` (bias O(k1^4)), the
    moment from ``diag.moment_first``, independent of the jump.
    """
    if cfg.alpha != -1.0:
        raise ConfigurationError("two-time identity run requires alpha = -1")
    if not (0 <= t1 < t2 <= cfg.t_final):
        raise ConfigurationError(f"need 0 <= t1 < t2 <= t_final, got {t1}, {t2}")
    steps = {t: _step_count(t, cfg.dt, "time") for t in (t1, t2)}
    u0 = cfg.ic.build(cfg.grid())
    _mean_free(u0, "two-time identity run")
    i2 = diag.invariants(u0, cfg.alpha)[1]
    # rows (so the guard) and states at the multiples of t1, and at the last step, t2
    every = steps[t1] or steps[t2]
    traj = solve(replace(cfg, t_final=t2, store_every=every, diag_every=every), u0,
                 columns=())
    # solve keys the state of step s by s * dt; a time a truncated solve did
    # not pass before the guard tripped is left out, so its metrics read NaN
    end = traj.times[-1] if traj.truncated else math.inf
    at = {0.0: u0, **{t: traj.states[s * cfg.dt] for t, s in steps.items()
                      if t > 0 and s * cfg.dt < end}}
    jump = {t: diag.spectral_jump(f) for t, f in at.items()}
    moment_t1 = diag.moment_first(at[t1]) if t1 in at else math.nan
    m0 = jump[0.0]

    def predicted(t):
        rot = np.exp(1j * t)
        return rot * m0 - (0.5 * i2 * (rot - 1.0) if cfg.nonlinear else 0.0)

    tol = 1e-3 if cfg.nonlinear else 1e-6
    errs = {t: abs(jump.get(t, math.nan) - predicted(t)) / abs(predicted(t))
            for t in (t1, t2)}
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
            f"jump m(0) = {m0:.6e}",
        ], solves={"main": traj})
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
    if (len(L_list) < 2 or len(set(L_list)) < len(L_list)
            or not all(0.0 < L < math.inf for L in L_list)):
        raise ConfigurationError(
            "box_list needs at least two distinct positive finite box sizes, "
            f"got {list(L_list)}")
    L_list = sorted(L_list)
    t = cfg.t_final
    alpha = cfg.alpha
    u0 = cfg.ic.build(cfg.grid())
    zero_mean = is_zero_mean(integrate(u0), l2_norm(u0), _MEAN_TOL)
    if zero_mean:
        _mean_free(u0, "decay scans")
    r_crit = 1.5 + alpha
    fits = []                   # tail decay fit per box
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
        fits.append(diag.decay_fit(u_t, window))
        for r in wnorms:
            wnorms[r].append(diag.weighted_norm(u_t, r))
    ps = [fit.fitted_p for fit in fits]
    rejected = [(L, fit.residual) for L, fit in zip(L_list, fits) if not fit.accepted]
    # a rejected fit's exponent is no measurement, whatever the extrapolation
    # from it reads; the bias from the periodized tail shrinks like 1/L, so
    # accepted exponents are extrapolated when monotone
    if rejected:
        p = math.nan
    elif np.all(np.diff(ps) <= 0) or np.all(np.diff(ps) >= 0):
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
    if rejected:
        notes.append("tail_exponent is NaN: decay fit rejected at " + ", ".join(
            f"L = {L:g} (residual {res:.4f})" for L, res in rejected))
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


def _commutator_residual(u: Field, alpha: float) -> float:
    """Relative residual of the coordinate commutator with the dispersion
    generator, [x, d/dx D^alpha] u = -(1+alpha) D^alpha u."""
    gen = dispersion_symbol(alpha)
    a_term = coordinate_multiply(apply_multiplier(u, gen)).samples
    b_term = apply_multiplier(coordinate_multiply(u), gen).samples
    c_term = (1.0 + alpha) * frac_deriv(u, alpha).samples
    return _rel_err(a_term - b_term, -c_term)


def run_symmetry_checks(cfg: SimConfig, lam: float) -> ExperimentReport:
    """Scaling covariance of the flow and the coordinate commutation laws.

    (a) lam^alpha u(lam x, lam^(1+alpha) t) solves the equation when u
    does; (b) the free flow commutes with x + (1+alpha) t D^alpha;
    (c) [x, d/dx D^alpha] f = -(1+alpha) D^alpha f.
    The data must have zero mean and decay to 0 at the box edge: D^alpha
    of data with a mean decays like |x|^-(1+alpha), so x D^alpha u reaches
    the box edge, and a shelf makes x u a box-sized sawtooth.  x D^alpha u0
    must fit the box as well (tail fraction within tail_tol), which zero-mean
    data with a first moment can miss.
    """
    if not (-1.0 < cfg.alpha < 1.0) or cfg.alpha == 0.0:
        raise ConfigurationError("symmetry checks need -1 < alpha < 1, alpha != 0")
    if not (0.5 <= lam <= 2.0):
        raise ConfigurationError(f"lambda must lie in [1/2, 2], got {lam}")
    if cfg.ic.family in ("random_band", "file"):      # drawn or read on the box itself
        raise ConfigurationError(
            f"scaling check supports analytic families only, not '{cfg.ic.family}'")
    grid = cfg.grid()
    alpha = cfg.alpha
    u0 = cfg.ic.build(grid)
    _mean_free(u0, "symmetry checks")
    reach = diag.tail_fraction(coordinate_multiply(frac_deriv(u0, alpha)).samples, grid)
    if reach > cfg.tail_tol:
        raise ConfigurationError(
            f"symmetry checks: x D^alpha u0 reaches the box edge (tail fraction "
            f"{reach:.2e} > tail_tol {cfg.tail_tol:g}); data with a first moment "
            f"needs a larger box")

    # (a) two solver runs compared through the scaling map; the nodes of the
    #     box lam L are lam x, so the data built there is u0(lam x)
    scaled = cfg.ic.build(make_grid(cfg.n, lam * cfg.length))
    u0_scaled = Field(grid, lam ** alpha * scaled.samples)
    if diag.tail_fraction(u0_scaled.samples, grid) > cfg.tail_tol:
        raise ConfigurationError("rescaled data does not fit the box")
    T1 = cfg.t_final
    T2 = T1 / lam ** (1.0 + alpha)
    traj1 = solve(replace(cfg, t_final=T1), u0, columns=())
    dt2 = T2 / max(1, int(round(T2 / cfg.dt)))
    traj2 = solve(replace(cfg, t_final=T2, dt=dt2), u0_scaled, columns=())
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
    lhs = (coordinate_multiply(vt).samples
           + (1.0 + alpha) * t * frac_deriv(vt, alpha).samples)
    rhs = linear_propagator(coordinate_multiply(u0), t, alpha)
    comm_res = _rel_err(lhs, rhs.samples)

    return ExperimentReport(
        "symmetry_checks",
        {
            "scaling_residual": MetricEntry(scale_res, 0.0, 1e-6),
            "commuting_field_residual": MetricEntry(comm_res, 0.0, 1e-8),
            "coordinate_commutator_residual": MetricEntry(
                _commutator_residual(u0, alpha), 0.0, 1e-8),
        },
        notes=[f"lambda = {lam:g}, matched times ({T1:g}, {T2:g})"], solves=runs)


# ---------------------------------------------------------------------------
# wave breaking


def _grad_sup(traj: Trajectory) -> np.ndarray:
    """The gradient sup max(-min u_x, 0) of each row."""
    return np.maximum(-traj.rows["min_ux"], 0.0)


def _crossing_time(ts, ys, level) -> float:
    """The first time the rows ``ys`` at times ``ts`` reach ``level`` from
    below, linear between rows: ts[0] when the first row is already at or
    above it, NaN when no row reaches it."""
    above = np.nonzero(ys >= level)[0]
    if not above.size:
        return math.nan
    j = above[0]
    if j == 0:
        return float(ts[0])
    frac = (level - ys[j - 1]) / (ys[j] - ys[j - 1])
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
    _mean_free(u0, "wave-breaking run")
    traj = solve(cfg, u0, columns=("min_ux",))
    gs = _grad_sup(traj)
    g0 = gs[0]
    onset = _crossing_time(traj.times, gs, 10.0 * g0)
    notes = []
    if traj.truncated and math.isnan(onset):
        notes.append("INCONCLUSIVE: tail contamination before gradient growth")
    half = replace(cfg, dt=0.5 * cfg.dt, diag_every=2 * cfg.diag_every)
    traj_h = solve(half, u0, columns=("min_ux",))
    onset_h = _crossing_time(traj_h.times, _grad_sup(traj_h), 10.0 * g0)
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
    _nonzero(u0, "convergence")
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
        # log2 of the ratio of the step errors at dt and dt/2, if finite and positive
        ratio = errs[0] / errs[1] if errs[1] > 0 else math.nan
        order = math.log2(ratio) if 0 < ratio < math.inf else math.nan
        step = {"richardson_order": MetricEntry(order, 4.0, 0.2)}
    else:
        step = {"linear_step_error": MetricEntry(float(np.max(errs)), 0.0, 1e-12)}
    return ExperimentReport(
        "convergence", {**step, "picard_agreement": MetricEntry(pic_err, 0.0, 1e-6)},
        [f"step errors against dt/8: {errs[0]:.3e} at dt, {errs[1]:.3e} at dt/2"],
        solves=runs)


# ---------------------------------------------------------------------------
# acceptance criteria


# reference resolution of the criteria, unless a criterion pins its own
_REF = dict(dt=1e-3, t_final=1.0, n=4096, length=200.0, diag_every=100)
_ODD = InitialCondition("odd_gaussian", (-4.0, 1.0))     # t* = 2 sqrt(2) at alpha = 0.5


def _ref_cfg(alpha: float, **kw) -> SimConfig:
    """A config at the reference resolution, its keys overridden by ``kw``."""
    return SimConfig(alpha=alpha, **{**_REF, **kw})


_BH = _ref_cfg(-1.0, ic=InitialCondition("odd_gaussian", (0.5, 1.0)), tail_tol=1e-5)


def _conservation(alpha: float) -> ExperimentReport:
    """Criterion 1: I2 and I1 drift at dt = 1e-3, and the ratio of the I3
    drifts at dt = 0.02 and 0.01, where the step error is above round-off."""
    cfg = _ref_cfg(alpha, ic=InitialCondition("gaussian", (0.2, 1.0, 0.0), True), tail_tol=1.0)
    rows = solve(cfg, columns=("i1", "i2")).rows
    i1, i2 = rows["i1"], rows["i2"]
    drifts = []
    for dt in (0.02, 0.01):
        i3 = solve(replace(cfg, dt=dt, diag_every=int(round(1.0 / dt))),
                   columns=("i3",)).rows["i3"]
        drifts.append(abs(i3[-1] - i3[0]))
    return ExperimentReport("conservation", {
        "i2_drift": MetricEntry(abs(i2[-1] - i2[0]) / i2[0], 0.0, 1e-8),
        "i1_drift": MetricEntry(abs(i1[-1] - i1[0]), 0.0, 1e-12),
        "i3_halving_ratio": MetricEntry(drifts[0] / max(drifts[1], 1e-300), 8.0, 0.0, "ge"),
    })


def _tstar() -> ExperimentReport:
    """Criterion 3: the t* campaign, and t* (twice its expected crossing) = 2 sqrt(2)."""
    report = run_tstar(_ref_cfg(0.5, ic=_ODD, tail_tol=1e-6, t_final=3.0))
    report.metrics["t_star"] = MetricEntry(
        2.0 * report.metrics["zero_crossing"].expected, 2.0 * math.sqrt(2.0), 1e-6)
    return report


def _stein_asymptotics() -> ExperimentReport:
    """Criterion 6: log-log slopes of S_b of |xi|^beta below and above the
    cut-off, the sqrt-log branch at beta = b, and the worst relative error of
    S_b of exp(i t sign xi) against 2 |sin t| (2b)^(-1/2) x^(-b) at 18 (b, t, x)."""
    def slope(b, beta, pts, regime):
        return stein_slope_fit(SteinRequest(b, power_cutoff(beta), pts), regime)
    small = slope(0.5, 0.2, np.geomspace(1e-5, 1e-3, 7), "small_eta")
    large = slope(0.5, 0.6, np.geomspace(5.0, 80.0, 7), "large_eta")
    at_b = slope(0.4, 0.4, np.geomspace(1e-6, 1e-3, 8), "small_eta")
    xs = np.array([0.5, 1.0, 2.0])
    worst = 0.0
    for b in (0.25, 0.5, 0.75):
        for t in (0.5, math.pi / 2):
            values = stein_derivative(SteinRequest(b, sign_propagator(t), xs)).values
            exact = 2 * abs(math.sin(t)) * (2 * b) ** -0.5 * xs ** -b
            worst = max(worst, float(np.max(np.abs(values - exact) / exact)))
    return ExperimentReport("stein_asymptotics", {
        "small_eta_slope": MetricEntry(small.fitted_slope, -0.3, 0.05),
        "large_eta_slope": MetricEntry(large.fitted_slope, -1.0, 0.05),
        "sqrt_log_detected": MetricEntry(float(at_b.log_correction_detected), 1.0, 0.0),
        "closed_form_rel_error": MetricEntry(worst, 0.0, 1e-3, "le"),
    })


def _nonmembership(alpha: float, t: float, order: float) -> ExperimentReport:
    """Criterion 7: the truncated norm of order ``order`` diverges like log(1/eps)."""
    table = nonmembership_scan(alpha, t, order, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5))
    return ExperimentReport("nonmembership", {
        "divergent": MetricEntry(float(table.divergent), 1.0, 0.0),
        "fitted_c": MetricEntry(table.fitted_c, 0.0, 0.0, "gt"),
        "residual": MetricEntry(table.residual, 0.0, 0.10, "le"),
    })


def _identities() -> ExperimentReport:
    """Criterion 8: d/dx D^alpha = -H D^(1+alpha) and the coordinate
    commutator, worst of alpha = -0.5 and 0.5, and the symmetry campaign's
    lambda = 2 scaling and commuting-field residuals."""
    f = InitialCondition("sine_packet", (1.0, 3.0, 4.0)).build(make_grid(4096, 200.0))
    fact = comm = 0.0
    for alpha in (-0.5, 0.5):
        lhs = apply_multiplier(f, dispersion_symbol(alpha)).samples
        rhs = apply_multiplier(frac_deriv(f, 1.0 + alpha), hilbert_symbol()).samples
        fact = max(fact, _rel_err(-rhs, lhs))
        comm = max(comm, _commutator_residual(f, alpha))
    sym = run_symmetry_checks(
        _ref_cfg(0.5, ic=InitialCondition("sine_packet", (0.1, 2.0, 4.0)), t_final=0.5), 2.0)
    return ExperimentReport("identities", {
        "factorisation_residual": MetricEntry(fact, 0.0, 1e-8),
        "commutator_residual": MetricEntry(comm, 0.0, 1e-8),
        "scaling_residual": sym.metrics["scaling_residual"],
        "commuting_field_residual": sym.metrics["commuting_field_residual"],
    })


def _probe_stability(kind: str) -> ExperimentReport:
    """Criterion 9: the ensemble's max ratio changes by less than 2x under
    grid doubling, i.e. |log2 of the change| < 1."""
    params = ProbeParams(beta=0.5, gamma=0.25, l=1, m=0)
    mx1, mx2 = (probe_ensemble(kind, make_grid(n, 100.0), params, n_pairs=50)[0]
                for n in (1024, 2048))
    ratio = mx2 / mx1 if mx1 > 0 else math.inf
    change = abs(math.log2(ratio)) if 0 < ratio < math.inf else math.inf
    return ExperimentReport("probe_stability", {
        "log2_max_ratio_change": MetricEntry(change, 0.0, 1.0, "lt")})


def _solver_validity() -> ExperimentReport:
    """Criterion 10: the convergence campaign at dt = 0.02, whose dt/8
    reference is dt = 0.0025, and a bit-identical rerun."""
    cfg = _ref_cfg(0.5, ic=InitialCondition("gaussian", (0.1, 1.0, 0.0), True),
                   tail_tol=1.0, t_final=0.5)
    report = run_convergence(replace(cfg, dt=0.02))
    a, b = (solve(replace(cfg, t_final=0.1), columns=("i2",)) for _ in range(2))
    identical = (np.array_equal(a.final.samples, b.final.samples)
                 and np.array_equal(a.rows["i2"], b.rows["i2"]))
    report.metrics["bit_identical_rerun"] = MetricEntry(float(identical), 1.0, 0.0)
    return report


@dataclass(frozen=True)
class Criterion:
    """One row of the acceptance table: ``run`` reports on the criterion's
    reference data, and the row gates its ``metrics``."""

    label: str
    run: Callable[[], ExperimentReport]
    metrics: tuple

    def report(self) -> ExperimentReport:
        """The gated metrics of one run under the row's label."""
        metrics = self.run().metrics
        return ExperimentReport(self.label, {key: metrics[key] for key in self.metrics})


_JUMP_LAWS = ("jump_law_rel_error_t1", "jump_law_rel_error_t2")

#: the acceptance criteria in order, one row per run
CRITERIA = (
    *(Criterion(f"c1-conservation-alpha={a:g}", partial(_conservation, a),
                ("i2_drift", "i1_drift", "i3_halving_ratio")) for a in (-1.0, -0.5, 0.5)),
    # the law's side conditions are gated at alpha = 0.5
    Criterion("c2-moment-law-alpha=-0.5", partial(
        run_moment_law, _ref_cfg(-0.5, ic=_ODD, tail_tol=1.0, t_final=2.0)),
        ("moment_max_deviation",)),
    Criterion("c2-moment-law-alpha=0.5", partial(
        run_moment_law, _ref_cfg(0.5, ic=_ODD, tail_tol=1.0, t_final=2.0)),
        ("moment_max_deviation", "dispersive_mean", "moment_slope")),
    Criterion("c3-tstar", _tstar, ("integral_residual", "zero_crossing", "t_star")),
    Criterion("c4-jump-evolution", partial(run_two_time_bh, _BH, 0.5, 1.0),
              (*_JUMP_LAWS, "identity_residual_vs_prediction")),
    Criterion("c4-jump-evolution-linear",
              partial(run_two_time_bh, replace(_BH, nonlinear=False), 0.5, 1.0), _JUMP_LAWS),
    *(Criterion(f"c5-decay-threshold-alpha={a:g}", partial(
        run_decay_threshold, _ref_cfg(a, ic=InitialCondition("gaussian", (1.0, 1.0, 0.0))),
        [], [200.0, 400.0, 800.0]),
        ("tail_exponent", "critical_norm_growth", "subcritical_norm_convergence"))
      for a in (-1.0, -0.5, 0.5)),
    Criterion("c6-stein-asymptotics", _stein_asymptotics, ("small_eta_slope",
              "large_eta_slope", "sqrt_log_detected", "closed_form_rel_error")),
    *(Criterion(f"c7-nonmembership-alpha={a:g}-order={order:g}",
                partial(_nonmembership, a, t, order), ("divergent", "fitted_c", "residual"))
      for a, t, order in ((-0.7, 1.0, 0.8), (-0.5, 1.0, 1.0), (0.3, 0.0, 0.8))),
    Criterion("c8-identities", _identities, ("factorisation_residual", "commutator_residual",
                                             "scaling_residual", "commuting_field_residual")),
    *(Criterion(f"c9-probe-{kind}", partial(_probe_stability, kind), ("log2_max_ratio_change",))
      for kind in _PROBE_KINDS),
    Criterion("c10-solver-validity", _solver_validity,
              ("richardson_order", "picard_agreement", "bit_identical_rerun")),
)
