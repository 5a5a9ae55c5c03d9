"""Pointwise square-function derivative, its asymptotic laws, and
commutator-inequality probes.

The central object is the square-integral difference quotient

    S_b f(x) = ( integral |f(x) - f(y)|^2 / |x - y|^(1+2b) dy )^(1/2)

for 0 < b < 1, evaluated by composite Gauss-Legendre quadrature on
dyadic panels accumulating at the difference singularity y = x and at
every kink of the target.  The inner ball |y - x| < delta is excluded
from the value and accounted for in the error estimate through a local
Hölder envelope (an infinite one makes the estimate infinite); the tail
beyond |y| > y_max is added analytically when the target has exact
constant limits, in the mean with a reported uncertainty when it
oscillates, and otherwise left out with an infinite estimate.

Only :func:`stein_derivative` computes error estimates, which cost a
second, half-panel quadrature per point.  The slope fits, the propagator
bound and the non-membership scans read values alone and skip it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .diagnostics import line_fit
from .errors import ConfigurationError, DomainError, NumericError
from .spectral import (apply_to_samples, derivative_symbol, flat_top_bump,
                       frac_deriv_symbol, hilbert_symbol, l2_rows, lowpass_symbol,
                       random_band, weight_profile)

#: radius of the excluded inner ball about eta, relative to max(|eta|, INNER_FLOOR)
INNER_RADIUS = 1e-8
INNER_FLOOR = 1e-4
#: |eta| samples, geometric from the smallest radius to 1, of a non-membership scan
SCAN_POINTS = 48
#: wavenumber band (k_lo, k_hi) of the probe ensembles' unit-norm random fields
PROBE_BAND = (0.5, 4.0)
#: bytes of one (rows, n) float sample array in a probe ensemble's row block
_PROBE_BLOCK_BYTES = 128 * 1024
#: quadrature panels whose nodes one block of :func:`_quad_sq` evaluates
_QUAD_BLOCK_PANELS = 512


# ---------------------------------------------------------------------------
# targets


@dataclass(frozen=True)
class SteinTarget:
    """Closed-form target of the square-function derivative.

    ``tail_limits`` holds exact constant limits (c_plus, c_minus) beyond
    the quadrature truncation; ``oscillatory_tail`` marks unimodular
    oscillating targets whose tail is added in the mean.  ``holder``
    maps an evaluation point to (exponent, constant) of the local
    increment bound; ``nonholder`` lists points where the derivative
    does not exist pointwise.  ``power`` is beta for the power targets
    |xi|^beta and sign(xi)|xi|^beta under the cutoff, None otherwise.
    ``polar`` writes f = A exp(i phi): it maps points to the real arrays
    (A, phi), with A None where |f| = 1, and ``func`` is derived from it.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple = ()
    tail_limits: Optional[tuple] = None
    oscillatory_tail: bool = False
    holder: Optional[Callable[[float], tuple]] = None
    nonholder: tuple = ()
    power: Optional[float] = None
    polar: Optional[Callable[[np.ndarray], tuple]] = None


def _polar_func(polar: Callable[[np.ndarray], tuple]) -> Callable:
    """f = A exp(i phi) of a target in polar form."""
    def f(y):
        amp, phase = polar(y)
        unit = np.exp(1j * phase)
        return unit if amp is None else amp * unit
    return f


def _cutoff_target(name: str, core: Callable, origin_holder: tuple,
                   lipschitz: Callable[[float], float],
                   power: Optional[float] = None,
                   phase: Optional[Callable] = None) -> SteinTarget:
    """Real core(xi) under the smooth flat-top cutoff (1 on |xi|<=1, 0
    beyond 2), times exp(i phase(xi)) when a real ``phase`` is given.

    The Hölder pair at the origin is ``origin_holder``; elsewhere the
    target is Lipschitz with constant ``lipschitz(|eta|)``.
    """
    def cut(y):
        # the bump is exactly 1 on |y| <= 1 and exactly 0 on |y| >= 2, so
        # core is evaluated inside |y| < 2 and the bump only between
        ay = np.abs(y)
        inner = ay < 2.0
        y_in = y[inner]
        vals = core(y_in)
        ramp = ay[inner] > 1.0
        vals[ramp] *= flat_top_bump(y_in[ramp], 1.0)
        out = np.zeros(np.shape(y))
        out[inner] = vals
        return out

    def holder(eta):
        if abs(eta) < 1e-13:
            return origin_holder
        return (1.0, lipschitz(abs(eta)))

    polar = None if phase is None else lambda y: (cut(y), phase(y))
    return SteinTarget(name, cut if polar is None else _polar_func(polar),
                       breakpoints=(0.0, -1.0, 1.0, -2.0, 2.0), tail_limits=(0.0, 0.0),
                       holder=holder, power=power, polar=polar)


def power_cutoff(beta: float) -> SteinTarget:
    """|xi|^beta under the smooth flat-top cutoff (1 on |xi|<=1, 0 beyond 2)."""
    if not (0 < beta < math.inf):
        raise ConfigurationError(f"power exponent beta must lie in (0, inf), got {beta}")
    return _cutoff_target(f"|xi|^{beta:g}*cutoff", lambda y: np.abs(y) ** beta,
                          (min(beta, 1.0), 1.0),
                          lambda a: beta * a ** (beta - 1.0) + 2.0, power=beta)


def signed_power_cutoff(beta: float) -> SteinTarget:
    """sign(xi)|xi|^beta under the smooth flat-top cutoff."""
    if not (0 < beta < math.inf):
        raise ConfigurationError(f"power exponent beta must lie in (0, inf), got {beta}")
    return _cutoff_target(f"sign*|xi|^{beta:g}*cutoff",
                          lambda y: np.sign(y) * np.abs(y) ** beta,
                          (min(beta, 1.0), 2.0),
                          lambda a: beta * a ** (beta - 1.0) + 2.0, power=beta)


def _abs_power(y: np.ndarray, alpha: float) -> np.ndarray:
    """|y|^alpha with the symbols' convention |0|^alpha = 0."""
    ay = np.abs(y)
    with np.errstate(divide="ignore"):          # 0 ** alpha for alpha < 0
        return np.where(ay > 0, ay ** alpha, 0.0)


def propagator_target(alpha: float, t: float) -> SteinTarget:
    """Unitary dispersive propagator exp(i t xi |xi|^alpha)."""
    if not (-1.0 <= alpha < 1.0) or alpha == 0.0:
        raise ConfigurationError(f"alpha must lie in [-1,1) nonzero, got {alpha}")
    if not math.isfinite(t):
        raise ConfigurationError(f"time t must be finite, got {t}")

    def polar(y):
        return None, t * y * _abs_power(y, alpha)

    def holder(eta):
        if abs(eta) < 1e-13:
            return (min(1.0, 1.0 + alpha), abs(t) + 1.0)
        return (1.0, abs(t) * (1.0 + abs(alpha)) * abs(eta) ** alpha + 1.0)

    return SteinTarget(f"exp(i*{t:g}*xi|xi|^{alpha:g})", _polar_func(polar),
                       breakpoints=(0.0,), oscillatory_tail=True, holder=holder,
                       polar=polar)


def sign_propagator(t: float) -> SteinTarget:
    """exp(i t sign(xi)): locally constant, one jump at the origin."""
    if not math.isfinite(t):
        raise ConfigurationError(f"time t must be finite, got {t}")

    # the three values exp(i t sign) takes, indexed by sign + 1
    levels = np.exp(1j * t * np.array([-1.0, 0.0, 1.0]))

    def f(y):
        return levels[np.sign(y).astype(np.intp) + 1]

    def holder(eta):
        return (math.inf, 0.0)   # locally constant away from 0

    return SteinTarget(f"exp(i*{t:g}*sign)", f, breakpoints=(0.0,),
                       tail_limits=(np.exp(1j * t), np.exp(-1j * t)),
                       holder=holder, nonholder=(0.0,))


def weight_target(theta: float, n_w: float) -> SteinTarget:
    """The truncated coordinate weight :func:`spectral.weight_profile` of |xi|;
    its tail limit (2N)^theta is reached by 3N only for large N."""
    if not (0 < theta <= 1):
        raise ConfigurationError(f"theta must lie in (0,1], got {theta}")
    if not (0 < n_w < math.inf):
        raise ConfigurationError(
            f"weight scale n_w must be positive and finite, got {n_w}")
    flat = (2.0 * n_w) ** theta
    return SteinTarget(f"weight(theta={theta:g},N={n_w:g})",
                       lambda y: weight_profile(np.abs(y), n_w, theta),
                       breakpoints=(-3.0 * n_w, -n_w, n_w, 3.0 * n_w),
                       tail_limits=(flat, flat),
                       holder=lambda eta: (1.0, 1.0))


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadSpec:
    y_max: float = 1e3
    n_panels: int = 2048


@dataclass(frozen=True)
class SteinRequest:
    b: float
    target: SteinTarget
    eval_points: np.ndarray
    quad: QuadSpec = field(default_factory=QuadSpec)

    def __post_init__(self):
        if not (0.0 < self.b < 1.0):
            raise ConfigurationError(f"order b must lie in (0,1), got {self.b}")
        pts = np.atleast_1d(np.asarray(self.eval_points, dtype=float))
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError(f"evaluation points must be finite, got {pts}")
        object.__setattr__(self, "eval_points", pts)


@dataclass
class SteinResult:
    values: np.ndarray
    error_estimates: np.ndarray


# The 16-point Gauss-Legendre rule (nodes, weights) on [-1, 1], written out
# with the bits of numpy.polynomial.legendre.leggauss(16)
_GAUSS_LEGENDRE = (
    np.array([-0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
              -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
              -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
              0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
              0.755404408355003, 0.8656312023878318, 0.9445750230732326,
              0.9894009349916499]),
    np.array([0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
              0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
              0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
              0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
              0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
              0.027152459411754176]))


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)`` for a NaN-free 1-d float array, by its own algorithm:
    one sort, then the first of each run of equal values.  np.unique
    itself loads numpy.ma."""
    s = np.sort(x)
    first = np.empty(s.size, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


def _increment(target: SteinTarget, eta: float, fe) -> Callable:
    """y -> |fe - f(y)|^2 for fe = f(eta); a target with a polar form uses
    (A(eta) - A(y))^2 + 4 A(eta) A(y) sin^2((phi(eta) - phi(y))/2)."""
    if target.polar is not None:
        amp_e, phase_e = target.polar(np.asarray([eta]))
        phase_e = phase_e[0]
        if amp_e is None:
            return lambda y: 4.0 * np.sin(0.5 * (phase_e - target.polar(y)[1])) ** 2
        amp_e = amp_e[0]

        def increment(y):
            amp, phase = target.polar(y)
            return ((amp_e - amp) ** 2
                    + 4.0 * amp_e * amp * np.sin(0.5 * (phase_e - phase)) ** 2)
        return increment
    return lambda y: np.abs(fe - target.func(y)) ** 2


def _quad_sq(increment: Callable, eta: float, b: float, delta: float, y_max: float,
             centers: np.ndarray, r: np.ndarray) -> float:
    """Quadrature of increment(y) |eta-y|^(-1-2b) over delta < |y-eta|, |y| < y_max,
    on the dyadic panels of radii r[j] about centers[j]."""
    centers = centers[:, None]
    edges = np.concatenate([centers - r[:, ::-1], centers + r], axis=None)
    edges = edges[(edges >= -y_max) & (edges <= y_max)]
    edges = _sorted_distinct(np.concatenate([[-y_max], edges, [y_max]]))
    a, c = edges[:-1], edges[1:]
    keep = ~((a >= eta - 1.0000001 * delta) & (c <= eta + 1.0000001 * delta))
    a, c = a[keep], c[keep]
    mid, half = 0.5 * (a + c), 0.5 * (c - a)
    nodes, weights = _GAUSS_LEGENDRE
    # integrand times weight per node, filled _QUAD_BLOCK_PANELS panels at a
    # time; one sum over the whole table is the reduction, and so gives the
    # bits, of a single-array evaluation
    terms = np.empty((mid.size, nodes.size))
    for s in range(0, mid.size, _QUAD_BLOCK_PANELS):
        blk = slice(s, s + _QUAD_BLOCK_PANELS)
        h = half[blk, None]
        y = mid[blk, None] + h * nodes
        vals = increment(y) / np.abs(eta - y) ** (1.0 + 2.0 * b)
        np.multiply(vals, h * weights, out=terms[blk])
    return float(np.sum(terms))


def _tail_sq(target: SteinTarget, eta: float, fe: complex, b: float, y_max: float):
    """(analytic tail added to the value, residual uncertainty) beyond y_max;
    a target with neither tail model has an unbounded tail uncertainty."""
    up = (y_max - eta) ** (-2.0 * b) / (2.0 * b)
    dn = (y_max + eta) ** (-2.0 * b) / (2.0 * b)
    if target.tail_limits is not None:
        cp, cm = target.tail_limits
        return abs(fe - cp) ** 2 * up + abs(fe - cm) ** 2 * dn, 0.0
    if target.oscillatory_tail:
        # |f(eta)-f(y)|^2 oscillates about 2 for unimodular targets
        est = 2.0 * (up + dn)
        return est, 0.5 * est
    return 0.0, math.inf


def _inner_sq_bound(target: SteinTarget, eta: float, b: float, delta: float) -> float:
    if target.holder is None:
        return math.inf
    gamma, const = target.holder(eta)
    if not math.isfinite(gamma):
        return 0.0
    if gamma <= b:
        return math.inf
    return 2.0 * const ** 2 * delta ** (2.0 * (gamma - b)) / (2.0 * (gamma - b))


def _n_dyadic(req: SteinRequest) -> int:
    """Dyadic panels per centre of the full rule; the refinement rule uses half."""
    return max(8, req.quad.n_panels // (2 * (1 + len(req.target.breakpoints))))


def _panels(req: SteinRequest, rules: Sequence[int]):
    """(deltas, centres, kept, radii) of every evaluation point, one row per
    point: the point itself with inner radius delta, then every breakpoint,
    kept unless within 2 delta of the point.  radii holds one table per rule
    of ``rules`` dyadic panels per centre: the panel radii from each inner
    radius out to 2 y_max, by one geomspace over the (points, centres) table."""
    etas = req.eval_points[:, None]
    bps = np.asarray(req.target.breakpoints, dtype=float)
    deltas = INNER_RADIUS * np.maximum(np.abs(etas), INNER_FLOOR)
    centres = np.concatenate([etas, np.broadcast_to(bps, (etas.size, bps.size))], axis=1)
    inners = np.concatenate([deltas, 1e-13 * np.maximum(1.0, np.abs(bps - etas))], axis=1)
    kept = np.concatenate([np.ones_like(etas, dtype=bool),
                           np.abs(bps - etas) > 2.0 * deltas], axis=1)
    radii = [np.geomspace(inners, 2.0 * req.quad.y_max, n + 1, axis=-1) for n in rules]
    return deltas[:, 0], centres, kept, radii


def _points(req: SteinRequest, rules: Sequence[int]):
    """Per evaluation point: (eta, delta, tail uncertainty, value, quadratures),
    one quadrature per rule of ``rules`` dyadic panels per centre; the value
    adds the tail to the first.  Requests at a pointwise non-Hölder point
    of the target are rejected."""
    b, target, y_max = req.b, req.target, req.quad.y_max
    for eta in req.eval_points:
        for bad in target.nonholder:
            if abs(eta - bad) < 1e-13:
                raise DomainError(
                    f"target '{target.name}' is not pointwise Hölder at {bad:g}")
    deltas, centres, kept, radii = _panels(req, rules)
    for i, eta in enumerate(req.eval_points):
        fe = target.func(np.asarray([eta]))[0]
        increment = _increment(target, eta, fe)
        sq = [_quad_sq(increment, eta, b, deltas[i], y_max, centres[i, kept[i]],
                       r[i, kept[i]]) for r in radii]
        tail_add, tail_unc = _tail_sq(target, eta, complex(fe), b, y_max)
        yield eta, deltas[i], tail_unc, math.sqrt(max(sq[0] + tail_add, 0.0)), sq


def _stein_values(req: SteinRequest) -> np.ndarray:
    """The values of :func:`stein_derivative`, without the refinement
    quadrature that only its error estimates need."""
    return np.array([p[3] for p in _points(req, [_n_dyadic(req)])])


def stein_derivative(req: SteinRequest) -> SteinResult:
    """Evaluate the square-function derivative at the requested points.

    error_estimates combine panel-refinement differences (a second,
    half-panel quadrature per point), the excluded inner ball, and any
    non-exact tail; an infinite inner-ball bound (no Hölder pair, or
    exponent <= b) or a target with neither tail model makes the
    estimate infinite.  Requests at a pointwise non-Hölder point of the
    target are rejected.
    """
    n_dyadic = _n_dyadic(req)
    values = np.empty(req.eval_points.size)
    errors = np.empty(req.eval_points.size)
    for i, (eta, delta, tail_unc, value, (full, coarse)) in enumerate(
            _points(req, [n_dyadic, n_dyadic // 2])):
        values[i] = value
        err_sq = (abs(full - coarse) + tail_unc
                  + _inner_sq_bound(req.target, eta, req.b, delta))
        # convert the squared-scale uncertainty to the value scale
        errors[i] = 0.5 * err_sq / value if value > 0 else math.sqrt(err_sq)
    return SteinResult(values, errors)


# ---------------------------------------------------------------------------
# slope fits


@dataclass
class SlopeFit:
    fitted_slope: float
    expected_slope: float
    log_correction_detected: bool
    residual: float
    accepted: bool


def stein_slope_fit(req: SteinRequest, regime: str) -> SlopeFit:
    """Log-log slope of the derivative over a small- or large-argument regime.

    For power targets |xi|^beta the expected small-argument slope is
    beta - b when beta < b, saturation (slope 0) when beta > b, and a
    square-root-of-log law exactly at beta = b, which is detected by a
    linear fit of the squared values against -log|eta|.
    """
    if regime not in ("small_eta", "large_eta"):
        raise ConfigurationError(f"unknown regime '{regime}'")
    pts = req.eval_points
    if pts.size < 6:
        raise ConfigurationError("slope fits need at least 6 evaluation points")
    values = _stein_values(req)
    beta = req.target.power
    theta = req.b
    log_branch = False
    if regime == "large_eta":
        expected = -0.5 - theta
    elif beta is None:
        expected = math.nan
    elif beta < theta:
        expected = beta - theta
    elif beta > theta:
        expected = 0.0
    else:
        log_branch = True
        expected = math.nan

    if log_branch:
        # squared values against -log eta must be an increasing line
        sq = values ** 2
        neglog = -np.log(np.abs(pts))
        slope, intercept = line_fit(neglog, sq)
        pred = slope * neglog + intercept
        ss = float(np.sum((sq - sq.mean()) ** 2)) or 1.0
        r2 = 1.0 - float(np.sum((sq - pred) ** 2)) / ss
        detected = bool(slope > 0 and r2 > 0.99)
        return SlopeFit(math.nan, math.nan, detected, 1.0 - r2, detected)

    logx, logy = np.log(np.abs(pts)), np.log(values)
    slope, intercept = line_fit(logx, logy)
    pred = slope * logx + intercept
    scale = float(np.std(logy)) or 1.0
    residual = float(np.sqrt(np.mean((logy - pred) ** 2))) / scale
    accepted = residual <= 0.25
    return SlopeFit(float(slope), expected, False, residual, accepted)


# ---------------------------------------------------------------------------
# propagator bound


def _propagator_envelope(alpha: float, b: float, t: float, x: float) -> float:
    """Growth envelope of the derivative of the dispersive propagator, t != 0."""
    at = abs(t)
    if alpha > 0:
        return at ** (b / (1.0 + alpha)) + at ** b * abs(x) ** (b * alpha)
    # -1 < alpha < 0
    lead = at ** (b / (1.0 + alpha))
    if abs(1.0 + alpha - b) > 1e-12 or abs(x) >= 1.0:
        return lead + at * abs(x) ** (1.0 + alpha - b)
    z = abs(at ** (1.0 / (1.0 + alpha)) * x)
    if z >= 1.0:
        return lead + at * abs(x) ** (1.0 + alpha - b)
    return lead * (1.0 + math.sqrt(-math.log(z)))


@dataclass
class PropagatorBoundReport:
    constant: float
    stable: bool


def propagator_stein_bound(alpha: float, b: float, t_list: Sequence[float],
                           x_list: Sequence[float],
                           quad: QuadSpec = QuadSpec()) -> PropagatorBoundReport:
    """Fitted constant sup S_b(propagator) / envelope over the sample grid.

    The constant must be stable (within 2x) under doubling of the panel
    count; ``stable`` says whether it is.
    """
    if not (0.0 < b < 1.0):
        raise ConfigurationError(f"order b must lie in (0,1), got {b}")
    if not (-1.0 < alpha < 1.0) or alpha == 0.0:
        raise ConfigurationError(f"alpha must lie in (-1,1) nonzero, got {alpha}")
    best = 0.0
    best2 = 0.0
    quad2 = replace(quad, n_panels=2 * quad.n_panels)
    for t in t_list:
        if t == 0:
            continue
        target = propagator_target(alpha, t)
        v1 = _stein_values(SteinRequest(b, target, x_list, quad))
        v2 = _stein_values(SteinRequest(b, target, x_list, quad2))
        for x, s1, s2 in zip(x_list, v1, v2):
            env = _propagator_envelope(alpha, b, t, x)
            best = max(best, s1 / env)
            best2 = max(best2, s2 / env)
    stable = best == 0.0 or (best2 / best < 2.0 and best / max(best2, 1e-300) < 2.0)
    return PropagatorBoundReport(best, stable)


# ---------------------------------------------------------------------------
# non-membership scans


@dataclass
class GrowthTable:
    fitted_c: float
    residual: float
    divergent: bool


def _bessel_weighted(alpha: float, t: float, kind: str) -> SteinTarget:
    """Targets of the truncated-norm scans, carrying the <xi>^-2 damping."""
    if kind == "propagator":
        return _cutoff_target(
            f"<xi>^-2*exp(i*{t:g}*xi|xi|^{alpha:g})*cutoff",
            lambda y: (1.0 + y ** 2) ** (-1.0), (min(1.0, 1.0 + alpha), abs(t) + 3.0),
            lambda a: abs(t) * (1 + abs(alpha)) * a ** alpha + 3.0,
            phase=lambda y: t * y * _abs_power(y, alpha))
    if kind == "symbol":
        def core(y):
            return (1.0 + y ** 2) ** (-1.0) * _abs_power(y, alpha)
        return _cutoff_target(
            f"<xi>^-2*|xi|^{alpha:g}*cutoff", core, (min(1.0, alpha), 3.0),
            lambda a: abs(alpha) * a ** (alpha - 1.0) + 3.0)
    raise ConfigurationError(f"unknown scan kind '{kind}'")


def nonmembership_scan(alpha: float, t: float, s_order: float,
                       eps_list: Sequence[float],
                       quad: QuadSpec = QuadSpec(n_panels=1024, y_max=50.0)) -> GrowthTable:
    """Truncated-norm blow-up scan near the frequency origin.

    Q(eps)^2 integrates the squared derivative of order ``s_order`` of
    the scan target over eps < |eta| < 1.  Logarithmic divergence means
    Q(eps)^2 - Q(eps_0)^2 grows affinely in log(eps_0/eps) with a
    positive fitted coefficient; the report carries the fit and its
    relative residual.

    ``s_order`` selects the scan: 3/2 + alpha probes the damped
    propagator (alpha < 0 branch, local derivative used when the order
    hits exactly 1), while 1/2 + alpha probes the damped symbol
    |xi|^alpha (0 < alpha < 1/2 branch).

    Only eta > 0 is evaluated, and the two sides add 2 S(eta)^2.  Both
    targets satisfy f(-xi) = conj f(xi), their cut-off depends on |xi|
    and their breakpoints (0, +-1, +-2) are symmetric, so the quadrature
    panels about -eta mirror those about eta and S(-eta) = S(eta) up to
    the order of summation; the same holds for |f'| on the local branch.
    """
    eps = np.sort(np.asarray(eps_list, dtype=float))[::-1]
    if eps.size < 3:
        raise ConfigurationError("need at least 3 truncation radii")
    if np.any(eps <= 0) or np.any(eps >= 1):
        raise ConfigurationError("truncation radii must lie in (0, 1)")
    if abs(s_order - (1.5 + alpha)) < 1e-9:
        kind = "propagator"
    elif abs(s_order - (0.5 + alpha)) < 1e-9:
        kind = "symbol"
    else:
        raise ConfigurationError(
            f"scan order {s_order:g} matches neither 3/2+alpha nor 1/2+alpha")
    target = _bessel_weighted(alpha, t, kind)
    etas = np.geomspace(eps[-1], 1.0, SCAN_POINTS)
    if abs(s_order - 1.0) < 1e-12:
        one_side = _local_derivative_sq(target, etas)
    else:
        if not (0 < s_order < 1):
            raise ConfigurationError(
                f"scan order {s_order:g} outside (0,1); only order 1 has a local branch")
        one_side = _stein_values(SteinRequest(s_order, target, etas, quad)) ** 2
    # the density at -eta equals the one at eta (see the docstring)
    dens = 2.0 * one_side
    q2 = np.empty(eps.size)
    for i, e in enumerate(eps):
        m = etas >= e * 0.9999
        q2[i] = np.trapezoid(dens[m], etas[m])
    lo = np.log(eps[0] / eps)
    c, intercept = line_fit(lo, q2 - q2[0])
    pred = c * lo + intercept
    span = q2[-1] - q2[0]
    residual = float(np.sqrt(np.mean((q2 - q2[0] - pred) ** 2)) / abs(span)) \
        if span != 0 else math.inf
    divergent = bool(c > 0 and residual <= 0.10)
    return GrowthTable(c, residual, divergent)


def _local_derivative_sq(target: SteinTarget, etas: np.ndarray) -> np.ndarray:
    """|f'(eta)|^2 by central differences at the (positive) scan points."""
    out = np.empty(etas.size)
    for i, e in enumerate(etas):
        h = 1e-7 * max(e, 1e-7)
        d = (target.func(np.asarray([e + h]))[0] - target.func(np.asarray([e - h]))[0]) / (2 * h)
        out[i] = abs(d) ** 2
    return out


# ---------------------------------------------------------------------------
# commutator probes


_PROBE_KINDS = ("hilbert_frac", "frac_com", "triple", "projector", "hilbert_local")


@dataclass(frozen=True)
class ProbeParams:
    beta: float = 0.5
    gamma: float = 0.25
    l: int = 1
    m: int = 0


def _sup_rows(u: np.ndarray) -> np.ndarray:
    return np.max(np.abs(u), axis=-1)


def _probe_ratios(kind: str, grid, g: np.ndarray, f: np.ndarray,
                  params: ProbeParams) -> np.ndarray:
    """Probe ratios of the row pairs (g[i], f[i]) of two (B, n) sample arrays:
    a commutator norm over its inequality's right-hand side, at p = 2.

    Every multiplier acts along the last axis and every norm reduces per
    row, so row i gives the ratio of the pair (g[i], f[i]) alone.  A
    constant g gives ratio 0; parameters outside the hypothesis of the
    inequality are rejected with the violated constraint named.
    """
    if kind not in _PROBE_KINDS:
        raise ConfigurationError(f"unknown probe kind '{kind}'")
    dx = grid.dx

    def D(h, s):
        return apply_to_samples(h, frac_deriv_symbol(s), grid)

    def H(h):
        return apply_to_samples(h, hilbert_symbol(), grid)

    def DX(h, j):
        for _ in range(j):
            h = apply_to_samples(h, derivative_symbol(), grid)
        return h

    if kind == "hilbert_frac":
        if not (params.beta > 0):
            raise ConfigurationError("hilbert_frac requires beta > 0")
        dbf = D(f, params.beta)
        lhs = l2_rows(H(g * dbf) - g * H(dbf), dx)
        rhs = _sup_rows(D(g, params.beta)) * l2_rows(f, dx)
    elif kind == "frac_com":
        if not (0 < params.beta <= 1):
            raise ConfigurationError("frac_com requires 0 < beta <= 1")
        lhs = l2_rows(D(f * g, params.beta) - f * D(g, params.beta), dx)
        rhs = l2_rows(D(f, params.beta), dx) * _sup_rows(g)
    elif kind == "triple":
        if not (0 <= params.beta < 1):
            raise ConfigurationError("triple requires 0 <= beta < 1")
        if not (0 < params.gamma <= 1 - params.beta):
            raise ConfigurationError("triple requires 0 < gamma <= 1 - beta")
        rest = D(g, 1.0 - params.beta - params.gamma)
        inner = D(f * rest, params.gamma) - f * D(rest, params.gamma)
        lhs = l2_rows(D(inner, params.beta), dx)
        rhs = _sup_rows(DX(f, 1)) * l2_rows(g, dx)
    elif kind == "projector":
        if not (params.beta >= 0):
            raise ConfigurationError("projector requires beta >= 0")
        if not (params.gamma > 0):
            raise ConfigurationError("projector requires gamma > 0")
        low = lowpass_symbol(1.0)
        def P(h):
            return apply_to_samples(h, low, grid)
        rest = D(g, params.gamma)
        inner = P(f * rest) - f * P(rest)
        lhs = l2_rows(D(inner, params.beta), dx)
        rhs = (_sup_rows(D(f, params.beta + params.gamma))
               + _sup_rows(DX(f, 1))) * l2_rows(g, dx)
    else:  # hilbert_local
        if params.l < 0 or params.m < 0 or params.l + params.m < 1:
            raise ConfigurationError(
                "hilbert_local requires integer l, m >= 0 with l + m >= 1")
        dmf = DX(f, params.m)
        inner = H(g * dmf) - g * H(dmf)
        lhs = l2_rows(DX(inner, params.l), dx)
        rhs = _sup_rows(DX(g, params.l + params.m)) * l2_rows(f, dx)

    degenerate = (lhs != 0.0) & (rhs == 0.0)
    if np.any(degenerate):
        raise DomainError(
            f"degenerate probe: zero right-hand side with lhs {lhs[degenerate][0]:g}")
    ratios = np.divide(lhs, rhs, out=np.zeros(lhs.shape), where=lhs != 0.0)
    if not np.all(np.isfinite(ratios)):
        raise NumericError(f"probe '{kind}' produced non-finite ratios")
    return ratios


def probe_ensemble(kind: str, grid, params: ProbeParams, n_pairs: int = 50,
                   seed: int = 0):
    """Max and median probe ratio over seeded band-limited field pairs.

    Pair i is (g, f) of seeds (seed + 2i, seed + 2i + 1).  The pairs go
    through the probe in blocks of rows, each sample array of a block
    within ``_PROBE_BLOCK_BYTES``, so memory does not grow with n_pairs.
    Every row is drawn, normalised and probed on its own, so the ratios
    do not depend on the block size, and the first failing block holds
    the first failing pair.
    """
    if n_pairs < 1:
        raise ConfigurationError(f"pairs must be >= 1, got {n_pairs}")
    rows = max(1, _PROBE_BLOCK_BYTES // (8 * grid.n))

    def block(start):
        seeds = range(seed + 2 * start, seed + 2 * min(start + rows, n_pairs), 2)
        g = random_band(grid, seeds, *PROBE_BAND, 1.0)
        f = random_band(grid, [s + 1 for s in seeds], *PROBE_BAND, 1.0)
        return _probe_ratios(kind, grid, g, f, params)

    # one sort gives the max and np.median's value, the mean of the middle
    # one or two ratios, without the numpy.ma that np.median loads
    s = np.sort(np.concatenate([block(start) for start in range(0, n_pairs, rows)]))
    return float(s[-1]), float((s[(n_pairs - 1) // 2] + s[n_pairs // 2]) / 2)
