"""Invariants, moments, weighted norms, tail-decay fits and the
near-zero spectral jump estimator.

All integrals use the rectangle rule native to the periodic grid, which
is spectrally accurate for smooth periodic integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .spectral import (Field, Grid, derivative_symbol, frac_deriv_symbol, is_zero_mean,
                       line_spectrum, multiplier_table, require_zero_mean)

#: fits are rejected above this (relative rms) log-log residual
FIT_RESIDUAL_MAX = 0.05
#: tail-mass radii per decay fit, geometrically spaced over the fit window
FIT_RADII = 12


#: the row columns make_record computes, in diagnostics.csv order; "wnorms"
#: stands for one w_<order> column per weight order
COLUMNS = ("i1", "i2", "i3", "moment_x", "max_u", "min_ux", "tail_frac", "wnorms")


def weight_column(r: float) -> str:
    """The row column of the weighted norm of order r."""
    return f"w_{r:g}"


def invariants(f: Field, alpha: float, spectrum: Optional[np.ndarray] = None):
    """The three formally conserved functionals (i1, i2, i3).

    i3 needs D^(alpha/2); for alpha < 0 that operator lives on the
    zero-mean class, so i3 is NaN when the mean is not negligible.
    ``spectrum`` is the real-FFT half spectrum of ``f`` when the caller
    already holds it; the D^(alpha/2) term is summed from it by Parseval.
    """
    dx = f.grid.dx
    u = f.samples
    u2 = u * u
    i1 = float(np.sum(u) * dx)
    i2 = float(np.sum(u2) * dx)
    if alpha < 0 and not is_zero_mean(i1, math.sqrt(i2)):
        return i1, i2, math.nan
    uh = np.fft.rfft(u) if spectrum is None else spectrum
    half_sq = np.sum(_parseval_weights(f.grid, alpha) * (uh.real ** 2 + uh.imag ** 2))
    return i1, i2, float(half_sq - np.sum(u2 * u) * dx / 3.0)


def _parseval_weights(grid: Grid, alpha: float) -> np.ndarray:
    """Parseval weights for ||D^(alpha/2) u||^2 on the half grid.

    Modes 1..n/2-1 stand for a pair and weigh 2; modes 0 and n/2 weigh 1;
    dx/n turns the sum into the rectangle-rule integral.
    """
    w = np.full(grid.n // 2 + 1, 2.0 * grid.dx / grid.n)
    w[[0, -1]] *= 0.5
    w *= np.abs(multiplier_table(frac_deriv_symbol(alpha / 2.0), grid)) ** 2
    return w


def moment_first(f: Field) -> float:
    """Box first moment sum x_j u_j dx (meaningful only for clean tails)."""
    return float(np.sum(f.grid.x * f.samples) * f.grid.dx)


def weighted_norm(f: Field, r: float) -> float:
    """L2 norm against the weight <x>^r = (1+x^2)^(r/2)."""
    if not (0 <= r < math.inf):
        raise ConfigurationError(f"weight order must be >= 0 and finite, got {r}")
    w2r = (1.0 + f.grid.x ** 2) ** r
    return float(np.sqrt(np.sum(w2r * f.samples ** 2) * f.grid.dx))


def tail_mass(f: Field, radius: float) -> float:
    """Squared mass beyond |x| > radius."""
    sel = np.abs(f.grid.x) > radius
    return float(np.sum(f.samples[sel] ** 2) * f.grid.dx)


def outer_region(grid: Grid) -> np.ndarray:
    """Mask of the nodes in the outer 10 percent of the box, |x| > 0.45 L."""
    return np.abs(grid.x) > 0.45 * grid.length


def tail_fraction(samples: np.ndarray, grid: Grid) -> float:
    """Fraction of the squared fluctuation mass in the outer 10 percent.

    The outer region is compared against its own mean level: a flat
    shelf near the boundary (the gauge constant left by zero-mean
    projection) carries no boundary information, whereas any wave
    structure there counts as contamination.
    """
    outer = outer_region(grid)
    fluct = samples - np.mean(samples)
    total = float(np.sum(fluct ** 2))
    if total == 0:
        return 0.0
    shelf = samples[outer] - np.mean(samples[outer])
    return float(np.sum(shelf ** 2)) / total


@dataclass
class DecayFit:
    fitted_p: float
    residual: float
    accepted: bool


def decay_fit(f: Field, window: tuple) -> DecayFit:
    """Pointwise decay exponent from the tail-mass profile.

    For |u| ~ |x|^-p the half-box tail mass follows
    ``Phi(R) = c (R^(1-2p) - (L/2)^(1-2p))``; the subtracted end term is
    what the finite box cuts off, and ignoring it biases a naive log-log
    slope upward.  The exponent is fitted against the truncated model by
    a one-parameter search.  Super-algebraic profiles (a Gaussian, say)
    are flagged with p = inf rather than fitted.
    """
    r_lo, r_hi = window
    if not (0 < r_lo < r_hi):
        raise ConfigurationError(f"invalid fit window {window}")
    if r_hi > 0.35 * f.grid.length:
        raise ConfigurationError(
            f"fit window must stay inside 0.35 L = {0.35 * f.grid.length:g} "
            "to avoid wrap-around bias")
    radii = np.geomspace(r_lo, r_hi, FIT_RADII)
    phi = np.array([tail_mass(f, R) for R in radii])
    if np.any(phi <= 0):
        return DecayFit(math.inf, 0.0, accepted=False)
    logphi = np.log(phi)
    scale = float(np.std(logphi)) or 1.0
    edge = 0.5 * f.grid.length

    def rms(p):
        shape = radii ** (1.0 - 2.0 * p) - edge ** (1.0 - 2.0 * p)
        logm = np.log(shape)
        c = float(np.mean(logphi - logm))
        return float(np.sqrt(np.mean((logphi - logm - c) ** 2)))

    p = _argmin_bounded(rms, 0.55, 15.0)
    residual = rms(p) / scale
    if p >= 14.0:
        return DecayFit(math.inf, residual, accepted=False)
    return DecayFit(p, residual, accepted=residual <= FIT_RESIDUAL_MAX)


def _argmin_bounded(fun, lo: float, hi: float) -> float:
    """Minimiser of fun on [lo, hi]: the best of 64 grid points, refined by
    golden-section search between its neighbours to a width of 1e-6."""
    xs = np.linspace(lo, hi, 64)
    i = int(np.argmin([fun(x) for x in xs]))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > 1e-6:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = fun(d)
    return float(0.5 * (a + b))


def line_fit(x, y) -> tuple:
    """(slope, intercept) of the least-squares line through the points (x, y),
    from sums about the means; NaN for both when x holds a single value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = np.mean(x), np.mean(y)
    dx = x - xm
    sxx = float(np.sum(dx * dx))
    if sxx == 0.0:
        return math.nan, math.nan
    slope = float(np.sum(dx * (y - ym))) / sxx
    return slope, float(ym - slope * xm)


def spectral_jump(f: Field) -> complex:
    """One-sided difference quotient m_plus of u_hat at 0+ over modes 1..4,
    (4 c1 - 3 c2 + (4/3) c3 - c4/4) / k1: exact on one-sided polynomials of
    degree <= 4 with no constant term, so its error is O(k1^4).

    For real fields the quotient at 0- is -conj(m_plus).
    """
    require_zero_mean(f, "jump estimator")
    c = line_spectrum(f)
    return complex((4.0 * c[1] - 3.0 * c[2] + 4.0 / 3.0 * c[3] - 0.25 * c[4])
                   / f.grid.k[1])


def make_record(f: Field, alpha: float, weight_orders=(),
                spectrum: Optional[np.ndarray] = None, columns=COLUMNS) -> dict:
    """The diagnostics row of ``f``: column name -> value, in ``COLUMNS`` order.

    ``columns`` names the columns of ``COLUMNS`` the caller reads; the row
    holds those alone, with "wnorms" expanded to one ``weight_column``
    entry per weight order, plus ``tail_frac``, which the solver's tail
    guard reads.  ``spectrum`` is the real-FFT half spectrum of ``f`` when
    the caller (the time stepper) already holds it; otherwise it is
    computed here if a column needs it.
    """
    read = set(columns)
    unknown = read.difference(COLUMNS)
    if unknown:
        raise ConfigurationError(
            f"unknown diagnostics column(s) {', '.join(sorted(unknown))}; "
            f"choose from {', '.join(COLUMNS)}")
    if spectrum is None and "min_ux" in read:
        spectrum = np.fft.rfft(f.samples)
    row = {}
    if read & {"i1", "i2", "i3"}:          # one call gives all three
        row.update((key, value) for key, value in
                   zip(("i1", "i2", "i3"), invariants(f, alpha, spectrum)) if key in read)
    if "moment_x" in read:
        row["moment_x"] = moment_first(f)
    if "max_u" in read:
        row["max_u"] = float(np.max(f.samples))
    if "min_ux" in read:
        ux = np.fft.irfft(multiplier_table(derivative_symbol(), f.grid) * spectrum,
                          f.grid.n)
        row["min_ux"] = float(np.min(ux))
    row["tail_frac"] = tail_fraction(f.samples, f.grid)
    if "wnorms" in read:
        row.update((weight_column(r), weighted_norm(f, r)) for r in weight_orders)
    return row
