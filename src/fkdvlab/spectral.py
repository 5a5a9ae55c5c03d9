"""Periodic grid, spectral transforms and Fourier-multiplier operators.

The real line is modelled by a large periodic box [-L/2, L/2) with data
concentrated near the centre.  All operators (fractional derivatives,
Hilbert transform, smooth frequency projectors) are
diagonal in the discrete Fourier basis; multiplication by the box
coordinate is pointwise.

Real states are transformed as the real-FFT half spectrum, modes
m = 0..n/2 (:func:`multiplier_table`): by the solver, the
diagnostics it feeds and :func:`apply_multiplier`.  The unpaired Nyquist
mode keeps only the real part of any symbol, which is also what the
inverse real FFT does with the Nyquist coefficient.  Where a value of
the line transform ``u_hat(k) = integral u(x) exp(-i k x) dx`` itself is
needed, :func:`line_spectrum` gives it on the same modes.
"""

from __future__ import annotations

import functools
import numbers
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError

#: relative mean tolerance for negative-order derivatives and the jump estimator
MEAN_TOL = 1e-8


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with its wavenumber set.

    Attributes
    ----------
    n : int
        Even number of samples.
    length : float
        Box size L; nodes are x_j = -L/2 + j L/n.
    """

    n: int
    length: float
    x: np.ndarray = field(repr=False, compare=False, default=None)
    k: np.ndarray = field(repr=False, compare=False, default=None)
    _multipliers: weakref.WeakKeyDictionary = field(
        repr=False, compare=False, init=False, default_factory=weakref.WeakKeyDictionary)

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 8:
            raise ConfigurationError(f"sample count must be even and >= 8, got {self.n}")
        if not (0 < self.length < np.inf):
            raise ConfigurationError(
                f"box length must be positive and finite, got {self.length}")
        dx = self.length / self.n
        object.__setattr__(self, "x", -0.5 * self.length + dx * np.arange(self.n))
        object.__setattr__(self, "k", 2.0 * np.pi * np.fft.fftfreq(self.n, d=dx))
        self.x.setflags(write=False)
        self.k.setflags(write=False)

    @property
    def dx(self) -> float:
        return self.length / self.n


def make_grid(n: int, length: float) -> Grid:
    """Construct a periodic grid with n samples on a box of the given length."""
    return Grid(int(n), float(length))


@dataclass(frozen=True)
class Field:
    """Real-valued state sampled on a grid."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.shape != (self.grid.n,):
            raise ConfigurationError(
                f"samples shape {arr.shape} does not match grid size {self.grid.n}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("field contains non-finite samples")
        object.__setattr__(self, "samples", arr)
        arr.setflags(write=False)


def line_spectrum(f: Field) -> np.ndarray:
    """Modes m = 0..n/2 of the line transform of a real field.

    Entry m approximates ``integral u(x) exp(-i k_m x) dx``; the factor
    exp(i k_m L/2) = (-1)^m accounts for node 0 sitting at -L/2.
    """
    spec = f.grid.dx * np.fft.rfft(f.samples)
    spec[1::2] *= -1.0
    return spec


def integrate(f: Field) -> float:
    """Box integral, u_hat(0), by the rectangle rule (spectrally accurate here)."""
    return float(np.sum(f.samples) * f.grid.dx)


def l2_rows(samples: np.ndarray, dx: float) -> np.ndarray:
    """L2 norm of each row along the last axis of (..., n) samples, nodes dx apart."""
    return np.sqrt(np.sum(samples ** 2, axis=-1) * dx)


def l2_norm(f: Field) -> float:
    return float(l2_rows(f.samples, f.grid.dx))


@dataclass(frozen=True)
class MultiplierSymbol:
    """Fourier multiplier m(k) with an explicit zero-mode convention.

    ``evaluator`` must be finite for every nonzero grid wavenumber.  It is
    called on those only: mode 0 (k = 0) always takes ``zero_mode_value``,
    so an evaluator singular at k = 0 needs no mask.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    zero_mode_value: complex = 0.0

    def on_grid(self, grid: Grid) -> np.ndarray:
        """Values on the real-FFT half spectrum, modes 0..n/2 (the Nyquist
        wavenumber negative, as in ``grid.k``)."""
        k = grid.k[: grid.n // 2 + 1]           # k[0] = 0 is the only zero
        vals = np.empty(k.shape, dtype=complex)
        vals[0] = complex(self.zero_mode_value)
        vals[1:] = self.evaluator(k[1:])
        if not np.all(np.isfinite(vals)):
            bad = k[~np.isfinite(vals)][:3]
            raise NumericError(f"symbol '{self.name}' non-finite at wavenumbers {bad}")
        return vals


def multiplier_table(sym: MultiplierSymbol, grid: Grid) -> np.ndarray:
    """Half-grid values of a Hermitian symbol, built and checked once per (symbol, grid).

    The table lives as long as both the grid and the symbol: the grid
    holds it weakly keyed by the symbol.  A symbol that fails the check
    raises DomainError on every call; nothing is kept for it.

    The check evaluates the partners -k of modes 1..n/2-1, the full grid's
    negative wavenumbers; the Nyquist mode has no partner.  Its tolerance
    scales with the half table alone, which on_grid has found finite, so a
    partner value that is not finite fails the check.
    """
    table = grid._multipliers.get(sym)
    if table is None:
        table = sym.on_grid(grid)
        partners = sym.evaluator(-grid.k[1 : grid.n // 2])
        scale = np.max(np.abs(table)) or 1.0
        if not np.all(np.abs(partners - np.conj(table[1:-1])) <= 1e-12 * scale):
            raise DomainError(
                f"symbol '{sym.name}' is not Hermitian-symmetric; real output undefined")
        table[-1] = table[-1].real                  # the unpaired Nyquist entry made real
        table.setflags(write=False)
        grid._multipliers[sym] = table
    return table


def apply_to_samples(samples: np.ndarray, sym: MultiplierSymbol, grid: Grid) -> np.ndarray:
    """Apply a Hermitian multiplier along the last axis of real (..., n) samples."""
    spec = np.fft.rfft(samples, axis=-1)
    return np.fft.irfft(multiplier_table(sym, grid) * spec, grid.n, axis=-1)


def apply_multiplier(f: Field, sym: MultiplierSymbol) -> Field:
    """Apply a Fourier multiplier and return the real field.

    The symbol must satisfy m(-k) = conj(m(k)) on paired modes so the
    output of a real input is real.  The unpaired Nyquist mode keeps only
    the real part of the symbol, the standard choice for odd symbols.
    """
    return Field(f.grid, apply_to_samples(f.samples, sym, f.grid))


# ---------------------------------------------------------------------------
# symbol constructors


@functools.lru_cache
def frac_deriv_symbol(s: float) -> MultiplierSymbol:
    """|k|^s with zero mode mapped to 0 for s != 0 and to 1 for s = 0."""
    return MultiplierSymbol(f"|k|^{s:g}", lambda k: np.abs(k) ** s,
                            1.0 if s == 0 else 0.0)


@functools.lru_cache
def hilbert_symbol() -> MultiplierSymbol:
    """-i sign(k), with sign(0) = 0."""
    return MultiplierSymbol("-i*sign(k)", lambda k: -1j * np.sign(k), 0.0)


@functools.lru_cache
def dispersion_symbol(alpha: float) -> MultiplierSymbol:
    """i k |k|^alpha, the generator of the linear flow; zero mode 0."""
    return MultiplierSymbol(f"i*k|k|^{alpha:g}",
                            lambda k: 1j * k * np.abs(k) ** alpha, 0.0)


@functools.lru_cache
def derivative_symbol() -> MultiplierSymbol:
    return MultiplierSymbol("i*k", lambda k: 1j * k, 0.0)


def smoothstep(r: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for r <= 0, 1 for r >= 1, strictly monotone between."""
    r = np.asarray(r, dtype=float)
    # the step's value outside (0, 1): 0 below, 1 above, r itself at r = +-0
    # and NaN at NaN; the exponentials only where both are positive
    out = np.heaviside(r, r, out=np.empty(r.shape))
    mid = (r > 0) & (r < 1)
    inside = r[mid]
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / inside)
    b = np.exp(-1.0 / (1.0 - inside))
    out[mid] = a / (a + b)
    return out


def flat_top_bump(xi: np.ndarray, a: float) -> np.ndarray:
    """Smooth bump equal to 1 on |xi| <= a and 0 on |xi| >= 2a."""
    return 1.0 - smoothstep((np.abs(xi) - a) / a)


@functools.lru_cache
def lowpass_symbol(a: float) -> MultiplierSymbol:
    """Low-pass cutoff: 1 on |k| <= a and 0 on |k| >= 2a."""
    if not (a > 0):
        raise ConfigurationError(f"cutoff scale must be positive, got {a}")
    return MultiplierSymbol(f"lowpass(a={a:g})", lambda k: flat_top_bump(k, a) + 0j, 1.0)


# ---------------------------------------------------------------------------
# named operations


def frac_deriv(f: Field, s: float) -> Field:
    """Homogeneous derivative of order s.

    Negative orders act on the zero-mean class only; the zero mode is
    always mapped to 0 for s != 0.
    """
    if s < 0:
        require_zero_mean(f, f"negative-order derivative (s={s:g})")
    return apply_multiplier(f, frac_deriv_symbol(s))


def is_zero_mean(mean: float, norm: float, tol: float = MEAN_TOL) -> bool:
    """The zero-mean test: |u_hat(0)| <= tol * ||u||, from u_hat(0) and the L2 norm."""
    return abs(mean) <= tol * max(norm, 1e-300)


def require_zero_mean(f: Field, what: str, tol: float = MEAN_TOL):
    """Raise DomainError unless f passes :func:`is_zero_mean` at ``tol``;
    ``what`` names the operation that needs it."""
    mean = integrate(f)
    if not is_zero_mean(mean, l2_norm(f), tol):
        raise DomainError(
            f"{what} needs zero mean; u_hat(0) = {mean:.3e} exceeds {tol:g} * ||u||")


def coordinate_multiply(f: Field) -> Field:
    """Pointwise product with the box coordinate x."""
    return Field(f.grid, f.grid.x * f.samples)


def weight_profile(ax: np.ndarray, n_w: float, theta: float) -> np.ndarray:
    """The truncated coordinate weight as a function of |x|, for 0 < theta <= 1:
    a smooth bounded surrogate of <x>^theta, flat at (2N)^theta beyond 3N.

    The bridge between (1+x^2)^(theta/2) and (2N)^theta is a smooth
    minimum (sharp logsumexp) of the two closed forms: its derivative is
    a convex combination of theirs, so the weight is non-decreasing with
    slope at most theta <= 1 by construction, and its higher derivatives
    stay bounded uniformly in N.

    It lies log(1 + exp(-s d)) / s below the smaller closed form, with
    s = 8 (2N)^(2 - 2 theta) and d the gap between the two, so it meets
    that form to round-off only where s d > ~36.  At |x| = 3N (and N) this
    holds for (theta, N) = (0.5, 8) and (1, 4); at N = 1 the profile is
    still 1.1e-5 below (2N)^theta for theta = 1, 1.8e-4 for 0.5 and
    1.7e-3 for 0.25.
    """
    inner = (1.0 + ax ** 2) ** (theta / 2.0)
    outer = (2.0 * n_w) ** theta
    # sharpness grows with N so the transition curvature stays O(1) in N
    sharp = 8.0 * (2.0 * n_w) ** (2.0 - 2.0 * theta)
    lo = np.minimum(inner, outer)
    return lo - np.log(np.exp(-sharp * (inner - lo)) + np.exp(-sharp * (outer - lo))) / sharp


#: SplitMix64's stream increment and finaliser multipliers
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def check_seed(seed) -> int:
    """``seed`` as an int; ConfigurationError unless it is an integer in [0, 2^64)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or not 0 <= seed < 2 ** 64:
        raise ConfigurationError(
            f"random_band: seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def _uniform_draws(seeds, count: int) -> np.ndarray:
    """Values on [-1, 1), ``count`` per seed, from the SplitMix64 stream of each.

    Value c of seed s is the top 53 bits of the SplitMix64 finaliser of
    s + (c + 1) * 0x9E3779B97F4A7C15 (mod 2^64), centred and scaled by 2^-52.
    Only uint64 array arithmetic and one exact power-of-two scaling are
    involved, so the values are the same on every platform.
    """
    s = np.array([check_seed(seed) for seed in seeds], dtype=np.uint64)
    z = s[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX[0]
    z = (z ^ (z >> np.uint64(27))) * _MIX[1]
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)).astype(np.int64) - (1 << 52)) * 2.0 ** -52


def random_band(grid: Grid, seeds, k_lo: float, k_hi: float,
                amp: float) -> np.ndarray:
    """Band-limited fields with seeded random coefficients, one row of the
    ``(len(seeds), n)`` result per seed, each scaled to ||u||_2 = amp.

    Band mode j of a row takes the :func:`_uniform_draws` 2j and 2j + 1 of
    its seed as its real and imaginary parts."""
    k = grid.k[: grid.n // 2 + 1]        # the Nyquist wavenumber is negative here
    band = (k >= k_lo) & (k <= k_hi) & (k > 0)
    idx = np.nonzero(band)[0]
    coeff = np.zeros((len(seeds), k.size), dtype=complex)
    coeff[:, idx] = _uniform_draws(seeds, 2 * idx.size).view(complex)
    u = np.fft.irfft(coeff, grid.n, axis=-1)
    norm = l2_rows(u, grid.dx)
    if np.any(norm == 0):
        raise ConfigurationError(
            f"random_band({seeds[int(np.argmin(norm))]}, {k_lo}, {k_hi}) "
            f"contains no grid modes")
    return u * (amp / norm)[:, None]
