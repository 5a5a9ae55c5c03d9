"""Time integration of u_t = d/dx D^alpha u - u u_x on the periodic box.

The linear part is integrated exactly through its symbol
``exp(i t k |k|^alpha)``, unitary on modes 0..n/2-1 (the unpaired Nyquist
mode keeps the real part, ``cos(t k |k|^alpha)``); the quadratic term is
advanced with classical RK4 in the integrating-factor variable, which
makes the stepper exact on the purely linear problem and globally fourth
order otherwise.  A Picard iteration of the integral (Duhamel) form of
the equation serves as an independent cross-validation oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.fft

from . import diagnostics as diag
from .errors import (ConfigurationError, DomainError, NumericError,
                     OracleDivergenceError, StepError)
from .spectral import (Field, Grid, derivative_symbol, dispersion_symbol,
                       make_grid, multiplier_table)

CFL_CONSTANT = 0.5

_IC_PARAMS = {
    "gaussian": ("A", "sigma", "x0"),
    "odd_gaussian": ("A", "sigma"),
    "sine_packet": ("A", "k", "sigma"),
    "random_band": ("seed", "k_lo", "k_hi", "A"),
    "file": ("path",),
}


@dataclass(frozen=True)
class InitialCondition:
    """Initial state family.

    family is one of ``gaussian(A, sigma, x0)``, ``odd_gaussian(A, sigma)``,
    ``sine_packet(A, k, sigma)``, ``random_band(seed, k_lo, k_hi, A)`` or
    ``file(path)``.  With ``zero_mean_projected`` the zero mode is removed
    exactly.
    """

    family: str
    params: tuple = ()
    zero_mean_projected: bool = False

    def __post_init__(self):
        names = _IC_PARAMS.get(self.family)
        if names is None:
            raise ConfigurationError(f"unknown initial-condition family '{self.family}'")
        if len(self.params) != len(names):
            raise ConfigurationError(
                f"{self.family}({', '.join(names)}) takes {len(names)} parameter(s), "
                f"got {len(self.params)}")

    def build(self, grid: Grid) -> Field:
        x = grid.x
        fam = self.family
        if fam == "gaussian":
            amp, sigma, x0 = self.params
            u = amp * np.exp(-((x - x0) / sigma) ** 2)
        elif fam == "odd_gaussian":
            amp, sigma = self.params
            u = amp * x * np.exp(-((x / sigma) ** 2))
        elif fam == "sine_packet":
            amp, kc, sigma = self.params
            u = amp * np.sin(kc * x) * np.exp(-((x / sigma) ** 2))
        elif fam == "random_band":
            seed, k_lo, k_hi, amp = self.params
            u = _random_band(grid, [int(seed)], k_lo, k_hi, amp)[0]
        else:
            (path,) = self.params
            u = _load_field_samples(path, grid)
        if self.zero_mean_projected:
            u = u - np.mean(u)
        return Field(grid, u)


def _random_band(grid: Grid, seeds, k_lo: float, k_hi: float, amp: float) -> np.ndarray:
    """Band-limited fields with seeded random phases, one row of the
    ``(len(seeds), n)`` result per seed, each scaled to ||u||_2 = amp."""
    k = grid.k[: grid.n // 2 + 1]        # the Nyquist wavenumber is negative here
    band = (k >= k_lo) & (k <= k_hi) & (k > 0)
    idx = np.nonzero(band)[0]
    coeff = np.zeros((len(seeds), k.size), dtype=complex)
    for row, seed in zip(coeff, seeds):
        rng = np.random.default_rng(seed)
        row[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    u = scipy.fft.irfft(coeff, grid.n, axis=-1)
    norm = np.sqrt(np.sum(u ** 2, axis=-1) * grid.dx)
    if np.any(norm == 0):
        raise ConfigurationError(
            f"random_band({seeds[int(np.argmin(norm))]}, {k_lo}, {k_hi}) "
            f"contains no grid modes")
    return u * (amp / norm)[:, None]


def _load_field_samples(path: str, grid: Grid) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)    # loadtxt's "no data" warning
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except UserWarning:
        raise ConfigurationError(f"field file '{path}' holds no data rows") from None
    except (OSError, ValueError) as e:
        raise ConfigurationError(f"field file '{path}' cannot be read: {e}") from None
    if data.shape != (grid.n, 2):
        raise ConfigurationError(
            f"field file '{path}' has {data.shape[0]} rows of {data.shape[1]} columns, "
            f"grid expects {grid.n} rows of x,u")
    if not np.allclose(data[:, 0], grid.x, rtol=0, atol=1e-9 * grid.dx):
        raise ConfigurationError(f"field file '{path}' nodes do not match the grid")
    return data[:, 1].copy()


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs.

    dispersion exponent alpha in [-1, 1), alpha != 0 (up to 2 behind the
    ``extended`` flag); dt is re-checked against the advective CFL bound
    every step.
    """

    alpha: float
    dt: float
    t_final: float
    n: int = 4096
    length: float = 200.0
    dealias: bool = True
    diag_every: int = 100
    ic: InitialCondition = field(
        default_factory=lambda: InitialCondition("gaussian", (0.2, 1.0, 0.0), True))
    tail_tol: float = 1e-8
    weight_orders: tuple = ()
    nonlinear: bool = True
    store_every: int = 0          # checkpoint cadence in steps; 0 = endpoints only
    extended: bool = False

    def __post_init__(self):
        hi = 2.0 if self.extended else 1.0
        if not (-1.0 <= self.alpha < hi) or self.alpha == 0.0:
            raise ConfigurationError(
                f"alpha must lie in [-1, {hi:g}) and be nonzero, got {self.alpha}")
        for name in ("dt", "t_final", "length"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        if self.diag_every < 1:
            raise ConfigurationError(f"diag_every must be >= 1, got {self.diag_every}")
        if self.store_every < 0:
            raise ConfigurationError(f"store_every must be >= 0, got {self.store_every}")
        if math.isnan(self.tail_tol):
            raise ConfigurationError("tail_tol must be a number, got nan")

    def grid(self) -> Grid:
        return make_grid(self.n, self.length)


@dataclass
class Trajectory:
    times: np.ndarray
    diagnostics: list
    states: dict
    final: Field
    truncated: bool = False
    truncation_reason: str = ""


def cfl_bound(u_max: float, dx: float) -> float:
    """Largest admissible dt for the advective part, 0.5 dx / max(1, max|u|)."""
    return CFL_CONSTANT * dx / max(1.0, u_max)


def linear_propagator(f: Field, t: float, alpha: float) -> Field:
    """Exact free evolution exp(t d/dx D^alpha).

    Unitary on modes 0..n/2-1; the unpaired Nyquist mode keeps the real
    part of the symbol, so it is scaled by cos(t k|k|^alpha).
    """
    grid = f.grid
    sym = _propagators(grid, alpha, t)
    out = scipy.fft.irfft(sym * scipy.fft.rfft(f.samples), grid.n)
    return Field(grid, out)


def _propagators(grid: Grid, alpha: float, times) -> np.ndarray:
    """exp(t i k |k|^alpha) on the half grid, one row per time in ``times``."""
    # not multiplier_table: its Nyquist entry is the generator's real part, 0,
    # where the propagator needs the exponential's real part, cos(t k|k|^alpha)
    gen = dispersion_symbol(alpha).on_grid(grid)[: grid.n // 2 + 1]
    vals = np.exp(np.multiply.outer(times, gen))
    vals[..., -1] = vals[..., -1].real                 # unpaired mode stays real
    return vals


def _nonlinear_tables(grid: Grid, dealias: bool):
    """Highest mode kept in the square, and -i k/2 times the 2/3-rule mask.

    The mask keeps modes m <= n/3; without dealiasing every mode is kept.
    """
    m = np.arange(grid.n // 2 + 1)
    keep = m <= grid.n // 3 if dealias else np.ones(m.size, dtype=bool)
    return int(m[keep][-1]), -0.5 * multiplier_table(derivative_symbol(), grid) * keep


def _nonlinear_hat(uh: np.ndarray, n: int, top: int, dfac: np.ndarray) -> np.ndarray:
    # modes above ``top`` are zero-padded away before squaring
    u = scipy.fft.irfft(uh[: top + 1], n)
    return dfac * scipy.fft.rfft(u * u)


class _Stepper:
    """Integrating-factor RK4 on the real-FFT half spectrum.

    Every table a step needs is built here, once per run.
    """

    def __init__(self, grid: Grid, alpha: float, dt: float, dealias: bool,
                 nonlinear: bool):
        self.n = grid.n
        self.dt = dt
        self.nonlinear = nonlinear
        self.E, self.E2 = _propagators(grid, alpha, (0.5 * dt, dt))
        self.top, self.dfac = _nonlinear_tables(grid, dealias)

    def nhat(self, uh: np.ndarray) -> np.ndarray:
        if not self.nonlinear:
            return np.zeros_like(uh)
        return _nonlinear_hat(uh, self.n, self.top, self.dfac)

    def step(self, uh: np.ndarray) -> np.ndarray:
        dt, E, E2 = self.dt, self.E, self.E2
        E2uh = E2 * uh
        k1 = self.nhat(uh)
        k2 = self.nhat(E * (uh + 0.5 * dt * k1))
        k3 = self.nhat(E * uh + 0.5 * dt * k2)
        k4 = self.nhat(E2uh + dt * E * k3)
        return E2uh + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)


def solve(cfg: SimConfig, grid: Optional[Grid] = None, u0: Optional[Field] = None) -> Trajectory:
    """Integrate to t_final, emitting diagnostics every diag_every steps.

    The run stops early (``truncated = True``) once the boundary tail
    fraction exceeds ``cfg.tail_tol``; a NaN state raises NumericError
    carrying the last good time.  Fixed cfg (seeds included) gives a
    bit-identical trajectory.
    """
    grid = grid or cfg.grid()
    f0 = u0 if u0 is not None else cfg.ic.build(grid)
    if cfg.nonlinear:
        # the linear flow is integrated exactly and has no step restriction
        bound = cfl_bound(float(np.max(np.abs(f0.samples))), f0.grid.dx)
        if cfg.dt > bound * (1.0 + 1e-12):
            raise StepError(
                f"dt = {cfg.dt:g} exceeds the initial advective bound {bound:g}",
                suggested_dt=bound)
    tf0 = diag.tail_fraction(f0.samples, grid)
    if tf0 > cfg.tail_tol:
        raise DomainError(
            f"initial tail fraction {tf0:.3e} already exceeds tail_tol {cfg.tail_tol:g}")

    stepper = _Stepper(grid, cfg.alpha, cfg.dt, cfg.dealias, cfg.nonlinear)
    uh = scipy.fft.rfft(f0.samples)
    n_steps = int(round(cfg.t_final / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_final) > 1e-8 * max(cfg.t_final, cfg.dt):
        raise ConfigurationError(
            f"t_final = {cfg.t_final:g} is not a multiple of dt = {cfg.dt:g} "
            f"(nearest reachable time {n_steps * cfg.dt:g})")

    times = [0.0]
    records = [diag.make_record(f0, 0.0, cfg.alpha, cfg.weight_orders, spectrum=uh)]
    states = {0.0: f0}
    truncated = False
    reason = ""
    last_good = 0.0

    for i in range(1, n_steps + 1):
        uh = stepper.step(uh)
        t = i * cfg.dt
        u = scipy.fft.irfft(uh, grid.n)
        u_max = float(np.max(np.abs(u)))      # NaN or inf when any sample is
        if not math.isfinite(u_max):
            raise NumericError(f"state non-finite at t = {t:g}; last good t = {last_good:g}")
        last_good = t
        if cfg.nonlinear:
            bound = cfl_bound(u_max, grid.dx)
            if cfg.dt > bound * (1.0 + 1e-12):
                raise StepError(
                    f"CFL violated at t = {t:g}: dt = {cfg.dt:g} > {bound:g}",
                    suggested_dt=bound)
        emit = (i % cfg.diag_every == 0) or (i == n_steps)
        checkpoint = cfg.store_every and (i % cfg.store_every == 0)
        if not (emit or checkpoint):
            continue
        fld = Field(grid, u)
        if emit:
            rec = diag.make_record(fld, t, cfg.alpha, cfg.weight_orders, spectrum=uh)
            times.append(t)
            records.append(rec)
            if rec.tail_frac > cfg.tail_tol:
                truncated = True
                reason = (f"boundary tail fraction {rec.tail_frac:.3e} exceeded "
                          f"tail_tol {cfg.tail_tol:g} at t = {t:g}")
        if checkpoint or i == n_steps:
            states[t] = fld
        if truncated:
            break

    final = states[max(states)]
    return Trajectory(np.asarray(times), records, states, final, truncated, reason)


def picard_oracle(u0: Field, cfg: SimConfig, t: float, iterations: int,
                  n_quad: int = 64) -> Field:
    """Fixed-point iterate of the integral form of the equation.

    Independent of the stepper: the source integral uses composite
    Simpson quadrature in tau on ``n_quad + 1`` uniform nodes, with the
    whole iterate stored along the quadrature grid.  Zero iterations
    reproduce the free evolution, and so does a config with
    ``nonlinear = False``, whose equation has no source term.
    """
    from scipy.integrate import cumulative_simpson

    if iterations < 0:
        raise ConfigurationError("iterations must be >= 0")
    if n_quad % 2 != 0:
        raise ConfigurationError("n_quad must be even for Simpson quadrature")
    grid = u0.grid
    taus = np.linspace(0.0, t, n_quad + 1)
    fwd = _propagators(grid, cfg.alpha, taus)  # e^{tau L}
    bwd = _propagators(grid, cfg.alpha, -taus)
    top, dfac = _nonlinear_tables(grid, cfg.dealias)
    u0h = scipy.fft.rfft(u0.samples)

    iterate = fwd * u0h[None, :]               # linear evolution at every node
    prev_delta = None
    for _ in range(iterations if cfg.nonlinear else 0):
        src = np.empty_like(iterate)
        for j in range(n_quad + 1):
            src[j] = bwd[j] * _nonlinear_hat(iterate[j], grid.n, top, dfac)
        # cumulative_simpson is real-only; integrate the parts separately
        acc = (cumulative_simpson(src.real, x=taus, axis=0, initial=0.0)
               + 1j * cumulative_simpson(src.imag, x=taus, axis=0, initial=0.0))
        new = fwd * (u0h[None, :] + acc)
        delta = float(np.linalg.norm(new[-1] - iterate[-1]))
        if prev_delta is not None and delta > 2.0 * prev_delta and delta > 1e-12:
            raise OracleDivergenceError(
                f"Picard iterates diverging: update {delta:.3e} after {prev_delta:.3e}")
        prev_delta = delta
        iterate = new
    out = scipy.fft.irfft(iterate[-1], grid.n)
    return Field(grid, out)
