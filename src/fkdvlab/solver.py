"""Time integration of u_t = d/dx D^alpha u - u u_x on the periodic box.

The linear part is integrated exactly through its symbol
``exp(i t k |k|^alpha)``, unitary on modes 0..n/2-1 (the unpaired Nyquist
mode keeps the real part, ``cos(t k |k|^alpha)``); the quadratic term is
advanced with classical RK4 in the integrating-factor variable, which
makes the stepper exact on the purely linear problem and globally fourth
order otherwise.

The state holds the modes kept in the square, 0..top, and every mode
above top is exactly zero: top = n/3 in a dealiased nonlinear run (the
2/3 rule), n/2 otherwise.  A run starts from the kept modes of u0.  Each
step ends with the new state's field, which the next step's stage 1
reads; every state is checked from it, exactly, for non-finite values
and, in a nonlinear run, against the CFL bound.

A Picard iteration of the integral (Duhamel) form of the equation serves
as an independent cross-validation oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import diagnostics as diag
from .errors import (ConfigurationError, DomainError, NumericError,
                     OracleDivergenceError, StepError)
from .spectral import (Field, Grid, check_seed, derivative_symbol,
                       dispersion_symbol, make_grid, multiplier_table, random_band)

CFL_CONSTANT = 0.5
#: Simpson intervals in tau of the Picard oracle's source integral (an even count)
_PICARD_INTERVALS = 64

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
    ``sine_packet(A, k, sigma)``, ``random_band(seed, k_lo, k_hi, A)`` (seed
    an integer in [0, 2^64)) or ``file(path)``.  With ``zero_mean_projected``
    the zero mode is removed exactly.
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
        if self.family == "random_band":
            check_seed(self.params[0])
        if self.family != "file":
            for name, value in zip(names, self.params):
                if name == "seed":
                    continue
                if not math.isfinite(value) or (name == "sigma" and value <= 0):
                    must = "positive and finite" if name == "sigma" else "finite"
                    raise ConfigurationError(
                        f"{self.family}: {name} must be {must}, got {value}")

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
            u = random_band(grid, [seed], k_lo, k_hi, amp)[0]
        else:
            (path,) = self.params
            u = _load_field_samples(path, grid)
        if self.zero_mean_projected:
            u = u - np.mean(u)
        return Field(grid, u)


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
        if not math.isfinite(self.t_final / self.dt):
            raise ConfigurationError(
                f"t_final / dt overflows: t_final = {self.t_final:g}, dt = {self.dt:g}")
        if self.diag_every < 1:
            raise ConfigurationError(f"diag_every must be >= 1, got {self.diag_every}")
        if self.store_every < 0:
            raise ConfigurationError(f"store_every must be >= 0, got {self.store_every}")
        if math.isnan(self.tail_tol):
            raise ConfigurationError("tail_tol must be a number, got nan")
        names = [diag.weight_column(r) for r in self.weight_orders]
        if len(set(names)) < len(names):
            raise ConfigurationError(
                f"weight_orders name a diagnostics column twice: {', '.join(names)}")

    def grid(self) -> Grid:
        return make_grid(self.n, self.length)


@dataclass
class Trajectory:
    """A solve's diagnostics rows and stored states.

    ``times`` holds the row times and ``rows`` one array per column of
    ``diag.make_record``'s row, with one entry per row.  ``states`` maps
    a time to its Field: t = 0, every checkpoint, and the last state the
    run reached, which is the end of the run or, when the tail guard
    truncated it, the row that tripped the guard.  ``final`` is that last
    state.
    """

    times: np.ndarray
    rows: dict
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
    out = np.fft.irfft(sym * np.fft.rfft(f.samples), grid.n)
    return Field(grid, out)


def _propagators(grid: Grid, alpha: float, times) -> np.ndarray:
    """exp(t i k |k|^alpha) on the half grid, one row per time in ``times``."""
    # not multiplier_table: its Nyquist entry is the generator's real part, 0,
    # where the propagator needs the exponential's real part, cos(t k|k|^alpha)
    gen = dispersion_symbol(alpha).on_grid(grid)
    vals = np.exp(np.multiply.outer(times, gen))
    vals[..., -1] = vals[..., -1].real                 # unpaired mode stays real
    return vals


def _nonlinear_factor(grid: Grid, dealias: bool) -> np.ndarray:
    """-i k/2 on the modes kept in the square, 0..top.

    The 2/3 rule keeps m <= n/3; without dealiasing every mode is kept.
    """
    top = grid.n // 3 if dealias else grid.n // 2
    return -0.5 * multiplier_table(derivative_symbol(), grid)[: top + 1]


def _square_hat(u: np.ndarray, dfac: np.ndarray) -> np.ndarray:
    """Kept modes of -(u^2)_x / 2, ``dfac`` as _nonlinear_factor gives it."""
    return dfac * np.fft.rfft(u * u)[: dfac.size]


class _Stepper:
    """Integrating-factor RK4 on the real-FFT half spectrum.

    A state is the half spectrum with every mode above top exactly zero;
    ``field`` holds the last state's samples.  Every table and stage
    buffer a step needs is built here, once per run.  The buffers take
    the same products in the same order as the plain expressions
    ``E * (uh + dt/2 k1)``, ``E uh + dt/2 k2``, ``E2 uh + dt E k3`` and
    ``E2 uh + dt/6 (E2 k1 + 2 E (k2 + k3) + k4)``, so with the same bits.
    """

    def __init__(self, grid: Grid, alpha: float, dt: float, dealias: bool,
                 nonlinear: bool):
        self.n = grid.n
        self.dt = dt
        self.nonlinear = nonlinear
        self.dfac = _nonlinear_factor(grid, dealias and nonlinear)
        self.keep = self.dfac.size
        self.E, self.E2 = _propagators(grid, alpha, (0.5 * dt, dt))[:, : self.keep]
        self.dtE, self.twoE = dt * self.E, 2.0 * self.E
        self.field = np.empty(self.n)
        self._real = np.empty(self.n)
        self._half = np.empty(self.n // 2 + 1, dtype=complex)
        self._k = np.empty((4, self.keep), dtype=complex)
        self._a = np.empty(self.keep, dtype=complex)
        self._b = np.empty(self.keep, dtype=complex)

    def start(self, samples: np.ndarray) -> np.ndarray:
        """The state made of the kept modes of ``samples``; its field goes to ``field``."""
        uh = np.fft.rfft(samples)
        uh[self.keep:] = 0.0
        np.fft.irfft(uh, self.n, out=self.field)
        return uh

    def _square_kept(self, u: np.ndarray, out=None) -> np.ndarray:
        """``_square_hat(u, self.dfac)``, the square taken in the real buffer."""
        sq = np.multiply(u, u, out=self._real)
        return np.multiply(self.dfac, np.fft.rfft(sq, out=self._half)[: self.keep], out=out)

    def nhat(self, uh: np.ndarray, out=None) -> np.ndarray:
        """Kept modes of -(u^2)_x / 2, u made of the kept modes of ``uh``;
        written into ``out`` when given."""
        return self._square_kept(np.fft.irfft(uh[: self.keep], self.n, out=self._real), out)

    def step(self, uh: np.ndarray) -> np.ndarray:
        """The state dt after ``uh``, whose field ``field`` holds; the new
        state's field replaces it."""
        out = np.zeros_like(uh)
        uh = uh[: self.keep]
        E2uh = np.multiply(self.E2, uh, out=out[: self.keep])
        if self.nonlinear:
            h, E = 0.5 * self.dt, self.E
            k1, k2, k3, k4 = self._k
            a, b = self._a, self._b
            self._square_kept(self.field, k1)
            # k2 = nhat(E (uh + h k1))
            np.add(uh, np.multiply(h, k1, out=a), out=a)
            self.nhat(np.multiply(E, a, out=a), k2)
            # k3 = nhat(E uh + h k2)
            np.add(np.multiply(E, uh, out=a), np.multiply(h, k2, out=b), out=a)
            self.nhat(a, k3)
            # k4 = nhat(E2 uh + (dt E) k3)
            self.nhat(np.add(E2uh, np.multiply(self.dtE, k3, out=a), out=a), k4)
            # E2 uh + dt/6 (E2 k1 + (2 E) (k2 + k3) + k4)
            np.multiply(self.E2, k1, out=a)
            np.add(a, np.multiply(self.twoE, np.add(k2, k3, out=b), out=b), out=a)
            np.add(a, k4, out=a)
            np.add(E2uh, np.multiply(self.dt / 6.0, a, out=a), out=E2uh)
        np.fft.irfft(out, self.n, out=self.field)
        return out


def _check_state(u_max: float, i: int, cfg: SimConfig, dx: float):
    """Stop on a non-finite state i steps in, or, in a nonlinear run, on dt
    above the CFL bound; ``u_max`` is the state's max|u|.  The state at
    i = 0 is a Field, whose samples are finite."""
    t = i * cfg.dt
    if not math.isfinite(u_max):      # NaN or inf when any sample or mode is
        raise NumericError(
            f"state non-finite at t = {t:g}; last good t = {(i - 1) * cfg.dt:g}")
    if cfg.nonlinear:
        bound = cfl_bound(u_max, dx)
        if cfg.dt > bound * (1.0 + 1e-12):
            raise StepError(f"CFL violated at t = {t:g}: dt = {cfg.dt:g} > {bound:g}",
                            suggested_dt=bound)


def _step_count(t: float, dt: float, what: str) -> int:
    """Number of dt steps that reach time t; ``what`` names t in the error
    raised when t is not a multiple of dt."""
    n_steps = int(round(t / dt))
    if abs(n_steps * dt - t) > 1e-8 * max(t, dt):
        raise ConfigurationError(
            f"{what} = {t:g} is not a multiple of dt = {dt:g} "
            f"(nearest reachable time {n_steps * dt:g})")
    return n_steps


def solve(cfg: SimConfig, u0: Optional[Field] = None,
          columns=diag.COLUMNS) -> Trajectory:
    """Integrate to t_final, emitting diagnostics every diag_every steps.

    ``columns`` names the row columns the caller reads, as
    ``diag.make_record`` takes them; ``Trajectory.rows`` holds those and
    the tail fraction, which is always computed.

    The run is on ``u0``'s grid, which must have the config's n and
    length; without ``u0`` it starts from ``cfg.ic`` on ``cfg.grid()``.
    In a dealiased nonlinear run the state at t = 0 is the projection of
    ``u0`` onto the kept modes.  The run stops early (``truncated = True``)
    once the boundary tail fraction exceeds ``cfg.tail_tol``; a NaN state
    raises NumericError carrying the last good time.  Fixed cfg (seeds
    included) gives a bit-identical trajectory.
    """
    if u0 is None:
        u0 = cfg.ic.build(cfg.grid())
    grid = u0.grid
    if (grid.n, grid.length) != (cfg.n, cfg.length):
        raise ConfigurationError(
            f"u0 lies on a grid of n = {grid.n}, length = {grid.length:g}; "
            f"the config has n = {cfg.n}, length = {cfg.length:g}")
    stepper = _Stepper(grid, cfg.alpha, cfg.dt, cfg.dealias, cfg.nonlinear)
    uh = stepper.start(u0.samples)
    if stepper.keep < uh.size:          # the run advances the kept modes of u0
        u0 = Field(grid, stepper.field.copy())
    _check_state(float(np.max(np.abs(u0.samples))), 0, cfg, grid.dx)
    row = diag.make_record(u0, cfg.alpha, cfg.weight_orders, uh, columns)
    if row["tail_frac"] > cfg.tail_tol:
        raise DomainError(f"initial tail fraction {row['tail_frac']:.3e} already "
                          f"exceeds tail_tol {cfg.tail_tol:g}")
    n_steps = _step_count(cfg.t_final, cfg.dt, "t_final")

    times = [0.0]
    rows = {key: [value] for key, value in row.items()}
    states = {0.0: u0}
    truncated = False
    reason = ""

    for i in range(1, n_steps + 1):
        uh = stepper.step(uh)
        t = i * cfg.dt
        _check_state(float(np.max(np.abs(stepper.field))), i, cfg, grid.dx)
        emit = (i % cfg.diag_every == 0) or (i == n_steps)
        checkpoint = cfg.store_every and (i % cfg.store_every == 0)
        if not (emit or checkpoint):
            continue
        fld = Field(grid, stepper.field.copy())
        if emit:
            row = diag.make_record(fld, cfg.alpha, cfg.weight_orders, uh, columns)
            times.append(t)
            for key, value in row.items():
                rows[key].append(value)
            tail_frac = row["tail_frac"]
            if tail_frac > cfg.tail_tol:
                truncated = True
                reason = (f"boundary tail fraction {tail_frac:.3e} exceeded "
                          f"tail_tol {cfg.tail_tol:g} at t = {t:g}")
        if checkpoint or i == n_steps or truncated:
            states[t] = fld
        if truncated:
            break

    final = states[max(states)]
    return Trajectory(np.asarray(times), {k: np.asarray(v) for k, v in rows.items()},
                      states, final, truncated, reason)


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running Simpson integral along axis 0 of ``y``, sampled on an odd
    number of uniform nodes h apart, from 0 at the first node.

    Each interval takes the quadratic through three nodes: interval 2j
    the one through nodes 2j..2j+2, h/12 (5 f0 + 8 f1 - f2), and interval
    2j+1 the mirrored form, h/12 (-f0 + 8 f1 + 5 f2), on the same nodes.
    This is scipy.integrate.cumulative_simpson's rule, summed here in numpy.
    """
    f0, f1, f2 = y[:-2:2], y[1:-1:2], y[2::2]
    parts = np.empty((y.shape[0] - 1,) + y.shape[1:], dtype=y.dtype)
    parts[0::2] = 5.0 * f0 + 8.0 * f1 - f2
    parts[1::2] = -f0 + 8.0 * f1 + 5.0 * f2
    out = np.zeros_like(parts, shape=y.shape)
    np.cumsum(parts * (h / 12.0), axis=0, out=out[1:])
    return out


def picard_oracle(u0: Field, cfg: SimConfig, t: float, iterations: int) -> Field:
    """Fixed-point iterate of the integral form of the equation.

    Independent of the stepper: the source integral uses composite
    Simpson quadrature in tau on ``_PICARD_INTERVALS + 1`` uniform nodes,
    with the whole iterate stored along the quadrature grid.  Zero iterations
    reproduce the free evolution, and so does a config with
    ``nonlinear = False``, whose equation has no source term.
    """
    if iterations < 0:
        raise ConfigurationError("iterations must be >= 0")
    grid = u0.grid
    taus = np.linspace(0.0, t, _PICARD_INTERVALS + 1)
    fwd = _propagators(grid, cfg.alpha, taus)  # e^{tau L}
    bwd = _propagators(grid, cfg.alpha, -taus)
    dfac = _nonlinear_factor(grid, cfg.dealias)
    keep = dfac.size
    u0h = np.fft.rfft(u0.samples)

    iterate = fwd * u0h[None, :]               # linear evolution at every node
    prev_delta = None
    for _ in range(iterations if cfg.nonlinear else 0):
        src = np.zeros_like(iterate)
        for j in range(_PICARD_INTERVALS + 1):
            u = np.fft.irfft(iterate[j, :keep], grid.n)
            src[j, :keep] = bwd[j, :keep] * _square_hat(u, dfac)
        acc = _cumulative_simpson(src, taus[1])
        new = fwd * (u0h[None, :] + acc)
        delta = float(np.linalg.norm(new[-1] - iterate[-1]))
        if prev_delta is not None and delta > 2.0 * prev_delta and delta > 1e-12:
            raise OracleDivergenceError(
                f"Picard iterates diverging: update {delta:.3e} after {prev_delta:.3e}")
        prev_delta = delta
        iterate = new
    out = np.fft.irfft(iterate[-1], grid.n)
    return Field(grid, out)
