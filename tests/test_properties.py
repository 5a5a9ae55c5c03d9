"""Property tests: the spectral discretisation and the solver's linear and
quadratic parts on random band-limited fields, the scale covariance of the
semi-discrete flow, the Stein quadrature's edge merge and the polar
increments of every target, and the config text."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from fkdvlab import (ConfigurationError, Field, InitialCondition,
                     MultiplierSymbol, SimConfig, apply_multiplier, linear_propagator,
                     make_grid, solve)
from fkdvlab.cli import _CONFIG_KEYS, _EXPERIMENTS, parse_config, write_manifest
from fkdvlab.diagnostics import weight_column
from fkdvlab.solver import _Stepper
from fkdvlab.spectral import (derivative_symbol, dispersion_symbol, frac_deriv_symbol,
                              hilbert_symbol, lowpass_symbol)
from fkdvlab.stein import (_bessel_weighted, _increment, _sorted_distinct, power_cutoff,
                           propagator_target, sign_propagator, signed_power_cutoff,
                           weight_target)


def bessel(s):
    """(1 + k^2)^(s/2) with zero mode 1, a Hermitian symbol built here."""
    return MultiplierSymbol(f"<k>^{s:g}", lambda k: (1.0 + k ** 2) ** (s / 2.0), 1.0)


orders = st.floats(-1.0, 2.0, allow_nan=False)
symbols = st.one_of(
    orders.map(frac_deriv_symbol),
    orders.map(bessel),
    st.floats(-1.0, 0.9).filter(lambda a: a != 0.0).map(dispersion_symbol),
    st.floats(0.05, 2.0).map(lambda a: lowpass_symbol(a)),
    st.just(hilbert_symbol()),
    st.just(derivative_symbol()),
)


@st.composite
def band_limited(draw):
    """A real field whose modes stop below the Nyquist mode."""
    n = draw(st.sampled_from([64, 128, 256]))
    grid = make_grid(n, draw(st.floats(5.0, 100.0)))
    top = draw(st.integers(1, n // 2 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[: top + 1] = rng.standard_normal(top + 1) + 1j * rng.standard_normal(top + 1)
    return Field(grid, scipy.fft.irfft(half, n))


def full_symbol(sym, grid):
    """``sym`` on every grid wavenumber from its evaluator, mode 0 its
    zero_mode_value: a reference that does not go through on_grid."""
    vals = np.empty(grid.n, dtype=complex)
    vals[0] = sym.zero_mode_value
    vals[1:] = sym.evaluator(grid.k[1:])
    return vals


def spectral_scale(f, *syms):
    """Bound on the output's size: product of the symbols' sup norms times sum |u_hat|."""
    bound = np.sum(np.abs(np.fft.fft(f.samples))) / f.grid.n
    for sym in syms:
        bound *= np.max(np.abs(full_symbol(sym, f.grid)))
    return bound


@settings(max_examples=60, deadline=None)
@given(f=band_limited(), sym=symbols)
def test_hermitian_symbol_gives_real_output(f, sym):
    full = np.fft.ifft(full_symbol(sym, f.grid) * np.fft.fft(f.samples))
    scale = spectral_scale(f, sym)
    assert np.max(np.abs(full.imag)) <= 1e-12 * scale
    out = apply_multiplier(f, sym).samples
    assert np.max(np.abs(out - full.real)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(f=band_limited(), m1=symbols, m2=symbols)
def test_composition_is_product(f, m1, m2):
    prod = MultiplierSymbol(
        "product", lambda k: m1.evaluator(k) * m2.evaluator(k),
        complex(m1.zero_mode_value) * complex(m2.zero_mode_value))
    a = apply_multiplier(apply_multiplier(f, m1), m2).samples
    b = apply_multiplier(f, prod).samples
    assert np.max(np.abs(a - b)) <= 1e-12 * spectral_scale(f, m1, m2)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([8, 10, 64, 126, 1024]), length=st.floats(1.0, 1e4), sym=symbols)
def test_half_spectrum_symbol_is_the_full_one_cut(n, length, sym):
    grid = make_grid(n, length)
    half = sym.on_grid(grid)
    assert half.tobytes() == full_symbol(sym, grid)[: n // 2 + 1].tobytes()


y_max = 50.0
# the values the panel edges repeat: both zeros, the +-y_max ends, and
# geomspace-like neighbours one ulp apart
edge_values = st.one_of(
    st.sampled_from([0.0, -0.0, y_max, -y_max, 1e-13, -1e-13, 1.0, np.nextafter(1.0, 2.0)]),
    st.floats(-y_max, y_max))


@settings(max_examples=200, deadline=None)
@given(edges=st.lists(edge_values, min_size=1, max_size=300))
def test_edge_merge_is_np_unique(edges):
    x = np.array(edges)
    assert _sorted_distinct(x).tobytes() == np.unique(x).tobytes()


alphas = st.floats(-0.95, 0.95).filter(lambda a: a != 0.0)
times = st.floats(-5.0, 5.0)
stein_targets = st.one_of(
    st.floats(0.05, 2.0).map(power_cutoff),
    st.floats(0.05, 2.0).map(signed_power_cutoff),
    st.tuples(alphas, times).map(lambda p: propagator_target(*p)),
    st.tuples(alphas, times).map(lambda p: _bessel_weighted(*p, "propagator")),
    st.tuples(alphas, times).map(lambda p: _bessel_weighted(*p, "symbol")),
    times.map(sign_propagator),
    st.tuples(st.floats(0.05, 1.0), st.floats(0.5, 4.0)).map(lambda p: weight_target(*p)),
)


@settings(max_examples=300, deadline=None)
@given(target=stein_targets,
       eta=st.floats(1e-3, 3.0) | st.floats(-3.0, -1e-3),
       gap=st.floats(-9.0, 0.5),
       side=st.sampled_from([-1.0, 1.0]))
def test_polar_increment_is_the_complex_one(target, eta, gap, side):
    # the increment from the polar pair is |f(eta) - f(y)|^2: bit for bit
    # for a real target, (A(eta) - A(y))^2, and otherwise down to y a
    # billionth of |eta| away from eta; y also takes both zeros, +-1, +-2
    # and the target's breakpoints
    y = np.array([eta + side * 10.0 ** gap * abs(eta), 0.0, -0.0, 1.0, -1.0, 2.0, -2.0,
                  *target.breakpoints])
    amp_e, phase_e = target.polar(np.array([eta]))
    polar = _increment(target, amp_e, phase_e)(y)
    fe, fy = target.func(np.array([eta]))[0], target.func(y)
    complex_one = np.abs(fe - fy) ** 2
    if phase_e is None:
        assert polar.tobytes() == complex_one.tobytes()
    else:
        assert np.all(np.abs(polar - complex_one) <= 1e-13 * (abs(fe) + np.abs(fy)) ** 2)


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(1e-6, 1e6)


@st.composite
def sim_configs(draw):
    """A SimConfig with every field, zero_mean and the random_band seed off
    their defaults (extended is on, so alpha ranges over [-1, 2))."""
    ic = InitialCondition(
        "random_band",
        (draw(st.integers(1, 2 ** 63 - 1)), draw(finite), draw(finite), draw(finite)),
        zero_mean_projected=True)
    return SimConfig(
        alpha=draw(st.floats(-1.0, 2.0, exclude_max=True).filter(lambda a: a != 0.0)),
        dt=draw(positive), t_final=draw(positive),
        n=draw(st.integers(4, 256).map(lambda m: 2 * m).filter(lambda n: n != 4096)),
        length=draw(positive.filter(lambda v: v != 200.0)),
        dealias=False,
        diag_every=draw(st.integers(1, 10 ** 6).filter(lambda k: k != 100)),
        ic=ic,
        tail_tol=draw(finite.filter(lambda v: v != 1e-8)),
        weight_orders=tuple(draw(st.lists(finite, min_size=1, max_size=4,
                                          unique_by=weight_column))),
        nonlinear=False,
        store_every=draw(st.integers(1, 10 ** 6)),
        extended=True)


@settings(max_examples=60, deadline=None)
@given(cfg=sim_configs())
def test_config_round_trips_through_the_manifest(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        write_manifest(Path(tmp), cfg, "simulate", 0.0, 1.0, False, "completed")
        parsed, _ = parse_config(Path(tmp) / "manifest.txt")
    assert parsed == cfg


# the key tables of the campaigns that have keys of their own
campaign_tables = [keys for _, keys in _EXPERIMENTS.values() if keys]
numbers = st.floats(allow_nan=False)
kind_values = {"float": numbers, "tuple": st.lists(numbers, max_size=4).map(tuple)}


@st.composite
def campaign_values(draw):
    """A campaign's key table and a value of the right type for each key."""
    keys = draw(st.sampled_from(campaign_tables))
    return keys, {key: draw(kind_values[kind]) for key, (kind, _) in keys.items()}


@settings(max_examples=60, deadline=None)
@given(cfg=sim_configs(), campaign=campaign_values())
def test_campaign_keys_round_trip_through_the_manifest(cfg, campaign):
    keys, extras = campaign
    with tempfile.TemporaryDirectory() as tmp:
        write_manifest(Path(tmp), cfg, "experiment", 0.0, 1.0, False, "pass", keys, extras)
        parsed, parsed_extras = parse_config(Path(tmp) / "manifest.txt", None, keys)
    assert parsed == cfg
    assert parsed_extras == extras and list(parsed_extras) == list(keys)


alphas = st.floats(-1.0, 1.0, exclude_max=True).filter(lambda a: a != 0.0)


def half_weights(n):
    """Parseval weights of the real-FFT half spectrum: paired modes count twice."""
    w = np.full(n // 2 + 1, 2.0)
    w[[0, -1]] = 1.0
    return w


@settings(max_examples=40, deadline=None)
@given(f=band_limited(), alpha=alphas, t=st.floats(-10.0, 10.0))
def test_propagator_keeps_every_modulus_below_nyquist(f, alpha, t):
    before = np.abs(scipy.fft.rfft(f.samples))[:-1]
    after = np.abs(scipy.fft.rfft(linear_propagator(f, t, alpha).samples))[:-1]
    assert np.max(np.abs(after - before)) <= 1e-12 * np.max(before)


@settings(max_examples=40, deadline=None)
@given(f=band_limited())
def test_dealiased_quadratic_term_keeps_mean_and_l2(f):
    # <-(u^2)_x / 2, u> = -(1/6) integral (u^3)_x = 0 once the square is dealiased
    uh = scipy.fft.rfft(f.samples)
    stepper = _Stepper(f.grid, 0.5, 1e-3, dealias=True, nonlinear=True)
    nh = np.zeros_like(uh)                  # nhat gives the kept modes only
    nh[: stepper.keep] = stepper.nhat(uh)
    assert nh[0] == 0.0
    w = half_weights(f.grid.n)
    inner = np.sum(w * (np.conj(uh) * nh).real)
    scale = np.sqrt(np.sum(w * np.abs(uh) ** 2) * np.sum(w * np.abs(nh) ** 2))
    assert abs(inner) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(-0.99, 0.99).filter(lambda a: abs(a) >= 1e-3),
       lam=st.floats(0.5, 2.0), n=st.sampled_from([64, 128, 256]), dealias=st.booleans())
def test_semi_discrete_flow_is_scale_covariant(alpha, lam, n, dealias):
    # the nodes of the box L / lam are x / lam, so lam^alpha u_j(lam^(1+alpha) t)
    # solves the semi-discrete system there: the two runs agree up to rounding
    cfg = SimConfig(alpha=alpha, dt=0.01, t_final=0.1, n=n, length=20.0,
                    dealias=dealias, tail_tol=1.0,
                    ic=InitialCondition("sine_packet", (0.3, 1.5, 2.0)))
    u0 = cfg.ic.build(cfg.grid())
    s = lam ** (1.0 + alpha)
    scaled = replace(cfg, length=cfg.length / lam, dt=cfg.dt / s, t_final=cfg.t_final / s)
    ref = lam ** alpha * solve(cfg, u0, columns=()).final.samples
    got = solve(scaled, Field(scaled.grid(), lam ** alpha * u0.samples), columns=())
    assert np.max(np.abs(got.final.samples - ref)) <= 1e-12 * np.max(np.abs(ref))


config_values = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=16),
    st.floats().map(repr), st.integers().map(str),
    st.sampled_from(["true", "no", "1,2.5", "gaussian(0.2,1,0)", "odd_gaussian(-1)",
                     "random_band(3,0.5,3,1)", "random_band(x,1,2,3)", "file(a.csv)",
                     "sine_packet(1,2,3)", "nope(1)", "gaussian(1,2", ""]))
every_key = sorted({*_CONFIG_KEYS, *(key for keys in campaign_tables for key in keys)})
config_keys = st.one_of(st.sampled_from(every_key), st.text(max_size=8))


@settings(max_examples=150, deadline=None)
@given(pairs=st.dictionaries(config_keys, config_values, max_size=8), base=st.booleans(),
       keys=st.sampled_from([{}] + campaign_tables))
def test_config_text_fails_only_with_configuration_error(pairs, base, keys):
    # with ``base`` the required keys start valid, so the fuzzed values reach SimConfig
    kv = {"alpha": "0.5", "dt": "1e-3", "t_final": "1"} if base else {}
    kv.update(pairs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
        try:
            parse_config(path, None, keys)
        except ConfigurationError:
            pass
