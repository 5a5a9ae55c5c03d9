"""Property tests: the spectral discretisation on random band-limited fields,
and the config text round trip."""

import tempfile
from pathlib import Path

import numpy as np
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from fkdvlab import (CutoffSpec, Field, InitialCondition, MultiplierSymbol, SimConfig,
                     apply_multiplier, make_grid)
from fkdvlab.cli import parse_config, write_manifest
from fkdvlab.spectral import (bessel_symbol, derivative_symbol, dispersion_symbol,
                              frac_deriv_symbol, hilbert_symbol, lowpass_symbol)

orders = st.floats(-1.0, 2.0, allow_nan=False)
symbols = st.one_of(
    orders.map(frac_deriv_symbol),
    orders.map(bessel_symbol),
    st.floats(-1.0, 0.9).filter(lambda a: a != 0.0).map(dispersion_symbol),
    st.floats(0.05, 2.0).map(lambda a: lowpass_symbol(CutoffSpec(a))),
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


def spectral_scale(f, *syms):
    """Bound on the output's size: product of the symbols' sup norms times sum |u_hat|."""
    bound = np.sum(np.abs(np.fft.fft(f.samples))) / f.grid.n
    for sym in syms:
        bound *= np.max(np.abs(sym.on_grid(f.grid)))
    return bound


@settings(max_examples=60, deadline=None)
@given(f=band_limited(), sym=symbols)
def test_hermitian_symbol_gives_real_output(f, sym):
    full = np.fft.ifft(sym.on_grid(f.grid) * np.fft.fft(f.samples))
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
        weight_orders=tuple(draw(st.lists(finite, min_size=1, max_size=4))),
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
