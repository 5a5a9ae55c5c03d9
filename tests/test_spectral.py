import gc
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import fkdvlab
from fkdvlab import (ConfigurationError, DomainError, Field,
                     MultiplierSymbol, apply_multiplier, coordinate_multiply,
                     frac_deriv, integrate, l2_norm, line_spectrum, make_grid)
from fkdvlab.errors import NumericError
from fkdvlab.experiments import _evaluate_at
from fkdvlab.solver import InitialCondition
from fkdvlab.spectral import (derivative_symbol, dispersion_symbol, frac_deriv_symbol,
                              hilbert_symbol, is_zero_mean, l2_rows, lowpass_symbol,
                              multiplier_table, smoothstep, weight_profile)


def trig_grid(n=256):
    return make_grid(n, 2 * np.pi)


def seeded_field(grid, seed, k_band=(0.5, 6.0), amp=1.0):
    return InitialCondition("random_band", (seed, *k_band, amp)).build(grid)


class TestGrid:
    def test_small_box(self):
        g = make_grid(8, 2 * np.pi)
        assert g.dx == pytest.approx(np.pi / 4)
        assert sorted(np.round(g.k).astype(int)) == [-4, -3, -2, -1, 0, 1, 2, 3]

    def test_reference_box(self):
        g = make_grid(4096, 200.0)
        assert g.dx == pytest.approx(0.048828125)
        assert np.max(np.abs(g.k)) == pytest.approx(64.34, abs=0.01)

    def test_bad_length(self):
        with pytest.raises(ConfigurationError):
            make_grid(8, -1.0)

    def test_odd_n(self):
        with pytest.raises(ConfigurationError):
            make_grid(9, 1.0)

    def test_nodes_start_at_left_edge(self):
        g = make_grid(16, 8.0)
        assert g.x[0] == -4.0
        assert g.x[8] == 0.0


class TestTransforms:
    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip(self, seed):
        # the interpolant summed from the half spectrum returns the samples
        g = make_grid(512, 100.0)
        f = seeded_field(g, seed)
        back = _evaluate_at(f, g.x)
        assert np.max(np.abs(back - f.samples)) <= 1e-12 * np.max(np.abs(f.samples))

    @pytest.mark.parametrize("seed", range(5))
    def test_plancherel(self, seed):
        g = make_grid(512, 100.0)
        f = seeded_field(g, seed)
        phys = np.sum(f.samples ** 2) * g.dx
        pairs = np.full(g.n // 2 + 1, 2.0)      # modes 1..n/2-1 stand for +-m
        pairs[[0, -1]] = 1.0
        spec = np.sum(pairs * np.abs(line_spectrum(f)) ** 2) / g.length
        assert phys == pytest.approx(spec, rel=1e-12)

    def test_spectrum_matches_line_integral(self):
        # u = exp(-x^2) has u_hat(k) = sqrt(pi) exp(-k^2/4)
        g = make_grid(2048, 100.0)
        f = Field(g, np.exp(-g.x ** 2))
        spec = line_spectrum(f)
        for m in (1, 3, 10):
            exact = np.sqrt(np.pi) * np.exp(-g.k[m] ** 2 / 4)
            assert spec[m] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_full_complex_transform(self, seed):
        # reference: dx (-1)^m times the complex FFT, modes 0..n/2
        g = make_grid(512, 100.0)
        f = seeded_field(g, seed)
        m = np.arange(g.n // 2 + 1)
        ref = g.dx * np.where(m % 2 == 0, 1.0, -1.0) * np.fft.fft(f.samples)[: m.size]
        assert np.max(np.abs(line_spectrum(f) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_src_uses_no_complex_fft():
    # one spectral convention: real states go through rfft/irfft only
    call = re.compile(r"\b(?:np|numpy|scipy)\.fft\.i?fft\s*\(")
    src = Path(fkdvlab.__file__).parent
    hits = [f"{path.name}:{no}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for no, line in enumerate(path.read_text().splitlines(), 1)
            if call.search(line)]
    assert hits == []


@pytest.mark.parametrize("n", [8, 12, 64, 100, 512, 1000, 1024, 3000, 4096, 8192,
                               16384, 32768])
def test_numpy_fft_matches_scipy_fft_bit_for_bit(n):
    # the solver's bit pins were recorded with scipy.fft; both run pocketfft
    import scipy.fft
    u = np.random.default_rng(n).standard_normal((3, n))
    spec = np.fft.rfft(u, axis=-1)
    assert np.array_equal(spec, scipy.fft.rfft(u, axis=-1))
    assert np.array_equal(np.fft.rfft(u[0]), scipy.fft.rfft(u[0]))
    assert np.array_equal(np.fft.irfft(spec, n, axis=-1), scipy.fft.irfft(spec, n, axis=-1))
    for half in (spec[0], spec[0, : n // 3 + 1]):      # full, and the kept modes padded
        assert np.array_equal(np.fft.irfft(half, n), scipy.fft.irfft(half, n))


class TestApplyMultiplier:
    def test_identity(self):
        g = trig_grid()
        f = Field(g, np.cos(2 * g.x))
        out = apply_multiplier(f, MultiplierSymbol("one", lambda k: np.ones_like(k), 1.0))
        assert np.allclose(out.samples, f.samples, atol=1e-14)

    def test_derivative(self):
        g = trig_grid()
        f = Field(g, np.sin(g.x))
        out = apply_multiplier(f, MultiplierSymbol("ik", lambda k: 1j * k, 0.0))
        assert np.allclose(out.samples, np.cos(g.x), atol=1e-12)

    def test_half_derivative_eigenfunction(self):
        g = trig_grid()
        f = Field(g, np.cos(2 * g.x))
        out = apply_multiplier(f, frac_deriv_symbol(0.5))
        assert np.allclose(out.samples, np.sqrt(2) * np.cos(2 * g.x), atol=1e-12)

    def test_non_finite_symbol_rejected(self):
        g = trig_grid()
        f = Field(g, np.sin(g.x))
        k1 = g.k[1]
        with np.errstate(divide="ignore"):
            bad = MultiplierSymbol("pole", lambda k: 1.0 / (k ** 2 - k1 ** 2), 0.0)
            with pytest.raises(NumericError):
                apply_multiplier(f, bad)

    def test_evaluator_never_sees_k_zero(self):
        # a symbol singular at k = 0 builds unmasked: mode 0 is zero_mode_value
        g = trig_grid()
        sym = MultiplierSymbol("|k|^-0.5", lambda k: np.abs(k) ** -0.5, 0.25)
        table = multiplier_table(sym, g)
        assert table[0] == 0.25
        assert np.array_equal(table[1:-1], np.abs(g.k[1:g.n // 2]) ** -0.5)

    def test_composition(self):
        g = make_grid(512, 50.0)
        f = seeded_field(g, 7)
        m1 = frac_deriv_symbol(0.3)
        m2 = MultiplierSymbol("<k>^-1", lambda k: (1 + k ** 2) ** -0.5, 1.0)
        a = apply_multiplier(apply_multiplier(f, m1), m2)
        prod = MultiplierSymbol("prod", lambda k: m1.evaluator(k) * m2.evaluator(k), 0.0)
        b = apply_multiplier(f, prod)
        assert np.allclose(a.samples, b.samples, atol=1e-13 * l2_norm(f))


def test_smoothstep_keeps_the_bits_of_the_clipped_form():
    # clip to [0, 1], floor for the value outside (0, 1), exponentials inside
    r = np.concatenate([np.linspace(-0.5, 1.5, 100001),
                        [-0.0, 0.0, 1.0, -np.inf, np.inf, np.nan, 5e-324, 1.0 - 2.0 ** -53]])
    c = np.clip(r, 0.0, 1.0)
    want = np.floor(c)
    mid = (c > 0) & (c < 1)
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / c[mid])
    b = np.exp(-1.0 / (1.0 - c[mid]))
    want[mid] = a / (a + b)
    assert smoothstep(r).tobytes() == want.tobytes()
    assert smoothstep(r[:100000].reshape(1000, 100)).tobytes() == want[:100000].tobytes()
    assert smoothstep(r[37500]).shape == () and smoothstep(r[37500]) == want[37500]


def test_l2_rows_is_l2_norm_per_row():
    # one L2 formula: a batch of rows reads each row's l2_norm bit for bit
    g = make_grid(512, 50.0)
    rows = np.stack([seeded_field(g, seed).samples * (seed + 1) for seed in range(3)])
    assert np.array_equal(l2_rows(rows, g.dx), [l2_norm(Field(g, u)) for u in rows])


def bessel(s):
    """(1 + k^2)^(s/2) with zero mode 1, a Hermitian symbol built here."""
    return MultiplierSymbol(f"<k>^{s:g}", lambda k: (1.0 + k ** 2) ** (s / 2.0), 1.0)


CONSTRUCTED_SYMBOLS = [
    frac_deriv_symbol(0.0), frac_deriv_symbol(0.5),
    frac_deriv_symbol(-0.5), frac_deriv_symbol(1.7), hilbert_symbol(),
    bessel(-1.0), bessel(2.0), dispersion_symbol(0.5),
    dispersion_symbol(-1.0), derivative_symbol(), lowpass_symbol(1.0),
]


def full_symbol(sym, grid):
    """``sym`` on every grid wavenumber from its evaluator, mode 0 its
    zero_mode_value: a reference that does not go through on_grid."""
    vals = np.empty(grid.n, dtype=complex)
    vals[0] = sym.zero_mode_value
    vals[1:] = sym.evaluator(grid.k[1:])
    return vals


def complex_reference(u, sym, grid):
    """The full-spectrum complex-FFT product, Nyquist entry made real."""
    vals = full_symbol(sym, grid)
    vals[grid.n // 2] = vals[grid.n // 2].real
    return np.fft.ifft(vals * np.fft.fft(u)).real


class TestCachedHalfSpectrumMultiplier:
    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("sym", CONSTRUCTED_SYMBOLS, ids=lambda s: s.name)
    def test_matches_complex_reference(self, n, sym):
        # white noise carries Nyquist content, so the real-part convention is exercised
        g = make_grid(n, 20.0)
        u = np.random.default_rng(n).standard_normal(n)
        ref = complex_reference(u, sym, g)
        for _ in range(2):                  # table built, then reused
            out = apply_multiplier(Field(g, u), sym).samples
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [64, 1024])
    def test_nyquist_keeps_real_part(self, n):
        g = make_grid(n, 20.0)
        nyq = Field(g, np.cos(np.pi * np.arange(n)))
        k_nyq = abs(g.k[g.n // 2])
        assert np.max(np.abs(apply_multiplier(nyq, derivative_symbol()).samples)) == 0.0
        half = apply_multiplier(nyq, frac_deriv_symbol(0.5)).samples
        assert np.allclose(half, np.sqrt(k_nyq) * nyq.samples, rtol=0, atol=1e-12)

    def test_non_hermitian_raises_every_call(self):
        g = trig_grid(64)
        f = Field(g, np.sin(g.x))
        bad = MultiplierSymbol("i", lambda k: 1j * np.ones_like(k), 0.0)
        for _ in range(3):
            with pytest.raises(DomainError, match="Hermitian"):
                apply_multiplier(f, bad)

    @pytest.mark.parametrize("sign,error", [(-1.0, DomainError), (1.0, NumericError)])
    def test_non_finite_values_raise_every_call(self, sign, error):
        # infinite at the partner wavenumbers -14..-1 only, which the table
        # check evaluates, or at 1..14 on the half spectrum itself
        g = make_grid(64, 10.0)
        f = Field(g, np.sin(2 * np.pi * g.x / g.length))
        bad = MultiplierSymbol("inf", lambda k: np.where((sign * k > 1) & (sign * k < 15),
                                                         np.inf, 1.0), 1.0)
        for _ in range(3):
            with pytest.raises(error):
                apply_multiplier(f, bad)

    def test_table_built_once_per_grid(self, monkeypatch):
        calls = []
        on_grid = MultiplierSymbol.on_grid

        def counted(sym, grid):
            calls.append(sym.name)
            return on_grid(sym, grid)
        monkeypatch.setattr(MultiplierSymbol, "on_grid", counted)
        g = make_grid(256, 30.0)
        f = seeded_field(g, 1)
        for _ in range(5):
            frac_deriv(f, 0.37)
            apply_multiplier(f, hilbert_symbol())
        assert sorted(calls) == sorted([frac_deriv_symbol(0.37).name, hilbert_symbol().name])
        # a new grid builds its own
        apply_multiplier(seeded_field(make_grid(256, 30.0), 1), hilbert_symbol())
        assert len(calls) == 3

    def test_constructors_share_instances(self):
        assert frac_deriv_symbol(0.25) is frac_deriv_symbol(0.25)
        assert lowpass_symbol(2.0) is lowpass_symbol(2.0)

    def test_ad_hoc_symbols_do_not_accumulate(self):
        g = trig_grid(64)
        f = Field(g, np.cos(2 * g.x))
        tables = []
        for j in range(50):
            sym = MultiplierSymbol(f"scale{j}", lambda k, c=j: c * np.ones_like(k), float(j))
            apply_multiplier(f, sym)
            tables.append(weakref.ref(multiplier_table(sym, g)))
        del sym
        gc.collect()
        assert all(t() is None for t in tables)

    def test_table_dies_with_its_grid(self):
        g = trig_grid(64)
        table = weakref.ref(multiplier_table(hilbert_symbol(), g))
        assert table() is not None
        del g
        gc.collect()
        assert table() is None


class TestFracDeriv:
    def test_single_mode(self):
        g = trig_grid()
        f = Field(g, np.cos(3 * g.x))
        out = frac_deriv(f, 0.5)
        assert np.allclose(out.samples, np.sqrt(3) * np.cos(3 * g.x), atol=1e-12)

    def test_negative_order_single_modes(self):
        g = trig_grid()
        f = Field(g, np.sin(g.x) + np.sin(2 * g.x))
        out = frac_deriv(f, -0.5)
        expect = np.sin(g.x) + np.sin(2 * g.x) / np.sqrt(2)
        assert np.allclose(out.samples, expect, atol=1e-12)

    def test_negative_order_rejects_mean(self):
        g = make_grid(1024, 100.0)
        f = Field(g, np.exp(-g.x ** 2))
        with pytest.raises(DomainError, match=r"derivative \(s=-0.5\) needs zero mean"):
            frac_deriv(f, -0.5)

    def test_zero_mean_predicate(self):
        assert is_zero_mean(1e-8, 1.0) and not is_zero_mean(1.1e-8, 1.0)
        assert not is_zero_mean(1e-9, 1.0, tol=1e-10)
        assert is_zero_mean(0.0, 0.0) and not is_zero_mean(1e-300, 0.0)

    def test_order_zero_is_identity(self):
        g = trig_grid()
        f = Field(g, 1.5 + np.cos(g.x))
        out = frac_deriv(f, 0.0)
        assert np.allclose(out.samples, f.samples, atol=1e-14)


class TestHilbert:
    def test_sine(self):
        g = trig_grid()
        out = apply_multiplier(Field(g, np.sin(2 * g.x)), hilbert_symbol())
        assert np.allclose(out.samples, -np.cos(2 * g.x), atol=1e-12)

    def test_cosine(self):
        g = trig_grid()
        out = apply_multiplier(Field(g, np.cos(2 * g.x)), hilbert_symbol())
        assert np.allclose(out.samples, np.sin(2 * g.x), atol=1e-12)

    def test_twice_is_minus_identity_on_zero_mean(self):
        g = trig_grid()
        f = Field(g, np.sin(g.x))
        h = hilbert_symbol()
        out = apply_multiplier(apply_multiplier(f, h), h)
        assert np.allclose(out.samples, -f.samples, atol=1e-12)

    def test_twice_projects_out_mean(self):
        g = trig_grid()
        f = Field(g, 2.0 + np.sin(g.x))
        h = hilbert_symbol()
        out = apply_multiplier(apply_multiplier(f, h), h)
        assert np.allclose(out.samples, -(f.samples - 2.0), atol=1e-12)


class TestProjector:
    @pytest.mark.parametrize("a", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_scale(self, a):
        with pytest.raises(ConfigurationError, match="cutoff scale must be positive"):
            lowpass_symbol(a)

    def test_passes_low_mode(self):
        g = trig_grid()
        f = Field(g, np.sin(g.x))
        out = apply_multiplier(f, lowpass_symbol(4.0))
        assert np.allclose(out.samples, f.samples, atol=1e-13)

    def test_kills_high_mode(self):
        g = trig_grid(128)
        f = Field(g, np.sin(10 * g.x))
        out = apply_multiplier(f, lowpass_symbol(4.0))
        assert np.max(np.abs(out.samples)) <= 1e-13

    def test_linearity(self):
        g = make_grid(512, 50.0)
        f, h = seeded_field(g, 1), seeded_field(g, 2)
        low = lowpass_symbol(2.0)
        lhs = apply_multiplier(Field(g, f.samples + h.samples), low)
        rhs = apply_multiplier(f, low).samples + apply_multiplier(h, low).samples
        assert np.allclose(lhs.samples, rhs, atol=1e-13)


class TestCoordinateMultiply:
    def test_matches_pointwise(self):
        g = make_grid(512, 60.0)
        f = Field(g, np.exp(-g.x ** 2))
        out = coordinate_multiply(f)
        assert np.allclose(out.samples, g.x * np.exp(-g.x ** 2), atol=1e-15)

    def test_twice_is_x_squared(self):
        g = make_grid(512, 60.0)
        f = Field(g, np.exp(-g.x ** 2))
        out = coordinate_multiply(coordinate_multiply(f))
        assert np.allclose(out.samples, g.x ** 2 * f.samples, atol=1e-15)

    def test_odd_integrand_vanishes(self):
        g = make_grid(1024, 80.0)
        f = Field(g, np.exp(-g.x ** 2))
        val = integrate(coordinate_multiply(f))
        assert abs(val) <= 1e-12 * l2_norm(f)


class TestTruncatedWeight:
    def test_value_at_origin(self):
        g = make_grid(2048, 400.0)
        for n_w, theta in ((5.0, 0.5), (20.0, 1.0)):
            w = weight_profile(np.abs(g.x), n_w, theta)
            assert w[g.n // 2] == pytest.approx(1.0, abs=1e-12)

    def test_flat_region_value(self):
        # (2N)^theta beyond 3N: N=5, theta=0.5 gives sqrt(10)
        g = make_grid(2048, 400.0)
        w = weight_profile(np.abs(g.x), 5.0, 0.5)
        j = np.argmin(np.abs(g.x - 20.0))          # |x| = 4N
        assert w[j] == pytest.approx(np.sqrt(10.0), rel=1e-12)

    def test_inner_region_matches_closed_form(self):
        g = make_grid(2048, 400.0)
        n_w = 12.0
        w = weight_profile(np.abs(g.x), n_w, 1.0)
        sel = np.abs(g.x) <= n_w
        assert np.allclose(w[sel], np.sqrt(1 + g.x[sel] ** 2), rtol=1e-12)

    def test_monotone_with_unit_slope_bound(self):
        g = make_grid(4096, 400.0)
        for theta in (0.25, 0.5, 1.0):
            w = weight_profile(np.abs(g.x), 10.0, theta)
            right = w[g.n // 2:]
            assert np.all(np.diff(right) >= -1e-14)
            assert np.all(np.diff(right) / g.dx <= 1.0 + 1e-10)
            left = w[:g.n // 2 + 1][::-1]
            assert np.all(np.diff(left) >= -1e-14)
            assert np.all(np.diff(left) / g.dx <= 1.0 + 1e-10)

    @pytest.mark.parametrize("theta,n_w,gap", [
        (1.0, 1.0, 1.14478500e-5), (0.5, 1.0, 1.84268469e-4),
        (0.25, 1.0, 1.65589220e-3), (0.5, 8.0, 0.0), (1.0, 4.0, 0.0)])
    def test_gap_to_flat_value_at_3n(self, theta, n_w, gap):
        # the smooth minimum reaches (2N)^theta at |x| = 3N only for large N
        flat = (2.0 * n_w) ** theta
        below = flat - weight_profile(np.array([3.0 * n_w]), n_w, theta)[0]
        if gap:
            assert below == pytest.approx(gap, rel=1e-6)
        else:
            assert 0.0 <= below <= 2 * np.spacing(flat)

    def test_higher_derivatives_bounded_uniformly_in_n(self):
        # |d^l w| stays bounded by a fixed constant for l = 2, 3
        g = make_grid(8192, 800.0)
        caps = {2: 0.0, 3: 0.0}
        for n_w in (8.0, 16.0, 32.0, 64.0):
            w = weight_profile(np.abs(g.x), n_w, 0.5)
            d2 = np.gradient(np.gradient(w, g.dx), g.dx)
            d3 = np.gradient(d2, g.dx)
            caps[2] = max(caps[2], np.max(np.abs(d2)))
            caps[3] = max(caps[3], np.max(np.abs(d3)))
        assert caps[2] <= 1.0
        assert caps[3] <= 2.0


class TestOperatorIdentities:
    @pytest.mark.parametrize("alpha", [-0.5, 0.5])
    def test_dispersion_factorisation(self, alpha):
        # d/dx D^alpha = -H D^(1+alpha) as multipliers, to round-off
        g = make_grid(2048, 100.0)
        f = seeded_field(g, 3)
        f = Field(g, f.samples - np.mean(f.samples))
        lhs = apply_multiplier(f, dispersion_symbol(alpha))
        rhs = apply_multiplier(frac_deriv(f, 1.0 + alpha), hilbert_symbol())
        diff = np.linalg.norm(lhs.samples + rhs.samples)
        assert diff <= 1e-12 * np.linalg.norm(lhs.samples)

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.9])
    def test_frac_deriv_of_weight_bounded_uniformly(self, theta):
        # sup |D^beta w| is bounded independently of the truncation radius
        g = make_grid(8192, 800.0)
        for beta in (theta + 0.1, 1.0, 2.0):
            sups = []
            for n_w in (8.0, 16.0, 32.0, 64.0):
                w = Field(g, weight_profile(np.abs(g.x), n_w, theta))
                sups.append(np.max(np.abs(frac_deriv(w, beta).samples)))
            assert max(sups) <= 3.0
            assert max(sups) <= 4.0 * min(sups) + 1e-6

    def test_hilbert_coordinate_commutator_zero_mean(self):
        # [H, x] f = 0 exactly when f has zero mean
        g = make_grid(4096, 200.0)
        f = InitialCondition("sine_packet", (1.0, 3.0, 4.0)).build(grid=g)
        a = apply_multiplier(coordinate_multiply(f), hilbert_symbol())
        b = coordinate_multiply(apply_multiplier(f, hilbert_symbol()))
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-10

    def test_hilbert_coordinate_commutator_detects_mean(self):
        # with mean M the commutator is the constant -M/pi
        g = make_grid(4096, 200.0)
        f = Field(g, np.exp(-g.x ** 2))
        a = apply_multiplier(coordinate_multiply(f), hilbert_symbol())
        b = coordinate_multiply(apply_multiplier(f, hilbert_symbol()))
        comm = a.samples - b.samples
        interior = np.abs(g.x) < 20.0
        expect = -np.sqrt(np.pi) / np.pi
        assert np.median(comm[interior]) == pytest.approx(expect, rel=0.05)
