import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import cumulative_simpson

from fkdvlab import (ConfigurationError, DomainError, Field, InitialCondition,
                     NumericError, SimConfig, StepError, l2_norm, linear_propagator,
                     make_grid, picard_oracle, solve)
from fkdvlab.diagnostics import COLUMNS
from fkdvlab.errors import OracleDivergenceError
from fkdvlab.solver import _cumulative_simpson, _Stepper, cfl_bound
from fkdvlab.spectral import _uniform_draws, random_band


def small_cfg(**kw):
    base = dict(alpha=0.5, dt=1e-3, t_final=0.1, n=1024, length=100.0,
                diag_every=20)
    base.update(kw)
    return SimConfig(**base)


@pytest.fixture
def transforms_added(monkeypatch):
    """``f(diag_every, columns)``: the rfft and irfft calls that 10 more
    steps add to a ``small_cfg`` solve of 10 steps."""
    counts = {"rfft": 0, "irfft": 0}

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in counts:
        monkeypatch.setattr(np.fft, name, counted(name))

    def transforms(steps, diag_every, columns):
        counts.update(rfft=0, irfft=0)
        solve(small_cfg(t_final=steps * 1e-3, diag_every=diag_every), columns=columns)
        return dict(counts)

    def added(diag_every, columns=COLUMNS):
        short, long = (transforms(s, diag_every, columns) for s in (10, 20))
        return {name: long[name] - short[name] for name in counts}
    return added


class TestConfig:
    def test_alpha_zero_rejected(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            small_cfg(alpha=0.0)

    def test_alpha_range(self):
        with pytest.raises(ConfigurationError):
            small_cfg(alpha=1.5)
        small_cfg(alpha=1.5, extended=True)   # allowed behind the flag
        with pytest.raises(ConfigurationError):
            small_cfg(alpha=-1.2)

    def test_positive_steps(self):
        with pytest.raises(ConfigurationError):
            small_cfg(dt=-1.0)
        with pytest.raises(ConfigurationError):
            small_cfg(t_final=0.0)

    @pytest.mark.parametrize("key", ["dt", "t_final", "length"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            small_cfg(**{key: value})

    def test_nan_tail_tol_rejected(self):
        # every tail_frac > nan is false, so the guard would be silently off
        with pytest.raises(ConfigurationError, match="tail_tol"):
            small_cfg(tail_tol=math.nan)
        small_cfg(tail_tol=math.inf)            # an explicit "never truncate"

    def test_negative_store_every_rejected(self):
        with pytest.raises(ConfigurationError, match="store_every"):
            small_cfg(store_every=-3)
        small_cfg(store_every=0)                # endpoints only


class TestInitialConditions:
    def test_gaussian(self):
        g = make_grid(512, 50.0)
        u = InitialCondition("gaussian", (2.0, 1.5, 3.0)).build(g)
        assert np.allclose(u.samples, 2.0 * np.exp(-((g.x - 3.0) / 1.5) ** 2))

    def test_zero_mean_projection(self):
        g = make_grid(512, 50.0)
        u = InitialCondition("gaussian", (1.0, 1.0, 0.0), True).build(g)
        assert abs(np.sum(u.samples)) <= 1e-13

    def test_random_band_deterministic(self):
        g = make_grid(512, 50.0)
        ic = InitialCondition("random_band", (42, 0.5, 4.0, 1.0))
        a, b = ic.build(g), ic.build(g)
        assert np.array_equal(a.samples, b.samples)
        assert l2_norm(a) == pytest.approx(1.0, rel=1e-12)

    def test_random_band_spectrum_confined(self):
        g = make_grid(512, 50.0)
        u = InitialCondition("random_band", (7, 1.0, 3.0, 1.0)).build(g)
        uh = np.fft.fft(u.samples)
        outside = (np.abs(g.k) < 1.0) | (np.abs(g.k) > 3.0)
        assert np.max(np.abs(uh[outside])) <= 1e-12 * np.max(np.abs(uh))

    def test_random_band_batch_rows_equal_single_builds(self):
        g = make_grid(512, 50.0)

        def uniform(seed, c):
            # SplitMix64 output c + 1 of the seed, in Python integers
            z = (seed + (c + 1) * 0x9E3779B97F4A7C15) % 2 ** 64
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2 ** 64
            z ^= z >> 31
            return ((z >> 11) - 2 ** 52) / 2 ** 52

        def one_seed(seed):
            # reference: one hash per value, one irfft and one norm per field
            k = g.k[: g.n // 2 + 1]
            idx = np.nonzero((k >= 0.5) & (k <= 4.0) & (k > 0))[0]
            coeff = np.zeros(k.size, dtype=complex)
            coeff[idx] = [complex(uniform(seed, 2 * j), uniform(seed, 2 * j + 1))
                          for j in range(idx.size)]
            u = scipy.fft.irfft(coeff, g.n)
            return u * (1.3 / np.sqrt(np.sum(u ** 2) * g.dx))

        seeds = [3, 4, 11, 1000, 2 ** 64 - 1]
        batch = random_band(g, seeds, 0.5, 4.0, 1.3)
        assert batch.shape == (len(seeds), g.n)
        for row, seed in zip(batch, seeds):
            built = InitialCondition("random_band", (seed, 0.5, 4.0, 1.3)).build(g)
            assert np.array_equal(row, one_seed(seed))
            assert np.array_equal(row, built.samples)

    def test_random_band_stream_pinned(self):
        # the first values of two seeds' streams; seed 1234567's are the top 53
        # bits of SplitMix64's published outputs 6457827717110365317, ...
        assert _uniform_draws([1234567, 2 ** 64 - 1], 4).tolist() == [
            [-0.29984091595718376, -0.6527118066581747,
             0.06441460812483846, -0.5019846852354173],
            [0.7878858405663689, 0.8251944071889064,
             -0.5610360742094649, -0.14753110110966716]]

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, 3.0, True, "1", math.nan])
    def test_random_band_bad_seed_rejected(self, seed):
        g = make_grid(512, 50.0)
        for build in (lambda: InitialCondition("random_band", (seed, 0.5, 4.0, 1.0)),
                      lambda: random_band(g, [1, seed], 0.5, 4.0, 1.0)):
            with pytest.raises(ConfigurationError, match="random_band: seed must be"):
                build()

    def test_random_band_without_grid_modes_rejected(self):
        g = make_grid(512, 50.0)
        with pytest.raises(ConfigurationError, match="no grid modes"):
            random_band(g, [1, 2], 100.0, 200.0, 1.0)

    def test_unknown_family(self):
        g = make_grid(512, 50.0)
        with pytest.raises(ConfigurationError, match="family"):
            InitialCondition("bump", (1.0,)).build(g)

    @pytest.mark.parametrize("family,params", [
        ("gaussian", (1.0, 2.0)), ("odd_gaussian", (1.0,)),
        ("random_band", (1, 0.5, 4.0)), ("file", ())])
    def test_wrong_arity_rejected(self, family, params):
        with pytest.raises(ConfigurationError, match="parameter"):
            InitialCondition(family, params)


class TestLinearPropagator:
    def test_zero_time_is_identity(self):
        g = make_grid(512, 50.0)
        f = InitialCondition("random_band", (1, 0.5, 4.0, 1.0)).build(g)
        out = linear_propagator(f, 0.0, 0.5)
        assert np.max(np.abs(out.samples - f.samples)) <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_constant_frequency_phase_shift(self, k):
        # alpha = -1 advances every mode by the same unit frequency
        g = make_grid(256, 2 * np.pi)
        f = Field(g, np.sin(k * g.x))
        t = 0.7
        out = linear_propagator(f, t, -1.0)
        assert np.allclose(out.samples, np.sin(k * g.x + t), atol=1e-12)

    def test_norm_preserved(self):
        g = make_grid(1024, 100.0)
        f = InitialCondition("gaussian", (0.5, 1.0, 0.0)).build(g)
        out = linear_propagator(f, 1.3, 0.5)
        assert l2_norm(out) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_unitary_below_nyquist(self):
        # the band stops well short of the Nyquist wavenumber pi n / L ~ 10
        g = make_grid(64, 20.0)
        f = InitialCondition("random_band", (3, 0.5, 4.0, 1.0)).build(g)
        out = linear_propagator(f, 0.3, 0.5)
        assert l2_norm(out) == pytest.approx(l2_norm(f), rel=1e-13)

    def test_nyquist_mode_scaled_by_cosine(self):
        # the unpaired mode keeps the real part of exp(i t k|k|^alpha)
        g = make_grid(64, 20.0)
        t, alpha = 0.3, 0.5
        f = Field(g, np.cos(np.pi * np.arange(g.n)))
        k_nyq = abs(g.k[g.n // 2])
        scale = math.cos(t * k_nyq ** (1.0 + alpha))
        out = linear_propagator(f, t, alpha)
        assert np.allclose(out.samples, scale * f.samples, rtol=0, atol=1e-13)
        assert l2_norm(out) / l2_norm(f) == pytest.approx(0.9905, abs=5e-5)

    def test_group_property(self):
        g = make_grid(1024, 100.0)
        f = InitialCondition("gaussian", (0.5, 1.0, 0.0)).build(g)
        a = linear_propagator(linear_propagator(f, 0.4, -0.5), 0.6, -0.5)
        b = linear_propagator(f, 1.0, -0.5)
        assert np.allclose(a.samples, b.samples, atol=1e-13)

    def test_time_reversibility(self):
        g = make_grid(1024, 100.0)
        f = InitialCondition("gaussian", (0.5, 1.0, 0.0)).build(g)
        out = linear_propagator(linear_propagator(f, 2.0, 0.5), -2.0, 0.5)
        assert np.max(np.abs(out.samples - f.samples)) <= 1e-12


def nonlinear_samples(f, dealias=True):
    """-1/2 d/dx (u^2) as the stepper evaluates it, back on the grid."""
    st = _Stepper(f.grid, 0.5, 1e-3, dealias, nonlinear=True)
    return scipy.fft.irfft(st.nhat(scipy.fft.rfft(f.samples)), f.grid.n)


def one_step(f, cfg):
    """The field of the state one step after the state ``solve`` makes of ``f``."""
    st = _Stepper(f.grid, cfg.alpha, cfg.dt, cfg.dealias, cfg.nonlinear)
    st.step(st.start(f.samples))
    return st.field.copy()


class TestNonlinearTerm:
    def test_zero_field(self):
        g = make_grid(256, 2 * np.pi)
        out = nonlinear_samples(Field(g, np.zeros(g.n)))
        assert np.all(out == 0.0)

    def test_single_mode_closed_form(self):
        # -1/2 d/dx sin^2 = -sin cos = -sin(2x)/2
        g = make_grid(256, 2 * np.pi)
        out = nonlinear_samples(Field(g, np.sin(g.x)))
        assert np.allclose(out, -0.5 * np.sin(2 * g.x), atol=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_orthogonality(self, seed):
        g = make_grid(1024, 100.0)
        f = InitialCondition("random_band", (seed, 0.5, 6.0, 2.0)).build(g)
        n = nonlinear_samples(f, dealias=True)
        val = np.sum(f.samples * n) * g.dx
        assert abs(val) <= 1e-12 * l2_norm(f) ** 3

    def test_mean_conserved(self):
        g = make_grid(1024, 100.0)
        f = InitialCondition("gaussian", (1.0, 2.0, 0.0)).build(g)
        n = nonlinear_samples(f)
        assert abs(np.sum(n)) <= 1e-14


class TestStepper:
    def test_linear_only_matches_propagator(self):
        cfg = small_cfg(nonlinear=False)
        g = cfg.grid()
        f = InitialCondition("gaussian", (0.3, 1.0, 0.0)).build(g)
        a = one_step(f, cfg)
        b = linear_propagator(f, cfg.dt, cfg.alpha)
        assert np.max(np.abs(a - b.samples)) <= 1e-15

    def test_zero_field(self):
        cfg = small_cfg()
        g = cfg.grid()
        out = one_step(Field(g, np.zeros(g.n)), cfg)
        assert np.all(out == 0.0)

    def test_cfl_violation_carries_suggestion(self):
        cfg = small_cfg(dt=0.5, t_final=0.5)
        g = cfg.grid()
        f = InitialCondition("gaussian", (5.0, 1.0, 0.0)).build(g)
        # the state at t = 0 goes through the check every step's state does
        with pytest.raises(StepError, match="^CFL violated at t = 0: dt = 0.5 > ") as exc:
            solve(cfg, f)
        assert exc.value.suggested_dt is not None
        u_max = float(np.max(np.abs(f.samples)))
        assert exc.value.suggested_dt == pytest.approx(cfl_bound(u_max, g.dx))

    @pytest.mark.parametrize("alpha,n,length,ic", [
        (0.5, 4096, 200.0, InitialCondition("gaussian", (0.2, 1.0, 0.0), True)),
        (-1.0, 1024, 100.0, InitialCondition("odd_gaussian", (-3.0, 1.0)))])
    def test_state_holds_only_the_kept_modes(self, alpha, n, length, ic):
        # the docstring's plain expressions on modes 0..top, with the
        # stepper's tables, give its kept modes bit for bit
        g = make_grid(n, length)
        st = _Stepper(g, alpha, 1e-3, dealias=True, nonlinear=True)
        E, E2, dt, keep = st.E, st.E2, st.dt, st.keep
        assert keep == n // 3 + 1

        def nhat(vh):
            u = np.fft.irfft(vh, n)
            return st.dfac * np.fft.rfft(u * u)[:keep]

        uh = st.start(ic.build(g).samples)
        ref = uh[:keep].copy()
        for _ in range(300):
            k1 = nhat(ref)
            k2 = nhat(E * (ref + dt / 2 * k1))
            k3 = nhat(E * ref + dt / 2 * k2)
            k4 = nhat(E2 * ref + dt * E * k3)
            ref = E2 * ref + dt / 6 * (E2 * k1 + 2 * E * (k2 + k3) + k4)
            uh = st.step(uh)
            assert np.array_equal(uh[:keep], ref)
            assert np.all(uh[keep:] == 0.0)
            assert np.array_equal(st.field, np.fft.irfft(ref, n))

    def test_richardson_order_four(self):
        # self-convergence against a dt/8 reference
        cfg = small_cfg(alpha=0.5, n=4096, length=200.0, t_final=0.5,
                        ic=InitialCondition("gaussian", (0.1, 1.0, 0.0), True))
        g = cfg.grid()
        u0 = cfg.ic.build(g)
        ref = solve(replace(cfg, dt=0.0025), u0).final
        errs = []
        for dt in (0.02, 0.01):
            tr = solve(replace(cfg, dt=dt), u0)
            errs.append(np.linalg.norm(tr.final.samples - ref.samples)
                        / np.linalg.norm(ref.samples))
        order = np.log2(errs[0] / errs[1])
        assert order == pytest.approx(4.0, abs=0.2)


def reference_ifrk4(u0, grid, alpha, dt, steps, dealias, nonlinear):
    """Integrating-factor RK4 on the complex full spectrum with the 2/3
    mask applied around the square: an independent reference for the
    half-spectrum stepper."""
    k = grid.k
    gen = np.zeros(grid.n, dtype=complex)
    nz = k != 0
    gen[nz] = 1j * k[nz] * np.abs(k[nz]) ** alpha
    E, E2 = np.exp(0.5 * dt * gen), np.exp(dt * gen)
    ny = grid.n // 2
    E[ny], E2[ny] = E[ny].real, E2[ny].real
    m = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    mask = (np.abs(m) <= grid.n // 3).astype(float) if dealias else np.ones(grid.n)

    def nhat(vh):
        if not nonlinear:
            return np.zeros_like(vh)
        v = np.fft.ifft(mask * vh).real
        return -0.5j * k * mask * np.fft.fft(v * v)

    uh = np.fft.fft(u0).astype(complex)
    for _ in range(steps):
        k1 = nhat(uh)
        k2 = nhat(E * (uh + 0.5 * dt * k1))
        k3 = nhat(E * uh + 0.5 * dt * k2)
        k4 = nhat(E2 * uh + dt * E * k3)
        uh = E2 * uh + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)
    return np.fft.ifft(uh).real


class TestHalfSpectrumStepper:
    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5])
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_matches_complex_reference(self, alpha, dealias, nonlinear):
        cfg = small_cfg(alpha=alpha, n=512, length=50.0, dt=1e-3, t_final=0.1,
                        diag_every=100, dealias=dealias, nonlinear=nonlinear,
                        tail_tol=1.0,
                        ic=InitialCondition("random_band", (5, 0.5, 6.0, 1.0)))
        g = cfg.grid()
        u0 = cfg.ic.build(g)
        out = solve(cfg, u0).final.samples
        ref = reference_ifrk4(u0.samples, g, alpha, cfg.dt, 100, dealias, nonlinear)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


# Diagnostics rows (t, i1, i2, i3, moment_x, max_u, min_ux, tail_frac) and
# final samples of four short solves on 32 nodes, with rows at t = 0.04, 0.08
# and 0.1; the two dealiased runs start from modes 0..10 of u0 and keep every
# mode above 10 at zero
SOLVER_PINS = {
    "alpha05": (dict(alpha=0.5), [
        (0.0, 2.1699898822280517e-11, 0.31332853400683397, 0.38686978996601706,
         -0.8862208095678448, 0.4229045009471193, -0.9999373746554,
         7.270572201599971e-11),
        (0.04, 2.1699898822280517e-11, 0.3133285340055282, 0.3868697899637258,
         -0.879328324620037, 0.4216524980987754, -1.0208253029392447,
         6.008783523584413e-08),
        (0.08, 2.1699933516750036e-11, 0.3133285340040083, 0.38686978996114607,
         -0.8723929328522331, 0.4270916811759542, -1.0011966829488879,
         2.902034904088195e-07),
        (0.1, 2.1699968211219556e-11, 0.3133285340031634, 0.38686978995975324,
         -0.8690299334652707, 0.4361293228929159, -1.0174779669640204,
         4.990396056955145e-07),
    ], [
        -0.0011632654547638621, -0.000371409118480992, -0.0003299795922523663,
        -0.0014912173211109048, -0.0008956478006460211, -0.00125149542956908,
        -0.003160371557785216, -0.002372850892344354, 0.001769696336018145,
        0.01982785463405523, 0.07622337650918716, 0.1818561237503143, 0.32128011093813374,
        0.4361293228929159, 0.41039219814029937, 0.17476962783321492, -0.1560687294590166,
        -0.37431790534165243, -0.40106485147420023, -0.31051987119097285,
        -0.19333173743807072, -0.09790418222620094, -0.04279535933339894,
        -0.01852122160153003, -0.007141899693901943, -0.0031611961999163107,
        -0.002698470129456801, -0.0010725001458094519, -0.0006128344610754621,
        -0.0013611445577905168, -0.0004022354943503115, -0.00023793505040260732]),
    "alpha_m1": (dict(alpha=-1.0), [
        (0.0, 2.1699898822280517e-11, 0.31332853400683397, 0.2416047706263976,
         -0.8862208095678448, 0.4229045009471193, -0.9999373746554,
         7.270572201599971e-11),
        (0.04, 2.1699898822280517e-11, 0.31332853400648075, 0.24160477062633764,
         -0.880881497393132, 0.41720456140459017, -1.0366597888609062,
         6.186700731994351e-08),
        (0.08, 2.1699864127810997e-11, 0.31332853400607386, 0.24160477062626068,
         -0.8740204727935907, 0.41138071895757566, -1.072263072644426,
         3.1169225331115684e-07),
        (0.1, 2.1699829433341478e-11, 0.31332853400584837, 0.24160477062621435,
         -0.8700171680313112, 0.4084281115997155, -1.0894456411433442,
         5.470156601515472e-07),
    ], [
        0.0028082991841494667, 0.002474751116428725, 0.0036108861257470592,
        0.0031355656144453348, 0.003022947565616038, 0.004615322201200714,
        0.004708871909793966, 0.006163024990042808, 0.013049656599242496,
        0.02810873683764825, 0.0675382203633518, 0.14839889475491286, 0.2635115615066606,
        0.37740458492559514, 0.4084281115997155, 0.2560606445028218, -0.059166341317379655,
        -0.3479425095776657, -0.4454852414535327, -0.37043717074458454, -0.2353286411180845,
        -0.11551993030279782, -0.03980545259742849, -0.007913478361726504,
        0.0020623291195105004, 0.005401082525887585, 0.004343766863465215,
        0.0034281137151088714, 0.004122679366851956, 0.003121041421539239,
        0.0025783463170405696, 0.0035013264158631485]),
    "no_dealias": (dict(alpha=0.5, dealias=False), [
        (0.0, 2.1699933516750036e-11, 0.3133285343288751, 0.38686979081310763,
         -0.8862269253341268, 0.4228961538510806, -0.9999999997933967, 3.605307260621593e-18),
        (0.04, 2.1699968211219556e-11, 0.313328534542197, 0.38686979080904194,
         -0.8796604329832558, 0.4212784602367483, -1.0239225980149276,
         1.7409485293912333e-10),
        (0.08, 2.1699898822280517e-11, 0.3133285163776156, 0.38686979080858375,
         -0.8732170191667764, 0.4264009779140376, -1.0031678571236433,
         1.6308493608209317e-09),
        (0.1, 2.1699898822280517e-11, 0.3133284955032534, 0.38686979080874084,
         -0.8700275188411757, 0.43479771658606814, -1.028161742905617, 2.247516249259069e-09),
    ], [
        -0.0005593413902624106, -0.0006258545324611953, -0.0006794647952859945,
        -0.000882147680517309, -0.001134491691272957, -0.001689121805948296,
        -0.0023958913363001932, -0.002740368235696653, 0.001315285337243302,
        0.020764719637422394, 0.07571161539392406, 0.18124483021548352, 0.3227825796974576,
        0.43479771658606814, 0.4105757015315695, 0.1758765870023395, -0.15780109927253427,
        -0.37299187780131793, -0.40120561462611226, -0.3114664161303737,
        -0.1922252435287094, -0.09825345501818392, -0.0433382326266481,
        -0.01772627940632963, -0.00743177519707168, -0.0035835672931547186,
        -0.002024982972571379, -0.0013487808005130109, -0.0009583657131684575,
        -0.0007754991962837243, -0.0006306787548307768, -0.0006004855265203668]),
    "linear": (dict(alpha=0.5, nonlinear=False), [
        (0.0, 2.1699933516750036e-11, 0.3133285343288751, 0.38686979081310763,
         -0.8862269253341268, 0.4228961538510806, -0.9999999997933967, 3.605307260621593e-18),
        (0.04, 2.1699829433341478e-11, 0.3133285343288749, 0.3853702263685699,
         -0.8859202920813514, 0.4166694272408386, -0.9856460149618139, 6.249901135525203e-11),
        (0.08, 2.1699968211219556e-11, 0.3133285343288749, 0.3838752145941042,
         -0.8857241586178011, 0.4325177605673188, -0.943635946399549, 3.366543635722269e-10),
        (0.1, 2.1700002905689075e-11, 0.3133285343288749, 0.38313083237285595,
         -0.8856673429509634, 0.4405470855059448, -0.9383370227681639, 6.275849816678009e-10),
    ], [
        -0.0005803319045820515, -0.0006150784009461563, -0.0007041913674276368,
        -0.0008711645745426433, -0.0011671519475174724, -0.0016823289859130564,
        -0.0024490755824292804, -0.002763163049221296, 0.0011774193726886428,
        0.020847431196838198, 0.07758993211272426, 0.1896996568233751, 0.3380593539725292,
        0.4405470855059448, 0.39148348585124737, 0.16263678210183355, -0.1414243623678561,
        -0.3595646831685593, -0.40758181794347825, -0.32333984325368803,
        -0.19920348297463325, -0.10068645685633573, -0.04400647777174836,
        -0.017893017517927125, -0.007507635289289827, -0.003604213276369575,
        -0.0020553615081863735, -0.0013496962983743088, -0.0009798665386945293,
        -0.0007698005695263854, -0.00065043605791959, -0.0005915096625749572]),
}


@pytest.mark.parametrize("name", SOLVER_PINS)
def test_solver_bits_pinned(name):
    kw, rows, final = SOLVER_PINS[name]
    cfg = SimConfig(dt=0.01, t_final=0.1, n=32, length=10.0, diag_every=4, tail_tol=1.0,
                    ic=InitialCondition("odd_gaussian", (-1.0, 1.0)), **kw)
    tr = solve(cfg)
    got = list(zip(tr.times.tolist(), *(tr.rows[c].tolist() for c in COLUMNS[:-1])))
    assert got == rows
    assert tr.final.samples.tolist() == final


class TestSolve:
    def test_u0_from_another_box_rejected(self):
        # run unchecked, u0 sampled on L = 50 under a config of L = 100 mixes
        # the boxes: i2 reads 0.0476 in row 0 and 0.0952 at t = 0.1
        cfg = small_cfg(ic=InitialCondition("gaussian", (0.2, 1.0, 0.0), True))
        u0 = cfg.ic.build(make_grid(1024, 50.0))
        with pytest.raises(ConfigurationError, match=r"n = 1024, length = 50; "
                                                     r"the config has n = 1024, length = 100"):
            solve(cfg, u0)

    def test_runs_on_the_grid_of_u0(self):
        cfg = small_cfg()
        u0 = cfg.ic.build(cfg.grid())
        traj = solve(cfg, u0)
        assert traj.final.grid is u0.grid
        assert np.array_equal(traj.final.samples, solve(cfg).final.samples)

    def test_zero_data(self):
        cfg = small_cfg(ic=InitialCondition("gaussian", (0.0, 1.0, 0.0)))
        traj = solve(cfg)
        assert np.all(traj.rows["i1"] == 0.0) and np.all(traj.rows["i2"] == 0.0)
        assert np.all(traj.final.samples == 0.0)

    def test_l2_conservation(self):
        cfg = small_cfg(alpha=0.5, t_final=0.5,
                        ic=InitialCondition("gaussian", (0.2, 1.0, 0.0), True))
        traj = solve(cfg)
        i2 = traj.rows["i2"]
        assert abs(i2[-1] - i2[0]) / i2[0] <= 1e-8

    def test_mean_conserved_exactly(self):
        cfg = small_cfg(alpha=-0.5, t_final=0.2,
                        ic=InitialCondition("odd_gaussian", (1.0, 1.0)))
        traj = solve(cfg)
        assert np.all(np.abs(traj.rows["i1"]) <= 1e-13)

    def test_deterministic_rerun(self):
        cfg = small_cfg(tail_tol=1.0,
                        ic=InitialCondition("random_band", (3, 0.5, 4.0, 0.5)))
        a = solve(cfg)
        b = solve(cfg)
        assert np.array_equal(a.final.samples, b.final.samples)
        assert np.array_equal(a.rows["i2"], b.rows["i2"])

    def test_linear_path_independent_of_diag_cadence(self):
        cfg = small_cfg(nonlinear=False,
                        ic=InitialCondition("gaussian", (0.3, 1.0, 0.0)))
        a = solve(replace(cfg, diag_every=5))
        b = solve(replace(cfg, diag_every=50))
        assert np.array_equal(a.final.samples, b.final.samples)

    def test_linear_solve_matches_propagator(self):
        cfg = small_cfg(nonlinear=False, t_final=0.5,
                        ic=InitialCondition("gaussian", (0.3, 1.0, 0.0)))
        g = cfg.grid()
        u0 = cfg.ic.build(g)
        traj = solve(cfg, u0)
        direct = linear_propagator(u0, 0.5, cfg.alpha)
        ref = direct.samples
        rel = np.linalg.norm(traj.final.samples - ref) / np.linalg.norm(ref)
        assert rel <= 3e-12

    def test_initial_tail_contamination_rejected(self):
        cfg = small_cfg(ic=InitialCondition("gaussian", (0.5, 1.0, 48.0)))
        with pytest.raises(DomainError, match="tail"):
            solve(cfg)

    def test_truncation_flag_on_tail_growth(self):
        cfg = small_cfg(alpha=-0.5, t_final=2.0, tail_tol=1e-14, diag_every=10,
                        ic=InitialCondition("odd_gaussian", (0.5, 1.0)))
        traj = solve(cfg)
        assert traj.truncated
        assert "tail" in traj.truncation_reason
        assert traj.times[-1] < 2.0

    def test_truncated_run_keeps_the_state_where_it_stopped(self):
        cfg = SimConfig(alpha=-0.5, dt=1e-3, t_final=1.0, n=4096, length=200.0,
                        tail_tol=1e-6, ic=InitialCondition("odd_gaussian", (-4.0, 1.0)))
        tr = solve(cfg)
        t_stop = tr.times[-1]
        assert tr.truncated and t_stop < cfg.t_final
        assert sorted(tr.states) == [0.0, t_stop]
        assert tr.final is tr.states[t_stop]
        ref = solve(replace(cfg, t_final=t_stop, tail_tol=1.0)).final
        assert np.array_equal(tr.final.samples, ref.samples)

    def test_t_final_off_the_step_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="not a multiple of dt"):
            solve(small_cfg(t_final=0.0105))

    def test_non_finite_state_names_last_good_time(self, monkeypatch):
        step, calls = _Stepper.step, []

        def nan_on_third(self, uh):
            calls.append(1)
            out = step(self, uh)
            if len(calls) == 3:
                out *= np.nan
                self.field *= np.nan
            return out
        monkeypatch.setattr(_Stepper, "step", nan_on_third)
        with pytest.raises(NumericError, match=r"at t = 0\.003; last good t = 0\.002$"):
            solve(small_cfg())

    def test_cfl_violation_between_rows_carries_suggestion(self):
        # dt sits on the initial bound; the first step raises max|u| and
        # writes no row, and its state's check finds the violation
        g = make_grid(1024, 50.0)
        u0 = InitialCondition("odd_gaussian", (-3.0, 1.0)).build(g)
        dt = cfl_bound(float(np.max(np.abs(u0.samples))), g.dx)
        cfg = small_cfg(alpha=-1.0, n=1024, length=50.0, dt=dt, t_final=10 * dt,
                        diag_every=100)
        with pytest.raises(StepError, match=f"CFL violated at t = {cfg.dt:g}:") as exc:
            solve(cfg, u0)
        exact = cfl_bound(float(np.max(np.abs(one_step(u0, cfg)))), g.dx)
        assert exc.value.suggested_dt == exact
        assert cfg.dt > exc.value.suggested_dt

    def test_eight_transforms_per_step_without_a_row(self, transforms_added):
        # rows only at t = 0 and at the end, whatever the step count
        assert transforms_added(diag_every=1000) == {"rfft": 4 * 10, "irfft": 4 * 10}


# the row fields each campaign reads, on its kind of data at small n
CAMPAIGN_COLUMNS = {
    "tstar": (dict(alpha=0.5, diag_every=2, ic=InitialCondition("odd_gaussian", (-4.0, 1.0))),
              ("moment_x",)),
    "moment_law": (dict(alpha=-0.5, diag_every=10,
                        ic=InitialCondition("odd_gaussian", (-4.0, 1.0))), ("moment_x",)),
    "breaking": (dict(alpha=-1.0, dt=2e-3, diag_every=5,
                      ic=InitialCondition("odd_gaussian", (-3.0, 1.0))), ("min_ux",)),
}


class TestColumns:
    @pytest.mark.parametrize("name", CAMPAIGN_COLUMNS)
    def test_read_columns_equal_the_full_rows(self, name):
        kw, columns = CAMPAIGN_COLUMNS[name]
        cfg = small_cfg(n=512, length=50.0, t_final=0.1, tail_tol=1e-6, **kw)
        full, lean = solve(cfg), solve(cfg, columns=columns)
        assert np.array_equal(lean.times, full.times) and len(lean.times) > 2
        assert list(lean.rows) == [c for c in COLUMNS if c in columns + ("tail_frac",)]
        for col in lean.rows:
            assert np.array_equal(lean.rows[col], full.rows[col])
        with pytest.raises(KeyError):
            lean.rows["i2"]
        assert np.array_equal(lean.final.samples, full.final.samples)

    def test_unknown_column_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown diagnostics column.*mom"):
            solve(small_cfg(), columns=("mom",))

    @pytest.mark.parametrize("columns,per_row", [(("moment_x",), 0),
                                                 (("moment_x", "min_ux"), 1)])
    def test_transforms_per_row_follow_the_columns_read(self, transforms_added,
                                                         columns, per_row):
        # a row every 2nd step, as the t* campaign writes them: 5 more rows
        assert transforms_added(diag_every=2, columns=columns) == \
            {"rfft": 4 * 10, "irfft": 4 * 10 + per_row * 5}


class TestPicardOracle:
    def test_cumulative_simpson_matches_scipy(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((65, 7))
        for t in (0.05, 1.0, 3.0):
            taus = np.linspace(0.0, t, 65)
            ref = cumulative_simpson(y, x=taus, axis=0, initial=0.0)
            got = _cumulative_simpson(y, taus[1])
            assert got.shape == ref.shape and np.all(got[0] == 0.0)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            z = y + 1j * rng.standard_normal(y.shape)      # complex: part by part
            ref_z = (cumulative_simpson(z.real, x=taus, axis=0, initial=0.0)
                     + 1j * cumulative_simpson(z.imag, x=taus, axis=0, initial=0.0))
            assert np.max(np.abs(_cumulative_simpson(z, taus[1]) - ref_z)) \
                <= 1e-14 * np.max(np.abs(ref_z))

    def test_zero_iterations_is_linear(self):
        cfg = small_cfg()
        g = cfg.grid()
        u0 = InitialCondition("gaussian", (0.1, 1.0, 0.0)).build(g)
        a = picard_oracle(u0, cfg, 0.05, iterations=0)
        b = linear_propagator(u0, 0.05, cfg.alpha)
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-13

    def test_linear_config_is_free_evolution(self):
        cfg = small_cfg(n=256, length=50.0, dt=0.02, nonlinear=False)
        g = cfg.grid()
        u0 = InitialCondition("gaussian", (0.1, 1.0, 0.0)).build(g)
        pic = picard_oracle(u0, cfg, 0.1, iterations=6)
        ref = linear_propagator(u0, 0.1, cfg.alpha)
        assert (np.max(np.abs(pic.samples - ref.samples))
                <= 1e-13 * np.max(np.abs(ref.samples)))

    def test_zero_data(self):
        cfg = small_cfg()
        g = cfg.grid()
        out = picard_oracle(Field(g, np.zeros(g.n)), cfg, 0.05, iterations=4)
        assert np.all(out.samples == 0.0)

    def test_agrees_with_stepper(self):
        cfg = small_cfg(alpha=0.5, n=4096, length=200.0, dt=1e-3)
        g = cfg.grid()
        u0 = InitialCondition("gaussian", (0.1, 1.0, 0.0)).build(g)
        pic = picard_oracle(u0, cfg, 0.05, iterations=6)
        tr = solve(replace(cfg, t_final=0.05), u0)
        ref = tr.final.samples
        rel = np.linalg.norm(pic.samples - ref) / np.linalg.norm(ref)
        assert rel <= 2e-7

    def test_divergence_detected(self):
        cfg = small_cfg(alpha=-0.9, dt=1e-3)
        g = cfg.grid()
        u0 = InitialCondition("odd_gaussian", (40.0, 1.0)).build(g)
        with pytest.raises(OracleDivergenceError):
            picard_oracle(u0, cfg, 3.0, iterations=12)
