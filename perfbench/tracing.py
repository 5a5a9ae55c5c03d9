"""Spans and counters recorded around calls into fkdvlab's public functions.

The program is not changed.  While a unit is traced, the tracer rebinds the
public names below, wherever fkdvlab binds them (``cli`` and ``experiments``
import ``solve`` by name), to timing wrappers, and restores them afterwards.
FFTs are found at call time through the ``numpy.fft`` (and ``scipy.fft``)
module attributes, so those attributes are wrapped too.

Spans sit at layer boundaries and are kept in memory: name, layer, parent,
start and end.  FFTs, symbol builds and ``apply_multiplier`` calls are
counted, not spanned, so a layer's self time (its spans minus their child
spans) includes the spectral work it asked for.
"""

from __future__ import annotations

import functools
import pathlib
import statistics
import sys
import time
from dataclasses import dataclass

# module -> {public function: layer}
SPANNED = {
    "fkdvlab.cli": {
        "main": "cli", "build_parser": "cli.parse", "parse_config": "cli.parse",
        "diagnostics_csv": "cli.io", "field_csv": "cli.io", "report_csv": "cli.io",
        "write_manifest": "cli.io"},
    "fkdvlab.experiments": dict.fromkeys((
        "run_moment_law", "run_tstar", "run_two_time_bh", "run_decay_threshold",
        "run_symmetry_checks", "run_wave_breaking"), "experiments"),
    "fkdvlab.solver": dict.fromkeys((
        "solve", "linear_propagator", "step_ifrk4", "nonlinear_term",
        "picard_oracle"), "solver"),
    "fkdvlab.diagnostics": dict.fromkeys((
        "make_record", "invariants", "moment_first", "weighted_norm", "sobolev_norm",
        "decay_fit", "interpolation_probe", "spectral_jump"), "diagnostics"),
    "fkdvlab.stein": dict.fromkeys((
        "stein_derivative", "stein_slope_fit", "propagator_stein_bound",
        "nonmembership_scan", "commutator_probe", "probe_ensemble"), "stein"),
}
FILE_WRITES = ("write_text", "write_bytes")
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# span record fields
NAME, LAYER, PARENT, START, END, FFT_CALLS, FFT_S, FFT_BYTES, WORK = range(9)


def _solve_steps(args, kwargs, traj):
    cfg = args[0] if args else kwargs["cfg"]
    return round(traj.times[-1] / cfg.dt) if len(traj.times) else 0


def _eval_points(args, kwargs, result):
    req = args[0] if args else kwargs["req"]
    return int(req.eval_points.size)


def _bytes_written(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    return len(data.encode()) if isinstance(data, str) else len(data)


# per-call work recorded in the WORK field
WORK_OF = {"solver.solve": _solve_steps, "stein.stein_derivative": _eval_points,
           "Path.write_text": _bytes_written, "Path.write_bytes": _bytes_written}


@dataclass
class UnitTrace:
    spans: list
    symbol_builds: int
    symbol_build_s: float
    apply_multiplier_calls: int
    root_fft: list         # FFTs made outside every span: [calls, seconds, bytes]


class Tracer:
    """Records one traced unit at a time; ``units`` keeps them all."""

    def __init__(self):
        self.units = []
        self._saved = []

    def _reset(self):
        self.spans = []
        self.stack = []
        self.symbol_builds = 0
        self.symbol_build_s = 0.0
        self.apply_multiplier_calls = 0
        self.root_fft = [0, 0.0, 0]

    # -- wrappers ------------------------------------------------------

    def _span(self, fn, name, layer):
        work = WORK_OF.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            rec = [name, layer, stack[-1] if stack else -1, clock(), 0.0, 0, 0.0, 0, 0]
            stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if work is not None:
                rec[WORK] = work(args, kwargs, result)
            return result
        return wrapper

    def _fft(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            nbytes = getattr(args[0] if args else None, "nbytes", 0) + out.nbytes
            if self.stack:
                rec = self.spans[self.stack[-1]]
                rec[FFT_CALLS] += 1
                rec[FFT_S] += dt
                rec[FFT_BYTES] += nbytes
            else:
                self.root_fft[0] += 1
                self.root_fft[1] += dt
                self.root_fft[2] += nbytes
            return out
        return wrapper

    def _on_grid(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.symbol_build_s += clock() - t0
                self.symbol_builds += 1
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.apply_multiplier_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / restore ---------------------------------------------

    def _install(self):
        import fkdvlab.spectral as spectral

        replace = {}
        for modname, table in SPANNED.items():
            mod = sys.modules[modname]
            short = modname.rsplit(".", 1)[1]
            for fname, layer in table.items():
                orig = getattr(mod, fname, None)     # a later refactor may drop one
                if orig is not None:
                    replace[id(orig)] = self._span(orig, f"{short}.{fname}", layer)
        replace[id(spectral.apply_multiplier)] = self._counted(spectral.apply_multiplier)
        fft_modules = [sys.modules[m] for m in ("numpy.fft", "scipy.fft") if m in sys.modules]
        for mod in fft_modules:
            for fname in FFT_NAMES:
                orig = getattr(mod, fname, None)
                if orig is not None and id(orig) not in replace:
                    replace[id(orig)] = self._fft(orig)
        namespaces = fft_modules + [m for name, m in sys.modules.items()
                                    if name == "fkdvlab" or name.startswith("fkdvlab.")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                wrapper = replace.get(id(val))
                if wrapper is not None:
                    self._saved.append((ns, attr, val))
                    setattr(ns, attr, wrapper)
        sym = spectral.MultiplierSymbol
        self._saved.append((sym, "on_grid", sym.on_grid))
        sym.on_grid = self._on_grid(sym.on_grid)
        for fname in FILE_WRITES:
            orig = getattr(pathlib.Path, fname)
            self._saved.append((pathlib.Path, fname, orig))
            setattr(pathlib.Path, fname, self._span(orig, f"Path.{fname}", "cli.io"))

    def _restore(self):
        while self._saved:
            ns, attr, val = self._saved.pop()
            setattr(ns, attr, val)

    def begin(self):
        """Reset the records and install the wrappers; call before the clock starts."""
        self._reset()
        self._install()

    def end(self):
        self._restore()
        self.units.append(UnitTrace(self.spans, self.symbol_builds, self.symbol_build_s,
                                    self.apply_multiplier_calls, self.root_fft))


# ---------------------------------------------------------------------------
# per-unit metrics


#: counters that must repeat exactly between traced units and traced runs;
#: cli.bytes_written is not one, because manifest timestamps vary in length
COUNTERS = ("spectral.fft_calls", "spectral.fft_bytes", "spectral.symbol_builds",
            "spectral.apply_multiplier_calls", "solver.solve_calls", "solver.steps",
            "solver.fft_per_step", "diagnostics.records", "diagnostics.fft_per_record",
            "stein.calls", "stein.eval_points", "stein.probe_calls",
            "experiments.solves_per_campaign", "cli.files_written")


def _ratio(num, den):
    return num / den if den else 0.0


def unit_metrics(u: UnitTrace) -> dict:
    """Per-layer numbers of one traced unit."""
    spans = u.spans
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    sub_fft = [s[FFT_CALLS] for s in spans]      # FFTs in a span and its descendants
    for i in range(len(spans) - 1, -1, -1):      # children come after their parent
        p = spans[i][PARENT]
        if p >= 0:
            child[p] += dur[i]
            sub_fft[p] += sub_fft[i]
    self_s = {}
    for i, s in enumerate(spans):
        self_s[s[LAYER]] = self_s.get(s[LAYER], 0.0) + dur[i] - child[i]

    def has_ancestor(i, pred):
        p = spans[i][PARENT]
        while p >= 0:
            if pred(spans[p]):
                return True
            p = spans[p][PARENT]
        return False

    def outermost_s(pred):
        return sum(dur[i] for i, s in enumerate(spans)
                   if pred(s) and not has_ancestor(i, pred))

    def named(*names):
        return [i for i, s in enumerate(spans) if s[NAME] in names]

    def in_layer(layer):
        return lambda s: s[LAYER] == layer

    solves = named("solver.solve")
    records = named("diagnostics.make_record")
    campaigns = [i for i, s in enumerate(spans) if s[LAYER] == "experiments"
                 and not has_ancestor(i, in_layer("experiments"))]
    campaign_solves = [i for i in solves if has_ancestor(i, in_layer("experiments"))]
    writes = named("Path.write_text", "Path.write_bytes")
    steps = sum(spans[i][WORK] for i in solves)
    is_probe = lambda s: s[NAME] in ("stein.probe_ensemble", "stein.commutator_probe")  # noqa: E731
    return {
        "spectral.fft_calls": sum(s[FFT_CALLS] for s in spans) + u.root_fft[0],
        "spectral.fft_s": sum(s[FFT_S] for s in spans) + u.root_fft[1],
        "spectral.fft_bytes": sum(s[FFT_BYTES] for s in spans) + u.root_fft[2],
        "spectral.symbol_builds": u.symbol_builds,
        "spectral.symbol_build_s": u.symbol_build_s,
        "spectral.apply_multiplier_calls": u.apply_multiplier_calls,
        "solver.solve_calls": len(solves),
        "solver.steps": steps,
        "solver.self_s": self_s.get("solver", 0.0),
        "solver.fft_per_step": _ratio(sum(spans[i][FFT_CALLS] for i in solves), steps),
        "diagnostics.records": len(records),
        "diagnostics.self_s": self_s.get("diagnostics", 0.0),
        "diagnostics.fft_per_record": _ratio(sum(sub_fft[i] for i in records), len(records)),
        "stein.calls": len(named("stein.stein_derivative")),
        "stein.eval_points": sum(spans[i][WORK] for i in named("stein.stein_derivative")),
        "stein.self_s": self_s.get("stein", 0.0),
        "stein.probe_calls": len(named("stein.commutator_probe")),
        "stein.probe_s": outermost_s(is_probe),
        "experiments.campaign_s": sum(dur[i] for i in campaigns),
        "experiments.self_s": self_s.get("experiments", 0.0),
        "experiments.solves_per_campaign": _ratio(len(campaign_solves), len(campaigns)),
        "cli.parse_s": outermost_s(in_layer("cli.parse")),
        "cli.io_s": outermost_s(in_layer("cli.io")),
        "cli.files_written": len(writes),
        "cli.bytes_written": sum(spans[i][WORK] for i in writes),
    }


def layer_metrics(units: list) -> tuple:
    """Per-unit numbers over the traced units, and the names of counters that
    differed between units (empty when all repeat exactly).

    Counters are the first unit's; times are medians.
    """
    per_unit = [unit_metrics(u) for u in units]
    unsteady = [k for k in COUNTERS if len({m[k] for m in per_unit}) > 1]
    return {k: per_unit[0][k] if k in COUNTERS else statistics.median(m[k] for m in per_unit)
            for k in per_unit[0]}, unsteady


def spans_table(units: list) -> list:
    """Every span of every traced unit as [unit, name, layer, parent, start, end]."""
    return [[n, s[NAME], s[LAYER], s[PARENT], s[START], s[END]]
            for n, u in enumerate(units) for s in u.spans]
