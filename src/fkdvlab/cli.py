"""Configuration parsing, run orchestration and bit-stable serialization.

Config files are plain text ``key = value`` lines, optionally grouped
under ``[section]`` headers (headers are cosmetic).  Every key must be
known to the command; command-line flags override file values.  Numbers
are written with 17 significant digits so a round trip through text is exact.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ConfigurationError, DomainError, NumericError,
                     OracleDivergenceError, StepError)
from .solver import _IC_FAMILIES, InitialCondition, SimConfig, solve
from .spectral import Field, make_grid
from . import experiments as exp
from . import stein

SCHEMA_VERSION = 1

_MANIFEST_KEYS = {
    "schema_version", "tool_version", "seed", "start_time", "end_time",
    "truncated", "grid_dx", "grid_kmax", "status", "command",
}

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def fmt(v) -> str:
    """Textual float at 17 significant digits (exact round trip)."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return f"{float(v):.17g}"


def _parse_bool(raw: str) -> bool:
    value = _BOOL.get(raw.strip().lower())
    if value is None:
        raise ValueError(raw)
    return value


def _parse_floats(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split(",")) if raw.strip() else ()


def _floats_to_str(values) -> str:
    return ",".join(fmt(v) for v in values)


def _split_call(raw: str) -> tuple:
    """(family, [argument texts]) of the text ``family(a,b,...)``."""
    family, paren, args = raw.strip().partition("(")
    if not paren or not args.endswith(")"):
        raise ValueError(raw)
    args = args[:-1]
    return family.strip(), [a.strip() for a in args.split(",")] if args.strip() else []


# initial-condition parameter name -> parser of its text; any other name is a float
_IC_TEXT = {"path": str,
            "seed": lambda p: int(p) if p.lstrip("+-").isdigit() else float(p)}


def _parse_ic(raw: str) -> InitialCondition:
    """``family(args)``, each argument parsed by its parameter's name;
    InitialCondition checks the family, the count and the values."""
    family, parts = _split_call(raw)
    names = _IC_FAMILIES.get(family, (("",),))[0]
    names += names[-1:] * len(parts)         # surplus arguments, for the count check
    return InitialCondition(family, tuple(_IC_TEXT.get(name, float)(p)
                                          for name, p in zip(names, parts)))


def _ic_to_str(ic: InitialCondition) -> str:
    parts = []
    for p in ic.params:
        parts.append(str(p) if isinstance(p, (int, str)) else fmt(p))
    return f"{ic.family}({','.join(parts)})"


# --target family -> (target constructor, the names of its parameters)
_STEIN_TARGETS = {
    "power_cutoff": (stein.power_cutoff, ("beta",)),
    "signed_power_cutoff": (stein.signed_power_cutoff, ("beta",)),
    "propagator": (stein.propagator_target, ("alpha", "t")),
    "sign_propagator": (stein.sign_propagator, ("t",)),
    "weight": (stein.weight_target, ("theta", "n_w")),
}


def _parse_target(raw: str) -> stein.SteinTarget:
    family, parts = _split_call(raw)
    if family not in _STEIN_TARGETS:
        raise ConfigurationError(f"unknown target '{family}'; "
                                 f"choose from {', '.join(_STEIN_TARGETS)}")
    build, names = _STEIN_TARGETS[family]
    if len(parts) != len(names):
        raise ConfigurationError(f"{family}({', '.join(names)}) takes {len(names)} "
                                 f"parameter(s), got {len(parts)}")
    return build(*(float(p) for p in parts))


# value type -> (parser of its text, writer of its text, what the text must be)
_TYPES = {
    "float": (float, fmt, "a number"),
    "int": (int, fmt, "an integer"),
    "bool": (_parse_bool, fmt, "true or false"),
    "tuple": (_parse_floats, _floats_to_str, "comma-separated numbers"),
    "InitialCondition": (_parse_ic, _ic_to_str, "family(args)"),
    "SteinTarget": (_parse_target, None, "family(args)"),    # a flag only, never written
}

# key -> (value type, default); MISSING marks a required key.  The config
# keys are SimConfig's fields plus zero_mean.  The CLI's default initial
# condition keeps its mean, unlike SimConfig's own default.
_CONFIG_KEYS = {f.name: (f.type, f.default) for f in fields(SimConfig)}
_CONFIG_KEYS["ic"] = ("InitialCondition", InitialCondition("gaussian", (0.2, 1.0, 0.0)))
_CONFIG_KEYS["zero_mean"] = ("bool", False)

# campaign name -> (runner, its own keys as above).  The runner is called as
# runner(cfg, *values), so the keys follow the order of its arguments.
_EXPERIMENTS = {
    "moment-law": (exp.run_moment_law, {}),
    "tstar": (exp.run_tstar, {}),
    "two-time-bh": (exp.run_two_time_bh, {"t1": ("float", 0.5), "t2": ("float", 1.0)}),
    "decay-threshold": (exp.run_decay_threshold, {
        "r_probe": ("tuple", ()), "box_list": ("tuple", (200.0, 400.0, 800.0))}),
    "symmetry": (exp.run_symmetry_checks, {"lambda": ("float", 2.0)}),
    "breaking": (exp.run_wave_breaking, {}),
}


def _parse_value(key: str, raw: str, kind: str):
    """Parse one value; every failure is a ConfigurationError naming the key."""
    parse, _, what = _TYPES[kind]
    try:
        return parse(raw)
    except ConfigurationError as e:
        raise ConfigurationError(f"key '{key}': {e}") from None
    except ValueError:
        raise ConfigurationError(f"key '{key}' expects {what}, got '{raw}'") from None


def read_keyvalues(path) -> dict:
    """Flat key=value map; [section] headers and comments are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigurationError(f"config file '{path}' cannot be read: {e}") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#") or (s.startswith("[") and s.endswith("]")):
            continue
        if "=" not in s:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value, got '{s}'")
        key, val = s.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key '{key}'")
        out[key] = val.strip()
    return out


def parse_config(path=None, overrides=None, campaign_keys=None):
    """Build a validated SimConfig plus the values of ``campaign_keys``.

    Keys that are not config or campaign keys are errors, except the
    manifest's ``[run]`` keys in a file that carries ``schema_version``;
    flags (``overrides``) win over the file; absent keys take their defaults."""
    keys = {**_CONFIG_KEYS, **(campaign_keys or {})}
    kv = read_keyvalues(path) if path else {}
    run_keys = _MANIFEST_KEYS if "schema_version" in kv else set()
    kv.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    unknown = set(kv) - set(keys) - run_keys
    if unknown:
        hint = ("; [run] keys are read only from a manifest, which carries "
                "schema_version") if unknown & _MANIFEST_KEYS else ""
        raise ConfigurationError(
            f"unknown configuration key(s): {', '.join(sorted(unknown))}{hint}")

    def get(key):
        kind, default = keys[key]
        if key in kv:
            return _parse_value(key, kv[key], kind)
        if default is MISSING:
            raise ConfigurationError(f"missing required key '{key}'")
        return default

    values = {key: get(key) for key in keys}
    extras = {key: values.pop(key) for key in campaign_keys or ()}
    ic = values.pop("ic")
    if values.pop("zero_mean"):
        ic = replace(ic, zero_mean_projected=True)
    try:
        cfg = SimConfig(ic=ic, **values)
    except ConfigurationError as e:
        raise ConfigurationError(f"configuration rejected: {e}")
    return cfg, extras


def config_lines(cfg: SimConfig, campaign_keys=None, extras=None) -> list:
    """The [config] lines: the config keys of ``cfg``, then the campaign's ``extras``."""
    values = {key: getattr(cfg, key) for key in _CONFIG_KEYS if key != "zero_mean"}
    values.update(zero_mean=cfg.ic.zero_mean_projected, **(extras or {}))
    return ["[config]"] + [f"{key} = {_TYPES[kind][1](values[key])}" for key, (kind, _)
                           in {**_CONFIG_KEYS, **(campaign_keys or {})}.items()]


def write_manifest(out_dir: Path, cfg: SimConfig, command: str,
                   start: float, end: float, truncated: bool, status: str,
                   campaign_keys=None, extras=None):
    """manifest.txt: the ``[config]`` that reruns the command, then ``[run]``."""
    grid = cfg.grid()
    seed = dict(zip(_IC_FAMILIES[cfg.ic.family][0], cfg.ic.params)).get("seed", 0)
    lines = config_lines(cfg, campaign_keys, extras) + [
        "",
        "[run]",
        f"schema_version = {SCHEMA_VERSION}",
        f"tool_version = {__version__}",
        f"command = {command}",
        f"seed = {seed}",
        f"grid_dx = {fmt(grid.dx)}",
        f"grid_kmax = {fmt(float(np.max(np.abs(grid.k))))}",
        f"start_time = {fmt(start)}",
        f"end_time = {fmt(end)}",
        f"truncated = {fmt(truncated)}",
        f"status = {status}",
    ]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def diagnostics_csv(times, rows: dict) -> str:
    """The t column, then one column per entry of ``rows``, in its order."""
    table = np.column_stack([times, *rows.values()]).tolist()
    lines = [",".join(["t", *rows])] + [",".join(map(fmt, r)) for r in table]
    return "\n".join(lines) + "\n"


def field_csv(f: Field) -> str:
    # Field samples and grid nodes are finite floats, for which one
    # %-format over the whole table writes what fmt writes value by value.
    pairs = np.column_stack([f.grid.x, f.samples]).ravel().tolist()
    return "x,u\n" + "%.17g,%.17g\n" * f.grid.n % tuple(pairs)


def report_csv(*reports: exp.ExperimentReport) -> str:
    rows = ["name,metric,measured,expected,tolerance,mode,passed"]
    for report in reports:
        for key, m in report.metrics.items():
            rows.append(",".join([report.name, key, fmt(m.measured), fmt(m.expected),
                                  fmt(m.tolerance), m.mode, fmt(m.passed)]))
    return "\n".join(rows) + "\n"


def verdict_line(name: str, key: str, m: exp.MetricEntry) -> str:
    """The printed verdict of metric ``key`` of the report ``name``."""
    return (f"[{'PASS' if m.passed else 'FAIL'}] {name}/{key}: measured {fmt(m.measured)} "
            f"expected {fmt(m.expected)} tol {fmt(m.tolerance)} ({m.mode})")


def _prepare_out(args) -> Path:
    root = args.out or os.environ.get("FKDV_OUT") or "runs"
    out = Path(root)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".writable"
        probe.write_text("")
        probe.unlink()
    except OSError as e:
        raise ConfigurationError(f"output directory '{out}' is not writable: {e}")
    return out


def _config(args, campaign_keys=None):
    """parse_config over ``--config`` and the flags of the command's keys."""
    flags = {key: getattr(args, key) for key in [*_CONFIG_KEYS, *(campaign_keys or ())]}
    return parse_config(args.config, flags, campaign_keys)


def cmd_simulate(args) -> int:
    out = _prepare_out(args)
    cfg, _ = _config(args)
    start = time.time()
    traj = solve(cfg)
    (out / "diagnostics.csv").write_text(diagnostics_csv(traj.times, traj.rows))
    fields = out / "fields"
    fields.mkdir(exist_ok=True)
    # states sit at multiples of dt, which names at 10^-digits <= dt / 2 keep apart
    digits = max(6, math.ceil(-math.log10(cfg.dt / 2)))
    for t, st in sorted(traj.states.items()):
        (fields / f"state_t{t:.{digits}f}.csv").write_text(field_csv(st))
    write_manifest(out, cfg, "simulate", start, time.time(), traj.truncated,
                   "truncated" if traj.truncated else "completed")
    if traj.truncated:
        print(f"run truncated: {traj.truncation_reason}")
    print(f"simulate: {len(traj.times)} diagnostics rows -> {out}")
    return 0


def _conclude(args, command: str, runner, campaign_keys: dict) -> int:
    """Run ``runner`` (by name on the experiments module, so a wrapper there
    sees the call) on the config and the values of ``campaign_keys``, write
    report.csv and the manifest, print the verdicts and notes; exit 0 when
    every metric passes, 2 otherwise."""
    out = _prepare_out(args)
    cfg, extras = _config(args, campaign_keys)
    start = time.time()
    report = getattr(exp, runner.__name__)(cfg, *extras.values())
    (out / "report.csv").write_text(report_csv(report))
    write_manifest(out, cfg, command, start, time.time(), report.truncated,
                   "pass" if report.passed else "metric-failure", campaign_keys, extras)
    for key, m in report.metrics.items():
        print(verdict_line(report.name, key, m))
    for note in report.notes:
        print(f"  note: {note}")
    return 0 if report.passed else 2


def cmd_experiment(args) -> int:
    return _conclude(args, f"experiment {args.name}", *_EXPERIMENTS[args.name])


def cmd_convergence(args) -> int:
    return _conclude(args, "convergence", exp.run_convergence, {})


def cmd_verify(args) -> int:
    """Every row of ``experiments.CRITERIA``: one verdict line per gated metric and
    report.csv (name = the row's label); exit 0 when all pass, 2 otherwise."""
    out = _prepare_out(args)
    reports = []
    for row in exp.CRITERIA:
        report = row.report()
        for key, m in report.metrics.items():
            print(verdict_line(report.name, key, m), flush=True)
        reports.append(report)
    (out / "report.csv").write_text(report_csv(*reports))
    return 0 if all(r.passed for r in reports) else 2


def cmd_stein(args) -> int:
    out = _prepare_out(args)
    pts = np.array(_parse_value("points", args.points, "tuple"))
    target = _parse_value("target", args.target, "SteinTarget")
    res = stein.stein_derivative(stein.SteinRequest(args.b, target, pts))
    rows = ["target,b,eta,value,err_est"]
    for eta, v, e in zip(pts, res.values, res.error_estimates):
        rows.append(f"{target.name},{fmt(args.b)},{fmt(eta)},{fmt(v)},{fmt(e)}")
    (out / "report.csv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    return 0


def cmd_probe(args) -> int:
    out = _prepare_out(args)
    grid = make_grid(args.n, args.length)
    params = stein.ProbeParams(**{f.name: getattr(args, f.name)
                                  for f in fields(stein.ProbeParams)})
    kinds = args.kinds.split(",") if args.kinds else list(stein._PROBE_KINDS)
    rows = ["kind,params,ratio"]
    for kind in kinds:
        mx, med = stein.probe_ensemble(kind, grid, params,
                                       n_pairs=args.pairs, seed=args.seed)
        rows.append(f"{kind},beta={fmt(params.beta)};gamma={fmt(params.gamma)};"
                    f"l={params.l};m={params.m},{fmt(mx)}")
    (out / "report.csv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigurationError, so a
    bad command line exits 1 with one ``error:`` line like any bad input;
    2 stays the metric-failure code.  A flag prefix (``--alph``) is unknown,
    as the same misspelled key is in a config file."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="fkdvlab",
        description="pseudo-spectral laboratory for weakly dispersive "
                    "perturbations of the inviscid Burgers equation")
    p.add_argument("--out", help="output directory (default $FKDV_OUT or ./runs)")
    sub = p.add_subparsers(dest="command", required=True)

    def add_key_flags(sp, keys):
        for key in keys:
            sp.add_argument("--" + key.replace("_", "-"), dest=key)

    config = _Parser(add_help=False)    # the config flags; parents= shares them
    config.add_argument("--config", help="key=value config file")
    add_key_flags(config, _CONFIG_KEYS)

    sp = sub.add_parser("simulate", parents=[config],
                        help="integrate and write diagnostics")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("experiment", help="run a named campaign")
    campaigns = sp.add_subparsers(dest="name", required=True)
    for name, (_, campaign_keys) in _EXPERIMENTS.items():
        add_key_flags(campaigns.add_parser(name, parents=[config]), campaign_keys)
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("stein", help="evaluate the square-function derivative")
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--points", required=True)
    sp.set_defaults(func=cmd_stein)

    sp = sub.add_parser("probe", help="commutator-inequality ratio probes")
    sp.add_argument("--kinds", help="comma list; default all five")
    sp.add_argument("--n", type=int, default=1024)
    sp.add_argument("--length", type=float, default=100.0)
    for f in fields(stein.ProbeParams):         # --beta --gamma --l --m
        sp.add_argument("--" + f.name, type=type(f.default), default=f.default)
    sp.add_argument("--pairs", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_probe)

    sp = sub.add_parser("convergence", parents=[config],
                        help="step-order and oracle cross-check")
    sp.set_defaults(func=cmd_convergence)

    sp = sub.add_parser("verify", help="every acceptance criterion at its tolerance")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigurationError, DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NumericError, StepError, OracleDivergenceError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
