"""Configuration parsing, run orchestration and bit-stable serialization.

Config files are plain text ``key = value`` lines, optionally grouped
under ``[section]`` headers (headers are cosmetic).  Every key must be
known; command-line flags override file values.  Numbers are written
with 17 significant digits so a round trip through text is exact.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ConfigurationError, DomainError, NumericError,
                     OracleDivergenceError, StepError)
from .solver import InitialCondition, SimConfig, picard_oracle, solve
from .spectral import Field, make_grid
from . import experiments as exp
from . import stein

SCHEMA_VERSION = 1

_CONFIG_KEYS = {
    "n", "length", "alpha", "dt", "t_final", "dealias", "diag_every",
    "tail_tol", "weight_orders", "nonlinear", "store_every", "extended",
    "ic", "zero_mean",
}
_EXPERIMENT_KEYS = {"t1", "t2", "lambda", "box_list", "r_probe"}
_MANIFEST_KEYS = {
    "schema_version", "tool_version", "seed", "start_time", "end_time",
    "truncated", "grid_dx", "grid_kmax", "status", "command",
}
_KNOWN_KEYS = _CONFIG_KEYS | _EXPERIMENT_KEYS | _MANIFEST_KEYS

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def fmt(v) -> str:
    """Textual float at 17 significant digits (exact round trip)."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "nan"
    return f"{float(v):.17g}"


def _parse_bool(key, raw):
    try:
        return _BOOL[raw.strip().lower()]
    except KeyError:
        raise ConfigurationError(f"key '{key}' expects a boolean, got '{raw}'")


def _parse_ic(raw: str) -> InitialCondition:
    raw = raw.strip()
    if "(" not in raw or not raw.endswith(")"):
        raise ConfigurationError(
            f"initial condition must look like family(args), got '{raw}'")
    fam, args = raw[:-1].split("(", 1)
    fam = fam.strip()
    parts = [a.strip() for a in args.split(",")] if args.strip() else []
    if fam == "file":
        return InitialCondition("file", tuple(parts))
    try:
        if fam == "random_band":
            params = (int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]))
        else:
            params = tuple(float(p) for p in parts)
    except (ValueError, IndexError):
        raise ConfigurationError(f"cannot parse parameters of '{raw}'")
    return InitialCondition(fam, params)


def _ic_to_str(ic: InitialCondition) -> str:
    parts = []
    for p in ic.params:
        parts.append(str(p) if isinstance(p, (int, str)) else fmt(p))
    return f"{ic.family}({','.join(parts)})"


def read_keyvalues(path) -> dict:
    """Flat key=value map; [section] headers and comments are skipped."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
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


def parse_config(path=None, overrides=None):
    """Build a validated SimConfig plus experiment extras.

    Unknown keys are errors; flags (``overrides``) win over the file.
    """
    kv = read_keyvalues(path) if path else {}
    for key, val in (overrides or {}).items():
        if val is not None:
            kv[key] = val
    unknown = set(kv) - _KNOWN_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown configuration key(s): {', '.join(sorted(unknown))}")
    for key in ("alpha", "dt", "t_final"):
        if key not in kv:
            raise ConfigurationError(f"missing required key '{key}'")

    def get(key, conv, default):
        if key not in kv:
            return default
        raw = kv[key]
        if conv is bool:
            return _parse_bool(key, raw)
        try:
            return conv(raw)
        except ValueError:
            raise ConfigurationError(
                f"key '{key}' expects {conv.__name__}, got '{raw}'")

    ic = _parse_ic(kv["ic"]) if "ic" in kv else InitialCondition(
        "gaussian", (0.2, 1.0, 0.0))
    if get("zero_mean", bool, False):
        ic = replace(ic, zero_mean_projected=True)
    if "seed" in kv and ic.family == "random_band":
        ic = replace(ic, params=(int(kv["seed"]),) + ic.params[1:])
    weight_orders = ()
    if kv.get("weight_orders"):
        weight_orders = tuple(float(w) for w in kv["weight_orders"].split(","))
    try:
        cfg = SimConfig(
            alpha=get("alpha", float, None),
            dt=get("dt", float, None),
            t_final=get("t_final", float, None),
            n=get("n", int, 4096),
            length=get("length", float, 200.0),
            dealias=get("dealias", bool, True),
            diag_every=get("diag_every", int, 100),
            ic=ic,
            tail_tol=get("tail_tol", float, 1e-8),
            weight_orders=weight_orders,
            nonlinear=get("nonlinear", bool, True),
            store_every=get("store_every", int, 0),
            extended=get("extended", bool, False),
        )
    except ConfigurationError as e:
        raise ConfigurationError(f"configuration rejected: {e}")
    extras = {k: kv[k] for k in _EXPERIMENT_KEYS if k in kv}
    return cfg, extras


def config_lines(cfg: SimConfig) -> list:
    zm = cfg.ic.zero_mean_projected
    return [
        "[config]",
        f"alpha = {fmt(cfg.alpha)}",
        f"n = {cfg.n}",
        f"length = {fmt(cfg.length)}",
        f"dt = {fmt(cfg.dt)}",
        f"t_final = {fmt(cfg.t_final)}",
        f"dealias = {fmt(cfg.dealias)}",
        f"diag_every = {cfg.diag_every}",
        f"ic = {_ic_to_str(cfg.ic)}",
        f"zero_mean = {fmt(zm)}",
        f"tail_tol = {fmt(cfg.tail_tol)}",
        f"weight_orders = {','.join(fmt(w) for w in cfg.weight_orders)}",
        f"nonlinear = {fmt(cfg.nonlinear)}",
        f"store_every = {cfg.store_every}",
        f"extended = {fmt(cfg.extended)}",
    ]


def write_manifest(out_dir: Path, cfg: SimConfig, command: str,
                   start: float, end: float, truncated: bool, status: str):
    grid = cfg.grid()
    seed = cfg.ic.params[0] if cfg.ic.family == "random_band" else 0
    lines = config_lines(cfg) + [
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


def diagnostics_csv(records, weight_orders) -> str:
    cols = ["t", "i1", "i2", "i3", "mean", "moment_x", "max_u", "min_ux",
            "tail_frac"] + [f"w_{w:g}" for w in weight_orders]
    rows = [",".join(cols)]
    for r in records:
        base = [r.t, r.i1, r.i2,
                r.i3 if r.i3 is not None else math.nan,
                r.mean, r.moment_x, r.max_u, r.min_ux, r.tail_frac]
        base += [r.wnorms[w] for w in weight_orders]
        rows.append(",".join(fmt(v) for v in base))
    return "\n".join(rows) + "\n"


def field_csv(f: Field) -> str:
    # Field samples and grid nodes are finite floats, for which one
    # %-format over the whole table writes what fmt writes value by value.
    pairs = np.column_stack([f.grid.x, f.samples]).ravel().tolist()
    return "x,u\n" + "%.17g,%.17g\n" * f.grid.n % tuple(pairs)


def report_csv(report: exp.ExperimentReport) -> str:
    rows = ["name,metric,measured,expected,tolerance,mode,passed"]
    for key, m in report.metrics.items():
        rows.append(",".join([report.name, key, fmt(m.measured), fmt(m.expected),
                              fmt(m.tolerance), m.mode, fmt(m.passed)]))
    return "\n".join(rows) + "\n"


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


def _flag_overrides(args) -> dict:
    keys = ("alpha", "n", "length", "dt", "t_final", "dealias", "diag_every",
            "tail_tol", "weight_orders", "nonlinear", "store_every",
            "extended", "ic", "zero_mean", "seed", "t1", "t2", "box_list",
            "r_probe")
    out = {}
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            out[k] = v
    if getattr(args, "lam", None) is not None:
        out["lambda"] = args.lam
    return out


def cmd_simulate(args) -> int:
    out = _prepare_out(args)
    cfg, _ = parse_config(args.config, _flag_overrides(args))
    start = time.time()
    traj = solve(cfg)
    (out / "diagnostics.csv").write_text(
        diagnostics_csv(traj.diagnostics, cfg.weight_orders))
    fields = out / "fields"
    fields.mkdir(exist_ok=True)
    for t, st in sorted(traj.states.items()):
        (fields / f"state_t{t:.6f}.csv").write_text(field_csv(st))
    write_manifest(out, cfg, "simulate", start, time.time(), traj.truncated,
                   "truncated" if traj.truncated else "completed")
    if traj.truncated:
        print(f"run truncated: {traj.truncation_reason}")
    print(f"simulate: {len(traj.diagnostics)} diagnostics rows -> {out}")
    return 0


_EXPERIMENTS = ("moment-law", "tstar", "two-time-bh", "decay-threshold",
                "symmetry", "breaking")


def cmd_experiment(args) -> int:
    out = _prepare_out(args)
    cfg, extras = parse_config(args.config, _flag_overrides(args))
    start = time.time()
    name = args.name
    if name == "moment-law":
        report = exp.run_moment_law(cfg)
    elif name == "tstar":
        ts = exp.run_tstar(cfg)
        report = exp.ExperimentReport(
            "tstar", exp._echo(cfg),
            {
                "integral_residual": exp.MetricEntry(ts.residual, 0.0, 1e-4),
                "zero_crossing": exp.MetricEntry(
                    ts.zero_crossing, ts.zero_crossing_expected, 1e-3),
            },
            notes=[f"t* = {fmt(ts.t_star_predicted)}",
                   f"moment0 = {fmt(ts.moment0)}", f"l2sq = {fmt(ts.l2sq)}"]
            + ts.notes, truncated=ts.truncated)
    elif name == "two-time-bh":
        t1 = float(extras.get("t1", 0.5))
        t2 = float(extras.get("t2", 1.0))
        report = exp.run_two_time_bh(cfg, t1, t2)
    elif name == "decay-threshold":
        boxes = [float(x) for x in extras.get("box_list", "200,400,800").split(",")]
        r_probe = [float(x) for x in extras.get("r_probe", "").split(",") if x]
        report = exp.run_decay_threshold(cfg, r_probe, boxes)
    elif name == "symmetry":
        lam = float(extras.get("lambda", 2.0))
        report = exp.run_symmetry_checks(cfg, lam)
    elif name == "breaking":
        report = exp.run_wave_breaking(cfg)
    else:
        raise ConfigurationError(
            f"unknown experiment '{name}'; choose from {', '.join(_EXPERIMENTS)}")
    (out / "report.csv").write_text(report_csv(report))
    write_manifest(out, cfg, f"experiment {name}", start, time.time(),
                   report.truncated, "pass" if report.passed else "metric-failure")
    for key, m in report.metrics.items():
        flag = "PASS" if m.passed else "FAIL"
        print(f"[{flag}] {report.name}/{key}: measured {fmt(m.measured)} "
              f"expected {fmt(m.expected)} tol {fmt(m.tolerance)}")
    for note in report.notes:
        print(f"  note: {note}")
    return 0 if report.passed else 2


def cmd_stein(args) -> int:
    out = _prepare_out(args)
    b = args.b
    pts = np.array([float(p) for p in args.points.split(",")])
    if args.target == "power_cutoff":
        target = stein.power_cutoff(args.beta)
    elif args.target == "signed_power_cutoff":
        target = stein.signed_power_cutoff(args.beta)
    elif args.target == "propagator":
        target = stein.propagator_target(args.alpha, args.t)
    elif args.target == "sign_propagator":
        target = stein.sign_propagator(args.t)
    elif args.target == "weight":
        target = stein.weight_target(args.theta, args.n_w)
    else:
        raise ConfigurationError(f"unknown target '{args.target}'")
    res = stein.stein_derivative(stein.SteinRequest(b, target, pts))
    rows = ["target,b,eta,value,err_est"]
    for eta, v, e in zip(pts, res.values, res.error_estimates):
        rows.append(f"{target.name},{fmt(b)},{fmt(eta)},{fmt(v)},{fmt(e)}")
    (out / "report.csv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    return 0


def cmd_probe(args) -> int:
    out = _prepare_out(args)
    grid = make_grid(args.n, args.length)
    params = stein.ProbeParams(beta=args.beta, gamma=args.gamma,
                               l=args.l, m=args.m)
    kinds = args.kinds.split(",") if args.kinds else list(stein._PROBE_KINDS)
    rows = ["kind,params,ratio"]
    status = 0
    for kind in kinds:
        mx, med = stein.probe_ensemble(kind, grid, params,
                                       n_pairs=args.pairs, seed=args.seed)
        rows.append(f"{kind},beta={fmt(params.beta)};gamma={fmt(params.gamma)};"
                    f"l={params.l};m={params.m},{fmt(mx)}")
        if not math.isfinite(mx):
            status = 2
    (out / "report.csv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    return status


def cmd_convergence(args) -> int:
    out = _prepare_out(args)
    cfg, _ = parse_config(args.config, _flag_overrides(args))
    grid = cfg.grid()
    u0 = cfg.ic.build(grid)
    ref = solve(replace(cfg, dt=cfg.dt / 8.0), grid=grid, u0=u0)
    errs = []
    for dt in (cfg.dt, cfg.dt / 2.0):
        tr = solve(replace(cfg, dt=dt), grid=grid, u0=u0)
        errs.append(float(np.linalg.norm(tr.final.samples - ref.final.samples)
                          / np.linalg.norm(ref.final.samples)))
    order = math.log2(errs[0] / errs[1])
    t_cmp = max(1, int(min(0.05, cfg.t_final) / cfg.dt)) * cfg.dt
    pic = picard_oracle(u0, cfg, t_cmp, iterations=6)
    short = solve(replace(cfg, t_final=t_cmp), grid=grid, u0=u0)
    pic_err = float(np.linalg.norm(pic.samples - short.final.samples)
                    / np.linalg.norm(short.final.samples))
    rows = ["name,metric,measured,expected,tolerance,mode,passed",
            f"convergence,richardson_order,{fmt(order)},4,0.2,abs,"
            f"{fmt(abs(order - 4) <= 0.2)}",
            f"convergence,picard_agreement,{fmt(pic_err)},0,1e-06,abs,"
            f"{fmt(pic_err <= 1e-6)}"]
    (out / "report.csv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    ok = abs(order - 4) <= 0.2 and pic_err <= 1e-6
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fkdvlab",
        description="pseudo-spectral laboratory for weakly dispersive "
                    "perturbations of the inviscid Burgers equation")
    p.add_argument("--out", help="output directory (default $FKDV_OUT or ./runs)")
    sub = p.add_subparsers(dest="command", required=True)

    def add_cfg_flags(sp):
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--alpha")
        sp.add_argument("--n")
        sp.add_argument("--length")
        sp.add_argument("--dt")
        sp.add_argument("--t-final", dest="t_final")
        sp.add_argument("--dealias")
        sp.add_argument("--diag-every", dest="diag_every")
        sp.add_argument("--tail-tol", dest="tail_tol")
        sp.add_argument("--weight-orders", dest="weight_orders")
        sp.add_argument("--nonlinear")
        sp.add_argument("--store-every", dest="store_every")
        sp.add_argument("--extended")
        sp.add_argument("--ic")
        sp.add_argument("--zero-mean", dest="zero_mean")
        sp.add_argument("--seed", help="overrides the random_band seed")

    sp = sub.add_parser("simulate", help="integrate and write diagnostics")
    add_cfg_flags(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("experiment", help="run a named campaign")
    sp.add_argument("name", choices=_EXPERIMENTS)
    add_cfg_flags(sp)
    sp.add_argument("--t1")
    sp.add_argument("--t2")
    sp.add_argument("--lambda", dest="lam")
    sp.add_argument("--box-list", dest="box_list")
    sp.add_argument("--r-probe", dest="r_probe")
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("stein", help="evaluate the square-function derivative")
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--points", required=True)
    sp.add_argument("--beta", type=float, default=0.5)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--theta", type=float, default=0.5)
    sp.add_argument("--n-w", dest="n_w", type=float, default=8.0)
    sp.set_defaults(func=cmd_stein)

    sp = sub.add_parser("probe", help="commutator-inequality ratio probes")
    sp.add_argument("--kinds", help="comma list; default all five")
    sp.add_argument("--n", type=int, default=1024)
    sp.add_argument("--length", type=float, default=100.0)
    sp.add_argument("--beta", type=float, default=0.5)
    sp.add_argument("--gamma", type=float, default=0.25)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--pairs", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_probe)

    sp = sub.add_parser("convergence", help="step-order and oracle cross-check")
    add_cfg_flags(sp)
    sp.set_defaults(func=cmd_convergence)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NumericError, StepError, OracleDivergenceError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
