"""The four benchmark workloads: how one unit runs and how its output is checked.

A unit is one user-level invocation.  Units that have a CLI command run
in-process through ``fkdvlab.cli.main``, each with a fresh ``--out``
directory; the ``analysis`` unit calls the library.  Library functions are
looked up on their modules at call time, so the tracer's wrappers see them.

Checks use the repository's own tolerances (acceptance criteria 1, 6, 7 and
9, and the campaign verdicts in ``report.csv``).  A unit's fingerprint hashes
its deterministic output; every unit of one run must give the same one.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import fkdvlab.cli as cli
import fkdvlab.spectral as spectral
import fkdvlab.stein as stein


@dataclass(frozen=True)
class Verdict:
    """One toleranced check; modes as in ``experiments.MetricEntry``.

    ``abs`` passes when |m - e| <= tol, ``le`` when m <= e + tol and ``ge``
    when m >= e - tol.  ``strict`` turns the bound into a strict inequality.
    """

    name: str
    measured: float
    expected: float
    tolerance: float
    mode: str = "abs"
    strict: bool = False

    @property
    def margin(self) -> Optional[float]:
        """Headroom as a share of the tolerance; None for boolean verdicts."""
        if self.tolerance == 0:
            return None
        m, e = self.measured, self.expected
        over = {"abs": abs(m - e), "le": m - e, "ge": e - m}[self.mode]
        return 1.0 - over / self.tolerance

    @property
    def passed(self) -> bool:
        m, e = self.measured, self.expected
        if not math.isfinite(m):
            return False
        if self.tolerance == 0:
            return {"abs": m == e, "le": m <= e, "ge": m >= e}[self.mode] and \
                not (self.strict and m == e)
        return self.margin > 0 if self.strict else self.margin >= 0


@dataclass
class UnitOutcome:
    verdicts: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    fingerprint: str = ""

    def failures(self) -> list:
        """Everything that makes the unit count as failed; empty when it passed."""
        return self.problems + [
            f"verdict {v.name}: measured {v.measured!r} expected {v.expected!r} "
            f"tol {v.tolerance!r} ({v.mode})" for v in self.verdicts if not v.passed]


@dataclass(frozen=True)
class Workload:
    name: str
    invoke: Callable[[Path, int], object]     # the timed call
    check: Callable[[Path, object], UnitOutcome]


def _cli(argv: list, out: Path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["--out", str(out)] + argv)
    return rc, buf.getvalue()


def _hash_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _manifest_status(out: Path) -> str:
    for line in (out / "manifest.txt").read_text().splitlines():
        key, _, val = line.partition("=")
        if key.strip() == "status":
            return val.strip()
    return ""


def _report_verdicts(out: Path, expected_metrics: set, outcome: UnitOutcome):
    """Read report.csv; each row must pass and agree with our own evaluation."""
    seen = set()
    with open(out / "report.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            v = Verdict(row["metric"], float(row["measured"]), float(row["expected"]),
                        float(row["tolerance"]), row["mode"])
            outcome.verdicts.append(v)
            seen.add(v.name)
            if (row["passed"] == "true") != v.passed:
                outcome.problems.append(
                    f"report.csv says passed={row['passed']} for {v.name}, "
                    f"recomputed {v.passed}")
    if seen != expected_metrics:
        outcome.problems.append(
            f"report.csv metrics {sorted(seen)}, expected {sorted(expected_metrics)}")


def _check_exit(raw, outcome: UnitOutcome):
    rc, stdout = raw
    if rc != 0:
        outcome.problems.append(f"exit code {rc}, expected 0: {stdout[-300:]!r}")


# ---------------------------------------------------------------------------
# simulate


SIMULATE_ARGV = ["simulate", "--alpha", "0.5", "--n", "4096", "--length", "200",
                 "--dt", "1e-3", "--t-final", "1", "--diag-every", "100",
                 "--ic", "gaussian(0.2,1,0)", "--zero-mean", "true",
                 "--store-every", "100"]
SIMULATE_ROWS = 11


def invoke_simulate(out: Path, seed: int):
    return _cli(SIMULATE_ARGV, out)


def check_simulate(out: Path, raw) -> UnitOutcome:
    outcome = UnitOutcome()
    _check_exit(raw, outcome)
    with open(out / "diagnostics.csv", newline="") as fh:
        rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
    fields = sorted((out / "fields").iterdir())
    if len(rows) != SIMULATE_ROWS or len(fields) != SIMULATE_ROWS:
        outcome.problems.append(
            f"{len(rows)} diagnostics rows and {len(fields)} field files, "
            f"expected {SIMULATE_ROWS} of each")
    if _manifest_status(out) != "completed":
        outcome.problems.append(f"manifest status '{_manifest_status(out)}'")
    first, last = rows[0], rows[-1]
    # criterion 1 at the acceptance suite's tolerances
    outcome.verdicts += [
        Verdict("i2_drift", abs(last["i2"] - first["i2"]) / first["i2"], 0.0, 1e-8, "le"),
        Verdict("i1_drift", abs(last["i1"] - first["i1"]), 0.0, 1e-12, "le"),
    ]
    outcome.fingerprint = _hash_files([out / "diagnostics.csv"] + fields)
    return outcome


# ---------------------------------------------------------------------------
# tstar and breaking


TSTAR_ARGV = ["experiment", "tstar", "--alpha", "0.5", "--dt", "1e-3",
              "--t-final", "3", "--ic", "odd_gaussian(-4,1)", "--tail-tol", "1e-6"]
BREAKING_ARGV = ["experiment", "breaking", "--alpha", "-1", "--dt", "2e-3",
                 "--t-final", "3", "--diag-every", "25",
                 "--ic", "odd_gaussian(-3,1)", "--tail-tol", "1e-5"]


def _experiment_check(metrics: set):
    def check(out: Path, raw) -> UnitOutcome:
        outcome = UnitOutcome()
        _check_exit(raw, outcome)
        _report_verdicts(out, metrics, outcome)
        if _manifest_status(out) != "pass":
            outcome.problems.append(f"manifest status '{_manifest_status(out)}'")
        outcome.fingerprint = _hash_files([out / "report.csv"])
        return outcome
    return check


def invoke_tstar(out: Path, seed: int):
    return _cli(TSTAR_ARGV, out)


def invoke_breaking(out: Path, seed: int):
    return _cli(BREAKING_ARGV, out)


# ---------------------------------------------------------------------------
# analysis: library calls mirroring acceptance criteria 6, 7 and 9


PROBE_KINDS = ("hilbert_frac", "frac_com", "triple", "projector", "hilbert_local")
SCANS = ((-0.7, 1.0, 0.8), (-0.5, 1.0, 1.0), (0.3, 0.0, 0.8))
SCAN_EPS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)
CLOSED_FORM_B = (0.25, 0.5, 0.75)
CLOSED_FORM_T = (0.5, math.pi / 2)
CLOSED_FORM_X = (0.5, 1.0, 2.0)
DECAY_ARGV = ["experiment", "decay-threshold", "--alpha", "-0.5", "--dt", "1e-3",
              "--t-final", "1", "--ic", "gaussian(1,1,0)", "--box-list", "200,400,800"]


def invoke_analysis(out: Path, seed: int):
    req = stein.SteinRequest
    res = {
        "slope_small": stein.stein_slope_fit(
            req(0.5, stein.power_cutoff(0.2), np.geomspace(1e-5, 1e-3, 7)), "small_eta"),
        "slope_large": stein.stein_slope_fit(
            req(0.5, stein.power_cutoff(0.6), np.geomspace(5.0, 80.0, 7)), "large_eta"),
        "slope_log": stein.stein_slope_fit(
            req(0.4, stein.power_cutoff(0.4), np.geomspace(1e-6, 1e-3, 8)), "small_eta"),
    }
    res["sign"] = {(b, t): stein.stein_derivative(
        req(b, stein.sign_propagator(t), np.array(CLOSED_FORM_X))).values
        for b in CLOSED_FORM_B for t in CLOSED_FORM_T}
    res["scans"] = [stein.nonmembership_scan(a, t, order, SCAN_EPS) for a, t, order in SCANS]
    res["bound"] = stein.propagator_stein_bound(0.5, 0.5, [0.5, 1.0, 2.0],
                                                [0.5, 1.0, 2.0, 4.0])
    params = stein.ProbeParams(beta=0.5, gamma=0.25, l=1, m=0)
    res["probes"] = {
        (kind, n): stein.probe_ensemble(kind, spectral.make_grid(n, 100.0), params,
                                        n_pairs=50, seed=seed)[0]
        for kind in PROBE_KINDS for n in (1024, 2048)}
    res["decay"] = _cli(DECAY_ARGV, out)
    return res


def check_analysis(out: Path, res) -> UnitOutcome:
    outcome = UnitOutcome()
    v = outcome.verdicts
    # criterion 6
    v.append(Verdict("slope_small", res["slope_small"].fitted_slope, -0.3, 0.05))
    v.append(Verdict("slope_large", res["slope_large"].fitted_slope, -1.0, 0.05))
    v.append(Verdict("sqrt_log_detected",
                     float(res["slope_log"].log_correction_detected), 1.0, 0.0))
    xs = np.array(CLOSED_FORM_X)
    worst = max(float(np.max(np.abs(vals - exact) / exact))
                for (b, t), vals in res["sign"].items()
                for exact in [2 * abs(math.sin(t)) * (2 * b) ** -0.5 * xs ** -b])
    v.append(Verdict("sign_propagator_closed_form", worst, 0.0, 1e-3, "le"))
    # criterion 7
    for (alpha, _, order), table in zip(SCANS, res["scans"]):
        tag = f"scan({alpha:g},{order:g})"
        v.append(Verdict(f"{tag}.divergent", float(table.divergent), 1.0, 0.0))
        v.append(Verdict(f"{tag}.fitted_c", table.fitted_c, 0.0, 0.0, "ge", strict=True))
        v.append(Verdict(f"{tag}.residual", table.residual, 0.0, 0.10, "le"))
    v.append(Verdict("propagator_bound_stable", float(res["bound"].stable), 1.0, 0.0))
    # criterion 9: 0.5 < mx(2048)/mx(1024) < 2, i.e. |log2 ratio| < 1
    for kind in PROBE_KINDS:
        mx1, mx2 = res["probes"][(kind, 1024)], res["probes"][(kind, 2048)]
        ratio = mx2 / mx1 if mx1 > 0 else math.inf
        log_ratio = math.log2(ratio) if 0 < ratio < math.inf else math.inf
        v.append(Verdict(f"probe.{kind}", log_ratio, 0.0, 1.0, strict=True))
    # decay-threshold campaign through the CLI
    _check_exit(res["decay"], outcome)
    _report_verdicts(out, {"tail_exponent", "subcritical_norm_convergence",
                           "critical_norm_growth"}, outcome)
    numbers = [x.measured for x in v] + [res["bound"].constant]
    h = hashlib.sha256(" ".join(float(x).hex() for x in numbers).encode())
    h.update((out / "report.csv").read_bytes())
    outcome.fingerprint = h.hexdigest()
    return outcome


WORKLOADS = {w.name: w for w in (
    Workload("simulate", invoke_simulate, check_simulate),
    Workload("tstar", invoke_tstar,
             _experiment_check({"integral_residual", "zero_crossing"})),
    Workload("breaking", invoke_breaking,
             _experiment_check({"onset_detected", "onset_dt_stability",
                                "control_gradient_growth"})),
    Workload("analysis", invoke_analysis, check_analysis),
)}
