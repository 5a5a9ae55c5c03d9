"""Campaign benchmark for fkdvlab: time to verdict, set-up, memory and margin.

Run from the root of a checkout that holds ``src/fkdvlab``:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics.  Every
unit's output is checked.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print each metric by name with its unit, and the environment.
Spans and a fuller result go to ``.bench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("simulate", "tstar", "breaking", "analysis")
SETUP_RUNS = 3             # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10           # wall_s_hi keeps at least this many units beyond it
MIN_UNITS = TAIL_BEYOND + 1
MIN_TRACE_UNITS = 3        # of each kind, untraced and traced, in a traced run
STOP_AFTER_S = 120.0       # start nothing after this, whatever the minimum counts,
                           # so that a slow commit still ends well inside 180 s
CHILD_TIMEOUT_S = 30.0
OUT_DIR = ".bench_out"



def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", metavar="OUT", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _git_sha(root: Path):
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode())
        src.update(path.read_bytes())
    return {
        "git_sha": _git_sha(root), "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# units


def run_unit(wl, seed: int, out: Path, tracer=None):
    """Time one unit, then check its output and delete it.

    Returns (seconds, outcome).  The clock covers the invocation only.
    """
    from workloads import UnitOutcome

    gc.collect()
    if tracer is not None:
        tracer.begin()
    raw, error = None, None
    t0 = time.perf_counter()
    try:
        raw = wl.invoke(out, seed)
    except Exception:
        error = traceback.format_exc()
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end()
    if error is None:
        try:
            outcome = wl.check(out, raw)
        except Exception:
            outcome = UnitOutcome(problems=["output check raised:\n" + traceback.format_exc()])
    else:
        outcome = UnitOutcome(problems=["unit raised:\n" + error])
    shutil.rmtree(out, ignore_errors=True)
    return elapsed, outcome


def setup_child(args) -> int:
    """In a fresh interpreter: import, run one warm-up unit, report time and RSS."""
    t0 = time.perf_counter()
    import fkdvlab  # noqa: F401
    import fkdvlab.cli  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out = Path(args.setup_child)
    raw = wl.invoke(out, args.seed)
    setup_s = time.perf_counter() - t0
    outcome = wl.check(out, raw)
    shutil.rmtree(out, ignore_errors=True)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"setup_s": setup_s, "peak_rss_mib": rss_mib,
                      "fingerprint": outcome.fingerprint,
                      "failures": outcome.failures()}))
    return 0


def measure_setup(args, work: Path, deadline: float):
    """Run SETUP_RUNS fresh interpreters one after another.

    Returns one (result or None, failure lines) pair per interpreter.
    """
    runs = []
    for i in range(SETUP_RUNS):
        if time.perf_counter() >= deadline:
            break
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-child", str(work / f"setup{i}")]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            runs.append((None, [f"set-up interpreter exceeded {CHILD_TIMEOUT_S:g} s"]))
            continue
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            runs.append((None, [f"set-up interpreter exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-2000:]}"]))
            continue
        runs.append((res, res["failures"]))
    return runs


# ---------------------------------------------------------------------------
# reporting


def tail(times: list):
    """Highest percentile with at least TAIL_BEYOND units beyond it.

    Returns (value, percentile, units beyond it).  With fewer than MIN_UNITS
    units the slowest unit is returned, at percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < MIN_UNITS:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def emit(args, root: Path, env: dict, metrics: dict, notes: dict, units: dict,
         attempted: int, failed: int, extra_failures: list):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(unit_of):
        raise RuntimeError(f"measured metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json's {sorted(unit_of)}")
    correct = failed == 0 and not extra_failures
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:>16.8g} {unit_of[name]}{note}")
    print(f"units: {attempted} attempted, {failed} failed; correct: {correct}")
    for line in extra_failures:
        print("  check failed: " + line, file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, notes=notes, units=units,
                  failures=extra_failures)
    path = root / OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


def collect(outcomes: list):
    """Failed-unit count and failure lines; output must match the first unit's."""
    reference = next((fp for _, _, fp in outcomes if fp), "")
    failed, lines = 0, []
    for label, outcome, fp in outcomes:
        problems = outcome.failures()
        if fp and fp != reference:
            problems = problems + ["output differs from the run's first unit"]
        if problems:
            failed += 1
            lines += [f"{label}: {p}" for p in problems]
    return failed, lines


def measure(args, root: Path, work: Path, env: dict, deadline: float):
    import workloads
    import tracing

    wl = workloads.WORKLOADS[args.workload]
    outcomes = []               # (label, outcome, fingerprint)

    def unit(label, tracer=None):
        elapsed, outcome = run_unit(wl, args.seed, work / f"u{len(outcomes):05d}", tracer)
        outcomes.append((label, outcome, outcome.fingerprint))
        return elapsed

    notes, setups = {}, []
    if not args.trace:
        for i, (res, problems) in enumerate(measure_setup(args, work, deadline)):
            outcomes.append((f"set-up {i}", workloads.UnitOutcome(problems=list(problems)),
                             res["fingerprint"] if res else ""))
            if res:
                setups.append(res)
    unit("warm-up")                         # caches filled before timing
    plain, traced = [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        enough = (min(len(plain), len(traced)) >= MIN_TRACE_UNITS if args.trace
                  else len(plain) >= MIN_UNITS)
        if (now - start >= args.seconds and enough) or now >= deadline:
            break
        plain.append(unit(f"unit {len(outcomes)}"))
        if args.trace:
            traced.append(unit(f"traced unit {len(outcomes)}", tracer))
    failed, lines = collect(outcomes)
    attempted = len(outcomes)
    units = {"untraced_s": plain, "traced_s": traced, "measured_s": time.perf_counter() - start}

    if args.trace:
        metrics, unsteady = tracing.layer_metrics(tracer.units)
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        notes["trace.overhead_frac"] = (f"median traced {statistics.median(traced):.4f} s "
                                        f"over untraced {statistics.median(plain):.4f} s")
        lines += [f"counter {k} differs between traced units" for k in unsteady]
        spans_path = root / OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["unit", "name", "layer", "parent", "start", "end"],
            "spans": tracing.spans_table(tracer.units)}))
        notes["spans"] = str(spans_path.relative_to(root))
    else:
        hi, pct, beyond = tail(plain)
        tightest = min(((v.margin, v.name) for _, o, _ in outcomes for v in o.verdicts
                        if v.margin is not None), default=(0.0, "none"))
        metrics = {
            "wall_s": statistics.median(plain),
            "wall_s_hi": hi,
            "setup_s": statistics.median(s["setup_s"] for s in setups) if setups else 0.0,
            "peak_rss_mib": (statistics.median(s["peak_rss_mib"] for s in setups)
                             if setups else 0.0),
            "ops_ok_frac": 1.0 - failed / attempted,
            "verdict_margin": tightest[0],
        }
        notes["wall_s"] = f"median of {len(plain)} units"
        notes["wall_s_hi"] = f"p{pct:.1f} of {len(plain)} units, {beyond} beyond it"
        notes["setup_s"] = f"median of {len(setups)} fresh interpreters"
        notes["peak_rss_mib"] = f"median max RSS of {len(setups)} fresh interpreters"
        notes["ops_ok_frac"] = f"{failed} of {attempted} units failed a check"
        notes["verdict_margin"] = f"tightest verdict: {tightest[1]}"
    emit(args, root, env, metrics, notes, units, attempted, failed, lines)


def main(argv=None) -> int:
    deadline = time.perf_counter() + STOP_AFTER_S
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "fkdvlab" / "__init__.py").is_file():
        print(f"error: no fkdvlab sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    if args.setup_child:
        return setup_child(args)

    import fkdvlab
    if not Path(fkdvlab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported fkdvlab from {fkdvlab.__file__}, not {src}", file=sys.stderr)
        return 2
    work = root / OUT_DIR / f"units-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        measure(args, root, work, environment(root), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
