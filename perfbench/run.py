"""Run one workload of the shehu benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 55 --trace 0

Workloads are `verify-transforms` and `reconstruct` (see workloads.py);
``--workload all`` runs both in turn, each in its own process.
A run repeats passes -- full lists of seeded, checked requests -- for
about ``--seconds`` and until at least 100 requests are in, then prints a
summary and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
pass twice, untraced and traced (alternating which goes first), checks
that both give bit-identical results, and reports the per-layer metrics
plus ``trace.overhead_frac``.  The package is imported from ``src/`` of
the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120.0
MIN_REQUESTS = 100  # ten samples beyond the 90th percentile
MIN_PASSES = 3
MAX_OVERRUN_S = 60.0  # hard stop past --seconds, keeps a run under 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="verify-transforms, reconstruct, or all (each in turn)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_note() -> dict:
    import mpmath
    import numpy
    import scipy

    note = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "caches": [],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_sha": "none (not a git checkout)",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            note["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((idx / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            note["caches"].append(f"L{level} {kind} {size}")
    except (OSError, StopIteration):
        pass
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        if sha.returncode == 0:
            note["git_sha"] = sha.stdout.strip()
    return note


def measure_setup() -> float:
    """Wall time of a fresh interpreter running ``import shehu.cli``.

    A timer kills a child that hangs.  ``Popen.wait`` without a timeout
    blocks in ``waitpid`` and returns as the child ends; with a timeout it
    polls at up to 50 ms intervals, which would round the time up to them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import shehu.cli"], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL)
    guard = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    guard.start()
    try:
        code = proc.wait()
    finally:
        guard.cancel()
    elapsed = perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def pass_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def digest(p) -> list[tuple[str, str, str]]:
    return [(r.id, r.status, r.value) for r in p.results] + \
        [(key, "artifact", text) for key, text in p.artifacts]


def done(t0: float, seconds: float, durations: list[float], enough: bool) -> bool:
    """Stop once enough is in and the next pass would end past ``seconds``
    by more than half its length (so a run lasts ``seconds`` on average)."""
    elapsed = perf_counter() - t0
    if elapsed >= seconds + MAX_OVERRUN_S:
        return True
    return enough and elapsed + 0.5 * statistics.median(durations) >= seconds


def run_untraced(build, seed: int, seconds: float, tmp: Path) -> tuple[list, list]:
    """Passes for about ``seconds``, and SETUP_SAMPLES set-up times taken
    between passes at even intervals, so that both sample the machine's
    speed over the whole run.  Set-up time does not count in ``seconds``."""
    passes, setup, n, t0 = [], [], 0, perf_counter()
    while True:
        due = len(setup) * seconds / SETUP_SAMPLES
        if len(setup) < SETUP_SAMPLES and perf_counter() - t0 >= due:
            setup.append(measure_setup())
            t0 += setup[-1]
        passes.append(build(pass_seed(seed, len(passes)), tmp))
        n += len(passes[-1].results)
        enough = n >= MIN_REQUESTS and len(passes) >= MIN_PASSES
        if done(t0, seconds, [p.seconds for p in passes], enough):
            setup += [measure_setup() for _ in range(SETUP_SAMPLES - len(setup))]
            return passes, setup


def run_traced(build, seed: int, seconds: float, tmp: Path, tracer, modules):
    """Pairs of (untraced, traced) passes on the same pass seeds."""
    pairs, t0 = [], perf_counter()
    while True:
        ps = pass_seed(seed, len(pairs))
        got = {}
        for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            if traced:
                tracer.install(modules)
            try:
                got[traced] = build(ps, tmp)
            finally:
                if traced:
                    tracer.uninstall()
        pairs.append((got[False], got[True]))
        durations = [u.seconds + t.seconds for u, t in pairs]
        if done(t0, seconds, durations, len(pairs) >= 2):
            return pairs


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def geometric_mean(values: list[float]) -> float:
    """exp of the mean log: a typical request latency that, unlike the
    median, does not jump across the gaps of a mixed request list."""
    return math.exp(statistics.fmean(math.log(v) for v in values))


def err_log10_max(results, tag: str) -> float:
    """log10 of the largest checked error tagged ``tag`` (-300 if none)."""
    errs = [r.err for r in results if tag in r.tags and r.status != "refused"]
    return math.log10(max(max(errs, default=0.0), 1e-300))


def summarize_requests(results) -> tuple[int, int, int, list[str]]:
    failed = [r for r in results if r.status == "failed"]
    refused = [r for r in results if r.status == "refused"]
    reasons: dict[str, int] = {}
    for r in failed + refused:
        key = f"{r.status} {r.id}: {r.reason}"
        reasons[key] = reasons.get(key, 0) + 1
    lines = [f"  {count} x {key}" for key, count in sorted(reasons.items())]
    return len(results), len(failed), len(refused), lines


def layer_metrics(tracer, pairs) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced halves of (untraced, traced) pairs."""
    results = [r for _, t in pairs for r in t.results]
    n = len(pairs)
    metrics = tracer.metrics(n)
    rows = [r for r in results if "opcalc" in r.tags]
    row_s = [r.latency_s for r in rows] or [0.0]
    ratios = [t.seconds / u.seconds for u, t in pairs]
    metrics.update({
        "specfun.mittag_leffler.err_log10.max": (err_log10_max(results, "specfun"), "log10"),
        "inverse.err_log10.max": (err_log10_max(results, "inverse"), "log10"),
        "opcalc.rows": (len(rows) / n, "count"),
        "opcalc.rows_failed": (sum(r.status == "failed" for r in rows) / n, "count"),
        "opcalc.row_s.p50": (percentile(row_s, 50), "s"),
        "opcalc.row_s.max": (max(row_s), "s"),
        "opcalc.row_err_log10.max": (err_log10_max(results, "opcalc"), "log10"),
        "trace.overhead_frac": (statistics.median(ratios) - 1.0, "frac"),
    })
    return metrics


def run_all(args) -> int:
    """Run every workload in its own process; print a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("verify-transforms", "reconstruct"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            text=True, stdout=subprocess.PIPE, timeout=args.seconds + 170)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shehu" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'shehu'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import shehu
    if Path(shehu.__file__).resolve().parent != (SRC / "shehu").resolve():
        print(f"error: imported shehu from {shehu.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        if args.trace:
            tracer = Tracer()
            pairs = run_traced(build, args.seed, args.seconds, Path(tmp), tracer,
                               [workloads])
            passes = [t for _, t in pairs]
        else:
            passes, setup = run_untraced(build, args.seed, args.seconds, Path(tmp))

    results = [r for p in passes for r in p.results]
    attempted, failed, refused, reasons = summarize_requests(results)
    correct = failed == 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {attempted} requests, {failed} failed, "
          f"{refused} refused")
    print(f"  fail_frac {(failed + refused) / attempted:.6g} "
          f"(raised or missed tolerance, refusals included)")
    for line in reasons[:20]:
        print(line)

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        mismatches = [i for i, (u, t) in enumerate(pairs) if digest(u) != digest(t)]
        if mismatches:
            correct = False
            print(f"  traced results differ from untraced on passes {mismatches}")
        else:
            print(f"  traced results bit-identical to untraced on {len(pairs)} passes")
        metrics = layer_metrics(tracer, pairs)
    else:
        lat = [r.latency_s for r in results]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (statistics.median(p.seconds for p in passes), "s"),
            "req_s.gmean": (geometric_mean(lat), "s"),
            "req_s.p90": (percentile(lat, 90), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"  setup_s: median of {len(setup)} fresh `import shehu.cli`: "
              + " ".join(f"{t:.3f}" for t in setup))
        print(f"  pass_s: median of {len(passes)} passes: "
              + " ".join(f"{p.seconds:.3f}" for p in passes))
        print(f"  req_s.gmean / req_s.p90 over {len(lat)} requests; "
              f"p50 (not a metric, see README.md) {percentile(lat, 50):.6g} s")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:45s} {value:.6g} {unit}")
    print("machine " + json.dumps(machine_note()))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
