"""truncops benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload suite-high --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
With `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
runs untraced and then traced cycles and prints the per-layer metrics.  Human
readable lines come first, and the last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`;
`attempted` and `failed` count the distinct ops of one cycle.  End-to-end
times are scaled by a calibration kernel timed next to them, and set-up by
bare interpreter starts timed next to it, so the host's speed phases cancel;
the unscaled figures go to the record as well.  A fuller
record (machine fingerprint, failures with replayable inputs, spans) goes to
`bench/out/`.  See `BENCHMARK.json` for the workloads and metrics.
"""

from __future__ import annotations

import os

# pin the BLAS/OpenMP pools before numpy loads; the library itself sets nothing
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9        # at least this many set-up probes in an untraced run
# setup_s is given in seconds on a host where the bare start below takes this long
BARE_START_S = 0.15
BARE_START = [sys.executable, "-c", "import time, numpy; print(time.perf_counter())"]
# calibrate() runs before an op once this long has passed since it last ran, and
# an op's time is scaled by its runs within CALIB_WINDOW_S of the op, to a host
# on which it takes CALIB_S
CALIB_EVERY_S = 0.25
CALIB_WINDOW_S = 1.0
CALIB_S = 0.012
MIN_CYCLES = 2


def import_library():
    """Import truncops from this checkout's src/ and nowhere else."""
    if not (SRC / "truncops" / "__init__.py").is_file():
        sys.exit(f"bench: no truncops sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import truncops

    if Path(truncops.__file__).resolve().parent != SRC / "truncops":
        sys.exit(f"bench: imported truncops from {truncops.__file__}, not from {SRC}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and a single cycle, for checking the output format")
    ap.add_argument("--probe-setup", action="store_true",
                    help="set the workload up, print the clock and exit (used to time setup_s)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement


def warm_numpy():
    """Finish numpy's lazy set-up (LAPACK dispatch, polynomial module) only;
    no library cache is touched."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    np.linalg.lstsq(a, a[:, 0], rcond=None)
    np.linalg.eig(a)
    np.linalg.norm(a, 2)
    np.linalg.cond(a)
    np.polynomial.polynomial.polyroots(a[:, 0])
    np.polynomial.polynomial.polymul(a[:, 0], a[:, 1])


def calibrate() -> float:
    """Seconds for a fixed numpy and pure-Python kernel that never touches the
    library, to show how fast the host ran at one moment."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    c = a[:, 0].copy()
    z = np.exp(2j * np.pi * np.arange(2048) / 2048)
    t0 = time.perf_counter()
    for i in range(100):
        p = np.polynomial.polynomial.polymul(c, c)
        np.polynomial.polynomial.polyval(z, p) / (1 - 0.3 * z)
        np.linalg.solve(a @ a, c)
        sum(abs(complex(k, i)) for k in range(30))
    return time.perf_counter() - t0


def run_cycles(workload, seconds, min_cycles, between):
    """Repeat the workload's cycle for about `seconds`, calling `between()`
    untimed before each and `between.tick()` before each op: stop once
    another cycle would end further past `seconds` than stopping now falls
    short."""
    cycles, start = [], time.perf_counter()
    while True:
        between()
        gc.collect()
        cycles.append(workload.run_cycle(tick=between.tick))
        elapsed = time.perf_counter() - start
        if len(cycles) >= min_cycles and elapsed + cycles[-1].wall / 2 > seconds:
            return cycles


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_alternating(workload, seconds, tracer, between):
    """Untraced and traced cycles in turn for about `seconds`, so machine
    drift touches both sides alike.  Returns (untraced, traced, peak RSS in
    MB before the first traced cycle, which the spans would inflate)."""
    untraced, traced, start = [], [], time.perf_counter()
    while True:
        between()
        gc.collect()
        untraced.append(workload.run_cycle())
        if not traced:
            rss = peak_rss_mb()
        gc.collect()
        tracer.install()
        try:
            traced.append(workload.run_cycle(tracer))
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + (untraced[-1].wall + traced[-1].wall) / 2 > seconds:
            return untraced, traced, rss


class Between:
    """Untimed work between cycles and ops: host calibrations, and, when
    `probe_every` is set, a set-up probe once that many seconds have passed
    since the last, so the probes sample the whole run and not one moment."""

    def __init__(self, args, probe_every=None):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                    "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            self.cmd.append("--smoke")
        self.probe_every = probe_every
        self.calib_at, self.calib_s, self.setup_s, self.setup_ratio = [], [], [], []
        self._last_probe = self._last_calib = -float("inf")

    def __call__(self):
        self.tick()
        if self.probe_every is not None and time.perf_counter() - self._last_probe >= self.probe_every:
            self.probe()

    def tick(self):
        """Time calibrate() if CALIB_EVERY_S has passed since it last ran."""
        now = time.perf_counter()
        if now - self._last_calib >= CALIB_EVERY_S:
            self.calib_at.append(now)
            self.calib_s.append(calibrate())
            self._last_calib = time.perf_counter()

    def slowness(self, start, end):
        """How much slower than the reference the host ran from `start` to
        `end`: the median calibration within CALIB_WINDOW_S, over CALIB_S.
        The host's speed drifts by a quarter or more over seconds to minutes,
        and an op and the kernel timed next to it drift together."""
        lo = bisect.bisect_left(self.calib_at, start - CALIB_WINDOW_S)
        hi = bisect.bisect_right(self.calib_at, end + CALIB_WINDOW_S)
        return statistics.median(self.calib_s[lo:hi]) / CALIB_S

    def probe(self):
        """Time one fresh interpreter from start to inputs generated, and its
        ratio to the mean of two bare starts (interpreter and numpy import
        only) just before and after it.  The host's speed drifts by a quarter
        over minutes, and a start and its neighbours drift together."""
        self._last_probe = time.perf_counter()
        before = start_time(BARE_START)
        setup = start_time(self.cmd)
        after = start_time(BARE_START)
        self.setup_s.append(setup)
        self.setup_ratio.append(2 * setup / (before + after))


def start_time(cmd) -> float:
    """Seconds from launching `cmd` to the clock reading it prints last.
    perf_counter reads CLOCK_MONOTONIC, which is shared between processes."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1]) - t0


def percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def fingerprint(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "truncops").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not its own git
    repository (git would otherwise report an enclosing one)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    top, head = proc.stdout.split()
    return head if Path(top).resolve() == ROOT else "unknown"


# ---------------------------------------------------------------------------
# metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cycles, slowness, setup_s):
    """Op times divided by `slowness(start, end)`; throughput is ops over the
    summed op times of a cycle, median over cycles.  For the suites that
    leaves out what `run_suite` does around its trials, mostly generating the
    instances, which setup_s covers."""
    scaled = [[s[1] / slowness(s[3], s[3] + s[1]) for s in c.samples] for c in cycles]
    samples = [x for c in scaled for x in c]
    return {
        "ops_per_s": metric(statistics.median(len(c) / sum(c) for c in scaled), "ops/s"),
        "op_p50_ms": metric(1e3 * statistics.median(samples), "ms"),
        "op_p90_ms": metric(1e3 * percentile(samples, 90), "ms"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(untraced, traced, tracer, check_ids, rss_mb):
    """Per-layer figures, each per cycle (one pass over the workload's ops)."""
    n = len(traced)
    summ = tracer.summary()
    layer_s, calls, incl = summ["layer_self_s"], summ["calls"], summ["inclusive_s"]

    def count(name):
        return metric(calls.get(name, 0) / n, "count")

    def secs(value):
        return metric(value / n, "s")

    tm_calls = calls.get("modelspace.tm_basis", 0)
    builds = calls.get("modelspace.ModelSpaceBasis.__init__", 0)
    out = {
        "ratfun.RationalSymbol.new": count("ratfun.RationalSymbol.__init__"),
        "quadrature.pairings": metric(statistics.median(c.quad["pairings"] for c in traced), "count"),
        "quadrature.max_nodes": metric(max(c.quad["max_nodes"] for c in traced), "count"),
        "classify.is_tho.s": secs(incl.get("classify.is_tho", 0.0)),
        "classify.is_tto.s": secs(incl.get("classify.is_tto", 0.0)),
        "classify.sedlock_class.s": secs(incl.get("classify.sedlock_class", 0.0)),
        "linalg.lstsq.calls": count("linalg.lstsq"),
        "linalg.lstsq.self_s": secs(layer_s.get("linalg", 0.0)),
        "modelspace.tm_basis.calls": count("modelspace.tm_basis"),
        "modelspace.basis_builds": count("modelspace.ModelSpaceBasis.__init__"),
        "modelspace.tm_basis.hit_ratio": metric(1 - builds / tm_calls if tm_calls else 0.0, "ratio"),
        "operators.shift.calls": count("operators.shift"),
        "operators.tto_matrix.calls": count("operators.tto_matrix"),
        "operators.tho_matrix.calls": count("operators.tho_matrix"),
        "harness.generate_instance.self_s": secs(
            summ["self_s"].get("harness.generate_instance", 0.0)),
    }
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = secs(layer_s.get(layer, 0.0))
    for cid in check_ids:
        per_cycle = [sum(s[1] for s in c.samples if s[0] == cid) for c in untraced]
        out[f"harness.check.{cid}.s"] = metric(statistics.median(per_cycle), "s")
    # rare quadrature escalations at high degree spike it, so it is not
    # steady enough across seeds to carry an end-to-end bound
    out["peak_rss_mb"] = metric(rss_mb, "MB")
    out["trace.overhead_ratio"] = metric(
        statistics.median(c.ops_per_s for c in traced)
        / statistics.median(c.ops_per_s for c in untraced), "ratio")
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; known: {workloads.WORKLOADS}")
    if args.probe_setup:
        workloads.make(args.workload, args.seed, args.smoke)
        print(time.perf_counter())
        return 0

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "machine": fingerprint(np)}
    min_cycles = 1 if args.smoke else MIN_CYCLES
    wl = workloads.make(args.workload, args.seed, args.smoke)
    warm_numpy()

    if args.trace == 0:
        between = Between(args, probe_every=args.seconds / (SETUP_PROBES - 1))
        cycles = run_cycles(wl, args.seconds, min_cycles, between)
        while len(between.setup_s) < (1 if args.smoke else SETUP_PROBES):
            between.probe()
        measured = cycles
        # the set-up time relative to a bare start, in seconds of a host
        # where that start takes BARE_START_S: work moved into set-up shows,
        # the host's speed phases mostly cancel
        metrics = end_to_end(cycles, between.slowness,
                             BARE_START_S * statistics.median(between.setup_ratio))
        info.update(setup_probes_s=between.setup_s, setup_ratios=between.setup_ratio,
                    unscaled_metrics=end_to_end(cycles, lambda start, end: 1.0,
                                                statistics.median(between.setup_s)))
    else:
        between = Between(args)
        tracer = spans.Tracer()
        untraced, traced, rss_mb = run_alternating(wl, args.seconds, tracer, between)
        cycles, measured = untraced + traced, untraced
        check_ids = list(workloads.harness.CHECKS)
        metrics = per_layer(untraced, traced, tracer, check_ids, rss_mb)
    calib_ms = 1e3 * statistics.median(between.calib_s)
    if args.trace:
        metrics["host.calib_ms"] = metric(calib_ms, "ms")

    # correctness gate: every repeat of the cycle, traced or not, must give
    # the same verdicts (suite cycles: the same report bytes)
    correct = all(c.verdicts == cycles[0].verdicts for c in cycles)
    # an op is one distinct input of the cycle, however often it was timed:
    # with the verdicts repeating, the counts depend on the seed alone and not
    # on how many cycles the host managed in the time
    attempted = len(cycles[0].samples)
    failed = sum(1 for s in cycles[0].samples if not s[2])
    latency_samples = sum(len(c.samples) for c in measured)
    if args.trace:
        metrics["failed_share"] = metric(failed / attempted, "ratio")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info.update(
        correct=correct, cycles=len(cycles), cycle_wall_s=[c.wall for c in cycles],
        ops_attempted=attempted, ops_failed=failed, latency_samples=latency_samples,
        peak_rss_mb=peak_rss_mb(),
        failed_share=failed / attempted, calib_ms=calib_ms, metrics=metrics,
        failures=cycles[0].failures, first_cycle_samples=cycles[0].samples)
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
        info["spans"] = len(tracer.spans)
    (OUT / f"{stem}.json").write_text(json.dumps(info, indent=1, default=str))

    m = info["machine"]
    print(f"# truncops bench  workload={args.workload} seed={args.seed} trace={args.trace}"
          f"  commit={m['commit'][:12]} src={m['src_sha256'][:12]}")
    print(f"# nproc={m['nproc']} python={m['python']} numpy={m['numpy']} blas={m['blas']}"
          f" threads={m['threads']}")
    print(f"# cycles={len(cycles)} ops={attempted} failed={failed}"
          f" failed_share={failed / attempted:.4g} latency_samples={latency_samples}"
          f" peak_rss_mb={info['peak_rss_mb']:.1f} calib_ms={calib_ms:.4g}")
    if not args.trace:
        print(f"# setup probes={len(between.setup_s)}"
              f" median_s={statistics.median(between.setup_s):.4g}"
              f" median_ratio_to_bare_start={statistics.median(between.setup_ratio):.4g}")
    for f in cycles[0].failures:
        print(f"# failure: {json.dumps(f, default=str)[:400]}")
    for name, mv in metrics.items():
        print(f"{name} = {mv['value']:.6g} {mv['unit']}")
    if not correct:
        print("# ERROR: repeated cycles gave different verdicts", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
