"""Benchmark of ipszeta's dense spectra, power-trace sweeps and DK Monte Carlo.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in its
own process.  A run repeats the workload's fixed job for S seconds in this
one process.  Before each job the process moves to the next allowed CPU:
other tenants of a shared host can slow one CPU by up to 2x for tens of
seconds, and spreading the jobs over every CPU keeps the median from
following a single CPU's load.  With --trace 0 it reports the end-to-end
metrics: the median job wall time, the median set-up time of several fresh
processes and this process's peak RSS.  With --trace 1 it runs traced and
untraced jobs and reports each layer's summed self time and counts per job
(over the traced jobs), and the tracing overhead.  Checks run on every job's
outputs and once per run; they are never timed.  Spans are written to
.perfbench_out/ when the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 means the library or
BENCHMARK.json could not be loaded; no result is printed then.
"""

import os

# One BLAS thread in this process and every process it starts.  Set before
# numpy is imported; the library itself is left alone.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
RNG_FLOOR_REPEATS = 3
PROBE_TIMEOUT_S = 120

SWEEPS = ("zeta.power_trace_coefficients", "zeta.zeta_log_series")
WRITERS = ("spectrum_csv", "histogram_csv", "coefficients_csv", "zeta_eval_json",
           "survival_json", "scan_csv")


def _layer_metrics() -> dict:
    """Per-layer metric name -> function of one traced job's LayerTotals."""
    m = {
        "operators.build_global_kronecker.s":
            lambda L: L.seconds("operators.build_global_kronecker"),
        "operators.build_global_kronecker.calls":
            lambda L: L.calls("operators.build_global_kronecker"),
        "operators.build_global_recursive.s":
            lambda L: L.seconds("operators.build_global_recursive"),
        "operators.apply_matrix_free.real.s":
            lambda L: L.seconds("operators.apply_matrix_free.real"),
        "operators.apply_matrix_free.complex.s":
            lambda L: L.seconds("operators.apply_matrix_free.complex"),
        "operators.apply_matrix_free.entries":
            lambda L: L.count("entries", "operators.apply_matrix_free"),
        "operators.apply_matrix_free.gb_per_s_computed":
            lambda L: L.rate("bytes_computed", 1e9, "operators.apply_matrix_free"),
        "spectral.eig_dense.s": lambda L: L.seconds("spectral.eig_dense"),
        "spectral.eig_dense.calls": lambda L: L.calls("spectral.eig_dense"),
        "spectral.eig_dense.dim_total": lambda L: L.count("dim", "spectral.eig_dense"),
        "spectral.histogram.s": lambda L: L.seconds("spectral.histogram"),
        "zeta.zeta_log_series.s": lambda L: L.seconds("zeta.zeta_log_series"),
        "zeta.power_trace_coefficients.complex.s":
            lambda L: L.seconds("zeta.power_trace_coefficients.complex"),
        "zeta.power_trace_coefficients.wide.s":
            lambda L: L.seconds("zeta.power_trace_coefficients.wide"),
        "zeta.power_trace_coefficients.column_sweeps":
            lambda L: L.count("column_sweeps", *SWEEPS),
        "zeta.power_trace_coefficients.gb_per_s_computed":
            lambda L: L.rate("bytes_computed", 1e9, *SWEEPS),
        "zeta.zeta_det.s": lambda L: L.seconds("zeta.zeta_det"),
        "dk.estimate_survival.s": lambda L: L.seconds("dk.estimate_survival"),
        "dk.estimate_survival.trials": lambda L: L.count("trials", "dk.estimate_survival"),
        "dk.estimate_survival.survived": lambda L: L.count("survived", "dk.estimate_survival"),
        "dk.estimate_survival.trials_per_s":
            lambda L: L.rate("trials", 1.0, "dk.estimate_survival"),
        "dk.scan_critical.s": lambda L: L.seconds("dk.scan_critical"),
        "dk.scan_critical.points": lambda L: L.count("points", "dk.scan_critical"),
        "dk.scan_critical.survived": lambda L: L.count("survived", "dk.scan_critical"),
        "cli.main.s": lambda L: L.seconds("cli.main"),
        "cli.main.calls": lambda L: L.calls("cli.main"),
    }
    for w in WRITERS:
        span = "serialize." + w
        m[span + ".s"] = lambda L, span=span: L.seconds(span)
        m[span + ".bytes"] = lambda L, span=span: L.count("bytes", span)
    return m


def _parse(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(names) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _fmt(xs) -> str:
    return "%d [%s] s" % (len(xs), " ".join("%.3f" % x for x in xs))


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Tally:
    """Operations and checks attempted and failed, and per-check outcomes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict = {}

    def op_results(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed

    def add_check(self, name: str, ok: bool, detail: str):
        self.attempted += 1
        self.failed += not ok
        row = self.checks.setdefault(name, {"runs": 0, "failed": 0, "detail": detail})
        row["runs"] += 1
        if not row["failed"]:  # after a failure, keep that failure's detail
            row["detail"] = detail
        row["failed"] += not ok

    def add_checks(self, checks):
        for c in checks:
            self.add_check(c.name, c.ok, c.detail)

    def failed_check(self, name: str, exc: Exception):
        self.add_check(name, False, "%s: %s" % (type(exc).__name__, exc))


def _setup_time(name: str, seed: int, tally: Tally, times: list):
    """Set-up seconds of one fresh process, from just before its start."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed),
                           str(OUTDIR)], capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    tally.op_results(1, proc.returncode != 0)
    if proc.returncode == 0:
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    else:
        sys.stderr.write(proc.stderr)


def _jobs(w, seconds: float, trace: bool, tally: Tally):
    """Repeat the job for `seconds`, moving this process to the next allowed
    CPU before each job.  With tracing, jobs go traced, traced, untraced,
    untraced, so both kinds run on every CPU.  Without tracing, SETUP_PROBES
    set-up processes run between jobs, spread evenly over the run, so they
    meet the same host load as the jobs.  Returns wall times keyed by
    traced-ness, the LayerTotals of traced jobs, all their spans and the
    set-up times."""
    from tracing import LayerTotals, Tracer

    cpus = sorted(os.sched_getaffinity(0))
    walls = {False: [], True: []}
    layers, spans, setup = [], [], []
    probes = 0 if trace else SETUP_PROBES
    start = time.perf_counter()
    k, last, probed = 0, 0.0, 0
    # no job starts that the last job's time says would end past `seconds`
    while time.perf_counter() - start + last < seconds or k < (4 if trace else 1):
        if probed < probes and time.perf_counter() - start >= probed * seconds / probes:
            probed += 1
            _setup_time(w.name, w.seed, tally, setup)
        traced = trace and k % 4 < 2
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        tr = Tracer(traced, "%s-seed%d-job%d" % (w.name, w.seed, k))
        k += 1
        t0 = time.perf_counter()
        try:
            with tr.root("job." + w.name):
                out = w.job(tr)
        except Exception as exc:  # a failed operation is counted; the run goes on
            print("error: %s job %d: %s: %s" % (w.name, k, type(exc).__name__, exc),
                  file=sys.stderr)
            tally.op_results(tr.ops, 1)
            continue
        wall = last = time.perf_counter() - t0
        tally.op_results(tr.ops, 0)
        walls[traced].append(wall)
        if traced:
            layers.append(LayerTotals(tr.spans))
            spans.extend(tr.spans)
        try:
            tally.add_checks(w.check_job(out))
        except Exception as exc:
            tally.failed_check("%s.check_job" % w.name, exc)
        del out  # so the next job's peak RSS does not include this job's outputs
    os.sched_setaffinity(0, cpus)
    for _ in range(probed, probes):
        _setup_time(w.name, w.seed, tally, setup)
    return walls, layers, spans, setup


def run_one(args, spec) -> int:
    try:
        import envinfo
        import workloads
        from tracing import write_spans
    except ImportError as exc:
        print("error: cannot load the library from %s: %s" % (ROOT / "src", exc),
              file=sys.stderr)
        return 2
    OUTDIR.mkdir(exist_ok=True)
    tally = Tally()
    print("env " + json.dumps(envinfo.environment(), sort_keys=True))

    w = workloads.WORKLOADS[args.workload](args.seed, OUTDIR)
    w.warm()
    walls, layers, spans, setup = _jobs(w, args.seconds, bool(args.trace), tally)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        tally.add_checks(w.check_once())
    except Exception as exc:
        tally.failed_check("%s.check_once" % w.name, exc)

    for name, row in sorted(tally.checks.items()):
        print("check %s.%s: %s (%d of %d failed; %s)"
              % (w.name, name, "FAIL" if row["failed"] else "PASS", row["failed"],
                 row["runs"], row["detail"]))

    if not walls[False] or (args.trace and not walls[True]) or (not args.trace and not setup):
        print("error: no successful job or set-up to measure", file=sys.stderr)
        return 1

    if args.trace:
        # median_low: a value one traced job measured, so counts stay whole
        values = {name: statistics.median_low([fn(L) for L in layers])
                  for name, fn in _layer_metrics().items()}
        values["trace_overhead_frac"] = _median(walls[True]) / _median(walls[False]) - 1.0
        floor = getattr(w, "rng_floor", None)
        values["dk.rng_floor.s"] = (_median([floor() for _ in range(RNG_FLOOR_REPEATS)])
                                    if floor else 0.0)
        write_spans(OUTDIR / ("spans-%s-seed%d.jsonl" % (w.name, w.seed)), spans)
        declared = spec["per_layer"]
        print("jobs: traced %s, untraced %s" % (_fmt(walls[True]), _fmt(walls[False])))
    else:
        values = {"wall_s": _median(walls[False]), "setup_s": _median(setup),
                  "peak_rss_mib": peak_rss_mib}
        declared = spec["end_to_end"]
        print("jobs: %s; set-ups: %s" % (_fmt(walls[False]), _fmt(setup)))

    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        print("error: metrics differ from BENCHMARK.json: %s" % sorted(mismatch), file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print("metric %s = %r %s" % (name, m["value"], m["unit"]))
    print("metric failed_frac = %r (%d of %d operations and checks failed)"
          % (tally.failed / tally.attempted, tally.failed, tally.attempted))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Each workload in its own process; prints their output and a summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for wl in spec["workloads"]:
        print("== workload %s" % wl["name"], flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               wl["name"], "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"]["%s.%s" % (wl["name"], name)] = m
    if code == 0:
        print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print("error: cannot read BENCHMARK.json: %s" % exc, file=sys.stderr)
        return 2
    args = _parse(argv, [wl["name"] for wl in spec["workloads"]])
    return run_all(args, spec) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
