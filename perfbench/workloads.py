"""The benchmark's four workloads and the checks on their outputs.

Each workload builds its inputs from the seed in `__init__` (set-up), runs a
fixed amount of library work in `job` (timed), checks each job's outputs in
`check_job` and runs slower, independent checks once in `check_once` (both
untimed).  Every library call in a job sits in a span named after the
library module, so the traced run can split the job's time by layer.

The library is imported from the `src` directory of the checkout this file
sits in, never from an installed copy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ipszeta as iz  # noqa: E402
from ipszeta import cli, serialize  # noqa: E402

if Path(iz.__file__).resolve().parent != ROOT / "src" / "ipszeta":
    raise ImportError("ipszeta was imported from %s, not from %s"
                      % (iz.__file__, ROOT / "src"))

DEFAULT_SEED = 0
COMPLEX_BYTES = 16


def sweep_bytes(n_sites: int, columns: int) -> int:
    """Computed bytes one sweep of `columns` states moves: every pair update
    reads and writes the whole complex batch."""
    return 2 * COMPLEX_BYTES * (n_sites - 1) * (1 << n_sites) * columns


def csv_rows(text: str) -> int:
    """Data rows of a CSV with '# key=value' metadata lines and one header."""
    return sum(1 for line in text.splitlines() if not line.startswith("#")) - 1


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def within(name: str, err, limit: float) -> Check:
    err = float(err)
    return Check(name, err <= limit, "%.3g <= %.3g" % (err, limit))


def same(name: str, got, want) -> Check:
    return Check(name, got == want, "%r == %r" % (got, want))


def cli_bytes_checks(name: str, argv: list, outputs: list) -> list:
    """Run a CLI command twice in process; both runs must exit 0 and write
    the same bytes.  No golden bytes are kept, so a change that only alters
    rounding is not a failure."""
    runs = []
    for _ in range(2):
        for path in outputs:
            path.unlink(missing_ok=True)
        code = cli.main(argv)
        runs.append((code, [p.read_bytes() if p.exists() else None for p in outputs]))
    (code_a, files_a), (code_b, files_b) = runs
    written = None not in files_a
    size = sum(len(f) for f in files_a if f is not None)
    return [
        same("cli_exit." + name, (code_a, code_b), (0, 0)),
        Check("cli_bytes." + name, written and files_a == files_b,
              "%d files, %d bytes, identical=%s" % (len(outputs), size, files_a == files_b)),
    ]


class Workload:
    name = ""

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.tables: dict = {}

    def warm(self):
        """First eigensolve and first sweep, so lazy loading is not timed."""
        loc = next(iter(self.tables.values()))
        iz.eig_dense(iz.build_global_recursive(loc, 4).dense)
        iz.power_trace_coefficients(loc, 4, 2)

    def job(self, tr) -> dict:
        raise NotImplementedError

    def check_job(self, out: dict) -> list:
        return []

    def check_once(self) -> list:
        return []


# --- spectrum: dense builders and the eigensolve ----------------------------

N_SPEC = 8


class Spectrum(Workload):
    """Both dense builders, eig_dense, histogram and the CSV writers on three
    tables at n=8 (a 1 MiB complex matrix, half the 2 MiB L2), plus the
    README's `spectrum --n 8 --hist` through cli.main."""

    name = "spectrum"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        rng = np.random.default_rng(seed)
        self.tables = {
            "dk": iz.dk_local_operator(iz.DKParams(0.5, 0.75)),
            "bond": iz.dk_local_operator(iz.DKParams.bond_percolation(0.6)),
            "general": iz.random_local_operator("general", rng),
        }
        self.cli_out = [outdir / "spectrum.csv", outdir / "spectrum-hist.csv"]
        self.cli_argv = ["spectrum", "--model", "dk", "--p", "0.25", "--q", "0.25", "--n", "8",
                         "--out", str(self.cli_out[0]), "--hist", str(self.cli_out[1])]

    def job(self, tr):
        n, dim = N_SPEC, 1 << N_SPEC
        out = {}
        for key, loc in self.tables.items():
            meta = {"model": key, "n": n}
            with tr.span("operators.build_global_recursive"):
                rec = iz.build_global_recursive(loc, n)
            with tr.span("operators.build_global_kronecker"):
                kron = iz.build_global_kronecker(loc, n)
            with tr.span("spectral.eig_dense", dim=dim):
                spec = iz.eig_dense(rec.dense)
            with tr.span("spectral.histogram"):
                grid = iz.histogram(spec)
            with tr.span("serialize.spectrum_csv") as c:
                text = serialize.spectrum_csv(spec, meta)
                c["bytes"] = len(text)
            with tr.span("serialize.histogram_csv") as c:
                c["bytes"] = len(serialize.histogram_csv(grid, meta))
            out[key] = (rec.dense, kron.dense, spec, grid, text)
        with tr.span("cli.main"):
            out["cli"] = cli.main(self.cli_argv)
        return out

    def check_job(self, out):
        dim = 1 << N_SPEC
        checks = [same("cli_job_exit", out["cli"], 0)]
        for key, loc in self.tables.items():
            rec, kron, spec, grid, text = out[key]
            checks.append(within("kron_vs_recursive." + key,
                                 np.abs(kron - rec).max() / np.abs(kron).max(), 1e-12))
            checks.append(same("eigenvalue_count." + key, spec.total, dim))
            scale = max(1.0, float(np.sum(spec.multiplicities * np.abs(spec.values))))
            checks.append(within("eig_sum_vs_trace_closed_form." + key,
                                 abs(spec.moment(1) - iz.trace_closed_form(loc, N_SPEC)) / scale,
                                 1e-10))
            checks.append(same("histogram_total." + key, grid.total, dim))
            checks.append(same("spectrum_csv_rows." + key, csv_rows(text), len(spec.values)))
        return checks

    def check_once(self):
        params = iz.DKParams(0.5, 0.75)
        got = iz.eig_dense(iz.build_global_recursive(iz.dk_local_operator(params), 3).dense)
        ok, dist = iz.match_multisets(got, iz.dk_reference_spectrum_n3(params), 1e-6)
        return [Check("dk_n3_reference_spectrum", ok, "%.3g <= 1e-06" % dist)] + \
            cli_bytes_checks("spectrum", self.cli_argv, self.cli_out)


# --- zeta-deep: many sweeps per basis column ---------------------------------

N_ZETA, R_ZETA, N_DET = 8, 30, 7


class ZetaDeep(Workload):
    """Log-zeta series of the real DK table and power traces of the complex
    QCA rotation at n=8 with r_max=30, plus a determinant cross-check at n=7.
    The batched basis-column sweep does nearly all the work."""

    name = "zeta-deep"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        rng = np.random.default_rng(seed)
        self.xi = float(rng.uniform(0.3, 1.3))
        self.us = (complex(rng.uniform(0.15, 0.35)),
                   complex(0.3 * np.exp(1j * rng.uniform(0.0, 2 * np.pi))))
        self.tables = {
            "dk": iz.dk_local_operator(iz.DKParams(0.5, 0.75)),
            "qca": iz.qca_rotation_local(self.xi),
        }
        self.cli_out = [outdir / "zeta-coefficients.csv", outdir / "zeta-eval.json"]
        self.cli_argvs = [
            ["zeta", "--model", "dk", "--p", "1", "--q", "0", "--n", "3", "--rmax", "4",
             "--out", str(self.cli_out[0])],
            ["zeta", "--model", "dk", "--p", "0.5", "--q", "0.75", "--n", "3", "--u", "0.25",
             "--out", str(self.cli_out[1])],
        ]

    def job(self, tr):
        dk, qca = self.tables["dk"], self.tables["qca"]
        sweeps, nbytes = (1 << N_ZETA) * R_ZETA, R_ZETA * sweep_bytes(N_ZETA, 1 << N_ZETA)
        with tr.span("zeta.zeta_log_series", column_sweeps=sweeps, bytes_computed=nbytes):
            series = iz.zeta_log_series(dk, N_ZETA, R_ZETA)
        for u in self.us:
            with tr.span("zeta.evaluate"):
                log_z = series.evaluate(u)
            with tr.span("zeta.truncation_bound"):
                bound = series.truncation_bound(u)
            with tr.span("serialize.zeta_eval_json") as c:
                c["bytes"] = len(serialize.zeta_eval_json(N_ZETA, u, log_z, np.exp(log_z),
                                                          bound, {"model": "dk"}))
        with tr.span("zeta.power_trace_coefficients.complex", column_sweeps=sweeps,
                     bytes_computed=nbytes):
            coeffs = iz.power_trace_coefficients(qca, N_ZETA, R_ZETA)
        with tr.span("serialize.coefficients_csv") as c:
            text = serialize.coefficients_csv(coeffs, {"model": "qca", "n": N_ZETA})
            c["bytes"] = len(text)
        small_sweeps = (1 << N_DET) * R_ZETA
        with tr.span("zeta.zeta_log_series", column_sweeps=small_sweeps,
                     bytes_computed=R_ZETA * sweep_bytes(N_DET, 1 << N_DET)):
            small = iz.zeta_log_series(dk, N_DET, R_ZETA)
        dets = []
        for u in self.us:
            with tr.span("zeta.zeta_det"):
                dets.append(iz.zeta_det(dk, N_DET, u))
        return {"series": series, "coeffs": coeffs, "csv": text, "small": small, "dets": dets}

    def check_job(self, out):
        r = np.arange(1, R_ZETA + 1)
        want = np.cos(r * self.xi) ** (N_ZETA - 1)
        tr_dk = iz.trace_closed_form(self.tables["dk"], N_ZETA) / (1 << N_ZETA)
        checks = [
            within("qca_rotation_coefficients", np.abs(out["coeffs"] - want).max(), 1e-9),
            within("dk_c1_vs_trace_closed_form",
                   abs(out["series"].coefficients[0] - tr_dk) / max(1.0, abs(tr_dk)), 1e-10),
            same("coefficients_csv_rows", csv_rows(out["csv"]), R_ZETA),
        ]
        for i, (u, det) in enumerate(zip(self.us, out["dets"])):
            series = np.exp(out["small"].evaluate(u))
            checks.append(within("series_vs_det.u%d" % i, abs(series - det) / abs(det), 1e-8))
        return checks

    def check_once(self):
        return (cli_bytes_checks("zeta-coefficients", self.cli_argvs[0], self.cli_out[:1])
                + cli_bytes_checks("zeta-eval", self.cli_argvs[1], self.cli_out[1:]))


# --- sweep-wide: a few states far beyond cache ------------------------------

N_WIDE, N_TRACE_WIDE, R_WIDE, N_DENSE_REF = 19, 9, 3, 10


class SweepWide(Workload):
    """apply_matrix_free of one 8 MiB complex state at n=19 (four times the
    L2) for the real DK table and a complex GENERAL table, plus C_1..C_3 at
    n=9, where all 512 basis columns form one 4 MiB batch."""

    name = "sweep-wide"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        rng = np.random.default_rng(seed)
        self.tables = {
            "dk": iz.dk_local_operator(iz.DKParams(0.5, 0.75)),
            "general": iz.random_local_operator("general", rng),
        }
        dim = 1 << N_WIDE
        self.state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        self.small_state = (rng.standard_normal(1 << N_DENSE_REF)
                            + 1j * rng.standard_normal(1 << N_DENSE_REF))
        self.cli_out = [outdir / "verify-trace-formulas.json"]
        self.cli_argv = ["verify", "trace-formulas", "--random", "general", "--trials", "100",
                         "--n", "6", "--out", str(self.cli_out[0])]

    def job(self, tr):
        dim = 1 << N_WIDE
        out = {}
        for key, kind in (("dk", "real"), ("general", "complex")):
            with tr.span("operators.apply_matrix_free." + kind, entries=dim,
                         bytes_computed=sweep_bytes(N_WIDE, 1)):
                out[key] = iz.apply_matrix_free(self.tables[key], N_WIDE, self.state)
        cols = 1 << N_TRACE_WIDE
        with tr.span("zeta.power_trace_coefficients.wide", column_sweeps=cols * R_WIDE,
                     bytes_computed=R_WIDE * sweep_bytes(N_TRACE_WIDE, cols)):
            out["coeffs"] = iz.power_trace_coefficients(self.tables["dk"], N_TRACE_WIDE, R_WIDE)
        return out

    def check_job(self, out):
        v = self.state
        tr_dk = iz.trace_closed_form(self.tables["dk"], N_TRACE_WIDE)
        c1 = out["coeffs"][0] * (1 << N_TRACE_WIDE)
        return [
            within("dk_apply_preserves_sum", abs(out["dk"].sum() - v.sum()) / np.abs(v).sum(),
                   1e-10),
            same("general_apply_finite", bool(np.isfinite(out["general"]).all()), True),
            within("dk_c1_vs_trace_closed_form", abs(c1 - tr_dk) / max(1.0, abs(tr_dk)), 1e-10),
        ]

    def check_once(self):
        v = self.small_state
        checks = []
        for key, loc in self.tables.items():
            dense = iz.build_global_recursive(loc, N_DENSE_REF).dense
            err = np.linalg.norm(iz.apply_matrix_free(loc, N_DENSE_REF, v) - dense @ v)
            checks.append(within("apply_vs_dense_n10." + key,
                                 err / (np.linalg.norm(dense) * np.linalg.norm(v)), 1e-12))
        return checks + cli_bytes_checks("verify-trace-formulas", self.cli_argv, self.cli_out)


# --- dk-mc: survival Monte Carlo --------------------------------------------

P_EST, T_EST, N_EST = 0.8, 300, 150
# With 100 trials a point, a 0.05 threshold keeps the subcritical points
# labelled extinct: p=0.45 survives about 0.2% of trials, and reading it as
# surviving takes 5 of 100 (odds near 1e-5 a seed).
T_SCAN, N_SCAN, SCAN_THRESHOLD = 200, 100, 0.05
P_GRID = (0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70)

# Survived counts of this library at DEFAULT_SEED, recorded before any
# rewrite of the step loop: every (base_seed, trial) stream is fixed, so a
# correct rewrite reproduces them exactly.
GOLDEN_EST = 141
GOLDEN_SCAN = (0, 1, 7, 38, 58, 72, 82)


def point_seed(base_seed: int, index: int) -> int:
    """Base seed of scan point `index`, derived the way scan_critical does."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def draw_streams(base_seed: int, trials: int, horizon: int):
    """Draw every trial's uniforms from its Philox stream, as the estimator
    does for a one-site seed set."""
    total = horizon + horizon * (horizon + 1) // 2
    for trial in range(trials):
        key = np.array([base_seed, trial], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).random(total)


class DKMonteCarlo(Workload):
    """Step-bound survival trials at p=0.8, q=1, T=300 against a q=1 critical
    scan whose subcritical trials die early, so up-front Philox draws
    dominate them.  One worker process."""

    name = "dk-mc"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.tables = {"dk": iz.dk_local_operator(iz.DKParams(P_EST, 1.0))}
        self.first_counts = None
        self.cli_out = [outdir / "dk-survive.json", outdir / "dk-scan.csv"]
        self.cli_argvs = [
            ["dk", "survive", "--p", "0.8", "--q", "1", "--horizon", "300", "--trials", "200",
             "--seed", str(seed), "--threads", "1", "--out", str(self.cli_out[0])],
            ["dk", "scan", "--q", "1", "--p-from", "0.40", "--p-to", "0.70", "--p-step", "0.05",
             "--eps", "0.02", "--trials", "200", "--seed", str(seed), "--threads", "1",
             "--out", str(self.cli_out[1])],
        ]

    def warm(self):
        super().warm()
        iz.estimate_survival(iz.DKParams(P_EST, 1.0), (0,), 10, 4, base_seed=self.seed)

    def job(self, tr):
        with tr.span("dk.estimate_survival", trials=N_EST) as c:
            est = iz.estimate_survival(iz.DKParams(P_EST, 1.0), (0,), T_EST, N_EST,
                                       base_seed=self.seed, workers=1)
            c["survived"] = est.survived
        with tr.span("serialize.survival_json") as c:
            c["bytes"] = len(serialize.survival_json(est, {"model": "dk"}))
        with tr.span("dk.scan_critical", points=len(P_GRID)) as c:
            scan = iz.scan_critical(1.0, P_GRID, T_SCAN, N_SCAN, SCAN_THRESHOLD,
                                    base_seed=self.seed, workers=1)
            c["survived"] = sum(pt.survived for pt in scan.points)
        with tr.span("serialize.scan_csv") as c:
            c["bytes"] = len(serialize.scan_csv(scan, {"model": "dk"}))
        return {"est": est, "scan": scan}

    def check_job(self, out):
        est, scan = out["est"], out["scan"]
        rho = iz.rho_q1_closed(P_EST)
        counts = (est.survived, tuple(pt.survived for pt in scan.points))
        if self.first_counts is None:
            self.first_counts = counts
        checks = [
            # six binomial standard deviations at the closed-form value; the
            # finite-horizon bias at T=300 is far below that
            within("q1_estimate_vs_rho_closed", abs(est.estimate - rho),
                   6 * math.sqrt(rho * (1 - rho) / N_EST)),
            Check("scan_brackets_0.5", scan.bracket[0] <= 0.5 <= scan.bracket[1],
                  "bracket %r" % (scan.bracket,)),
            same("counts_repeat_within_run", counts, self.first_counts),
        ]
        if self.seed == DEFAULT_SEED:
            checks.append(same("golden_survived_counts", counts, (GOLDEN_EST, GOLDEN_SCAN)))
        return checks

    def check_once(self):
        slice_ = [iz.estimate_survival(iz.DKParams(0.7, 1.0), (0,), 100, 64,
                                       base_seed=self.seed, workers=w).survived for w in (1, 2)]
        full = iz.estimate_survival(iz.DKParams(1.0, 1.0), (0,), 50, 32, base_seed=self.seed)
        return ([same("workers_1_vs_2", slice_[1], slice_[0]),
                 same("p_q_1_survives_all", full.survived, 32)]
                + cli_bytes_checks("dk-survive", self.cli_argvs[0], self.cli_out[:1])
                + cli_bytes_checks("dk-scan", self.cli_argvs[1], self.cli_out[1:]))

    def rng_floor(self) -> float:
        """Seconds to draw the job's Philox streams alone, with no stepping."""
        t0 = perf_counter()
        draw_streams(self.seed, N_EST, T_EST)
        for i in range(len(P_GRID)):
            draw_streams(point_seed(self.seed, i), N_SCAN, T_SCAN)
        return perf_counter() - t0


WORKLOADS = {w.name: w for w in (Spectrum, ZetaDeep, SweepWide, DKMonteCarlo)}
