"""Command-line interface.

Subcommands: op build, spectrum, zeta, verify <claim>, dk survive, dk scan.
Outputs are deterministic for a fixed argument list (seeds default to 0 and
metadata carries no timestamps).  Exit codes: 0 success; 1 failed claim, a
claim given a table outside its domain (report "pass": null with a reason),
or no bracket; 2 usage or parameter error, including a table whose float64
arithmetic overflows or turns invalid (every command runs with numpy's
overflow and invalid-value errors raised); 3 size cap (the byte budget, the
histogram grid under it, or the eigensolver cap checked before the dense
build) or convergence failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .claims import CLAIMS, verify_claim
from .dk import RNG_NAME, DKParams, dk_local_operator, estimate_survival, scan_critical
from .errors import IpsZetaError, NoBracket, NoConvergence, ParamOutOfRange, SizeCapExceeded
from .operators import (
    LocalOperator,
    _charge,
    build_global_kronecker,
    identity_local,
    qca_rotation_local,
    random_local_operator,
)
from .serialize import (
    coefficients_csv,
    dense_csv,
    histogram_csv,
    operator_from_json,
    operator_to_json,
    report_json,
    scan_csv,
    spectrum_csv,
    survival_json,
    zeta_eval_json,
)
from .spectral import _histogram_bins, histogram, spectrum
from .zeta import zeta_log_series

# Exit code by error type; every other error caught by `main` is a usage or
# parameter error (2), FloatingPointError included.
_EXIT_CODES = {SizeCapExceeded: 3, NoConvergence: 3, NoBracket: 1}


def _parse_complex(text: str) -> complex:
    """A finite complex number from "x", "x+yj" or "x,y"."""
    if "," in text:
        re_s, im_s = text.split(",", 1)
        z = complex(float(re_s), float(im_s))
    else:
        z = complex(text.replace(" ", ""))
    if not np.isfinite(z):
        raise ValueError("--u %r is not a finite number" % (text,))
    return z


def _write(out: str | None, text: str):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _resolve_local(args, parser) -> tuple[LocalOperator, int, str]:
    """Local operator, site count and label from the model flags."""
    n = args.n
    model = getattr(args, "model", None)
    if model == "dk":
        if args.p is None or args.q is None:
            parser.error("--model dk needs --p and --q")
        local = dk_local_operator(DKParams(args.p, args.q))
    elif model == "qca":
        if args.xi is None:
            parser.error("--model qca needs --xi")
        local = qca_rotation_local(args.xi)
    elif model == "custom":
        if args.file is None:
            parser.error("--model custom needs --file")
        file_n, local = operator_from_json(Path(args.file).read_text())
        if n is None:
            n = file_n
    else:
        if n == 1:
            local = identity_local()
        else:
            parser.error("--model is required for n > 1")
    if n is None:
        parser.error("--n is required")
    return local, n, local.label or "custom"


def _base_meta(command: str, label: str, n: int | None = None, seed: int | None = None) -> dict:
    meta = {"tool": "ipszeta", "version": __version__, "command": command, "model": label}
    if n is not None:
        meta["n"] = n
    if seed is not None:
        meta["seed"] = seed
    return meta


# --- subcommand handlers ----------------------------------------------------


def cmd_op_build(args, parser) -> int:
    local, n, label = _resolve_local(args, parser)
    if args.format == "json":
        _write(args.out, operator_to_json(local, n, label=label))
    else:
        g = build_global_kronecker(local, n)
        _write(args.out, dense_csv(g.dense, _base_meta("op build", label, n)))
    return 0


def cmd_spectrum(args, parser) -> int:
    local, n, label = _resolve_local(args, parser)
    if args.hist:
        _histogram_bins(args.bin)
    spec = spectrum(local, n)
    _write(args.out, spectrum_csv(spec, _base_meta("spectrum", label, n)))
    if args.hist:
        _write(args.hist, histogram_csv(histogram(spec, args.bin),
                                        _base_meta("spectrum --hist", label, n)))
    return 0


def cmd_zeta(args, parser) -> int:
    local, n, label = _resolve_local(args, parser)
    meta = _base_meta("zeta", label, n)
    meta["r_max"] = args.rmax
    u = None if args.u is None else _parse_complex(args.u)
    series = zeta_log_series(local, n, args.rmax)
    if u is not None:
        bound = series.truncation_bound(u)
        if bound is None:
            raise ParamOutOfRange("--u %s lies outside the disk |u| < %r, where the truncated "
                                  "series has a certified tail bound" % (args.u, series.radius_hint))
        log_z = series.evaluate(u)
        _write(args.out, zeta_eval_json(n, u, log_z, np.exp(log_z), bound, meta))
    else:
        _write(args.out, coefficients_csv(series.coefficients, meta))
    return 0


def cmd_verify(args, parser) -> int:
    if args.random:
        if args.n is None:
            parser.error("--n is required")
        rng = np.random.default_rng(args.seed)
        tables = [random_local_operator(args.random, rng) for _ in range(args.trials)]
        n, label = args.n, "random-%s" % args.random
    else:
        if args.claim == "qca-rotation" and args.model is None:
            args.model = "qca"
        local, n, label = _resolve_local(args, parser)
        tables = [local]
    report = verify_claim(args.claim, tables, n, tol=args.tol, r_max=args.rmax)
    report.details = {"family": label, "seed": args.seed, **report.details}
    _write(args.out, report_json(report, _base_meta("verify %s" % args.claim, label, n,
                                                    args.seed)))
    return 0 if report.passed else 1


def cmd_dk_survive(args, parser) -> int:
    params = DKParams(args.p, args.q)
    seed_set = tuple(int(x) for x in args.a.split(","))
    est = estimate_survival(params, seed_set, args.horizon, args.trials,
                            base_seed=args.seed, workers=args.threads)
    meta = _base_meta("dk survive", "dk(p=%g, q=%g)" % (args.p, args.q), seed=args.seed)
    meta["rng"] = RNG_NAME
    _write(args.out, survival_json(est, meta))
    return 0


def cmd_dk_scan(args, parser) -> int:
    if args.p_grid:
        grid = [float(x) for x in args.p_grid.split(",")]
    else:
        if args.p_from is None or args.p_to is None:
            parser.error("give either --p-grid or --p-from/--p-to/--p-step")
        if not (np.isfinite([args.p_from, args.p_to]).all() and 0 < args.p_step < np.inf):
            parser.error("--p-from and --p-to must be finite, --p-step positive and finite")
        stop = args.p_to + args.p_step / 2
        points = np.ceil((stop - args.p_from) / args.p_step)
        # a whole scan, traced: grid, estimates and CSV text, <= 760 B a point
        _charge(800 * points, "a scan of %g points" % points)
        grid = np.round(np.arange(args.p_from, stop, args.p_step), 12).tolist()
    result = scan_critical(args.q, grid, args.horizon, args.trials,
                           threshold=args.eps, base_seed=args.seed, workers=args.threads)
    meta = _base_meta("dk scan", "dk(q=%g)" % args.q, seed=args.seed)
    meta["rng"] = RNG_NAME
    meta["horizon"] = args.horizon
    meta["trials"] = args.trials
    _write(args.out, scan_csv(result, meta))
    return 0


# --- parser -----------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", choices=("dk", "qca", "custom"))
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--xi", type=float)
    p.add_argument("--file")
    p.add_argument("--n", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipszeta",
        description="Operators, spectra and zeta functions of nearest-neighbour "
                    "interacting particle systems; Domany-Kinzel Monte Carlo.")
    parser.add_argument("--version", action="version", version="ipszeta %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_op = sub.add_parser("op", help="operator construction")
    sub_op = p_op.add_subparsers(dest="op_command", required=True)
    p_build = sub_op.add_parser("build", help="build and export an operator")
    _add_model_flags(p_build)
    p_build.add_argument("--format", choices=("json", "csv"), default="json")
    p_build.add_argument("--out")
    p_build.set_defaults(func=cmd_op_build)

    p_spec = sub.add_parser("spectrum", help="dense spectrum and histogram export")
    _add_model_flags(p_spec)
    p_spec.add_argument("--out")
    p_spec.add_argument("--hist", help="also write a histogram CSV to this path")
    p_spec.add_argument("--bin", type=float, default=0.05)
    p_spec.set_defaults(func=cmd_spectrum)

    p_zeta = sub.add_parser("zeta", help="power-trace coefficients or zeta value")
    _add_model_flags(p_zeta)
    p_zeta.add_argument("--rmax", type=int, default=60)
    p_zeta.add_argument("--u", help="evaluation point, e.g. 0.5 or 0.3+0.1j or 0.3,0.1")
    p_zeta.add_argument("--out")
    p_zeta.set_defaults(func=cmd_zeta)

    p_ver = sub.add_parser("verify", help="check a named identity numerically")
    p_ver.add_argument("claim", choices=CLAIMS)
    _add_model_flags(p_ver)
    p_ver.add_argument("--random", choices=("pca", "qca", "general", "ca", "complex-stochastic"))
    p_ver.add_argument("--trials", type=int, default=50)
    p_ver.add_argument("--rmax", type=int, default=30)
    p_ver.add_argument("--tol", type=float)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=cmd_verify)

    p_dk = sub.add_parser("dk", help="Domany-Kinzel Monte Carlo")
    sub_dk = p_dk.add_subparsers(dest="dk_command", required=True)

    p_sv = sub_dk.add_parser("survive", help="survival probability estimate")
    p_sv.add_argument("--p", type=float, required=True)
    p_sv.add_argument("--q", type=float, required=True)
    p_sv.add_argument("--horizon", "--t", "-t", type=int, default=200)
    p_sv.add_argument("--trials", type=int, default=10000)
    p_sv.add_argument("--a", default="0", help="comma-separated seed sites")
    p_sv.add_argument("--seed", type=int, default=0)
    p_sv.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_sv.add_argument("--out")
    p_sv.set_defaults(func=cmd_dk_survive)

    p_sc = sub_dk.add_parser("scan", help="survival scan over p with bracket")
    p_sc.add_argument("--q", type=float, required=True)
    p_sc.add_argument("--p-grid", help="comma-separated p values")
    p_sc.add_argument("--p-from", type=float)
    p_sc.add_argument("--p-to", type=float)
    p_sc.add_argument("--p-step", type=float, default=0.05)
    p_sc.add_argument("--horizon", "--t", "-t", type=int, default=200)
    p_sc.add_argument("--trials", type=int, default=2000)
    p_sc.add_argument("--eps", type=float, default=0.02)
    p_sc.add_argument("--seed", type=int, default=0)
    p_sc.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_sc.add_argument("--out")
    p_sc.set_defaults(func=cmd_dk_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args, parser)
    except (IpsZetaError, ValueError, OSError, FloatingPointError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
