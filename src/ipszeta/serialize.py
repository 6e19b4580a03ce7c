"""File formats: operator JSON, spectrum/histogram/coefficient CSV, reports.

CSV files carry '# key=value' metadata lines before the header row.  All
numbers are written with repr so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .operators import LocalOperator, _check_budget, make_local_operator


def _fmt(x) -> str:
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    return repr(x)


def meta_lines(meta: dict) -> list[str]:
    return ["# %s=%s" % (k, v) for k, v in meta.items()]


def _jsonable(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def dump_json(obj: dict) -> str:
    return json.dumps(_jsonable(obj), indent=2) + "\n"


# --- operator JSON ----------------------------------------------------------


def operator_to_json(local: LocalOperator, n_sites: int, label: str | None = None) -> str:
    _check_budget(n_sites, 0)  # refuses n < 1; the file holds no operator
    flat = [[z.real, z.imag] for z in local.matrix.ravel()]
    return dump_json({
        "n": n_sites,
        "local": {"a_kl_ij": flat},
        "label": label if label is not None else (local.label or ""),
    })


def operator_from_json(text: str):
    """Returns (n_sites, local operator); validates keys, shape, n >= 1 and
    sparsity.  Raises ValueError for a missing key or a malformed table."""
    doc = json.loads(text)
    try:
        n_sites, flat = int(doc["n"]), doc["local"]["a_kl_ij"]
        m = np.array([complex(re, im) for re, im in flat], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("operator JSON needs an integer \"n\" and local.a_kl_ij as "
                         "[re, im] pairs: %s: %s" % (type(exc).__name__, exc)) from exc
    if m.shape != (16,):
        raise ValueError("a_kl_ij needs 16 [re, im] entries, got %d" % len(m))
    _check_budget(n_sites, 0)
    return n_sites, make_local_operator(m.reshape(4, 4), label=doc.get("label") or None)


# --- CSV writers ------------------------------------------------------------


def spectrum_csv(spec, meta: dict) -> str:
    lines = meta_lines(meta) + ["re,im,multiplicity"]
    for v, m in zip(spec.values, spec.multiplicities):
        lines.append("%s,%s,%d" % (_fmt(v.real), _fmt(v.imag), m))
    return "\n".join(lines) + "\n"


def histogram_csv(grid, meta: dict) -> str:
    full = dict(meta)
    full.update({
        "bin_size": _fmt(grid.bin_size),
        "low": _fmt(grid.low),
        "high": _fmt(grid.high),
        "n_bins": grid.n_bins,
        "overflow": grid.overflow,
        "total": grid.total,
    })
    lines = meta_lines(full) + ["re_low,im_low,count"]
    # argwhere visits the nonzero bins in the C order of the nested loop
    for ix, iy in np.argwhere(grid.counts).tolist():
        lines.append("%s,%s,%d" % (_fmt(grid.low + ix * grid.bin_size),
                                   _fmt(grid.low + iy * grid.bin_size), grid.counts[ix, iy]))
    return "\n".join(lines) + "\n"


def coefficients_csv(coeffs, meta: dict) -> str:
    lines = meta_lines(meta) + ["r,C_r_re,C_r_im"]
    for r, c in enumerate(np.asarray(coeffs, dtype=complex), start=1):
        lines.append("%d,%s,%s" % (r, _fmt(c.real), _fmt(c.imag)))
    return "\n".join(lines) + "\n"


def dense_csv(matrix, meta: dict) -> str:
    """Nonzero entries of a dense matrix as 'row,col,re,im'."""
    a = np.asarray(matrix, dtype=complex)
    lines = meta_lines(meta) + ["row,col,re,im"]
    rows, cols = np.nonzero(a)
    for r, c in zip(rows, cols):
        z = a[r, c]
        lines.append("%d,%d,%s,%s" % (r, c, _fmt(z.real), _fmt(z.imag)))
    return "\n".join(lines) + "\n"


def scan_csv(result, meta: dict) -> str:
    full = dict(meta)
    full.update({
        "q": _fmt(result.q),
        "threshold": _fmt(result.threshold),
        "bracket_low": _fmt(result.bracket[0]),
        "bracket_high": _fmt(result.bracket[1]),
    })
    lines = meta_lines(full) + ["p,estimate,ci_lo,ci_hi,label"]
    for pt, label in zip(result.points, result.labels):
        lines.append("%s,%s,%s,%s,%s" % (_fmt(pt.p), _fmt(pt.estimate),
                                         _fmt(pt.ci[0]), _fmt(pt.ci[1]), label))
    return "\n".join(lines) + "\n"


# --- JSON payloads ----------------------------------------------------------


def zeta_eval_json(n_sites: int, u: complex, log_zeta: complex, zeta_value: complex,
                   truncation_bound, meta: dict) -> str:
    return dump_json({
        "meta": meta,
        "n": n_sites,
        "u": u,
        "log_zeta": log_zeta,
        "zeta": zeta_value,
        "truncation_bound": truncation_bound,
    })


def report_json(report, meta: dict) -> str:
    return dump_json({
        "claim": report.claim,
        "n": report.n_sites,
        "tol": report.tol,
        "pass": report.passed,
        "worst_residual": report.worst_residual,
        "details": report.details,
        "meta": meta,
    })


def survival_json(est, meta: dict) -> str:
    return dump_json({
        "meta": meta,
        "p": est.p,
        "q": est.q,
        "A": list(est.seed_set),
        "T": est.horizon,
        "trials": est.trials,
        "seed": est.seed,
        "survived": est.survived,
        "estimate": est.estimate,
        "ci": [est.ci[0], est.ci[1]],
    })
