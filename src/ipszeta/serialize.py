"""File formats: operator JSON, spectrum/histogram/coefficient CSV, reports.

Each format has one writer.  `_csv` lays out every CSV: '# key=value'
metadata lines, the header row, then the data rows.  `dump_json` writes
every JSON payload through `json.dumps`, with `_plain` turning complex
numbers into [re, im] and numpy values into Python ones.  All floats are
written with repr, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .operators import LocalOperator, _check_budget, make_local_operator


def _fmt(x) -> str:
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    return repr(x)


def _plain(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, default=_plain) + "\n"


# --- operator JSON ----------------------------------------------------------


def operator_to_json(local: LocalOperator, n_sites: int, label: str | None = None) -> str:
    _check_budget(n_sites)  # refuses n < 1; the file holds no operator
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
        n_sites, flat = doc["n"], doc["local"]["a_kl_ij"]
        if type(n_sites) is not int:  # not 2.7, true or "4"
            raise TypeError("\"n\" is %r" % (n_sites,))
        m = np.array([complex(re, im) for re, im in flat], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("operator JSON needs an integer \"n\" and local.a_kl_ij as "
                         "[re, im] pairs: %s: %s" % (type(exc).__name__, exc)) from exc
    if m.shape != (16,):
        raise ValueError("a_kl_ij needs 16 [re, im] entries, got %d" % len(m))
    _check_budget(n_sites)
    return n_sites, make_local_operator(m.reshape(4, 4), label=doc.get("label") or None)


# --- CSV writers ------------------------------------------------------------


def _csv(meta: dict, header: str, rows) -> str:
    return "\n".join([*("# %s=%s" % kv for kv in meta.items()), header, *rows]) + "\n"


def spectrum_csv(spec, meta: dict) -> str:
    return _csv(meta, "re,im,multiplicity", (
        "%r,%r,%d" % (v.real, v.imag, m)
        for v, m in zip(spec.values.tolist(), spec.multiplicities.tolist())))


def histogram_csv(grid, meta: dict) -> str:
    meta = {**meta, "bin_size": _fmt(grid.bin_size), "low": _fmt(grid.low),
            "high": _fmt(grid.high), "n_bins": grid.n_bins, "overflow": grid.overflow,
            "total": grid.total}
    # argwhere visits the nonzero bins in the C order of the nested loop
    return _csv(meta, "re_low,im_low,count", (
        "%s,%s,%d" % (_fmt(grid.low + ix * grid.bin_size), _fmt(grid.low + iy * grid.bin_size),
                      grid.counts[ix, iy])
        for ix, iy in np.argwhere(grid.counts).tolist()))


def coefficients_csv(coeffs, meta: dict) -> str:
    return _csv(meta, "r,C_r_re,C_r_im", (
        "%d,%r,%r" % (r, c.real, c.imag)
        for r, c in enumerate(np.asarray(coeffs, dtype=complex).tolist(), start=1)))


def dense_csv(matrix, meta: dict) -> str:
    """Nonzero entries of a dense matrix as 'row,col,re,im'."""
    a = np.asarray(matrix, dtype=complex)
    rows, cols = np.nonzero(a)
    return _csv(meta, "row,col,re,im", (
        "%d,%d,%r,%r" % (r, c, z.real, z.imag)
        for r, c, z in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())))


def scan_csv(result, meta: dict) -> str:
    meta = {**meta, "q": _fmt(result.q), "threshold": _fmt(result.threshold),
            "bracket_low": _fmt(result.bracket[0]), "bracket_high": _fmt(result.bracket[1])}
    return _csv(meta, "p,estimate,ci_lo,ci_hi,label", (
        "%s,%s,%s,%s,%s" % (_fmt(pt.p), _fmt(pt.estimate), _fmt(pt.ci[0]), _fmt(pt.ci[1]), label)
        for pt, label in zip(result.points, result.labels)))


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
