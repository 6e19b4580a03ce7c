"""The paper's identities as one registry: each claim with the domain where it
is proven, its numerical check and its default tolerance.

`verify_claim` runs a claim's check on every table, in or out of the domain,
and returns one `VerificationReport` with a row per table.  A table outside
the domain makes the report's `passed` None, never False: the identity is not
asserted there, so its residual says nothing against it.  The residuals of
such tables are still reported, since negative controls rest on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParamOutOfRange
from .operators import (
    LocalOperator,
    _check_budget,
    _recursion_step,
    build_global_kronecker,
    build_global_recursive,
    qca_rotation_local,
)
from .spectral import (
    SpectrumMultiset,
    _check_eig_dim,
    _derived_halves,
    _spectrum_eigvals,
    _unit_sums,
    block_certificate,
    eig_dense,
    match_multisets,
    shift_coefficients,
    t_case_spectrum,
    trace_closed_form,
    trace_path_sum,
)
from .zeta import _swept_coefficients, power_trace_coefficients, t_case_c_r

# How far a table may sit from a domain's defining equalities (equal shifts,
# the rotation form) and still count as inside it; unit column sums are
# tested by `spectral._unit_sums` at the same 1e-12.
_DOMAIN_TOL = 1e-12


@dataclass
class VerificationReport:
    """Outcome of a named claim on a set of tables; `passed` is None when a
    table lies outside the claim's domain."""

    claim: str
    n_sites: int
    tol: float
    passed: bool | None
    worst_residual: float
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Claim:
    """A named identity: the domain where it is proven (described, and as a
    predicate on the local table), its check and its default tolerance.

    The check maps (table, n_sites, r_max) to a residual and a dict of
    float64 side measures, aggregated over tables by their maximum.
    """

    domain: str
    in_domain: Callable[[LocalOperator], bool]
    check: Callable[[LocalOperator, int, int], tuple[float, dict]]
    tol: float


# --- domains ----------------------------------------------------------------


def _every_table(local: LocalOperator) -> bool:
    return True


def _t_family(local: LocalOperator) -> bool:
    t0, t1 = shift_coefficients(local)
    return _unit_sums(local) and abs(t0 - t1) <= _DOMAIN_TOL


def _derivable(local: LocalOperator) -> bool:
    return any(_derived_halves(local))


def _rotation_angle(local: LocalOperator) -> float:
    return math.atan2(local.matrix[2, 0].real, local.matrix[0, 0].real)


def _rotation(local: LocalOperator) -> bool:
    want = qca_rotation_local(_rotation_angle(local)).matrix
    return float(np.abs(local.matrix - want).max()) <= _DOMAIN_TOL


# --- checks -----------------------------------------------------------------


def _check_build(local: LocalOperator, n_sites: int, r_max: int):
    """Kronecker against recursive build, relative to max(1, max|Q|).  The
    difference is formed in place, so the peak is the recursive build's
    1.25 dense operators plus the Kronecker result."""
    a = build_global_kronecker(local, n_sites).dense
    scale = max(1.0, float(np.abs(a).max()))
    a -= build_global_recursive(local, n_sites).dense
    return float(np.abs(a).max()) / scale, {}


def _check_block_sums(local: LocalOperator, n_sites: int, r_max: int):
    """E+G = Q_{n-1} D_0 and F+H = Q_{n-1} D_1, where D_i is diagonal over
    the top bit l of the (n-1)-site index with column sum 2i+l of the table;
    with unit column sums also the literal E+G = F+H = Q_{n-1}.  Q_n is
    dropped once its two quadrant sums are formed.  Charged up front:
    Q_{n-1}, Q_n and the two sums, 1.75 operators of Q_n."""
    if n_sites < 2:
        raise ParamOutOfRange("block-sums needs n >= 2")
    _check_budget(n_sites, operators=1.75)
    prev = build_global_recursive(local, n_sites - 1).dense
    big = _recursion_step(local, prev)
    h = prev.shape[0]
    eg, fh = big[:h, :h] + big[h:, :h], big[:h, h:] + big[h:, h:]
    del big
    sums = local.column_sums()
    half = 1 << (n_sites - 2)
    pairs = [(eg, prev * np.repeat(sums[:2], half)), (fh, prev * np.repeat(sums[2:], half))]
    if _unit_sums(local):
        pairs += [(eg, prev), (fh, prev)]
    scale = max(1.0, float(np.abs(prev).max()))
    return max(float(np.abs(x - y).max()) for x, y in pairs) / scale, {}


def _check_traces(local: LocalOperator, n_sites: int, r_max: int):
    """Path sum and closed form against the swept trace, relative to
    max(1, |tr Q|)."""
    swept = _swept_coefficients(local, n_sites, 1)[0] * (1 << n_sites)
    diff = max(abs(trace_path_sum(local, n_sites) - swept),
               abs(trace_closed_form(local, n_sites) - swept))
    return diff / max(1.0, abs(swept)), {}


def _trace_error(local: LocalOperator, n_sites: int, r_max: int) -> float:
    """C_1..C_rmax from `power_trace_coefficients` against the paired
    sweep's, relative to max(1, |C_r|) of the latter."""
    swept = _swept_coefficients(local, n_sites, r_max)
    error = np.abs(power_trace_coefficients(local, n_sites, r_max) - swept)
    return float((error / np.maximum(1.0, np.abs(swept))).max())


def _check_spectral_recursion(local: LocalOperator, n_sites: int, r_max: int):
    """Spec(Q_{n+1}) = Spec(Q_n) united with Spec(Q_n D), D the diagonal of
    the two column-block shifts over the halves of the index space.

    Decided by `block_certificate`: matching computed eigenvalues one by one
    is ill-posed when the spectra are (near-)defective, where a Jordan block
    of size m scatters its eigenvalue by about eps^(1/m).  The matched
    eigenvalue distance is kept for reference.  Side measure `trace_error`:
    C_1..C_rmax of Q_(n+1) from `power_trace_coefficients`, which takes them
    from the certified blocks, against the paired sweep (see `_trace_error`).
    """
    _check_eig_dim(n_sites + 1)
    qn = build_global_recursive(local, n_sites).dense
    qn1 = _recursion_step(local, qn)
    d = np.repeat(shift_coefficients(local), 1 << (n_sites - 1))
    lhs = eig_dense(qn1)
    a, b = eig_dense(qn), eig_dense(qn * d)
    rhs = SpectrumMultiset.from_pairs(np.concatenate([a.values, b.values]),
                                      np.concatenate([a.multiplicities, b.multiplicities]),
                                      lhs.source_dim)
    return block_certificate(qn1, qn, d), {
        "eigenvalue_distance": match_multisets(lhs, rhs, 0.0)[1],
        "trace_error": _trace_error(local, n_sites + 1, r_max)}


def _check_t_family(local: LocalOperator, n_sites: int, r_max: int):
    """The block certificate at every size 2..n with the shift t of the first
    column block: with Q_1 = I it proves both closed forms exactly.  The
    eigenvalue distance and the coefficient error are float64 evaluations of
    the same claim, which defective spectra and transient growth of Q^r can
    swamp."""
    t = shift_coefficients(local)[0]
    _check_eig_dim(n_sites)
    residuals = []
    q = build_global_recursive(local, 1).dense
    for _ in range(n_sites - 1):
        big = _recursion_step(local, q)
        residuals.append(block_certificate(big, q, t))
        q = big
    distance = match_multisets(eig_dense(q), t_case_spectrum(t, n_sites), 0.0)[1]
    coeffs = _swept_coefficients(local, n_sites, r_max)
    error = max(abs(coeffs[r - 1] - t_case_c_r(t, n_sites, r)) for r in range(1, r_max + 1))
    return max(residuals, default=0.0), {"eigenvalue_distance": distance,
                                         "coefficient_error": error}


def _check_derived_halves(local: LocalOperator, n_sites: int, r_max: int):
    """Power sums r = 1..r_max of the eigenvalues `spectrum` derives from
    the half tables against those of `eig_dense` on the dense Q_n, relative
    to max(1, sum |lambda|^r) of the latter.  Side measure `trace_error`:
    the coefficients `power_trace_coefficients` derives from the half
    tables against the paired sweep (see `_trace_error`)."""
    _check_eig_dim(n_sites)
    got = _spectrum_eigvals(local, n_sites)
    want = eig_dense(build_global_recursive(local, n_sites).dense)
    r = np.arange(1, r_max + 1)[:, None]
    diff = np.abs((got ** r).sum(axis=1) - (want.multiplicities * want.values ** r).sum(axis=1))
    scale = np.maximum(1.0, (want.multiplicities * np.abs(want.values) ** r).sum(axis=1))
    return float((diff / scale).max()), {"trace_error": _trace_error(local, n_sites, r_max)}


def _check_rotation(local: LocalOperator, n_sites: int, r_max: int):
    """C_r = (cos r xi)^(n-1) for r = 1..r_max from the paired sweep,
    absolute error."""
    coeffs = _swept_coefficients(local, n_sites, r_max)
    r = np.arange(1, r_max + 1)
    return float(np.abs(coeffs - np.cos(r * _rotation_angle(local)) ** (n_sites - 1)).max()), {}


_UNIT_SUMS = "unit column sums"

CLAIMS: dict[str, Claim] = {
    "build-recursion": Claim("every table", _every_table, _check_build, 1e-12),
    "block-sums": Claim("every table", _every_table, _check_block_sums, 1e-12),
    "trace-formulas": Claim("every table", _every_table, _check_traces, 1e-10),
    "spectral-recursion": Claim(_UNIT_SUMS, _unit_sums, _check_spectral_recursion, 1e-7),
    "t-family": Claim(_UNIT_SUMS + " with equal column-block shifts", _t_family,
                      _check_t_family, 1e-7),
    "derived-halves": Claim("a half table with an exact zero off its diagonal, or equal half "
                            "tables", _derivable, _check_derived_halves, 1e-10),
    "qca-rotation": Claim("the rotation table", _rotation, _check_rotation, 1e-9),
}


def verify_claim(name: str, tables, n_sites: int, tol: float | None = None,
                 r_max: int = 30) -> VerificationReport:
    """Check the named claim on every table at n_sites.

    `worst_residual` is the largest residual over all tables.  `details`
    holds the count, the domain, the maxima of the check's side measures and
    `cases`, one row per table with its residual and whether it lies in the
    domain.  If any table lies outside, `passed` is None and
    `details["reason"]` says so; otherwise `passed` is worst_residual <= tol.
    A `tol` that is not a finite number >= 0, an `r_max` below 1 and an
    empty table list are refused before any check runs, for every claim.
    """
    claim = CLAIMS[name]
    tol = claim.tol if tol is None else tol
    if not (math.isfinite(tol) and tol >= 0):
        raise ParamOutOfRange("tol=%r must be a finite number >= 0" % (tol,))
    if r_max < 1:
        raise ParamOutOfRange("r_max=%r must be at least 1" % (r_max,))
    cases, measures = [], {}
    for local in tables:
        inside = claim.in_domain(local)
        residual, more = claim.check(local, n_sites, r_max)
        cases.append({"residual": residual, "in_domain": inside})
        for key, value in more.items():
            measures[key] = max(measures.get(key, 0.0), value)
    if not cases:
        raise ParamOutOfRange("verify %s needs at least one table" % name)
    worst = max(case["residual"] for case in cases)
    details = {"count": len(cases), "domain": claim.domain, **measures}
    outside = sum(not case["in_domain"] for case in cases)
    if outside:
        details["reason"] = "out of domain: %d of %d tables outside the domain (%s)" % (
            outside, len(cases), claim.domain)
    details["cases"] = cases
    return VerificationReport(name, n_sites, tol, None if outside else worst <= tol,
                              worst, details)
