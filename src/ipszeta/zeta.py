"""Normalized power-trace zeta function of a global operator.

For an n-site operator Q the function is det(I - uQ)^(-1/2^n), represented
either by its log series sum_r C_r u^r / r with C_r = tr(Q^r)/2^n, or by the
determinant form evaluated from the spectrum with per-factor principal
logarithms.  With unit column sums the spectral recursion factors it as
det(I - uQ_n) = (1-u)^2 * prod_{m<n} det(I - u Q_m D_m).  The exponentiated
series is the canonical branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamOutOfRange, SingularFactor
from .operators import LocalOperator, _charge, _check_budget, _sweep_2d, _sweep_blocks
from .spectral import _spectrum_eigvals

# Bytes of basis columns swept together by default, in the sweep's dtype: a
# batch that stays near cache sweeps faster than one large pass.
_TRACE_BATCH_BYTES = 1 << 22


def _trace_sweeps(local: LocalOperator, n_sites: int, r_max: int,
                  with_norms: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """tr(Q^r) for r = 1..r_max, and ||Q^r||_1 if `with_norms`, by sweeping
    batches of paired basis columns.

    Q never moves the last site, the least significant bit of the index, so
    column j of a batch starts as e_(2j) + e_(2j+1) and its images stay
    apart: Q^r e_(2j) on the even rows, Q^r e_(2j+1) on the odd rows.  The
    trace takes entries (2j, j) and (2j+1, j) of each power, and the 1-norm
    (largest absolute column sum) is the largest even-row or odd-row sum
    over all batches, so no dense power is ever stored.  Each power is one
    sweep of ceil((n-1)/2) passes through Q_3 per batch, over 2^(n-1)
    columns in all; the table and Q_3 are built once for every power.  A
    table with zero imaginary part keeps real columns, since their
    imaginary part stays zero.  A batch holds `_TRACE_BATCH_BYTES` of
    columns.  The sweeps need a few MiB, but their time grows with half the
    4^n entries of each power, so they are admitted where the complex dense
    operator fits the byte budget.  The r_max-long traces and norms are
    charged on their own.
    """
    _check_budget(n_sites, 16 * 4 ** n_sites)
    if r_max < 1:
        raise ParamOutOfRange("need r_max >= 1")
    _charge(r_max * (24 if with_norms else 16), "r_max=%d" % r_max)
    dim = 1 << n_sites
    half = dim >> 1
    blocks = _sweep_blocks(local.matrix)
    dtype = blocks[0].dtype
    batch = max(1, min(half, _TRACE_BATCH_BYTES // (dim * dtype.itemsize)))
    traces = np.zeros(r_max, dtype=complex)
    norms = np.zeros(r_max) if with_norms else None
    for start in range(0, half, batch):
        cols = np.arange(start, min(start + batch, half))
        # row 2j + c of column j, as [j, c, j - start] of the (half, 2, width) view
        diag = (cols, slice(None), np.arange(len(cols)))
        states = np.zeros((dim, len(cols)), dtype=dtype)
        states.reshape(half, 2, -1)[diag] = 1.0
        for r in range(r_max):
            states = _sweep_2d(blocks, n_sites, states)
            paired = states.reshape(half, 2, -1)
            traces[r] += paired[diag].sum()
            if with_norms:
                norms[r] = max(norms[r], np.abs(paired).sum(axis=0).max())
    return traces, norms


def power_trace_coefficients(local: LocalOperator, n_sites: int, r_max: int) -> np.ndarray:
    """C_1..C_rmax with C_r = tr(Q^r)/2^n, by sweeping batches of paired
    basis columns e_(2j) + e_(2j+1), 2^(n-1) of them per power.

    The diagonal of each power is accumulated from matrix-free applications,
    so no dense power is ever stored.
    """
    traces, _ = _trace_sweeps(local, n_sites, r_max, with_norms=False)
    return traces / (1 << n_sites)


def c_r(local: LocalOperator, n_sites: int, r: int) -> complex:
    """Normalized power trace tr(Q^r)/2^n."""
    return complex(power_trace_coefficients(local, n_sites, r)[r - 1])


@dataclass(frozen=True, eq=False)
class ZetaSeries:
    """Truncated log-zeta series with a convergence-radius hint (1/rho-hat)."""

    coefficients: np.ndarray
    radius_hint: float

    @property
    def r_max(self) -> int:
        return len(self.coefficients)

    def evaluate(self, u: complex) -> complex:
        """log zeta at u from the truncated series."""
        r = np.arange(1, self.r_max + 1)
        return complex(np.sum(self.coefficients * np.power(complex(u), r) / r))

    def truncation_bound(self, u: complex) -> float | None:
        """Tail bound for the truncation, valid when |u| < radius_hint; None
        elsewhere, also for a radius hint of 0 (overflowing norms)."""
        if not abs(u) < self.radius_hint:
            return None
        x = abs(u) / self.radius_hint
        return x ** (self.r_max + 1) / ((self.r_max + 1) * (1.0 - x))


def _spectral_radius_bound(norms: np.ndarray, n_sites: int) -> float:
    """Certified upper bound min_k ||Q^k||_1^(1/k) on the spectral radius,
    from the computed 1-norms of Q, ..., Q^r_max.

    Each computed norm is raised by its first-order rounding allowance.  The
    sweep of a paired column makes k*ceil((n-1)/2) passes; its even and odd
    rows never mix, so the other parity adds only exact zero products.  A
    pass through Q_3 sums at most 4 nonzero products per output, each with
    one entry of Q_3, a single rounded product of two table entries: it
    errs by at most sqrt(2)(gamma_2 + gamma_6) < 6 eps relative to |Q_3|
    (unit roundoff eps/2), under the 16 eps allowed its two pair products,
    and a last pass by the table alone by under 8 eps.  So 8 eps k(n-1) still bounds the
    error relative to |Q|^k, and || |Q|^k ||_1 <= ||Q||_1^k; the computed
    ||Q||_1 itself is accurate, since every entry of Q is a single product
    of table entries.  A column sum runs over the even or the odd rows of a
    paired column, 2^(n-1) terms, and errs by at most 2^(n-1) eps relative;
    `grow` keeps the allowance of 2^n terms, which still bounds it.
    """
    eps = np.finfo(float).eps
    k = np.arange(1, len(norms) + 1)
    grow = 1.0 + ((1 << n_sites) + n_sites) * eps
    with np.errstate(over="ignore"):
        padded = norms * grow + 8 * eps * k * (n_sites - 1) * (norms[0] * grow) ** k
    return max(float((padded ** (1.0 / k)).min()), 1e-12)


def _column_sum_radius(local: LocalOperator, n_sites: int) -> float | None:
    """Certified rho-hat >= rho straight from the table, for a real
    nonnegative table whose column sums s agree to within the allowance
    A = 4 n eps: rho-hat = max s^(n-1) * (1 + A).  None for any other table,
    or for n < 1; 1 at n = 1, where Q is the identity.

    Every entry of Q is one product of table entries, so Q is nonnegative,
    and column x of Q sums to the product of s(x_j, x_(j+1)) over its n-1
    pairs: factor j moves site j by the pair (j, j+1), which no earlier
    factor has moved.  So ||Q||_1 <= max s^(n-1), and by Perron-Frobenius
    min s^(n-1) <= rho <= max s^(n-1).  With the sums equal to within A no
    norm ||Q^k||_1^(1/k) >= rho can tighten rho-hat by more than A, so the
    norm sweeps are skipped.  A bounds the rounding: a computed s is one sum
    of two nonnegative entries, within eps/2 relative of the true sum, so
    its (n-1)-st power is within (n-1) eps/2, and the power, the product by
    1 + A and the reciprocal taken as the radius hint err by a few eps/2
    more, together under A for every n >= 1.
    """
    if n_sites < 2:
        return 1.0 if n_sites == 1 else None
    a = local.matrix
    if a.imag.any() or (a.real < 0).any():
        return None
    allowance = 4 * n_sites * np.finfo(float).eps
    with np.errstate(over="ignore"):
        s = a.real.sum(axis=0)
        high, low = s.max() ** (n_sites - 1), s.min() ** (n_sites - 1)
        if high > low * (1 + allowance):
            return None
        return max(float(high * (1 + allowance)), 1e-12)


def zeta_log_series(local: LocalOperator, n_sites: int, r_max: int) -> ZetaSeries:
    """Log-zeta series to order r_max; its radius hint is 1/rho-hat with
    rho-hat >= rho certified.  A real nonnegative table with equal column
    sums (DK, PCA, CA) takes rho-hat from its column sums (see
    `_column_sum_radius`); any other table from the norms ||Q^k||_1 the
    sweeps produce (see `_spectral_radius_bound`)."""
    rho = _column_sum_radius(local, n_sites)
    traces, norms = _trace_sweeps(local, n_sites, r_max, with_norms=rho is None)
    if rho is None:
        rho = _spectral_radius_bound(norms, n_sites)
    return ZetaSeries(traces / (1 << n_sites), 1.0 / rho)


def _log_det(values, weights, u: complex) -> complex:
    """-sum w log(1 - lambda u) by principal logs, which continue the log
    series along [0, u]: there each factor 1 - s lambda u, s in [0, 1], moves
    straight from 1 and meets the cut (-inf, 0] only where lambda u is real
    and >= 1.  Raises SingularFactor when a computed factor lies on the cut."""
    factors = 1.0 - values * u
    if np.any((factors.imag == 0) & (factors.real <= 0)):
        raise SingularFactor("1 - lambda*u lies on (-inf, 0] at u = %r" % (u,))
    return complex(-np.sum(weights * np.log(factors)))


def zeta_det(local: LocalOperator, n_sites: int, u: complex) -> complex:
    """Zeta value from the determinant form, per-factor principal logs.

    The logs are summed over the unclustered eigenvalues behind
    `spectral.spectrum`, one per dimension: its last-site halves, derived
    from the other levels where a half table allows it and otherwise solved
    by their certified blocks, the eigensolver cap on 2^(n-2), or whole, the
    cap on 2^(n-1).  Skipping the clustering keeps the sum as sharp as the
    solves.  The branch is the continuation of the series along [0, u], at
    any |u| (see `_log_det`); SingularFactor is raised where some lambda u
    lies on [1, inf).
    """
    w = _spectrum_eigvals(local, n_sites)
    return complex(np.exp(_log_det(w, 1.0 / (1 << n_sites), complex(u))))


# --- closed forms on the shift-t family -------------------------------------


def t_case_c_r(t: complex, n_sites: int, r: int) -> complex:
    """Closed-form coefficient ((1 + t^r)/2)^(n-1) on the shift-t family."""
    if n_sites < 1 or r < 1:
        raise ParamOutOfRange("need n_sites >= 1 and r >= 1")
    return complex(((1.0 + complex(t) ** r) / 2.0) ** (n_sites - 1))


def t_case_log_zeta(t: complex, n_sites: int, u: complex) -> complex:
    """log zeta on the shift-t family: a binomial average of -log(1 - t^k u),
    on the branch of `zeta_det` (continuation of the series along [0, u])."""
    if n_sites < 1:
        raise ParamOutOfRange("need n_sites >= 1")
    weights = np.array([math.comb(n_sites - 1, k) for k in range(n_sites)],
                       dtype=float) / (1 << (n_sites - 1))
    powers = np.array([1.0 + 0j if k == 0 else complex(t) ** k for k in range(n_sites)])
    return _log_det(powers, weights, complex(u))
