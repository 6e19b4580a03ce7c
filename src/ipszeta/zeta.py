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
from .operators import (
    LocalOperator,
    _charge,
    _check_budget,
    _sweep_2d,
    _sweep_blocks,
    _sweep_table,
)
from .spectral import _derived_halves, _spectrum_eigvals

# Bytes of basis columns swept together by default, in the sweep's dtype: a
# batch that stays near cache sweeps faster than one large pass.
_TRACE_BATCH_BYTES = 1 << 22


def _admit_traces(n_sites: int, r_max: int, bytes_per_power: int):
    """Refuse power traces that `_trace_sweeps` would refuse, before
    allocating: n or r_max below 1, n beyond the byte budget of one complex
    dense operator, or r_max arrays of `bytes_per_power` bytes a power
    beyond it."""
    _check_budget(n_sites, 16 * 4 ** n_sites)
    if r_max < 1:
        raise ParamOutOfRange("need r_max >= 1")
    _charge(r_max * bytes_per_power, "r_max=%d" % r_max)


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
    columns in all, between two buffers, so it allocates no state; the table
    and Q_3 are built once for every power.  A table with zero imaginary
    part keeps real columns, since their imaginary part stays zero.  A
    batch holds `_TRACE_BATCH_BYTES` of columns.  The sweeps need a few
    MiB, but their time grows with half the 4^n entries of each power, so
    they are admitted where the complex dense operator fits the byte
    budget.  The r_max-long traces and norms are charged on their own.
    """
    _admit_traces(n_sites, r_max, 24 if with_norms else 16)
    dim = 1 << n_sites
    half = dim >> 1
    blocks = _sweep_blocks(local.matrix)
    dtype = blocks[0].dtype
    batch = max(1, min(half, _TRACE_BATCH_BYTES // (dim * dtype.itemsize)))
    traces = np.zeros(r_max, dtype=complex)
    norms = np.zeros(r_max) if with_norms else None
    for start in range(0, half, batch):
        cols = np.arange(start, min(start + batch, half))
        # flat index of entry (2j + c, j - start) of the (dim, width) batch
        width = len(cols)
        diag = (2 * cols[:, None] + np.arange(2)) * width + (cols - start)[:, None]
        states = np.zeros((dim, width), dtype=dtype)
        states.reshape(-1)[diag] = 1.0
        spare = np.empty_like(states)
        for r in range(r_max):
            if _sweep_2d(blocks, n_sites, states, spare) is spare:
                states, spare = spare, states
            traces[r] += states.take(diag).sum()
            if with_norms:
                norms[r] = max(norms[r], np.abs(states.reshape(half, 2, -1)).sum(axis=0).max())
    return traces, norms


def _split_sweeps(local: LocalOperator, n_sites: int, r_max: int, half: int) -> np.ndarray:
    """tr B_0(n-1)^r, tr B_1(n-1)^r and tr B_c(n)^r for r = 1..r_max and
    c = `half`, as the rows of a (3, r_max) array, by one sweep of each
    batch per power; n >= 2.

    On the 2^(n-1) rows whose last site is c, B_c(n) = (I (x) M_c) Q_(n-1):
    the pairs before (n-2, n-1) act as in Q_(n-1), and that last pair moves
    site n-2 alone, by M_c.  So a batch holds 2^(n-2)-wide groups of
    columns side by side on those rows: paired columns e_(2j) + e_(2j+1) of
    Q_(n-1), whose even and odd rows keep B_0(n-1) and B_1(n-1) apart as in
    `_trace_sweeps`, and basis columns e_j and e_(j+2^(n-2)) of B_c(n).
    `_sweep_2d` takes every column through the passes the two operators
    share, all through Q_3, over sites 0..f with f = n-3 for odd n and n-2
    for even n, as the (f+1)-site sweep of the batch's (2^(f+1), rest)
    view.  The last pass, from site f on, then takes the paired columns
    through Q_(n-1)'s own last block, the table or the identity, and the
    basis columns through rows and columns c of B_c(n)'s last block,
    Q_3[c::2, c::2] or M_c.  The work is three quarters of the paired sweep
    at level n, in one call of `_sweep_2d` per power; buffers and batches
    as in `_trace_sweeps`, and the r_max-long sums charged on their own.
    """
    _admit_traces(n_sites, r_max, 112)
    blocks = a, q3 = _sweep_blocks(local.matrix)
    dtype = a.dtype
    if n_sites % 2:  # the last pass covers sites n-3 and n-2
        tails = [a, np.ascontiguousarray(q3[half::2, half::2])]
    else:  # the last pass covers site n-2
        tails = [np.eye(2, dtype=dtype), np.ascontiguousarray(a[half::2, half::2])]
    size = len(tails[0])
    first = n_sites - size.bit_length()  # f, the site the last pass starts at
    rows = 1 << (n_sites - 1)
    quarter = rows >> 1
    batch = max(1, min(quarter, _TRACE_BATCH_BYTES // (3 * rows * dtype.itemsize)))
    sums = np.zeros((r_max, 4), dtype=complex)
    for start in range(0, quarter, batch):
        cols = np.arange(start, min(start + batch, quarter))
        width = len(cols)
        k = cols - start
        # flat indices of entries (2j, k) and (2j+1, k) of the paired group,
        # (j, width + k) and (j + 2^(n-2), 2 width + k) of the basis groups
        diag = np.stack([2 * cols * 3 * width + k, (2 * cols + 1) * 3 * width + k,
                         cols * 3 * width + width + k,
                         (cols + quarter) * 3 * width + 2 * width + k], axis=1)
        states = np.zeros((rows, 3 * width), dtype=dtype)
        states.reshape(-1)[diag] = 1.0
        spare = np.empty_like(states)
        shape = (1 << (first + 1), -1)
        for r in range(r_max):
            views = states.reshape(shape), spare.reshape(shape)
            if _sweep_2d(blocks, first + 1, *views) is views[1]:
                states, spare = spare, states
            x = states.reshape(1 << first, size, -1)
            y = spare.reshape(x.shape)
            for tail, part in zip(tails, (slice(0, width), slice(width, None))):
                np.matmul(tail, x[..., part], out=y[..., part])
            states, spare = spare, states
            sums[r] += states.take(diag).sum(axis=0)
    return np.stack([sums[:, 0], sums[:, 1], sums[:, 2] + sums[:, 3]])


def _swept_coefficients(local: LocalOperator, n_sites: int, r_max: int) -> np.ndarray:
    """C_1..C_rmax from the paired sweep of both halves alone, with no half
    derived; the reference the closed forms and the derived traces are
    checked against."""
    return _trace_sweeps(local, n_sites, r_max, with_norms=False)[0] / (1 << n_sites)


def _derived_weights(local: LocalOperator, r_max: int) -> list:
    """For each last-site half c, a (2, r_max) array W with
    tr B_c(m)^r = W[0, r-1] t_0(m-1) + W[1, r-1] t_1(m-1), t_i(m) = tr B_i(m)^r,
    wherever `spectral._derived_halves` derives b_c(m) from level m-1; else
    None.

    Both forms come from the powers of the half table M_c.  With an exact
    zero off its diagonal, b_c(m) = (M_c)_00 b_0(m-1) united with
    (M_c)_11 b_1(m-1), so W holds the diagonal of M_c^r, whose entries are
    exactly the products of M_c's, since the zero stays exact.  With equal
    half tables, b_c(m) = mu_0 b_c(m-1) united with mu_1 b_c(m-1), so
    W[c] = mu_0^r + mu_1^r = tr M_c^r: read from the powers, it is sharper
    than the sum of the eigenvalues' powers.  The powers are formed by
    doubling, M^(k+j) = M^k M^j, in about log2(r_max) batched products.
    """
    table = _sweep_table(local.matrix)
    out = []
    for c, terms in enumerate(_derived_halves(local)):
        if not terms:
            out.append(None)
            continue
        powers = np.empty((r_max, 2, 2), dtype=table.dtype)
        powers[0] = table[c::2, c::2]
        done = 1
        while done < r_max:
            more = min(done, r_max - done)
            np.matmul(powers[done - 1], powers[:more], out=powers[done:done + more])
            done += more
        w = np.zeros((2, r_max), dtype=complex)
        if terms[0][1] == terms[1][1]:  # equal half tables: both terms from half c
            w[c] = np.trace(powers, axis1=1, axis2=2)
        else:
            w[:] = np.diagonal(powers, axis1=1, axis2=2).T
        out.append(w)
    return out


def _power_traces(local: LocalOperator, n_sites: int, r_max: int) -> np.ndarray:
    """tr(Q^r) for r = 1..r_max from the last-site halves, t_0(n) + t_1(n)
    with t_c(n) = tr B_c(n)^r, by the recursion of
    `spectral._spectrum_eigvals`: a half that `_derived_weights` allows
    takes t_c(m) from t_0(m-1) and t_1(m-1).

    If both halves derive (the QCA rotation, DK at q = 1, 9 of the 16 CA
    rules and (NOT, NOT)), the recursion runs from t_c(1) = 1 to level n in
    O(n r_max), with no sweep.  If one half derives (every other DK table,
    whose vacant half M_0 is triangular), the other half is swept alone on
    its 2^(n-1) basis columns, and the derived half takes t_0(n-1) and
    t_1(n-1) from paired columns at level n-1 swept beside them (see
    `_split_sweeps`): together three quarters of the paired sweep at level
    n.  If neither derives, that paired sweep.  Checked as `_trace_sweeps`;
    the r_max-long arrays (the half tables' powers, the weights and the
    traces of each level) are charged at 256 bytes a power.
    """
    _admit_traces(n_sites, r_max, 256)
    weights = _derived_weights(local, r_max)
    if n_sites == 1 or all(w is not None for w in weights):
        t = np.ones((2, r_max), dtype=complex)
        for _ in range(n_sites - 1):
            t = np.stack([(w * t).sum(axis=0) for w in weights])
        return t.sum(axis=0)
    if all(w is None for w in weights):
        return _trace_sweeps(local, n_sites, r_max, with_norms=False)[0]
    c = 0 if weights[0] is None else 1  # the swept half
    t = _split_sweeps(local, n_sites, r_max, c)
    return t[2] + (weights[1 - c] * t[:2]).sum(axis=0)


def power_trace_coefficients(local: LocalOperator, n_sites: int, r_max: int) -> np.ndarray:
    """C_1..C_rmax with C_r = tr(Q^r)/2^n, from the last-site halves: a half
    derived from its half table by an O(n r_max) recursion, any other swept
    on its 2^(n-1) basis columns (see `_power_traces`).

    The diagonal of each swept power is accumulated from matrix-free
    applications, so no dense power is ever stored.
    """
    return _power_traces(local, n_sites, r_max) / (1 << n_sites)


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
    `_column_sum_radius`) and its coefficients from the last-site halves,
    as `power_trace_coefficients`; any other table takes both from one
    paired sweep, rho-hat from the norms ||Q^k||_1 it produces (see
    `_spectral_radius_bound`)."""
    rho = _column_sum_radius(local, n_sites)
    if rho is None:
        traces, norms = _trace_sweeps(local, n_sites, r_max, with_norms=True)
        rho = _spectral_radius_bound(norms, n_sites)
    else:
        traces = _power_traces(local, n_sites, r_max)
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
