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

from .errors import ParamOutOfRange, SingularFactor, SizeCapExceeded
from .operators import (
    LocalOperator,
    _charge,
    _check_budget,
    _sweep_2d,
    _sweep_blocks,
    _sweep_table,
)
from .spectral import EIG_DIM_CAP, _half_routes, _recurse_halves, _spectrum_eigvals

# Bytes of basis columns swept together, in the sweep's dtype.  The batches
# only bound the memory the sweeps hold: `_sweep_2d` blocks each sweep for
# the cache itself.
_TRACE_BATCH_BYTES = 1 << 22


def _admit_traces(n_sites: int, r_max: int, bytes_per_power: int):
    """Refuse power traces before allocating: n or r_max below 1, n beyond
    one complex dense operator (the sweeps need a few MiB, but their time
    grows with half the 4^n entries of each power), or r_max arrays of
    `bytes_per_power` bytes a power beyond the byte budget."""
    _check_budget(n_sites, operators=1)
    if r_max < 1:
        raise ParamOutOfRange("need r_max >= 1")
    _charge(r_max * bytes_per_power, "r_max=%d" % r_max)


def _finite_traces(traces: np.ndarray) -> np.ndarray:
    """`traces`, tr(Q^r) for r = 1, 2, ..., refused with FloatingPointError
    from the first r whose trace is not finite: its powers overflow float64."""
    bad = ~np.isfinite(traces)
    if bad.any():
        raise FloatingPointError("tr(Q^r) overflows float64 from r=%d" % (bad.argmax() + 1))
    return traces


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
    columns in all, from one buffer into the other, so it allocates no
    state beyond the sweep's scratch; the table and Q_3 are built once for
    every power.  A table with zero imaginary part keeps real columns,
    since their imaginary part stays zero.  A batch holds
    `_TRACE_BATCH_BYTES` of columns.  Sizes are admitted by `_admit_traces`,
    and traces that are not finite are refused by `_finite_traces`.
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
            states, spare = _sweep_2d(blocks, n_sites, states, spare), states
            traces[r] += states.take(diag).sum()
            if with_norms:
                norms[r] = max(norms[r], np.abs(states.reshape(half, 2, -1)).sum(axis=0).max())
    return _finite_traces(traces), norms


def _swept_coefficients(local: LocalOperator, n_sites: int, r_max: int) -> np.ndarray:
    """C_1..C_rmax from the paired sweep of both halves alone, with no half
    derived; the reference the closed forms and the derived traces are
    checked against."""
    return _trace_sweeps(local, n_sites, r_max, with_norms=False)[0] / (1 << n_sites)


def _powers(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """m, m^2, ..., m^k into the (k, d, d) stack `out`, by doubling,
    m^(i+j) = m^i m^j, in about log2(k) batched products; returns `out`."""
    out[0] = m
    done = 1
    while done < len(out):
        more = min(done, len(out) - done)
        np.matmul(out[done - 1], out[:more], out=out[done:done + more])
        done += more
    return out


def _baby_giant(r_max: int) -> tuple[int, int]:
    """Baby steps k = ceil(sqrt(r_max)) and giant steps ceil(r_max / k)."""
    k = math.isqrt(r_max - 1) + 1
    return k, -(-r_max // k)


def _block_traces(block: np.ndarray, r_max: int, spare: np.ndarray) -> np.ndarray:
    """tr C^r for r = 1..r_max of a square block C, by baby steps and giant
    steps: the babies C..C^k and the giants (C^T)^(jk) for j < J, with k
    and J from `_baby_giant`, both by `_powers`, give
    tr C^(jk+a) = <(C^T)^(jk), C^a>, the sum of their entrywise product,
    all in one matrix product.  The k + J blocks of the two stacks are the
    front of the flat buffer `spare`, of C's dtype."""
    k, giant_steps = _baby_giant(r_max)
    stacks = spare[:(k + giant_steps) * block.size].reshape(k + giant_steps, *block.shape)
    babies, giants = _powers(block, stacks[:k]), stacks[k:]
    giants[0] = 0
    np.fill_diagonal(giants[0], 1)
    if giant_steps > 1:
        _powers(babies[-1].T, giants[1:])
    return (giants.reshape(giant_steps, -1) @ babies.reshape(k, -1).T).ravel()[:r_max]


def _power_traces(local: LocalOperator, n_sites: int, r_max: int) -> np.ndarray:
    """tr(Q^r) for r = 1..r_max by `spectral._recurse_halves` on power sums
    over the routes of `spectral._half_routes`.  tr(D^r) is read from the
    powers of D by `_powers` with no solve: exact diagonal products for a
    1 x 1 D, and for a 2 x 2 one tr M^r, sharper than a sum of powers of its
    eigenvalues.  tr C^r of each block comes from `_block_traces` in one
    buffer sized for the largest, about 2 sqrt(r_max) products a block.
    Beside the growth and both halves' kept blocks, the route holds the baby
    and giant stacks, k + J largest blocks (see `_baby_giant`), and both
    halves' (n, r_max) traces: the bytes it hands `_half_routes` to check
    with the route's reach.  Where there are no routes the call takes the
    paired sweep at level n: beyond `EIG_DIM_CAP` the blocks' dense
    products, which grow as 8^n, take longer than the sweep, whose time
    grows as 4^n, and hold far more.  Admitted by `_admit_traces` with the
    r_max-long arrays of the derived halves (the half tables' powers and
    each level's traces) at 256 bytes a power; traces that are not finite
    are refused by `_finite_traces` on either route."""
    _admit_traces(n_sites, r_max, 256)
    dtype = _sweep_table(local.matrix).dtype
    steps = sum(_baby_giant(r_max))
    dim = 1 << max(n_sites - 2, 0)
    routes = _half_routes(local, n_sites, steps * dim * dim * dtype.itemsize + 32 * n_sites * r_max)
    if routes is None:
        return _trace_sweeps(local, n_sites, r_max, with_norms=False)[0]
    spare = np.empty(steps * dim * dim if any(blocks for _, blocks in routes) else 0, dtype=dtype)
    return _finite_traces(_recurse_halves(
        routes, n_sites, np.ones(r_max, dtype=complex),
        lambda d: np.trace(_powers(d, np.empty((r_max, *d.shape), d.dtype)), axis1=1, axis2=2),
        lambda block: _block_traces(block, r_max, spare), np.multiply, sum))


def power_trace_coefficients(local: LocalOperator, n_sites: int, r_max: int) -> np.ndarray:
    """C_1..C_rmax with C_r = tr(Q^r)/2^n, from the last-site halves (see
    `_power_traces`); no dense power of Q is stored.
    """
    return _power_traces(local, n_sites, r_max) / (1 << n_sites)


def c_r(local: LocalOperator, n_sites: int, r: int) -> complex:
    """Normalized power trace tr(Q^r)/2^n."""
    if r < 1:
        raise ParamOutOfRange("need r >= 1, got r=%d" % r)
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
    rows never mix, so the other parity adds only exact zero products.  An
    exact zero product adds no rounding error to a sum, so neither do the
    zeros that a narrow pass's kron(Q_3^T, I_R) multiplies in (see
    `operators._sweep_2d`).  A pass through Q_3 sums at most 4 nonzero
    products per output, each with one entry of Q_3, a single rounded
    product of two table entries: it errs by at most
    sqrt(2)(gamma_2 + gamma_6) < 6 eps relative to |Q_3| (unit roundoff
    eps/2), under the 16 eps allowed its two pair products, and a last pass
    by the table alone by under 8 eps.  So 8 eps k(n-1) still bounds the
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


def _finite_u(u) -> complex:
    """u as a complex number, refused with ParamOutOfRange unless finite."""
    if not np.isfinite(u := complex(u)):
        raise ParamOutOfRange("u=%r is not finite" % (u,))
    return u


def _log_det(values, weights, u: complex) -> complex:
    """-sum w log(1 - lambda u) by principal logs, which continue the log
    series along [0, u]: there each factor 1 - s lambda u, s in [0, 1], moves
    straight from 1 and meets the cut (-inf, 0] only where lambda u is real
    and >= 1.  Raises SingularFactor when a computed factor lies on the cut.
    Each log is log1p(z), z = -lambda u: z itself where |z| < eps, within
    z^2/2 of it, and log(f) z / (f - 1) with f = 1 + z rounded (Kahan) up to
    |z| = 1; np.log(f) and, on complex input, np.log1p drop z under eps/2."""
    z = -values * u
    factors = 1.0 + z
    if np.any((factors.imag == 0) & (factors.real <= 0)):
        raise SingularFactor("1 - lambda*u lies on (-inf, 0] at u = %r" % (u,))
    logs, size = np.log(factors), np.abs(z)
    near = (size >= np.finfo(float).eps) & (size < 1)
    logs[near] *= z[near] / (factors[near] - 1)
    return complex(-np.sum(weights * np.where(size < np.finfo(float).eps, z, logs)))


def zeta_det(local: LocalOperator, n_sites: int, u):
    """Zeta value from the determinant form, per-factor principal logs.

    The logs are summed over the unclustered eigenvalues behind
    `spectral.spectrum`, one per dimension (see `spectral._spectrum_eigvals`);
    skipping the clustering keeps the sum as sharp as the solves.  The
    branch is the continuation of the series along [0, u], at any |u| (see
    `_log_det`); SingularFactor is raised where some lambda u lies on
    [1, inf), and ParamOutOfRange before any solve at a non-finite u.  A
    1-D array of u takes one solve and gives the complex array of the
    values each u gives alone.
    """
    us = np.asarray(u)
    if us.ndim > 1:
        raise ParamOutOfRange("u must be a number or a 1-D array, got shape %r" % (us.shape,))
    finite = [_finite_u(x) for x in us.reshape(-1)]
    w = _spectrum_eigvals(local, n_sites)
    values = [complex(np.exp(_log_det(w, 1.0 / (1 << n_sites), x))) for x in finite]
    return np.array(values, dtype=complex) if us.ndim else values[0]


# --- closed forms on the shift-t family -------------------------------------


def t_case_c_r(t: complex, n_sites: int, r: int) -> complex:
    """Closed-form coefficient ((1 + t^r)/2)^(n-1) on the shift-t family."""
    _check_budget(n_sites)
    if r < 1:
        raise ParamOutOfRange("need r >= 1, got r=%d" % r)
    return complex(((1.0 + complex(t) ** r) / 2.0) ** (n_sites - 1))


def t_case_log_zeta(t: complex, n_sites: int, u: complex) -> complex:
    """log zeta on the shift-t family: a binomial average of -log(1 - t^k u),
    on the branch of `zeta_det` (continuation of the series along [0, u]),
    with weights C(n-1, k) / 2^(n-1) divided exactly in integers: finite
    past float range, in O(n^2) bit operations.  Refused with
    SizeCapExceeded before the row where (n-1)^2 exceeds EIG_DIM_CAP^3, the
    work of the largest dense eigensolve admitted (from n = 32770), and
    with ParamOutOfRange at a u that is not finite."""
    _check_budget(n_sites)
    largest = math.isqrt(EIG_DIM_CAP ** 3) + 1
    if n_sites > largest:
        raise SizeCapExceeded("n=%d: exact binomial weights take (n-1)^2 bit operations, beyond "
                              "the cap EIG_DIM_CAP^3 (n <= %d)" % (n_sites, largest))
    u = _finite_u(u)
    total, binomial, weights = 1 << (n_sites - 1), 1, []
    for k in range(n_sites):
        weights.append(binomial / total)
        binomial = binomial * (n_sites - 1 - k) // (k + 1)
    powers = np.array([1.0 + 0j if k == 0 else complex(t) ** k for k in range(n_sites)])
    return _log_det(powers, np.array(weights), u)
