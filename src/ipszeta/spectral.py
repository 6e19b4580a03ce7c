"""Spectra of global operators: dense eigensolves, multiset bookkeeping,
the one-site block certificate and the block-by-block spectrum it proves,
closed-form traces and eigenvalue histograms.

A global operator never moves its last site, the least significant bit of
its index, so Q_m is the direct sum of its halves Q_m[c::2, c::2].  `spectrum`
runs the certified spectral recursion in each half alone; any other dense
solve splits a matrix whose even/odd cross blocks are exactly zero into its
two halves.

Eigenvalue multisets are kept as (value, multiplicity) pairs.  Comparisons
use greedy nearest-neighbour matching at an explicit tolerance, since
repeated eigenvalues of these non-normal operators come back from a dense
solver as small clusters; the clusters of a conjugation-closed input are
closed too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import ClassVar

import numpy as np

from .errors import NoConvergence, ParamOutOfRange, SizeCapExceeded
from .operators import (
    LocalOperator,
    _charge,
    _check_budget,
    _recursion_step,
    _sweep_table,
)

EIG_DIM_CAP = 1 << 10

# eig_dense's fixed residual check and clustering, described in its docstring
_RESIDUAL_SAMPLES = 8
_RESIDUAL_TOL = 1e-8
_CLUSTER_REL = 1e-6

# How far a half's block certificate may sit from exact for `spectrum` to
# solve that half block by block, and column sums from 1 for `_unit_sums`
_UNIT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpectrumMultiset:
    """Eigenvalues with multiplicities; total count equals the matrix dimension."""

    values: np.ndarray
    multiplicities: np.ndarray
    source_dim: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        m = np.asarray(self.multiplicities, dtype=np.int64)
        if v.shape != m.shape or v.ndim != 1:
            raise ParamOutOfRange("values and multiplicities must be matching 1-d arrays")
        if int(m.sum()) != self.source_dim:
            raise ParamOutOfRange(
                "multiplicities sum to %d, expected dimension %d" % (m.sum(), self.source_dim)
            )
        v.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "multiplicities", m)

    @classmethod
    def from_eigenvalues(cls, eigs, cluster_tol: float) -> "SpectrumMultiset":
        """Cluster raw eigenvalues within cluster_tol into (value, count) pairs.

        Greedy in (real, imag) order: each value joins the cluster whose
        running mean is nearest, if within cluster_tol, else starts one.  A
        cluster's value is then its members' weighted mean, summed pairwise.

        Input exactly closed under conjugation, with some value off the real
        axis (a real matrix's eigenvalues), is clustered over its values with
        imag >= 0 only and then mirrored, so the result is closed too: a
        member off the axis weighs 2, for itself and its conjugate.  A
        cluster holding a real value, or whose mean lies within cluster_tol/2
        of the axis, becomes one real cluster that counts both; any other is
        emitted once as itself and once conjugated.  Values are sorted by
        (real, imag).
        """
        eigs = np.asarray(eigs, dtype=complex).ravel()
        ordered = eigs[np.lexsort((eigs.imag, eigs.real))]
        mirror = False
        if eigs.imag.any():
            c = ordered.conj()
            mirror = np.array_equal(ordered, c[np.lexsort((c.imag, c.real))])
        if mirror:
            ordered = ordered[ordered.imag >= 0]
        counts = np.zeros(len(ordered), dtype=np.int64)
        means = np.empty(len(ordered), dtype=complex)
        labels = np.empty(len(ordered), dtype=np.int64)
        k = 0
        for i, z in enumerate(ordered):
            if k:
                d = np.abs(means[:k] - z)
                j = int(d.argmin())
                if d[j] <= cluster_tol:
                    counts[j] += 1
                    means[j] += (z - means[j]) / counts[j]
                    labels[i] = j
                    continue
            means[k] = z
            counts[k] = 1
            labels[i] = k
            k += 1
        counts = counts[:k]
        weight = np.where(mirror & (ordered.imag != 0), 2, 1)
        grouped = np.argsort(labels, kind="stable")
        starts = np.cumsum(counts) - counts
        total = np.add.reduceat(weight[grouped], starts)
        value = np.add.reduceat(weight[grouped] * ordered[grouped], starts) / total
        # a total under 2 per member: the cluster holds a real member
        real = mirror & ((total < 2 * counts) | (np.abs(value.imag) <= cluster_tol / 2))
        value[real] = value[real].real
        pair = mirror & ~real
        values = np.concatenate([value, value[pair].conj()])
        mults = np.concatenate([np.where(pair, counts, total), counts[pair]])
        order = np.lexsort((values.imag, values.real))
        return cls(values[order], mults[order], len(eigs))

    @classmethod
    def from_pairs(cls, values, multiplicities, source_dim: int) -> "SpectrumMultiset":
        """Build from pairs, merging exactly equal values."""
        acc: dict[complex, int] = {}
        for v, m in zip(values, multiplicities):
            key = complex(v)
            acc[key] = acc.get(key, 0) + int(m)
        keys = sorted(acc, key=lambda z: (z.real, z.imag))
        return cls(np.array(keys), np.array([acc[k] for k in keys]), source_dim)

    @property
    def total(self) -> int:
        return int(self.multiplicities.sum())

    def expand(self) -> np.ndarray:
        """Flat array with repetitions, sorted by (real, imag)."""
        flat = np.repeat(self.values, self.multiplicities)
        return flat[np.lexsort((flat.imag, flat.real))]

    def moment(self, r: int) -> complex:
        return complex(np.sum(self.multiplicities * self.values ** r))

    def spectral_radius(self) -> float:
        return float(np.abs(self.values).max()) if len(self.values) else 0.0


def match_multisets(a: SpectrumMultiset, b: SpectrumMultiset, tol: float):
    """Greedy nearest-neighbour matching; returns (matched, worst distance).

    The distance comes from one greedy assignment, each value of `a` in
    sorted order taking the nearest unused value of `b`.  It is an upper
    bound on the best (bottleneck) assignment's distance: a pass is sound,
    but a fail can be a false negative once clusters scatter.
    """
    xa, xb = a.expand(), b.expand()
    if len(xa) != len(xb):
        return False, float("inf")
    used = np.zeros(len(xb), dtype=bool)
    worst = 0.0
    for x in xa:
        d = np.abs(xb - x)
        d[used] = np.inf
        j = int(d.argmin())
        used[j] = True
        worst = max(worst, float(d[j]))
    return worst <= tol, worst


def _check_eig_dim(log2_dim: int):
    """Refuse what `eig_dense` would refuse of dimension 2^log2_dim, before
    the matrix is built; decided from the exponent, so a refusal at any n
    forms no integer of about n bits."""
    if log2_dim > EIG_DIM_CAP.bit_length() - 1:
        raise SizeCapExceeded("dimension 2^%d exceeds eigensolver cap %d" % (log2_dim, EIG_DIM_CAP))


def _eigvals_checked(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square array after the residual check on its 8
    largest-modulus eigenpairs; the solve behind `eig_dense` and `spectrum`.

    An array whose imaginary part is exactly zero is solved in real
    arithmetic, so its eigenvalues are exactly closed under conjugation.
    An array with either cross block a[1::2, 0::2] or a[0::2, 1::2] exactly
    zero is block triangular after an even/odd permutation, so its
    eigenvalues are exactly those of a[0::2, 0::2] and a[1::2, 1::2] with
    their algebraic multiplicities; each diagonal block goes through this
    function on its own.  Every global operator's cross blocks are both
    zero, and a half of one has a zero cross block wherever its table's half
    has a zero off the diagonal.  Raises NoConvergence if the solver fails
    or one of the 8 sampled pairs of a matrix solved (a block, after a
    split) misses the residual bound 1e-8 times that matrix's Frobenius
    norm.  A block's norm is no larger than the whole's.  Beside a zero
    cross block, a[1::2, 0::2] under a[0::2, 0::2] or a[0::2, 1::2] above
    a[1::2, 1::2], a block's eigenvector padded with zeros is one of the
    whole, so checking that block is at least as strict; the other block's
    pairs are its own, whose eigenvalues are the whole's.  A finite 1 x 1
    matrix is its own eigenvalue, with residual exactly 0, and is not handed
    to the solver; a non-finite one raises NoConvergence.
    """
    if np.iscomplexobj(a):
        a = _sweep_table(a.astype(complex, copy=False))
    else:
        a = a.astype(np.float64, copy=False)
    if len(a) == 1:  # its entry, with residual exactly 0
        if not np.isfinite(a).all():
            raise NoConvergence("dense eigensolver failed: non-finite entry %r" % a[0, 0])
        return a[0].copy()
    if not (a[1::2, 0::2].any() and a[0::2, 1::2].any()):
        return np.concatenate([_eigvals_checked(a[0::2, 0::2]), _eigvals_checked(a[1::2, 1::2])])
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("dense eigensolver failed: %s" % exc) from exc
    norm = float(np.linalg.norm(a))
    if norm > 0:
        picked = np.argsort(-np.abs(w))[:_RESIDUAL_SAMPLES]
        vp = np.ascontiguousarray(v[:, picked])
        # a real matrix acts on the interleaved float64 view: no complex copy of it
        av = (a @ vp.view(np.float64)).view(vp.dtype) if np.isrealobj(a) else a @ vp
        res = np.linalg.norm(av - vp * w[picked], axis=0)
        j = int(res.argmax())
        if res[j] > _RESIDUAL_TOL * norm:
            raise NoConvergence(
                "eigenpair residual %.3e exceeds %.3e for eigenvalue %r"
                % (res[j], _RESIDUAL_TOL * norm, w[picked[j]])
            )
    return w


def _cluster(w: np.ndarray) -> SpectrumMultiset:
    """Eigenvalues clustered within 1e-6 * max(1, rho)."""
    rho = float(np.abs(w).max()) if len(w) else 0.0
    return SpectrumMultiset.from_eigenvalues(w, _CLUSTER_REL * max(1.0, rho))


def eig_dense(matrix: np.ndarray) -> SpectrumMultiset:
    """Full spectrum of a dense square array, residual-checked on sampled pairs.

    A matrix whose imaginary part is exactly zero is solved in real
    arithmetic, so its spectrum is exactly closed under conjugation.  A
    matrix with an even/odd cross block exactly zero is solved as its two
    diagonal blocks, and so on down (see `_eigvals_checked`): every global
    operator splits into its last-site halves, and a half whose table has a
    zero off its diagonal splits again.  Clusters repeated eigenvalues within
    1e-6 * max(1, rho), conjugation-safely (see
    `SpectrumMultiset.from_eigenvalues`).  Raises SizeCapExceeded above
    dimension EIG_DIM_CAP = 1024 and NoConvergence if the solver fails or
    one of the 8 largest-modulus eigenpairs of a solved block misses the
    residual bound 1e-8 * ||block||_F.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (a.shape,))
    if a.shape[0] > EIG_DIM_CAP:
        raise SizeCapExceeded("dimension %d exceeds eigensolver cap %d" % (a.shape[0], EIG_DIM_CAP))
    return _cluster(_eigvals_checked(a))


def shift_coefficients(local: LocalOperator) -> tuple[complex, complex]:
    """The per-column-block shifts a[(1,0)][(1,0)] - a[(1,0)][(0,0)] and
    a[(1,1)][(1,1)] - a[(1,1)][(0,1)] that drive the spectral recursion."""
    a = local.matrix
    return complex(a[2, 2] - a[2, 0]), complex(a[3, 3] - a[3, 1])


def block_certificate(q_big: np.ndarray, q_small: np.ndarray, d) -> float:
    """Relative residual of the one-site block similarity of Q_{n+1}.

    With quadrants (E, F, G, H) of Q_{n+1} and S = [[I, I], [0, I]] on site 0,
    S Q_{n+1} S^-1 = [[E+G, F+H-E-G], [G, H-G]].  When E+G = F+H = Q_n and
    H-G = Q_n D this is block lower triangular, which proves
    Spec(Q_{n+1}) = Spec(Q_n) united with Spec(Q_n D) exactly.  d holds the
    diagonal of D (or one scalar).  Returns the largest entry of
    |E+G - Q_n|, |F+H - Q_n| and |H-G - Q_n D| over max(1, max|Q_n|).
    E+G and F+H come from one sum over the row halves, side by side in one
    buffer of two quadrants; H-G - Q_n D takes one more.
    """
    h = len(q_small)
    quadrants = q_big.reshape(2, h, 2, h)
    sums = quadrants.sum(axis=0)  # E+G and F+H side by side
    sums -= q_small[:, None]
    shifted = quadrants[1, :, 1] - quadrants[1, :, 0]
    shifted -= q_small * d
    worst = max(float(np.abs(sums).max()), float(np.abs(shifted).max()))
    return worst / max(1.0, float(np.abs(q_small).max()))


def _unit_sums(local: LocalOperator) -> bool:
    """Every column sum within 1e-12 of 1: the spectral recursion's domain."""
    return float(np.abs(local.column_sums() - 1).max()) <= _UNIT_SUM_TOL


def _certified_blocks(local: LocalOperator, c: int, n_sites: int) -> list | None:
    """The blocks C_m = B_c(m) (D_m)_c of the last-site half c for
    m = 1..n-1, or None where some level m fails half c's
    `block_certificate` within 1e-12; the route both `_spectrum_eigvals`
    and `zeta._power_traces` read a half by.

    B_c grows from B_c(1) = [1] and B_c(2) = M_c by `_recursion_step`, one
    site a level, in the dtype of `_sweep_table`: a real table grows in
    float64.  While levels 1..m-1 pass, the paper's spectral recursion
    holds within half c: Spec B_c(m) = {1} united with Spec C_j for j < m,
    so tr B_c(m)^r = 1 + sum_(j<m) tr C_j^r.  In blocks of the largest
    dimension 2^(n-2), the growth holds B_c(n-1) and B_c(n) (5) and the
    certificate's sums, differences and their absolute values (5) beside
    the blocks kept (under 4/3); it ends before the list is returned.
    """
    table = _sweep_table(local.matrix)
    shifts = _sweep_table(np.array(shift_coefficients(local)))
    blocks, grown = [], np.ones((1, 1), dtype=table.dtype)
    for m in range(1, n_sites):
        b, grown = grown, table[c::2, c::2] if m == 1 else _recursion_step(local, grown)
        d = np.repeat(shifts, len(b))[c::2]
        if not block_certificate(grown, b, d) <= _UNIT_SUM_TOL:
            return None
        blocks.append(b * d)
    return blocks


def _derived_halves(local: LocalOperator) -> list:
    """For each last-site half c, the (D, i) pairs that give b_c(m) =
    Spec B_c(m) from level m-1 with no eigensolve beyond one of each D, or
    None: b_c(m) is the union of Spec(D) b_i(m-1) over the pairs, and
    tr B_c(m)^r = sum tr(D^r) tr B_i(m-1)^r.  Each D is a sub-table of
    `_sweep_table(local.matrix)`.

    Inside B_c, site m-2 moves by the half table M_c = a[c::2, c::2], so
    B_c(m)[k::2, i::2] = (M_c)_ki B_i(m-1).  If M_0 and M_1 are exactly
    equal, B_0 = B_1 and B_c(m) = B_0(m-1) (x) M_0: both halves share the
    one pair (M_0, 0).  Else, where M_c has an exact zero off its diagonal,
    B_c(m) is block triangular over site m-2: the 1 x 1 pairs ((M_c)_00, 0)
    and ((M_c)_11, 1).  Both hold with algebraic multiplicities and are
    decided by exact tests, with no tolerance.
    """
    table = _sweep_table(local.matrix)
    halves = [table[c::2, c::2] for c in (0, 1)]
    if np.array_equal(*halves):
        return [[(halves[0], 0)]] * 2
    return [[(m[:1, :1], 0), (m[1:, 1:], 1)] if m[0, 1] == 0 or m[1, 0] == 0 else None
            for m in halves]


def _spectrum_eigvals(local: LocalOperator, n_sites: int) -> np.ndarray:
    """The unclustered eigenvalues of Q_n, one per dimension, from its
    last-site halves; `spectrum` clusters them and `zeta_det` sums over them.

    One recursion over the half c and the level m: b_c(m) = Spec B_c(m)
    starts at b_c(1) = {1}; a half that `_derived_halves` allows is the
    union of Spec(D) b_i(m-1) over its (D, i) pairs, each Spec(D) from
    `_eigvals_checked` (a 1 x 1 D with no solve), and any other is {1}
    united with the spectra of its blocks below level m, each block that
    `_certified_blocks` returns solved once.  Where some half neither
    derives nor certifies, each certified half keeps its level n and every
    other half B_c(n) is grown from its table half and solved whole, so a
    derived half splits on its exact zero cross blocks as a dense solve of
    Q_n splits it.  Returned as complex128.  One dense operator of Q_n and the
    eigensolver cap on 2^(n-2) are checked before anything is built, the
    cap on 2^(n-1) before any half is grown whole.
    """
    _check_budget(n_sites, operators=1)
    _check_eig_dim(n_sites - 2)
    derived = _derived_halves(local)
    solved = [None if pairs else _certified_blocks(local, c, n_sites)
              for c, pairs in enumerate(derived)]
    solved = [blocks and [np.ones(1), *map(_eigvals_checked, blocks)] for blocks in solved]
    if any(pairs is None and levels is None for pairs, levels in zip(derived, solved)):
        _check_eig_dim(n_sites - 1)
        halves = []
        for c, levels in enumerate(solved):
            if levels is None:
                b = _sweep_table(local.matrix)[c::2, c::2]
                for _ in range(n_sites - 2):
                    b = _recursion_step(local, b)
                levels = [_eigvals_checked(b)]
            halves.append(np.concatenate(levels))
        return np.concatenate(halves).astype(complex)
    spectra = [pairs and [(_eigvals_checked(d), i) for d, i in pairs] for pairs in derived]
    b = [np.ones(1), np.ones(1)]
    for m in range(1, n_sites):
        b = [np.concatenate([np.multiply.outer(w, b[i]).ravel() for w, i in pairs])
             if pairs else np.concatenate(solved[c][:m + 1]) for c, pairs in enumerate(spectra)]
    return np.concatenate(b).astype(complex)


def spectrum(local: LocalOperator, n_sites: int) -> SpectrumMultiset:
    """Spectrum of the n-site global operator, solved as its last-site halves.

    Site n-1 never moves, so Q_n is the direct sum of its halves B_c(n) =
    Q_n[c::2, c::2].  A half whose table M_c has an exact zero off its
    diagonal, or both when M_0 == M_1 exactly, is derived level by level as
    the union of Spec(D) b_i(m-1) over the (D, i) pairs of
    `_derived_halves`, with no eigensolve beyond a 2 x 2 solve of equal
    half tables, one for each half.  In any other half the paper's spectral
    recursion holds on its own: Spec B_c(n) = {1} united with Spec B_c(m)
    (D_m)_c for m < n, D_m the two column-block shifts over the halves of
    Q_m, wherever every level passes that half's block certificate.  Such a
    half is grown and certified alone and solved by its blocks, of
    dimension up to 2^(n-2) (see `_certified_blocks`).  A half that
    neither derives nor certifies is grown and solved whole at level n, of
    dimension 2^(n-1), and so is a derived half beside it, with the result
    of a solve of Q_n (see `_spectrum_eigvals`); Q_n itself is never
    formed.  One half is grown at a time: B_c(n-1) and B_c(n), five
    sixteenths of Q_n (half that for a real table, grown in float64),
    beside the certificate's buffers and the blocks kept, under a twelfth
    a half; the blocks are solved after the growth, and a half grown whole
    holds one B_c(n) beside its eigensolve.  Each solve is checked as in
    `eig_dense`, and the union of both halves is clustered once.
    """
    return _cluster(_spectrum_eigvals(local, n_sites))


def t_case_spectrum(t: complex, n_sites: int) -> SpectrumMultiset:
    """Spectrum {t^k with multiplicity 2*C(n-1,k)} of a shift-t global operator.

    Applies when both column-block shifts equal t and columns sum to 1; the
    k = 0 power is 1 even at t = 0.  Refused from n = 63, where the
    multiplicities sum to 2^n, past the int64 that holds them.
    """
    _check_budget(n_sites)
    if n_sites >= 63:
        raise SizeCapExceeded("n=%d: multiplicities summing to 2^%d exceed the int64 multiplicity "
                              "limit 2^63 - 1" % (n_sites, n_sites))
    values = [1.0 + 0j if k == 0 else complex(t) ** k for k in range(n_sites)]
    mults = [2 * comb(n_sites - 1, k) for k in range(n_sites)]
    return SpectrumMultiset.from_pairs(values, mults, 1 << n_sites)


# --- histograms -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HistogramGrid:
    """Eigenvalue counts on a square grid over [-1,1] x [-1,1].

    Bins are half-open [low, low+bin) except the last bin on each axis, which
    is closed so the boundary value 1 is counted.  Values outside the square
    go to overflow.
    """

    bin_size: float
    counts: np.ndarray
    overflow: int
    low: ClassVar[float] = -1.0
    high: ClassVar[float] = 1.0

    @property
    def n_bins(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.overflow


def _histogram_bins(bin_size: float) -> int:
    """Bins per axis of the histogram grid at bin_size, at least one;
    refuses a grid whose 8 * n_bins^2 bytes exceed the byte budget, before
    anything allocates.  The bytes are a float product, exact below 2^53
    and inf past overflow, so even a subnormal bin_size (inf bins) is
    refused in a short message."""
    if not 0 < bin_size < np.inf:
        raise ParamOutOfRange("bin_size must be positive and finite")
    n_bins = max(1.0, float(np.ceil((HistogramGrid.high - HistogramGrid.low) / bin_size - 1e-9)))
    _charge(8 * n_bins * n_bins,
            "bin size %r (a %g x %g histogram grid)" % (bin_size, n_bins, n_bins))
    return int(n_bins)


def histogram(spec: SpectrumMultiset, bin_size: float = 0.05) -> HistogramGrid:
    """Histogram of a spectrum over the square [-1,1]^2 in the complex plane."""
    n_bins = _histogram_bins(bin_size)
    low, high = HistogramGrid.low, HistogramGrid.high
    re, im = spec.values.real, spec.values.imag
    inside = (re >= low) & (re <= high) & (im >= low) & (im <= high)
    ix, iy = (np.minimum(((x[inside] - low) / bin_size).astype(np.int64), n_bins - 1)
              for x in (re, im))
    counts = np.zeros((n_bins, n_bins), dtype=np.int64)
    np.add.at(counts, (ix, iy), spec.multiplicities[inside])
    return HistogramGrid(bin_size, counts, int(spec.multiplicities[~inside].sum()))


# --- traces from the self-transition table ----------------------------------


def trace_path_sum(local: LocalOperator, n_sites: int) -> complex:
    """Trace of the n-site operator as the grand sum of the (n-1)-st power of
    the 2x2 self-transition table; equals 2 at n = 1."""
    _check_budget(n_sites)
    t = local.self_transition_table()
    return complex(np.linalg.matrix_power(t, n_sites - 1).sum())


def trace_closed_form(local: LocalOperator, n_sites: int) -> complex:
    """Trace of the n-site global operator from the two characteristic roots.

    x_plus and x_minus are the roots of x^2 - (a00+a11) x - (a01*a10 - a00*a11)
    built from the four self-transition weights a_ij = a[(i,j)][(i,j)]; the
    lambda factors weight the two root powers.  The closed form divides by
    a01 (x_plus - x_minus) and errs by about eps rho over the smaller of
    the two, rho the larger root modulus; where either is at most 1e-4 rho,
    the trace falls back to the transfer-table path sum.
    """
    _check_budget(n_sites)
    t = local.self_transition_table()
    a00, a01, a10, a11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
    disc = np.sqrt(complex((a00 - a11) ** 2 + 4 * a01 * a10))
    xp = (a00 + a11 + disc) / 2
    xm = (a00 + a11 - disc) / 2
    if min(abs(a01), abs(xp - xm)) <= 1e-4 * max(abs(xp), abs(xm)):
        return trace_path_sum(local, n_sites)
    lp = complex((a01 - a00 + xp) * (a00 + a01 - xm))
    lm = complex((a01 - a00 + xm) * (a00 + a01 - xp))
    xp, xm = complex(xp), complex(xm)
    num = xp ** (n_sites - 1) * lp - xm ** (n_sites - 1) * lm
    return complex(num / (a01 * (xp - xm)))
