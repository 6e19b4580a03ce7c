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
from typing import ClassVar
from math import comb

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


def _check_eig_dim(dim: int):
    """Refuse what `eig_dense` would refuse, before the matrix is built."""
    if dim > EIG_DIM_CAP:
        raise SizeCapExceeded("dimension %d exceeds eigensolver cap %d" % (dim, EIG_DIM_CAP))


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
    pairs are its own, whose eigenvalues are the whole's.
    """
    if np.iscomplexobj(a):
        a = _sweep_table(a.astype(complex, copy=False))
    else:
        a = a.astype(np.float64, copy=False)
    if len(a) > 1 and not (a[1::2, 0::2].any() and a[0::2, 1::2].any()):
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
    _check_eig_dim(a.shape[0])
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
    |E+G - Q_n|, |F+H - Q_n| and |H-G - Q_n D| over max(1, max|Q_n|); the
    three differences are formed one after another in one quadrant buffer.
    """
    h = q_big.shape[0] // 2
    e, f = q_big[:h, :h], q_big[:h, h:]
    g, hh = q_big[h:, :h], q_big[h:, h:]
    s = e + g
    s -= q_small
    worst = float(np.abs(s).max())
    np.add(f, hh, out=s)
    s -= q_small
    worst = max(worst, float(np.abs(s).max()))
    np.subtract(hh, g, out=s)
    s -= q_small * d
    worst = max(worst, float(np.abs(s).max()))
    return worst / max(1.0, float(np.abs(q_small).max()))


def _unit_sums(local: LocalOperator) -> bool:
    """Every column sum within 1e-12 of 1: the spectral recursion's domain."""
    return float(np.abs(local.column_sums() - 1).max()) <= _UNIT_SUM_TOL


def _half_eigvals(local: LocalOperator, n_sites: int, c: int, first: int) -> list:
    """Eigenvalues of the last-site halves B_c(m) = Q_m[c::2, c::2] for
    m = first..n_sites, grown one site at a time from B_c(1) = [1] and
    B_c(2) = M_c by the block recursion.

    The recursion runs once.  While levels 1..m-1 pass this half's
    `block_certificate` within 1e-12 against (D_j)_c, Spec B_c(m) is {1}
    united with Spec B_c(j) (D_j)_c for j < m, each block solved once its
    level is proven, so one run gives every such B_c(m) as a prefix of its
    blocks.  At the first level that fails, the cap on 2^(n-1) is checked
    and each larger B_c(m) from `first` on is grown and solved whole.
    """
    shifts = np.array(shift_coefficients(local))
    b = np.ones((1, 1), dtype=complex)
    blocks = [np.ones(1)]
    for m in range(1, n_sites):
        grown = _recursion_step(local, b) if m > 1 else local.matrix[c::2, c::2]
        d = np.repeat(shifts, 1 << (m - 1))[c::2]
        if not block_certificate(grown, b, d) <= _UNIT_SUM_TOL:
            break
        blocks.append(_eigvals_checked(b * d))
        b = grown
    else:
        m = n_sites
    # levels up to m are proven by their blocks
    out = [np.concatenate(blocks[:k]) for k in range(first, m + 1)]
    if m < n_sites:
        _check_eig_dim(2 ** (n_sites - 1))
        b = grown
        for k in range(m + 1, n_sites + 1):
            if k > m + 1:
                b = _recursion_step(local, b)
            if k >= first:
                out.append(_eigvals_checked(b))
    return out


def _derived_halves(local: LocalOperator) -> list:
    """For each last-site half c, the (scale, source half) pairs that give
    b_c(m) = Spec B_c(m) from level m-1 with no eigensolve, or None.

    Inside B_c, site m-2 moves by the half table M_c = a[c::2, c::2], so
    B_c(m)[k::2, i::2] = (M_c)_ki B_i(m-1).  If M_c has an exact zero off
    its diagonal, B_c(m) is block triangular over site m-2, so
    b_c(m) = (M_c)_00 b_0(m-1) united with (M_c)_11 b_1(m-1).  If M_0 and
    M_1 are exactly equal, B_0 = B_1 and B_c(m) = B_c(m-1) (x) M_c, so
    b_c(m) = mu_0 b_c(m-1) united with mu_1 b_c(m-1), mu_0 and mu_1 from one
    checked 2x2 solve of M_c.  Both hold with algebraic multiplicities and
    are decided by exact tests, with no tolerance.
    """
    halves = [local.matrix[c::2, c::2] for c in (0, 1)]
    if np.array_equal(*halves):
        mu = _eigvals_checked(halves[0])
        return [[(mu[0], c), (mu[1], c)] for c in (0, 1)]
    return [[(m[0, 0], 0), (m[1, 1], 1)] if m[0, 1] == 0 or m[1, 0] == 0 else None
            for m in halves]


def _spectrum_eigvals(local: LocalOperator, n_sites: int) -> np.ndarray:
    """The unclustered eigenvalues of Q_n, one per dimension, from its
    last-site halves; `spectrum` clusters them and `zeta_det` sums over them.

    One recursion over the half c and the level m: b_c(m) = Spec B_c(m)
    starts at b_c(1) = {1}; a half that `_derived_halves` allows is derived
    from level m-1, and any other comes from one run of `_half_eigvals`, at
    every level when the other half is derived from it, else at level n
    alone.  The byte budget of one dense operator of Q_n and the eigensolver
    cap on 2^(n-2) are checked before anything is built.
    """
    _check_budget(n_sites, 16 * 4 ** n_sites)
    _check_eig_dim(2 ** (n_sites - 2))
    derived = _derived_halves(local)
    solved = [None if terms else
              _half_eigvals(local, n_sites, c, 1 if derived[1 - c] else n_sites)
              for c, terms in enumerate(derived)]
    if not any(derived):
        return np.concatenate([levels[-1] for levels in solved])
    b = [np.ones(1), np.ones(1)]
    for m in range(2, n_sites + 1):
        b = [np.concatenate([s * b[src] for s, src in terms]) if terms else solved[c][m - 1]
             for c, terms in enumerate(derived)]
    return np.concatenate(b)


def spectrum(local: LocalOperator, n_sites: int) -> SpectrumMultiset:
    """Spectrum of the n-site global operator, solved as its last-site halves.

    Site n-1 never moves, so Q_n is the direct sum of its halves B_c(n) =
    Q_n[c::2, c::2].  A half whose table M_c has an exact zero off its
    diagonal, or both when M_0 == M_1 exactly, is derived level by level
    with no eigensolve (see `_derived_halves`).  In any other half the
    paper's spectral recursion holds on its own: Spec B_c(n) = {1} united
    with Spec B_c(m) (D_m)_c for m < n, D_m the two column-block shifts
    over the halves of Q_m, wherever every level passes that half's block
    certificate.  Such a half is grown and certified alone and solved by
    its blocks, of dimension up to 2^(n-2), or whole, of dimension 2^(n-1),
    from its first level that fails (see `_half_eigvals`); Q_n itself is
    never formed.  The byte budget of one dense operator of Q_n and the
    eigensolver cap on 2^(n-2) are checked before anything is built, the
    cap on 2^(n-1) when a level fails.  One half is grown at a time:
    B_c(n-1) and B_c(n), five sixteenths, beside a block's eigensolve or the
    certificate's buffers; or one B_c(n) beside its eigensolve.  Each solve
    is checked as in `eig_dense`, and the union of both halves is clustered
    once.
    """
    return _cluster(_spectrum_eigvals(local, n_sites))


def t_case_spectrum(t: complex, n_sites: int) -> SpectrumMultiset:
    """Spectrum {t^k with multiplicity 2*C(n-1,k)} of a shift-t global operator.

    Applies when both column-block shifts equal t and columns sum to 1; the
    k = 0 power is 1 even at t = 0.
    """
    if n_sites < 1:
        raise ParamOutOfRange("need n_sites >= 1")
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
    """Bins per axis of the histogram grid at bin_size; refuses a grid whose
    8 * n_bins^2 bytes exceed the byte budget, before anything allocates."""
    if not 0 < bin_size < np.inf:
        raise ParamOutOfRange("bin_size must be positive and finite")
    bins = (HistogramGrid.high - HistogramGrid.low) / bin_size
    if bins == np.inf:  # a subnormal bin_size: no integer counts the bins
        _charge(bins, "bin size %r (an unbounded histogram grid)" % (bin_size,))
    n_bins = int(np.ceil(bins - 1e-9))
    _charge(8 * n_bins ** 2, "bin size %r (a %d x %d histogram grid)" % (bin_size, n_bins, n_bins))
    return n_bins


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
    if n_sites < 1:
        raise ParamOutOfRange("need n_sites >= 1")
    t = local.self_transition_table()
    return complex(np.linalg.matrix_power(t, n_sites - 1).sum())


def trace_closed_form(local: LocalOperator, n_sites: int) -> complex:
    """Trace of the n-site global operator from the two characteristic roots.

    x_plus and x_minus are the roots of x^2 - (a00+a11) x - (a01*a10 - a00*a11)
    built from the four self-transition weights a_ij = a[(i,j)][(i,j)]; the
    lambda factors weight the two root powers.  When the (0,1) self-weight
    vanishes or the roots collide the closed form divides by ~0, and the
    trace falls back to the transfer-table path sum.
    """
    if n_sites < 1:
        raise ParamOutOfRange("need n_sites >= 1")
    t = local.self_transition_table()
    a00, a01, a10, a11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
    disc = np.sqrt(complex((a00 - a11) ** 2 + 4 * a01 * a10))
    xp = (a00 + a11 + disc) / 2
    xm = (a00 + a11 - disc) / 2
    if abs(a01) <= 1e-12 or abs(xp - xm) <= 1e-12:
        return trace_path_sum(local, n_sites)
    lp = complex((a01 - a00 + xp) * (a00 + a01 - xm))
    lm = complex((a01 - a00 + xm) * (a00 + a01 - xp))
    xp, xm = complex(xp), complex(xm)
    num = xp ** (n_sites - 1) * lp - xm ** (n_sites - 1) * lm
    return complex(num / (a01 * (xp - xm)))
