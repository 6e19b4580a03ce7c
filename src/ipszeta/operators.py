"""Local and global operators for nearest-neighbour interacting particle systems.

A configuration is a point of {0,1}^n over the sites 0..n-1 of a path.  Site 0
is the most significant bit of a configuration's index, so for n = 3 the basis
vector of (0,1,0) is e_2 in C^8.  A local operator is a 4x4 table of transition
weights a[(k,l)][(i,j)] sending the adjacent-pair state (i,j) to (k,l); the
right site of a pair is never changed, so every entry with j != l must vanish
and at most 8 entries are nonzero.

The global operator on n sites is the product of local factors swept over the
pairs (0,1), (1,2), ..., (n-2,n-1), where the pair-(0,1) factor acts first on
a state.  For n = 1 the global operator is the 2x2 identity by convention.
Matrix-free actions apply the factors two pairs at a time through the dense
8x8 three-site block Q_3, in ceil((n-1)/2) passes over a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    LengthMismatch,
    ParamOutOfRange,
    SizeCapExceeded,
    SparsityViolation,
)

# The one size rule (see `_check_budget`): no entry point may peak above 4 GiB.
_BYTE_BUDGET = 1 << 32

# Bytes of a state that a sweep carries through all the passes it can make
# on them while they sit in L2: a column slab of the head passes, or a chunk
# of whole rows for the later passes (see `_sweep_2d`).
_SLAB_BYTES = 1 << 18

# Entry (row, col) of the 4x4 table is allowed iff the right bits agree,
# i.e. row % 2 == col % 2 with the pair ordering (0,0),(0,1),(1,0),(1,1).
_ALLOWED_MASK = np.array(
    [[(r % 2) == (c % 2) for c in range(4)] for r in range(4)], dtype=bool
)

# How far an entry may sit from the equalities that define CA, PCA and QCA.
_CLASSIFY_TOL = 1e-10


class OperatorKind(Enum):
    CA = "ca"
    PCA = "pca"
    QCA = "qca"
    GENERAL = "general"


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Validated 4x4 transition-weight table; immutable after construction."""

    matrix: np.ndarray
    label: str | None = None

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape == (16,):
            m = m.reshape(4, 4)
        if m.shape != (4, 4):
            raise ValueError("local operator needs a 4x4 (or flat 16) table, got %r" % (m.shape,))
        if not np.isfinite(m).all():
            raise ValueError("local operator entries must be finite, got %r"
                             % complex(m[~np.isfinite(m)][0]))
        for r, c in np.argwhere(~_ALLOWED_MASK):
            if m[r, c] != 0:
                raise SparsityViolation(r // 2, r % 2, c // 2, c % 2, m[r, c])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def entry(self, k: int, l: int, i: int, j: int) -> complex:
        """Weight a[(k,l)][(i,j)] of the transition (i,j) -> (k,l)."""
        return complex(self.matrix[2 * k + l, 2 * i + j])

    def column_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    def self_transition_table(self) -> np.ndarray:
        """2x2 table T[i,j] = a[(i,j)][(i,j)] of pairs mapped to themselves."""
        return self.matrix.diagonal().reshape(2, 2).copy()


def make_local_operator(entries, label: str | None = None) -> LocalOperator:
    """Build a local operator from a 4x4 (or flat, row-major 16) entry table.

    Rows index the target pair (k,l), columns the source pair (i,j), both in
    the order (0,0),(0,1),(1,0),(1,1).  Raises SparsityViolation if any entry
    that would change the right site is nonzero.
    """
    return LocalOperator(np.asarray(entries, dtype=complex), label)


def identity_local() -> LocalOperator:
    return make_local_operator(np.eye(4), label="identity")


def qca_rotation_local(xi: float) -> LocalOperator:
    """Rotation-type unitary local operator with angle xi.

    Both column blocks hold the same planar rotation, so the operator is
    unitary for every finite xi and reduces to the identity at xi = 0.
    """
    if not np.isfinite(xi):
        raise ParamOutOfRange("xi=%r must be finite" % (xi,))
    c, s = np.cos(xi), np.sin(xi)
    m = np.array(
        [
            [c, 0.0, -s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, s, 0.0, c],
        ]
    )
    return make_local_operator(m, label="qca-rotation(%g)" % xi)


def classify(local: LocalOperator) -> OperatorKind:
    """Classify a local operator as CA, PCA, QCA or GENERAL.

    CA: all allowed entries in {0,1}.  PCA: real entries in [0,1] with every
    column summing to 1 (transposed-stochastic).  QCA: the 4x4 table is
    unitary.  Each test holds to within 1e-10.  Checks run in that order, so
    a deterministic rule that is also stochastic (or unitary) still reports CA.
    """
    m, tol = local.matrix, _CLASSIFY_TOL
    vals = m[_ALLOWED_MASK]
    if np.all(np.minimum(np.abs(vals), np.abs(vals - 1)) <= tol):
        return OperatorKind.CA
    re, im = vals.real, vals.imag
    if (
        np.all(np.abs(im) <= tol)
        and np.all(re >= -tol)
        and np.all(re <= 1 + tol)
        and np.all(np.abs(local.column_sums() - 1) <= tol)
    ):
        return OperatorKind.PCA
    if np.max(np.abs(m.conj().T @ m - np.eye(4))) <= tol:
        return OperatorKind.QCA
    return OperatorKind.GENERAL


# --- configurations ---------------------------------------------------------


def config_index(bits) -> int:
    """Index of a bit tuple, site 0 most significant."""
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1, got %r" % (b,))
        idx = (idx << 1) | b
    return idx


def config_bits(index: int, n_sites: int) -> tuple:
    if not 0 <= index < (1 << n_sites):
        raise ValueError("index %d out of range for %d sites" % (index, n_sites))
    return tuple((index >> (n_sites - 1 - x)) & 1 for x in range(n_sites))


# --- global operators -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GlobalOperator:
    """Global operator on n sites with its dense matrix."""

    n_sites: int
    dense: np.ndarray


def _amount(x) -> str:
    """x in four significant figures, or as a power of two past float range."""
    return "2^%.1f" % math.log2(x) if isinstance(x, int) and x >= 2 ** 1024 else "%.4g" % x


def _charge(nbytes, what: str):
    """Refuse `what` if the `nbytes` it needs exceed the byte budget; call
    before allocating."""
    if nbytes > _BYTE_BUDGET:
        raise SizeCapExceeded("%s needs %s bytes, beyond the size cap of %s bytes"
                              % (what, _amount(nbytes), _amount(_BYTE_BUDGET)))


def _check_budget(n_sites: int, operators: float = 0, states: float = 0):
    """Refuse n < 1, or a peak of `operators` complex dense operators of Q_n
    (16*4**n bytes each) and `states` complex states (16*2**n bytes each)
    beyond the byte budget; call before allocating."""
    if n_sites < 1:
        raise ParamOutOfRange("need at least one site, got n=%d" % n_sites)
    _charge((round(16 * operators) << 2 * n_sites) + (round(16 * states) << n_sites),
            "n=%d" % n_sites)


def build_global_kronecker(local: LocalOperator, n_sites: int) -> GlobalOperator:
    """Dense global operator as the product of the Kronecker factors
    I_(2^j) (x) a (x) I_(2^(n-2-j)), factor j acting on the pair (j, j+1).

    The j = 0 factor is applied first.  The factors are never formed: the
    product is grown one site at a time, P_0 = a and
    P_j = (I_(2^j) (x) a) (P_(j-1) (x) I_2), the left factor applied as one
    pair's product in real arithmetic for a real table.  The build costs
    O(4^n) instead of the O(n 8^n) of multiplying dense factors.  The peak
    is 1.5 complex dense operators for a real table, 2.25 for a complex one
    (the last step holds P_(n-3), P_(n-3) (x) I_2 and the product).
    """
    a = _sweep_table(local.matrix)
    _check_budget(n_sites, operators=2.25 if a.dtype.kind == "c" else 1.5)
    if n_sites == 1:
        return GlobalOperator(1, np.eye(2, dtype=complex))
    p = a
    for j in range(1, n_sites - 1):
        m = p.shape[0]
        x = np.zeros((m, 2, m, 2), dtype=a.dtype)
        x[:, 0, :, 0] = x[:, 1, :, 1] = p
        p = np.matmul(a, x.reshape(1 << j, 4, -1)).reshape(2 * m, 2 * m)
        del x
    return GlobalOperator(n_sites, p.astype(complex))


def _recursion_step(local: LocalOperator, q: np.ndarray) -> np.ndarray:
    """Q_(m+1) from Q_m by the one-site block recursion, as one broadcast product.

    Adding a site on the left multiplies (I_2 (x) Q_m) by (Q_local (x) I), so
    entry ((k, r), (i, j, y)) of Q_(m+1) is a[(k,j),(i,j)] * Q_m[r, (j, y)].
    A real Q_m is multiplied by the table as `_sweep_table` gives it, so a
    real table keeps it real.
    """
    a = local.matrix if q.dtype.kind == "c" else _sweep_table(local.matrix)
    a3 = a.reshape(2, 2, 2, 2).diagonal(axis1=1, axis2=3)  # [k, i, j] = a[(k,j),(i,j)]
    d = q.shape[0]
    # C order keeps the reshape a view; the strided a3 would steer the layout
    out = np.multiply(a3[:, None, :, :, None], q.reshape(1, d, 1, 2, d // 2), order="C")
    return out.reshape(2 * d, 2 * d)


def build_global_recursive(local: LocalOperator, n_sites: int) -> GlobalOperator:
    """Dense global operator grown one site at a time by the block recursion,
    one broadcast product per site; it matches the Kronecker construction
    entrywise.  The peak is 1.25 complex dense operators: Q_(n-1) and Q_n.
    """
    _check_budget(n_sites, operators=1.25)
    q = np.eye(2, dtype=complex)
    for _ in range(n_sites - 1):
        q = _recursion_step(local, q)
    return GlobalOperator(n_sites, q)


def _sweep_table(matrix4: np.ndarray) -> np.ndarray:
    """The table the sweep multiplies by: its real part when the imaginary
    part is exactly zero (DK, CA, PCA, the QCA rotation), else the table."""
    return matrix4 if matrix4.imag.any() else matrix4.real


def _sweep_blocks(matrix4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks a sweep multiplies by: the table as `_sweep_table`
    gives it and the 8x8 three-site block Q_3 (the per-pair product applied
    to the identity).  Build them once for every sweep by the same table."""
    a = _sweep_table(matrix4)
    eye = np.eye(8, dtype=a.dtype)
    q3 = np.matmul(a, np.matmul(a, eye.reshape(1, 4, 16)).reshape(2, 4, 8)).reshape(8, 8)
    return a, q3


def _kron_eye(b: np.ndarray, r: int) -> np.ndarray:
    """kron(b^T, I_r): the rows of an (s, k r) array times it are b applied
    along the middle axis of its (s, k, r) view, for a k x k block b."""
    k = len(b)
    out = np.zeros((k, r, k, r), dtype=b.dtype)
    for i in range(r):
        out[:, i, :, i] = b.T
    return out.reshape(k * r, k * r)


def _sweep_2d(blocks: tuple[np.ndarray, np.ndarray], n_sites: int, states: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Write the global operator times a C-contiguous (2**n, b) batch of
    column states into `out` and return `out`, given its `_sweep_blocks`.
    `out` is C-contiguous, of the shape of `states` and of the sweep's
    result dtype (complex when the table or the states are); `states` is
    never written.  At n = 1, where the operator is the identity, `out`
    receives a copy of `states`.

    The factors go two pairs at a time: pairs j and j+1 act on sites j..j+2
    as the same block Q_3, which multiplies the 8-row blocks of the batch
    reshaped to (2**j, 8, R).  When n-1 is odd the table itself takes the
    last pair, so a sweep makes ceil((n-1)/2) passes, in the order of the
    factors.  A real table sweeps complex states as their interleaved
    float64 view, which the real factors act on entrywise.

    The passes are blocked for the cache at a split J: the smallest even
    number for which a row of the (2**J, rest) view fits `_SLAB_BYTES`, but
    no larger than keeps the slabs below at least as wide as tall (J <= 6 at
    256 KiB).
    - The head passes, j < J, move only the top J+1 sites, so each column
      of the (2**(J+1), rest) view evolves on its own: they run on slabs of
      about `_SLAB_BYTES` of columns, each slab through all of them.
    - The later passes act within each row of the (2**J, rest) view: they
      run on chunks of about `_SLAB_BYTES` of whole rows, each chunk
      through all of them.
    - A pass with R <= 4 and j > 0 is one 2-D product by kron(Q_3^T, I_R)
      (see `_kron_eye`) instead of its 2**j tiny ones; its exact zeros add
      no rounding.
    A block's passes write the result and one scratch buffer in turn, so
    that the last lands in the result: the sweep reads and writes the state
    twice and holds one buffer of a slab or a chunk beside it.
    """
    a, q3 = blocks
    as_real = a.dtype.kind == "f" and states.dtype.kind == "c"
    src, dst = ((x.view(np.float64) if as_real else x).reshape(-1) for x in (states, out))
    size, item = src.size, dst.itemsize
    passes = []  # (j, block, R)
    for j in range(0, n_sites - 1, 2):
        b = q3 if j + 2 < n_sites else a
        passes.append((j, b, size // (len(b) << j)))
    split = 0
    while (split < n_sites - 1 and (size >> split) * item > _SLAB_BYTES
           and (8 << split) ** 2 * item <= _SLAB_BYTES):
        split += 2
    head = [p for p in passes if p[0] < split]
    tail = [(b, r, _kron_eye(b, r) if r <= 4 and j else None) for j, b, r in passes[len(head):]]
    rows = 1 << min(split + 1, n_sites)  # of a slab: the top split+1 sites
    width = size // rows
    slab = min(width, max(1, _SLAB_BYTES // (rows * item))) if head else 0  # columns
    row = size >> split  # entries a row of the (2**split, rest) view
    chunk = min(size, max(1, _SLAB_BYTES // (row * item)) * row)  # entries, whole rows
    scratch = np.empty(max(rows * slab, chunk if tail else 0), dst.dtype)
    if head:
        cols_src, cols_dst = src.reshape(rows, width), dst.reshape(rows, width)
        for start in range(0, width, slab):
            x = cols_src[:, start:start + slab]
            res = cols_dst[:, start:start + slab]
            buf = scratch[:res.size].reshape(res.shape)
            for i, (j, b, _) in enumerate(head):
                y = (res, buf)[(len(head) - 1 - i) % 2]
                # (2**j, k, rest, columns): one product per k x columns block
                shape = (1 << j, len(b), rows // (len(b) << j), -1)
                np.matmul(b, x.reshape(shape).transpose(0, 2, 1, 3),
                          out=y.reshape(shape).transpose(0, 2, 1, 3))
                x = y
        src = dst
    # after head passes alone `dst` is the result; n = 1 copies in one chunk
    for start in range(0, 0 if head and not tail else size, chunk):
        x, res = src[start:start + chunk], dst[start:start + chunk]
        buf = scratch[:res.size]
        for i, (b, r, kron) in enumerate(tail):
            # alternate so that the last pass writes `res`, or, after the
            # head passes, so that the first does not write what it reads
            y = (res, buf)[(i + 1 if head else len(tail) - 1 - i) % 2]
            if kron is None:
                np.matmul(b, x.reshape(-1, len(b), r), out=y.reshape(-1, len(b), r))
            else:
                np.matmul(x.reshape(-1, len(kron)), kron, out=y.reshape(-1, len(kron)))
            x = y
        if x is not res:
            res[...] = x
    return out


def apply_matrix_free(local: LocalOperator, n_sites: int, state) -> np.ndarray:
    """Apply the global operator to a state vector without building a matrix.

    Sweeps the pair factors in order, two at a time through Q_3, which
    reproduces the dense operator's action up to rounding, into a new
    complex128 array (a copy of the state at n = 1); the input is never
    written.  The peak is 2 complex states, the complex copy of a real
    input and the result, beside the sweep's scratch buffer of a slab or a
    chunk (see `_sweep_2d`): at most the larger of `_SLAB_BYTES` and a 64th
    of the state, and never more than one state, so the 3 states charged
    bound it up to the few KiB of Q_3 and the narrow passes' kron blocks.
    """
    _check_budget(n_sites, states=3)
    v = np.asarray(state)
    if v.shape != (1 << n_sites,):
        raise LengthMismatch("state has shape %r, expected (%d,)" % (v.shape, 1 << n_sites))
    v = np.ascontiguousarray(v, dtype=complex).reshape(-1, 1)
    return _sweep_2d(_sweep_blocks(local.matrix), n_sites, v, np.empty_like(v)).ravel()


# --- sampling and random families -------------------------------------------


def _pair_update(occ: np.ndarray, draws: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The synchronous pair update behind every lattice update.

    New site x is occupied iff draws[..., x] < table[2*occ[..., x] + occ[..., x+1]],
    with all reads from the old 0/1 occupancy `occ`, which has one more site
    than `draws` along the last axis.  Leading axes batch independent lattices.
    """
    return draws < table[2 * occ[..., :-1] + occ[..., 1:]]


def sample_pca_step(local: LocalOperator, bits, rng) -> tuple:
    """One synchronous update of the pair dynamics on the path (PCA locals).

    Each site x < n-1 resamples from the column (bits[x], bits[x+1]) of the
    local operator, drawing one uniform per site, low site first; the last
    site never changes.  All reads use the old bits, matching the action of
    the global operator on basis states.
    """
    bits = np.asarray(tuple(bits), dtype=np.uint8)
    c = np.arange(4)
    ptab = local.matrix[2 + (c & 1), c].real  # P(left site becomes 1 | pair c)
    new = _pair_update(bits, rng.random(len(bits) - 1), ptab)
    return tuple(new.astype(int).tolist()) + (int(bits[-1]),)


def _haar_unitary_2(rng) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def random_local_operator(kind: str, rng, label: str | None = None) -> LocalOperator:
    """Draw a random local operator from a named family.

    Kinds: "pca" (uniform column pairs normalised to sum 1), "qca" (two Haar
    2x2 unitaries in the column blocks), "general" (complex Gaussian entries),
    "ca" (random deterministic rule) and "complex-stochastic" (complex column
    pairs summing to 1).
    """
    m = np.zeros((4, 4), dtype=complex)
    if kind == "pca":
        for c in range(4):
            j = c % 2
            u = rng.random(2)
            w = u / u.sum()
            m[j, c], m[2 + j, c] = w[0], w[1]
    elif kind == "qca":
        u0 = _haar_unitary_2(rng)
        u1 = _haar_unitary_2(rng)
        m[0, 0], m[0, 2], m[2, 0], m[2, 2] = u0[0, 0], u0[0, 1], u0[1, 0], u0[1, 1]
        m[1, 1], m[1, 3], m[3, 1], m[3, 3] = u1[0, 0], u1[0, 1], u1[1, 0], u1[1, 1]
    elif kind == "general":
        for r in range(4):
            for c in range(4):
                if _ALLOWED_MASK[r, c]:
                    m[r, c] = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
    elif kind == "ca":
        for c in range(4):
            j = c % 2
            m[j + 2 * rng.integers(0, 2), c] = 1.0
    elif kind == "complex-stochastic":
        # column sums are exactly 1 but entries are free complex numbers
        for c in range(4):
            j = c % 2
            z = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
            m[j, c], m[2 + j, c] = z, 1.0 - z
    else:
        raise ValueError("unknown random family %r" % (kind,))
    return make_local_operator(m, label or "random-%s" % kind)
