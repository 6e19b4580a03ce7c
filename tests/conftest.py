"""Shared oracles for the test suite.

The global-operator oracle below is deliberately naive: each pair factor is
assembled entry by entry from configuration bits and the factors are
multiplied in sweep order.  It shares no code with the library builders.
`exact_dk_traces` is exact: rational arithmetic on the dense operator, with
no library code at all.
"""

from fractions import Fraction

import numpy as np
import pytest

from ipszeta.operators import config_bits, make_local_operator


def pair_factor_dense(matrix4, n_sites, j):
    """Dense factor for the pair (j, j+1), all other sites untouched."""
    dim = 1 << n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        xb = config_bits(col, n_sites)
        for row in range(dim):
            yb = config_bits(row, n_sites)
            if any(yb[s] != xb[s] for s in range(n_sites) if s not in (j, j + 1)):
                continue
            out[row, col] = matrix4[2 * yb[j] + yb[j + 1], 2 * xb[j] + xb[j + 1]]
    return out


def oracle_global(local, n_sites):
    """Reference global operator; pair (0, 1) acts first."""
    if n_sites == 1:
        return np.eye(2, dtype=complex)
    dim = 1 << n_sites
    out = np.eye(dim, dtype=complex)
    for j in range(n_sites - 1):
        out = pair_factor_dense(local.matrix, n_sites, j) @ out
    return out


def oracle_c_r(local, n_sites, r):
    """Normalized power trace straight from the dense oracle."""
    g = oracle_global(local, n_sites)
    return np.trace(np.linalg.matrix_power(g, r)) / (1 << n_sites)


def exact_dk_traces(p, q, n_sites, r_max):
    """tr(Q^r) for r = 1..r_max of the n-site Domany-Kinzel operator at
    rational (p, q), exactly: the pair (i, j) -> (k, j) has weight f(i + j)
    for k = 1 and 1 - f(i + j) for k = 0, with f = (0, p, q); the pair
    factors are multiplied pair (0, 1) first, site 0 the most significant
    bit, all in `Fraction`s."""
    f = (Fraction(0), Fraction(p), Fraction(q))
    dim = 1 << n_sites
    bits = [[(x >> (n_sites - 1 - s)) & 1 for s in range(n_sites)] for x in range(dim)]

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(dim) if a[i][k]) for j in range(dim)]
                for i in range(dim)]

    op = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for s in range(n_sites - 1):
        factor = [[Fraction(0)] * dim for _ in range(dim)]
        for col in range(dim):
            x = bits[col]
            birth = f[x[s] + x[s + 1]]
            for k in (0, 1):
                y = x[:s] + [k] + x[s + 1:]
                factor[int("".join(map(str, y)), 2)][col] = birth if k else 1 - birth
        op = matmul(factor, op)
    traces, power = [], op
    for r in range(1, r_max + 1):
        traces.append(sum(power[i][i] for i in range(dim)))
        power = matmul(op, power)
    return traces


def ca_rules():
    """The 16 deterministic pair rules: column c sends its pair to one row."""
    rules = []
    for rule in range(16):
        m = np.zeros((4, 4))
        for c in range(4):
            m[2 * ((rule >> c) & 1) + c % 2, c] = 1.0
        rules.append(make_local_operator(m, "ca-%d" % rule))
    return rules


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def unit_sum_unitary_local(rng):
    """Unitary local table with unit column sums.

    Each column block is U = P+ + exp(i phi) P-, where P+/- project onto
    (1, +/-1)/sqrt(2): U is unitary and (1, 1) U = (1, 1).
    """
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    m = np.zeros((4, 4), dtype=complex)
    for l in (0, 1):
        u = plus + np.exp(1j * rng.uniform(0.0, 2 * np.pi)) * minus
        m[np.ix_((l, 2 + l), (l, 2 + l))] = u
    return make_local_operator(m, label="unit-sum-unitary")


def large_stochastic():
    """Complex-stochastic table with entries near 1e4: its columns sum to 1,
    but its block certificates fail from n = 4 on."""
    m = np.zeros((4, 4), dtype=complex)
    for c in range(4):
        z = 1e4 * (0.6 + 0.8j) * (1 + 0.1 * c)
        m[c % 2, c], m[2 + c % 2, c] = z, 1 - z
    return make_local_operator(m, "large-stochastic")


def half_unit_sums():
    """The DK table at p = 1/2, q = 3/4 with the columns of half 1 scaled
    by 0.9: the columns of half 0 sum to 1, those of half 1 to 0.9."""
    m = np.array([[1, 0, 0.5, 0], [0, 0.5, 0, 0.25], [0, 0, 0.5, 0], [0, 0.5, 0, 0.75]])
    m[:, 1::2] *= 0.9
    return make_local_operator(m, "half-unit-sums")
