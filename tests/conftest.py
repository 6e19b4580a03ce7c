"""Shared oracles for the test suite.

The global-operator oracle below is deliberately naive: each pair factor is
assembled entry by entry from configuration bits and the factors are
multiplied in sweep order.  It shares no code with the library builders.
"""

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
