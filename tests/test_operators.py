import itertools
import tracemalloc

import numpy as np
import pytest

from ipszeta.errors import (
    LengthMismatch,
    ParamOutOfRange,
    SizeCapExceeded,
    SparsityViolation,
)
from ipszeta.operators import (
    OperatorKind,
    apply_matrix_free,
    build_global_kronecker,
    build_global_recursive,
    classify,
    config_bits,
    config_index,
    identity_local,
    make_local_operator,
    qca_rotation_local,
    random_local_operator,
    sample_pca_step,
)
from ipszeta import operators, zeta
from ipszeta.claims import verify_claim
from ipszeta.dk import DKParams, dk_local_operator

from conftest import oracle_global

FAMILIES = ("ca", "pca", "qca", "general", "complex-stochastic")


def test_sparsity_enforced():
    bad = np.zeros((4, 4))
    bad[0, 1] = 0.5  # target (0,0) from source (0,1): right site changes
    with pytest.raises(SparsityViolation) as ei:
        make_local_operator(bad)
    assert ei.value.index == (0, 0, 0, 1)
    assert ei.value.value == 0.5


def test_local_is_immutable():
    loc = identity_local()
    with pytest.raises(ValueError):
        loc.matrix[0, 0] = 5.0


def test_entry_accessor_and_column_sums():
    loc = dk_local_operator(DKParams(0.3, 0.8))
    assert loc.entry(1, 0, 1, 0) == pytest.approx(0.3)
    assert loc.entry(0, 0, 1, 0) == pytest.approx(0.7)
    assert loc.entry(1, 1, 1, 1) == pytest.approx(0.8)
    assert np.allclose(loc.column_sums(), 1.0)


def test_classification_order():
    assert classify(identity_local()) is OperatorKind.CA
    assert classify(dk_local_operator(DKParams(1.0, 0.0))) is OperatorKind.CA
    assert classify(dk_local_operator(DKParams(0.3, 0.8))) is OperatorKind.PCA
    assert classify(qca_rotation_local(0.7)) is OperatorKind.QCA
    gen = random_local_operator("general", np.random.default_rng(0))
    assert classify(gen) is OperatorKind.GENERAL


def test_classification_random_families(rng):
    for _ in range(25):
        assert classify(random_local_operator("pca", rng)) in (
            OperatorKind.CA, OperatorKind.PCA)
        assert classify(random_local_operator("qca", rng)) is OperatorKind.QCA
        assert classify(random_local_operator("ca", rng)) is OperatorKind.CA


def test_config_index_msb_first():
    assert config_index((0, 1, 0)) == 2
    assert config_index((1, 0, 0)) == 4
    assert config_index((0, 0, 1)) == 1
    for n in range(1, 7):
        for idx in range(1 << n):
            assert config_index(config_bits(idx, n)) == idx


def test_all_allowed_slots_accepted():
    allowed = np.array([[(r % 2) == (c % 2) for c in range(4)] for r in range(4)],
                       dtype=float)
    loc = make_local_operator(allowed)
    assert int(np.count_nonzero(loc.matrix)) == 8


def test_two_site_global_equals_local(rng):
    for fam in FAMILIES:
        loc = random_local_operator(fam, rng)
        assert np.abs(build_global_kronecker(loc, 2).dense - loc.matrix).max() == 0.0
        assert np.abs(build_global_recursive(loc, 2).dense - loc.matrix).max() < 1e-15


def test_two_site_blocks_dk():
    p = 0.35
    g = build_global_recursive(dk_local_operator(DKParams(p, 0.8)), 2)
    assert np.allclose(g.dense[:2, :2], [[1.0, 0.0], [0.0, 1.0 - p]])


def test_apply_basis_vector_xor_rule():
    loc = dk_local_operator(DKParams(1.0, 0.0))
    v = np.zeros(8, dtype=complex)
    v[config_index((0, 0, 1))] = 1.0
    out = apply_matrix_free(loc, 3, v)
    want = np.zeros(8, dtype=complex)
    want[config_index((0, 1, 1))] = 1.0
    assert np.array_equal(out, want)


def test_apply_single_site_is_identity(rng):
    loc = random_local_operator("general", rng)
    v = rng.standard_normal(2) + 0j
    assert np.array_equal(apply_matrix_free(loc, 1, v), v)


def test_single_site_global_is_identity(rng):
    for fam in FAMILIES:
        loc = random_local_operator(fam, rng)
        assert np.array_equal(build_global_kronecker(loc, 1).dense, np.eye(2))
        assert np.array_equal(build_global_recursive(loc, 1).dense, np.eye(2))


def test_builders_match_oracle(rng):
    for fam in FAMILIES:
        for n in range(2, 6):
            loc = random_local_operator(fam, rng)
            ref = oracle_global(loc, n)
            a = build_global_kronecker(loc, n).dense
            b = build_global_recursive(loc, n).dense
            scale = max(1.0, float(np.abs(ref).max()))
            assert np.abs(a - ref).max() / scale < 1e-12
            assert np.abs(b - ref).max() / scale < 1e-12


def test_three_site_column_expansion(rng):
    # column of config (0,0,1): right site fixed, four target configs
    loc = random_local_operator("general", rng)
    m = loc.matrix
    g = build_global_kronecker(loc, 3).dense
    col = g[:, config_index((0, 0, 1))]
    expected = np.zeros(8, dtype=complex)
    expected[config_index((0, 0, 1))] = m[0, 0] * m[1, 1]
    expected[config_index((0, 1, 1))] = m[0, 0] * m[3, 1]
    expected[config_index((1, 0, 1))] = m[2, 0] * m[1, 1]
    expected[config_index((1, 1, 1))] = m[2, 0] * m[3, 1]
    assert np.abs(col - expected).max() < 1e-14


def test_last_site_never_changes(rng):
    loc = random_local_operator("general", rng)
    g = build_global_kronecker(loc, 4).dense
    for col in range(16):
        for row in range(16):
            if (row & 1) != (col & 1) and g[row, col] != 0:
                raise AssertionError("last site changed")


def test_dense_caps():
    loc = identity_local()
    with pytest.raises(SizeCapExceeded):
        build_global_kronecker(loc, 15)
    with pytest.raises(ParamOutOfRange):
        build_global_recursive(loc, 0)


class _Admitted(Exception):
    pass


class _NoNumpy:
    """Stands in for numpy: the first array call proves the size was admitted."""

    def __getattr__(self, name):
        raise _Admitted(name)


def test_byte_budget_admits_largest_sizes(rng, monkeypatch):
    dk = dk_local_operator(DKParams(0.5, 0.75))
    general = random_local_operator("general", rng)
    cases = [
        (lambda n: build_global_recursive(dk, n), 13),
        (lambda n: build_global_kronecker(dk, n), 13),
        (lambda n: build_global_kronecker(general, n), 13),
        (lambda n: apply_matrix_free(general, n, None), 26),
        (lambda n: zeta.power_trace_coefficients(dk, n, 1), 14),
        (lambda n: zeta.zeta_log_series(general, n, 1), 14),
    ]
    # the admitted sizes would allocate GiB; numpy is stubbed so they stop
    # at their first array call, after the size check
    monkeypatch.setattr(operators, "np", _NoNumpy())
    monkeypatch.setattr(zeta, "np", _NoNumpy())
    for call, largest in cases:
        with pytest.raises(_Admitted):
            call(largest)
        with pytest.raises(SizeCapExceeded, match="cap"):
            call(largest + 1)


def test_matrix_free_matches_dense(rng):
    for fam in FAMILIES:
        for n in (1, 2, 3, 5, 8):
            loc = random_local_operator(fam, rng)
            d = build_global_kronecker(loc, n).dense
            v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            got = apply_matrix_free(loc, n, v)
            assert np.abs(got - d @ v).max() < 1e-11 * max(1.0, np.abs(d @ v).max())


def kernel_tables(rng):
    """One table of each kind the sweep kernel treats differently: real
    entries stored as complex (DK), the real unitary rotation, complex."""
    return (dk_local_operator(DKParams(0.45, 0.8)), qca_rotation_local(0.9),
            random_local_operator("general", rng))


def per_pair_sweep(matrix4, n_sites, states):
    """The previous sweep kernel: one pass over the batch per pair factor."""
    a = operators._sweep_table(matrix4)
    out = states
    as_real = np.isrealobj(a) and np.iscomplexobj(states)
    if as_real:
        out = states.view(np.float64)
    for j in range(n_sites - 1):
        out = np.matmul(a, out.reshape(1 << j, 4, -1))
    out = out.reshape(states.shape[0], -1)
    return out.view(states.dtype) if as_real else out


def test_kronecker_build_matches_identity_sweep(rng):
    # the site-by-site product against the previous builder, the per-pair
    # sweep applied to the identity columns (real ones for a real table)
    for loc in kernel_tables(rng):
        a = operators._sweep_table(loc.matrix)
        for n in range(1, 11):
            want = per_pair_sweep(loc.matrix, n, np.eye(1 << n, dtype=a.dtype))
            got = build_global_kronecker(loc, n).dense
            assert got.dtype == np.complex128
            assert np.array_equal(got, want), (loc.label, n)


class _PassRecorder:
    """Stands in for numpy inside `operators` and notes the rank of each
    product a sweep writes: 4 for a head pass on a column slab, 3 for a pass
    on a chunk of rows, 2 for a narrow pass taken as one 2-D product."""

    def __init__(self):
        self.ranks = set()

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, out=None):
        self.ranks.add(out.ndim)
        return np.matmul(*args, out=out)


def test_blocked_sweep_at_its_split_points(rng, monkeypatch):
    # two pairs a pass through Q_3, blocked for the cache, against one pass
    # a pair, which rounds differently: odd and even pair counts; head
    # passes only (small n, wide batches), chunked passes only (states
    # within a slab) and both, narrow passes included; real and complex
    # states under each table, each written into a buffer of the result
    # dtype, which the sweep returns
    recorder = _PassRecorder()
    seen, ranks = set(), set()
    sizes = ([(n, 1) for n in (*range(1, 17), 18)]
             + [(n, w) for n in range(1, 13) for w in (3, 256)] + [(3, 8192), (5, 8192)])
    for loc in kernel_tables(rng):
        blocks = operators._sweep_blocks(loc.matrix)
        for n, cols in sizes:
            for cplx in (False, True):
                states = rng.standard_normal((1 << n, cols))
                if cplx:
                    states = states + 1j * rng.standard_normal((1 << n, cols))
                keep = states.copy()
                want = per_pair_sweep(loc.matrix, n, states)
                out = np.empty(states.shape, want.dtype)
                recorder.ranks.clear()
                with monkeypatch.context() as m:
                    m.setattr(operators, "np", recorder)
                    got = operators._sweep_2d(blocks, n, states, out)
                assert got is out
                assert got.dtype == want.dtype and got.shape == want.shape
                err = np.abs(got - want).max()
                assert err <= 1e-13 * np.abs(want).max(), (loc.label, n, cols, cplx)
                assert np.array_equal(states, keep)
                head, rest = 4 in recorder.ranks, bool(recorder.ranks - {4})
                if recorder.ranks:
                    seen.add(("chunks", "head")[head] if head != rest else "both")
                ranks |= recorder.ranks
    assert seen == {"head", "chunks", "both"} and ranks == {2, 3, 4}


def test_matrix_free_peak_within_two_states_and_a_slab(rng):
    # the complex copy of a real input and the result, and one scratch
    # buffer of a slab or a chunk; the allowance covers Q_3, the narrow
    # passes' kron blocks and matmul's small scratch.  The scratch is never
    # more than a state, so the budget's charge of 3 states covers it
    n = 16
    for loc in kernel_tables(rng):
        for v in (rng.standard_normal(1 << n),
                  rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)):
            tracemalloc.start()
            try:
                apply_matrix_free(loc, n, v)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            states = 2 if v.dtype.kind == "f" else 1
            assert peak <= states * 16 * 2 ** n + operators._SLAB_BYTES + (64 << 10), \
                (loc.label, v.dtype, peak)


def old_block_grid(local, n_sites):
    """The previous recursive builder: a 4x4 grid of scaled quadrant copies
    of Q_m joined by np.block, one grid per added site."""
    a = local.matrix
    cur = np.eye(2, dtype=complex)
    for _ in range(n_sites - 1):
        h = cur.shape[0] // 2
        quad = ((cur[:h, :h], cur[:h, h:]), (cur[h:, :h], cur[h:, h:]))
        grid = []
        for r in range(4):
            row = []
            for c in range(4):
                coeff = a[2 * (r // 2) + (c % 2), 2 * (c // 2) + (c % 2)]
                row.append(coeff * quad[r % 2][c % 2])
            grid.append(row)
        cur = np.block(grid)
    return cur


def test_recursive_build_matches_block_grid(rng):
    # one broadcast product per site forms each entry as the same single
    # product of a table entry and an entry of Q_m as the grid did
    tables = (dk_local_operator(DKParams(0.45, 0.8)), random_local_operator("general", rng),
              random_local_operator("qca", rng))
    for loc in tables:
        for n in range(1, 12):
            got = build_global_recursive(loc, n).dense
            assert got.dtype == np.complex128
            assert np.array_equal(got, old_block_grid(loc, n)), (loc.label, n)


def test_kronecker_build_peak_within_budget_charge(rng):
    # the budget charges the Kronecker build 1.5 complex dense operators for
    # a real table, 2.25 for a complex one, and the recursive build 1.25
    # (Q_(n-1) and the product); the traced peak must not exceed the charge.
    # The recursive step's broadcast product takes a fixed ufunc buffer,
    # about 259 KiB, hence its larger allowance.
    n = 9
    for loc, charge in zip(kernel_tables(rng), (1.5, 1.5, 2.25)):
        for build, charged, allowance in ((build_global_kronecker, charge, 64 << 10),
                                          (build_global_recursive, 1.25, 512 << 10)):
            tracemalloc.start()
            try:
                build(loc, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= charged * 16 * 4 ** n + allowance, (build.__name__, loc.label, peak)


@pytest.mark.parametrize("claim, charged", [("build-recursion", 2.25), ("block-sums", 1.75)])
def test_dense_verify_whole_peak(claim, charged, rng):
    # a whole dense verify command, not one build: build-recursion holds the
    # Kronecker result beside the recursive build's 1.25 operators, block-sums
    # holds Q_(n-1), Q_n and its two quadrant sums E+G and F+H.  The allowance
    # covers the recursive step's ufunc buffer, as above.
    n = 9
    for loc in (dk_local_operator(DKParams(0.5, 0.75)), random_local_operator("general", rng)):
        tracemalloc.start()
        try:
            verify_claim(claim, [loc], n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charged * 16 * 4 ** n + (512 << 10), (loc.label, peak)


def test_matrix_free_matches_oracle_per_table_kind(rng):
    tables = kernel_tables(rng)
    for n in range(1, 9):
        for loc in tables:
            v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            want = oracle_global(loc, n) @ v
            got = apply_matrix_free(loc, n, v)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_matrix_free_result_is_new_complex_array(rng):
    for loc in kernel_tables(rng):
        for n in (1, 2, 5):
            w = rng.standard_normal(2 << n) + 1j * rng.standard_normal(2 << n)
            keep = w.copy()
            for v in (w[::2], w[: 1 << n], w[: 1 << n].real):
                out = apply_matrix_free(loc, n, v)
                assert out.dtype == np.complex128
                assert out is not v and not np.shares_memory(out, w)
                want = oracle_global(loc, n) @ v
                assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(w, keep)


def test_matrix_free_input_checks():
    loc = identity_local()
    with pytest.raises(LengthMismatch):
        apply_matrix_free(loc, 3, np.ones(5))
    with pytest.raises(SizeCapExceeded):
        apply_matrix_free(loc, 40, np.ones(4))


def test_matrix_free_does_not_mutate_input(rng):
    loc = random_local_operator("general", rng)
    v = rng.standard_normal(16) + 0j
    keep = v.copy()
    apply_matrix_free(loc, 4, v)
    assert np.array_equal(v, keep)


def test_sampler_matches_operator_columns(rng):
    # empirical one-step law vs the dense column of the transition matrix
    loc = dk_local_operator(DKParams(0.6, 0.8))
    n = 4
    start = (0, 1, 0, 1)
    col = build_global_kronecker(loc, n).dense[:, config_index(start)].real
    trials = 40000
    counts = np.zeros(1 << n)
    for _ in range(trials):
        counts[config_index(sample_pca_step(loc, start, rng))] += 1
    freq = counts / trials
    se = np.sqrt(np.maximum(col * (1 - col), 1e-12) / trials)
    assert np.all(np.abs(freq - col) < 3.5 * se + 1e-9)
    assert abs(freq.sum() - 1.0) < 1e-12


def test_sampler_matches_scalar_loop_reference():
    # one scalar uniform per site, low site first, from the column (bits[x], bits[x+1])
    def reference(local, bits, rng):
        out = list(bits)
        for x in range(len(bits) - 1):
            i, j = bits[x], bits[x + 1]
            out[x] = 1 if rng.random() < local.matrix[2 + j, 2 * i + j].real else 0
        return tuple(out)

    for seed in (0, 1, 2, 3):
        loc = random_local_operator("pca", np.random.default_rng(seed))
        start = tuple(np.random.default_rng(100 + seed).integers(0, 2, 9).tolist())
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        a, b = start, start
        for _ in range(20):
            a, b = sample_pca_step(loc, a, fast), reference(loc, b, slow)
            assert a == b
        assert fast.random() == slow.random()  # same number of draws consumed


def test_pair_update_matches_the_gathered_compare():
    # the reference gathers each site's threshold by its pair class.  Tables
    # over the levels {0, 0.25, 1} take every grouping of the four classes
    # (t0 > 0, t1 != t2, repeated, q = 1 and zero thresholds), beside two with
    # four distinct ones; draws in [0, 1) sit on each threshold, one float to
    # either side of it, and at 0
    def reference(occ, draws, table):
        return draws < table[2 * occ[..., :-1] + occ[..., 1:]]

    tables = [*itertools.product((0.0, 0.25, 1.0), repeat=4),
              (0.1, 0.2, 0.3, 0.4), (0.7, 0.3, 0.9, 0.05)]
    pairs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    rng = np.random.default_rng(3)
    for table in map(np.array, tables):
        edges = {0.0} | {np.nextafter(t, t + side) for t in table for side in (-1, 0, 1)}
        draws = np.array(sorted(d for d in edges if 0 <= d < 1))
        step = operators._pair_update(table)
        for dtype in (np.uint8, bool):
            # every pair class against every draw, on batch axes (class, draw)
            occ = np.broadcast_to(pairs[:, None], (4, len(draws), 2)).astype(dtype)
            u = np.broadcast_to(draws[:, None], (4, len(draws), 1))
            got = step(occ, u)
            assert got.dtype == bool and np.array_equal(got, reference(occ, u, table)), table
            # lattices read with overlapping pairs, batched and alone
            occ = rng.integers(0, 2, (3, 2, 17)).astype(dtype)
            u = rng.choice(draws, (3, 2, 16))
            assert np.array_equal(step(occ, u), reference(occ, u, table)), table
            assert np.array_equal(step(occ[1, 0], u[1, 0]), reference(occ[1, 0], u[1, 0], table))


def test_qca_rotation_local_unitary():
    for xi in (0.3, 1.0, np.pi / 3):
        m = qca_rotation_local(xi).matrix
        assert np.abs(m.conj().T @ m - np.eye(4)).max() < 1e-14


def test_random_families_have_expected_structure(rng):
    for _ in range(20):
        pca = random_local_operator("pca", rng).matrix
        assert np.abs(pca.sum(axis=0) - 1.0).max() < 1e-12
        assert pca.real.min() >= 0 and np.abs(pca.imag).max() == 0
        qca = random_local_operator("qca", rng).matrix
        assert np.abs(qca.conj().T @ qca - np.eye(4)).max() < 1e-12
        cs = random_local_operator("complex-stochastic", rng).matrix
        assert np.abs(cs.sum(axis=0) - 1.0).max() < 1e-12
        ca = random_local_operator("ca", rng).matrix
        assert set(np.unique(ca.real)) <= {0.0, 1.0}
