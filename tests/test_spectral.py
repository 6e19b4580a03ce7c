import math
import tracemalloc

import numpy as np
import pytest

from ipszeta.claims import CLAIMS, Claim, verify_claim
from ipszeta.cli import main
from ipszeta.dk import DKParams, dk_local_operator, dk_reference_spectrum_n3
from ipszeta import spectral, zeta
from ipszeta.errors import NoConvergence, ParamOutOfRange, SizeCapExceeded
from ipszeta.operators import (
    _recursion_step,
    build_global_recursive,
    make_local_operator,
    qca_rotation_local,
    random_local_operator,
)
from ipszeta.spectral import (
    HistogramGrid,
    SpectrumMultiset,
    block_certificate,
    eig_dense,
    histogram,
    match_multisets,
    shift_coefficients,
    spectrum,
    t_case_spectrum,
    trace_closed_form,
    trace_path_sum,
)
from ipszeta.zeta import power_trace_coefficients, zeta_det

from conftest import ca_rules, half_unit_sums, large_stochastic, oracle_global


def mk(pairs):
    vals = [v for v, _ in pairs]
    mults = [m for _, m in pairs]
    return SpectrumMultiset.from_pairs(vals, mults, sum(mults))


def test_multiset_clusters_near_duplicates():
    eigs = np.array([1.0, 1.0 + 3e-9, 0.5, 0.5 - 2e-9j, -0.25])
    spec = SpectrumMultiset.from_eigenvalues(eigs, cluster_tol=1e-6)
    assert spec.total == 5
    assert sorted(spec.multiplicities.tolist()) == [1, 2, 2]


def test_multiset_expand_roundtrip():
    spec = mk([(0.5, 3), (1.0, 1)])
    back = SpectrumMultiset.from_eigenvalues(spec.expand(), cluster_tol=1e-12)
    ok, dist = match_multisets(spec, back, 1e-12)
    assert ok and dist < 1e-15


def test_multiset_total_must_match_dim():
    with pytest.raises(ParamOutOfRange):
        SpectrumMultiset(values=np.array([1.0 + 0j]),
                         multiplicities=np.array([3]), source_dim=2)


def test_multiset_arrays_must_match():
    with pytest.raises(ParamOutOfRange, match="matching"):
        SpectrumMultiset(values=np.array([1.0, 2.0]), multiplicities=np.array([2]), source_dim=2)


def test_moment_matches_direct_sum():
    spec = mk([(0.5 + 0.5j, 2), (-1.0, 1), (0.25, 1)])
    direct = sum(m * v**3 for v, m in zip(spec.values, spec.multiplicities))
    assert abs(spec.moment(3) - direct) < 1e-14


def test_match_multisets_detects_mismatch():
    a = mk([(1.0, 1), (0.5, 1)])
    b = mk([(1.0, 1), (0.5 + 1e-3, 1)])
    ok, dist = match_multisets(a, b, 1e-7)
    assert not ok and dist > 1e-4
    c = mk([(1.0, 3)])
    assert match_multisets(a, c, 1e-7) == (False, float("inf"))


def test_eig_dense_residual_and_caps(rng):
    m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    spec = eig_dense(m)
    assert spec.total == 32
    assert abs(spec.moment(1) - np.trace(m)) < 1e-9 * max(1.0, abs(np.trace(m)))
    with pytest.raises(SizeCapExceeded):
        eig_dense(np.zeros((1025, 1025)))
    for shape in ((0, 0), (3, 2), (4,)):
        with pytest.raises(ValueError):
            eig_dense(np.zeros(shape))


def test_solver_failure_is_no_convergence(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", failing)
    with pytest.raises(NoConvergence, match="dense eigensolver failed: Eigenvalues did not"):
        eig_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_eig_cap_refuses_before_dense_build(capsys):
    # at n = 12 the dense operator alone is 256 MiB; each refusal must come first.
    # spectrum and zeta_det solve last-site halves: DK's largest block, a half
    # of Q_(n-1) D_(n-1), is 2^(n-2), beyond the block route's reach at n = 13,
    # so both halves would be solved whole, 2^(n-1), and it is refused there;
    # a GENERAL table solves the halves of Q_n, 2^(n-1), and is refused at n = 12.
    dk = dk_local_operator(DKParams(0.3, 0.6))  # shift family, t = 0.3
    general = random_local_operator("general", np.random.default_rng(0))
    refusals = [
        lambda: zeta_det(dk, 13, 0.1),
        lambda: zeta_det(general, 12, 0.1),
        lambda: spectrum(general, 12),
        lambda: spectrum(large_stochastic(), 12),  # refused where its certificate fails
        lambda: verify_claim("spectral-recursion", [dk], 10),
        lambda: verify_claim("derived-halves", [dk], 11),
        lambda: main(["spectrum", "--model", "dk", "--p", "0.3", "--q", "0.6", "--n", "13"]),
        lambda: main(["verify", "t-family", "--model", "dk", "--p", "0.3", "--q", "0.6",
                      "--n", "11"]),
    ]
    for refuse in refusals:
        tracemalloc.start()
        try:
            try:
                code = refuse()
            except SizeCapExceeded:
                code = 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 4 << 20
    assert "eigensolver cap" in capsys.readouterr().err


def test_three_site_closed_spectrum(rng):
    # six-eigenvalue closed multiset for the two-parameter model at n=3
    for _ in range(20):
        p, q = rng.uniform(0.05, 0.95, size=2)
        loc = dk_local_operator(DKParams(p, q))
        got = eig_dense(build_global_recursive(loc, 3).dense)
        want = dk_reference_spectrum_n3(DKParams(p, q))
        ok, dist = match_multisets(got, want, 1e-8)
        assert ok, "p=%g q=%g dist=%g" % (p, q, dist)


def test_reference_spectrum_frozen_cases():
    xor = dk_reference_spectrum_n3(DKParams(1.0, 0.0))
    want = mk([(1.0, 4), (-1.0, 2), (1j, 1), (-1j, 1)])
    ok, dist = match_multisets(xor, want, 1e-12)
    assert ok and dist < 1e-14

    half = dk_reference_spectrum_n3(DKParams(0.5, 0.5))
    want = mk([(1.0, 2), (0.5, 2), (0.0, 3), (0.25, 1)])
    ok, dist = match_multisets(half, want, 1e-12)
    assert ok, dist
    assert abs(half.moment(1) - 3.25) < 1e-12  # cross-check against the trace

    shift = dk_reference_spectrum_n3(DKParams(0.3, 0.6))
    ok, dist = match_multisets(shift, t_case_spectrum(0.3, 3), 1e-10)
    assert ok, dist


def test_t_case_spectrum_counts():
    for n in (1, 2, 3, 6):
        spec = t_case_spectrum(0.4, n)
        assert spec.total == 1 << n
    z = t_case_spectrum(0.0, 3)
    lookup = {complex(v): int(m) for v, m in zip(z.values, z.multiplicities)}
    assert lookup[1.0 + 0j] == 2  # t^0 stays 1 even at t=0


def test_shift_coefficients_dk():
    p, q = 0.3, 0.6
    t0, t1 = shift_coefficients(dk_local_operator(DKParams(p, q)))
    assert t0 == pytest.approx(p)
    assert t1 == pytest.approx(q - p)


def test_spectral_recursion_stochastic_classes(rng):
    for fam in ("ca", "pca", "complex-stochastic"):
        for _ in range(10):
            loc = random_local_operator(fam, rng)
            for n in (1, 2, 3):
                rep = verify_claim("spectral-recursion", [loc], n, tol=1e-7)
                assert rep.passed, (fam, n, rep.worst_residual)


def test_spectral_recursion_near_defective_pca():
    # draw 21 of seed 0: the matched eigenvalue distance at n=3 is ~5e-7,
    # beyond tol, while the block certificate holds to rounding
    rng = np.random.default_rng(0)
    for _ in range(22):
        loc = random_local_operator("pca", rng)
    rep = verify_claim("spectral-recursion", [loc], 3, tol=1e-7)
    assert rep.passed
    assert rep.worst_residual < 1e-14
    assert "eigenvalue_distance" in rep.details
    # C_r of Q_4 from the certified blocks against the paired sweep
    assert rep.details["trace_error"] <= 1e-13


def test_block_certificate_shift_family():
    loc = dk_local_operator(DKParams(0.3, 0.6))
    small = build_global_recursive(loc, 3).dense
    big = build_global_recursive(loc, 4).dense
    assert block_certificate(big, small, 0.3) < 1e-15
    # the wrong shift leaves H - G = 0.3 Q_3 unmatched
    assert block_certificate(big, small, 0.4) > 0.01
    # without unit column sums E + G = Q_3 D_0 differs from Q_3
    rot = qca_rotation_local(0.9)
    rsmall = build_global_recursive(rot, 3).dense
    rbig = build_global_recursive(rot, 4).dense
    assert block_certificate(rbig, rsmall, shift_coefficients(rot)[0]) > 0.1


def test_spectral_recursion_unitary_counterexample(rng):
    # the multiset identity needs unit column sums; rotations break it
    loc = qca_rotation_local(0.9)
    rep = verify_claim("spectral-recursion", [loc], 2, tol=1e-7)
    assert rep.passed is None
    assert rep.worst_residual > 0.1


def test_trace_agreement_three_ways(rng):
    for fam in ("ca", "pca", "qca", "general", "complex-stochastic"):
        for n in (1, 2, 3, 4, 5):
            loc = random_local_operator(fam, rng)
            dense = np.trace(oracle_global(loc, n))
            scale = max(1.0, abs(dense))
            assert abs(trace_path_sum(loc, n) - dense) / scale < 1e-10
            assert abs(trace_closed_form(loc, n) - dense) / scale < 1e-10


def test_trace_frozen_values():
    half = dk_local_operator(DKParams(0.5, 0.5))
    assert abs(trace_path_sum(half, 3) - 3.25) < 1e-12
    assert abs(trace_closed_form(half, 3) - 3.25) < 1e-12
    xor = dk_local_operator(DKParams(1.0, 0.0))
    # a_01^01 = 0 here, so the closed form takes the degenerate fallback
    assert abs(trace_closed_form(xor, 3) - 2.0) < 1e-12
    assert abs(trace_path_sum(xor, 3) - 2.0) < 1e-12
    assert trace_path_sum(half, 1) == 2.0
    loc = dk_local_operator(DKParams(0.3, 0.8))
    assert abs(trace_path_sum(loc, 2) - np.trace(loc.matrix)) < 1e-14


def test_trace_closed_form_degenerate_fallback(rng):
    entries = np.zeros((4, 4))
    entries[0, 0] = 0.7
    entries[2, 0] = 0.3
    entries[1, 1] = 1.0
    entries[2, 2] = 0.4
    entries[0, 2] = 0.6
    entries[3, 3] = 0.9
    entries[1, 3] = 0.1
    # the first self-transition table is diagonal, so the quadratic
    # degenerates; the second's roots sit 2e-9 apart, where the closed form
    # read 2.8e-8 from the path sum before falling back there
    for loc in (make_local_operator(entries),
                make_local_operator(np.diag([0.5, 1.0, 1e-18, 0.5]))):
        for n in (2, 3, 5):
            dense = np.trace(oracle_global(loc, n))
            assert abs(trace_closed_form(loc, n) - dense) < 1e-12 * max(1.0, abs(dense))
        assert verify_claim("trace-formulas", [loc], 8).passed


def test_histogram_totals_and_overflow():
    spec = mk([(0.99 + 0.99j, 2), (-1.0 - 1.0j, 1), (1.2, 3), (0.0, 2)])
    grid = histogram(spec, bin_size=0.05)
    assert grid.overflow == 3
    assert grid.counts.sum() == 5
    assert grid.counts.sum() + grid.overflow == spec.total
    assert grid.n_bins == 40


def test_histogram_closed_upper_edge():
    spec = mk([(1.0, 1), (-1.0, 1)])
    grid = histogram(spec, bin_size=0.05)
    assert grid.overflow == 0
    assert grid.counts[39, 20] == 1
    assert grid.counts[0, 20] == 1


def test_verification_report_fields(rng):
    loc = random_local_operator("pca", rng)
    rep = verify_claim("spectral-recursion", [loc], 2, tol=1e-7)
    assert rep.claim == "spectral-recursion"
    assert rep.n_sites == 2
    assert rep.tol == 1e-7
    assert rep.worst_residual >= 0.0
    assert rep.details["domain"] == "unit column sums"
    assert rep.details["cases"] == [{"residual": rep.worst_residual, "in_domain": True}]
    with pytest.raises(ParamOutOfRange):
        verify_claim("spectral-recursion", [], 2)


@pytest.mark.parametrize("claim", ["build-recursion", "block-sums", "trace-formulas"])
def test_non_finite_residual_fails_in_either_order(claim):
    # the GENERAL table scaled by 1e150 overflows at n = 8: its NaN residual
    # fails the claim wherever it comes, where Python's max would skip it
    # after a finite one.  The paired sweep behind trace-formulas refuses
    # its overflowing trace instead, in either order
    table = random_local_operator("general", np.random.default_rng(0))
    tables = [table, make_local_operator(table.matrix * 1e150)]
    outcomes = []
    for order in (tables, tables[::-1]):
        with np.errstate(all="ignore"):
            try:
                rep = verify_claim(claim, order, 8)
            except FloatingPointError as exc:
                outcomes.append(str(exc))
                continue
        assert rep.passed is False and math.isnan(rep.worst_residual)
        assert sum(math.isnan(case["residual"]) for case in rep.details["cases"]) == 1
        outcomes.append("failed")
    assert outcomes[0] == outcomes[1]


def test_non_finite_side_measure_is_kept(monkeypatch):
    # a side measure's maximum over the tables is NaN if any table's is
    table = dk_local_operator(DKParams(0.5, 0.75))
    for measures in ([1.0, math.nan], [math.nan, 1.0]):
        values = iter(measures)
        monkeypatch.setitem(CLAIMS, "build-recursion", Claim(
            "every table", lambda local: True,
            lambda local, n, r: (0.0, {"distance": next(values)}), 1e-12))
        rep = verify_claim("build-recursion", [table, table], 2)
        assert rep.passed is True and math.isnan(rep.details["distance"])


# --- the real solve and the one-pass bookkeeping ----------------------------


def real_tables(rng):
    return {"dk": dk_local_operator(DKParams(0.5, 0.75)),
            "bond": dk_local_operator(DKParams.bond_percolation(0.6)),
            "pca": random_local_operator("pca", rng)}


def conjugate(spec):
    return SpectrumMultiset(spec.values.conj(), spec.multiplicities, spec.source_dim)


def test_eig_dense_real_tables_conjugation_closed(rng):
    cases = [(key, loc, n) for key, loc in real_tables(rng).items() for n in range(2, 8)]
    # the shift family t = 0.3 scatters its defective clusters across the
    # real axis, where greedy clustering in (real, imag) order alone breaks closure
    cases += [("dk(0.3, 0.6)", dk_local_operator(DKParams(0.3, 0.6)), n) for n in (8, 9)]
    for key, loc, n in cases:
        q = build_global_recursive(loc, n).dense
        spec = eig_dense(q)
        for got in (spec, spectrum(loc, n)):
            assert match_multisets(got, conjugate(got), 0.0)[0], (key, n)
        w = np.linalg.eigvals(q.astype(np.complex128))
        if n <= 4:
            ref = SpectrumMultiset.from_eigenvalues(w, 1e-6)
            ok, dist = match_multisets(spec, ref, 1e-8)
            assert ok, (key, n, dist)
        # beyond n = 4 defective clusters scatter as eps^(1/m) in either
        # solver; their power sums stay sharp
        for r in range(1, 9):
            assert abs(spec.moment(r) - np.sum(w ** r)) <= 1e-12 * (1 << n), (key, n, r)


def test_from_eigenvalues_mirrors_conjugation_closed_input(rng):
    # tol 1: one greedy pass in (real, imag) order (per_value_from_eigenvalues) puts
    # -0.375i, 0.375i and 0.25-0.875i in one cluster and 0.25+0.875i in
    # another, a result not closed
    straddle = np.array([-0.375j, 0.375j, 0.25 - 0.875j, 0.25 + 0.875j])
    got = SpectrumMultiset.from_eigenvalues(straddle, 1.0)
    assert got.values.tolist() == [0.125 - 0.625j, 0.125 + 0.625j]
    assert got.multiplicities.tolist() == [2, 2]
    assert not same_multiset(per_value_from_eigenvalues(straddle, 1.0), got)
    # a cluster with a real member, or a mean within tol/2 of the axis, is one
    # real cluster counting both halves; the others come as conjugate pairs
    eigs = np.array([3.0, 3.0 + 0.75j, 3.0 - 0.75j, 5.0 + 0.375j, 5.0 - 0.375j,
                     7.0 + 0.5j, 7.0 - 0.5j, 7.25 + 0.75j, 7.25 - 0.75j])
    got = SpectrumMultiset.from_eigenvalues(rng.permutation(eigs), 1.0)
    assert got.values.tolist() == [3.0, 5.0, 7.125 - 0.625j, 7.125 + 0.625j]
    assert got.multiplicities.tolist() == [3, 2, 2, 2]
    # equivariant and closed on a real solve's output, whatever the input order
    q = build_global_recursive(dk_local_operator(DKParams(0.3, 0.6)), 7).dense
    w = np.linalg.eigvals(q.real)
    for tol in (1e-6, 2.0 ** -10, 0.0625):
        got = SpectrumMultiset.from_eigenvalues(w, tol)
        assert same_multiset(got, SpectrumMultiset.from_eigenvalues(w[::-1].conj(), tol))
        assert same_multiset(got, SpectrumMultiset.from_eigenvalues(rng.permutation(w), tol))
        assert match_multisets(got, conjugate(got), 0.0)[0] and got.total == len(w)


def test_eig_dense_real_path_still_checks_residuals(monkeypatch):
    # DK's half 0 splits down to 1 x 1 blocks, which are their own
    # eigenvalues and never reach the solver; the first block solved, the
    # 2 x 2 (1/2) M_1, fails in real arithmetic
    q = build_global_recursive(dk_local_operator(DKParams(0.5, 0.75)), 4).dense
    seen = []
    true_eig = np.linalg.eig

    def perturbed(a):
        seen.append((a.dtype, a.shape))
        w, v = true_eig(a)
        return w, v + 1e-3
    monkeypatch.setattr(np.linalg, "eig", perturbed)
    with pytest.raises(NoConvergence, match="residual"):
        eig_dense(q)
    assert seen == [(np.float64, (2, 2))]


def test_one_by_one_blocks_skip_the_solver(eig_shapes):
    # a finite 1 x 1 block is its own eigenvalue, in its own dtype; a
    # non-finite one still raises
    for a, dtype in ((np.array([[0.25]]), np.float64), (np.array([[0.5 - 2j]]), complex),
                     (np.array([[3.0 + 0j]]), np.float64)):
        got = spectral._eigvals_checked(a)
        assert got.tolist() == [a[0, 0]] and got.dtype == dtype
    assert eig_shapes == []
    for bad in (np.nan, np.inf, complex(0, np.inf)):
        with pytest.raises(NoConvergence):
            spectral._eigvals_checked(np.array([[bad]]))


def split_tables(rng):
    return {"dk": dk_local_operator(DKParams(0.5, 0.75)),
            "general": random_local_operator("general", rng),
            "qca": random_local_operator("qca", rng)}


def test_last_site_split_power_sums_match_whole_solve(rng):
    # the halves' spectra united equal the whole complex matrix's: power sums
    # to 1e-12 * 2^n, scaled by rho^r where the table's radius exceeds 1
    for key, loc in split_tables(rng).items():
        for n in range(2, 9):
            q = build_global_recursive(loc, n).dense
            spec = eig_dense(q)
            w = np.linalg.eigvals(q.astype(np.complex128))
            rho = max(1.0, float(np.abs(w).max()))
            for r in range(1, 9):
                err = abs(spec.moment(r) - np.sum(w ** r))
                assert err <= 1e-12 * (1 << n) * rho ** r, (key, n, r, err)


@pytest.fixture
def eig_shapes(monkeypatch):
    """Shapes of the matrices handed to np.linalg.eig, in call order."""
    shapes = []
    true_eig = np.linalg.eig

    def recording(a):
        shapes.append(a.shape)
        return true_eig(a)
    monkeypatch.setattr(np.linalg, "eig", recording)
    return shapes


def test_last_site_split_solves_two_halves(rng, eig_shapes):
    tables = split_tables(rng)
    for key in ("general", "qca"):
        eig_shapes.clear()
        eig_dense(build_global_recursive(tables[key], 6).dense)
        assert eig_shapes == [(32, 32), (32, 32)], key
    # DK's half table M_0 is triangular, so half 0 splits again at every
    # site, down to 1 x 1 blocks that need no solve; half 1 is solved whole
    eig_shapes.clear()
    q = build_global_recursive(tables["dk"], 6).dense
    eig_dense(q)
    assert eig_shapes == [(2, 2), (4, 4), (8, 8), (16, 16), (32, 32)]
    # one tiny entry in each cross block: the single full-size solve
    q[1, 0] = q[0, 1] = 1e-300
    eig_shapes.clear()
    got = spectral._eigvals_checked(q)
    assert eig_shapes == [(64, 64)]
    assert np.array_equal(got, np.linalg.eig(q.real)[0])
    # one of them alone leaves the matrix block triangular: its diagonal
    # blocks are solved on their own
    q[0, 1] = 0
    eig_shapes.clear()
    got = spectral._eigvals_checked(q)
    assert eig_shapes == [(2, 2), (4, 4), (8, 8), (16, 16), (32, 32)]
    halves = [spectral._eigvals_checked(q[c::2, c::2]) for c in (0, 1)]
    assert np.array_equal(got, np.concatenate(halves))


def per_value_from_eigenvalues(eigs, cluster_tol):
    """Greedy clustering one value at a time: running means steer it, and
    each cluster's value is its members' mean taken from `math.fsum`."""
    eigs = np.asarray(eigs, dtype=complex).ravel()
    means, members = [], []
    for z in eigs[np.lexsort((eigs.imag, eigs.real))]:
        if means:
            d = np.abs(np.array(means) - z)
            j = int(d.argmin())
            if d[j] <= cluster_tol:
                members[j].append(z)
                means[j] += (z - means[j]) / len(members[j])
                continue
        means.append(z)
        members.append([z])
    values = np.array([complex(math.fsum(z.real for z in g) / len(g),
                               math.fsum(z.imag for z in g) / len(g)) for g in members])
    counts = np.array([len(g) for g in members], dtype=np.int64)
    order = np.lexsort((values.imag, values.real))
    return SpectrumMultiset(values[order], counts[order], len(eigs))


def old_histogram(spec, bin_size):
    low, high = -1.0, 1.0
    n_bins = int(np.ceil((high - low) / bin_size - 1e-9))
    counts = np.zeros((n_bins, n_bins), dtype=np.int64)
    overflow = 0

    def index(v):
        return None if v < low or v > high else min(int((v - low) / bin_size), n_bins - 1)
    for v, m in zip(spec.values, spec.multiplicities):
        ix, iy = index(v.real), index(v.imag)
        if ix is None or iy is None:
            overflow += int(m)
        else:
            counts[ix, iy] += int(m)
    return HistogramGrid(bin_size, counts, overflow)


def same_multiset(a, b):
    return (a.values.tobytes() == b.values.tobytes()
            and np.array_equal(a.multiplicities, b.multiplicities)
            and a.source_dim == b.source_dim)


def hard_eigenvalues(rng, tol):
    """Exact repeats, conjugate pairs, values tol apart and values
    equidistant from two clusters, on top of a defective DK spectrum.  With
    a power-of-two tol the offsets from 0.5 and 0.25+0.5j are exact."""
    q = build_global_recursive(dk_local_operator(DKParams(0.5, 0.75)), 6).dense
    w = np.linalg.eigvals(q)
    z = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    ties = [0.5, 0.5 + tol, 0.5 + 2 * tol, 0.5 - tol, 0.25 + 0.5j, 0.25 + 0.5j + tol * 1j,
            0.3, 0.3 + 2 * tol, 0.3 + tol, 0.3 + tol * (1 + 1e-12), 0.3 + tol * (1 - 1e-12)]
    return np.concatenate([w, w[:10], z, z.conj(), z[:5], ties, np.conj(ties)])


def test_from_eigenvalues_matches_per_value_loop(rng):
    eps = np.finfo(float).eps
    for tol in (1e-6, 2.0 ** -20, 2.0 ** -10, 0.0625):
        eigs = hard_eigenvalues(rng, tol)
        for sample in (eigs, rng.permutation(eigs), eigs[:1], eigs[:0]):
            got = SpectrumMultiset.from_eigenvalues(sample, tol)
            ref = per_value_from_eigenvalues(sample, tol)
            assert np.array_equal(got.multiplicities, ref.multiplicities), tol
            assert got.source_dim == ref.source_dim
            err = np.abs(got.values - ref.values)
            assert np.all(err <= 2 * eps * np.abs(ref.values)), tol


def test_histogram_matches_per_value_loop(rng):
    edges = np.round(np.arange(-1.0, 1.0001, 0.05), 12)
    points = [complex(x, y) for x in edges for y in (-1.0, 0.0, 0.05, 1.0)]
    points += [1.0 + 1e-16j, complex(np.nextafter(1.0, 2.0), 0.0),
               complex(0.0, np.nextafter(-1.0, -2.0)), 1.5 - 2j]
    eigs = np.concatenate([points, hard_eigenvalues(rng, 1e-6),
                           rng.uniform(-1.2, 1.2, 200) + 1j * rng.uniform(-1.2, 1.2, 200)])
    mults = rng.integers(1, 4, len(eigs))
    spec = SpectrumMultiset(eigs, mults, int(mults.sum()))
    for bin_size in (0.05, 0.3, 0.07, 2.0, 5.0):
        got, want = histogram(spec, bin_size), old_histogram(spec, bin_size)
        assert np.array_equal(got.counts, want.counts), bin_size
        assert got.overflow == want.overflow and got.total == spec.total


# --- the block-by-block spectrum ---------------------------------------------


def unit_sum_tables(rng):
    return [dk_local_operator(DKParams(0.5, 0.75)),
            dk_local_operator(DKParams.bond_percolation(0.6)),
            *(random_local_operator(fam, rng) for fam in ("pca", "ca", "complex-stochastic"))]


def test_spectrum_power_sums_match_full_solve(rng, eig_shapes):
    # the block path solves halves of the blocks Q_m D_m, m < n, never one of Q_n
    for loc in unit_sum_tables(rng):
        for n in range(2, 9):
            eig_shapes.clear()
            got = spectrum(loc, n)
            assert max(eig_shapes, default=(0, 0)) <= (1 << (n - 2),) * 2, (loc.label, n)
            want = eig_dense(build_global_recursive(loc, n).dense)
            assert got.total == 1 << n
            for r in range(1, 9):
                scale = max(1.0, float(np.sum(want.multiplicities * np.abs(want.values) ** r)))
                assert abs(got.moment(r) - want.moment(r)) <= 1e-12 * scale, (loc.label, n, r)


def test_spectrum_single_site(rng):
    for loc in unit_sum_tables(rng) + [random_local_operator("general", rng)]:
        spec = spectrum(loc, 1)
        assert spec.values.tolist() == [1.0] and spec.multiplicities.tolist() == [2]


def test_spectrum_falls_back_bit_identical(rng, eig_shapes):
    # Haar-QCA and GENERAL tables fail each half's first certificate, on its
    # column sums; the large stochastic table passes those but fails a later
    # level in half 0, so both halves end in one solve of B_c(n).  At n = 4
    # its half 1 passes every level, and is solved whole all the same.  Half 1
    # of the half-unit-sums table fails its first certificate, so each
    # B_1(m) is solved whole; its half 0 has DK's triangular table at p = 1/2
    # and is derived from b_0(m-1) and b_1(m-1) / 2, exact halvings of the
    # values eig_dense's split finds by solving B_1(m-1) / 2
    cases = [(random_local_operator(fam, rng), n) for fam in ("qca", "general")
             for n in (2, 5, 7)]
    large = large_stochastic()
    for n in (4, 5, 7):
        eig_shapes.clear()
        spectrum(large, n)
        assert spectral._unit_sums(large) and eig_shapes.count((1 << (n - 1),) * 2) == 2
        cases.append((large, n))
    mixed = half_unit_sums()
    sums = mixed.column_sums()
    assert np.array_equal(sums[0::2], [1, 1]) and np.abs(sums[1::2] - 1).min() > 0.05
    cases += [(mixed, 4), (mixed, 6)]
    # DK at p = 0.3, whose halvings are not exact: its derived half 0 reads
    # the failing half 1, so both are solved whole at level n, as the dense
    # solve of Q_n splits them
    scaled = dk_local_operator(DKParams(0.3, 0.75)).matrix.copy()
    scaled[:, 1::2] *= 0.9
    scaled = make_local_operator(scaled, "dk-half-1-scaled")
    for n in (4, 6, 9):
        dense = build_global_recursive(scaled, n).dense
        assert np.array_equal(spectral._spectrum_eigvals(scaled, n),
                              spectral._eigvals_checked(dense)), n
        cases.append((scaled, n))
    for loc, n in cases:
        got = spectrum(loc, n)
        want = eig_dense(build_global_recursive(loc, n).dense)
        assert np.array_equal(got.values, want.values), (loc.label, n)
        assert np.array_equal(got.multiplicities, want.multiplicities), (loc.label, n)


def test_spectrum_shift_family_no_worse_than_full_solve():
    # the full solve scatters the defective t^k clusters as eps^(1/m); the
    # blocks are smaller and keep them tighter
    loc = dk_local_operator(DKParams(0.3, 0.6))
    for n in (6, 8, 10):
        want = t_case_spectrum(0.3, n)
        block = match_multisets(spectrum(loc, n), want, 0.0)[1]
        full = match_multisets(eig_dense(build_global_recursive(loc, n).dense), want, 0.0)[1]
        assert block <= full, (n, block, full)


def test_spectrum_cli_n11_fits_default_cap(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--model", "dk", "--p", "0.5", "--q", "0.75", "--n", "11",
                 "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().strip().split("\n")
            if not l.startswith("#")][1:]
    assert sum(int(m) for _, _, m in rows) == 1 << 11


def full_real_table():
    """Real table with no zero in either half table, unequal halves and
    column sums 0.8, 0.9, 1 and 1.1: no half is derived, both fail their
    first certificate."""
    m = np.zeros((4, 4))
    for c in range(4):
        m[c % 2, c], m[2 + c % 2, c] = 0.3 + 0.1 * c, 0.5
    return make_local_operator(m, "full-real")


def test_spectrum_cli_qca_n11_fits_cap(tmp_path, eig_shapes):
    # the rotation's two half tables are equal, so its spectrum is derived
    # from one 2 x 2 solve of the half table for each half, and n = 12
    # passes the up-front checks too
    for n in (11, 12):
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--model", "qca", "--xi", "0.7", "--n", str(n),
                     "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().strip().split("\n")
                if not l.startswith("#")][1:]
        assert sum(int(m) for _, _, m in rows) == 1 << n
    assert eig_shapes == [(2, 2)] * 4
    # a table without unit column sums and with full, unequal half tables
    # solves the two halves of Q_11, each 1024 wide, so the cap admits it
    eig_shapes.clear()
    assert spectrum(full_real_table(), 11).total == 1 << 11
    assert eig_shapes == [(1024, 1024)] * 2


def test_halves_grow_from_the_table_half(rng):
    # the last site never moves: B_c(m) = Q_m[c::2, c::2] starts at the
    # table's half M_c and grows by the recursion step, entry for entry
    tables = [dk_local_operator(DKParams(0.5, 0.75)),
              *(random_local_operator(fam, rng) for fam in ("general", "qca", "pca"))]
    for loc in tables:
        halves = [loc.matrix[c::2, c::2] for c in (0, 1)]
        for m in range(2, 10):
            if m > 2:
                halves = [_recursion_step(loc, b) for b in halves]
            q = build_global_recursive(loc, m).dense
            for c, b in enumerate(halves):
                assert np.array_equal(b, q[c::2, c::2]), (loc.label, m, c)


def test_spectrum_peak_within_its_charge(rng):
    # charged one dense operator of Q_n, traced well below.  DK is solved by
    # blocks one half at a time: B_c(n-1) and B_c(n), five sixteenths,
    # beside a block's eigensolve or the certificate's buffers, traced at
    # 0.325 operators.  A real and a GENERAL table with full half tables
    # and column sums off 1 grow and solve one half of Q_n at a time, traced
    # at 0.417 and 0.542.  The QCA rotation's spectrum is derived from its
    # equal half tables, traced at 0.012
    n = 9
    for loc, charge in ((dk_local_operator(DKParams(0.5, 0.75)), 0.34),
                        (full_real_table(), 0.43),
                        (random_local_operator("general", rng), 0.56),
                        (qca_rotation_local(0.7), 0.02)):
        tracemalloc.start()
        try:
            spectrum(loc, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charge * 16 * 4 ** n, (loc.label, peak)


# --- halves derived from the half tables -------------------------------------


def derived_tables():
    return [dk_local_operator(DKParams(0.5, 0.75)), dk_local_operator(DKParams(0.3, 0.6)),
            dk_local_operator(DKParams(0.8, 1.0)),
            dk_local_operator(DKParams.bond_percolation(0.6447)),
            qca_rotation_local(0.7), *ca_rules()]


def test_derived_halves_claim():
    # every table here has a triangular half table or equal ones; the claim
    # compares the derived spectrum's power sums with eig_dense's
    tables = derived_tables()
    kinds = [[terms is not None for terms in spectral._derived_halves(t)] for t in tables]
    assert kinds[:5] == [[True, False], [True, False], [True, True], [True, False], [True, True]]
    assert sum(k == [True, True] for k in kinds[5:]) == 10  # 9 triangular, (NOT, NOT)
    for n in range(1, 9):
        rep = verify_claim("derived-halves", tables, n)
        assert rep.passed, (n, rep.worst_residual)
        # the derived power traces against the paired sweep
        assert rep.details["trace_error"] <= 1e-13, (n, rep.details["trace_error"])
    general = random_local_operator("general", np.random.default_rng(3))
    assert verify_claim("derived-halves", [general], 3).passed is None


def test_zeta_det_eigenvalues_match_traces():
    # the unclustered eigenvalues zeta_det sums over: power sums within
    # 1e-14 relative of the swept traces at n = 11 (read 4.3e-16 to 9.1e-16;
    # the clustered spectrum's read 1.2e-13 to 5.1e-13)
    n = 11
    for params in (DKParams(0.5, 0.75), DKParams(0.3, 0.6), DKParams.bond_percolation(0.6447)):
        loc = dk_local_operator(params)
        w = spectral._spectrum_eigvals(loc, n)
        traces = power_trace_coefficients(loc, n, 8) * (1 << n)
        assert len(w) == 1 << n
        for r in range(1, 9):
            err = abs(np.sum(w ** r) - traces[r - 1]) / abs(traces[r - 1])
            assert err <= 1e-14, (params, r, err)


def test_dk_q1_needs_no_eigensolve(eig_shapes):
    # at q = 1 both DK half tables are triangular: the whole spectrum is
    # derived, even at n = 12
    loc = dk_local_operator(DKParams(0.8, 1.0))
    for n in (2, 7, 12):
        spec = spectrum(loc, n)
        assert spec.total == 1 << n
    zeta_det(loc, 9, 0.3)
    assert eig_shapes == []
    traces = power_trace_coefficients(loc, 9, 8) * (1 << 9)
    w = spectral._spectrum_eigvals(loc, 9)
    for r in range(1, 9):
        assert abs(np.sum(w ** r) - traces[r - 1]) <= 1e-14 * abs(traces[r - 1]), r


def test_fully_derived_spectra_past_the_eigensolver_cap():
    # tables whose halves both derive solve nothing larger than 2 x 2, so
    # their spectra are answered up to n = 14, where one dense operator of
    # Q_n fills the byte budget; power sums within 1e-10 of max(1, |tr Q^r|)
    # of the traces
    rule = ca_rules()[10]  # the left site takes the right one's value: both halves derive
    for loc in (qca_rotation_local(0.7), dk_local_operator(DKParams(0.6, 1.0)), rule):
        for n in (13, 14):
            spec = spectrum(loc, n)
            assert spec.total == 1 << n
            traces = power_trace_coefficients(loc, n, 8) * (1 << n)
            for r in range(1, 9):
                err = abs(spec.moment(r) - traces[r - 1])
                assert err <= 1e-10 * max(1.0, abs(traces[r - 1])), (loc.label, n, r, err)


def test_uncontrolled_rotation_spectrum():
    # equal half tables: Q_n = M^(x)(n-1) (x) I_2, spectrum e^(i xi (n-1-2a))
    # with multiplicity 2 C(n-1, a)
    xi, n = 0.7, 11
    spec = spectrum(qca_rotation_local(xi), n)
    want = SpectrumMultiset.from_pairs(
        [np.exp(1j * xi * (n - 1 - 2 * a)) for a in range(n)],
        [2 * math.comb(n - 1, a) for a in range(n)], 1 << n)
    assert match_multisets(spec, want, 1e-13)[0]
    assert match_multisets(spec, conjugate(spec), 0.0)[0]
    traces = power_trace_coefficients(qca_rotation_local(xi), n, 8) * (1 << n)
    for r in range(1, 9):
        assert abs(spec.moment(r) - traces[r - 1]) <= 1e-12 * (1 << n), r


def test_clustered_rotation_power_sums_are_sharp():
    # 2 C(10, a) equal eigenvalues per cluster: each cluster's pairwise mean
    # keeps the power sums within 5e-12 of the swept traces, relative
    loc, n = qca_rotation_local(0.7), 11
    spec = spectrum(loc, n)
    traces = power_trace_coefficients(loc, n, 8) * (1 << n)
    for r in range(1, 9):
        err = abs(spec.moment(r) - traces[r - 1])
        assert err <= 5e-12 * max(1.0, abs(traces[r - 1])), (r, err)


def test_prefix_reuse_solves_each_block_once(eig_shapes):
    # DK's half 1 passes every certificate: one run of its block recursion
    # gives every level, each block B_1(m) (D_m)_1 larger than 1 x 1 solved
    # once
    n = 9
    spectrum(dk_local_operator(DKParams(0.5, 0.75)), n)
    assert sorted(eig_shapes) == [(1 << (m - 1),) * 2 for m in range(2, n)]


def complex_grown_blocks(local, c, levels):
    """Half c's blocks B_c(m) (D_m)_c for m = 1..levels, grown from B_c(1) =
    [1] and B_c(2) = M_c in complex arithmetic throughout, by entry
    ((k, r), (i, j, y)) of B_c(m+1) = a[(k,j),(i,j)] B_c(m)[r, (j, y)]."""
    a3 = local.matrix.reshape(2, 2, 2, 2).diagonal(axis1=1, axis2=3)
    shifts = np.array(shift_coefficients(local))
    b, out = np.ones((1, 1), dtype=complex), []
    for m in range(1, levels + 1):
        out.append(b * np.repeat(shifts, len(b))[c::2])
        d = len(b)
        b = (local.matrix[c::2, c::2] if m == 1 else
             (a3[:, None, :, :, None] * b.reshape(1, d, 1, 2, d // 2)).reshape(2 * d, 2 * d))
    return out


def test_real_growth_keeps_the_eigenvalues_bit_identical(rng):
    # real tables grow their halves in float64: every certified block equals
    # the complex-grown one exactly and solves to the same bits, so the
    # spectra are those of a complex growth
    tables = [dk_local_operator(DKParams(0.5, 0.75)), dk_local_operator(DKParams(0.3, 0.6)),
              *(dk_local_operator(DKParams(p, 0.3)) for p in (0.1, 0.9, 1.0)),
              dk_local_operator(DKParams.bond_percolation(0.6447)),
              *(random_local_operator(fam, rng) for fam in ("pca", "pca", "general")),
              qca_rotation_local(0.7), *ca_rules()]
    solved = 0
    for loc in tables:
        for c, (_, blocks) in enumerate(spectral._half_routes(loc, 8, 0) or []):
            want = complex_grown_blocks(loc, c, 7)
            for block, ref in zip(blocks or [], want):
                assert block.dtype == np.float64 and not ref.imag.any()
                assert np.array_equal(block, ref.real), (loc.label, c)
                got, ref_eigs = spectral._eigvals_checked(block), spectral._eigvals_checked(ref)
                assert np.array_equal(got, ref_eigs) and got.dtype == ref_eigs.dtype
                solved += 1
    assert solved >= 100


def test_spectra_and_traces_take_the_same_route(rng, monkeypatch):
    # power traces fall back to the paired sweep exactly where the spectrum
    # solves both halves whole, of dimension 2^(n-1): where some half
    # neither derives nor certifies, and `_half_routes` gives no routes.  A
    # half that does not derive gets its n - 1 certified blocks, C_m of
    # dimension 2^(m-1)
    tables = [dk_local_operator(DKParams(p, q)) for p in (0.1, 0.5, 0.9, 1.0)
              for q in (0.0, 0.3, 0.75)]
    tables += [random_local_operator(fam, rng)
               for fam in ("pca", "complex-stochastic", "general", "qca")]
    tables += [large_stochastic(), half_unit_sums()]
    sweeps, solve, swept, solved = zeta._trace_sweeps, spectral._eigvals_checked, [], []

    def recorded(*args, **kwargs):
        swept.append(args[1])
        return sweeps(*args, **kwargs)

    def checked(a):
        solved.append(len(a))
        return solve(a)

    monkeypatch.setattr(zeta, "_trace_sweeps", recorded)
    monkeypatch.setattr(spectral, "_eigvals_checked", checked)
    outcomes = set()
    for loc in tables:
        for n in (4, 7):
            swept.clear()
            solved.clear()
            power_trace_coefficients(loc, n, 3)
            spectral._spectrum_eigvals(loc, n)
            routes = spectral._half_routes(loc, n, 0)
            assert (swept == [n]) == (routes is None) == (solved.count(1 << (n - 1)) == 2), \
                (loc.label, n)
            assert swept in ([], [n]), (loc.label, n)
            for _, blocks in routes or []:
                assert blocks is None or [b.shape for b in blocks] == \
                    [(1 << m, 1 << m) for m in range(n - 1)], (loc.label, n)
            outcomes.add(routes is None)
    assert outcomes == {False, True}
