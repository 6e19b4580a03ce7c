import tracemalloc

import numpy as np
import pytest

from ipszeta.claims import verify_claim
from ipszeta.cli import main
from ipszeta.dk import DKParams, dk_local_operator, dk_reference_spectrum_n3
from ipszeta.errors import NoConvergence, ParamOutOfRange, SizeCapExceeded
from ipszeta.operators import (
    build_global_recursive,
    qca_rotation_local,
    random_local_operator,
)
from ipszeta.spectral import (
    SpectrumMultiset,
    block_certificate,
    eig_dense,
    histogram,
    match_multisets,
    shift_coefficients,
    spec_union,
    t_case_spectrum,
    trace_closed_form,
)
from ipszeta.zeta import trace_path_sum, zeta_det

from conftest import oracle_global


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


def test_moment_matches_direct_sum():
    spec = mk([(0.5 + 0.5j, 2), (-1.0, 1), (0.25, 1)])
    direct = sum(m * v**3 for v, m in zip(spec.values, spec.multiplicities))
    assert abs(spec.moment(3) - direct) < 1e-14


def test_spec_union_adds_multiplicities():
    a = mk([(1.0, 2), (0.5, 1)])
    b = mk([(1.0 + 5e-8, 1), (0.25, 1)])
    u = spec_union(a, b, tol=1e-6)
    assert u.total == 5
    lookup = {complex(v): int(m) for v, m in zip(u.values, u.multiplicities)}
    assert lookup[1.0 + 0j] == 3


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
        eig_dense(np.eye(8), max_dim=4)
    with pytest.raises(ParamOutOfRange):
        eig_dense(np.eye(2), max_dim=10**6)


def test_eig_cap_refuses_before_dense_build(capsys):
    # at n = 11 the dense operator alone is 64 MiB; each refusal must come first
    dk = dk_local_operator(DKParams(0.3, 0.6))  # shift family, t = 0.3
    refusals = [
        lambda: zeta_det(dk, 11, 0.1),
        lambda: verify_claim("spectral-recursion", [dk], 10),
        lambda: main(["spectrum", "--model", "dk", "--p", "0.3", "--q", "0.6", "--n", "11"]),
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


def test_eig_dense_accepts_global_operator(rng):
    loc = random_local_operator("pca", rng)
    g = build_global_recursive(loc, 3)
    spec = eig_dense(g)
    assert spec.total == 8


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
    from ipszeta.operators import make_local_operator
    loc = make_local_operator(entries)
    # self-transition table is diagonal here, so the quadratic degenerates
    for n in (2, 3, 5):
        dense = np.trace(oracle_global(loc, n))
        assert abs(trace_closed_form(loc, n) - dense) < 1e-12 * max(1.0, abs(dense))


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
