"""Acceptance gate: ten numbered criteria, one test (and one pass/fail line
in ``pytest -v``) per criterion.  Each test re-derives its expected values
from closed forms or independent constructions, collects every violation, and
reports the full breakdown on failure.  Runtime limits are asserted with the
measured wall time.
"""

import time

import numpy as np
import pytest

from ipszeta.claims import verify_claim
from ipszeta.dk import (
    DKParams,
    dk_entries,
    dk_local_operator,
    dk_reference_spectrum_n3,
    estimate_survival,
    rho_q1_closed,
    scan_critical,
)
from ipszeta.operators import (
    build_global_kronecker,
    build_global_recursive,
    classify,
    make_local_operator,
    qca_rotation_local,
    random_local_operator,
)
from ipszeta.serialize import histogram_csv, spectrum_csv
from ipszeta.spectral import (
    SpectrumMultiset,
    eig_dense,
    histogram,
    match_multisets,
    shift_coefficients,
    t_case_spectrum,
    trace_closed_form,
    trace_path_sum,
)
from ipszeta.zeta import (
    power_trace_coefficients,
    t_case_c_r,
    zeta_det,
    zeta_log_series,
)

from conftest import unit_sum_unitary_local

CLASSES = ("ca", "pca", "qca", "general")


def finish(name, bad, t0, limit):
    elapsed = time.perf_counter() - t0
    status = "PASS" if not bad else "FAIL"
    print("%s: %s (%.2fs)" % (name, status, elapsed))
    assert elapsed < limit, "%s exceeded runtime limit: %.2fs >= %gs" % (name, elapsed, limit)
    assert not bad, "%s: %d violation(s)\n%s" % (name, len(bad), "\n".join(bad))


def test_c01_xor_rule_coefficients_and_period():
    t0 = time.perf_counter()
    bad = []
    loc = dk_local_operator(DKParams(1.0, 0.0))
    coeffs = power_trace_coefficients(loc, 3, 4)
    for r, want in zip(range(1, 5), (0.25, 0.5, 0.25, 1.0)):
        err = abs(coeffs[r - 1] - want)
        if err > 1e-12:
            bad.append("C_%d = %r, want %g (err %.3e)" % (r, coeffs[r - 1], want, err))
    g = build_global_kronecker(loc, 3).dense
    err = np.abs(np.linalg.matrix_power(g, 4) - np.eye(8)).max()
    if err > 1e-12:
        bad.append("fourth power differs from identity by %.3e" % err)
    finish("criterion 1 (xor-rule coefficients, period 4)", bad, t0, 1.0)


def test_c02_three_site_closed_spectrum():
    t0 = time.perf_counter()
    bad = []
    rng = np.random.default_rng(2024)
    for _ in range(20):
        p, q = rng.uniform(0.02, 0.98, size=2)
        params = DKParams(p, q)
        got = eig_dense(build_global_recursive(dk_local_operator(params), 3).dense)
        ok, dist = match_multisets(got, dk_reference_spectrum_n3(params), 1e-8)
        if not ok:
            bad.append("p=%.4f q=%.4f worst match distance %.3e" % (p, q, dist))
    finish("criterion 2 (three-site closed spectrum)", bad, t0, 1.0)


def test_c03_construction_equivalence_and_block_sums():
    """The two dense constructions agree, and the quadrants of Q_n sum to the
    smaller operator.

    Q_n = (I_2 (x) Q_{n-1})(A (x) I), so E+G = Q_{n-1} D_0 and
    F+H = Q_{n-1} D_1, where D_i is diagonal over the top bit l of the
    (n-1)-site index with entry s(i,l) = a[(0,l),(i,l)] + a[(1,l),(i,l)],
    the column sum 2i+l of the local table.  This form holds for every table;
    CA and PCA tables have unit column sums, which makes it the literal
    identity E+G = F+H = Q_{n-1}, checked as well.
    """
    t0 = time.perf_counter()
    bad = []
    rng = np.random.default_rng(2024)
    for fam in CLASSES:
        worst_build = 0.0
        worst_block = 0.0
        worst_unit = 0.0
        unit = fam in ("ca", "pca")
        for _ in range(50):
            loc = random_local_operator(fam, rng)
            sums = loc.column_sums()
            if unit:
                worst_unit = max(worst_unit, float(np.abs(sums - 1).max()))
            for n in (2, 3, 4):
                a = build_global_kronecker(loc, n).dense
                b = build_global_recursive(loc, n).dense
                scale = max(1.0, float(np.abs(a).max()))
                worst_build = max(worst_build, float(np.abs(a - b).max()) / scale)
                prev = build_global_recursive(loc, n - 1).dense
                k = prev.shape[0]
                e, f, g, h = b[:k, :k], b[:k, k:], b[k:, :k], b[k:, k:]
                half = 1 << (n - 2)
                d0, d1 = np.repeat(sums[:2], half), np.repeat(sums[2:], half)
                pscale = max(1.0, float(np.abs(prev).max()))
                worst_block = max(
                    worst_block,
                    float(np.abs(e + g - prev * d0).max()) / pscale,
                    float(np.abs(f + h - prev * d1).max()) / pscale)
                if unit:
                    worst_block = max(
                        worst_block,
                        float(np.abs(e + g - prev).max()) / pscale,
                        float(np.abs(f + h - prev).max()) / pscale)
        if worst_build > 1e-12:
            bad.append("class %s: construction mismatch %.3e" % (fam, worst_build))
        if worst_block > 1e-12:
            bad.append("class %s: block sums differ from the smaller operator "
                       "by %.3e" % (fam, worst_block))
        if worst_unit > 1e-12:
            bad.append("class %s: column sums differ from 1 by %.3e" % (fam, worst_unit))
    finish("criterion 3 (construction equivalence, block sums)", bad, t0, 10.0)


def test_c04_trace_formula_agreement():
    t0 = time.perf_counter()
    bad = []
    rng = np.random.default_rng(2024)
    families = ("ca", "pca", "qca", "general", "complex-stochastic")
    for i in range(100):
        fam = families[i % len(families)]
        n = (i % 10) + 1
        loc = random_local_operator(fam, rng)
        dense_tr = complex(power_trace_coefficients(loc, n, 1)[0]) * (1 << n)
        scale = max(1.0, abs(dense_tr))
        e1 = abs(trace_path_sum(loc, n) - dense_tr) / scale
        e2 = abs(trace_closed_form(loc, n) - dense_tr) / scale
        if e1 > 1e-10 or e2 > 1e-10:
            bad.append("%s n=%d: path-sum err %.3e closed-form err %.3e" % (fam, n, e1, e2))
    finish("criterion 4 (trace formulas agree)", bad, t0, 30.0)


def test_c05_spectral_recursion_all_classes():
    """Spec(Q_{n+1}) = Spec(Q_n) united with Spec(Q_n D) on each class's
    members with unit column sums, the domain where the identity is proven.

    In-domain draws: ca and pca as `random_local_operator` draws them; qca
    from unitary tables U_l = P+ + exp(i phi_l) P- in each column block;
    general from the complex-stochastic family.  Each draw must classify as
    its class.  A case passes on the block certificate of the registry's
    spectral-recursion claim; the matched eigenvalue distance it reports
    must also stay within the tolerance.  Haar-qca and Gaussian-general draws
    have no unit column sums and serve as negative controls: the certificate
    residual of every one of them must exceed the tolerance.
    """
    t0 = time.perf_counter()
    bad = []
    rng = np.random.default_rng(2024)
    draw = {
        "ca": lambda: random_local_operator("ca", rng),
        "pca": lambda: random_local_operator("pca", rng),
        "qca": lambda: unit_sum_unitary_local(rng),
        "general": lambda: random_local_operator("complex-stochastic", rng),
    }
    for fam in CLASSES:
        failed = 0
        worst = 0.0
        worst_dist = 0.0
        for _ in range(50):
            loc = draw[fam]()
            kind = classify(loc).value
            if kind != fam:
                bad.append("class %s: in-domain draw classifies as %s" % (fam, kind))
            for n in (1, 2, 3):
                rep = verify_claim("spectral-recursion", [loc], n, tol=1e-7)
                if not rep.passed:
                    failed += 1
                    worst = max(worst, rep.worst_residual)
                worst_dist = max(worst_dist, rep.details["eigenvalue_distance"])
        if failed:
            bad.append("class %s: %d/150 size cases fail, worst residual %.3e"
                       % (fam, failed, worst))
        if worst_dist > 1e-7:
            bad.append("class %s: matched eigenvalue distance %.3e" % (fam, worst_dist))
    for fam in ("qca", "general"):
        passed = 0
        for _ in range(50):
            loc = random_local_operator(fam, rng)
            for n in (1, 2, 3):
                rep = verify_claim("spectral-recursion", [loc], n, tol=1e-7)
                passed += rep.worst_residual <= 1e-7
        if passed:
            bad.append("control %s: %d/150 size cases pass outside the domain"
                       % (fam, passed))
    finish("criterion 5 (spectral recursion, all classes)", bad, t0, 60.0)


def test_c06_shift_family_spectra_and_coefficients():
    """Spectrum {t^k x 2 C(n-1,k)} and C_r = ((1+t^r)/2)^(n-1) of the DK
    shift family q = 2p, t = p, on all 72 (p, n) cells.

    Certificate, in every cell: Q_1 = I; both column-block shifts equal p;
    for n >= 2 the quadrants of Q_n satisfy E+G = F+H = Q_{n-1} and
    H-G = t Q_{n-1}, so S Q_n S^-1 is block triangular with diagonal blocks
    Q_{n-1} and t Q_{n-1}; and `t_case_spectrum` follows the same recursion,
    with `t_case_c_r` its normalised power sums.  By induction this proves
    both closed forms exactly.

    Numeric comparison at 1e-7, where float64 can decide it: Q_n is
    defective, so single eigenvalues scatter as (eps ||Q||)^(1/m), and for
    q = 2p > 1 the powers Q^r grow transiently far above their spectral
    radius 1.  Both `power_trace_coefficients` and the power sums of the
    `eig_dense` eigenvalues are therefore compared only in cells whose
    first-order error estimate eps * 2^n * 30 * max_{r<=30} ||Q^r||_1 is at
    most 1e-7; that admits every cell with q = 2p <= 1.
    """
    t0 = time.perf_counter()
    bad = []
    r_max = 30
    eps = np.finfo(float).eps
    compared = 0
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        loc = make_local_operator(dk_entries(p, 2 * p))
        shifts = shift_coefficients(loc)
        if max(abs(s - p) for s in shifts) > 1e-12:
            bad.append("p=%.1f: column-block shifts %r, want t = p" % (p, shifts))
        for n in range(1, 9):
            q = build_global_recursive(loc, n).dense
            want = t_case_spectrum(p, n)
            if n == 1:
                cert = float(np.abs(q - np.eye(2)).max())
                rec = match_multisets(want, SpectrumMultiset.from_pairs([1.0], [2], 2), 1e-12)
            else:
                prev = build_global_recursive(loc, n - 1).dense
                k = prev.shape[0]
                e, f, g, h = q[:k, :k], q[:k, k:], q[k:, :k], q[k:, k:]
                cert = max(float(np.abs(e + g - prev).max()),
                           float(np.abs(f + h - prev).max()),
                           float(np.abs(h - g - p * prev).max()))
                cert /= max(1.0, float(np.abs(prev).max()))
                low = t_case_spectrum(p, n - 1)
                rec = match_multisets(want, SpectrumMultiset.from_pairs(
                    np.concatenate([low.values, p * low.values]),
                    np.concatenate([low.multiplicities, low.multiplicities]), 1 << n), 1e-12)
            if cert > 1e-12:
                bad.append("p=%.1f n=%d: block certificate residual %.3e" % (p, n, cert))
            if not rec[0]:
                bad.append("p=%.1f n=%d: t_case_spectrum breaks its recursion by %.3e"
                           % (p, n, rec[1]))
            moments = max(abs(want.moment(r) / (1 << n) - t_case_c_r(p, n, r))
                          for r in range(1, r_max + 1))
            if moments > 1e-12:
                bad.append("p=%.1f n=%d: t_case_c_r differs from the power sums of "
                           "t_case_spectrum by %.3e" % (p, n, moments))

            power, growth = np.eye(1 << n), 0.0
            for _ in range(r_max):
                power = power @ q
                growth = max(growth, float(np.abs(power).sum(axis=0).max()))
            if eps * (1 << n) * r_max * growth > 1e-7:
                # a stochastic table (q <= 1) keeps ||Q^r||_1 = 1, so its
                # cells are always within reach
                if 2 * p <= 1:
                    bad.append("p=%.1f n=%d: stochastic cell left out, growth %.3e"
                               % (p, n, growth))
                continue
            compared += 1
            coeffs = power_trace_coefficients(loc, n, r_max)
            got = eig_dense(q)
            worst_c = worst_s = 0.0
            for r in range(1, r_max + 1):
                worst_c = max(worst_c, abs(coeffs[r - 1] - t_case_c_r(p, n, r)))
                worst_s = max(worst_s, abs(got.moment(r) - want.moment(r)) / (1 << n))
            if worst_c > 1e-7:
                bad.append("p=%.1f n=%d: coefficient error %.3e" % (p, n, worst_c))
            if worst_s > 1e-7:
                bad.append("p=%.1f n=%d: eigenvalue power-sum error %.3e" % (p, n, worst_s))
    print("criterion 6: %d of 72 cells within float64 reach" % compared)
    finish("criterion 6 (shift-family closed forms)", bad, t0, 60.0)


def test_c07_percolation_spectra_exports(tmp_path):
    t0 = time.perf_counter()
    bad = []
    models = [("site", DKParams.site_percolation(p)) for p in (0.25, 0.5, 0.75, 1.0)]
    models += [("bond", DKParams.bond_percolation(p)) for p in (0.25, 0.5, 0.75)]
    models += [("q0", DKParams(p, 0.0)) for p in (0.25, 0.5, 0.75, 1.0)]
    assert len(models) == 11
    for tag, params in models:
        spec = eig_dense(build_global_recursive(dk_local_operator(params), 8).dense)
        stem = "%s_p%03d" % (tag, round(params.p * 100))
        (tmp_path / (stem + "_spectrum.csv")).write_text(
            spectrum_csv(spec, {"model": "dk(p=%g, q=%g)" % (params.p, params.q), "n": 8}))
        (tmp_path / (stem + "_hist.csv")).write_text(
            histogram_csv(histogram(spec, 0.05),
                          {"model": "dk(p=%g, q=%g)" % (params.p, params.q), "n": 8}))
        radius = spec.spectral_radius()
        if radius > 1 + 1e-8:
            bad.append("%s p=%g: spectral radius %.10f" % (tag, params.p, radius))
        if np.abs(spec.expand() - 1.0).min() > 1e-8:
            bad.append("%s p=%g: eigenvalue 1 missing" % (tag, params.p))
        if params.p == 1.0 and params.q == 0.0:
            off = np.abs(np.abs(spec.expand()) - 1.0).max()
            if off > 1e-8:
                bad.append("xor rule: eigenvalue off the unit circle by %.3e" % off)
    written = list(tmp_path.glob("*.csv"))
    if len(written) != 22:
        bad.append("expected 22 CSV exports, found %d" % len(written))
    finish("criterion 7 (percolation spectra, histograms)", bad, t0, 120.0)


def test_c08_zeta_series_vs_determinant():
    t0 = time.perf_counter()
    bad = []
    rng = np.random.default_rng(2024)
    families = ("pca", "qca", "general", "complex-stochastic", "ca")
    for i in range(10):
        fam = families[i % len(families)]
        n = (i % 5) + 2
        loc = random_local_operator(fam, rng)
        series = zeta_log_series(loc, n, 60)
        for u in (0.5 * series.radius_hint,
                  0.4 * series.radius_hint * np.exp(0.6j)):
            lhs = np.exp(series.evaluate(u))
            rhs = zeta_det(loc, n, u)
            err = abs(lhs - rhs) / max(1.0, abs(rhs))
            if err > 1e-8:
                bad.append("%s n=%d u=%r: series and determinant differ by %.3e"
                           % (fam, n, u, err))
    loc = dk_local_operator(DKParams(0.3, 0.9))
    for u in (0.1, 0.5):
        for got, tag in ((zeta_det(loc, 1, u), "determinant"),
                         (np.exp(zeta_log_series(loc, 1, 120).evaluate(u)), "series")):
            err = abs(got - 1.0 / (1.0 - u))
            if err > 1e-14:
                bad.append("n=1 u=%g (%s): error %.3e vs (1-u)^-1" % (u, tag, err))
    finish("criterion 8 (zeta series vs determinant)", bad, t0, 30.0)


def test_c09_rotation_coefficients_and_unitarity():
    t0 = time.perf_counter()
    bad = []
    for xi in (np.pi / 6, np.pi / 3, 1.0):
        loc = qca_rotation_local(xi)
        for n in range(1, 7):
            coeffs = power_trace_coefficients(loc, n, 20)
            worst = max(abs(coeffs[r - 1] - np.cos(r * xi) ** (n - 1))
                        for r in range(1, 21))
            if worst > 1e-9:
                bad.append("xi=%.6f n=%d: coefficient error %.3e" % (xi, n, worst))
            g = build_global_recursive(loc, n).dense
            um = np.abs(g.conj().T @ g - np.eye(1 << n)).max()
            if um > 1e-10:
                bad.append("xi=%.6f n=%d: not unitary, defect %.3e" % (xi, n, um))
    finish("criterion 9 (rotation coefficients, unitarity)", bad, t0, 30.0)


def test_c10_survival_probability_and_scan():
    t0 = time.perf_counter()
    bad = []
    est = estimate_survival(DKParams(0.8, 1.0), (0,), horizon=300, trials=20000,
                            base_seed=0, workers=1)
    err = abs(est.estimate - rho_q1_closed(0.8))
    if err > 0.015:
        bad.append("estimate %.5f differs from 0.9375 by %.5f" % (est.estimate, err))
    sure = estimate_survival(DKParams(1.0, 1.0), (0,), horizon=100, trials=2000)
    if sure.estimate != 1.0:
        bad.append("p=q=1 should survive every trial, got %.5f" % sure.estimate)
    grid = [0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70]
    result = scan_critical(1.0, grid, horizon=200, trials=2000, threshold=0.02,
                           base_seed=0, workers=1)
    lo, hi = result.bracket
    if not (lo <= 0.5 <= hi):
        bad.append("bracket (%.2f, %.2f) misses 0.5" % (lo, hi))
    finish("criterion 10 (survival probability, critical scan)", bad, t0, 120.0)
