import math
import warnings

import numpy as np
import pytest

from ipszeta import zeta
from ipszeta.claims import verify_claim
from ipszeta.dk import DKParams, dk_entries, dk_local_operator
from ipszeta.errors import SingularFactor, SizeCapExceeded
from ipszeta.operators import (
    build_global_kronecker,
    build_global_recursive,
    config_bits,
    config_index,
    make_local_operator,
    qca_rotation_local,
    random_local_operator,
)
from ipszeta.spectral import trace_path_sum
from ipszeta.zeta import (
    c_r,
    power_trace_coefficients,
    t_case_c_r,
    t_case_log_zeta,
    zeta_det,
    zeta_log_series,
)

from conftest import oracle_c_r, oracle_global


def test_power_traces_match_oracle(rng):
    fixed = {"dk": dk_local_operator(DKParams(0.45, 0.8)), "rotation": qca_rotation_local(0.9)}
    for fam in ("pca", "qca", "general", "dk", "rotation"):
        for n in (1, 2, 3, 5):
            loc = fixed[fam] if fam in fixed else random_local_operator(fam, rng)
            got = power_trace_coefficients(loc, n, 6)
            for r in range(1, 7):
                ref = oracle_c_r(loc, n, r)
                assert abs(got[r - 1] - ref) < 1e-11 * max(1.0, abs(ref))
                if r == 6:
                    assert abs(c_r(loc, n, r) - ref) < 1e-11 * max(1.0, abs(ref))


def test_power_traces_single_site():
    loc = dk_local_operator(DKParams(0.4, 0.7))
    assert np.allclose(power_trace_coefficients(loc, 1, 5), 1.0)


def test_trace_cap():
    loc = dk_local_operator(DKParams(0.4, 0.7))
    with pytest.raises(SizeCapExceeded):
        power_trace_coefficients(loc, 15, 2)


def test_default_trace_batch_is_byte_budget(rng, monkeypatch):
    # n = 11: the 4 MiB default sweeps 256 real or 128 complex paired columns
    # e_2j + e_(2j+1) at a time, of the 1024 pairs; 1000 a batch leaves 24
    n, r_max = 11, 3
    for loc, cols, itemsize in ((dk_local_operator(DKParams(0.5, 0.75)), 256, 8),
                                (random_local_operator("general", rng), 128, 16)):
        default = power_trace_coefficients(loc, n, r_max)
        with monkeypatch.context() as m:
            m.setattr(zeta, "_TRACE_BATCH_BYTES", cols * (1 << n) * itemsize)
            assert np.array_equal(default, power_trace_coefficients(loc, n, r_max))
            m.setattr(zeta, "_TRACE_BATCH_BYTES", 1000 * (1 << n) * itemsize)
            other = power_trace_coefficients(loc, n, r_max)
        assert np.allclose(default, other, rtol=1e-12, atol=1e-12 * np.abs(other).max())


def test_each_power_sweeps_half_the_columns(rng, monkeypatch):
    # the last site never moves, so a power sweeps the 2^(n-1) paired columns
    # e_2j + e_(2j+1) through the unchanged kernel, not all 2^n basis columns
    widths = []
    sweep = zeta._sweep_2d

    def recorded(blocks, n_sites, states):
        widths.append(states.shape[1])
        return sweep(blocks, n_sites, states)

    monkeypatch.setattr(zeta, "_sweep_2d", recorded)
    r_max = 3
    for loc in (dk_local_operator(DKParams(0.5, 0.75)), random_local_operator("general", rng)):
        for n in (1, 2, 5, 11):
            widths.clear()
            zeta_log_series(loc, n, r_max)
            # batch after batch, each swept once per power
            assert [sum(widths[r::r_max]) for r in range(r_max)] == [1 << (n - 1)] * r_max, \
                (loc.label, n, widths)


def test_sweep_norms_match_dense_powers(rng):
    # ||Q^k||_1, the largest absolute column sum, against the oracle's powers
    tables = [dk_local_operator(DKParams(0.45, 0.8)), qca_rotation_local(0.9),
              random_local_operator("general", rng), random_local_operator("pca", rng)]
    for loc in tables:
        for n in (1, 2, 3, 6):
            _, norms = zeta._trace_sweeps(loc, n, 6, with_norms=True)
            g = oracle_global(loc, n)
            power = np.eye(1 << n)
            for k in range(1, 7):
                power = g @ power
                ref = np.abs(power).sum(axis=0).max()
                assert abs(norms[k - 1] - ref) <= 1e-12 * ref, (loc.label, n, k)


def test_xor_rule_return_rates():
    # deterministic rule: new left bit = xor of the old pair
    loc = dk_local_operator(DKParams(1.0, 0.0))
    coeffs = power_trace_coefficients(loc, 3, 8)

    def xor_step(idx):
        bits = config_bits(idx, 3)
        new = [bits[0] ^ bits[1], bits[1] ^ bits[2], bits[2]]
        return config_index(new)

    for r in range(1, 9):
        returned = 0
        for start in range(8):
            idx = start
            for _ in range(r):
                idx = xor_step(idx)
            returned += idx == start
        assert abs(coeffs[r - 1] - returned / 8) < 1e-12

    assert abs(coeffs[0] - 0.25) < 1e-12
    assert abs(coeffs[1] - 0.5) < 1e-12
    assert abs(coeffs[2] - 0.25) < 1e-12
    assert abs(coeffs[3] - 1.0) < 1e-12


def test_xor_rule_period_four():
    loc = dk_local_operator(DKParams(1.0, 0.0))
    g = build_global_kronecker(loc, 3).dense
    assert np.abs(np.linalg.matrix_power(g, 4) - np.eye(8)).max() < 1e-12


def test_trace_path_sum_small(rng):
    for n in (1, 2, 4):
        loc = random_local_operator("general", rng)
        ref = np.trace(oracle_global(loc, n))
        assert abs(trace_path_sum(loc, n) - ref) < 1e-11 * max(1.0, abs(ref))


def test_t_family_coefficients():
    for p in (0.1, 0.3, 0.5):
        loc = make_local_operator(dk_entries(p, 2 * p))
        for n in (2, 4, 6):
            for r in (1, 2, 5, 10):
                assert abs(c_r(loc, n, r) - t_case_c_r(p, n, r)) < 1e-9


def test_pca_coefficients_real_and_bounded(rng):
    for _ in range(15):
        loc = random_local_operator("pca", rng)
        coeffs = power_trace_coefficients(loc, 5, 8)
        assert np.abs(coeffs.imag).max() < 1e-12
        assert np.abs(coeffs).max() <= 1.0 + 1e-12


def test_t_case_c_r_frozen_values():
    assert t_case_c_r(1.0, 5, 7) == pytest.approx(1.0)
    assert t_case_c_r(0.0, 4, 3) == pytest.approx(0.125)
    assert t_case_c_r(0.3, 3, 2) == pytest.approx(0.297025)
    loc = make_local_operator(dk_entries(0.3, 0.6))
    assert abs(c_r(loc, 3, 1) - 0.4225) < 1e-12
    assert abs(c_r(loc, 3, 2) - 0.297025) < 1e-12


def test_t_case_log_zeta_frozen_values():
    assert t_case_log_zeta(1.0, 4, 0.3) == pytest.approx(-math.log(0.7))
    want = -(0.25 * math.log(0.5) + 0.5 * math.log(1 - 0.3 * 0.5)
             + 0.25 * math.log(1 - 0.09 * 0.5))
    assert t_case_log_zeta(0.3, 3, 0.5) == pytest.approx(want, abs=1e-14)
    assert t_case_log_zeta(0.3, 3, 0.0) == 0.0


def test_series_at_zero_and_det_at_zero():
    loc = dk_local_operator(DKParams(0.4, 0.7))
    assert zeta_log_series(loc, 3, 10).evaluate(0.0) == 0.0
    assert zeta_det(loc, 3, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_xor_series_matches_determinant_log():
    loc = dk_local_operator(DKParams(1.0, 0.0))
    series = zeta_log_series(loc, 3, 40)
    got = series.evaluate(0.1)
    g = build_global_kronecker(loc, 3).dense
    eigs = np.linalg.eigvals(g)
    want = -np.sum(np.log(1 - 0.1 * eigs)) / 8
    assert abs(got - want) < 1e-12


def test_rotation_coefficient_frozen_values():
    assert abs(c_r(qca_rotation_local(0.0), 4, 3) - 1.0) < 1e-12
    assert abs(c_r(qca_rotation_local(np.pi / 3), 4, 1) - 0.125) < 1e-9
    assert abs(c_r(qca_rotation_local(np.pi / 2), 3, 2) - 1.0) < 1e-12


def test_t_case_log_zeta_matches_series():
    p = 0.4
    loc = make_local_operator(dk_entries(p, 2 * p))
    n, u = 4, 0.3
    series = zeta_log_series(loc, n, 200)
    assert abs(series.evaluate(u) - t_case_log_zeta(p, n, u)) < 1e-9


def test_t_case_log_zeta_singularity():
    with pytest.raises(SingularFactor):
        t_case_log_zeta(1.0, 3, 1.0)


def test_series_vs_determinant(rng):
    for fam in ("pca", "complex-stochastic"):
        for n in (2, 3, 4):
            loc = random_local_operator(fam, rng)
            series = zeta_log_series(loc, n, 80)
            u = 0.4 * series.radius_hint
            lhs = np.exp(series.evaluate(u))
            rhs = zeta_det(loc, n, u)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))
            bound = series.truncation_bound(u)
            assert bound is not None and bound < 1e-9


def test_truncation_bound_behavior():
    loc = dk_local_operator(DKParams(0.4, 0.7))
    series = zeta_log_series(loc, 3, 20)
    inside = series.truncation_bound(0.3 * series.radius_hint)
    nearer = series.truncation_bound(0.8 * series.radius_hint)
    assert inside is not None and nearer is not None and inside < nearer
    assert series.truncation_bound(2.0 * series.radius_hint) is None
    # overflowing norms leave a radius hint of 0, inside which no u lies
    assert zeta.ZetaSeries(np.zeros(3), 0.0).truncation_bound(0.1) is None


def test_radius_hint_bounds_spectral_radius():
    # The power-iteration estimate falls below rho on two of these draws (by
    # up to 1.58x); the radius hint must never.
    rng = np.random.default_rng(7)
    families = ("general", "qca", "pca", "complex-stochastic")
    for i in range(300):
        n = 2 + i % 6
        loc = random_local_operator(families[i % 4], rng)
        rho = np.abs(np.linalg.eigvals(build_global_recursive(loc, n).dense)).max()
        series = zeta_log_series(loc, n, 30)
        assert 1.0 / series.radius_hint >= (1 - 1e-9) * rho, (i, n)
    assert zeta_log_series(loc, 1, 5).radius_hint == 1.0


def nonnegative_equal_sum_tables(rng):
    return [dk_local_operator(DKParams(0.5, 0.75)), dk_local_operator(DKParams(0.3, 0.6)),
            dk_local_operator(DKParams.bond_percolation(0.6447)),
            *(random_local_operator(fam, rng) for fam in ("pca", "pca", "ca", "ca"))]


def test_column_sum_radius_skips_the_norms(rng, monkeypatch):
    # real nonnegative tables with equal column sums take rho-hat from the
    # table: no norm sweeps, the same coefficients, and 1/rho-hat within
    # the allowance 4 n eps of their exact radius 1
    asked = []
    sweeps = zeta._trace_sweeps

    def recorded(local, n_sites, r_max, with_norms):
        asked.append(with_norms)
        return sweeps(local, n_sites, r_max, with_norms)

    monkeypatch.setattr(zeta, "_trace_sweeps", recorded)
    for loc in nonnegative_equal_sum_tables(rng):
        for n in (2, 5, 8):
            series = zeta_log_series(loc, n, 12)
            assert np.array_equal(series.coefficients, power_trace_coefficients(loc, n, 12))
            rho = np.abs(np.linalg.eigvals(build_global_recursive(loc, n).dense)).max()
            assert 1.0 / series.radius_hint >= rho - 1e-12, (loc.label, n)
            assert 1 <= 1.0 / series.radius_hint <= 1 + 4 * n * np.finfo(float).eps
    assert asked and not any(asked)
    # unequal column sums and complex tables keep the norm sweeps
    asked.clear()
    scaled = dk_local_operator(DKParams(0.5, 0.75)).matrix.copy()
    scaled[:, 1::2] *= 0.9
    for loc in (make_local_operator(scaled), qca_rotation_local(0.7),
                random_local_operator("complex-stochastic", rng)):
        zeta_log_series(loc, 4, 6)
    assert asked == [True] * 3


def test_zeta_det_matches_series_inside_the_disk(rng):
    for loc in nonnegative_equal_sum_tables(rng):
        for n in (2, 5, 8):
            series = zeta_log_series(loc, n, 120)
            for u in (0.3, -0.25 + 0.2j, 0.1j):
                assert abs(u) < 0.5 * series.radius_hint
                want = np.exp(series.evaluate(u))
                assert abs(zeta_det(loc, n, u) - want) <= 1e-10 * abs(want), (loc.label, n, u)


def test_single_site_zeta_closed_form():
    loc = dk_local_operator(DKParams(0.3, 0.9))
    for u in (0.1, 0.5):
        assert abs(zeta_det(loc, 1, u) - 1.0 / (1.0 - u)) < 1e-14
        series = zeta_log_series(loc, 1, 120)
        assert abs(np.exp(series.evaluate(u)) - 1.0 / (1.0 - u)) < 1e-12


def test_zeta_det_singular_guard():
    loc = dk_local_operator(DKParams(1.0, 0.0))  # eigenvalue 1 in the spectrum
    with pytest.raises(SingularFactor):
        zeta_det(loc, 3, 1.0)


def continued_zeta(q, u, steps=4000):
    """det(I - uQ)^(-1/2^n) continued from u = 0 along [0, u]: slogdet of
    I - s u Q on a grid of s, with its phase unwrapped."""
    eye = np.eye(len(q))
    logs = [np.linalg.slogdet(eye - s * u * q) for s in np.linspace(0.0, 1.0, steps + 1)]
    phase = np.unwrap([np.angle(sign) for sign, _ in logs])
    return np.exp(-(logs[-1][1] + 1j * phase[-1]) / len(q))


def test_zeta_det_continues_the_series_outside_the_disk(rng):
    cases = [(dk_local_operator(DKParams(0.5, 0.75)), 5, 1.5 + 0.3j),
             (qca_rotation_local(0.7), 4, -1.7 + 0.2j),
             (random_local_operator("general", rng), 4, 0.4 + 1.9j)]
    for loc, n, u in cases:
        q = build_global_recursive(loc, n).dense
        assert abs(u) * np.abs(np.linalg.eigvals(q)).max() > 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = zeta_det(loc, n, u)
        want = continued_zeta(q, u)
        assert abs(got - want) <= 1e-12 * abs(want), (loc.label, n, u)


def test_zeta_det_refuses_a_factor_on_the_cut():
    # lambda = 1 is in DK's spectrum, so lambda u = 3 lies on [1, inf)
    with pytest.raises(SingularFactor):
        zeta_det(dk_local_operator(DKParams(0.5, 0.75)), 4, 3.0)


def test_qca_rotation_coefficients_and_report():
    rep = verify_claim("qca-rotation", [qca_rotation_local(0.7)], 5, tol=1e-9, r_max=25)
    assert rep.passed
    assert rep.worst_residual < 1e-12
    loc = qca_rotation_local(0.7)
    for r in (1, 3, 10):
        assert abs(c_r(loc, 3, r) - np.cos(0.7 * r) ** 2) < 1e-12
