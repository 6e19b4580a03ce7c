import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ipszeta import zeta
from ipszeta.claims import verify_claim
from ipszeta.dk import DKParams, dk_entries, dk_local_operator
from ipszeta.errors import ParamOutOfRange, SingularFactor, SizeCapExceeded
from ipszeta.operators import (
    _sweep_2d,
    _sweep_blocks,
    build_global_kronecker,
    build_global_recursive,
    config_bits,
    config_index,
    make_local_operator,
    qca_rotation_local,
    random_local_operator,
)
from ipszeta.spectral import EIG_DIM_CAP, t_case_spectrum, trace_closed_form, trace_path_sum
from ipszeta.zeta import (
    c_r,
    power_trace_coefficients,
    t_case_c_r,
    t_case_log_zeta,
    zeta_det,
    zeta_log_series,
)

from conftest import (
    ca_rules,
    exact_dk_traces,
    half_unit_sums,
    large_stochastic,
    oracle_c_r,
    oracle_global,
)


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
    # c_r names its own argument, not the r_max it passes on
    for r in (0, -1):
        with pytest.raises(ParamOutOfRange, match="need r >= 1, got r=%d" % r):
            c_r(loc, 3, r)


@pytest.mark.parametrize("call", [
    lambda n: trace_path_sum(dk_local_operator(DKParams(0.4, 0.7)), n),
    lambda n: trace_closed_form(dk_local_operator(DKParams(0.4, 0.7)), n),
    lambda n: t_case_spectrum(0.5, n),
    lambda n: t_case_c_r(0.5, n, 1),
    lambda n: t_case_log_zeta(0.5, n, 0.1),
], ids=["trace_path_sum", "trace_closed_form", "t_case_spectrum", "t_case_c_r",
        "t_case_log_zeta"])
def test_closed_forms_refuse_no_sites(call):
    # the closed forms share the one size rule's refusal of n < 1
    for n in (0, -1):
        with pytest.raises(ParamOutOfRange, match="at least one site"):
            call(n)


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
    # the last site never moves, so a power sweeps paired columns
    # e_2j + e_(2j+1): 2^(n-1) columns of 2^n rows, half the 4^n entries of
    # Q^r, for a GENERAL table.  DK derives its triangular vacant half and
    # takes the other from its certified blocks, so it sweeps nothing.  At
    # n = 1, where Q is the identity, neither sweeps
    calls = []
    sweep = zeta._sweep_2d

    def recorded(blocks, n_sites, states, out):
        calls.append(states.size)
        return sweep(blocks, n_sites, states, out)

    monkeypatch.setattr(zeta, "_sweep_2d", recorded)
    r_max = 3
    dk, general = dk_local_operator(DKParams(0.5, 0.75)), random_local_operator("general", rng)
    for n in (1, 2, 5, 11):
        calls.clear()
        zeta_log_series(general, n, r_max)
        # batch after batch, each swept once per power
        got = [sum(calls[r::r_max]) for r in range(r_max)]
        assert got == ([0] * r_max if n == 1 else [4 ** n // 2] * r_max), n
        calls.clear()
        zeta_log_series(dk, n, r_max)
        assert calls == [], n


def derived_trace_tables():
    """Tables with a derived half: the 16 CA rules, DK at q = 1 and q < 1,
    bond DK, the rotation at four angles and a complex table with equal half
    tables, scaled to spectral radius 1."""
    z = np.random.default_rng(5).standard_normal((2, 2, 2)) @ np.array([1, 1j])
    z /= np.abs(np.linalg.eigvals(z)).max()
    equal = np.zeros((4, 4), dtype=complex)
    equal[0::2, 0::2] = equal[1::2, 1::2] = z
    return [*ca_rules(), *(dk_local_operator(DKParams(p, 1.0)) for p in (0.2, 0.5, 0.8, 1.0)),
            *(dk_local_operator(DKParams(p, q))
              for p, q in ((0.5, 0.75), (0.3, 0.6), (0.8, 0.2), (1.0, 0.0), (0.1, 0.9))),
            dk_local_operator(DKParams.bond_percolation(0.6447)),
            *(qca_rotation_local(xi) for xi in (0.3, 0.7, 1.3, 2.9)),
            make_local_operator(equal, "equal-halves")]


def test_derived_traces_match_the_paired_sweep():
    # every table here derives one half or both; the coefficients from the
    # half tables sit within 1e-13 of max(1, |C_r|) of the paired sweep
    # (read at most 6.1e-15, on the rotation)
    for loc in derived_trace_tables():
        assert any(pairs is not None for pairs in zeta._derived_halves(loc)), loc.label
        for n in range(1, 11):
            got = power_trace_coefficients(loc, n, 30)
            want = zeta._swept_coefficients(loc, n, 30)
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), \
                (loc.label, n)


def test_rotation_traces_from_the_half_tables():
    # C_r = cos(r xi)^(n-1), with no sweep, to n = 12 (read at most 1.7e-14)
    r = np.arange(1, 31)
    for xi in (0.3, 0.7, 1.3, 2.9):
        for n in range(1, 13):
            got = power_trace_coefficients(qca_rotation_local(xi), n, 30)
            assert np.abs(got - np.cos(r * xi) ** (n - 1)).max() <= 1e-13, (xi, n)


def test_derived_halves_never_sweep(monkeypatch):
    # where both halves derive, the traces take O(n r_max), with no sweep
    # and no eigensolve: equal half tables need tr M^r, not its eigenvalues
    both = [loc for loc in derived_trace_tables()
            if None not in zeta._derived_halves(loc)]
    assert len(both) == 10 + 4 + 4 + 1  # CA rules, DK at q = 1, rotations, equal halves

    def refused(*args, **kwargs):
        raise AssertionError("swept a table whose halves both derive")

    monkeypatch.setattr(zeta, "_sweep_2d", refused)
    monkeypatch.setattr(np.linalg, "eig", refused)
    for loc in both:
        for n in (1, 2, 7, 14):
            power_trace_coefficients(loc, n, 5)
            if zeta._column_sum_radius(loc, n) is not None:
                zeta_log_series(loc, n, 5)


def block_route_tables():
    """Tables whose columns sum to 1: DK on a (p, q) grid with q < 1, bond
    DK and PCA draws, each with a half that `_power_traces` takes from its
    certified blocks, and the 16 CA rules, 6 of them with such a half."""
    pca = np.random.default_rng(17)
    return [*(dk_local_operator(DKParams(p, q)) for p in (0.1, 0.5, 0.9, 1.0)
              for q in (0.0, 0.3, 0.75, 0.95)),
            dk_local_operator(DKParams.bond_percolation(0.6447)),
            *(random_local_operator("pca", pca) for _ in range(4)), *ca_rules()]


def test_block_route_matches_the_paired_sweep():
    # C_r with a half from the certified blocks sit within 1e-13 of
    # max(1, |C_r|) of the paired sweep
    tables = block_route_tables()
    assert sum(None in zeta._derived_halves(t) for t in tables) == 16 + 1 + 4 + 6
    for loc in tables:
        for n in range(1, 10):
            for r_max in (1, 2, 3, 7, 30):
                got = power_trace_coefficients(loc, n, r_max)
                want = zeta._swept_coefficients(loc, n, r_max)
                assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), \
                    (loc.label, n, r_max)


def test_block_route_complex_stochastic():
    # complex-stochastic tables take the block route in complex arithmetic.
    # Their C_r grow fast (to 2e29 at r = 12 here), and both routes lose
    # digits with that growth: the routes read up to 3.4e-11 apart, relative
    # to max(1, |C_r|), and a 40-digit check at n = 6 read the sweep 1.1e-12
    # and the blocks 2.2e-14 from exact on one draw.  So the bound is 1e-9
    rng = np.random.default_rng(11)
    for _ in range(8):
        loc = random_local_operator("complex-stochastic", rng)
        assert zeta._derived_halves(loc) == [None, None]
        for n in range(1, 9):
            got = power_trace_coefficients(loc, n, 12)
            want = zeta._swept_coefficients(loc, n, 12)
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))), n


def test_baby_giant_block_traces(rng):
    # tr C^r by baby and giant steps against matrix_power, in a buffer that
    # fits the stacks and in a larger one whose unused tail holds NaN
    for r_max in (1, 2, 4, 5, 30, 100):
        for dim in (1, 2, 5, 16):
            block = rng.standard_normal((dim, dim)) / math.sqrt(dim)
            want = np.array([np.trace(np.linalg.matrix_power(block, r))
                             for r in range(1, r_max + 1)])
            size = sum(zeta._baby_giant(r_max)) * dim * dim
            for spare in (np.empty(size), np.full(size + 7, np.nan)):
                got = zeta._block_traces(block, r_max, spare)
                assert got.shape == (r_max,)
                assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), \
                    (r_max, dim)
    cplx = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    want = [np.trace(np.linalg.matrix_power(cplx, r)) for r in range(1, 6)]
    got = zeta._block_traces(cplx, 5, np.empty(5 * 16, dtype=complex))
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_certified_tables_never_sweep(rng, monkeypatch):
    # a table whose certificates pass takes no sweep at all; one whose
    # certificate fails at some level takes the paired sweep at level n
    swept = []
    sweep = zeta._sweep_2d

    def recorded(blocks, n_sites, states, out):
        swept.append(n_sites)
        return sweep(blocks, n_sites, states, out)

    monkeypatch.setattr(zeta, "_sweep_2d", recorded)
    # the large stochastic table's certificates pass up to n = 3
    certified = [(dk_local_operator(DKParams(0.5, 0.75)), 6),
                 (random_local_operator("pca", rng), 6),
                 (random_local_operator("complex-stochastic", rng), 6), (large_stochastic(), 3)]
    for loc, top in certified:
        for n in range(1, top + 1):
            power_trace_coefficients(loc, n, 5)
    assert swept == []
    for loc, n in ((large_stochastic(), 4), (large_stochastic(), 6), (half_unit_sums(), 2),
                   (half_unit_sums(), 6)):
        swept.clear()
        power_trace_coefficients(loc, n, 5)
        assert swept and set(swept) == {n}, (loc.label, n)


def test_block_route_falls_back_beyond_the_budget(monkeypatch):
    # where the block route's charge exceeds the byte budget, no block is
    # grown and the call takes the paired sweep, so nothing admitted is
    # refused.  At n = 6 and r_max = 5 the route is charged 16 blocks of
    # 16 x 16 float64 and the traces, 33728 bytes; that is its count, not
    # what it holds
    loc = dk_local_operator(DKParams(0.5, 0.75))
    want = power_trace_coefficients(loc, 6, 5)
    sweeps, certified, swept, grown = zeta._trace_sweeps, zeta._certified_blocks, [], []

    def recorded(*args, **kwargs):
        swept.append(args[1])
        return sweeps(*args, **kwargs)

    def blocks(*args):
        grown.append(args[1:])
        return certified(*args)

    monkeypatch.setattr(zeta, "_trace_sweeps", recorded)
    monkeypatch.setattr(zeta, "_certified_blocks", blocks)
    monkeypatch.setattr(zeta, "_BYTE_BUDGET", 33728)
    power_trace_coefficients(loc, 6, 5)
    assert swept == [] and grown == [(1, 6)]
    grown.clear()
    monkeypatch.setattr(zeta, "_BYTE_BUDGET", 33727)
    got = power_trace_coefficients(loc, 6, 5)
    assert swept == [6] and grown == []
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_block_route_stays_within_its_reach_count(rng, monkeypatch):
    # the block route's traced peak stays within the count its reach check
    # charges, (11 + steps) largest blocks and both halves' traces; the
    # allowance covers the half tables, the certificate's scalars and
    # matmul's small scratch
    monkeypatch.setattr(zeta, "_trace_sweeps", lambda *args, **kwargs: pytest.fail("swept"))
    tables = [dk_local_operator(DKParams(0.5, 0.75)), random_local_operator("pca", rng),
              random_local_operator("complex-stochastic", rng)]
    for loc in tables:
        itemsize = 8 if not loc.matrix.imag.any() else 16
        for n in (9, 10, 11):
            for r_max in (3, 30):
                count = ((11 + sum(zeta._baby_giant(r_max))) * 4 ** (n - 2) * itemsize
                         + 32 * n * r_max)
                tracemalloc.start()
                try:
                    power_trace_coefficients(loc, n, r_max)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= count + (64 << 10), (loc.label, n, r_max, peak, count)


def test_power_trace_routes_at_the_eigensolver_cap(monkeypatch):
    # n = 12 is the last size whose largest certified block, of dimension
    # 2^(n-2), fits the eigensolver cap; from n = 13 its dense products
    # would take longer and hold far more than the paired sweep.  Each
    # family's route at both sizes, with tr Q against the closed form
    assert 1 << (12 - 2) == EIG_DIM_CAP
    rng = np.random.default_rng(23)
    deriving_ca = [loc for loc in ca_rules() if None not in zeta._derived_halves(loc)]
    assert len(deriving_ca) == 10
    routes = [  # the route at n = 12, at n = 13, and the tables that take them
        ("blocks", "sweep", [dk_local_operator(DKParams(0.5, 0.75)),
                             dk_local_operator(DKParams.bond_percolation(0.6447)),
                             random_local_operator("pca", rng),
                             random_local_operator("complex-stochastic", rng)]),
        ("derived", "derived",
         [dk_local_operator(DKParams(0.5, 1.0)), qca_rotation_local(0.7), *deriving_ca]),
        ("sweep", "sweep",
         [random_local_operator("general", rng), random_local_operator("qca", rng)]),
    ]
    certified, sweeps, taken = zeta._certified_blocks, zeta._trace_sweeps, []

    def blocks(*args):
        got = certified(*args)
        if got is not None:
            taken.append("blocks")
        return got

    def swept(*args, **kwargs):
        taken.append("sweep")
        return sweeps(*args, **kwargs)

    monkeypatch.setattr(zeta, "_certified_blocks", blocks)
    monkeypatch.setattr(zeta, "_trace_sweeps", swept)
    for at_12, at_13, tables in routes:
        for loc in tables:
            for n, route in ((12, at_12), (13, at_13)):
                taken.clear()
                got = power_trace_coefficients(loc, n, 1)[0] * (1 << n)
                assert (set(taken) or {"derived"}) == {route}, (loc.label, n)
                want = trace_closed_form(loc, n)
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (loc.label, n)


def test_both_routes_match_exact_dk_traces():
    # Fraction powers of the dense DK operator at rational (p, q): the block
    # route and the paired sweep within 1e-14 of max(1, |tr Q^r|); the float
    # tables round p and q, by under 1e-16 relative
    for p, q in ((Fraction(1, 2), Fraction(3, 4)), (Fraction(3, 10), Fraction(3, 5)),
                 (Fraction(2, 7), Fraction(5, 9)), (Fraction(1, 3), Fraction(1))):
        loc = dk_local_operator(DKParams(float(p), float(q)))
        for n in range(1, 5):
            want = np.array([float(t) for t in exact_dk_traces(p, q, n, 8)])
            for got in (power_trace_coefficients(loc, n, 8), zeta._swept_coefficients(loc, n, 8)):
                err = np.abs(got * (1 << n) - want)
                assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(want))), (p, q, n)


def test_sweep_through_a_spare_buffer(rng):
    # the sweep writes Q_n times the state into the buffer it is given and
    # returns that buffer, leaving the state as it was; at n = 1, where Q is
    # the identity, the buffer holds a copy of the state
    for loc in (dk_local_operator(DKParams(0.5, 0.75)), random_local_operator("general", rng)):
        blocks = _sweep_blocks(loc.matrix)
        for n in range(1, 8):
            states = rng.standard_normal((1 << n, 3)) + 1j * rng.standard_normal((1 << n, 3))
            keep = states.copy()
            want = oracle_global(loc, n) @ states
            out = np.empty_like(states)
            got = _sweep_2d(blocks, n, states, out)
            assert got is out
            assert np.array_equal(states, keep)
            if n == 1:
                assert np.array_equal(out, keep)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (loc.label, n)


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


def shift_t_log_zeta(t, n_sites, u):
    """sum_k w_k (-log1p(-t^k u)) in Python floats, w_k = C(n-1, k) / 2^(n-1)
    divided exactly in integers."""
    total = 1 << (n_sites - 1)
    return math.fsum(math.comb(n_sites - 1, k) / total * -math.log1p(-t ** k * u)
                     for k in range(n_sites))


def test_log_det_keeps_factors_below_half_an_ulp():
    # a factor 1 - lambda u within eps/2 of 1 rounds to 1, and its plain
    # log to 0: at n = 1000 every term of the shift-t form is such a factor
    # (u ((1 + t)/2)^(n-1) = 1.26e-188), which a plain log read as 1.6e-261.
    # From n = 1025 the binomial weights pass float range, and stay finite
    for n in (62, 63, 1000, 1025, 2000):
        want = shift_t_log_zeta(0.3, n, 0.1)
        got = t_case_log_zeta(0.3, n, 0.1)
        assert abs(got - want) <= 1e-13 * abs(want), (n, got, want)
    assert shift_t_log_zeta(0.3, 1000, 0.1) == pytest.approx(1.26e-188, rel=1e-2)
    # complex factors too, where np.log1p would round 1 + z first, with no
    # warning on a subnormal imaginary part
    for z in (1e-20 + 1e-30j, 1e-17, 1e-10 + 1e-10j, 1e-15j, 1e-16 + 5e-324j):
        want = z + z * z / 2 + z ** 3 / 3
        assert abs(zeta._log_det(np.array([z]), 1.0, 1.0) - want) <= 1e-15 * abs(want), z


def test_t_case_log_zeta_refuses_past_its_row_cap():
    # the exact binomial row costs (n-1)^2 bit operations (0.87 s at
    # n = 60000): from n = 32770 on a call is refused in one line before the
    # row, instead of running for minutes at n = 10^6
    for n in (32770, 10 ** 6, 10 ** 9):
        for t in (0.3, 0.999):
            start = time.perf_counter()
            with pytest.raises(SizeCapExceeded, match="cap") as refused:
                t_case_log_zeta(t, n, 0.1)
            assert time.perf_counter() - start < 1.0, (n, t)
            assert "\n" not in str(refused.value)


def test_t_case_spectrum_refused_past_int64():
    # its multiplicities sum to 2^n, past int64 from n = 63
    assert t_case_spectrum(0.3, 62).total == 1 << 62
    for n in (63, 70, 2000):
        with pytest.raises(SizeCapExceeded, match="int64 multiplicity limit"):
            t_case_spectrum(0.3, n)


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


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, complex(0.1, math.nan),
                               complex(math.inf, 0.2)])
def test_non_finite_u_refused_before_any_solve(u, monkeypatch):
    # a non-finite u has no zeta value: refused, not returned as nan or inf
    def refused(*args, **kwargs):
        raise AssertionError("solved for a u that is refused")

    monkeypatch.setattr(zeta, "_spectrum_eigvals", refused)
    loc = dk_local_operator(DKParams(0.5, 0.75))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamOutOfRange):
            zeta_det(loc, 4, u)
        with pytest.raises(ParamOutOfRange):
            t_case_log_zeta(0.5, 4, u)


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
    asked, blocks = [], []
    sweeps, certified = zeta._trace_sweeps, zeta._certified_blocks

    def recorded(local, n_sites, r_max, with_norms):
        asked.append(with_norms)
        return sweeps(local, n_sites, r_max, with_norms)

    def block_route(*args):
        blocks.append(args)
        return certified(*args)

    monkeypatch.setattr(zeta, "_trace_sweeps", recorded)
    monkeypatch.setattr(zeta, "_certified_blocks", block_route)
    for loc in nonnegative_equal_sum_tables(rng):
        for n in (2, 5, 8):
            series = zeta_log_series(loc, n, 12)
            assert np.array_equal(series.coefficients, power_trace_coefficients(loc, n, 12))
            rho = np.abs(np.linalg.eigvals(build_global_recursive(loc, n).dense)).max()
            assert 1.0 / series.radius_hint >= rho - 1e-12, (loc.label, n)
            assert 1 <= 1.0 / series.radius_hint <= 1 + 4 * n * np.finfo(float).eps
    # no sweep at all: every table here passes its certificates, and DK's
    # non-derived half took the block route
    assert blocks and not asked
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


def test_zeta_det_at_many_u_takes_one_solve(rng, monkeypatch):
    # a 1-D array (or list) of u takes one solve and gives, entry for entry,
    # the complex that each u gives alone, bit for bit; a non-finite entry
    # is refused before the solve, and so is an array of more dimensions
    solves, solve = [], zeta._spectrum_eigvals
    monkeypatch.setattr(zeta, "_spectrum_eigvals",
                        lambda *args: (solves.append(args), solve(*args))[1])
    us = np.array([0.3, -0.25 + 0.2j, 0.1j, 1.5 + 0.3j, 0.0])
    for loc, n in ((dk_local_operator(DKParams(0.5, 0.75)), 5),
                   (random_local_operator("general", rng), 4)):
        alone = [zeta_det(loc, n, u) for u in us]
        assert all(type(value) is complex for value in alone)
        for many in (us, us.tolist()):
            solves.clear()
            got = zeta_det(loc, n, many)
            assert len(solves) == 1 and got.dtype == complex and got.shape == us.shape
            assert got.tolist() == alone, loc.label
    solves.clear()
    for refused in ([0.1, math.nan], np.array([[0.1, 0.2]])):
        with pytest.raises(ParamOutOfRange):
            zeta_det(loc, n, refused)
    assert not solves


def test_qca_rotation_coefficients_and_report():
    rep = verify_claim("qca-rotation", [qca_rotation_local(0.7)], 5, tol=1e-9, r_max=25)
    assert rep.passed
    assert rep.worst_residual < 1e-12
    loc = qca_rotation_local(0.7)
    for r in (1, 3, 10):
        assert abs(c_r(loc, 3, r) - np.cos(0.7 * r) ** 2) < 1e-12
