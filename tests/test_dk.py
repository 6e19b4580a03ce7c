import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ipszeta import dk
from ipszeta.dk import (
    DKParams,
    LatticeState,
    dk_entries,
    dk_local_operator,
    dk_step,
    estimate_survival,
    rho_q1_closed,
    scan_critical,
    wilson_interval,
)
from ipszeta.errors import NoBracket, ParamOutOfRange
from ipszeta.operators import OperatorKind, classify


def test_params_validation():
    with pytest.raises(ParamOutOfRange):
        DKParams(-0.1, 0.5)
    with pytest.raises(ParamOutOfRange):
        DKParams(0.5, 1.5)
    p = DKParams(0.3, 0.6)
    assert p.f(0) == 0.0 and p.f(1) == 0.3 and p.f(2) == 0.6


def test_special_cases():
    site = DKParams.site_percolation(0.4)
    assert site.q == pytest.approx(0.4)
    bond = DKParams.bond_percolation(0.4)
    assert bond.q == pytest.approx(1 - 0.6 * 0.6)
    assert DKParams(0.3, 0.6).attractive
    assert not DKParams(0.6, 0.3).attractive


def test_local_operator_columns():
    p, q = 0.35, 0.8
    m = dk_local_operator(DKParams(p, q)).matrix
    assert np.allclose(m.sum(axis=0), 1.0)
    # survival probabilities: empty pair never births, f(1)=p, f(2)=q
    assert m[2, 0] == 0.0
    assert m[2, 2] == pytest.approx(p)
    assert m[3, 1] == pytest.approx(p)
    assert m[3, 3] == pytest.approx(q)


def test_local_operator_half_half_table():
    m = dk_local_operator(DKParams(0.5, 0.5)).matrix
    assert m[0, 0] == 1.0
    assert m[0, 2] == 0.5
    assert m[1, 1] == 0.5
    assert m[1, 3] == 0.5
    assert m[2, 2] == 0.5
    assert m[3, 1] == 0.5
    assert m[3, 3] == 0.5
    assert m[2, 0] == 0.0


def test_formal_entries_no_range_check():
    m = dk_entries(0.7, 1.4)  # formal table, may leave the stochastic range
    assert m[3, 3] == pytest.approx(1.4)


def test_classification():
    assert classify(dk_local_operator(DKParams(0.3, 0.6))) is OperatorKind.PCA
    assert classify(dk_local_operator(DKParams(1.0, 0.0))) is OperatorKind.CA
    assert classify(dk_local_operator(DKParams(1.0, 1.0))) is OperatorKind.CA


def test_rho_closed_form():
    assert rho_q1_closed(0.3) == 0.0
    assert rho_q1_closed(0.5) == 0.0
    assert rho_q1_closed(0.8) == pytest.approx(0.9375)
    assert rho_q1_closed(1.0) == 1.0


def test_lattice_state_normalizes():
    s = LatticeState.from_iterable([3, 1, 3, -2], time=0)
    assert s.occupied == (-2, 1, 3)
    assert not s.empty
    assert LatticeState.from_iterable([], time=5).empty


def test_step_deterministic_limits():
    rng = np.random.default_rng(0)
    full = DKParams(1.0, 1.0)
    s = LatticeState.from_iterable([0], time=0)
    s = dk_step(s, full, rng)
    assert s.occupied == (-1, 0) and s.time == 1
    s = dk_step(s, full, rng)
    assert s.occupied == (-2, -1, 0)

    dead = DKParams(0.0, 0.0)
    s2 = dk_step(LatticeState.from_iterable([0, 1], time=0), dead, rng)
    assert s2.empty


def test_step_single_site_dies_without_births():
    rng = np.random.default_rng(4)
    out = dk_step(LatticeState.from_iterable([0], time=0), DKParams(0.0, 1.0), rng)
    assert out.empty  # both children see exactly one parent, f(1)=0


def test_step_pair_marginals():
    # from {0,1}: child 0 sees two parents (prob q), children -1 and 1 see one
    rng = np.random.default_rng(8)
    p, q = 0.6, 0.3
    trials = 20000
    hits = {-1: 0, 0: 0, 1: 0}
    for _ in range(trials):
        out = dk_step(LatticeState.from_iterable([0, 1], time=0), DKParams(p, q), rng)
        for site in hits:
            hits[site] += site in out.occupied
    for site, prob in ((-1, p), (0, q), (1, p)):
        se = np.sqrt(prob * (1 - prob) / trials)
        assert abs(hits[site] / trials - prob) < 4 * se


def test_empty_state_is_absorbing():
    rng = np.random.default_rng(0)
    s = LatticeState.from_iterable([], time=2)
    out = dk_step(s, DKParams(1.0, 1.0), rng)
    assert out.empty and out.time == 3


def test_step_window_is_leftward():
    # candidates are [min-1, max]: the right edge cannot grow
    rng = np.random.default_rng(1)
    s = LatticeState.from_iterable([0], time=0)
    for _ in range(30):
        s = dk_step(s, DKParams(1.0, 1.0), rng)
    assert max(s.occupied) == 0
    assert min(s.occupied) == -30


def test_wilson_interval_properties():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-15)
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 == pytest.approx(1.0, abs=1e-15)
    lo2, hi2 = wilson_interval(50, 100)
    assert lo2 < 0.5 < hi2
    lo3, hi3 = wilson_interval(500, 1000)
    assert hi3 - lo3 < hi2 - lo2  # width shrinks with sample size


def test_survival_exact_limits():
    est = estimate_survival(DKParams(1.0, 1.0), (0,), horizon=50, trials=300)
    assert est.estimate == 1.0 and est.survived == 300
    est0 = estimate_survival(DKParams(0.0, 0.0), (0,), horizon=50, trials=300)
    assert est0.estimate == 0.0 and est0.survived == 0


def test_survival_empty_seed_set():
    est = estimate_survival(DKParams(0.8, 1.0), (), horizon=50, trials=100)
    assert est.estimate == 0.0 and est.survived == 0
    assert est.ci == (0.0, 0.0)


def test_survival_refuses_seeds_that_key_no_stream():
    # a Philox key word is an unsigned 64-bit integer
    for base_seed in (-1, 1 << 64):
        with pytest.raises(ParamOutOfRange):
            estimate_survival(DKParams(0.5, 0.5), (0,), horizon=3, trials=3, base_seed=base_seed)
    top = estimate_survival(DKParams(0.5, 0.5), (0,), horizon=3, trials=3, base_seed=(1 << 64) - 1)
    assert top.trials == 3


def test_survival_deterministic_across_workers():
    params = DKParams(0.7, 0.9)
    a = estimate_survival(params, (0,), 60, 800, base_seed=3, workers=1)
    b = estimate_survival(params, (0,), 60, 800, base_seed=3, workers=5)
    assert a == b


def test_survival_monotone_in_horizon():
    # same trial streams: surviving at T is necessary for surviving at T' > T
    params = DKParams(0.65, 0.9)
    short = estimate_survival(params, (0,), 30, 1500, base_seed=11)
    long = estimate_survival(params, (0,), 90, 1500, base_seed=11)
    assert long.survived <= short.survived


def test_survival_matches_closed_form():
    params = DKParams(0.8, 1.0)
    est = estimate_survival(params, (0,), horizon=150, trials=6000, base_seed=5,
                            workers=4)
    assert abs(est.estimate - 0.9375) < 0.02
    assert est.ci[0] <= est.estimate <= est.ci[1]


def test_subcritical_site_percolation_dies():
    est = estimate_survival(DKParams.site_percolation(0.2), (0,), horizon=100,
                            trials=2000, base_seed=1)
    assert est.estimate < 0.01


def test_seed_set_union_helps():
    params = DKParams(0.6, 0.9)
    one = estimate_survival(params, (0,), 60, 3000, base_seed=2)
    two = estimate_survival(params, (0, 1, 2), 60, 3000, base_seed=2)
    assert two.estimate >= one.estimate


def test_scan_brackets_known_threshold():
    grid = [0.40, 0.45, 0.50, 0.55, 0.60]
    result = scan_critical(1.0, grid, horizon=120, trials=600, threshold=0.02,
                           base_seed=0, workers=4)
    lo, hi = result.bracket
    assert lo < 0.5 <= hi + 1e-12
    assert result.labels == tuple(
        "survival" if pt.estimate > 0.02 else "extinction" for pt in result.points)


def test_scan_labels_deep_supercritical_point():
    result = scan_critical(1.0, [0.3, 0.9], horizon=100, trials=400, base_seed=0)
    assert result.labels == ("extinction", "survival")


def test_scan_requires_bracket():
    with pytest.raises(NoBracket):
        scan_critical(1.0, [0.8, 0.9], horizon=60, trials=300)


def test_scan_grid_validation():
    with pytest.raises(ParamOutOfRange):
        scan_critical(1.0, [0.5], horizon=10, trials=10)
    with pytest.raises(ParamOutOfRange):
        scan_critical(1.0, [0.5, 0.4], horizon=10, trials=10)


@pytest.mark.parametrize("call", [
    lambda: estimate_survival(DKParams(0.5, 0.5), (0,), 5, 3, workers=0),
    lambda: estimate_survival(DKParams(0.5, 0.5), (0,), 5, 3, workers=-1),
    lambda: scan_critical(1.0, [0.1, 0.2], 5, 3, workers=0),
    lambda: scan_critical(1.0, [0.1, 0.2, 5.0], 5, 3),
], ids=["survive-workers-0", "survive-workers-negative", "scan-workers-0", "scan-p-above-1"])
def test_refusals_come_before_any_trial(call, monkeypatch):
    # worker counts below one and grid points outside [0, 1] are refused
    # before the first block of trials runs, not after some points ran
    def refused(job):
        raise AssertionError("ran trials for a refused call")

    monkeypatch.setattr(dk, "_run_block", refused)
    with pytest.raises(ParamOutOfRange):
        call()


def test_scan_is_reproducible():
    grid = [0.30, 0.60]
    a = scan_critical(1.0, grid, 80, 400, base_seed=9)
    b = scan_critical(1.0, grid, 80, 400, base_seed=9, workers=3)
    assert a == b


# Survived counts recorded from the per-trial step loop before any rewrite.
def test_trial_stream_is_the_keyed_philox():
    # keyed by one uint64 array: the same stream as Philox(key=(base_seed,
    # trial)), words above 2^63 included
    for base_seed, trial in ((0, 0), (1, 2), (12345, 999), (2 ** 64 - 1, 0), (3, 2 ** 64 - 1),
                             (2 ** 64 - 1, 2 ** 64 - 1)):
        key = np.array([base_seed, trial], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        got = dk._trial_stream(base_seed, trial)
        for count in (1001, 7):  # 1001 ends inside a block of four outputs
            assert np.array_equal(got.random(count), want.random(count)), (base_seed, trial)


def test_pooled_streams_are_the_keyed_philox(monkeypatch):
    # a pooled generator re-keyed for (base_seed, trial) draws the words of a
    # new Philox(key=uint64[base_seed, trial]), also after the previous trial
    # left it inside a block of four outputs (1001 doubles) with a 32-bit
    # half word held
    monkeypatch.setattr(dk, "_streams", threading.local())
    for base_seed, trial in ((0, 0), (1, 2), (12345, 999), (2 ** 64 - 1, 0), (3, 2 ** 64 - 1),
                             (2 ** 64 - 1, 2 ** 64 - 1)):
        for used in (False, True):
            pooled = dk._trial_streams(7, 5, 6)[0]
            if used:
                pooled.random(1001)
                pooled.integers(0, 2 ** 32, 1, dtype=np.uint32)
            got = dk._trial_streams(base_seed, trial, trial + 1)[0]
            want = np.random.Generator(np.random.Philox(key=np.array([base_seed, trial],
                                                                     np.uint64)))
            assert got is pooled
            assert np.array_equal(got.bit_generator.random_raw(1001),
                                  want.bit_generator.random_raw(1001)), (base_seed, trial)
            assert np.array_equal(got.integers(0, 2 ** 32, 3, dtype=np.uint32),
                                  want.integers(0, 2 ** 32, 3, dtype=np.uint32))
            assert np.array_equal(got.random(7), want.random(7)), (base_seed, trial)


def test_stream_pool_keeps_its_bound(monkeypatch):
    # a block larger than the bound is served whole, but the pool keeps only
    # _DRAW_BYTES // _STREAM_BYTES generators of it; a 63-site window holds
    # 1040 trials a block
    monkeypatch.setattr(dk, "_streams", threading.local())
    bound = dk._DRAW_BYTES // dk._STREAM_BYTES
    rngs = dk._trial_streams(3, 0, bound + 50)
    assert len(rngs) == bound + 50 and len({id(rng) for rng in rngs}) == bound + 50
    assert dk._streams.pool == rngs[:bound]
    est = estimate_survival(DKParams(0.6, 0.9), (0, 1, 2), 60, 3000, base_seed=2)
    assert est.survived == 1467 and len(dk._streams.pool) == bound


# Every (base_seed, trial) Philox stream is fixed, so a rewrite that keeps the
# draw layout reproduces them exactly for any worker count.  The two non-q=1
# cases pin the in-step draw order (low site first); trial counts above one
# block of trials cover block boundaries.
GOLDEN_COUNTS = [
    ((0.7, 0.9), (0,), 60, 800, 3, 607),
    ((0.6, 0.9), (0, 1, 2), 60, 3000, 2, 1467),
    ((0.7, 0.9), (0, 3), 40, 300, 5, 276),
    ((0.9, 0.3), (0, 2, 5), 50, 400, 7, 399),
    ((0.55, 0.95), (-4, -1, 0), 120, 500, 13, 106),
    ((0.8, 1.0), (0,), 300, 150, 0, 141),
]


@pytest.mark.parametrize("pq, seeds, horizon, trials, base_seed, survived", GOLDEN_COUNTS)
def test_survival_golden_counts(pq, seeds, horizon, trials, base_seed, survived):
    for workers in (1, 2):
        est = estimate_survival(DKParams(*pq), seeds, horizon, trials,
                                base_seed=base_seed, workers=workers)
        assert est.survived == survived


def test_threads_keep_their_own_stream_pools():
    # threads stepping blocks at once, more of them than most hosts have
    # cores and switched often, each re-key their own pool
    def survived(case):
        pq, seeds, horizon, trials, base_seed, _ = case
        return estimate_survival(DKParams(*pq), seeds, horizon, trials,
                                 base_seed=base_seed).survived

    cases = GOLDEN_COUNTS * 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(survived, cases, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert got == [case[-1] for case in cases]


def test_survival_peak_within_its_charge(monkeypatch):
    # a process is charged its draw buffer, numpy's buffer for a compare on
    # strided draws and, for each trial of a block, its stream and five
    # window-long bool rows.  On a pool that starts empty the golden cases
    # trace at 0.40 to 0.80 of that, and (0.9, 0.9) at T = 2000, whose 40
    # trials fill two sparse blocks, at 0.98; on the warm pool of a second
    # pass, which builds no stream, 0.40 to 0.98.  The first stream imports
    # numpy's generator modules, so a small run goes first
    monkeypatch.setattr(dk, "_streams", threading.local())
    charged, charge = [], dk._charge
    monkeypatch.setattr(dk, "_charge", lambda nbytes, what: (charged.append(nbytes),
                                                             charge(nbytes, what)))
    estimate_survival(DKParams(0.5, 0.5), (0,), 3, 3)
    cases = GOLDEN_COUNTS + [((0.9, 0.9), (0,), 2000, 40, 0, 40)]
    for pq, seeds, horizon, trials, base_seed, survived in cases * 2:
        tracemalloc.start()
        try:
            est = estimate_survival(DKParams(*pq), seeds, horizon, trials, base_seed=base_seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.survived == survived and peak <= charged[-1], (pq, peak, charged[-1])


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size and the jobs
    mapped, and runs them in-process."""

    def __init__(self, log, max_workers):
        self.log = log
        log.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        self.log.append(len(jobs))
        return map(fn, jobs)


@pytest.mark.parametrize("case, workers, pool_and_jobs", [
    # a 61-site window holds 1074 trials a block: 800 trials start no pool
    (0, 5, []),
    # a 63-site window holds 1040 trials a block: 3000 trials are 3 jobs,
    # mapped over min(workers, 3) processes on a host with 8 CPUs
    (1, 2, [2, 3]),
    (1, 8, [3, 3]),
])
def test_survival_blocks_are_the_jobs(case, workers, pool_and_jobs, monkeypatch):
    pq, seeds, horizon, trials, base_seed, survived = GOLDEN_COUNTS[case]
    log = []
    monkeypatch.setattr(dk, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(log, max_workers))
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    est = estimate_survival(DKParams(*pq), seeds, horizon, trials,
                            base_seed=base_seed, workers=workers)
    assert log == pool_and_jobs and est.survived == survived


def test_survival_pool_maps_windows(monkeypatch):
    # a 401-site window holds 163 trials a block: 1500 trials are 10 jobs, which
    # 2 processes take as windows of 8 and 2; 89 survivors, as the in-process
    # path counts them.  Processes are capped at the CPU count: 7000 workers
    # on 3 CPUs take one window of 10, and on 1 CPU (or an unknown count)
    # start no pool
    log = []
    monkeypatch.setattr(dk, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(log, max_workers))
    for cpus, workers, pool_and_jobs in ((8, 2, [2, 8, 2]), (3, 7000, [3, 10]),
                                         (1, 7000, []), (None, 7000, [])):
        log.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        est = estimate_survival(DKParams(0.6, 0.9), (0,), 400, 1500, base_seed=17,
                                workers=workers)
        assert log == pool_and_jobs and est.survived == 89, cpus
        assert not log or log[0] <= os.cpu_count()
