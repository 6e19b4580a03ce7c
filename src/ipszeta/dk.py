"""Domany-Kinzel model: local operator, lattice dynamics and survival estimates.

The model updates every site of Z synchronously: site x becomes occupied with
probability f(c) where c = |current set  intersect {x, x+1}|, f(0) = 0,
f(1) = p, f(2) = q.  Started from a finite set, the occupied region can only
spread leftward, so a run with horizon T lives on a window of size span + T.

Monte Carlo trials are embarrassingly parallel.  Trial i draws all of its
randomness from a counter-based Philox stream keyed by (base_seed, i): at step
t it consumes span + t uniforms for the candidate sites, low site first, so
runs are reproducible for any worker count and prefixes agree across horizons.
A Philox stream's whole state is its key and its counter, so each thread (and
so each worker process) keeps a pool of generators and re-keys them for the
next block's trials, building new ones only where the pool is short.

Trials run in blocks, and each block is one job for a worker process or the
caller.  A block's occupancies form one (trials, window) bool array that takes
one vectorised pair update per time step, with no per-site table lookup: the
uniforms are compared with p where exactly one parent is occupied and with q
where both are (q = 1 needs no compare).  Trials that go extinct leave the block after each
chunk of steps (a chunk is always a run of steps).  Uniforms are drawn lazily,
one chunk at a time, each live trial continuing its own stream, so the counts
do not depend on the blocking and a trial that dies early never draws the
uniforms it would not use.  Chunks grow with t (at most t steps from step t)
as long as the block's draws fit in `_DRAW_BYTES` (1 MiB); half of that budget
sizes the blocks, so that two steps of every trial in a block fit.  A process
is charged its draw buffer, numpy's buffer for a compare on strided draws, and,
for each trial of a block, its stream (`_STREAM_BYTES`) and five window-long
bool rows: the occupancy with the step's four temporaries, or with its copy as
extinct trials leave.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice, pairwise

import numpy as np

from .errors import NoBracket, ParamOutOfRange
from .operators import LocalOperator, _charge, _pair_update, make_local_operator
from .spectral import SpectrumMultiset

RNG_NAME = "philox4x64(key=(base_seed, trial_index))"
_Z95 = 1.959963984540054
# Bytes of uniforms a block of Monte Carlo trials holds at once; half of it
# sets the number of trials in a block.
_DRAW_BYTES = 1 << 20
# Bytes charged for one trial's Generator(Philox); tracemalloc reads about
# 610 a stream under numpy 2.4.  A thread pools at most
# _DRAW_BYTES // _STREAM_BYTES of them between blocks.
_STREAM_BYTES = 1 << 10
_streams = threading.local()


@dataclass(frozen=True)
class DKParams:
    """Pair (p, q) of update probabilities; attractive iff p <= q."""

    p: float
    q: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("q", self.q)):
            if not 0.0 <= v <= 1.0:
                raise ParamOutOfRange("%s=%r outside [0, 1]" % (name, v))

    @classmethod
    def site_percolation(cls, p: float) -> "DKParams":
        return cls(p, p)

    @classmethod
    def bond_percolation(cls, p: float) -> "DKParams":
        return cls(p, 1.0 - (1.0 - p) ** 2)

    @property
    def attractive(self) -> bool:
        return self.p <= self.q

    def f(self, count: int) -> float:
        return (0.0, self.p, self.q)[count]


def dk_entries(p: float, q: float) -> np.ndarray:
    """Local 4x4 weight table for formal parameters (p, q), no range check.

    Columns (= source pairs) always sum to 1, so the algebraic identities of
    the stochastic family hold even when p or q leave [0, 1].
    """
    return np.array(
        [
            [1.0, 0.0, 1.0 - p, 0.0],
            [0.0, 1.0 - p, 0.0, 1.0 - q],
            [0.0, 0.0, p, 0.0],
            [0.0, p, 0.0, q],
        ]
    )


def dk_local_operator(params: DKParams) -> LocalOperator:
    return make_local_operator(dk_entries(params.p, params.q),
                               label="dk(p=%g, q=%g)" % (params.p, params.q))


def rho_q1_closed(p: float) -> float:
    """Closed-form survival probability at q = 1: 1 - ((1-p)/p)^2 above 1/2."""
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRange("p=%r outside [0, 1]" % (p,))
    if p <= 0.5:
        return 0.0
    return 1.0 - (1.0 - p) ** 2 / p ** 2


@dataclass(frozen=True)
class LatticeState:
    """Finite occupied set on Z at a given time."""

    occupied: tuple
    time: int = 0

    @classmethod
    def from_iterable(cls, sites, time: int = 0) -> "LatticeState":
        return cls(tuple(sorted(set(int(x) for x in sites))), time)

    @property
    def empty(self) -> bool:
        return not self.occupied


def _birth_table(p: float, q: float) -> np.ndarray:
    """Birth probability by pair index 2*left + right: f(0), f(1), f(1), f(2)."""
    return np.array([0.0, p, p, q])


def dk_step(state: LatticeState, params: DKParams, rng) -> LatticeState:
    """One synchronous update; the empty set is absorbing.

    Candidate children are x in [min-1, max]; each is occupied independently
    with probability f(|parents|).  Draws one uniform per candidate site, low
    site first.
    """
    if state.empty:
        return LatticeState((), state.time + 1)
    lo, hi = state.occupied[0] - 1, state.occupied[-1]
    occ = np.zeros(hi - lo + 2, dtype=np.uint8)
    occ[np.array(state.occupied) - lo] = 1
    keep = _pair_update(_birth_table(params.p, params.q))(occ, rng.random(hi - lo + 1))
    sites = (np.nonzero(keep)[0] + lo).tolist()
    return LatticeState(tuple(int(x) for x in sites), state.time + 1)


# --- survival Monte Carlo ---------------------------------------------------


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ParamOutOfRange("need at least one trial")
    phat, z = successes / trials, _Z95
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def _trial_stream(base_seed: int, trial: int):
    """The Generator of `Philox(key=(base_seed, trial))`.  The key is handed
    in as one uint64 array: a tuple mixing words below and above 2^63 would
    pass through float64 and lose bits."""
    return np.random.Generator(np.random.Philox(key=np.array([base_seed, trial], np.uint64)))


def _trial_streams(base_seed: int, lo: int, hi: int) -> list:
    """The streams of `_trial_stream(base_seed, trial)` for trials lo..hi-1.

    Philox is counter-based: its whole state is a key, a counter and a
    buffer of unread outputs.  So a generator of this thread's pool, given
    the trial's key (one uint64 array, as above), a zero counter and an
    empty buffer, draws exactly the stream of a new one, whatever it drew
    before.  New generators are built only where the pool is short, and the
    pool keeps at most `_DRAW_BYTES // _STREAM_BYTES` of them.  The streams
    stay in the pool: the next call in the same thread re-keys them.
    """
    pool = _streams.__dict__.setdefault("pool", [])
    rngs = pool[:hi - lo]
    key = np.array([base_seed, lo], np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, np.uint64), "key": key},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for rng, trial in zip(rngs, range(lo, hi)):
        key[1] = trial
        rng.bit_generator.state = state
    rngs += [_trial_stream(base_seed, trial) for trial in range(lo + len(rngs), hi)]
    pool[len(pool):] = rngs[len(pool):_DRAW_BYTES // _STREAM_BYTES]
    return rngs


def _block_layout(window: int) -> tuple[int, int]:
    """Trials per block, two steps of each filling a full window within
    `_DRAW_BYTES`, and draw-buffer size."""
    return max(1, _DRAW_BYTES // (16 * window)), max(_DRAW_BYTES // 8, window)


def _run_block(job) -> int:
    """Survivors at the horizon among the job's trials lo..hi-1, stepped together.

    Row i of `occ` is one trial's occupancy on the window of span + horizon
    sites plus an always-vacant pad slot on the right; step t updates its
    span + t candidate sites starting at horizon - t.
    """
    table, rel, span, horizon, base_seed, lo, hi = job
    step = _pair_update(table)
    buf = np.empty(_block_layout(span + horizon)[1])
    rngs = _trial_streams(base_seed, lo, hi)
    occ = np.zeros((len(rngs), horizon + span + 1), dtype=bool)
    occ[:, horizon + rel] = True
    t = 1
    while rngs and t <= horizon:
        # k steps from t use k*(span + t) + k(k-1)/2 uniforms a trial; take the
        # largest k whose draws for every live trial fit in buf
        b = 2 * (span + t) - 1
        fit = (math.isqrt(b * b + 8 * (len(buf) // len(rngs))) - b) // 2
        k = max(1, min(t, horizon - t + 1, fit))
        need = k * (span + t) + k * (k - 1) // 2
        draws = buf[:len(rngs) * need].reshape(len(rngs), need)
        for row, rng in zip(draws, rngs):
            rng.random(out=row)
        off = 0
        for s in range(t, t + k):
            w, s0 = span + s, horizon - s
            occ[:, s0:s0 + w] = step(occ[:, s0:s0 + w + 1], draws[:, off:off + w])
            off += w
        t += k
        alive = occ[:, s0:s0 + w].any(axis=1)
        if not alive.all():
            occ = occ[alive]
            rngs = [rng for rng, keep in zip(rngs, alive) if keep]
    return len(rngs)


@dataclass(frozen=True)
class SurvivalEstimate:
    p: float
    q: float
    seed_set: tuple
    horizon: int
    trials: int
    survived: int
    estimate: float
    ci: tuple[float, float]
    seed: int


def estimate_survival(params: DKParams, seed_set, horizon: int, trials: int,
                      base_seed: int = 0, workers: int = 1) -> SurvivalEstimate:
    """Fraction of trials whose occupied set is nonempty at the horizon.

    The empty seed set never survives (its estimate is exactly 0); otherwise
    trials are run on the fixed leftward-growing window with early exit on
    extinction.  Each block of trials is one job, run in min(workers, blocks,
    os.cpu_count()) processes when that is more than one, which are handed
    at most 4 jobs a process at a time; all their buffers count against the
    byte budget, and results do not depend on the worker count.  A
    `base_seed` outside [0, 2^64), which keys no stream, and `workers`
    below 1 are refused before any trial runs, even for the empty seed set.
    """
    if horizon < 1 or trials < 1:
        raise ParamOutOfRange("need horizon >= 1 and trials >= 1")
    if not 0 <= base_seed < 1 << 64:
        raise ParamOutOfRange("base_seed=%r outside [0, 2**64)" % (base_seed,))
    if workers < 1:
        raise ParamOutOfRange("workers=%r must be at least 1" % (workers,))
    a = tuple(sorted(set(int(x) for x in seed_set)))
    if not a:
        # no sampling happens: the empty set is absorbing by definition
        return SurvivalEstimate(params.p, params.q, a, horizon, trials, 0, 0.0,
                                (0.0, 0.0), base_seed)
    span = a[-1] - a[0] + 1
    block, size = _block_layout(span + horizon)
    processes = min(workers, -(-trials // block), os.cpu_count() or 1)
    # a step reads a block's draws for the step as a strided view, which numpy
    # compares through a buffer of up to np.getbufsize() draws; a one-trial
    # block's draws are one contiguous run, compared unbuffered
    draws = size + (block > 1) * np.getbufsize()
    _charge(processes * (8 * draws + block * (_STREAM_BYTES + 5 * (span + horizon + 1))),
            "%d trial process(es) on a window of %d sites" % (processes, span + horizon))
    table = _birth_table(params.p, params.q)
    rel = np.array([x - a[0] for x in a], dtype=np.int64)
    jobs = ((table, rel, span, horizon, base_seed, lo, min(lo + block, trials))
            for lo in range(0, trials, block))
    if processes == 1:
        survived = sum(map(_run_block, jobs))
    else:
        # `pool.map` submits every job it is given at once
        survived = 0
        with ProcessPoolExecutor(max_workers=processes) as pool:
            while window := list(islice(jobs, 4 * processes)):
                survived += sum(pool.map(_run_block, window))
    est = survived / trials
    return SurvivalEstimate(params.p, params.q, a, horizon, trials, survived, est,
                            wilson_interval(survived, trials), base_seed)


# --- critical scans ---------------------------------------------------------

LABEL_SURVIVAL = "survival"
LABEL_EXTINCTION = "extinction"


@dataclass(frozen=True)
class CriticalScanResult:
    q: float
    threshold: float
    points: tuple
    labels: tuple
    bracket: tuple[float, float]


def _point_seed(base_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def scan_critical(q: float, p_grid, horizon: int, trials: int, threshold: float = 0.02,
                  base_seed: int = 0, workers: int = 1) -> CriticalScanResult:
    """Estimate survival from the single seeded site 0 along a p-grid and
    bracket the threshold crossing.

    Points with estimate below the threshold are labeled extinction, others
    survival; the bracket is the first adjacent pair straddling the threshold.
    Every point's (p, q) is checked before the first trial runs, and
    `estimate_survival` refuses `workers` below 1 before it.  Raises
    NoBracket if the labels never change across the grid.
    """
    grid = [float(p) for p in p_grid]
    if len(grid) < 2 or any(b <= a for a, b in pairwise(grid)):
        raise ParamOutOfRange("p_grid must be increasing with at least two points")
    if not 0.0 < threshold < 1.0:
        raise ParamOutOfRange("threshold must be in (0, 1)")
    for p in grid:  # refuse a point outside [0, 1] before any trial runs
        DKParams(p, q)
    points = [estimate_survival(DKParams(p, q), (0,), horizon, trials,
                                base_seed=_point_seed(base_seed, i), workers=workers)
              for i, p in enumerate(grid)]
    labels = tuple(LABEL_EXTINCTION if pt.estimate < threshold else LABEL_SURVIVAL
                   for pt in points)
    bracket = next((pair for pair, (a, b) in zip(pairwise(grid), pairwise(labels)) if a != b),
                   None)
    if bracket is None:
        raise NoBracket("survival estimates never cross %g on the grid" % threshold)
    return CriticalScanResult(q, threshold, tuple(points), labels, bracket)


# --- small-system reference spectrum ----------------------------------------


def dk_reference_spectrum_n3(params: DKParams) -> SpectrumMultiset:
    """Closed-form spectrum of the 3-site operator:
    {1, 1, p, p, q-p, p(q-p), lambda+, lambda-} with
    lambda+- = (-k +- sqrt(k^2 - 4p(p-q)^2))/2, k = p^2 - q^2 + pq - p."""
    p, q = params.p, params.q
    k = p * p - q * q + p * q - p
    disc = np.sqrt(complex(k * k - 4 * p * (p - q) ** 2))
    lp = (-k + disc) / 2
    lm = (-k - disc) / 2
    values = [1.0, 1.0, p, p, q - p, p * (q - p), lp, lm]
    return SpectrumMultiset.from_pairs(values, [1] * 8, 8)
