"""Compare the library's outputs in this checkout with those of another tree.

Usage: python tools/identity_probe.py --against DIR [--max-n N]

Each tree's `src` is imported in its own `python -B` subprocess, run from a
temporary directory with one BLAS thread, so the probe writes nothing into
either checkout.  Both compute the same outputs on the same tables:

- tables: DK on the grid p in {0.1, 0.5, 0.9, 1} x q in {0, 0.3, 0.75, 1},
  bond DK, the QCA rotation at 0.7 and 1.1, one draw each of PCA, Haar-QCA,
  GENERAL and complex-stochastic, two CA draws, the 16 CA rules, DK at
  (0.3, 0.75) with half 1's columns scaled by 0.9, a complex-stochastic
  table with entries near 1e4 and DK at (0.5, 0.75) with half 1's columns
  scaled by 0.9;
- at n = 1..N (N = 14 by default, the largest size admitted): the spectral
  outputs `spectral._spectrum_eigvals`, `spectrum` and `zeta_det` at
  [0.1, 0.3+0.2i];
- at n = 1..min(N, 12): the trace outputs `power_trace_coefficients` at
  r_max 1, 5 and 30 and `zeta_log_series` at r_max 30 (coefficients and
  radius hint).  Beyond n = 12 the paired sweep takes seconds a table;
- every `ipszeta` line of this checkout's README CLI block, run as
  `python -B -m ipszeta.cli` with each tree's `src` in a fresh temporary
  directory: its exit code, its stdout and the bytes of every file it
  writes.

A refused or failed call records its exception's type and text as its
output.  Outputs are compared with `np.array_equal(..., equal_nan=True)` and
equal dtypes, and command outputs byte for byte.  Prints one JSON line: the
counts of outputs, of equal ones and of differing ones, and the differing
keys.  Exits 0 when every output is equal, 1 otherwise.
"""

import argparse
import json
import os
import pickle
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
TRACES_N = 12


def _tables():
    from ipszeta.dk import DKParams, dk_local_operator
    from ipszeta.operators import make_local_operator, qca_rotation_local, random_local_operator

    tables = {"dk(%g,%g)" % (p, q): dk_local_operator(DKParams(p, q))
              for p in (0.1, 0.5, 0.9, 1.0) for q in (0.0, 0.3, 0.75, 1.0)}
    tables["bond-dk"] = dk_local_operator(DKParams.bond_percolation(0.6447))
    tables.update({"rotation(%g)" % xi: qca_rotation_local(xi) for xi in (0.7, 1.1)})
    for seed, fam in enumerate(("pca", "qca", "general", "complex-stochastic", "ca", "ca")):
        tables["%s-%d" % (fam, seed)] = random_local_operator(fam, np.random.default_rng(seed))
    for rule in range(16):
        m = np.zeros((4, 4))
        for c in range(4):
            m[2 * ((rule >> c) & 1) + c % 2, c] = 1.0
        tables["ca-rule-%d" % rule] = make_local_operator(m)
    for p in (0.3, 0.5):
        m = dk_local_operator(DKParams(p, 0.75)).matrix.copy()
        m[:, 1::2] *= 0.9
        tables["dk(%g,0.75)-half-1-scaled" % p] = make_local_operator(m)
    m = np.zeros((4, 4), dtype=complex)
    for c in range(4):
        z = 1e4 * (0.6 + 0.8j) * (1 + 0.1 * c)
        m[c % 2, c], m[2 + c % 2, c] = z, 1 - z
    tables["large-stochastic"] = make_local_operator(m)
    return tables


def _outputs(max_n: int) -> dict:
    """Every output of this process's `ipszeta`, by key."""
    from ipszeta import spectral, zeta

    def spectrum(loc, n):
        s = spectral.spectrum(loc, n)
        return s.values, s.multiplicities

    def log_series(loc, n):
        s = zeta.zeta_log_series(loc, n, 30)
        return s.coefficients, np.float64(s.radius_hint)

    spectra = {"eigvals": spectral._spectrum_eigvals, "spectrum": spectrum,
               "zeta_det": lambda loc, n: zeta.zeta_det(loc, n, np.array([0.1, 0.3 + 0.2j]))}
    traces = {"traces(%d)" % r: lambda loc, n, r=r: zeta.power_trace_coefficients(loc, n, r)
              for r in (1, 5, 30)}
    traces["log_series"] = log_series
    out = {}
    for label, loc in _tables().items():
        for n in range(1, max_n + 1):
            for name, call in {**spectra, **(traces if n <= TRACES_N else {})}.items():
                try:
                    got = call(loc, n)
                except Exception as exc:  # a refusal is an output too
                    got = "%s: %s" % (type(exc).__name__, exc)
                out["%s/%s/n=%d" % (name, label, n)] = got
    return out


def _equal(a, b) -> bool:
    """Outputs of one type, tuples equal item by item, refusals and bytes
    equal, arrays of one dtype equal by `np.array_equal(..., equal_nan=True)`."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, (str, bytes)):
        return a == b
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _readme_commands() -> list:
    """The `ipszeta` lines of the README's CLI block, in order."""
    block = (HERE / "README.md").read_text().split("## CLI", 1)[1].split("```sh", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("ipszeta ")]


def _command_outputs(tree: Path) -> dict:
    """Each README command's exit code, stdout and written files in `tree`."""
    out = {}
    for line in _readme_commands():
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run([sys.executable, "-B", "-m", "ipszeta.cli",
                                   *shlex.split(line)[1:]], cwd=cwd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL,
                                  env=dict(_ENV, PYTHONPATH=str(tree / "src")))
            files = sorted(p for p in Path(cwd).rglob("*") if p.is_file())
            out["cli/" + line] = ("exit %d" % proc.returncode, proc.stdout,
                                  *((str(p.relative_to(cwd)), p.read_bytes()) for p in files))
    return out


def _run(tree: Path, max_n: int, cwd: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-B", str(Path(__file__).resolve()), "--worker",
                             str(tree / "src"), "--max-n", str(max_n)],
                            cwd=cwd, env=_ENV, stdout=subprocess.PIPE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", type=Path, help="the other tree, holding src/ipszeta")
    ap.add_argument("--max-n", type=int, default=14, help="largest n (default 14)")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        sys.path.insert(0, args.worker)
        warnings.simplefilter("ignore")  # overflowing traces of the 1e4 table warn in both trees
        sys.stdout.buffer.write(pickle.dumps(_outputs(args.max_n)))
        return 0
    if args.against is None:
        ap.error("--against DIR is required")
    trees = (HERE, args.against.resolve())
    with tempfile.TemporaryDirectory() as cwd:
        procs = [_run(tree, args.max_n, cwd) for tree in trees]
        raw = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print(json.dumps({"error": "a worker exited %s" % [p.returncode for p in procs]}))
        return 2
    here, there = ({**pickle.loads(r), **_command_outputs(tree)} for r, tree in zip(raw, trees))
    differ = sorted(k for k in here.keys() & there.keys() if not _equal(here[k], there[k]))
    unmatched = sorted(here.keys() ^ there.keys())
    print(json.dumps({"outputs": len(here.keys() | there.keys()),
                      "equal": len(here.keys() & there.keys()) - len(differ),
                      "differ": len(differ) + len(unmatched), "keys": differ + unmatched}))
    return 1 if differ or unmatched else 0


if __name__ == "__main__":
    sys.exit(main())
