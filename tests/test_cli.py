import json
import re
import shlex
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ipszeta import cli, dk
from ipszeta.claims import CLAIMS
from ipszeta.cli import main
from ipszeta.dk import DKParams, dk_local_operator
from ipszeta.operators import build_global_kronecker, make_local_operator, random_local_operator
from ipszeta.serialize import operator_from_json, operator_to_json


def run(argv):
    return main(argv)


def _warning_to_stderr(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def test_op_build_json_roundtrip(tmp_path):
    out = tmp_path / "op.json"
    assert run(["op", "build", "--model", "dk", "--p", "0.5", "--q", "0.75",
                "--n", "3", "--out", str(out)]) == 0
    n, loc = operator_from_json(out.read_text())
    assert n == 3
    want = dk_local_operator(DKParams(0.5, 0.75)).matrix
    assert np.abs(loc.matrix - want).max() == 0.0


def test_op_build_dense_csv(tmp_path):
    out = tmp_path / "op.csv"
    assert run(["op", "build", "--model", "dk", "--p", "0.5", "--q", "0.75",
                "--n", "2", "--format", "csv", "--out", str(out)]) == 0
    dense = build_global_kronecker(dk_local_operator(DKParams(0.5, 0.75)), 2).dense
    got = np.zeros((4, 4), dtype=complex)
    for line in out.read_text().strip().split("\n"):
        if line.startswith("#") or line.startswith("row"):
            continue
        r, c, re, im = line.split(",")
        got[int(r), int(c)] = float(re) + 1j * float(im)
    assert np.abs(got - dense).max() < 1e-15


def test_custom_model_file(tmp_path):
    path = tmp_path / "local.json"
    assert run(["op", "build", "--model", "dk", "--p", "0.3", "--q", "0.9",
                "--n", "4", "--out", str(path)]) == 0
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--model", "custom", "--file", str(path),
                "--out", str(out)]) == 0
    lines = [l for l in out.read_text().strip().split("\n") if not l.startswith("#")]
    mults = sum(int(l.split(",")[2]) for l in lines[1:])
    assert mults == 16  # n carried by the file


def test_spectrum_with_histogram(tmp_path):
    spec_out = tmp_path / "s.csv"
    hist_out = tmp_path / "h.csv"
    assert run(["spectrum", "--model", "dk", "--p", "0.5", "--q", "0.5",
                "--n", "5", "--out", str(spec_out), "--hist", str(hist_out)]) == 0
    text = hist_out.read_text()
    assert "# bin_size=0.05" in text
    meta = dict(l[2:].split("=", 1) for l in text.strip().split("\n") if l.startswith("# "))
    assert int(meta["total"]) == 32


def test_zeta_coefficients_frozen(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["zeta", "--model", "dk", "--p", "1", "--q", "0", "--n", "3",
                "--rmax", "4", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().strip().split("\n") if not l.startswith("#")]
    assert rows[1:] == ["1,0.25,0.0", "2,0.5,0.0", "3,0.25,0.0", "4,1.0,0.0"]


def test_zeta_eval_json(tmp_path):
    out = tmp_path / "z.json"
    assert run(["zeta", "--model", "dk", "--p", "0.5", "--q", "0.75", "--n", "3",
                "--u", "0.25", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["n"] == 3
    assert blob["u"] == [0.25, 0.0]
    z = complex(*blob["zeta"])
    lz = complex(*blob["log_zeta"])
    assert abs(z - np.exp(lz)) < 1e-12
    assert blob["truncation_bound"] is not None


def test_zeta_u_pair_form(tmp_path):
    # --u "x,y" is the point x+yj, with the same bytes out
    outs = [tmp_path / "pair.json", tmp_path / "complex.json"]
    for u, out in zip(("0.25,0.1", "0.25+0.1j"), outs):
        assert run(["zeta", "--model", "dk", "--p", "0.5", "--q", "0.75", "--n", "3",
                    "--u", u, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert json.loads(outs[0].read_text())["u"] == [0.25, 0.1]


def test_output_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["dk", "survive", "--p", "0.6", "--q", "0.8", "--horizon", "40",
            "--trials", "500", "--seed", "7"]
    assert run(argv + ["--threads", "1", "--out", str(a)]) == 0
    assert run(argv + ["--threads", "6", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_pass_and_fail(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "build-recursion", "--random", "general",
                "--trials", "5", "--n", "3", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["pass"] is True and blob["worst_residual"] < 1e-12

    assert run(["verify", "block-sums", "--random", "qca",
                "--trials", "3", "--n", "3", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["pass"] is True

    # Haar unitaries lack unit column sums: out of the recursion's domain
    assert run(["verify", "spectral-recursion", "--random", "qca",
                "--trials", "3", "--n", "3", "--out", str(out)]) == 1
    blob = json.loads(out.read_text())
    assert blob["pass"] is None

    assert run(["verify", "spectral-recursion", "--random", "pca",
                "--trials", "5", "--n", "3", "--out", str(out)]) == 0
    assert run(["verify", "qca-rotation", "--xi", "0.7", "--n", "4",
                "--rmax", "10", "--out", str(out)]) == 0


@pytest.mark.parametrize("family", ["general", "qca"])
def test_verify_block_sums_general_form(family, tmp_path):
    # E+G = Q_{n-1} D_0 and F+H = Q_{n-1} D_1 hold for every table
    out = tmp_path / "r.json"
    assert run(["verify", "block-sums", "--random", family, "--trials", "5", "--n", "3",
                "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["pass"] is True and blob["worst_residual"] <= 1e-12
    assert blob["details"]["domain"] == "every table"
    assert len(blob["details"]["cases"]) == 5


def test_verify_out_of_domain_reports_null(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "spectral-recursion", "--random", "general", "--trials", "5",
                "--n", "3", "--out", str(out)]) == 1
    blob = json.loads(out.read_text())
    assert blob["pass"] is None
    assert blob["details"]["reason"].startswith("out of domain")
    cases = blob["details"]["cases"]
    assert len(cases) == 5
    assert all(not c["in_domain"] and c["residual"] > 1e-7 for c in cases)


def test_readme_verify_commands_pass(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [l for l in readme.read_text().splitlines() if l.startswith("ipszeta verify ")]
    assert len(lines) >= 6
    for line in lines:
        argv = shlex.split(line)[1:] + ["--out", str(tmp_path / "r.json")]
        assert run(argv) == 0, line


@pytest.mark.parametrize("argv", [
    ["verify", "block-sums", "--random", "pca", "--trials", "2"],
    ["verify", "qca-rotation", "--xi", "0.7"],
])
def test_verify_missing_n_is_usage_error(argv):
    with pytest.raises(SystemExit) as ei:
        run(argv)
    assert ei.value.code == 2


def test_verify_zero_trials_is_usage_error(capsys):
    # no random tables: `verify_claim` refuses the empty table list
    assert run(["verify", "build-recursion", "--random", "pca", "--trials", "0", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least one table" in err


@pytest.mark.parametrize("claim,rmax", [("derived-halves", "0"), ("build-recursion", "-4")])
def test_verify_rmax_below_one_is_usage_error(claim, rmax, capsys):
    assert run(["verify", claim, "--model", "dk", "--p", "0.5", "--q", "0.75", "--n", "3",
                "--rmax", rmax]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "r_max" in err


def test_verify_t_family_rejects_unequal_shifts(tmp_path):
    out = tmp_path / "r.json"
    rc = run(["verify", "t-family", "--model", "dk", "--p", "0.3", "--q", "0.9",
              "--n", "3", "--out", str(out)])
    assert rc == 1
    blob = json.loads(out.read_text())
    assert blob["pass"] is None
    assert "reason" in blob["details"]


def test_verify_t_family_accepts_t_model(tmp_path):
    out = tmp_path / "r.json"
    rc = run(["verify", "t-family", "--model", "dk", "--p", "0.3", "--q", "0.6",
              "--n", "3", "--rmax", "10", "--out", str(out)])
    assert rc == 0


def test_verify_t_family_accepts_defective_size(tmp_path):
    # at n=5 single eigenvalues of the defective Q_5 scatter by ~1e-4, but the
    # block certificate decides the claim exactly
    out = tmp_path / "r.json"
    rc = run(["verify", "t-family", "--model", "dk", "--p", "0.3", "--q", "0.6",
              "--n", "5", "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["worst_residual"] < 1e-12
    assert blob["details"]["coefficient_error"] < 1e-12
    assert blob["details"]["eigenvalue_distance"] > 0.0


def test_verify_t_family_rejects_equal_shifts_without_unit_sums(tmp_path):
    # both rotation blocks share the shift cos - sin, but columns do not sum to 1
    out = tmp_path / "r.json"
    rc = run(["verify", "t-family", "--model", "qca", "--xi", "0.9", "--n", "3",
              "--out", str(out)])
    assert rc == 1
    blob = json.loads(out.read_text())
    assert "reason" in blob["details"]
    assert blob["worst_residual"] > 0.1


def test_usage_error_without_model():
    with pytest.raises(SystemExit) as ei:
        run(["spectrum", "--n", "3"])
    assert ei.value.code == 2


def test_identity_default_single_site(capsys):
    assert run(["spectrum", "--n", "1"]) == 0
    text = capsys.readouterr().out
    assert "1.0,0.0,2" in text


def test_cap_exceeded_exit_code(capsys):
    assert run(["op", "build", "--model", "dk", "--p", "0.5", "--q", "0.5",
                "--n", "20", "--format", "csv"]) == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["spectrum"], ["op", "build", "--format", "csv"],
                                  ["verify", "block-sums"]])
def test_dense_n14_refused_exit_code(argv, capsys):
    assert run(argv + ["--model", "dk", "--p", "0.5", "--q", "0.5", "--n", "14"]) == 3
    assert "cap" in capsys.readouterr().err


def test_param_error_exit_code(capsys):
    assert run(["dk", "survive", "--p", "1.5", "--q", "0.5"]) == 2


@pytest.mark.parametrize("argv, file_text", [
    (["dk", "scan", "--q", "1", "--p-from", "0.4", "--p-to", "0.7", "--p-step", "0"], None),
    (["op", "build", "--model", "custom", "--file", "{missing}"], None),
    (["op", "build", "--model", "custom", "--file", "{file}"], '{"n": 3}'),
    (["op", "build", "--model", "custom", "--file", "{file}"],
     '{"n": 3, "local": {"a_kl_ij": 5}}'),
    (["op", "build", "--model", "dk", "--p", "0.5", "--q", "0.5", "--n", "-1"], None),
    (["op", "build", "--model", "dk", "--p", "0.5", "--q", "0.5", "--n", "2",
      "--out", "{missing}"], None),
    # non-finite table entries and evaluation points
    (["spectrum", "--model", "qca", "--xi", "nan", "--n", "3"], None),
    (["zeta", "--model", "qca", "--xi", "inf", "--n", "3", "--rmax", "3"], None),
    (["zeta", "--model", "custom", "--file", "{file}", "--rmax", "3"],
     '{"n": 3, "local": {"a_kl_ij": [[NaN, 0]' + ', [0, 0]' * 15 + ']}}'),
    (["zeta", "--model", "dk", "--p", "0.5", "--q", "0.75", "--n", "3", "--u", "nan"], None),
    # "n" must be a JSON integer
    *((["op", "build", "--model", "custom", "--file", "{file}"],
       '{"n": %s, "local": {"a_kl_ij": [[1, 0]' % n + ', [0, 0]' * 15 + ']}}')
      for n in ("2.7", "true", '"4"')),
    # Monte Carlo seeds that key no Philox stream
    *((["dk", "survive", "--p", "0.5", "--q", "0.5", "--trials", "3", "--horizon", "3",
        "--threads", "1", "--seed", seed], None) for seed in ("-1", str(1 << 64))),
    # tolerances no residual can be compared with
    *((["verify", "build-recursion", "--model", "dk", "--p", "0.5", "--q", "0.75", "--n", "3",
        "--tol", tol], None) for tol in ("nan", "-1")),
    # worker counts below one
    *((["dk", "survive", "--p", "0.5", "--q", "0.5", "--trials", "3", "--horizon", "3",
        "--threads", threads], None) for threads in ("0", "-4")),
    *((["dk", "scan", "--q", "1", "--p-grid", "0.5,0.9", "--trials", "3", "--horizon", "3",
        "--threads", threads], None) for threads in ("0", "-4")),
    # a scan range with an infinite end
    (["dk", "scan", "--q", "1", "--p-from", "0.4", "--p-to", "inf", "--p-step", "0.1"], None),
    (["dk", "scan", "--q", "1", "--p-from=-inf", "--p-to", "0.7"], None),
    # a table of other than 16 entries
    (["op", "build", "--model", "custom", "--file", "{file}"],
     '{"n": 3, "local": {"a_kl_ij": [[1, 0]' + ', [0, 0]' * 14 + ']}}'),
    # a model without its parameters, a scan without a grid
    (["spectrum", "--model", "dk", "--q", "0.5", "--n", "3"], None),
    (["spectrum", "--model", "qca", "--n", "3"], None),
    (["spectrum", "--model", "custom", "--n", "3"], None),
    (["dk", "scan", "--q", "1"], None),
    # block sums compare Q_n with Q_(n-1)
    (["verify", "block-sums", "--model", "dk", "--p", "0.5", "--q", "0.5", "--n", "1"], None),
], ids=["p-step-0", "file-missing", "file-no-local", "file-bad-table", "n-negative",
        "out-dir-missing", "xi-nan", "xi-inf", "file-nan-entry", "u-nan",
        "file-n-float", "file-n-bool", "file-n-string", "seed-negative", "seed-2-64",
        "tol-nan", "tol-negative", "survive-threads-0", "survive-threads-negative",
        "scan-threads-0", "scan-threads-negative", "p-to-inf", "p-from-minus-inf",
        "file-15-entries", "dk-without-p", "qca-without-xi", "custom-without-file",
        "scan-without-grid", "block-sums-n-1"])
def test_bad_outside_input_exits_2(argv, file_text, tmp_path, capsys):
    # inputs from outside the program are usage or parameter errors, never tracebacks
    path = tmp_path / "op.json"
    if file_text is not None:
        path.write_text(file_text)
    argv = [a.format(file=path, missing=tmp_path / "missing-dir" / "x.csv") for a in argv]
    with warnings.catch_warnings():
        # show warnings on stderr, as a shell user of the CLI would see them
        warnings.simplefilter("always")
        warnings.showwarning = _warning_to_stderr
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err or "usage:" in err
    assert "Traceback" not in err
    assert "Warning" not in err
    if "--xi" in argv:
        assert "xi=" in err


@pytest.mark.parametrize("argv", [
    ["spectrum"], ["zeta"], ["zeta", "--u", "0.1"], ["op", "build", "--format", "csv"],
], ids=["spectrum", "zeta", "zeta-u", "op-build-csv"])
def test_overflowing_table_exits_2(argv, tmp_path, capsys):
    # every allowed entry 1e200 is finite, but products of two overflow
    # float64: a parameter error before any output, with no numpy warning
    path, out = tmp_path / "big.json", tmp_path / "out.txt"
    table = [[1e200 if r % 2 == c % 2 else 0.0, 0.0] for r in range(4) for c in range(4)]
    path.write_text(json.dumps({"n": 4, "local": {"a_kl_ij": table}}))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _warning_to_stderr
        code = run([*argv, "--model", "custom", "--file", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:")
    assert "Warning" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "trace-formulas", "--n", "8"], ["zeta", "--n", "8"], ["zeta", "--n", "3"],
], ids=["verify-trace-formulas", "zeta", "zeta-narrow-passes"])
def test_overflowing_swept_table_exits_2(argv, tmp_path, capsys):
    # a GENERAL table scaled by 1e150 takes the paired sweep, whose products
    # overflow; at n = 3 they are narrow passes, one 2-D product that also
    # multiplies exact zeros, so an overflowed entry may turn invalid there.
    # Either is a parameter error before any output
    path, out = tmp_path / "big.json", tmp_path / "out.txt"
    table = random_local_operator("general", np.random.default_rng(3)).matrix * 1e150
    path.write_text(operator_to_json(make_local_operator(table), 8))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _warning_to_stderr
        code = run([*argv, "--model", "custom", "--file", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:")
    assert "Warning" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--model", "qca", "--xi", "0.3", "--n", "4", "--u", "2"],
    ["--model", "dk", "--p", "0.5", "--q", "0.75", "--n", "5", "--u", "1.5"],
], ids=["qca", "dk"])
def test_zeta_u_outside_the_disk_exits_2(argv, tmp_path, capsys):
    # a truncated series diverging at u is refused, not written as a value
    out = tmp_path / "z.json"
    assert run(["zeta", *argv, "--out", str(out)]) == 2
    assert "--u" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bin_size, want", [("1e-5", 3), ("1e-300", 3), ("5e-324", 3),
                                             ("inf", 2)])
def test_histogram_bin_refused_before_eigensolve(bin_size, want, tmp_path, capsys):
    # a 1e-5 bin asks for a 200000 x 200000 grid of 298 GiB, beyond the byte
    # budget, a 1e-300 bin for more bytes than a float holds, and the
    # smallest subnormal bin for more bins than a float counts; an infinite
    # bin leaves no bin at all.  All are refused before the eigensolve, so
    # no spectrum CSV is written either, in one short line
    spec, hist = tmp_path / "s.csv", tmp_path / "h.csv"
    tracemalloc.start()
    try:
        code = run(["spectrum", "--model", "dk", "--p", "0.5", "--q", "0.5", "--n", "3",
                    "--bin", bin_size, "--out", str(spec), "--hist", str(hist)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == want and peak < 4 << 20
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert not spec.exists() and not hist.exists()


def test_histogram_bin_beyond_the_square_is_one_bin(tmp_path):
    # a bin wider than the square [-1, 1]^2 gives a grid of one bin; at
    # 1e10 the bin count rounds up from a tiny negative number
    spec, hist = tmp_path / "s.csv", tmp_path / "h.csv"
    assert run(["spectrum", "--model", "dk", "--p", "0.5", "--q", "0.5", "--n", "3",
                "--bin", "1e10", "--out", str(spec), "--hist", str(hist)]) == 0
    text = hist.read_text()
    assert "# n_bins=1\n" in text and "# total=8\n" in text


# every entry point sized by n, at sizes whose byte counts have thousands of
# digits (or, at n = 10^9, a byte count of 2 billion bits): the refusal still
# prints as one short line, decided without forming that count
_HUGE_N = [
    "%s --model dk --p 0.5 --q 0.75 --n %d" % (command, n)
    for n in (10000, 20000, 1000000000)
    for command in ("op build --format csv", "spectrum", "zeta",
                    *("verify " + claim for claim in CLAIMS))
]


@pytest.mark.parametrize("argv", [
    *_HUGE_N,
    # r_max-long trace arrays of 149 GiB
    "zeta --model dk --p 0.5 --q 0.5 --n 2 --rmax 10000000000",
    "verify t-family --model dk --p 0.3 --q 0.6 --n 2 --rmax 10000000000",
    # draw buffers of 8 GB: a long horizon, then a wide seed set
    "dk survive --p 0.5 --q 0.5 --horizon 1000000000 --trials 1 --threads 1",
    "dk survive --p 0.5 --q 0.5 --a 0,1000000000 --trials 1 --threads 1",
    # a p-grid of 3e11 points, then a finite one whose count overflows
    "dk scan --q 1 --p-from 0.4 --p-to 0.7 --p-step 1e-12 --threads 1",
    "dk scan --q 1 --p-from 0.4 --p-to 1e308 --p-step 1e-308 --threads 1",
])
def test_outside_sizes_refused_before_allocating(argv, capsys):
    tracemalloc.start()
    try:
        code = run(argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3 and peak < 4 << 20
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and len(err) < 200 and "cap" in err
    assert not re.search(r"\d{61}", err)


class _FirstPoint(Exception):
    pass


def test_scan_grid_within_its_charge(monkeypatch):
    # the p-grid of 30001 points is all `dk scan` holds before its first
    # trial; stop there and compare the traced peak with what was charged
    def first_point(*args, **kwargs):
        raise _FirstPoint

    charge, charged = cli._charge, []

    def record(nbytes, what):
        charged.append(nbytes)
        charge(nbytes, what)

    monkeypatch.setattr(dk, "estimate_survival", first_point)
    monkeypatch.setattr(cli, "_charge", record)
    argv = ["dk", "scan", "--q", "1", "--p-from", "0.4", "--p-to", "0.7",
            "--p-step", "1e-5", "--threads", "1"]
    with pytest.raises(_FirstPoint):
        run(argv)  # imports whatever the command loads lazily, untraced
    tracemalloc.start()
    try:
        with pytest.raises(_FirstPoint):
            run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= charged[-1] + (256 << 10)


def test_scan_whole_peak_within_its_charge(monkeypatch, tmp_path):
    # a whole 3001-point scan holds the grid, every point's estimate and the
    # CSV text at once; the charge made before the grid must cover them
    charge, charged = cli._charge, []

    def record(nbytes, what):
        charged.append(nbytes)
        charge(nbytes, what)

    monkeypatch.setattr(cli, "_charge", record)
    argv = ["dk", "scan", "--q", "1", "--p-from", "0.4", "--p-to", "0.43", "--p-step", "1e-5",
            "--horizon", "1", "--trials", "1", "--threads", "1", "--out", str(tmp_path / "s.csv")]
    assert run(argv) == 0  # imports whatever the command loads lazily, untraced
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= charged[-1] + (256 << 10), (peak, charged[-1])


def test_scan_no_bracket_exit_code(capsys):
    rc = run(["dk", "scan", "--q", "0", "--p-grid", "0.1,0.2", "--horizon", "30",
              "--trials", "100"])
    assert rc == 1


def test_scan_output(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["dk", "scan", "--q", "1", "--p-from", "0.40", "--p-to", "0.60",
                "--p-step", "0.1", "--horizon", "80", "--trials", "300",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert "# bracket_low=" in text and "# bracket_high=" in text
    body = [l for l in text.strip().split("\n") if not l.startswith("#")]
    assert body[0] == "p,estimate,ci_lo,ci_hi,label"
    assert len(body) == 4


def test_spectrum_shift_family_multiset(tmp_path):
    # p=0.3, q=0.6 shares the column shift t=0.3: multiset {1 x2, 0.3 x4, 0.09 x2}
    out = tmp_path / "s.csv"
    assert run(["spectrum", "--model", "dk", "--p", "0.3", "--q", "0.6",
                "--n", "3", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().strip().split("\n")
            if not l.startswith("#")][1:]
    got = sorted((round(float(r), 6), int(m)) for r, _, m in rows)
    assert got == [(0.09, 2), (0.3, 4), (1.0, 2)]


def test_zeta_identity_value(tmp_path):
    out = tmp_path / "z.json"
    assert run(["zeta", "--n", "1", "--u", "0.5", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert abs(complex(*blob["zeta"]) - 2.0) < 1e-12


def test_zeta_rotation_first_coefficient(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["zeta", "--model", "qca", "--xi", "1.0471975512", "--n", "4",
                "--rmax", "1", "--out", str(out)]) == 0
    row = [l for l in out.read_text().strip().split("\n")
           if not l.startswith("#")][1]
    assert abs(float(row.split(",")[1]) - 0.125) < 1e-9


def test_survive_t_alias(tmp_path):
    out = tmp_path / "s.json"
    assert run(["dk", "survive", "--p", "1", "--q", "1", "--t", "10",
                "--trials", "100", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["T"] == 10 and blob["estimate"] == 1.0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        run(["--version"])
    assert ei.value.code == 0
    assert "ipszeta" in capsys.readouterr().out
