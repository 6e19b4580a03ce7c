import json

import numpy as np
import pytest

from ipszeta.dk import CriticalScanResult, DKParams, SurvivalEstimate, dk_local_operator
from ipszeta.errors import SparsityViolation
from ipszeta.operators import random_local_operator
from ipszeta.serialize import (
    coefficients_csv,
    dense_csv,
    dump_json,
    histogram_csv,
    operator_from_json,
    operator_to_json,
    scan_csv,
    spectrum_csv,
)
from ipszeta.spectral import SpectrumMultiset, histogram


def test_operator_json_roundtrip(rng):
    loc = random_local_operator("general", rng, label="roundtrip")
    text = operator_to_json(loc, 5, label="roundtrip")
    n, back = operator_from_json(text)
    assert n == 5
    assert back.label == "roundtrip"
    assert np.abs(back.matrix - loc.matrix).max() == 0.0


def test_operator_json_rejects_sparsity_break():
    loc = dk_local_operator(DKParams(0.5, 0.5))
    blob = json.loads(operator_to_json(loc, 3))
    blob["local"]["a_kl_ij"][1] = [0.5, 0.0]  # entry (0,0)<-(0,1), forbidden
    with pytest.raises(SparsityViolation):
        operator_from_json(json.dumps(blob))


def test_spectrum_csv_layout():
    spec = SpectrumMultiset.from_pairs([1.0, 0.5j], [2, 2], 4)
    text = spectrum_csv(spec, {"n": 2})
    lines = text.strip().split("\n")
    assert lines[0] == "# n=2"
    assert lines[1] == "re,im,multiplicity"
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 2
    assert sum(int(r[2]) for r in rows) == 4


def test_histogram_csv_meta_and_rows():
    spec = SpectrumMultiset.from_pairs([1.0, -0.5, 2.0], [1, 2, 1], 4)
    text = histogram_csv(histogram(spec, 0.05), {})
    lines = text.strip().split("\n")
    meta = dict(l[2:].split("=") for l in lines if l.startswith("# "))
    assert meta["bin_size"] == "0.05"
    assert meta["overflow"] == "1"
    assert meta["total"] == "4"
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "re_low,im_low,count"
    assert sum(int(r.rsplit(",", 1)[1]) for r in body[1:]) == 3


def nested_loop_histogram_rows(grid) -> list[str]:
    """Reference rows: every bin visited in a Python nested loop."""
    rows = []
    for ix in range(grid.n_bins):
        for iy in range(grid.n_bins):
            c = int(grid.counts[ix, iy])
            if c:
                rows.append("%s,%s,%d" % (repr(grid.low + ix * grid.bin_size),
                                          repr(grid.low + iy * grid.bin_size), c))
    return rows


@pytest.mark.parametrize("bin_size", [0.05, 0.01, 0.002])
def test_histogram_csv_matches_nested_loop(bin_size, rng):
    values = rng.uniform(-1.2, 1.2, 400) + 1j * rng.uniform(-1.2, 1.2, 400)
    values = np.concatenate([values, [1.0, -1.0, 1j, -1 - 1j, 1 + 1j]])
    mults = rng.integers(1, 4, len(values))
    spec = SpectrumMultiset.from_pairs(values, mults, int(mults.sum()))
    grid = histogram(spec, bin_size)
    body = histogram_csv(grid, {}).strip().split("\n")
    body = [l for l in body if not l.startswith("#")][1:]
    assert body == nested_loop_histogram_rows(grid)
    assert len(body) > 100


def test_coefficients_csv():
    text = coefficients_csv(np.array([0.25, 0.5 + 0.1j]), {"n": 3})
    lines = text.strip().split("\n")
    assert lines[-2] == "1,0.25,0.0"
    assert lines[-1] == "2,0.5,0.1"


def test_dense_csv_skips_zeros():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 1.5
    lines = dense_csv(m, {}).strip().split("\n")
    assert lines[-1] == "0,1,1.5,0.0"
    assert len([l for l in lines if not l.startswith("#")]) == 2  # header + 1


def test_writer_bytes_at_edge_values():
    # signed zeros, nan, subnormal-scale values and numpy scalars, each
    # written to the exact bytes the formats have always had
    nan = float("nan")
    assert coefficients_csv(np.array([0.25, -0.0, nan, 1e-300 + 2j]), {"n": np.int64(3)}) == (
        "# n=3\nr,C_r_re,C_r_im\n1,0.25,0.0\n2,-0.0,0.0\n3,nan,0.0\n4,1e-300,2.0\n")
    m = np.zeros((2, 2), dtype=complex)
    m[0, 0] = -0.0
    m[0, 1] = complex(-0.0, 0.5)
    m[1, 0] = 2 - 1j
    assert dense_csv(m, {"n": 1}) == "# n=1\nrow,col,re,im\n0,1,-0.0,0.5\n1,0,2.0,-1.0\n"
    spec = SpectrumMultiset.from_pairs([-0.5, complex(0.1, -0.0), 1e-300 + 1j], [1, 2, 3], 6)
    assert spectrum_csv(spec, {"model": "dk", "p": 0.3}) == (
        "# model=dk\n# p=0.3\nre,im,multiplicity\n-0.5,0.0,1\n1e-300,1.0,3\n0.1,-0.0,2\n")
    spec = SpectrumMultiset.from_pairs([-0.5, complex(0.1, -0.0), 1e-300 + 1j, 3.0],
                                       [1, 2, 3, 1], 7)
    assert histogram_csv(histogram(spec, np.float64(0.5)), {"n": np.int64(2)}) == (
        "# n=2\n# bin_size=0.5\n# low=-1.0\n# high=1.0\n# n_bins=4\n# overflow=1\n"
        "# total=7\nre_low,im_low,count\n-0.5,0.0,1\n0.0,0.0,2\n0.0,0.5,3\n")
    pt = SurvivalEstimate(0.6, 1.0, (0,), 10, 8, 3, 0.375, (np.float64(0.1), np.float64(0.7)), 5)
    scan = CriticalScanResult(1.0, 0.5, (pt,), ("below",), (np.float64(0.6), np.float64(0.7)))
    assert scan_csv(scan, {"model": "dk"}) == (
        "# model=dk\n# q=1.0\n# threshold=0.5\n# bracket_low=0.6\n# bracket_high=0.7\n"
        "p,estimate,ci_lo,ci_hi,label\n0.6,0.375,0.1,0.7,below\n")
    text = dump_json({"f": np.float64(0.1), "i": np.int64(7), "c": 1 - 2j,
                      "a": np.array([1 + 2j, -0.0]), "none": None, "nan": nan,
                      "t": (np.float64(2.5), 3)})
    assert text == (
        '{\n  "f": 0.1,\n  "i": 7,\n  "c": [\n    1.0,\n    -2.0\n  ],\n  "a": [\n    [\n'
        '      1.0,\n      2.0\n    ],\n    [\n      -0.0,\n      0.0\n    ]\n  ],\n'
        '  "none": null,\n  "nan": NaN,\n  "t": [\n    2.5,\n    3\n  ]\n}\n')
