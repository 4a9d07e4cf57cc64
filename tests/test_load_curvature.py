"""``cli.load_curvature`` reads F text straight into integer numerator
planes; the result must equal ``CurvatureData`` built from the same values
as Scalar matrices, field by field, for every spelling of a number."""

import importlib.util
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specasym.cli import load_curvature, main
from specasym.exact import Scalar
from specasym.residue import CurvatureData

_ROOT = Path(__file__).resolve().parent.parent


def _bench_gen():
    """``bench/gen.py``, which writes the benchmark's input documents."""
    name = "specasym_bench_gen"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _ROOT / "bench" / "gen.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _scalar_matrix(values):
    """Bundle map of the nonzero entries of an r x r list of (re, im)
    rationals."""
    return {(a, b): x for a, row in enumerate(values) for b, (re, im) in enumerate(row)
            if (x := Scalar.term(re, im))}


def _assert_same_curvature(loaded: CurvatureData, r_entries, f_values):
    """``loaded`` against CurvatureData built from Scalar bundle maps, and
    its derived ``f_entries`` against those maps themselves."""
    mats = {key: _scalar_matrix(v) for key, v in f_values.items()}
    want = CurvatureData(loaded.n, loaded.r, r_entries, mats)
    assert loaded == want
    assert loaded.f_den == want.f_den
    assert loaded.f_planes == want.f_planes
    assert loaded.r_rows == want.r_rows
    for name in ("pi2_p1", "pi_c1", "pi2_c2", "pi2_bundle"):
        assert getattr(loaded, name) == getattr(want, name), name
    assert loaded.f_entries == {k: m for k, m in mats.items() if m}
    assert loaded.f_entries == want.f_entries


def _load(tmp_path, doc, name="curvature.json"):
    path = os.fspath(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return load_curvature(path)


def _values_of(doc):
    """R entries and F matrices of a document with i < j and no repeats,
    every number read by Fraction."""
    r_entries = {tuple(row[:4]): Fraction(row[4]) for row in doc.get("R", [])}
    f_values = {(i, j): [[(Fraction(re), Fraction(im)) for re, im in row] for row in mat]
                for i, j, mat in doc.get("F", [])}
    return r_entries, f_values


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("workload", ["heat-oracle", "bundle-many"])
def test_benchmark_documents_load_as_scalar_matrices_do(tmp_path, workload, seed):
    gen = _bench_gen()
    for case in gen.build_cases(workload, seed, "full", os.fspath(tmp_path)):
        path = case.argv[case.argv.index("--input") + 1]
        with open(path) as fh:
            doc = json.load(fh)
        _assert_same_curvature(load_curvature(path), *_values_of(doc))


def test_unreduced_text_gives_the_least_denominator(tmp_path):
    """"2/4", "-6/8", "0/7" and "-0" read as 1/2, -3/4 and 0: one
    denominator 4 for the whole bundle, as from reduced text."""
    doc = {"n": 7, "rank": 2,
           "F": [[2, 3, [[["0/7", "2/4"], ["-6/8", "-0"]], [["6/8", "-0"], ["0", "-4/8"]]]],
                 [4, 5, [[["-0", "4/4"], ["0/7", "0/7"]], [["0/7", "0/7"], ["-0", "2/2"]]]]]}
    cd = _load(tmp_path, doc)
    half, three_quarters = Fraction(1, 2), Fraction(3, 4)
    f_values = {(2, 3): [[(0, half), (-three_quarters, 0)], [(three_quarters, 0), (0, -half)]],
                (4, 5): [[(0, 1), (0, 0)], [(0, 0), (0, 1)]]}
    assert cd.f_den == 4
    _assert_same_curvature(cd, {}, f_values)


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _spellings(v: Fraction) -> list:
    """JSON values that ``load_curvature`` reads as v: reduced and unreduced
    a/b text, non-ASCII digits, decimal, exponent and "+" text, JSON
    integers and floats where they are exact."""
    p, q = v.numerator, v.denominator
    sign = "-" if p < 0 else "+"
    out = [f"{p}/{q}", f"{3 * p}/{3 * q}", f"{sign}{abs(p)}/{q}",
           f"{p}/{q}".translate(_ARABIC_INDIC)]
    if q == 1:
        out += [p, str(p), f"{2 * p}/2"]
    if p == 0:
        out += ["-0", "0/7", "+0", 0.0, -0.0]
    if 10 ** 6 % q == 0:
        out += [str(Decimal(p) / Decimal(q)), f"{sign}{abs(p) * (10 ** 6 // q)}e-6"]
    if q & (q - 1) == 0:
        out.append(float(v))
    return out


_rational = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 5, 8]))


@st.composite
def _documents(draw):
    """A curvature document with every number spelled at random, flipped
    (j, i) rows and consistent duplicates, plus the values it holds."""
    n = draw(st.sampled_from([7, 8]))
    rank = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))
    f_values = {}
    for key in keys:
        values = [[None] * rank for _ in range(rank)]
        for a in range(rank):
            values[a][a] = (Fraction(0), draw(_rational))
            for b in range(a + 1, rank):
                re, im = draw(_rational), draw(_rational)
                values[a][b], values[b][a] = (re, im), (-re, im)
        f_values[key] = values

    def spell(v):
        return draw(st.sampled_from(_spellings(v)))

    rows = []
    for (i, j), values in f_values.items():
        for _ in range(draw(st.integers(1, 2))):  # a second row is a duplicate
            if draw(st.booleans()):  # F_ji = -F_ij
                rows.append([j, i, [[[spell(-re), spell(-im)] for re, im in row]
                                    for row in values]])
            else:
                rows.append([i, j, [[[spell(re), spell(im)] for re, im in row]
                                    for row in values]])
    quads = [a + b for x, a in enumerate(pairs) for b in pairs[x:]]
    r_entries = {key: draw(_rational)
                 for key in draw(st.lists(st.sampled_from(quads), unique=True, max_size=3))}
    doc = {"n": n, "rank": rank, "F": draw(st.permutations(rows)),
           "R": [[*key, spell(v)] for key, v in r_entries.items()]}
    return doc, r_entries, f_values


@settings(max_examples=60, deadline=None, database=None)
@given(case=_documents())
def test_any_spelling_loads_as_scalar_matrices_do(tmp_path_factory, case):
    doc, r_entries, f_values = case
    cd = _load(tmp_path_factory.mktemp("doc"), doc)
    _assert_same_curvature(cd, r_entries, f_values)


def _run(capsys, path):
    code = main(["residue", "--kind", "g2", "--input", path, "--oracle"])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_redundant_rows_compare_by_value(tmp_path, capsys):
    """Rows that hold "1/2" and "2/4" (or its flip) agree; a real
    conflict still exits 2."""
    single = {"n": 7, "rank": 1, "F": [[1, 2, [[[0, "1/2"]]]]]}
    outputs = []
    for k, rows in enumerate(([[1, 2, [[[0, "1/2"]]]]],
                              [[1, 2, [[[0, "1/2"]]]], [1, 2, [[["0/3", "2/4"]]]]],
                              [[1, 2, [[[0, "1/2"]]]], [2, 1, [[["-0", "-2/4"]]]]])):
        path = os.fspath(tmp_path / f"doc{k}.json")
        with open(path, "w") as fh:
            json.dump({**single, "F": rows}, fh)
        code, out, err = _run(capsys, path)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    path = os.fspath(tmp_path / "conflict.json")
    with open(path, "w") as fh:
        json.dump({**single, "F": [[1, 2, [[[0, "1/2"]]]], [2, 1, [[[0, "2/4"]]]]]}, fh)
    assert _run(capsys, path)[::2] == (
        2, "error: conflicting redundant F entries for (1, 2)\n")


_BAD_F = {
    "zero-denominator": ([[[0, "1/0"]]],
                         "error: F[1,2] entry must be a rational number, got '1/0'\n"),
    "bool": ([[[0, True]]],
             "error: F[1,2] entry must be a rational number, got True\n"),
    "nested-list": ([[[0, [1]]]],
                    "error: F[1,2] entry must be a rational number, got [1]\n"),
    "601-characters": ([[[0, "1" * 601]]],
                       f"error: F[1,2] entry must be a rational number, got '{'1' * 601}'\n"),
    "exponent-past-cap": ([[[0, "1e-700"]]],
                          "error: F[1,2] entry must be a rational number, got '1e-700'\n"),
    "wrong-shape": ([[[0, 1]], [[0, 1]]], "error: F[1,2] matrix must be 1x1\n"),
    "not-a-pair": ([[[0, 1, 2]]], "error: F[1,2] entries must be [re, im] pairs\n"),
    "not-skew-hermitian": ([[[1, 1]]], "error: F[1,2] is not skew-Hermitian\n"),
}


@pytest.mark.parametrize("case", sorted(_BAD_F))
def test_bad_f_entries_keep_their_error_text(tmp_path, capsys, case):
    mat, want = _BAD_F[case]
    path = os.fspath(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"n": 7, "rank": 1, "F": [[1, 2, mat]]}, fh)
    code, out, err = _run(capsys, path)
    assert (code, out, err) == (2, "", want)


def test_plain_text_entries_build_no_fraction_or_scalar(tmp_path, monkeypatch):
    """Plain ASCII F text goes to the planes through int(): neither the
    Fraction reader nor the Scalar-matrix path runs for an F entry."""
    from specasym import cli, residue

    real_rational = cli._rational

    def rational(x, what, row=None):
        assert not what.startswith("F["), (x, what)
        return real_rational(x, what, row)

    def no_scalars(*args):
        raise AssertionError("Scalar matrices read on the text path")

    monkeypatch.setattr(cli, "_rational", rational)
    monkeypatch.setattr(residue, "_matrix_numerators", no_scalars)
    monkeypatch.setattr(residue, "_scalar_matrices", no_scalars)
    gen = _bench_gen()
    for case in gen.build_cases("bundle-many", 0, "full", os.fspath(tmp_path)):
        cd = load_curvature(case.argv[case.argv.index("--input") + 1])
        assert cd.has_bundle_curvature()


# R_ijkl and three of its symmetric partners: R_klij = -R_jikl = -R_ijlk
_R_BASE = [[1, 2, 4, 5, "3/8"], [1, 3, 2, 5, "-5/4"], [2, 6, 2, 6, "2"]]


def _r_partners(row, spell):
    i, j, k, l, v = row
    v = Fraction(v)
    return [[i, j, k, l, spell(v)], [k, l, i, j, spell(v)], [j, i, k, l, spell(-v)],
            [i, j, l, k, spell(-v)]]


_R_SPELLINGS = {
    "unreduced": lambda v: f"{3 * v.numerator}/{3 * v.denominator}",
    "decimal": lambda v: str(Decimal(v.numerator) / Decimal(v.denominator)),
    "exponent": lambda v: f"{v.numerator * 1000 // v.denominator}e-3",
    "plus": lambda v: f"+{v}" if v > 0 else str(v),
}


def test_redundant_symmetric_r_entries_load_alike(tmp_path, capsys):
    """Every R entry given with its symmetric partners R_klij, -R_jikl and
    -R_ijlk, spelled as unreduced fractions, decimals, exponents or with a
    leading "+", gives the CurvatureData and the stdout of the plain rows."""
    f = [[2, 3, [[[0, 1]]]], [4, 6, [[[0, "-1/2"]]]]]
    base = {"n": 7, "rank": 1, "R": _R_BASE, "F": f}
    path = os.fspath(tmp_path / "base.json")
    with open(path, "w") as fh:
        json.dump(base, fh)
    want_cd, want_out = load_curvature(path), _run(capsys, path)
    assert want_out[0] == 0 and want_cd.r_den == 8
    for name, spell in sorted(_R_SPELLINGS.items()):
        rows = [p for row in _R_BASE for p in _r_partners(row, spell)]
        path = os.fspath(tmp_path / f"{name}.json")
        with open(path, "w") as fh:
            json.dump({**base, "R": rows}, fh)
        assert load_curvature(path) == want_cd, name
        assert _run(capsys, path) == want_out, name


@pytest.mark.parametrize("rows,want", [
    ([[1, 2, 4, 5, "1/2"], [1, 2, 4, 5, "1/3"]],
     "error: conflicting duplicate R entry [1, 2, 4, 5, '1/3']\n"),
    ([[1, 2, 4, 5, "1/2"], [4, 5, 1, 2, "2/6"]],
     "error: conflicting values for R(1, 2, 4, 5)\n"),
    ([[1, 2, 4, 5, "1/2"], [2, 1, 4, 5, "2/4"]],
     "error: conflicting values for R(1, 2, 4, 5)\n"),
    ([[1, 2, 4, 5, "x"]],
     "error: R value in [1, 2, 4, 5, 'x'] must be a rational number, got 'x'\n"),
    ([[1, 2, 4, 5, "1/0"]],
     "error: R value in [1, 2, 4, 5, '1/0'] must be a rational number, got '1/0'\n"),
    ([[1, 2, 4, 5, True]],
     "error: R value in [1, 2, 4, 5, True] must be a rational number, got True\n"),
])
def test_bad_r_entries_keep_their_error_text(tmp_path, capsys, rows, want):
    """A conflict between duplicates, exact or symmetric, and a bad value,
    named with its row, exit 2 with the text they had before the values
    were read as integer pairs."""
    path = os.fspath(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"n": 7, "rank": 1, "R": rows}, fh)
    assert _run(capsys, path) == (2, "", want)


def test_equal_duplicates_compare_by_cross_multiplying(tmp_path):
    """"1/2", "2/4" and 0.5 under one key are one value."""
    path = os.fspath(tmp_path / "dup.json")
    with open(path, "w") as fh:
        json.dump({"n": 7, "rank": 1, "R": [[1, 2, 4, 5, "1/2"], [1, 2, 4, 5, "2/4"],
                                            [1, 2, 4, 5, 0.5]]}, fh)
    cd = load_curvature(path)
    assert (cd.r_den, cd.r_nums) == (2, {(1, 2, 4, 5): 1})


def test_zero_r_values_are_dropped(tmp_path):
    """Zero values, in any spelling and even on a degenerate index pattern,
    leave no entry; the least denominator is that of the other values."""
    path = os.fspath(tmp_path / "zero.json")
    with open(path, "w") as fh:
        json.dump({"n": 7, "rank": 1, "R": [[1, 2, 4, 5, "0/7"], [1, 1, 2, 3, 0],
                                            [2, 3, 4, 5, "-0"], [3, 4, 5, 6, 0.0],
                                            [1, 3, 4, 6, "6/4"]]}, fh)
    cd = load_curvature(path)
    assert (cd.r_den, cd.r_nums) == (2, {(1, 3, 4, 6): 3})
    assert cd.r_entries == {(1, 3, 4, 6): Fraction(3, 2)}
    path = os.fspath(tmp_path / "all-zero.json")
    with open(path, "w") as fh:
        json.dump({"n": 7, "rank": 1, "R": [[1, 2, 4, 5, "0/7"]]}, fh)
    cd = load_curvature(path)
    assert (cd.r_den, cd.r_nums, cd.p1_nums) == (1, {}, {})
    assert not cd.has_riemann_curvature()
