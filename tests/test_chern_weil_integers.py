"""The integer Chern-Weil layer against its Fraction-map oracle.

``CurvatureData`` keeps R, p1, c1, c2 and c1^2 - c2 as integer numerators
over one denominator each, and the residue density, the model traces and
both weighted densities pair w with those integers and lift once.
``FractionMaps`` (``conftest.py``) sums and lifts the same quantities term
by term on Fraction maps; every value, and every printed byte, must agree.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specasym import cli, residue
from specasym.exact import Scalar
from specasym.exterior import DiffForm, mask_of
from specasym.heat import (
    density_from_kernel,
    duhamel_density,
    duhamel_kernel,
    mehler_diag_trace,
    mehler_kernel,
    model_traces,
)
from specasym.holonomy import standard_structure
from specasym.residue import (
    CurvatureData,
    characteristic_density_form,
    characteristic_pairing,
    full_residue_report,
    random_curvature,
    residue_density,
)

_ROOT = Path(__file__).resolve().parent.parent
_PINS = json.loads((Path(__file__).parent / "data" / "random_curvature_pins.json").read_text())


def _bench_gen():
    """``bench/gen.py``, which writes the benchmark's input documents."""
    name = "specasym_bench_gen"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _ROOT / "bench" / "gen.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _kind(n):
    return "g2" if n == 7 else "spin7"


def _over(nums, den):
    """{mask: numerator / den} as Fractions."""
    return {m: Fraction(x, den) for m, x in nums.items()}


def _assert_matches_oracle(cd, fm):
    """Sums, traces, the residue density and both weighted densities of
    ``cd`` equal the Fraction-map oracle's, value and repr."""
    s = standard_structure(_kind(cd.n))
    assert _over(cd.p1_nums, cd.p1_den) == fm.p1(cd)
    assert tuple(_over(nums, cd.chern_den) for nums in (cd.c1_nums, cd.c2_nums, cd.bundle_nums)
                 ) == fm.chern(cd.r, cd.f_den, cd.f_planes)
    assert fm.lift_traces(model_traces(cd)) == fm.model_traces(cd)
    for got, want in ((residue_density(s, cd), fm.residue_density(s, cd)),
                      (mehler_diag_trace(s, cd), fm.mehler_density(s, cd)),
                      (duhamel_density(s, cd), fm.duhamel_density(s, cd))):
        assert got == want and repr(got) == repr(want)
    report = full_residue_report(s, cd)
    assert (report.b_coefficient, report.residue) == fm.residue_value(s, report.integral)


def _variants(cd):
    """``cd`` with R only, with F only and with both."""
    return (CurvatureData(cd.n, cd.r, cd.r_entries, {}),
            CurvatureData(cd.n, cd.r, {}, cd.f_entries), cd)


@pytest.mark.parametrize("pin", _PINS, ids=lambda p: f"n{p['n']}-r{p['r']}-seed{p['seed']}")
def test_pinned_curvature_matches_the_fraction_oracle(pin, fraction_maps):
    for cd in _variants(random_curvature(pin["n"], pin["r"], seed=pin["seed"])):
        _assert_matches_oracle(cd, fraction_maps)


_rational = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9]))


@st.composite
def _curvature(draw):
    """CurvatureData of either dimension at rank 1-3 with R only, F only or
    both; R entries are given under any of their index symmetries."""
    n = draw(st.sampled_from([7, 8]))
    r = draw(st.integers(1, 3))
    parts = draw(st.sampled_from(["R", "F", "RF"]))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    r_entries = {}
    if "R" in parts:
        quads = [a + b for x, a in enumerate(pairs) for b in pairs[x:]]
        for i, j, k, l in draw(st.lists(st.sampled_from(quads), min_size=1, max_size=6,
                                        unique=True)):
            v = draw(_rational.filter(bool))
            # R_klij = R_ijkl, R_jikl = -R_ijkl = R_ijlk
            if draw(st.booleans()):
                i, j, k, l = k, l, i, j
            if draw(st.booleans()):
                i, j, v = j, i, -v
            r_entries[(i, j, k, l)] = v
    f_entries = {}
    if "F" in parts:
        for key in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True)):
            f = {}
            for a in range(r):
                f[a, a] = Scalar.i(draw(_rational))
                for b in range(a + 1, r):
                    re, im = draw(_rational), draw(_rational)
                    f[a, b], f[b, a] = Scalar.term(re, im), Scalar.term(-re, im)
            f_entries[key] = f
    return CurvatureData(n, r, r_entries, f_entries)


@settings(max_examples=60, deadline=None, database=None)
@given(cd=_curvature())
def test_any_curvature_matches_the_fraction_oracle(cd, fraction_maps):
    _assert_matches_oracle(cd, fraction_maps)


def _residue_stdout(path, kind):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["residue", "--kind", kind, "--input", path, "--oracle"])
    assert code == 0
    return out.getvalue()


def _bench_inputs(tmp_path, workload, seed):
    for case in _bench_gen().build_cases(workload, seed, "full", os.fspath(tmp_path)):
        yield case.argv[case.argv.index("--input") + 1], case.argv[case.argv.index("--kind") + 1]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["heat-oracle", "bundle-many"])
def test_benchmark_inputs_print_the_bytes_of_the_fraction_route(
        tmp_path, monkeypatch, fraction_maps, workload, seed):
    """``residue --oracle`` stdout, and the repr of both densities, on the
    benchmark's documents: the integer route against the same command with
    the residue density, the residue arithmetic and both densities taken
    from the Fraction-map oracle."""
    cases = list(_bench_inputs(tmp_path, workload, seed))
    assert cases
    printed = [_residue_stdout(path, kind) for path, kind in cases]
    for path, kind in cases:
        s, cd = standard_structure(kind), cli.load_curvature(path)
        for got, want in ((mehler_diag_trace(s, cd), fraction_maps.mehler_density(s, cd)),
                          (duhamel_density(s, cd), fraction_maps.duhamel_density(s, cd))):
            assert repr(got) == repr(want)
    real_value = residue.residue_value

    def fraction_value(s, twisted, integral, density):
        report = real_value(s, twisted, integral, density)
        report.b_coefficient, report.residue = fraction_maps.residue_value(s, integral)
        return report

    monkeypatch.setattr(residue, "residue_density", fraction_maps.residue_density)
    monkeypatch.setattr(residue, "residue_value", fraction_value)
    monkeypatch.setattr(cli, "mehler_diag_trace", fraction_maps.mehler_density)
    monkeypatch.setattr(cli, "duhamel_density", fraction_maps.duhamel_density)
    assert [_residue_stdout(path, kind) for path, kind in cases] == printed


def test_residue_path_builds_no_rational_view(tmp_path, monkeypatch):
    """``residue --oracle`` reads the integers only: no Fraction view of R,
    of the Chern-Weil sums or of F is built on its path."""
    cases = list(_bench_inputs(tmp_path, "heat-oracle", 0))
    want = [_residue_stdout(path, kind) for path, kind in cases]

    def no_view(*args):
        raise AssertionError("a rational view was built on the residue path")

    for name in ("_fractions", "_scalar_matrices"):
        monkeypatch.setattr(residue, name, no_view)
    assert [_residue_stdout(path, kind) for path, kind in cases] == want
    with pytest.raises(AssertionError, match="rational view"):
        cli.load_curvature(cases[0][0]).r_entries


class _FiveForm:
    """A structure-like (n, defining_form) whose w has degree n - 2, so it
    pairs with the 2-form tr V, whose numerators carry a factor i."""

    n = 7
    defining_form = DiffForm(7, {mask_of((1, 2, 3, 4, 5)): Fraction(1, 2),
                                 mask_of((3, 4, 5, 6, 7)): Fraction(-3)})


def test_duhamel_density_keeps_the_imaginary_pairing_of_tr_v():
    """With a w of degree n - 2 the t^1 term -[w ^ tr V]_n is imaginary;
    the integer route keeps it apart from the real sums, as the full
    Duhamel kernel does."""
    cd = CurvatureData(7, 2, {(1, 2, 6, 7): Fraction(1, 3)},
                       {(6, 7): {(0, 0): Scalar.i(2), (1, 1): Scalar.i(Fraction(1, 2))},
                        (1, 2): {(0, 1): Scalar.term(1, 1), (1, 0): Scalar.term(-1, 1)}})
    got = duhamel_density(_FiveForm, cd)
    assert got == density_from_kernel(_FiveForm, duhamel_kernel(cd))
    assert any(im for re, im in got.terms.values())


class _ScaledPhi:
    """A structure-like (n, degree, defining_form) whose w has rational
    coefficients over the denominator 6, so the pairings must divide by
    the denominator of w's numerators."""

    n, degree = 7, 3
    defining_form = standard_structure("g2").defining_form.scale(Fraction(1, 2)) + DiffForm(
        7, {mask_of((1, 2, 7)): Fraction(-2, 3)})


def test_pairings_divide_by_the_denominator_of_w():
    cd = random_curvature(7, 2, seed=15)
    s, w = _ScaledPhi, _ScaledPhi.defining_form
    assert characteristic_pairing(w, cd) * Scalar.pi_pow(-4) == w.top_pairing(
        characteristic_density_form(cd))
    assert mehler_diag_trace(s, cd) == density_from_kernel(s, mehler_kernel(cd))
    assert duhamel_density(s, cd) == density_from_kernel(s, duhamel_kernel(cd))
