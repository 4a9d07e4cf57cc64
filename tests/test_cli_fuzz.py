"""Fuzz the CLI inputs: every run exits 0, 2 or 3 and never raises, and
the number parser reads text as Fraction does.

Example counts are bounded so that the tests together take a few seconds.
"""

import contextlib
import io
import json
import math
import os
import struct
import tempfile
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from specasym.cli import (
    _EXPONENT, _MAX_EXPONENT, _MAX_LENGTH, JsonLeaf, _json_text, _parse_number, _ratio,
    _ratio_leaf, _rational, main,
)
from specasym.exact import Scalar
from specasym.residue import CurvatureError

_SETTINGS = dict(deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])


def _run(*argv) -> int:
    """Run the CLI in process; an uncaught exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


# near-grammatical form text: coefficients, monomials, signs, stray characters
_form_piece = st.one_of(
    st.sampled_from(["e", "e12", "e34", "e123", "e19", "e0", "+", "-", "*", "/", "0"]),
    st.from_regex(r"[0-9]{1,3}(/[0-9]{1,2})?", fullmatch=True),
    st.text(alphabet=" e0123456789+-*/.x", max_size=3),
)
# well-formed 2-forms with varied spacing, e.g. "- 3/2 e12 + 1 e34"
_form_term = st.tuples(
    st.sampled_from(["+", "-", "+ ", "- "]),
    st.sampled_from(["", "2", "1/2 ", "3*", "0 "]),
    st.sampled_from(["e12", "e34", "e17", "e56", "e27"]),
).map("".join)
_form_text = st.one_of(
    st.lists(_form_term, min_size=1, max_size=4).map(" ".join),
    st.lists(_form_piece, max_size=6).map(" ".join),
    st.lists(_form_piece, max_size=6).map("".join),
    st.text(max_size=12),
)


@settings(max_examples=30, **_SETTINGS)
@given(kind=st.sampled_from(["g2", "spin7"]), form=_form_text)
def test_fuzz_decompose_form(kind, form):
    _run("decompose", "--kind", kind, f"--form={form}")


# decimal exponents up to 10 digits long: the CLI caps them before Fraction
_exponent = st.from_regex(r"-?[0-9]{1,2}(\.[0-9]{1,2})?[eE][-+]?[0-9]{1,10}", fullmatch=True)
_valid_angle = st.fractions(min_value=0, max_value=1, max_denominator=40).filter(
    lambda t: t < 1).map(str)
_angle = st.one_of(
    _valid_angle,
    st.fractions(min_value=-1, max_value=2, max_denominator=40).map(str),
    st.sampled_from(["0", "1", "1/2", "0.5", "1/0", "nan", "inf", "", "-0", "a", "1/2/3"]),
    st.text(alphabet="0123456789/.-+e ", max_size=5),
    _exponent,
)


_n_and_angles = st.sampled_from([7, 8]).flatmap(lambda n: st.tuples(
    st.just(n),
    st.one_of(
        st.lists(_valid_angle, min_size=n, max_size=n),
        st.lists(_angle, min_size=n, max_size=n),
        st.lists(_angle, max_size=9),
    ),
))


@settings(max_examples=80, **_SETTINGS)
@given(n_angles=_n_and_angles, q_max=st.integers(0, 3))
def test_fuzz_spectrum_theta(n_angles, q_max):
    n, angles = n_angles
    with tempfile.TemporaryDirectory() as tmp:
        _run("spectrum", "--n", str(n), "--qmax", str(q_max),
             f"--theta={','.join(angles)}", "--out", os.path.join(tmp, "levels.csv"))


_number = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=9).map(str),
    st.floats(width=32),
    _exponent,
    st.sampled_from(["1/0", "x", "", True, None, [], {}]),
)
_index = st.one_of(st.integers(1, 7), st.sampled_from([0, 8, "1", 1.5, None, True]))


def _matrix(rank):
    entry = st.one_of(st.lists(_number, min_size=2, max_size=2), _number)
    row = st.lists(entry, min_size=rank, max_size=rank)
    return st.one_of(st.lists(row, min_size=rank, max_size=rank), _number)


_curvature = st.integers(1, 2).flatmap(lambda rank: st.fixed_dictionaries(
    {
        "n": st.just(7),
        "rank": st.one_of(st.just(rank), st.sampled_from([0, 3, True, "1", 1.0])),
        "R": st.lists(st.one_of(st.lists(_index, min_size=4, max_size=4).flatmap(
            lambda idx: _number.map(lambda v: idx + [v])), _number), max_size=3),
        "F": st.lists(st.tuples(_index, _index, _matrix(rank)).map(list), max_size=3),
    }
))


@settings(max_examples=60, **_SETTINGS)
@given(doc=_curvature)
def test_fuzz_residue_curvature(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curvature.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        _run("residue", "--kind", "g2", "--input", path)


def _fraction_or_error(text: str):
    """Fraction(text), or the class of what it raises; ValueError past the
    parser's caps on length and exponent, where Fraction is not run."""
    exp = _EXPONENT.search(text)
    if len(text) > _MAX_LENGTH or (exp and abs(int(exp.group(1))) > _MAX_EXPONENT):
        return ValueError
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


_number_text = st.one_of(
    st.from_regex(r"[-+]?[0-9]{1,4}(/[0-9]{1,3})?", fullmatch=True),
    st.text(alphabet="0123456789-+/_ .eE\u0663\n", max_size=8),
    st.text(max_size=6),
)


@settings(max_examples=300, **_SETTINGS)
@given(text=_number_text)
@example(text="+3")
@example(text=" 4/6 ")
@example(text="\u0663")  # Arabic-Indic digit three
@example(text="1_0")
@example(text="1/ 2")
@example(text="-0")
@example(text="007/014")
@example(text="1/0")
@example(text="1e-3")
@example(text="3\n")
@example(text="1" * 600)
@example(text="1" * 601)
def test_parse_number_reads_text_as_fraction_does(text):
    want = _fraction_or_error(text)
    if isinstance(want, Fraction):
        got = _parse_number(text)
        assert type(got) is Fraction and got == want
    else:
        try:
            _parse_number(text)
        except (ValueError, ZeroDivisionError) as exc:
            assert type(exc) is want
        else:
            raise AssertionError(f"{text!r} parsed, but Fraction raises {want.__name__}")


def _rational_or_message(value):
    try:
        return _rational(value, "F[1,2] entry")
    except CurvatureError as exc:
        return str(exc)


@settings(max_examples=300, **_SETTINGS)
@given(value=st.one_of(_number_text, st.integers(-10 ** 700, 10 ** 700), st.fractions(),
                       st.booleans(), st.floats(), st.none(), st.lists(st.integers(), max_size=2)))
@example(value="2/4")
@example(value="-0")
@example(value="0/7")
@example(value="1/0")
@example(value="1/00")
@example(value="1" * 601)
@example(value="\u0663/4")
def test_ratio_reads_values_as_rational_does(value):
    """(num, den) of the plain-text reader is the value _rational reads, or
    both fail with the same message."""
    want = _rational_or_message(value)
    try:
        num, den = _ratio(value, "F[1,2] entry")
    except CurvatureError as exc:
        assert str(exc) == want
    else:
        assert den > 0 and Fraction(num, den) == want


def _old_jsonable(obj):
    """The conversion the CLI applied before ``json.dumps``; the oracle of
    ``_json_text``, with a JsonLeaf as the dict it replaced."""
    if isinstance(obj, JsonLeaf):
        return {"exact": obj.exact, "float": _old_jsonable(obj.float)}
    if isinstance(obj, dict):
        return {str(k): _old_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_old_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.17g}")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Scalar):
        return {"exact": repr(obj)}
    return obj


_fractions = st.fractions(max_denominator=10 ** 30)
_special_floats = st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e308,
                                   5e-324])
_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 300), max_value=2 ** 300),
    st.floats(),
    _special_floats,
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1f)),
    _fractions,
    st.builds(lambda re, im, p, t: Scalar.term(re, im, p, t),
              _fractions, _fractions, st.integers(-4, 4), st.integers(-4, 4)),
    # exact text with a float, None, nan or +-inf
    st.builds(JsonLeaf, st.one_of(_fractions.map(str), st.text()),
              st.one_of(st.floats(), st.none(), _special_floats)),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers(-3, 3), st.booleans()), inner,
                        max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, **_SETTINGS)
@given(value=_json_values)
@example(value={})
@example(value=[[], {}, (), {"": [{}]}])
@example(value={1: "a", "1": "b", True: None, "True": 0})
@example(value=["\x00\x1f\"\\é \U0001f600", -0.0, 2 ** 200, -(2 ** 70)])
@example(value={"p7": {"e12": JsonLeaf("-1/3", -1 / 3), "e34": JsonLeaf("10" * 300, None)},
                "leaves": [JsonLeaf("nan", float("nan")), (JsonLeaf("x\n", float("-inf")),)],
                2: JsonLeaf("", float("inf"))})
def test_json_text_equals_json_dumps_of_the_old_conversion(value):
    assert _json_text(value) == json.dumps(_old_jsonable(value), sort_keys=True, indent=2)


_big_ints = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-(10 ** 400), 10 ** 400))


@settings(max_examples=300, **_SETTINGS)
@given(num=_big_ints, den=_big_ints.filter(bool).map(abs), scale=st.integers(1, 10 ** 6))
@example(num=10 ** 400, den=3, scale=1)  # past the float range
@example(num=-6, den=4, scale=1)
@example(num=0, den=7, scale=5)
def test_ratio_leaf_is_the_leaf_of_the_fraction(num, den, scale):
    """The leaf of an unreduced num / den, as ``decompose`` writes the
    projection numerators, is the leaf of the reduced Fraction: its
    text, and its correctly rounded float or None past the float range."""
    q = Fraction(num, den)
    try:
        x = float(q)
    except OverflowError:
        x = None
    assert _ratio_leaf(num * scale, den * scale) == JsonLeaf(str(q), x)


@settings(max_examples=500, **_SETTINGS)
@given(bits=st.integers(min_value=0, max_value=2 ** 64 - 1))
@example(bits=0)  # +0.0
@example(bits=2 ** 63)  # -0.0
@example(bits=1)  # the least subnormal
@example(bits=0x000FFFFFFFFFFFFF)  # the largest subnormal
@example(bits=0x7FEFFFFFFFFFFFFF)  # the largest double
@example(bits=0x7FF0000000000000)  # inf
@example(bits=0xFFF0000000000000)  # -inf
@example(bits=0x7FF8000000000001)  # a nan
def test_17_significant_digits_round_trip_every_double(bits):
    """``float(f"{x:.17g}") == x`` for every binary64 x, sign of zero
    included, and nan stays nan: the JSON writer prints ``repr`` of the
    double with no 17-digit pass, and the two agree."""
    (x,) = struct.unpack("<d", struct.pack("<Q", bits))
    y = float(f"{x:.17g}")
    if math.isnan(x):
        assert math.isnan(y)
    else:
        assert y == x and math.copysign(1.0, y) == math.copysign(1.0, x)
        assert repr(y) == repr(x)
