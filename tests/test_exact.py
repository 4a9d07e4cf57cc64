from fractions import Fraction
from math import pi, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specasym.exact import Scalar, numerator_planes


def test_ring_basics():
    a = Scalar.of(Fraction(1, 2))
    b = Scalar.term(3, pi_half=-4)  # 3 / pi^2
    c = a + b
    assert c - b == a
    assert a * 2 == Scalar.of(1)
    assert (a * b).evalf() == pytest.approx(1.5 / pi**2)
    assert (-a + a).is_zero()
    assert Scalar.of(0).is_zero() and not Scalar.of(3).is_zero()


def test_complex_and_conjugate():
    z = Scalar.term(1, 2)
    assert z.conjugate() == Scalar.term(1, -2)
    assert (z * z.conjugate()) == Scalar.of(5)
    assert (Scalar.i() * Scalar.i()) == Scalar.of(-1)


def test_half_powers_and_t():
    s = Scalar.term(Fraction(1, 2), pi_half=1, t_half=-3)
    v = s.evalf(t=0.25)
    assert v == pytest.approx(0.5 * sqrt(pi) * 0.25 ** (-1.5))
    with pytest.raises(ValueError):
        s.evalf()  # t required


def test_t_coefficient_and_support():
    s = Scalar.term(2, t_half=-7) + Scalar.term(5, t_half=4)
    assert s.t_support() == [Fraction(-7, 2), Fraction(2)]
    assert s.t_coefficient(Fraction(-7, 2)) == Scalar.of(2)
    assert s.t_coefficient(2) == Scalar.of(5)
    assert s.t_coefficient(1).is_zero()
    assert s.t_coefficient(Fraction(1, 3)).is_zero()


def test_division():
    a = Scalar.term(Fraction(3, 4), pi_half=1)   # (3/4) sqrt(pi)
    b = Scalar.term(Fraction(1, 2), pi_half=-3)
    assert (b / a) * a == b
    assert b / 2 == Scalar.term(Fraction(1, 4), pi_half=-3)
    with pytest.raises(ZeroDivisionError):
        b / (a + Scalar.of(1))  # non-monomial divisor
    with pytest.raises(ZeroDivisionError):
        b / Scalar.of(0)


def test_pow_and_rational_extraction():
    a = Scalar.term(2, pi_half=-2)
    assert a ** 3 == Scalar.term(8, pi_half=-6)
    assert Scalar.of(Fraction(7, 3)).as_rational() == Fraction(7, 3)
    with pytest.raises(ValueError):
        a.as_rational()


def test_repr_stable():
    s = Scalar.term(Fraction(-3, 2), pi_half=-4, t_half=1)
    assert repr(s) == "-3/2*pi^-2*t^(1/2)"


@pytest.mark.parametrize("values", [
    [3, -1, 0, 2 ** 70],
    [Fraction(1, 6), Fraction(-5, 4), Fraction(0), Fraction(7, 10 ** 30)],
    [0, Fraction(0)],
    [2, Fraction(-3, 8), 0, Scalar.term(1, -2, pi_half=-2), Fraction(5, 12), Scalar.of(Fraction(1, 3))],
], ids=["ints", "fractions", "zeros", "mixed-with-scalars"])
def test_numerator_planes_fast_path_matches_general_path(values):
    """Plain int and Fraction lists take a fast path; the same values as
    Scalars take the per-value general path and give the same output."""
    got = numerator_planes(values)
    assert got == numerator_planes([Scalar.of(x) for x in values])
    assert all(type(v) is int for nums in got[1].values() for v in nums)


_RATS = st.fractions(min_value=-6, max_value=6, max_denominator=9)
_PARTS = st.one_of(st.just(Fraction(0)), _RATS)
# Gaussian-rational Scalars in canonical form, often with a zero part
_SCALARS = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.tuples(_PARTS, _PARTS).filter(any),
    max_size=4,
).map(Scalar)
_FACTORS = st.one_of(_SCALARS, st.integers(-5, 5), _RATS)


def _generic_product(x, y):
    """The four-product complex formula over every pair of terms."""
    x, y = Scalar.of(x), Scalar.of(y)
    out = {}
    for (p1, q1), (a1, b1) in x.terms.items():
        for (p2, q2), (a2, b2) in y.terms.items():
            k = (p1 + p2, q1 + q2)
            r0, i0 = out.get(k, (Fraction(0), Fraction(0)))
            re, im = r0 + a1 * a2 - b1 * b2, i0 + a1 * b2 + b1 * a2
            if re == 0 and im == 0:
                out.pop(k, None)
            else:
                out[k] = (re, im)
    return out


def _is_canonical(x):
    return all(any(pair) and all(type(v) is Fraction for v in pair)
               for pair in x.terms.values())


@settings(max_examples=150, deadline=None)
@given(_SCALARS, _FACTORS)
def test_mul_fast_paths_equal_the_generic_product(x, y):
    want = _generic_product(x, y)
    for got in (x * y, y * x):
        assert isinstance(got, Scalar)
        assert got.terms == want
        assert _is_canonical(got)


@settings(max_examples=60, deadline=None)
@given(_SCALARS, _SCALARS)
def test_mul_drops_cancelled_terms(x, y):
    """(x + y)(x - y): the cross products cancel on colliding keys."""
    got = (x + y) * (x - y)
    assert got.terms == _generic_product(x + y, x - y)
    assert _is_canonical(got)
    assert got == x * x - y * y


def test_mul_rejects_non_exact_factors():
    with pytest.raises(TypeError):
        Scalar.of(1) * 0.5
    with pytest.raises(TypeError):
        0.5 * Scalar.of(1)
