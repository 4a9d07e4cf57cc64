from fractions import Fraction
from functools import reduce
from math import gcd, pi

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specasym.exact import Scalar, rational_numerators
from specasym.exterior import DiffForm, FiberOp
from specasym.filtration import CliffordWordExpansion, expand_clifford_basis
from specasym.holonomy import decompose_two_form, standard_structure


def test_ring_basics():
    a = Scalar.of(Fraction(1, 2))
    b = Scalar.term(3, pi_half=-4)  # 3 / pi^2
    c = a + b
    assert c - b == a
    assert a * 2 == Scalar.of(1)
    assert (a * b).evalf() == pytest.approx(1.5 / pi**2)
    assert (-a + a).is_zero()
    assert Scalar.of(0).is_zero() and not Scalar.of(3).is_zero()


def test_equal_values_hash_equal():
    """A Scalar that equals an int or a Fraction hashes like it, so sets and
    dict keys treat them as one value."""
    for x in (0, 3, -7, Fraction(1, 2), Fraction(-22, 7)):
        assert Scalar.of(x) == x and hash(Scalar.of(x)) == hash(x)
    assert len({Scalar(), 0}) == 1
    assert len({Scalar.of(Fraction(1, 2)), Fraction(1, 2), Scalar.term(1, 0) / 2}) == 1
    assert {Scalar.of(3): "three"}[3] == "three"
    # values with pi, t or imaginary parts are not rationals and hash apart
    assert len({Scalar.i(), Scalar.pi_pow(1), Scalar.t_pow(1), Scalar.of(1)}) == 4


def test_complex_and_conjugate():
    z = Scalar.term(1, 2)
    assert z.conjugate() == Scalar.term(1, -2)
    assert (z * z.conjugate()) == Scalar.of(5)
    assert (Scalar.i() * Scalar.i()) == Scalar.of(-1)


def test_half_powers_and_t():
    assert Scalar.term(Fraction(1, 2), pi_half=-3).evalf() == pytest.approx(0.5 * pi ** -1.5)
    s = Scalar.term(Fraction(1, 2), pi_half=1, t_half=-3)
    for value in (s, s + Scalar.of(1), Scalar.t_pow(2)):
        with pytest.raises(ValueError):
            value.evalf()  # a power of t has no numeric value
        with pytest.raises(ValueError):
            value.real_float()


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


def test_repr_stable():
    s = Scalar.term(Fraction(-3, 2), pi_half=-4, t_half=1)
    assert repr(s) == "-3/2*pi^-2*t^(1/2)"


def _least_common_denominator(values):
    """The lcm of the reduced denominators, by gcd steps (oracle)."""
    return reduce(lambda d, x: d * x.denominator // gcd(d, x.denominator), map(Fraction, values), 1)


def _check_numerators(values):
    den, nums = rational_numerators(values)
    assert type(den) is int and den == _least_common_denominator(values)
    assert len(nums) == len(values) and all(type(v) is int for v in nums)
    assert [Fraction(v, den) for v in nums] == values


@pytest.mark.parametrize("values", [
    [3, -1, 0, 2 ** 70],
    [Fraction(1, 6), Fraction(-5, 4), Fraction(0), Fraction(7, 10 ** 30)],
    [0, Fraction(0)],
], ids=["ints", "fractions", "zeros"])
def test_rational_numerators_are_over_the_least_denominator(values):
    _check_numerators(values)


_BIG = st.integers(-2 ** 80, 2 ** 80)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.one_of(
    st.integers(-6, 6),
    _BIG,
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.builds(Fraction, _BIG, st.integers(1, 2 ** 80)),
), max_size=8))
def test_rational_numerators_of_drawn_rationals(values):
    _check_numerators(values)


@pytest.mark.parametrize("bad,later", [
    (Scalar.of(Fraction(1, 3)), 0.5),
    (Scalar(), 0.5),
    (0.5, Scalar.of(1)),
], ids=["scalar", "zero-scalar", "float"])
def test_rational_numerators_reject_other_values(bad, later):
    """A value that is not an int or a Fraction raises TypeError naming its
    type: the first such value's, not a later one's."""
    with pytest.raises(TypeError, match=type(bad).__name__) as info:
        rational_numerators([2, Fraction(-3, 8), bad, later])
    assert type(later).__name__ not in str(info.value)


_REJECTS_SCALARS = {
    "decompose": lambda: decompose_two_form(
        standard_structure("g2"), DiffForm(7, {0b11: Fraction(1, 2), 0b1100: Scalar.of(1)})),
    "expand": lambda: expand_clifford_basis(
        FiberOp(5, 1, {(3, 3): Fraction(1, 2), (6, 5): Scalar.of(2)})),
    "reconstruct": lambda: CliffordWordExpansion(
        5, {(0, 0): 1, (1, 0): Scalar.of(Fraction(1, 2))}).reconstruct(),
}


@pytest.mark.parametrize("name", sorted(_REJECTS_SCALARS))
def test_rational_entry_points_reject_scalar_coefficients(name):
    """The 2-form projections and both directions of the word expansion
    take int and Fraction coefficients only: a Scalar, even a real
    rational one, raises TypeError naming it."""
    with pytest.raises(TypeError, match="Scalar"):
        _REJECTS_SCALARS[name]()


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
