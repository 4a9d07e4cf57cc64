import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specasym.exact import Scalar
from specasym.exterior import (
    DiffForm,
    FiberOp,
    MultiIndex,
    cliff_hat_op,
    cliff_op,
    ext_op,
    hodge_star,
    parse_form,
    popcount,
    star_ext_entries,
    subset_order,
    wedge,
    word_op,
)
from specasym.holonomy import standard_structure


def e(n, *idx):
    return DiffForm.monomial(n, idx)


def test_wedge_basis_products():
    assert wedge(e(7, 1), e(7, 2)) == e(7, 1, 2)
    assert wedge(e(7, 1, 2), e(7, 1, 2)).is_zero()
    assert wedge(e(7, 2), e(7, 1)) == e(7, 1, 2).scale(-1)


def test_wedge_graded_anticommutative():
    rnd = random.Random(0)
    for _ in range(60):
        ka, kb = rnd.randint(0, 3), rnd.randint(0, 3)
        a = DiffForm.zero(7)
        b = DiffForm.zero(7)
        for _ in range(3):
            a = a + DiffForm.monomial(
                7, sorted(rnd.sample(range(1, 8), ka)), Fraction(rnd.randint(-4, 4))
            )
            b = b + DiffForm.monomial(
                7, sorted(rnd.sample(range(1, 8), kb)), Fraction(rnd.randint(-4, 4))
            )
        assert a.wedge(b) == b.wedge(a).scale((-1) ** (ka * kb))


def test_phi_wedge_star_phi(g2):
    phi = g2.defining_form
    # brute-force norm oracle: sum of squared coefficients over basis triples
    norm_sq = sum(c * c for c in phi.terms.values())
    assert norm_sq == 7
    assert phi.wedge(hodge_star(phi)) == DiffForm.dvol(7).scale(norm_sq)


def test_hodge_star_basics():
    assert hodge_star(DiffForm.one(7)) == DiffForm.dvol(7)
    assert hodge_star(DiffForm.dvol(7)) == DiffForm.one(7)
    assert hodge_star(e(7, 1, 2)) == e(7, 3, 4, 5, 6, 7)


def test_hodge_involution_all_degrees():
    for n in (7, 8):
        for mask in range(1 << n):
            f = DiffForm(n, {mask: Fraction(1)})
            k = len(f.degrees()) and f.degree()
            assert f.hodge().hodge() == f.scale((-1) ** (k * (n - k)))


def test_ext_op_examples():
    op = ext_op(e(7, 1))
    assert op.apply_to_form(DiffForm.one(7)) == e(7, 1)
    assert op.apply_to_form(e(7, 1)).is_zero()
    assert (op @ op).is_zero()


def test_cliff_squares_and_cross():
    n = 7
    ident = FiberOp.identity(n)
    c1 = cliff_op(e(n, 1))
    h1 = cliff_hat_op(e(n, 1))
    assert c1 @ c1 == ident.scale(Fraction(-1))
    assert h1 @ h1 == ident
    for j in (1, 2, 5):
        hj = cliff_hat_op(e(n, j))
        assert (c1 @ hj + hj @ c1).is_zero()


def test_cliff_requires_one_form():
    with pytest.raises(ValueError):
        cliff_op(e(7, 1, 2))
    with pytest.raises(ValueError):
        cliff_hat_op(DiffForm.one(7))


def test_word_op_examples():
    n = 7
    assert word_op(n, (), "c") == FiberOp.identity(n)
    assert word_op(n, (1, 2), "c") == cliff_op(e(n, 1)) @ cliff_op(e(n, 2))
    full = word_op(n, tuple(range(1, 8)), "c")
    prod = FiberOp.identity(n)
    for i in range(1, 8):
        prod = prod @ cliff_op(e(n, i))
    assert full == prod
    # c(dvol)^2 = Id in dimension 7
    assert full @ full == FiberOp.identity(n)


def test_adjoint_is_interior():
    for i in range(1, 8):
        op = ext_op(e(7, i))
        adj = op.adjoint()
        # e*(e^i) e^{i...} drops the index
        assert adj.apply_to_form(e(7, i)) == DiffForm.one(7)
        assert adj.apply_to_form(e(7, (i % 7) + 1)).is_zero()


def test_pairing_against_star():
    rnd = random.Random(1)
    for _ in range(40):
        k = rnd.randint(0, 4)
        a = DiffForm.monomial(7, sorted(rnd.sample(range(1, 8), k)), Fraction(rnd.randint(1, 5)))
        b = DiffForm.monomial(7, sorted(rnd.sample(range(1, 8), k)), Fraction(rnd.randint(-5, -1)))
        assert a.wedge(b.hodge()).top_coefficient() == a.inner(b)


def test_multi_index_invariants():
    mi = MultiIndex((1, 3, 6), 7)
    assert mi.complement().indices == (2, 4, 5, 7)
    assert mi.complement_sign() in (-1, 1)
    with pytest.raises(ValueError):
        MultiIndex((3, 1), 7)
    with pytest.raises(ValueError):
        MultiIndex((0, 2), 7)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(e(7, 1), e(8, 2))


def test_identity_trace_and_composition():
    for r in (1, 2):
        ident = FiberOp.identity(7, r)
        assert ident.trace() == (1 << 7) * r
        assert ident @ ident == ident


def test_degree_reporting():
    mixed = e(7, 1) + e(7, 1, 2)
    assert mixed.degrees() == [1, 2]
    with pytest.raises(ValueError):
        mixed.degree()
    assert DiffForm.zero(7).degrees() == []


def test_parse_form_roundtrip():
    f = parse_form(7, "3 e123 - 1/2 e145 + e67")
    assert f == (
        e(7, 1, 2, 3).scale(3) - e(7, 1, 4, 5).scale(Fraction(1, 2)) + e(7, 6, 7)
    )
    assert parse_form(7, "0").is_zero()
    with pytest.raises(ValueError):
        parse_form(7, "e19")
    with pytest.raises(ValueError):
        parse_form(7, "3x + 4")
    # whitespace separates tokens but never splits or joins them
    for bad in ("e12 3", "1 2 e12", "e12e34", "e12 e34"):
        with pytest.raises(ValueError):
            parse_form(7, bad)
    for text, want in (
        ("3 e12", e(7, 1, 2).scale(3)),
        ("3e12", e(7, 1, 2).scale(3)),
        ("3*e12", e(7, 1, 2).scale(3)),
        ("- 1/2 e34", e(7, 3, 4).scale(Fraction(-1, 2))),
        ("- 3/2 e12 + 1 e34", e(7, 1, 2).scale(Fraction(-3, 2)) + e(7, 3, 4)),
    ):
        assert parse_form(7, text) == want


def test_interior_product():
    phi_like = e(7, 1, 2, 3)
    assert phi_like.interior(1) == e(7, 2, 3)
    assert phi_like.interior(2) == e(7, 1, 3).scale(-1)
    assert phi_like.interior(4).is_zero()


def test_adjoint_conjugates_non_rational_entries():
    op = FiberOp.zeros(3)
    op.mat[1, 2] = Scalar.term(1, 2, pi_half=1)
    op.mat[0, 1] = 1 + 2j
    op.mat[4, 5] = Fraction(1, 3)
    adj = op.adjoint()
    assert adj.mat[2, 1] == Scalar.term(1, -2, pi_half=1)
    assert adj.mat[1, 0] == 1 - 2j
    assert adj.mat[5, 4] == Fraction(1, 3)
    assert adj.adjoint() == op


@pytest.mark.parametrize("n", [7, 8])
def test_star_ext_entries_match_dense_operators(n):
    """Both sign tables against the dense products *e(w) and c(dvol)e(w),
    on every source, for the structure form and a random rational form."""
    rnd = random.Random(n)
    structure = standard_structure("g2" if n == 7 else "spin7").defining_form
    rational = DiffForm(n, {
        m: Fraction(rnd.choice((-3, -2, -1, 1, 2, 3)), rnd.randint(1, 4))
        for m in rnd.sample(range(1 << n), 10)
    })
    order = subset_order(n)[0]
    for w in (structure, rational):
        e_w = FiberOp.ext_op(w)
        for cdvol, op in ((False, FiberOp.star_op(n) @ e_w),
                          (True, FiberOp.word_op(n, (1 << n) - 1, "c") @ e_w)):
            dense = {(order[i], order[j]): v
                     for i, row in enumerate(op.mat.tolist()) for j, v in enumerate(row) if v}
            assert star_ext_entries(w, range(1 << n), cdvol) == dense


def test_popcount_matches_the_binary_digits():
    for m in range(1 << 9):
        want = bin(m).count("1")
        assert popcount(m) == want
        assert popcount(np.int64(m)) == popcount(np.uint16(m)) == want


_RATS = st.fractions(min_value=-6, max_value=6, max_denominator=9).filter(bool)
_SCALARS = st.builds(
    lambda re, im, p, q: Scalar.term(re, im, pi_half=p, t_half=q),
    _RATS, st.one_of(st.just(0), _RATS), st.integers(-2, 2), st.integers(-2, 2),
)


@st.composite
def _form_pairs(draw):
    """Two mixed-degree forms on R^7 or R^8; part of the second sits on
    complements of the first's masks, so the top pairing is rarely empty."""
    n = draw(st.sampled_from([7, 8]))
    masks = st.integers(0, (1 << n) - 1)
    coeffs = [draw(st.sampled_from([_RATS, _SCALARS])) for _ in range(2)]
    a = draw(st.dictionaries(masks, coeffs[0], max_size=10))
    b = draw(st.dictionaries(masks, coeffs[1], max_size=6))
    full = (1 << n) - 1
    for m in draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else ():
        b[full ^ m] = draw(coeffs[1])
    return DiffForm(n, a), DiffForm(n, b)


@settings(max_examples=100, deadline=None)
@given(_form_pairs())
def test_top_pairing_equals_the_top_coefficient_of_the_wedge(pair):
    a, b = pair
    assert a.top_pairing(b) == a.wedge(b).top_coefficient()
    assert b.top_pairing(a) == b.wedge(a).top_coefficient()


def test_top_pairing_on_the_structure_forms():
    for kind in ("g2", "spin7"):
        w = standard_structure(kind).defining_form
        dual = w.hodge()
        assert w.top_pairing(dual) == w.wedge(dual).top_coefficient() == w.norm_sq()
