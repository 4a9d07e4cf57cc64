import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specasym.exact import Scalar
from specasym.exterior import DiffForm, FiberOp, popcount, sparse_product
from specasym.heat import model_constant_potential
from specasym.residue import random_curvature
from specasym.wordops import (
    WordOperator,
    star_weighted_trace,
    word_mul,
)


def _random_word_op(n, rnd, terms=3):
    out = {}
    for _ in range(terms):
        key = (0, rnd.randrange(1 << n), rnd.randrange(1 << n))
        out[key] = {(0, 0): Scalar.of(Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)))}
    return WordOperator(n, 1, out)


# small values, so that entries of bundle products cancel now and then
_BUNDLE_VALUES = (Scalar.of(1), Scalar.of(-1), Scalar.i(), Scalar.i(-1), Scalar.of(Fraction(1, 2)))


def _random_bundle_op(n, r, rnd, masks, terms=3):
    """Words drawn from ``masks``, so that products share keys, times
    random sparse bundle maps with about 40 % of the entries absent."""
    out = {}
    for _ in range(terms):
        key = (0, rnd.choice(masks), rnd.choice(masks))
        out[key] = {(a, b): rnd.choice(_BUNDLE_VALUES)
                    for a in range(r) for b in range(r) if rnd.random() < 0.6}
    return WordOperator(n, r, out)


def _stores_no_zero(x):
    """No empty bundle, empty plane or zero pair is stored."""
    return all(m and all(p and all(re or im for re, im in p.values()) for p in m.values())
               for m in x.terms.values())


def test_word_mul_rules():
    # c-generators square to -1, chat-generators to +1
    assert word_mul(0b1, 0b1, -1) == (-1, 0)
    assert word_mul(0b1, 0b1, +1) == (1, 0)
    # disjoint ascending words concatenate with the interleaving sign
    assert word_mul(0b10, 0b01, -1) == (-1, 0b11)
    assert word_mul(0b01, 0b10, -1) == (1, 0b11)


@pytest.mark.parametrize("square_sign", [-1, 1])
def test_word_mul_matches_generator_products(generator_words, square_sign):
    """Every pair of words at n = 5 against the products of their
    generators: c words square to -1, c-hat words to +1.  At n = 7 and 8
    every pair is checked on one random basis form: a product of two words
    is +-1 times a word, so one column fixes its sign."""
    n = 5
    words = generator_words(n, square_sign > 0)
    for m1 in range(1 << n):
        for m2 in range(1 << n):
            sign, m = word_mul(m1, m2, square_sign)
            assert sparse_product(words[m1], words[m2]) == {
                k: sign * v for k, v in words[m].items()}, (m1, m2)
    rnd = random.Random(square_sign)
    for n in (7, 8):
        words = generator_words(n, square_sign > 0)
        for m1 in range(1 << n):
            for m2 in range(1 << n):
                sign, m = word_mul(m1, m2, square_sign)
                s = rnd.randrange(1 << n)
                mid = s ^ m2
                got = words[m2][(mid, s)] * words[m1][(mid ^ m1, mid)]
                assert (got, mid ^ m1) == (sign * words[m][(s ^ m, s)], s ^ m), (n, m1, m2)


def test_algebra_associative_and_unital():
    rnd = random.Random(13)
    n = 5
    for r in (1, 2, 3):
        ident = WordOperator.identity(n, r)
        for _ in range(25):
            masks = [rnd.randrange(1 << n) for _ in range(3)]
            a, b, c = (_random_bundle_op(n, r, rnd, masks) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * ident == a and ident * a == a
            assert a + b - b == a and (a - a).is_zero()


def _add(x, y):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def test_products_match_dense_matrices(fiber_matrix, scalar_maps):
    """Products and sums at ranks 1-3 against the products and sums of
    their fiber matrices, built from the generator words, including
    entries and terms that cancel."""
    rnd = random.Random(14)
    n = 5
    cancelled = 0
    for r in (1, 2, 3):
        for _ in range(10):
            masks = [rnd.randrange(1 << n) for _ in range(2)]
            a, b = _random_bundle_op(n, r, rnd, masks), _random_bundle_op(n, r, rnd, masks)
            prod = a * b
            fa, fb = fiber_matrix(a), fiber_matrix(b)
            assert fiber_matrix(prod) == sparse_product(fa, fb)
            assert fiber_matrix(a + b) == _add(fa, fb)
            assert _stores_no_zero(prod) and _stores_no_zero(a + b)
            # bundle products with an entry that cancels
            cancelled += sum(
                len(sparse_product(m1, m2)) < len({(i, j) for i, k in m1 for l, j in m2 if k == l})
                for m1 in scalar_maps.terms(a).values() for m2 in scalar_maps.terms(b).values())
    assert cancelled


def test_products_drop_entries_and_terms_that_cancel():
    n, r = 3, 2
    x = WordOperator(n, r, {(0, 1, 0): {(0, 0): Scalar.of(1), (0, 1): Scalar.of(1)}})
    y = WordOperator(n, r, {(0, 1, 0): {(0, 0): Scalar.of(1), (1, 0): Scalar.of(-1)}})
    assert (x * y).terms == {}  # [[1, 1], [0, 0]] [[1, 0], [-1, 0]] = 0
    # (c1 + chat1)^2 = -1 + 1 + (c1 chat1 + chat1 c1) = 0, term by term
    z = WordOperator.from_word(n, 1, 0, r) + WordOperator.from_word(n, 0, 1, r)
    assert (z * z).terms == {}
    assert WordOperator(n, r, {(0, 1, 0): {(0, 1): Scalar()}, (0, 2, 0): {}}).terms == {}


def test_equality_of_different_shapes_is_false():
    """DiffForm, FiberOp and WordOperator compare unequal, without an
    error, when the dimension or the bundle rank differs."""
    assert WordOperator(7) != WordOperator(8)
    assert WordOperator(7, 1) != WordOperator(7, 2)
    assert WordOperator.identity(7, 1) != WordOperator.identity(7, 2)
    assert WordOperator(7) == WordOperator(7)
    assert DiffForm(7) != DiffForm(8)
    assert DiffForm.one(7) != DiffForm.one(8)
    assert FiberOp(7, 1, {}) != FiberOp(8, 1, {})
    assert FiberOp(7, 1, {}) != FiberOp(7, 2, {})
    assert FiberOp(7, 1, {(0, 0): 1}) != FiberOp(8, 1, {(0, 0): 1})


def _trace_of_product(x, y):
    """tr(x y) of two sparse maps."""
    return sum((v * y[(j, i)] for (i, j), v in x.items() if (j, i) in y), Scalar())


def test_weighted_traces_match_fiber_op_products(g2, fiber_matrix):
    """The weighted trace against tr[W m] with W = *e(w) the product of
    the maps of ``DiffForm.hodge`` and ``FiberOp.ext_op``, and m the fiber
    matrix of the word operator (oracle)."""
    rnd = random.Random(15)
    w = g2.defining_form
    star = {(t, s): c for s in range(1 << 7) for t, c in DiffForm(7, {s: 1}).hodge().terms.items()}
    star_w = sparse_product(star, FiberOp.ext_op(w).entries)
    for _ in range(8):
        x = _random_word_op(7, rnd)
        assert star_weighted_trace(w, x) == _trace_of_product(star_w, fiber_matrix(x))


def test_form_trace_rule():
    n = 4
    x = WordOperator.identity(n).scale(Fraction(3, 2))
    assert x.form_trace() == DiffForm.one(n).scale(Scalar.of(3 * (1 << n) // 2))
    pure_word = WordOperator.from_word(n, 0b11, 0b100)
    assert pure_word.form_trace().is_zero()


def test_exp_requires_nilpotency():
    x = WordOperator.identity(5)
    with pytest.raises(ValueError):
        x.exp_nilpotent()


def test_weighted_trace_rejects_form_content(g2):
    x = WordOperator.from_form(DiffForm.monomial(7, (1, 2)))
    with pytest.raises(ValueError):
        star_weighted_trace(g2.defining_form, x)


def _bochner_curvature_term(cd):
    """- sum_{ijkl} R_{ijkl} e(i) e*(j) e(l) e*(k) in the word algebra."""
    n = cd.n
    total = WordOperator.zero(n, 1)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            inner = WordOperator.zero(n, 1)
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    v = cd.r_component(i, j, k, l)
                    if v:
                        inner = inner + (
                            WordOperator.ext_gen(n, l) * WordOperator.int_gen(n, k)
                        ).scale(v)
            if not inner.is_zero():
                piece = WordOperator.ext_gen(n, i) * WordOperator.int_gen(n, j)
                total = total + (piece * inner).scale(-1)
    return total


def test_bochner_term_top_symbol(scalar_maps):
    # The fully expanded curvature term has no c-degree-4 part exactly
    # when the cyclic identity holds; its c2 x chat2 part is -1/2 times
    # the displayed model constant (frozen diagnostic).
    cd = random_curvature(7, 1, seed=8, with_bundle=False, bianchi=True)
    t = _bochner_curvature_term(cd)
    assert all(popcount(c) != 4 for (_, c, _) in t.terms)
    c2h2 = WordOperator(
        7,
        1,
        {
            (cm, 0, hm): m
            for (f, cm, hm), m in scalar_maps.terms(t).items()
            if popcount(cm) == 2 and popcount(hm) == 2
        },
    )
    model = model_constant_potential(cd)
    assert set(c2h2.terms) == set(model.terms)
    assert c2h2 == model.scale(Fraction(-1, 2))
    model_maps = scalar_maps.terms(model)
    for key, m in scalar_maps.terms(c2h2).items():
        assert m[0, 0] == model_maps[key][0, 0] * Fraction(-1, 2)


def test_bochner_term_cyclic_defect_visible():
    cd = random_curvature(7, 1, seed=8, with_bundle=False, bianchi=False)
    assert cd.bianchi_defect() > 0
    t = _bochner_curvature_term(cd)
    assert any(popcount(c) == 4 for (_, c, _) in t.terms)



# operators at n = 4 on a few form and word masks, so that products meet
# and cancel, with bundle values in Q(i)[pi^(+-1/2), t^(+-1/2)]
_PARTS = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))
_VALUES = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    st.tuples(_PARTS, _PARTS).filter(any),
    min_size=1, max_size=2,
).map(Scalar)
_FORMS = st.sampled_from([0, 0b11, 0b101, 0b1100, 0b1111])
_WORDS = st.sampled_from([0, 0b1, 0b10, 0b11, 0b110, 0b1111])


@st.composite
def _operator_triples(draw):
    r = draw(st.integers(1, 3))
    entry = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1))
    terms = st.dictionaries(st.tuples(_FORMS, _WORDS, _WORDS),
                            st.dictionaries(entry, _VALUES, max_size=r * r), max_size=3)
    free = st.dictionaries(st.tuples(st.just(0), _WORDS, _WORDS),
                           st.dictionaries(entry, _VALUES, max_size=r * r), max_size=3)
    x, y, z = (WordOperator(4, r, draw(t)) for t in (terms, terms, free))
    return x, y, z, draw(st.one_of(_VALUES, st.integers(-4, 4), _PARTS))


def _is_canonical(x):
    """One positive denominator with no factor common to every numerator,
    and no empty bundle, empty plane or zero pair."""
    nums = [v for m in x.terms.values() for p in m.values() for pair in p.values() for v in pair]
    return x.den > 0 and gcd(x.den, *nums) == 1 and _stores_no_zero(x)


@settings(max_examples=60, deadline=None, database=None)
@given(ops=_operator_triples(), weights=st.dictionaries(_FORMS, st.integers(-2, 2), max_size=3))
def test_integer_planes_equal_the_scalar_map_oracle(scalar_maps, ops, weights):
    """Products, sums and scalings at ranks 1-3 against the same operations
    on Scalar bundle maps; the results are canonical, so each equals the
    operator built from the oracle's maps.  ``form_trace`` and
    ``star_weighted_trace`` equal their lifted oracles."""
    x, y, z, s = ops
    for got, want in ((x * y, scalar_maps.mul(x, y)), (y * x, scalar_maps.mul(y, x)),
                      (x + y, scalar_maps.add(x, y)), (x.scale(s), scalar_maps.scale(x, s)),
                      (z * z, scalar_maps.mul(z, z))):
        assert scalar_maps.terms(got) == want
        assert _is_canonical(got)
        assert got == WordOperator(4, x.r, want)
    for op in (x, x * y, z):
        assert op.form_trace() == scalar_maps.form_trace(op)
        assert repr(op.form_trace()) == repr(scalar_maps.form_trace(op))
    w = DiffForm(4, weights)
    assert star_weighted_trace(w, z) == scalar_maps.star_weighted_trace(w, z)
    assert repr(star_weighted_trace(w, z)) == repr(scalar_maps.star_weighted_trace(w, z))
