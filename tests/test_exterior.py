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
    apply_word,
    indices_of,
    merge_sign,
    parse_form,
    popcount,
    sparse_product,
    star_ext_entries,
)
from specasym.holonomy import standard_structure
from specasym.wordops import WordOperator


def e(n, *idx):
    return DiffForm.monomial(n, idx)


def test_wedge_basis_products():
    assert e(7, 1).wedge(e(7, 2)) == e(7, 1, 2)
    assert e(7, 1, 2).wedge(e(7, 1, 2)).is_zero()
    assert e(7, 2).wedge(e(7, 1)) == e(7, 1, 2).scale(-1)


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
    assert phi.wedge(phi.hodge()) == DiffForm.dvol(7).scale(norm_sq)


def test_hodge_star_basics():
    assert DiffForm.one(7).hodge() == DiffForm.dvol(7)
    assert DiffForm.dvol(7).hodge() == DiffForm.one(7)
    assert e(7, 1, 2).hodge() == e(7, 3, 4, 5, 6, 7)


def test_hodge_involution_all_degrees():
    for n in (7, 8):
        for mask in range(1 << n):
            f = DiffForm(n, {mask: Fraction(1)})
            k = len(f.degrees()) and f.degree()
            assert f.hodge().hodge() == f.scale((-1) ** (k * (n - k)))


def _column(entries, source):
    """The image of the basis form e^source under a sparse map."""
    return DiffForm(7, {t: v for (t, s), v in entries.items() if s == source})


def test_ext_op_examples():
    op = FiberOp.ext_op(e(7, 1)).entries
    assert _column(op, 0) == e(7, 1)
    assert _column(op, 1).is_zero()
    assert _column(op, 0b110) == e(7, 1, 2, 3)
    assert sparse_product(op, op) == {}


def test_cliff_squares_and_cross(generator_words, fiber_matrix):
    """At n = 7 and 8 the generator maps built from DiffForm satisfy the
    Clifford relations: c(e_i)^2 = -1, c-hat(e_i)^2 = 1, and distinct
    generators anticommute; the WordOperator generators materialise to
    them."""
    for n in (7, 8):
        c, h = generator_words(n, False), generator_words(n, True)
        ident = c[0]
        for i in range(n):
            ci, hi = c[1 << i], h[1 << i]
            assert fiber_matrix(WordOperator.from_word(n, 1 << i, 0)) == ci
            assert fiber_matrix(WordOperator.from_word(n, 0, 1 << i)) == hi
            assert sparse_product(ci, ci) == {k: -v for k, v in ident.items()}
            assert sparse_product(hi, hi) == ident
            for j in range(n):
                for x, y in ((ci, h[1 << j]), (hi, h[1 << j]), (ci, c[1 << j])):
                    if x is not y:
                        yx = sparse_product(y, x)
                        assert sparse_product(x, y) == {k: -v for k, v in yx.items()}, (n, i, j)


def test_word_op_examples(generator_words, fiber_matrix):
    n = 7
    c = generator_words(n, False)
    assert fiber_matrix(WordOperator.from_word(n, 0, 0)) == c[0] == {
        (s, s): 1 for s in range(1 << n)}
    assert fiber_matrix(WordOperator.from_word(n, 0b11, 0)) == sparse_product(c[1], c[2])
    full = fiber_matrix(WordOperator.from_word(n, 0b1111111, 0))
    prod = c[0]
    for i in range(n):
        prod = sparse_product(prod, c[1 << i])
    assert full == prod
    # c(dvol)^2 = Id in dimension 7
    assert sparse_product(full, full) == c[0]


def _merge_sign_loop(m1, m2):
    """merge_sign by a loop over the bits of m2: the elements of m1 above
    each index of m2, XOR-accumulated, have the parity of the pair count."""
    above = 0
    while m2:
        b = m2 & -m2
        above ^= m1 & -(b << 1)
        m2 ^= b
    return -1 if popcount(above) & 1 else 1


def test_merge_sign_closed_form_matches_the_bit_loop_below_2_to_the_9():
    """The prefix-parity closed form against the per-bit loop on every
    pair of masks below 2^9, overlapping ones included."""
    for m1 in range(1 << 9):
        for m2 in range(1 << 9):
            assert merge_sign(m1, m2) == _merge_sign_loop(m1, m2), (m1, m2)


def test_merge_sign_counts_strict_pairs_of_overlapping_masks():
    n = 6
    for m1 in range(1 << n):
        for m2 in range(1 << n):
            pairs = sum(a > b for a in indices_of(m1) for b in indices_of(m2))
            assert merge_sign(m1, m2) == (-1) ** pairs, (m1, m2)


def test_apply_word_matches_generator_products(generator_words):
    """Every c(I) c-hat(J) at n = 4 against the product of its
    generators."""
    n = 4
    c, h = generator_words(n, False), generator_words(n, True)
    for cm in range(1 << n):
        for hm in range(1 << n):
            got = {}
            for s in range(1 << n):
                sign, t = apply_word(cm, hm, s)
                got[(t, s)] = sign
            assert got == sparse_product(c[cm], h[hm]), (cm, hm)


@pytest.mark.parametrize("n", [7, 8])
def test_apply_word_matches_generator_words(generator_words, n):
    """Every c word and every c-hat word on every basis form at n = 7 and
    8, and 4000 random c(I) c-hat(J) on a random form: the c-hat word acts
    first, then the c word."""
    c, h = generator_words(n, False), generator_words(n, True)
    dim = 1 << n
    for w in range(dim):
        for s in range(dim):
            assert apply_word(w, 0, s) == (c[w][(s ^ w, s)], s ^ w), (w, s)
            assert apply_word(0, w, s) == (h[w][(s ^ w, s)], s ^ w), (w, s)
    rnd = random.Random(n)
    for _ in range(4000):
        cm, hm, s = (rnd.randrange(dim) for _ in range(3))
        mid = s ^ hm
        want = h[hm][(mid, s)] * c[cm][(mid ^ cm, mid)], mid ^ cm
        assert apply_word(cm, hm, s) == want, (cm, hm, s)


def test_adjoint_is_interior():
    for i in range(1, 8):
        adj = FiberOp.ext_op(e(7, i)).adjoint().entries
        # e*(e^i) e^{i...} drops the index
        assert _column(adj, 1 << (i - 1)) == DiffForm.one(7)
        assert _column(adj, 1 << (i % 7)).is_zero()
        for s in range(1 << 7):
            assert _column(adj, s) == DiffForm(7, {s: 1}).interior(i), (i, s)


def test_pairing_against_star():
    rnd = random.Random(1)
    for _ in range(40):
        k = rnd.randint(0, 4)
        a = DiffForm.monomial(7, sorted(rnd.sample(range(1, 8), k)), Fraction(rnd.randint(1, 5)))
        b = DiffForm.monomial(7, sorted(rnd.sample(range(1, 8), k)), Fraction(rnd.randint(-5, -1)))
        assert a.wedge(b.hodge()).top_coefficient() == a.inner(b)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        e(7, 1).wedge(e(8, 2))


def test_identity_trace_and_composition(fiber_matrix):
    for r in (1, 2):
        ident = WordOperator.identity(7, r)
        assert ident.form_trace() == DiffForm.one(7).scale(Scalar.of((1 << 7) * r))
        assert ident * ident == ident
        assert fiber_matrix(ident) == {(i, i): 1 for i in range((1 << 7) * r)}


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


def test_monomial_takes_the_sign_of_the_written_order():
    """e^2 ^ e^1 = -e^12: indices out of ascending order carry the sign of
    their sorting permutation, in the constructor and in ``parse_form``."""
    assert DiffForm.monomial(7, (2, 1)) == e(7, 1, 2).scale(-1)
    assert DiffForm.monomial(7, (1, 3, 2), 5) == e(7, 1, 2, 3).scale(-5)
    assert DiffForm.monomial(7, (3, 1, 2)) == e(7, 1, 2, 3)
    assert DiffForm.monomial(7, (3, 2, 1)) == e(7, 1, 2, 3).scale(-1)
    assert DiffForm.monomial(8, (8, 1), Scalar.i()) == e(8, 1, 8).scale(-Scalar.i())
    for idx in ((2, 1), (1, 3, 2), (4, 3, 2, 1), (2, 5, 1, 7)):
        want = e(7, idx[0])
        for i in idx[1:]:
            want = want.wedge(e(7, i))
        assert DiffForm.monomial(7, idx) == want
    assert parse_form(7, "e21") == -parse_form(7, "e12")
    assert parse_form(7, "e132") == -parse_form(7, "e123")
    assert parse_form(7, "3 e21 + 3 e12").is_zero()
    for bad in ("e11", "e121"):
        with pytest.raises(ValueError, match="repeated index"):
            parse_form(7, bad)


@pytest.mark.parametrize("text, message", [
    # several faults in one term: range, then coefficient, then repeat
    ("1/0 e19", "index out of range 1..7 in '1/0 e19'"),
    ("e119", "index out of range 1..7 in 'e119'"),
    ("1/0 e11", "bad coefficient '1/0' in '1/0 e11'"),
    ("1/0 e12", "bad coefficient '1/0' in '1/0 e12'"),
    ("e11", "repeated index 1"),
    ("e12 - e19 + 1/0", "index out of range 1..7 in 'e12 - e19 + 1/0'"),
    ("e12 - 1/0", "bad coefficient '1/0' in 'e12 - 1/0'"),
    ("e12 +", "cannot parse 'e12 +'"),
    ("x", "cannot parse 'x'"),
    ("3 e", "missing indices after 'e' in '3 e'"),
    ("e12 e34", "expected '+' or '-' between terms in 'e12 e34'"),
    ("e12 * e34", "expected '+' or '-' between terms in 'e12 * e34'"),
    ("3**e12", "expected '+' or '-' between terms in '3**e12'"),
    ("3 2", "expected '+' or '-' between terms in '3 2'"),
    ("  ", "empty form expression"),
])
def test_parse_form_error_messages(text, message):
    """Which message a bad expression raises, the first fault in the text
    winning and, within one term, the index range before the coefficient
    before a repeated index."""
    with pytest.raises(ValueError) as info:
        parse_form(7, text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, terms", [
    ("--e12", {3: Fraction(1)}),
    ("+-e12", {3: Fraction(-1)}),
    ("-+-e12", {3: Fraction(1)}),
    ("*e12", {3: Fraction(1)}),
    ("3 * e12", {3: Fraction(3)}),
    ("0 e12 + e34", {12: Fraction(1)}),
    ("3 e12 + 0 e12", {3: Fraction(3)}),
    ("e34 + e21 - e12 + e12", {12: Fraction(1), 3: Fraction(-1)}),
    ("e12 - e12 + e34 + e12", {12: Fraction(1), 3: Fraction(1)}),
    ("2 + e1", {0: Fraction(2), 1: Fraction(1)}),
])
def test_parse_form_sign_runs_stars_and_zero_terms(text, terms):
    """Runs of signs multiply, a bare ``*`` is allowed, zero and cancelled
    terms are dropped (a cancelled mask re-enters at the end), and every
    coefficient is a Fraction."""
    got = parse_form(7, text).terms
    assert list(got.items()) == list(terms.items())
    assert all(type(c) is Fraction for c in got.values())


def _fold_parse(n, terms):
    """The form of (sign, coefficient text or None, indices) terms as the
    term-by-term fold ``out + DiffForm.monomial(...)``."""
    out = DiffForm.zero(n)
    for sign, coeff, idx in terms:
        c = Fraction(coeff) if coeff is not None else Fraction(1)
        out = out + DiffForm.monomial(n, idx, sign * c)
    return out


# a small pool of index tuples, so that terms repeat and cancel; (2, 1) and
# (3, 2, 1) are descending, () is the 0-form
_POOL = [(), (1,), (1, 2), (2, 1), (3, 4), (4, 3), (6, 7), (1, 2, 3), (3, 2, 1), (2, 5, 7)]
_parse_term = st.tuples(
    st.sampled_from([1, -1]),
    st.one_of(st.none(), st.sampled_from(["0", "0/4", "1", "2", "1/2", "3/4", "5", "2.5", "7/3"])),
    st.sampled_from(_POOL),
).filter(lambda term: term[1] is not None or term[2])


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(_parse_term, min_size=1, max_size=8))
def test_parse_form_equals_the_monomial_fold(terms):
    """One summed dict equals the fold over ``+``: the same terms in the
    same order with the same types, repeats summed, cancelled and zero
    terms dropped, descending monomials negated."""
    text = " ".join(f"{'+' if sign > 0 else '-'} {coeff or ''} e{''.join(map(str, idx))}"
                    if idx else f"{'+' if sign > 0 else '-'} {coeff}"
                    for sign, coeff, idx in terms)
    got, want = parse_form(7, text), _fold_parse(7, terms)
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


def _loop_norm_sq(form):
    tot = 0
    for c in form.terms.values():
        tot = tot + (c.conjugate() if isinstance(c, (Scalar, complex)) else c) * c
    return tot


@pytest.mark.parametrize("terms", [
    {},
    {3: 2, 5: -3},
    {3: Fraction(1, 2), 5: Fraction(-2, 3), 6: Fraction(4)},
    {3: 2, 5: Fraction(-3, 4)},
    {3: Fraction(7), 5: 1},
    {3: Scalar.of(Fraction(1, 2)), 5: Scalar.i(2)},
    {3: Scalar.of(1), 5: Fraction(1, 3)},
    {3: 1 + 2j, 5: -0.5},
    {3: 2, 5: 0.25},
    {3: 10 ** 40 + 1, 5: Fraction(1, 10 ** 30)},
], ids=["empty", "int", "fraction", "mixed", "integral-fraction", "scalar", "scalar-mixed",
        "complex", "float", "large"])
def test_norm_sq_equals_the_term_loop(terms):
    """The integer-numerator sum has the loop's value and type."""
    form = DiffForm(7, terms)
    got, want = form.norm_sq(), _loop_norm_sq(form)
    assert got == want and type(got) is type(want)


def test_interior_product():
    phi_like = e(7, 1, 2, 3)
    assert phi_like.interior(1) == e(7, 2, 3)
    assert phi_like.interior(2) == e(7, 1, 3).scale(-1)
    assert phi_like.interior(4).is_zero()


def test_adjoint_conjugates_non_rational_entries():
    op = FiberOp(3, 1, {
        (1, 2): Scalar.term(1, 2, pi_half=1),
        (0, 1): 1 + 2j,
        (4, 5): Fraction(1, 3),
    })
    adj = op.adjoint()
    assert adj.entries == {
        (2, 1): Scalar.term(1, -2, pi_half=1),
        (1, 0): 1 - 2j,
        (5, 4): Fraction(1, 3),
    }
    assert adj.adjoint() == op


@pytest.mark.parametrize("key", [(8, 0), (0, 8), (-1, 3), (3, -1)])
def test_fiber_op_refuses_indices_outside_the_fiber(key):
    """Indices run over mask * r + bundle index, 0 .. 2^n r - 1."""
    with pytest.raises(ValueError):
        FiberOp(3, 1, {key: Fraction(1)})
    with pytest.raises(ValueError):
        FiberOp(2, 2, {key: Fraction(1)})
    assert FiberOp(2, 2, {(7, 7): Fraction(1)}).entries == {(7, 7): 1}


@pytest.mark.parametrize("n", [7, 8])
def test_star_ext_entries_match_dense_operators(generator_words, n):
    """Both sign tables against the products *e(w) and c(dvol)e(w) of the
    maps of ``DiffForm.hodge``, ``FiberOp.ext_op`` and the generator word
    over all indices, on every source, for the structure form and a random
    rational form."""
    rnd = random.Random(n)
    basis = [DiffForm(n, {s: 1}) for s in range(1 << n)]
    star = {(t, s): c for s, a in enumerate(basis) for t, c in a.hodge().terms.items()}
    cdvol = generator_words(n, False)[(1 << n) - 1]
    structure = standard_structure("g2" if n == 7 else "spin7").defining_form
    rational = DiffForm(n, {
        m: Fraction(rnd.choice((-3, -2, -1, 1, 2, 3)), rnd.randint(1, 4))
        for m in rnd.sample(range(1 << n), 10)
    })
    for w in (structure, rational):
        e_w = FiberOp.ext_op(w).entries
        assert star_ext_entries(w, range(1 << n)) == sparse_product(star, e_w)
        assert star_ext_entries(w, range(1 << n), True) == sparse_product(cdvol, e_w)


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


_ONES = {"fraction": Fraction(1), "scalar": Scalar.of(1), "float": 1.0}


@pytest.mark.parametrize("kind", sorted(_ONES))
def test_wedge_stores_no_zero_when_a_repeated_key_cancels(kind):
    one = _ONES[kind]
    a = DiffForm(7, {0b1: one, 0b10: one})  # e1 + e2
    assert a.wedge(a).terms == {}
    # e12 cancels, then the unit term of the first factor reaches it again
    b = DiffForm(7, {0b1: one, 0b10: one, 0: one})
    c = DiffForm(7, {0b10: one, 0b1: one, 0b11: one})
    got = b.wedge(c).terms
    assert got == {0b11: one, 0b10: one, 0b1: one}
    assert all(type(v) is type(one) for v in got.values())


def _brute_wedge(a, b):
    """{mask: nonzero coefficient} of a ^ b, each sign counted as the
    inversions of the concatenated index lists (oracle)."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if m1 & m2:
                continue
            seq = indices_of(m1) + indices_of(m2)
            inversions = sum(x > y for i, x in enumerate(seq) for y in seq[i + 1:])
            out[m1 | m2] = out.get(m1 | m2, 0) + (-1) ** inversions * c1 * c2
    return {m: c for m, c in out.items() if c != 0}


@st.composite
def _wedge_pairs(draw):
    """Two forms on R^7 or R^8 with one coefficient kind; half the masks
    lie on e1..e4, so products often meet at one key and cancel."""
    n = draw(st.sampled_from([7, 8]))
    masks = st.one_of(st.integers(0, 15), st.integers(0, (1 << n) - 1))
    units = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2)])
    coeffs = draw(st.sampled_from([units, _RATS, _SCALARS]))
    a = draw(st.dictionaries(masks, coeffs, max_size=8))
    b = draw(st.dictionaries(masks, coeffs, max_size=8))
    return DiffForm(n, a), DiffForm(n, b)


@settings(max_examples=100, deadline=None)
@given(_wedge_pairs())
def test_wedge_matches_a_brute_force_product(pair):
    a, b = pair
    got = a.wedge(b).terms
    assert got == _brute_wedge(a, b)
    assert all(c != 0 for c in got.values())


def test_top_pairing_on_the_structure_forms():
    for kind in ("g2", "spin7"):
        w = standard_structure(kind).defining_form
        dual = w.hodge()
        assert w.top_pairing(dual) == w.wedge(dual).top_coefficient() == w.norm_sq()


def _dense_product(x, y, dim):
    """{(i, j): nonzero sum_k x[i, k] y[k, j]} over 0 .. dim - 1, every
    (i, k, j) visited (oracle of ``sparse_product``)."""
    out = {}
    for i in range(dim):
        for j in range(dim):
            tot = 0
            for k in range(dim):
                if (i, k) in x and (k, j) in y:
                    tot = tot + x[(i, k)] * y[(k, j)]
            if tot != 0:
                out[(i, j)] = tot
    return out


_PRODUCT_VALUES = {
    "int": lambda rnd: rnd.choice((-3, -2, -1, 1, 2, 3)),
    "fraction": lambda rnd: Fraction(rnd.choice((-3, -1, 1, 2)), rnd.randint(1, 4)),
    "scalar": lambda rnd: Scalar.term(rnd.randint(-2, 2), rnd.choice((-1, 1)),
                                      pi_half=rnd.choice((0, -2))),
}


@pytest.mark.parametrize("kind", sorted(_PRODUCT_VALUES))
def test_sparse_product_matches_a_dense_product(kind):
    rnd = random.Random(kind)
    value = _PRODUCT_VALUES[kind]
    dim = 6
    for _ in range(30):
        x, y = ({(rnd.randrange(dim), rnd.randrange(dim)): value(rnd)
                 for _ in range(rnd.randint(0, 14))} for _ in range(2))
        got = sparse_product(x, y)
        assert got == _dense_product(x, y, dim)
        assert all(type(v) is type(next(iter(x.values()))) for v in got.values())


def test_sparse_product_stores_no_cancelled_entry():
    # (e0 + e1) with the rows (1, -1): row 0 cancels, row 1 cancels and
    # is reached again by a third term
    x = {(0, 0): 1, (0, 1): 1, (1, 0): Fraction(1), (1, 1): Fraction(1), (1, 2): Fraction(1)}
    y = {(0, 0): 1, (1, 0): -1, (2, 0): 1}
    got = sparse_product(x, y)
    assert got == {(1, 0): 1}
    assert sparse_product({(0, 0): Scalar.of(1), (0, 1): Scalar.of(1)},
                          {(0, 5): Scalar.of(2), (1, 5): Scalar.of(-2)}) == {}
    assert sparse_product({}, y) == sparse_product(y, {}) == {}


def test_fiber_op_products_of_library_operators_keep_fraction_entries():
    """``ext_op`` sums its entries from Fraction(0), so integer forms give
    Fraction entries, which ``adjoint`` and ``sparse_product`` keep."""
    w = DiffForm(7, {0b111: 1, 0b11000: -2})
    for r in (1, 2):
        e_w, e_3 = FiberOp.ext_op(w, r), FiberOp.ext_op(e(7, 3), r)
        for entries in (e_w.entries, e_w.adjoint().entries,
                        sparse_product(e_w.adjoint().entries, e_3.entries)):
            assert entries and all(type(v) is Fraction for v in entries.values())


_COEFFICIENTS = [
    0, 1, -3, Fraction(0), Fraction(-1, 3), 0.0, -0.0, 2.5, float("nan"), float("inf"),
    0j, complex(0, -0.0), 1j, complex(float("nan"), 0),
    Scalar(), Scalar.of(2), Scalar.i(), Scalar.term(0, 1, pi_half=2), Scalar.term(1, 0, pi_half=1),
    Scalar.term(Fraction(1, 2), 0, t_half=-3),
]


@pytest.mark.parametrize("c", _COEFFICIENTS, ids=repr)
def test_truthiness_is_nonzero_for_every_coefficient_type(c):
    """Forms, products and fiber operators drop a coefficient by ``bool``:
    that is ``c != 0`` for int, Fraction, float (nan and -0.0 included)
    and complex, and ``Scalar.__bool__`` keeps a Scalar with only an
    imaginary or pi-power part."""
    assert bool(c) == (c != 0)
    kept = {3: c} if c != 0 else {}
    assert DiffForm(7, {3: c}).terms == kept
    assert FiberOp(7, 1, {(3, 3): c}).entries == {(3, 3): c for _ in kept}
    assert list(sparse_product({(0, 0): c}, {(0, 1): 1})) == [(0, 1) for _ in kept]
    assert (DiffForm(7, {3: c}) == DiffForm.zero(7)) == (not kept)
