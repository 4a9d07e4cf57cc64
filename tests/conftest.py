from fractions import Fraction
from functools import cache

import pytest

from specasym import filtration
from specasym.exact import Scalar
from specasym.exterior import (
    DiffForm,
    apply_word,
    merge_sign,
    popcount,
    sparse_product,
    star_ext_entries,
)
from specasym.holonomy import standard_structure
from specasym.wordops import add_maps, word_mul


@pytest.fixture(scope="session")
def g2():
    return standard_structure("g2")


@pytest.fixture(scope="session")
def spin7():
    return standard_structure("spin7")


@cache
def _generator(n, i, hat):
    """{(target, source): +-1} of c(e_i) a = e^i ^ a - i_i a, or of
    c-hat(e_i) a = e^i ^ a + i_i a, on every basis form a, read off
    ``DiffForm.wedge`` and ``DiffForm.interior``."""
    ei = DiffForm(n, {1 << (i - 1): 1})
    out = {}
    for s in range(1 << n):
        a = DiffForm(n, {s: 1})
        inner = a.interior(i)
        image = ei.wedge(a) + (inner if hat else -inner)
        out.update(((t, s), c) for t, c in image.terms.items())
    return out


@cache
def _generator_words(n, hat):
    words = [{(s, s): 1 for s in range(1 << n)}]
    for m in range(1, 1 << n):
        low = m & -m
        # the lowest index of an ascending word is its leftmost factor
        words.append(sparse_product(_generator(n, low.bit_length(), hat), words[m ^ low]))
    return words


@pytest.fixture(scope="session")
def generator_words():
    """words(n, hat)[mask]: the ascending c (or, with hat, c-hat) word
    over ``mask`` as a {(target, source): +-1} map, the product of its
    generators, each built on every basis form from ``DiffForm.wedge``
    and ``DiffForm.interior``.  The reference for the closed-form word
    signs."""
    return _generator_words


def _fiber_matrix(x):
    """{(mask * r + a, mask * r + b): nonzero value} of a form-free
    WordOperator: each term's c word times its c-hat word, as products of
    generator maps, tensored with its bundle map."""
    n, r = x.n, x.r
    out = {}
    for (f, cm, hm), bundle in ScalarMaps.terms(x).items():
        assert not f, "the fiber matrix of form content is not defined"
        word = sparse_product(_generator_words(n, False)[cm], _generator_words(n, True)[hm])
        for (t, s), sign in word.items():
            for (a, b), v in bundle.items():
                key = (t * r + a, s * r + b)
                out[key] = out.get(key, 0) + sign * v
    return {key: v for key, v in out.items() if v}


@pytest.fixture(scope="session")
def fiber_matrix():
    """fiber_matrix(x): a form-free WordOperator as a sparse matrix on
    Lambda*(R^n) (x) C^r built from the generator words (oracle of its
    products, sums and traces)."""
    return _fiber_matrix


@pytest.fixture
def flipped_word_sign(monkeypatch):
    """The n = 7 c-word tables with the sign of c(e1)c(e2) on one basis
    form negated; of all word pairs only tr c(e1 e2) chat(e1 e2) changes."""
    tables = filtration.word_tables

    def flipped(n, hat):
        signs = tables(n, hat)
        if n == 7 and not hat:
            signs = signs.copy()
            signs[3, 5] = -signs[3, 5]
        return signs

    monkeypatch.setattr(filtration, "word_tables", flipped)


def _mat_trace(m):
    return sum((v for (a, b), v in m.items() if a == b), Scalar())


class ScalarMaps:
    """The WordOperator algebra on Scalar bundle maps {(row, col): Scalar},
    term by term, as sparse products and sums of Scalars: the oracle of
    the integer-plane products, sums, scalings and traces.  Each
    operation takes WordOperators and returns Scalar-map terms, a form or
    a Scalar."""

    @staticmethod
    def terms(x):
        """x's terms with each plane of numerators over ``x.den`` lifted to
        a Scalar on its own."""
        return {k: {ab: Scalar({pq: (Fraction(re, x.den), Fraction(im, x.den))
                                for pq, (re, im) in plane.items()})
                    for ab, plane in bundle.items()}
                for k, bundle in x.terms.items()}

    @staticmethod
    def add(x, y):
        out = ScalarMaps.terms(x)
        for k, m in ScalarMaps.terms(y).items():
            out[k] = add_maps(out[k], m) if k in out else m
        return {k: m for k, m in out.items() if m}

    @staticmethod
    def scale(x, s):
        s = Scalar.of(s)
        if s.is_zero():
            return {}
        return {k: {ab: s * v for ab, v in m.items()} for k, m in ScalarMaps.terms(x).items()}

    @staticmethod
    def mul(x, y):
        out = {}
        for (f1, c1, h1), m1 in ScalarMaps.terms(x).items():
            for (f2, c2, h2), m2 in ScalarMaps.terms(y).items():
                if f1 & f2:
                    continue
                sign = merge_sign(f1, f2)
                # move the h1 word through the c2 word
                if (popcount(h1) * popcount(c2)) & 1:
                    sign = -sign
                sc, cm = word_mul(c1, c2, -1)
                sh, hm = word_mul(h1, h2, +1)
                prod = sparse_product(m1, m2)
                if sign * sc * sh < 0:
                    prod = {ab: -v for ab, v in prod.items()}
                key = (f1 | f2, cm, hm)
                out[key] = add_maps(out[key], prod) if key in out else prod
        return {k: m for k, m in out.items() if m}

    @staticmethod
    def form_trace(x):
        out = {}
        weight = Scalar.of(1 << x.n)
        for (f, c, h), m in ScalarMaps.terms(x).items():
            if not (c or h):
                out[f] = out.get(f, Scalar()) + weight * _mat_trace(m)
        return DiffForm(x.n, out)

    @staticmethod
    def star_weighted_trace(w, x):
        table = star_ext_entries(w, range(1 << x.n))
        total = Scalar()
        for (f, c, h), m in ScalarMaps.terms(x).items():
            assert not f, "weighted traces require a form-free operator"
            acc = 0
            for s in range(1 << x.n):
                sign, t = apply_word(c, h, s)
                acc += sign * table.get((s, t), 0)
            total = total + Scalar.of(acc) * _mat_trace(m)
        return total


@pytest.fixture(scope="session")
def scalar_maps():
    """``ScalarMaps``: the word-operator algebra on Scalar bundle maps, the
    oracle of the integer-plane operations."""
    return ScalarMaps
