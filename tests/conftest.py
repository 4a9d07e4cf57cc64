from functools import cache

import pytest

from specasym import filtration
from specasym.exterior import DiffForm, sparse_product
from specasym.holonomy import standard_structure


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
    for (f, cm, hm), bundle in x.terms.items():
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
