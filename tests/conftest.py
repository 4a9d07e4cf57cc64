from functools import cache

import pytest

from specasym import filtration
from specasym.exterior import DiffForm, FiberOp
from specasym.holonomy import standard_structure


@pytest.fixture(scope="session")
def g2():
    return standard_structure("g2")


@pytest.fixture(scope="session")
def spin7():
    return standard_structure("spin7")


@cache
def _generator_words(n, hat):
    gen = FiberOp.cliff_hat_op if hat else FiberOp.cliff_op
    words = [FiberOp.identity(n)]
    for m in range(1, 1 << n):
        low = m & -m
        # the lowest index of an ascending word is its leftmost factor
        words.append(gen(DiffForm(n, {low: 1})) @ words[m ^ low])
    return words


@pytest.fixture(scope="session")
def generator_words():
    """words(n, hat)[mask]: the ascending c (or, with hat, c-hat) word
    over ``mask`` as a product of ``FiberOp.cliff_op`` (``cliff_hat_op``)
    generators, each built from ``ext_op`` and its adjoint.  The
    reference for the closed-form word signs."""
    return _generator_words


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
