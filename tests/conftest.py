import pytest

from specasym import filtration
from specasym.holonomy import standard_structure


@pytest.fixture(scope="session")
def g2():
    return standard_structure("g2")


@pytest.fixture(scope="session")
def spin7():
    return standard_structure("spin7")


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
