from fractions import Fraction
from functools import cache, reduce
from math import lcm
from operator import mul

import pytest

from specasym import filtration
from specasym.exact import Scalar
from specasym.exterior import (
    DiffForm,
    apply_word,
    mask_of,
    merge_sign,
    popcount,
    sparse_product,
    star_ext_entries,
)
from specasym.heat import (
    TRACE_NORMALISATION,
    _DET_WEIGHT,
    gaussian_prefactor,
    wick_terms,
)
from specasym.holonomy import standard_structure
from specasym.residue import _pair_sum
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


class FractionMaps:
    """The Chern-Weil sums, the model traces, the residue density and the
    two weighted densities on Fraction maps, summed and lifted term by
    term: the oracle of the integer Chern-Weil layer.  Each operation
    reads a CurvatureData's rational views (``r_rows``) or its planes."""

    @staticmethod
    def p1(cd):
        """pi^2 p1 from the rational rows of R."""
        rows = cd.r_rows
        den = lcm(*(v.denominator for row in rows.values() for _, v in row))
        acc = {}
        for row in rows.values():
            _pair_sum([(mask_of(kl), v.numerator * (den // v.denominator)) for kl, v in row],
                      mul, acc)
        return {m: Fraction(x, 4 * den * den) for m, x in acc.items()}

    @staticmethod
    def chern(r, den, f_planes):
        """(pi c1, pi^2 c2, pi^2 (c1^2 - c2)) as Fraction maps from the
        rank-r numerator planes over ``den``."""
        scale = 8 * den ** 2
        planes = sorted(f_planes.items())
        trace = [(m, sum(im[::r + 1])) for m, (_, im) in planes]

        def dot(x, y):
            return sum(map(mul, x, y))

        a = _pair_sum(trace, lambda t1, t2: -t1 * t2, {})
        b = _pair_sum(planes, lambda f1, f2: -dot(f1[0], f2[0]) - dot(f1[1], f2[1]), {})
        c1 = {m: Fraction(-t, 2 * den) for m, t in trace}
        c2 = {m: Fraction(b.get(m, 0) - a.get(m, 0), scale) for m in a.keys() | b.keys()}
        return c1, c2, {m: Fraction(-a.get(m, 0) - b.get(m, 0), scale) for m in c2}

    @staticmethod
    def model_traces(cd):
        """(tr Q, tr V, tr V^2) with Fraction and imaginary Scalar
        coefficients."""
        n, fiber = cd.n, 1 << cd.n
        p1 = FractionMaps.p1(cd)
        c1, c2, e = FractionMaps.chern(cd.r, cd.f_den, cd.f_planes)
        return (
            DiffForm(n, {m: -x / 2 for m, x in p1.items()}),
            DiffForm(n, {m: Scalar.i(fiber * x) for m, x in c1.items()}),
            DiffForm(n, {m: fiber * (-4 * cd.r * p1.get(m, 0) + c2.get(m, 0) - e.get(m, 0))
                         for m in p1.keys() | c2.keys()}),
        )

    @staticmethod
    def lift_traces(traces):
        """``heat.model_traces`` (den, tr Q, tr V, tr V^2) in the format of
        ``model_traces`` here."""
        den, tr_q, tr_v, tr_v2 = traces
        return (tr_q.scale(Fraction(1, den)), tr_v.scale(Scalar.i(Fraction(1, den))),
                tr_v2.scale(Fraction(1, den)))

    @staticmethod
    def residue_density(s, cd):
        """w ^ pi^2 ((1/3) p1 + c1^2 - c2) paired on Fraction coefficients,
        times pi^-2."""
        p1 = FractionMaps.p1(cd)
        bundle = FractionMaps.chern(cd.r, cd.f_den, cd.f_planes)[2]
        coefficients = {m: Fraction(p1.get(m, 0), 3) + bundle.get(m, 0)
                        for m in p1.keys() | bundle.keys()}
        top = s.defining_form.top_pairing(DiffForm(s.n, coefficients))
        return DiffForm(s.n, {(1 << s.n) - 1: Scalar.term(top, pi_half=-4)})

    @staticmethod
    def residue_value(s, integral):
        """(b, residue) of an integral: Scalar products and a division."""
        from specasym.residue import gamma_pole_factor

        b = Scalar.pi_pow(-s.degree) * Scalar.of(integral)
        return b, b / gamma_pole_factor(s.degree)

    @staticmethod
    def mehler_density(s, cd):
        tr_q, _, tr_v2 = FractionMaps.model_traces(cd)
        w = s.defining_form
        pairing = (_DET_WEIGHT * cd.r * (1 << cd.n) * w.top_pairing(tr_q)
                   + Fraction(1, 2) * w.top_pairing(tr_v2))
        return TRACE_NORMALISATION * gaussian_prefactor(cd.n) * Scalar.t_pow(4, pairing)

    @staticmethod
    def duhamel_density(s, cd):
        tr_q, tr_v, tr_v2 = FractionMaps.model_traces(cd)
        const = (tr_v, tr_v2)
        w, fiber = s.defining_form, (1 << cd.n) * cd.r
        total = Scalar()
        for coef, half, products in wick_terms(cd.n, const, None, tr_q):
            coef = Scalar.term(coef, t_half=half)
            for ops in products:
                forms = [x for x in ops if x is not const]
                k = len(ops) - len(forms)
                if k:
                    forms.insert(0, const[k - 1])
                form = reduce(DiffForm.wedge, forms) if forms else DiffForm.one(cd.n)
                total = total + (coef if k else coef * fiber) * w.top_pairing(form)
        return TRACE_NORMALISATION * gaussian_prefactor(cd.n) * total


@pytest.fixture(scope="session")
def fraction_maps():
    """``FractionMaps``: the Chern-Weil sums, model traces and densities on
    Fraction maps, the oracle of the integer Chern-Weil layer."""
    return FractionMaps
