import csv
from fractions import Fraction
from functools import cache, reduce
from math import comb, exp, lcm, pi, sqrt
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
    def gamma_pole_factor(deg_w):
        """Gamma(deg_w/2 + 1) as a Scalar, by Gamma(x + 1) = x Gamma(x) down
        to Gamma(1) = 1 or Gamma(1/2) = sqrt(pi): the oracle of
        ``residue._GAMMA_POLE``."""
        x = Fraction(deg_w, 2) + 1
        value = Scalar.of(1) if x.denominator == 1 else Scalar.term(1, pi_half=1)
        while x > 1:
            x -= 1
            value = value * Scalar.of(x)
        return value

    @staticmethod
    def residue_value(s, integral):
        """(b, residue) of an integral: Scalar products and a division."""
        b = Scalar.pi_pow(-s.degree) * Scalar.of(integral)
        return b, b / FractionMaps.gamma_pole_factor(s.degree)

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


class LevelMaps:
    """Flat-torus levels as one record per level, ``(q, lattice count)``
    with q a Fraction, and the sums over them with the per-level formulas:
    multiplicities 7 c and big c (14 or 21), eigenvalue 4 pi^2 float(q)
    and the weights '7', 'big' and 'delta'.  The oracle of the integer
    columns of ``spectrum.Levels``."""

    BIG = {7: 14, 8: 21}

    @staticmethod
    def rows(levels):
        """The records of a ``Levels`` table, read off its columns."""
        return list(zip(levels.q, levels.counts))

    @staticmethod
    def eigenvalue(q):
        return 4.0 * pi * pi * float(q)

    @staticmethod
    def weight(n, c, which):
        m7, mbig = 7 * c, LevelMaps.BIG[n] * c
        if which == "7":
            return m7
        if which == "big":
            return mbig
        if which == "delta":
            return (2 if n == 7 else 3) * m7 - mbig
        raise ValueError("which must be '7', 'big' or 'delta'")

    @staticmethod
    def counting_functions(n, rows, x):
        if rows:
            top = max(LevelMaps.eigenvalue(q) for q, _ in rows)
            if x > top * (1 + 1e-12):
                raise ValueError(f"x = {x} beyond the enumerated range {top}")
        n7 = nbig = 0
        for q, c in rows:
            if LevelMaps.eigenvalue(q) <= x:
                n7 += LevelMaps.weight(n, c, "7")
                nbig += LevelMaps.weight(n, c, "big")
        return n7, nbig

    @staticmethod
    def zeta_partial(n, rows, which, s):
        if s <= n / 2:
            raise ValueError(f"s = {s} is in the divergent range (need s > {n/2})")
        if not rows:
            return 0.0, 0.0
        total = q_top = 0.0
        for q, c in rows:
            w = LevelMaps.weight(n, c, which)
            if w:
                q_top = max(q_top, float(q))
                total += w * LevelMaps.eigenvalue(q) ** (-s)
        fiber = LevelMaps.weight(n, 1, which)
        if not fiber:
            return total, 0.0
        u = sqrt(max(q_top, 1.0))
        return total, 2 * fiber * n * (4 * pi * pi) ** (-s) * sum(
            comb(n - 1, k) * 2 ** k * u ** (k + 1 - 2 * s) / (2 * s - k - 1) for k in range(n))

    @staticmethod
    def heat_trace(n, rows, zero_modes, t, weighted):
        """Every lattice point of the table weighted: the zero modes are the
        level q = 0 with count ``zero_modes``."""
        total = 0.0
        for q, c in [(Fraction(0), zero_modes)] + rows:
            w = (LevelMaps.weight(n, c, "delta") if weighted
                 else LevelMaps.weight(n, c, "7") + LevelMaps.weight(n, c, "big"))
            if w:
                total += w * exp(-t * LevelMaps.eigenvalue(q))
        return total

    @staticmethod
    def mellin_pairs(n, rows, which):
        return [(float(LevelMaps.weight(n, c, which)), LevelMaps.eigenvalue(q)) for q, c in rows]

    @staticmethod
    def write_csv(n, rows, path):
        """The csv.writer rendering of the table, one writerow per level."""
        n7 = nbig = 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["q", "lambda", "lattice_count", "mult_7", "mult_big", "N_7", "N_big"])
            for q, c in rows:
                m7, mbig = LevelMaps.weight(n, c, "7"), LevelMaps.weight(n, c, "big")
                n7 += m7
                nbig += mbig
                writer.writerow([str(q) if q.denominator == 1 else f"{float(q):.17g}",
                                 f"{LevelMaps.eigenvalue(q):.17g}", c, m7, mbig, n7, nbig])
        return n7, nbig


@pytest.fixture(scope="session")
def level_maps():
    """``LevelMaps``: per-level records and sums, the oracle of the integer
    columns of ``spectrum.Levels``."""
    return LevelMaps
