"""Sparse operator algebra Lambda^even (x) Cl(c) (x) Cl(c-hat) (x) End(C^r).

Elements are finite sums of terms ``form-monomial * c-word * chat-word``
with bundle maps as coefficients.  A ``WordOperator`` stores one positive
denominator ``den`` and its terms ``{(form, c-word, chat-word): bundle}``.
A bundle is a sparse r x r map ``{(row, col): plane}``, and a plane is
``{(pi_half, t_half): (re, im)}`` of Gaussian-integer numerators: the
entry is the sum of (re + im*i) pi^(pi_half/2) t^(t_half/2) / den, the
``Scalar`` format over the operator's one denominator.  Products, sums
and scalings multiply and add Python ints; one gcd then takes the common
factor out of ``den`` and every numerator, so equal operators have equal
denominators and terms, and ``==`` is map equality.  No zero pair, empty
plane or empty bundle is stored.  ``form_trace`` and
``star_weighted_trace`` lift to ``Scalar`` once, at the end, and the
constructor takes bundle maps of Scalar, int or Fraction values
(``exterior.Mat``, the format of ``CurvatureData.f_entries``).

The commuting form slot carries the even-degree differential-form
bookkeeping of the heat kernel pipelines; the two word slots carry the
Clifford content.  Words are bitmasks; c-generators square to -1, c-hat
generators to +1, and the two families anticommute.  Every word sign is
a closed form over ``merge_sign``: ``word_mul`` for a product of words,
``apply_word`` for a word acting on a basis form.  The tests hold both
to products of generator maps built from ``DiffForm.wedge`` and
``DiffForm.interior``, and the products, sums and traces to the same
operations on Scalar bundle maps.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Dict, Tuple

from .exact import Scalar
from .exterior import (
    DiffForm,
    Mat,
    apply_word,
    indices_of,
    merge_sign,
    popcount,
    star_ext_entries,
)

# Gaussian-integer numerators of one bundle entry, and a bundle of them
Plane = Dict[Tuple[int, int], Tuple[int, int]]
Bundle = Dict[Tuple[int, int], Plane]
Key = Tuple[int, int, int]

# ----------------------------------------------------------------------
# bundle maps
# ----------------------------------------------------------------------


def eye(r: int, c=1) -> Mat:
    """c times the identity of C^r as a bundle map (c nonzero)."""
    c = Scalar.of(c)
    return {(a, a): c for a in range(r)}


def add_maps(x: Mat, y: Mat) -> Mat:
    """The sum of two bundle maps; entries that cancel are dropped."""
    out = dict(x)
    for key, v in y.items():
        s = out[key] + v if key in out else v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _integer_terms(terms: Dict[Key, Mat]) -> Tuple[int, Dict[Key, Bundle]]:
    """(den, bundles): Scalar, int or Fraction bundle maps as planes over
    the least common denominator of every rational part, which leaves no
    common factor.  Zero values and empty maps are dropped."""
    scalars = {k: {ab: Scalar.of(v) for ab, v in m.items()} for k, m in terms.items()}
    den = lcm(1, *(x.denominator for m in scalars.values() for s in m.values()
                   for pair in s.terms.values() for x in pair))
    out = {}
    for k, m in scalars.items():
        bundle = {}
        for ab, s in m.items():
            plane = {pq: (re.numerator * (den // re.denominator),
                          im.numerator * (den // im.denominator))
                     for pq, (re, im) in s.terms.items() if re or im}
            if plane:
                bundle[ab] = plane
        if bundle:
            out[k] = bundle
    return den, out


def _lift(plane: Plane, den) -> Scalar:
    """The Scalar of numerators ``plane`` over ``den``."""
    return Scalar({pq: (Fraction(re, den), Fraction(im, den)) for pq, (re, im) in plane.items()})


# the plane of 1: ``_add_product(acc, x, _UNIT, s)`` adds s * x to acc
_UNIT: Plane = {(0, 0): (1, 0)}


def _add_product(acc: Plane, x: Plane, y: Plane, scale: int) -> None:
    """acc += scale * x * y in place for a nonzero ``scale``, on
    Gaussian-integer numerators: the one product kernel of the operator
    algebra.  Pairs that cancel are deleted, and a new pair is a product
    of nonzero Gaussian integers, so acc keeps no zero pair."""
    for (p1, q1), (a1, b1) in x.items():
        for (p2, q2), (a2, b2) in y.items():
            pq = (p1 + p2, q1 + q2)
            re = scale * (a1 * a2 - b1 * b2)
            im = scale * (a1 * b2 + b1 * a2)
            prev = acc.get(pq)
            if prev is not None:
                re, im = prev[0] + re, prev[1] + im
                if not (re or im):
                    del acc[pq]
                    continue
            acc[pq] = (re, im)


def _diagonal(bundle: Bundle):
    """The planes of the diagonal entries of a bundle."""
    return [plane for (a, b), plane in bundle.items() if a == b]


def _scaled(bundle: Bundle, s: int) -> Bundle:
    """A copy of ``bundle`` with every numerator times s."""
    return {ab: {pq: (s * re, s * im) for pq, (re, im) in plane.items()}
            for ab, plane in bundle.items()}


# ----------------------------------------------------------------------
# word products
# ----------------------------------------------------------------------

def word_mul(m1: int, m2: int, square_sign: int) -> Tuple[int, int]:
    """Product of two ascending generator words with the given square rule.

    Each generator of m2, taken in ascending order, moves left past the
    generators of m1 above it (merge_sign(m1, m2)) and squares to
    ``square_sign`` with its twin in m1, if any.  Returns (sign,
    symmetric-difference mask).
    """
    sign = merge_sign(m1, m2)
    if square_sign < 0 and popcount(m1 & m2) & 1:
        sign = -sign
    return sign, m1 ^ m2


class WordOperator:
    """Sparse element of the form/word/bundle algebra on integer planes
    over one denominator (module docstring)."""

    __slots__ = ("n", "r", "den", "terms")

    def __init__(self, n: int, r: int = 1, terms: Dict[Key, Mat] = None):
        self.n = n
        self.r = r
        self.den, self.terms = _integer_terms(terms or {})

    @staticmethod
    def _reduced(n: int, r: int, den: int, terms: Dict[Key, Bundle]) -> "WordOperator":
        """The operator of numerators ``terms`` over ``den``, with the gcd of
        ``den`` and every numerator divided out.  ``terms`` holds no zero
        pair, empty plane or empty bundle, and the result owns it."""
        g = den if terms else 1
        if g != 1:
            for x in (x for bundle in terms.values() for plane in bundle.values()
                      for pair in plane.values() for x in pair):
                g = gcd(g, x)
                if g == 1:
                    break
            else:
                terms = {k: {ab: {pq: (re // g, im // g) for pq, (re, im) in plane.items()}
                             for ab, plane in bundle.items()} for k, bundle in terms.items()}
        out = WordOperator.__new__(WordOperator)
        out.n, out.r, out.den, out.terms = n, r, den // g if terms else 1, terms
        return out

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(n: int, r: int = 1) -> "WordOperator":
        return WordOperator(n, r)

    @staticmethod
    def identity(n: int, r: int = 1) -> "WordOperator":
        return WordOperator(n, r, {(0, 0, 0): eye(r)})

    @staticmethod
    def from_form(w: DiffForm, r: int = 1) -> "WordOperator":
        """Embed an even form as a commuting coefficient times 1_r."""
        if any(popcount(m) % 2 for m in w.terms):
            raise ValueError("form slot is restricted to even-degree forms")
        return WordOperator(w.n, r, {(m, 0, 0): eye(r, c) for m, c in w.terms.items()})

    @staticmethod
    def from_word(n: int, cmask: int, hmask: int, r: int = 1) -> "WordOperator":
        return WordOperator(n, r, {(0, cmask, hmask): eye(r)})

    @staticmethod
    def ext_gen(n: int, i: int, r: int = 1) -> "WordOperator":
        """e(omega^i) = (c + c-hat)/2 as a word element."""
        half = Fraction(1, 2)
        return WordOperator(n, r, {
            (0, 1 << (i - 1), 0): eye(r, half),
            (0, 0, 1 << (i - 1)): eye(r, half),
        })

    @staticmethod
    def int_gen(n: int, i: int, r: int = 1) -> "WordOperator":
        """e*(omega^i) = (c-hat - c)/2 as a word element."""
        half = Fraction(1, 2)
        return WordOperator(n, r, {
            (0, 1 << (i - 1), 0): eye(r, -half),
            (0, 0, 1 << (i - 1)): eye(r, half),
        })

    # -- linear structure ---------------------------------------------------

    def _check(self, other: "WordOperator"):
        if self.n != other.n or self.r != other.r:
            raise ValueError("word operator shape mismatch")

    def __add__(self, other: "WordOperator") -> "WordOperator":
        self._check(other)
        d1, d2 = self.den, other.den
        den = d1 if d1 == d2 else lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        # bundles of self are shared until a key of other meets them
        out = dict(self.terms) if s1 == 1 else {k: _scaled(b, s1) for k, b in self.terms.items()}
        for k, bundle in other.terms.items():
            acc = out.get(k)
            if acc is None:
                out[k] = bundle if s2 == 1 else _scaled(bundle, s2)
                continue
            if s1 == 1:
                acc = out[k] = _scaled(acc, 1)
            for ab, plane in bundle.items():
                mine = acc.setdefault(ab, {})
                _add_product(mine, plane, _UNIT, s2)
                if not mine:
                    del acc[ab]
            if not acc:
                del out[k]
        return WordOperator._reduced(self.n, self.r, den, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s) -> "WordOperator":
        den, terms = _integer_terms({(0, 0, 0): {(0, 0): s}})
        if not terms:
            return WordOperator(self.n, self.r)
        factor = terms[(0, 0, 0)][(0, 0)]
        out = {}
        for k, bundle in self.terms.items():
            out[k] = new = {}
            for ab, plane in bundle.items():
                new[ab] = acc = {}
                _add_product(acc, plane, factor, 1)
        return WordOperator._reduced(self.n, self.r, self.den * den, out)

    def __mul__(self, other):
        if isinstance(other, WordOperator):
            return self._mul_op(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _mul_op(self, other: "WordOperator") -> "WordOperator":
        self._check(other)
        # the bundles of other by row: {k: [(col, plane)]}
        rows = []
        for key, bundle in other.terms.items():
            by_row: Dict[int, list] = {}
            for (k, j), plane in bundle.items():
                by_row.setdefault(k, []).append((j, plane))
            rows.append((key, by_row))
        out: Dict[Key, Bundle] = {}
        for (f1, c1, h1), m1 in self.terms.items():
            odd_h1 = popcount(h1) & 1
            for (f2, c2, h2), by_row in rows:
                if f1 & f2:
                    continue
                sign = merge_sign(f1, f2)
                # move the h1 word through the c2 word
                if odd_h1 and popcount(c2) & 1:
                    sign = -sign
                sc, cm = word_mul(c1, c2, -1)
                sh, hm = word_mul(h1, h2, +1)
                sign *= sc * sh
                key = (f1 | f2, cm, hm)
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = {}
                for (i, k), x in m1.items():
                    for j, y in by_row.get(k, ()):
                        plane = acc.get((i, j))
                        if plane is None:
                            plane = acc[(i, j)] = {}
                        _add_product(plane, x, y, sign)
                        if not plane:
                            del acc[(i, j)]
        terms = {k: bundle for k, bundle in out.items() if bundle}
        return WordOperator._reduced(self.n, self.r, self.den * other.den, terms)

    def exp_nilpotent(self) -> "WordOperator":
        """exp of an element whose every term carries positive form degree."""
        if any(f == 0 for (f, _, _) in self.terms):
            raise ValueError("exponent must have strictly positive form degree")
        out = WordOperator.identity(self.n, self.r)
        power = WordOperator.identity(self.n, self.r)
        k = 0
        while True:
            k += 1
            power = power * self
            if not power.terms:
                break
            out = out + power.scale(Fraction(1, factorial(k)))
        return out

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, WordOperator):
            return NotImplemented
        # the stored form is canonical (one reduced denominator, no zeros)
        return (self.n == other.n and self.r == other.r and self.den == other.den
                and self.terms == other.terms)

    def form_trace(self) -> DiffForm:
        """Trace over Lambda* (x) C^r of the word slots, keeping the form slot.

        Words with any generator are traceless; the empty word contributes
        2^n.  The traces are summed on the numerators, and each form
        coefficient is lifted to a Scalar at the end.
        """
        sums: Dict[int, Plane] = {}
        for (f, c, h), bundle in self.terms.items():
            if not (c or h):
                acc = sums.setdefault(f, {})
                for plane in _diagonal(bundle):
                    _add_product(acc, plane, _UNIT, 1 << self.n)
        return DiffForm(self.n, {f: _lift(plane, self.den) for f, plane in sums.items() if plane})

    def __repr__(self):
        bits = []
        for (f, c, h) in sorted(self.terms):
            name = []
            if f:
                name.append("e" + "".join(map(str, indices_of(f))))
            if c:
                name.append("c" + "".join(map(str, indices_of(c))))
            if h:
                name.append("ch" + "".join(map(str, indices_of(h))))
            label = ".".join(name) or "1"
            if self.r == 1:
                bits.append(f"({_lift(self.terms[(f, c, h)][0, 0], self.den)})*{label}")
            else:
                bits.append(f"[{self.r}x{self.r}]*{label}")
        return " + ".join(bits) if bits else "0"


# ----------------------------------------------------------------------
# exact weighted traces over Lambda* (x) C^r
# ----------------------------------------------------------------------

def star_weighted_trace(w: DiffForm, x: WordOperator) -> Scalar:
    """tr[ * e(w) x ] with x purely in the word slots (no form content).

    Each word sends e^s to sign_x(s) e^{t(s)}, so tr[W x] is the sum of
    sign_x(s) W[s, t(s)] times the trace of the bundle matrix.  The sum
    runs on x's numerators and is lifted to a Scalar at the end."""
    if w.n != x.n:
        raise ValueError("dimension mismatch")
    table = star_ext_entries(w, range(1 << x.n))
    total: Plane = {}
    for (f, c, h), bundle in x.terms.items():
        if f:
            raise ValueError("weighted traces require a form-free operator")
        acc = 0
        for s in range(1 << x.n):
            sign, t = apply_word(c, h, s)
            v = table.get((s, t))
            if v is not None:
                acc = acc + sign * v
        if acc:
            for plane in _diagonal(bundle):
                _add_product(total, plane, _UNIT, acc)
    return _lift(total, x.den)
