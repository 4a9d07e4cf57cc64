"""Sparse operator algebra Lambda^even (x) Cl(c) (x) Cl(c-hat) (x) End(C^r).

Elements are finite sums of terms ``form-monomial * c-word * chat-word``
with bundle maps as coefficients: an r x r matrix as a sparse
``{(row, col): nonzero Scalar}`` map (``Mat``), the format of
``star_ext_entries``.  Bundle products are ``exterior.sparse_product``,
sums are ``add_maps``, and no zero value or empty map is stored.  The
commuting form slot carries the even-degree differential-form
bookkeeping of the heat kernel pipelines; the two word slots carry the
Clifford content.  Words are bitmasks; c-generators square to -1, c-hat
generators to +1, and the two families anticommute.  Every word sign is
a closed form over ``merge_sign``: ``word_mul`` for a product of words,
``apply_word`` for a word acting on a basis form.  The tests hold both
to products of generator maps built from ``DiffForm.wedge`` and
``DiffForm.interior``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, Tuple

from .exact import Scalar
from .exterior import (
    DiffForm,
    apply_word,
    indices_of,
    merge_sign,
    popcount,
    sparse_product,
    star_ext_entries,
)

# ----------------------------------------------------------------------
# bundle maps
# ----------------------------------------------------------------------

Mat = Dict[Tuple[int, int], Scalar]


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


def _trace(m: Mat) -> Scalar:
    return sum((v for (a, b), v in m.items() if a == b), Scalar())


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
    """Sparse element of the form/word/bundle algebra."""

    __slots__ = ("n", "r", "terms")

    def __init__(self, n: int, r: int = 1, terms: Dict[Tuple[int, int, int], Mat] = None):
        self.n = n
        self.r = r
        self.terms = {}
        for k, m in (terms or {}).items():
            m = {ab: v for ab, v in m.items() if v}
            if m:
                self.terms[k] = m

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
        out = dict(self.terms)
        for k, m in other.terms.items():
            out[k] = add_maps(out[k], m) if k in out else m
        return WordOperator(self.n, self.r, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s) -> "WordOperator":
        s = Scalar.of(s)
        if s.is_zero():
            return WordOperator(self.n, self.r)
        return WordOperator(self.n, self.r, {
            k: {ab: s * v for ab, v in m.items()} for k, m in self.terms.items()
        })

    def __mul__(self, other):
        if isinstance(other, WordOperator):
            return self._mul_op(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _mul_op(self, other: "WordOperator") -> "WordOperator":
        self._check(other)
        out: Dict[Tuple[int, int, int], Mat] = {}
        for (f1, c1, h1), m1 in self.terms.items():
            for (f2, c2, h2), m2 in other.terms.items():
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
        return WordOperator(self.n, self.r, out)

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
        # no zero value or empty map is stored, so equal operators have equal terms
        return self.n == other.n and self.r == other.r and self.terms == other.terms

    def form_trace(self) -> DiffForm:
        """Trace over Lambda* (x) C^r of the word slots, keeping the form slot.

        Words with any generator are traceless; the empty word contributes
        2^n.  Returns an even form with Scalar coefficients.
        """
        out: Dict[int, Scalar] = {}
        weight = Scalar.of(1 << self.n)
        for (f, c, h), m in self.terms.items():
            if c or h:
                continue
            val = weight * _trace(m)
            if not val.is_zero():
                acc = out.get(f, Scalar()) + val
                if acc.is_zero():
                    out.pop(f, None)
                else:
                    out[f] = acc
        return DiffForm(self.n, out)

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
                bits.append(f"({self.terms[(f,c,h)][0, 0]})*{label}")
            else:
                bits.append(f"[{self.r}x{self.r}]*{label}")
        return " + ".join(bits) if bits else "0"


# ----------------------------------------------------------------------
# exact weighted traces over Lambda* (x) C^r
# ----------------------------------------------------------------------

def star_weighted_trace(w: DiffForm, x: WordOperator) -> Scalar:
    """tr[ * e(w) x ] with x purely in the word slots (no form content).

    Each word sends e^s to sign_x(s) e^{t(s)}, so tr[W x] is the sum of
    sign_x(s) W[s, t(s)] times the trace of the bundle matrix."""
    if w.n != x.n:
        raise ValueError("dimension mismatch")
    table = star_ext_entries(w, range(1 << x.n))
    total = Scalar()
    for (f, c, h), m in x.terms.items():
        if f:
            raise ValueError("weighted traces require a form-free operator")
        tr_e = _trace(m)
        if tr_e.is_zero():
            continue
        acc = 0
        for s in range(1 << x.n):
            sign, t = apply_word(c, h, s)
            v = table.get((s, t))
            if v is not None:
                acc = acc + sign * v
        total = total + Scalar.of(acc) * tr_e
    return total

