"""Exact exterior algebra and Clifford-module operators on Lambda*(R^n).

Basis monomials e^I are indexed by bitmasks: bit ``k`` set means index
``k+1`` is present.  Forms and fiber operators are sparse maps keyed by
these masks; a fiber operator on Lambda*(R^n) (x) C^r indexes its basis as
mask * r + bundle index.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Tuple

from .exact import Scalar

# the zero every FiberOp.ext_op entry is summed from
_ZERO = Fraction(0)

# ----------------------------------------------------------------------
# bitmask utilities
# ----------------------------------------------------------------------

def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        b = 1 << (i - 1)
        if m & b:
            raise ValueError(f"repeated index {i}")
        m |= b
    return m


def indices_of(mask: int) -> Tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def popcount(mask: int) -> int:
    # int() accepts the numpy integer masks of the word tables
    return int(mask).bit_count()


def merge_sign(m1: int, m2: int) -> int:
    """(-1)^#{(a, b): a in m1, b in m2, a > b}, as +1 or -1.

    For disjoint masks this is the parity sign of sorting the
    concatenation (m1-ascending, m2-ascending).  Only strict pairs count,
    so overlapping masks are allowed: a shared index is no pair with
    itself.
    """
    # bit k of x is the parity of the indices of m2 below k: the prefix
    # XOR of m2 << 1, doubled 1, 2, 4, ... bits at a time up to m1's top
    # bit; the pairs (a, b) with a > b then number popcount(m1 & x) mod 2
    x = m2 << 1
    s, top = 1, m1.bit_length()
    while s < top:
        x ^= x << s
        s <<= 1
    return -1 if (m1 & x).bit_count() & 1 else 1


def hodge_sign(mask: int, n: int) -> int:
    """Sign in *(e^I) = sign * e^{I^c} with orientation e^{1..n}."""
    full = (1 << n) - 1
    return merge_sign(mask, full & ~mask)


# ----------------------------------------------------------------------
# differential forms
# ----------------------------------------------------------------------

class DiffForm:
    """Sparse exterior form on R^n: mask -> coefficient.

    Coefficients may be int/Fraction/Scalar (exact mode) or float/complex.
    Zero coefficients are never stored.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[int, object] = None):
        self.n = n
        self.terms = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = c

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int) -> "DiffForm":
        return DiffForm(n)

    @staticmethod
    def one(n: int) -> "DiffForm":
        return DiffForm(n, {0: Fraction(1)})

    @staticmethod
    def monomial(n: int, indices, coeff=1) -> "DiffForm":
        """coeff e^{i_1} ^ ... ^ e^{i_k} in the written order: indices out of
        ascending order carry the sign of the permutation that sorts them."""
        indices = tuple(indices)
        mask = mask_of(indices)
        inversions = sum(a > b for k, a in enumerate(indices) for b in indices[k + 1:])
        return DiffForm(n, {mask: -coeff if inversions & 1 else coeff})

    @staticmethod
    def dvol(n: int) -> "DiffForm":
        return DiffForm(n, {(1 << n) - 1: Fraction(1)})

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "DiffForm") -> "DiffForm":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return DiffForm(self.n, out)

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.n, {m: -c for m, c in self.terms.items()})

    def scale(self, a) -> "DiffForm":
        return DiffForm(self.n, {m: a * c for m, c in self.terms.items()})

    def __mul__(self, a):
        return self.scale(a)

    __rmul__ = __mul__

    # -- products ----------------------------------------------------------

    def wedge(self, other: "DiffForm") -> "DiffForm":
        self._check(other)
        out: Dict[int, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                c = c1 * c2
                if merge_sign(m1, m2) < 0:
                    c = -c
                prev = out.get(m)
                if prev is None:
                    out[m] = c
                else:
                    s = prev + c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return DiffForm(self.n, out)

    def hodge(self) -> "DiffForm":
        full = (1 << self.n) - 1
        out = {}
        for m, c in self.terms.items():
            s = hodge_sign(m, self.n)
            out[full & ~m] = c if s > 0 else -c
        return DiffForm(self.n, out)

    def interior(self, i: int) -> "DiffForm":
        """Contraction with the i-th orthonormal frame vector."""
        bit = 1 << (i - 1)
        out = {}
        for m, c in self.terms.items():
            if not (m & bit):
                continue
            sign = -1 if (popcount(m & (bit - 1)) & 1) else 1
            out[m & ~bit] = c if sign > 0 else -c
        return DiffForm(self.n, out)

    def top_pairing(self, other: "DiffForm"):
        """[self ^ other]_n, the dvol coefficient of the wedge.

        Only complementary masks reach the top degree, so this looks up the
        complement of each term of ``self`` in ``other`` and builds no wedge.
        """
        self._check(other)
        full = (1 << self.n) - 1
        theirs = other.terms
        tot = 0
        for m, c in self.terms.items():
            c2 = theirs.get(full ^ m)
            if c2 is not None:
                p = c * c2
                tot = tot + (p if hodge_sign(m, self.n) > 0 else -p)
        return tot

    def inner(self, other: "DiffForm"):
        """Orthonormal-frame pairing Sum_I a_I b_I (bilinear)."""
        self._check(other)
        tot = 0
        for m, c in self.terms.items():
            if m in other.terms:
                tot = tot + c * other.terms[m]
        return tot

    def norm_sq(self):
        """Sum_I |a_I|^2.  Rational coefficients are summed as integer
        numerators over their lcm, with the type of the term-by-term sum:
        an int for int coefficients (0 for the zero form), else a
        Fraction."""
        values = self.terms.values()
        if all(type(c) is int for c in values):
            return sum(c * c for c in values)
        if all(type(c) is int or type(c) is Fraction for c in values):
            den = lcm(*(c.denominator for c in values))
            return Fraction(sum((c.numerator * (den // c.denominator)) ** 2 for c in values),
                            den * den)
        tot = 0
        for c in self.terms.values():
            tot = tot + _conj(c) * c
        return tot

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        return sorted({popcount(m) for m in self.terms})

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError(f"mixed-degree form, degrees {degs}")
        return degs[0] if degs else 0

    def top_coefficient(self):
        """Coefficient of e^{1..n} (the dvol component)."""
        return self.terms.get((1 << self.n) - 1, 0)

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        if self.n != other.n:
            return False
        keys = set(self.terms) | set(other.terms)
        return not any(self.terms.get(k, 0) - other.terms.get(k, 0) for k in keys)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=indices_of):
            idx = "".join(str(i) for i in indices_of(m)) or "1"
            name = f"e{idx}" if m else "1"
            bits.append(f"({self.terms[m]})*{name}")
        return " + ".join(bits)

    def _check(self, other: "DiffForm"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")


def _conj(c):
    return c.conjugate() if isinstance(c, (Scalar, complex)) else c


_FORM_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<coeff>[0-9./]+)|(?P<star>\*)|e(?P<idx>[0-9]*)|(?P<bad>\S))"
)


def parse_form(n: int, text: str) -> DiffForm:
    """Parse expressions like ``3 e123 - e145 + 1/2 e67``.

    A term is an optional sign, an optional coefficient (digits, ``/`` and
    ``.``), an optional ``*`` and an optional monomial ``e`` with its
    indices as one digit run (valid because n <= 9); it needs a coefficient
    or a monomial.  Every term after the first starts with ``+`` or ``-``.
    Whitespace may separate tokens but never splits one, so ``e12 3``,
    ``1 2 e12`` and ``e12 e34`` are errors.  ``0`` parses to the zero form.
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty form expression")
    if stripped == "0":
        return DiffForm.zero(n)
    tokens = [(m.lastgroup, m.group(m.lastgroup)) for m in _FORM_TOKEN.finditer(text)]
    tokens.append(("end", None))
    pos = 0
    terms: Dict[int, object] = {}
    while tokens[pos][0] != "end":
        if pos and tokens[pos][0] != "sign":
            raise ValueError(f"expected '+' or '-' between terms in {text!r}")
        negative = False
        while tokens[pos][0] == "sign":
            negative ^= tokens[pos][1] == "-"
            pos += 1
        written = {}  # the optional coefficient, star and indices, in this order
        for kind in ("coeff", "star", "idx"):
            if tokens[pos][0] == kind:
                written[kind] = tokens[pos][1]
                pos += 1
        coeff_txt, idx_txt = written.get("coeff"), written.get("idx")
        if coeff_txt is None and idx_txt is None:
            raise ValueError(f"cannot parse {text!r}")
        if idx_txt == "":
            raise ValueError(f"missing indices after 'e' in {text!r}")
        idx = [int(ch) for ch in idx_txt or ""]
        if any(k < 1 or k > n for k in idx):
            raise ValueError(f"index out of range 1..{n} in {text!r}")
        try:
            coeff = Fraction(coeff_txt or 1)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad coefficient {coeff_txt!r} in {text!r}") from None
        # the mask, and the sign of the written order: one per inversion
        mask = 0
        for k in idx:
            if mask >> (k - 1) & 1:
                raise ValueError(f"repeated index {k}")
            negative ^= (mask >> k).bit_count() & 1
            mask |= 1 << (k - 1)
        c = -coeff if negative else coeff
        if mask in terms:
            c = terms[mask] + c
        terms[mask] = c
        if not c:
            del terms[mask]
    return DiffForm(n, terms)


# ----------------------------------------------------------------------
# Clifford words on basis subsets
# ----------------------------------------------------------------------

def apply_word(cmask: int, hmask: int, mask: int) -> Tuple[int, int]:
    """Apply c(omega^I) c-hat(omega^J) to e^mask (c-word leftmost).

    With c = e - e* and c-hat = e + e*, generator i sends e^S to
    +-e^{S ^ {i}}: the sign is (-1)^|S below i|, negated once more when
    c removes i.  A word acts from its highest index down, so the bits
    below each generator are those of the mask it was applied to, and
    the signs multiply to merge_sign(J, S) for the c-hat word on S and
    merge_sign(I, S ^ J) (-1)^|I & (S ^ J)| for the c word after it.
    """
    mid = mask ^ hmask
    sign = merge_sign(hmask, mask) * merge_sign(cmask, mid)
    return (-sign if popcount(cmask & mid) & 1 else sign), mid ^ cmask


def star_ext_entries(
    w: DiffForm, sources: Iterable[int], cdvol: bool = False
) -> Dict[Tuple[int, int], object]:
    """{(target, source): coeff} of e^S |-> *(w ^ e^S) for S in ``sources``.

    With ``cdvol`` the map is e^S |-> c(dvol)(w ^ e^S) instead.  Each term
    c e^K of w gives w ^ e^S its term merge_sign(K, S) c e^U, U = K | S,
    and both operators send e^U to a sign times e^{U^c}: hodge_sign(U) for
    *, the sign of apply_word(full, 0, U) for c(dvol).  The target U^c and
    the source S fix K, so each entry comes from one term of w.  The
    structure build, the weighted traces and the bridge check all read
    their signs here; the tests hold both tables to products of
    ``DiffForm.hodge``, ``DiffForm.wedge`` and generator maps built from
    ``DiffForm.wedge`` and ``DiffForm.interior``.
    """
    full = (1 << w.n) - 1
    out: Dict[Tuple[int, int], object] = {}
    for s in sources:
        for k, c in w.terms.items():
            if k & s:
                continue
            u = k | s
            sign = apply_word(full, 0, u)[0] if cdvol else hodge_sign(u, w.n)
            out[(full & ~u, s)] = c if sign * merge_sign(k, s) > 0 else -c
    return out


# a sparse bundle map on C^r, {(row, col): nonzero Scalar, int or Fraction}:
# the format of ``CurvatureData.f_entries`` and of the maps a
# ``wordops.WordOperator`` is built from
Mat = Dict[Tuple[int, int], Scalar]


def sparse_product(x: Dict[Tuple[int, int], object], y: Dict[Tuple[int, int], object]):
    """The matrix product of two sparse maps {(row, col): value}, as the
    same kind of map: {(i, j): sum_k x[i, k] y[k, j]}.  Each sum starts
    from its first product, so values keep the type of the factors, and
    entries that cancel to zero are dropped."""
    cols: Dict[int, list] = {}
    for (k, j), b in y.items():
        cols.setdefault(k, []).append((j, b))
    out: Dict[Tuple[int, int], object] = {}
    for (i, k), a in x.items():
        for j, b in cols.get(k, ()):
            prev = out.get((i, j))
            out[(i, j)] = a * b if prev is None else prev + a * b
    return {key: v for key, v in out.items() if v}


# ----------------------------------------------------------------------
# sparse fiber operators
# ----------------------------------------------------------------------

class FiberOp:
    """Sparse endomorphism of Lambda*(R^n) (x) C^r.

    ``entries`` maps (row, col) to a nonzero coefficient, where an index
    is basis mask * r + bundle index; at r = 1 the keys are those of
    ``star_ext_entries``.  Only the exterior product ``ext_op``, its
    ``adjoint`` and ``==`` are defined: the word expansion of
    ``filtration`` reads and returns these maps, and the tests build
    their oracles of the ``star_ext_entries`` tables with ``ext_op``.
    ``ext_op`` sums each entry from ``Fraction(0)``, so an integer
    coefficient gives a Fraction entry.
    """

    __slots__ = ("n", "r", "entries")

    def __init__(self, n: int, r: int, entries: Dict[Tuple[int, int], object]):
        self.n = n
        self.r = r
        dim = (1 << n) * r
        self.entries = {}
        for (i, j), v in entries.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"entry index {(i, j)} outside 0..{dim - 1}")
            if v:
                self.entries[(i, j)] = v

    @staticmethod
    def ext_op(w: DiffForm, r: int = 1) -> "FiberOp":
        """Left exterior multiplication by w, tensored with Id on C^r."""
        out: Dict[Tuple[int, int], object] = {}
        for k_mask, c in w.terms.items():
            for s in range(1 << w.n):
                if s & k_mask:
                    continue
                # distinct terms of w send s to distinct targets k | s
                v = _ZERO + (c if merge_sign(k_mask, s) > 0 else -c)
                for a in range(r):
                    out[((k_mask | s) * r + a, s * r + a)] = v
        return FiberOp(w.n, r, out)

    def adjoint(self) -> "FiberOp":
        return FiberOp(self.n, self.r, {
            (j, i): v if type(v) is Fraction else _conj(v)
            for (i, j), v in self.entries.items()
        })

    def __eq__(self, other):
        if not isinstance(other, FiberOp):
            return NotImplemented
        return self.n == other.n and self.r == other.r and self.entries == other.entries
