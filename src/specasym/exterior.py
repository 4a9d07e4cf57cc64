"""Exact exterior algebra and Clifford-module operators on Lambda*(R^n).

Basis monomials e^I are indexed by bitmasks: bit ``k`` set means index
``k+1`` is present.  The fiber operator basis orders subsets of {1..n}
lexicographically by their sorted index tuple, tensored with the standard
C^r basis, so matrices are reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Tuple

import numpy as np

from .exact import Scalar

# the zero every FiberOp starts from; sharing one object lets list
# comparison skip untouched entries by identity
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
    """Parity sign of sorting the concatenation (m1-ascending, m2-ascending).

    Zero overlap is assumed; returns +1 or -1.
    """
    sign = 1
    m = m2
    while m:
        b = m & -m
        # elements of m1 strictly greater than this index
        if popcount(m1 & ~(b | (b - 1))) & 1:
            sign = -sign
        m &= m - 1
    return sign


def hodge_sign(mask: int, n: int) -> int:
    """Sign in *(e^I) = sign * e^{I^c} with orientation e^{1..n}."""
    full = (1 << n) - 1
    return merge_sign(mask, full & ~mask)


@lru_cache(maxsize=None)
def subset_order(n: int) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """Masks of all subsets of {1..n} sorted lexicographically by index tuple.

    Returns (masks_in_order, mask -> position).
    """
    masks = sorted(range(1 << n), key=indices_of)
    return tuple(masks), {m: i for i, m in enumerate(masks)}


# ----------------------------------------------------------------------
# multi-indices
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MultiIndex:
    """Strictly increasing index subset of {1..n}."""

    indices: Tuple[int, ...]
    n: int

    def __post_init__(self):
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError(f"indices must be strictly increasing: {self.indices}")
        if self.indices and (self.indices[0] < 1 or self.indices[-1] > self.n):
            raise ValueError(f"indices out of range 1..{self.n}: {self.indices}")

    @property
    def mask(self) -> int:
        return mask_of(self.indices)

    def complement(self) -> "MultiIndex":
        full = (1 << self.n) - 1
        return MultiIndex(indices_of(full & ~self.mask), self.n)

    def complement_sign(self) -> int:
        """Parity of the permutation (I, I^c) relative to (1..n)."""
        return hodge_sign(self.mask, self.n)

    def __len__(self):
        return len(self.indices)


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
                if _nonzero(c):
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
        return DiffForm(n, {mask_of(indices): coeff})

    @staticmethod
    def dvol(n: int) -> "DiffForm":
        return DiffForm(n, {(1 << n) - 1: Fraction(1)})

    def copy(self) -> "DiffForm":
        return DiffForm(self.n, dict(self.terms))

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "DiffForm") -> "DiffForm":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if _nonzero(s):
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
                s = out.get(m, 0) + c
                if _nonzero(s):
                    out[m] = s
                else:
                    out.pop(m, None)
        return DiffForm(self.n, out)

    def __xor__(self, other):
        return self.wedge(other)

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

    def map_coefficients(self, f) -> "DiffForm":
        return DiffForm(self.n, {m: f(c) for m, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        if self.n != other.n:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(not _nonzero(self.terms.get(k, 0) - other.terms.get(k, 0)) for k in keys)

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


def _nonzero(c) -> bool:
    if isinstance(c, Scalar):
        return bool(c)
    return c != 0


def _conj(c):
    if isinstance(c, Scalar):
        return c.conjugate()
    return c.conjugate() if isinstance(c, complex) else c


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
    pos = 0

    def take(kind: str):
        nonlocal pos
        if pos < len(tokens) and tokens[pos][0] == kind:
            pos += 1
            return tokens[pos - 1][1]
        return None

    out = DiffForm.zero(n)
    while pos < len(tokens):
        if pos and tokens[pos][0] != "sign":
            raise ValueError(f"expected '+' or '-' between terms in {text!r}")
        sign = 1
        while (op := take("sign")) is not None:
            if op == "-":
                sign = -sign
        coeff_txt = take("coeff")
        take("star")
        idx_txt = take("idx")
        if coeff_txt is None and idx_txt is None:
            raise ValueError(f"cannot parse {text!r}")
        if idx_txt == "":
            raise ValueError(f"missing indices after 'e' in {text!r}")
        idx = [int(ch) for ch in idx_txt or ""]
        if any(k < 1 or k > n for k in idx):
            raise ValueError(f"index out of range 1..{n} in {text!r}")
        try:
            coeff = Fraction(coeff_txt) if coeff_txt is not None else Fraction(1)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad coefficient {coeff_txt!r} in {text!r}") from None
        out = out + DiffForm.monomial(n, idx, sign * coeff)
    return out


# ----------------------------------------------------------------------
# elementary Clifford-module actions on basis subsets
# ----------------------------------------------------------------------

def apply_cliff(i: int, mask: int, hat: bool) -> Tuple[int, int]:
    """c(omega^i) or (with hat=True) c-hat(omega^i) on e^mask.

    Both are signed permutations of the subset basis.
    """
    bit = 1 << (i - 1)
    sign = -1 if (popcount(mask & (bit - 1)) & 1) else 1
    if mask & bit:
        # interior part: c uses -e*, c-hat uses +e*
        if not hat:
            sign = -sign
        return sign, mask & ~bit
    return sign, mask | bit


def apply_word(cmask: int, hmask: int, mask: int) -> Tuple[int, int]:
    """Apply c(omega^I) c-hat(omega^J) to e^mask (c-word leftmost)."""
    sign = 1
    for i in reversed(indices_of(hmask)):
        s, mask = apply_cliff(i, mask, True)
        sign *= s
    for i in reversed(indices_of(cmask)):
        s, mask = apply_cliff(i, mask, False)
        sign *= s
    return sign, mask


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
    their signs here; the dense ``FiberOp`` products are the oracle.
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


# ----------------------------------------------------------------------
# dense fiber operators
# ----------------------------------------------------------------------

class FiberOp:
    """Dense endomorphism of Lambda*(R^n) (x) C^r.

    Basis: subsets in tuple-lex order tensor the standard C^r basis;
    entry index = subset_position * r + bundle_index.
    """

    __slots__ = ("n", "r", "mat")

    def __init__(self, n: int, r: int, mat: np.ndarray):
        self.n = n
        self.r = r
        dim = (1 << n) * r
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} != {(dim, dim)}")
        self.mat = mat

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zeros(n: int, r: int = 1) -> "FiberOp":
        dim = (1 << n) * r
        return FiberOp(n, r, np.full((dim, dim), _ZERO, dtype=object))

    @staticmethod
    def identity(n: int, r: int = 1) -> "FiberOp":
        op = FiberOp.zeros(n, r)
        for i in range((1 << n) * r):
            op.mat[i, i] = Fraction(1)
        return op

    @staticmethod
    def _scatter(n: int, r: int, entries) -> "FiberOp":
        """entries: iterable of (mask_out, mask_in, coeff) tensored with Id_r."""
        op = FiberOp.zeros(n, r)
        _, pos = subset_order(n)
        for mo, mi, c in entries:
            po, pi_ = pos[mo] * r, pos[mi] * r
            for a in range(r):
                op.mat[po + a, pi_ + a] = op.mat[po + a, pi_ + a] + c
        return op

    @staticmethod
    def ext_op(w: DiffForm, r: int = 1) -> "FiberOp":
        """Left exterior multiplication by w, tensored with Id on C^r."""
        entries = []
        for k_mask, c in w.terms.items():
            for s in range(1 << w.n):
                if s & k_mask:
                    continue
                sign = merge_sign(k_mask, s)
                entries.append((k_mask | s, s, c if sign > 0 else -c))
        return FiberOp._scatter(w.n, r, entries)

    @staticmethod
    def int_op(w: DiffForm, r: int = 1) -> "FiberOp":
        """e*(w): the adjoint of ext_op(w)."""
        return FiberOp.ext_op(w, r).adjoint()

    @staticmethod
    def cliff_op(w: DiffForm, r: int = 1) -> "FiberOp":
        """c(w) = e(w) - e*(w) for a 1-form w."""
        if w.degree() != 1:
            raise ValueError("cliff_op requires a homogeneous 1-form")
        e = FiberOp.ext_op(w, r)
        return e - e.adjoint()

    @staticmethod
    def cliff_hat_op(w: DiffForm, r: int = 1) -> "FiberOp":
        """c-hat(w) = e(w) + e*(w) for a 1-form w."""
        if w.degree() != 1:
            raise ValueError("cliff_hat_op requires a homogeneous 1-form")
        e = FiberOp.ext_op(w, r)
        return e + e.adjoint()

    @staticmethod
    def word_op(n: int, indices, kind: str, r: int = 1) -> "FiberOp":
        """Ordered Clifford word over ascending indices; kind 'c' or 'chat'."""
        if kind not in ("c", "chat"):
            raise ValueError("kind must be 'c' or 'chat'")
        wmask = mask_of(indices) if not isinstance(indices, int) else indices
        cm, hm = (wmask, 0) if kind == "c" else (0, wmask)
        entries = []
        for s in range(1 << n):
            sign, t = apply_word(cm, hm, s)
            entries.append((t, s, Fraction(sign)))
        return FiberOp._scatter(n, r, entries)

    @staticmethod
    def star_op(n: int, r: int = 1) -> "FiberOp":
        entries = []
        full = (1 << n) - 1
        for s in range(1 << n):
            entries.append((full & ~s, s, Fraction(hodge_sign(s, n))))
        return FiberOp._scatter(n, r, entries)

    # -- algebra -----------------------------------------------------------

    def _check(self, other: "FiberOp"):
        if self.n != other.n or self.r != other.r:
            raise ValueError("fiber operator shape mismatch")

    def __add__(self, other):
        self._check(other)
        return FiberOp(self.n, self.r, self.mat + other.mat)

    def __sub__(self, other):
        self._check(other)
        return FiberOp(self.n, self.r, self.mat - other.mat)

    def __neg__(self):
        return FiberOp(self.n, self.r, -self.mat)

    def scale(self, a):
        return FiberOp(self.n, self.r, self.mat * a)

    def __mul__(self, a):
        return self.scale(a)

    __rmul__ = __mul__

    def __matmul__(self, other: "FiberOp") -> "FiberOp":
        self._check(other)
        # sparsity-aware product: most operators here are signed
        # permutations or wedge operators with O(2^n) nonzero entries
        dim = self.mat.shape[0]
        rows_b = [
            [(j, v) for j, v in enumerate(other.mat[k]) if v != 0]
            for k in range(dim)
        ]
        out = FiberOp.zeros(self.n, self.r)
        for i in range(dim):
            row_a = self.mat[i]
            for k in range(dim):
                a = row_a[k]
                if a == 0:
                    continue
                for j, b in rows_b[k]:
                    out.mat[i, j] = out.mat[i, j] + a * b
        return out

    def adjoint(self) -> "FiberOp":
        out = self.mat.T.copy()
        flat = out.reshape(-1)
        for k, v in enumerate(flat.tolist()):
            if type(v) is not Fraction:
                flat[k] = _conj(v)
        return FiberOp(self.n, self.r, out)

    def trace(self):
        return sum(self.mat[i, i] for i in range(self.mat.shape[0]))

    @staticmethod
    def trace_product(a: "FiberOp", b: "FiberOp"):
        """tr(a @ b) without forming the product."""
        a._check(b)
        return sum(
            a.mat[i, j] * b.mat[j, i]
            for i in range(a.mat.shape[0])
            for j in range(a.mat.shape[1])
            if a.mat[i, j] != 0
        )

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.mat.flat)

    def __eq__(self, other):
        if not isinstance(other, FiberOp):
            return NotImplemented
        # list comparison tries identity before __eq__, so shared zeros cost
        # one pointer test each
        return self.n == other.n and self.r == other.r and (
            self.mat.tolist() == other.mat.tolist())

    def apply_to_form(self, w: DiffForm) -> DiffForm:
        """Apply to a form (r = 1 only)."""
        if self.r != 1:
            raise ValueError("apply_to_form requires bundle rank 1")
        order, pos = subset_order(self.n)
        out: Dict[int, object] = {}
        for m, c in w.terms.items():
            col = pos[m]
            for row in range(1 << self.n):
                v = self.mat[row, col]
                if v != 0:
                    s = out.get(order[row], 0) + v * c
                    if _nonzero(s):
                        out[order[row]] = s
                    else:
                        out.pop(order[row], None)
        return DiffForm(self.n, out)


# convenience wrappers matching the operation names used across the package

def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    return a.wedge(b)


def hodge_star(a: DiffForm) -> DiffForm:
    return a.hodge()


def ext_op(w: DiffForm, r: int = 1) -> FiberOp:
    return FiberOp.ext_op(w, r)


def cliff_op(w: DiffForm, r: int = 1) -> FiberOp:
    return FiberOp.cliff_op(w, r)


def cliff_hat_op(w: DiffForm, r: int = 1) -> FiberOp:
    return FiberOp.cliff_hat_op(w, r)


def word_op(n: int, indices, kind: str = "c", r: int = 1) -> FiberOp:
    return FiberOp.word_op(n, indices, kind, r)
