"""Standard G2 / Spin(7) structures and the 2-form eigenspace machinery.

The defining 3-form phi and the Cayley 4-form psi = phi ^ e^8 + *phi are
built in fixed coordinates with int coefficients (each one is +-1), so
every pairing with w multiplies ints, and then self-validated: the operator
a |-> *(w ^ a) on 2-forms must be symmetric with spectrum {+2 x7, -1 x14}
(G2) or {+3 x7, -1 x21} (Spin(7)), and the Cayley form must be self-dual;
a structure that fails raises StructureValidationError.  Every 2-form
operator is a sparse map {(target mask, source mask): int}, the format of
``exterior.star_ext_entries``: the operator A = *e(w) is that table, and
the projections P_7 = (A + 1) / (plus + 1) and P_big = (plus - A) /
(plus + 1) hold their integer numerators over ``den = plus + 1``, also
by column: ``Projection.numerators`` and ``instanton_check`` walk only the
columns of the masks they are given (3 entries each for G2, 4 for
Spin(7)).  Validation is map equality on ``exterior.sparse_product``.
``standard_structure`` builds A and both projections as fields, once per
kind and process, and every caller shares that one object, so callers
must treat a structure and its maps as read-only.  No numpy is needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import inf, lcm
from typing import Dict, List, Tuple

from .exterior import (
    DiffForm,
    mask_of,
    merge_sign,
    popcount,
    sparse_product,
    star_ext_entries,
)
from .record import Record

G2 = "g2"
SPIN7 = "spin7"

_PHI_TERMS = {
    (1, 2, 3): 1,
    (1, 4, 5): 1,
    (1, 6, 7): 1,
    (2, 4, 6): 1,
    (2, 5, 7): -1,
    (3, 4, 7): -1,
    (3, 5, 6): -1,
}

# a 2-form operator: {(target mask, source mask): nonzero value}
Entries = Dict[Tuple[int, int], int]


class StructureValidationError(RuntimeError):
    """The structure form failed a validation check."""


def two_form_basis(n: int) -> List[int]:
    """Masks of e^{ij}, i<j, ordered lexicographically."""
    return [(1 << (i - 1)) | (1 << (j - 1)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


class Projection(Record):
    """Idempotent self-adjoint projector on the 2-form fiber: integer
    numerators {(target, source): value} over one denominator ``den``.
    A numerator that is not an int raises TypeError."""

    _fields = ("target", "n", "den", "entries")

    def __init__(self, target: str, n: int, den: int, entries: Entries):
        for v in entries.values():
            if type(v) is not int:
                raise TypeError(f"projection numerators must be ints, not {type(v).__name__}")
        self.target = target  # "7", "14" or "21"
        self.n = n
        self.den = den
        self.entries = entries
        # the entries by source: {source mask: ((target, value), ...)}
        cols = {}
        for (t, b), v in entries.items():
            cols.setdefault(b, []).append((t, v))
        self.columns = {b: tuple(col) for b, col in cols.items()}

    def numerators(self, alpha: DiffForm) -> Tuple[int, Dict[int, int]]:
        """(den, {target: nonzero int}): a 2-form of int or Fraction
        coefficients projected, over their lcm times ``self.den``, in one
        pass that scales each numerator and sums it over its column."""
        terms = alpha.terms
        for m in terms:
            if m.bit_count() != 2:
                raise ValueError("projection applies to 2-forms only")
        den = 1
        for c in terms.values():
            if type(c) not in (int, Fraction):
                raise TypeError(f"rational numerators need int or Fraction, not {type(c).__name__}")
            den = lcm(den, c.denominator)
        sums = {}
        for b, c in terms.items():
            x = c.numerator * (den // c.denominator)
            for t, v in self.columns.get(b, ()):
                sums[t] = sums.get(t, 0) + v * x
        return den * self.den, {t: x for t, x in sums.items() if x}

    def apply(self, alpha: DiffForm) -> DiffForm:
        """The projected 2-form of a rational 2-form: ``numerators``, each
        one lifted to a Fraction."""
        den, sums = self.numerators(alpha)
        out = DiffForm(self.n)
        out.terms = {t: Fraction(x, den) for t, x in sums.items()}
        return out

    def trace(self) -> Fraction:
        return Fraction(sum(v for (t, b), v in self.entries.items() if t == b), self.den)


class HolonomyStructure(Record):
    """Validated G2 or Spin(7) model fiber data, built whole by
    ``standard_structure``: ``star_ext`` is the validated integer map of
    *e(w) on the 2-form fiber and ``projection_pair`` is (P_7, P_big).
    Neither enters ``repr`` or ``==``."""

    _fields = ("kind", "n", "defining_form", "eigenvalue_table")

    def __init__(self, kind: str, n: int, defining_form: DiffForm,
                 eigenvalue_table: List[Tuple[int, int]], star_ext: Entries,
                 projection_pair: Tuple[Projection, Projection]):
        self.kind = kind
        self.n = n
        self.defining_form = defining_form
        self.eigenvalue_table = eigenvalue_table
        self.star_ext = star_ext
        self.projection_pair = projection_pair

    @property
    def degree(self) -> int:
        return self.defining_form.degree()


def star_ext_on_two_forms(w: DiffForm, n: int) -> Dict[Tuple[int, int], object]:
    """{(target, source): coeff} of alpha |-> *(w ^ alpha) on the 2-form
    fiber, from whole-form wedges and Hodge stars (the oracle of
    ``HolonomyStructure.star_ext``)."""
    out = {}
    for b in two_form_basis(n):
        for t, c in w.wedge(DiffForm(n, {b: Fraction(1)})).hodge().terms.items():
            if popcount(t) != 2:
                raise ValueError("star-wedge image is not a 2-form")
            out[(t, b)] = c
    return out


def _shifted(a: Entries, basis: List[int], factor: int, shift: int) -> Entries:
    """factor * A + shift * Id over ``basis``, without zero entries."""
    out = {k: factor * v for k, v in a.items()}
    for m in basis:
        out[(m, m)] = out.get((m, m), 0) + shift
    return {k: v for k, v in out.items() if v}


def _eig_validate(a: Entries, basis: List[int], plus: int) -> List[Tuple[int, int]]:
    """Check (A - plus)(A + 1) = 0 exactly, as A^2 = (plus - 1) A + plus Id
    by map equality, then the trace split, and return the eigenvalue
    table.  ``a`` holds the nonzero entries of A over the 2-form masks
    ``basis``, with integer or other exact values."""
    if sparse_product(a, a) != _shifted(a, basis, plus - 1, plus):
        raise StructureValidationError("minimal polynomial check failed")
    dim = len(basis)
    m_plus = Fraction(sum(a.get((m, m), 0) for m in basis) + dim, plus + 1)
    if m_plus.denominator != 1 or not (0 < m_plus < dim):
        raise StructureValidationError("trace does not split the fiber")
    m_plus = int(m_plus)
    return [(plus, m_plus), (-1, dim - m_plus)]


@cache
def standard_structure(kind: str) -> HolonomyStructure:
    """Build and validate the model structure for the given kind, once per
    process: every call with the same ``kind`` returns the same object, so
    callers must treat it and its maps as read-only.  The uncached build
    is ``standard_structure.__wrapped__``."""
    kind = kind.lower()
    if kind not in (G2, SPIN7):
        raise ValueError("kind must be 'g2' or 'spin7'")
    n, plus, big = (7, 2, 14) if kind == G2 else (8, 3, 21)
    form = DiffForm(7, {mask_of(idx): c for idx, c in _PHI_TERMS.items()})
    if kind == SPIN7:
        form = DiffForm(8, dict(form.terms)).wedge(DiffForm.monomial(8, (8,))) + DiffForm(
            8, dict(form.hodge().terms)
        )
        if form.hodge() != form:
            raise StructureValidationError("Cayley form is not self-dual")
    basis = two_form_basis(n)
    a = star_ext_entries(form, basis)
    if any(popcount(t) != 2 for t, _ in a):
        raise ValueError("star-wedge image is not a 2-form")
    if any(a.get((b, t)) != v for (t, b), v in a.items()):
        raise StructureValidationError("star-wedge operator is not symmetric")
    table = _eig_validate(a, basis, plus)
    if table != [(plus, 7), (-1, big)]:
        raise StructureValidationError(f"wrong multiplicities {table}")
    pair = (Projection("7", n, plus + 1, _shifted(a, basis, 1, 1)),
            Projection(str(big), n, plus + 1, _shifted(a, basis, -1, plus)))
    return HolonomyStructure(kind, n, form, table, a, pair)


def projections(s: HolonomyStructure) -> Tuple[Projection, Projection]:
    """(P_7, P_big) = (A + 1, plus - A) / (plus + 1) for A = *e(w), exact,
    as ``standard_structure`` built them from the integer map of A."""
    return s.projection_pair


def decompose_two_form(s: HolonomyStructure, alpha: DiffForm) -> Tuple[DiffForm, DiffForm]:
    """Split a 2-form into its 7-part and the complementary part."""
    if not alpha.is_zero() and alpha.degree() != 2:
        raise ValueError("decompose_two_form requires a 2-form")
    p7, pbig = projections(s)
    return p7.apply(alpha), pbig.apply(alpha)


def bundle_weight_check(s: HolonomyStructure) -> bool:
    """B = -4 A exactly, for A = *e(w) on the 2-form masks and
    B_(ab),(cd) = tr(A D_ab D_cd) antisymmetrised in (a, b) and in (c, d),
    where D_ab = e^a i_b.  The trace is bilinear, so B is read with the
    antisymmetrised D_ab - D_ba on both sides.  The identity reduces the
    bundle sector of the twisted operator's heat coefficient,
    1/2 tr[(A (x) 1) E_F^2], to a multiple of [w ^ pi^2 (c_1^2 - 2 c_2)]
    for every constant F.  The same sweep sends Id to -2 (n - 2) Id, so
    the check fails on A + Id."""
    basis = two_form_basis(s.n)

    def d(a: int, b: int) -> Entries:
        # e^a i_b - e^b i_a; i_y e^S = merge_sign(y, S - y) e^(S - y)
        out = {}
        for x, y, sign in ((a, b, 1), (b, a, -1)):
            for m in basis:
                if m & y and not m & x:
                    rest = m ^ y
                    out[(rest | x, m)] = sign * merge_sign(y, rest) * merge_sign(x, rest)
        return out

    ds = {a | b: d(a, b) for a, b in combinations([1 << i for i in range(s.n)], 2)}
    got = {}
    for p, dp in ds.items():
        adp = sparse_product(s.star_ext, dp)
        for q, dq in ds.items():
            v = sum(x * dq.get((j, i), 0) for (i, j), x in adp.items())
            if v:
                got[(p, q)] = v
    return got == {k: -4 * v for k, v in s.star_ext.items()}


class InstantonReport(Record):
    _fields = ("ok", "max_component")

    def __init__(self, ok: bool, max_component: float):
        self.ok = ok
        self.max_component = max_component


def instanton_check(s: HolonomyStructure, curvature) -> InstantonReport:
    """True iff every bundle entry of the curvature 2-form has no 7-part.

    ``curvature`` is a CurvatureData.  The integer P_7 numerators act on
    its real and imaginary numerator planes apart, gathered from the P_7
    columns of the planes' masks; each 7-part row then sums all its r^2
    real and imaginary numerators in one pass over its (value, plane)
    pairs.  ``ok`` is decided on those integers; ``max_component`` is the
    largest |re + i im| of a 7-part entry in floats, which reads 0.0 when a
    nonzero part lies below the float range and inf when one lies past it.
    """
    p7 = projections(s)[0]
    planes, den = curvature.f_planes, p7.den * curvature.f_den
    hits: Dict[int, list] = {}
    for b, plane in planes.items():
        for t, v in p7.columns.get(b, ()):
            hits.setdefault(t, []).append((v, plane))
    worst = 0.0
    ok = True
    for (v, (re, im)), *rest in hits.values():
        # the r^2 real and imaginary sums of the row, in one pass over it
        xs, ys = [v * a for a in re], [v * b for b in im]
        for v, (re, im) in rest:
            xs = [x + v * a for x, a in zip(xs, re)]
            ys = [y + v * b for y, b in zip(ys, im)]
        for x, y in zip(xs, ys):
            if x or y:
                ok = False
                try:
                    # int true division rounds correctly, as float(Fraction) does
                    worst = max(worst, abs(complex(x / den, y / den)))
                except OverflowError:
                    worst = inf
    return InstantonReport(ok=ok, max_component=worst)
