"""Standard G2 / Spin(7) structures and the 2-form eigenspace machinery.

The defining 3-form phi and the Cayley 4-form psi = phi ^ e^8 + *phi are
built in fixed coordinates and then self-validated: the operator
a |-> *(w ^ a) on 2-forms must be symmetric with spectrum {+2 x7, -1 x14}
(G2) or {+3 x7, -1 x21} (Spin(7)), and the Cayley form must be self-dual;
a structure that fails raises StructureValidationError.  The operator is
held as sparse integer rows from the one sign table
``exterior.star_ext_entries``, and validation is exact sparse row
products; the projections keep their nonzero integer entries as sparse
rows over plus + 1, derived from the same rows.  A structure is built
whole: ``standard_structure`` stores the validated rows and both
projections as fields, and nothing is filled in later.  No numpy is
needed to build or use a structure; only the dense views (``star_ext``,
``Projection.numerator_matrix``, ``Projection.matrix`` and the oracle
``star_ext_on_two_forms``) import it, when called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Tuple

from .exact import Scalar, lift_planes, numerator_planes
from .exterior import (
    _ZERO,
    DiffForm,
    mask_of,
    popcount,
    star_ext_entries,
)

if TYPE_CHECKING:
    import numpy as np

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

# sparse integer rows over the 2-form basis: (mask, [(mask, value)]) for
# every basis mask in order, each row holding its nonzero entries in
# basis order
Rows = List[Tuple[int, List[Tuple[int, int]]]]


class StructureValidationError(RuntimeError):
    """The structure form failed a validation check."""


def two_form_basis(n: int) -> List[int]:
    """Masks of e^{ij}, i<j, ordered lexicographically."""
    return [(1 << (i - 1)) | (1 << (j - 1)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _dense(n: int, rows: Rows) -> np.ndarray:
    """Dense int64 array of sparse rows over the 2-form basis."""
    import numpy as np

    pos = {m: i for i, m in enumerate(two_form_basis(n))}
    mat = np.zeros((len(pos), len(pos)), dtype=np.int64)
    for m, row in rows:
        for mj, v in row:
            mat[pos[m], pos[mj]] = v
    return mat


@dataclass
class Projection:
    """Idempotent self-adjoint projector on the 2-form fiber, held as
    integer numerator rows over one denominator ``den``."""

    target: str  # "7", "14" or "21"
    n: int
    den: int
    rows: Rows

    def numerator_matrix(self) -> np.ndarray:
        """Dense int64 array of the numerators over the 2-form basis."""
        return _dense(self.n, self.rows)

    @property
    def matrix(self) -> np.ndarray:
        """Dense object array of Fractions over the 2-form basis."""
        import numpy as np

        return np.array([[Fraction(v, self.den) if v else _ZERO for v in row]
                         for row in self.numerator_matrix().tolist()], dtype=object)

    def apply(self, alpha: DiffForm) -> DiffForm:
        """The projected 2-form, from integer row products with the
        numerator planes of ``alpha``, one pass over each row.  Its
        coefficients are Scalars if any coefficient of ``alpha`` is one,
        else Fractions."""
        if any(popcount(m) != 2 for m in alpha.terms):
            raise ValueError("projection applies to 2-forms only")
        values = list(alpha.terms.values())
        den, planes = numerator_planes(values)
        den *= self.den
        scalar = any(isinstance(c, Scalar) for c in values)
        col = {m: k for k, m in enumerate(alpha.terms)}
        out = {}
        for m, row in self.rows:
            sums = {}
            for mj, v in row:
                k = col.get(mj)
                if k is not None:
                    for plane, nums in planes.items():
                        sums[plane] = sums.get(plane, 0) + v * nums[k]
            if any(sums.values()):
                out[m] = lift_planes(sums, den, scalar)
        return DiffForm(self.n, out)

    def trace(self) -> Fraction:
        return Fraction(sum(v for m, row in self.rows for mj, v in row if mj == m), self.den)


@dataclass
class HolonomyStructure:
    """Validated G2 or Spin(7) model fiber data, built whole by
    ``standard_structure``: ``star_ext_rows`` are the validated integer
    rows of *e(w) on the 2-form fiber and ``projection_pair`` is
    (P_7, P_big)."""

    kind: str
    n: int
    defining_form: DiffForm
    eigenvalue_table: List[Tuple[int, int]]
    star_ext_rows: Rows = field(repr=False, compare=False)
    projection_pair: Tuple[Projection, Projection] = field(repr=False, compare=False)

    @property
    def degree(self) -> int:
        return self.defining_form.degree()

    @property
    def plus_eigenvalue(self) -> int:
        return 2 if self.kind == G2 else 3

    @property
    def star_ext(self) -> np.ndarray:
        """Dense int64 array of *e(w) over the 2-form basis."""
        return _dense(self.n, self.star_ext_rows)


def star_ext_on_two_forms(w: DiffForm, n: int) -> np.ndarray:
    """Matrix of alpha |-> *(w ^ alpha) on the 2-form fiber, from whole-form
    wedges and Hodge stars (the oracle of ``_star_ext_rows``)."""
    import numpy as np

    basis = two_form_basis(n)
    pos = {m: i for i, m in enumerate(basis)}
    dim = len(basis)
    mat = np.full((dim, dim), Fraction(0), dtype=object)
    for j, m in enumerate(basis):
        alpha = DiffForm(n, {m: Fraction(1)})
        img = w.wedge(alpha).hodge()
        for mm, c in img.terms.items():
            if popcount(mm) != 2:
                raise ValueError("star-wedge image is not a 2-form")
            mat[pos[mm], j] = c
    return mat


def _star_ext_rows(form: DiffForm) -> List[Dict[int, int]]:
    """Integer rows of alpha |-> *(w ^ alpha) on the 2-form fiber, grouped
    once from ``star_ext_entries``: row i is {j: value} over positions in
    ``two_form_basis``.  The sources are visited in basis order, so each
    row holds its columns in increasing order.  The coefficients of
    ``form`` must be integers, as those of every candidate structure form
    are."""
    if any(int(c) != c for c in form.terms.values()):
        raise ValueError("structure forms must have integer coefficients")
    basis = two_form_basis(form.n)
    pos = {m: i for i, m in enumerate(basis)}
    w = DiffForm(form.n, {k: int(c) for k, c in form.terms.items()})
    rows: List[Dict[int, int]] = [{} for _ in basis]
    for (t, b), v in star_ext_entries(w, basis).items():
        if t not in pos:
            raise ValueError("star-wedge image is not a 2-form")
        rows[pos[t]][pos[b]] = v
    return rows


def _eig_validate(rows: List[Dict[int, int]], plus: int) -> List[Tuple[int, int]]:
    """Check (A - plus)(A + 1) = 0 exactly, as A^2 = (plus - 1) A + plus Id
    on every sparse row, then the trace split, and return the eigenvalue
    table.  ``rows`` holds every row of A as {column: value}, with integer
    or other exact values."""
    dim = len(rows)
    for i, row in enumerate(rows):
        acc = {j: (1 - plus) * v for j, v in row.items()}
        acc[i] = acc.get(i, 0) - plus
        for k, a in row.items():
            for j, b in rows[k].items():
                acc[j] = acc.get(j, 0) + a * b
        if any(acc.values()):
            raise StructureValidationError("minimal polynomial check failed")
    m_plus = Fraction(sum(row.get(i, 0) for i, row in enumerate(rows)) + dim, plus + 1)
    if m_plus.denominator != 1 or not (0 < m_plus < dim):
        raise StructureValidationError("trace does not split the fiber")
    m_plus = int(m_plus)
    return [(plus, m_plus), (-1, dim - m_plus)]


def _mask_rows(basis: List[int], rows: List[Dict[int, int]], sign: int, shift: int) -> Rows:
    """The nonzero entries of sign * A + shift * Id as mask rows, each in
    basis order: the diagonal goes between the columns below and above it."""
    out = []
    for i, row in enumerate(rows):
        entries = [(basis[j], sign * v) for j, v in row.items() if j < i]
        diag = sign * row.get(i, 0) + shift
        if diag:
            entries.append((basis[i], diag))
        entries += [(basis[j], sign * v) for j, v in row.items() if j > i]
        out.append((basis[i], entries))
    return out


def standard_structure(kind: str) -> HolonomyStructure:
    """Build and validate the model structure for the given kind."""
    kind = kind.lower()
    if kind not in (G2, SPIN7):
        raise ValueError("kind must be 'g2' or 'spin7'")
    n, plus, big = (7, 2, 14) if kind == G2 else (8, 3, 21)
    form = DiffForm(7, {mask_of(idx): Fraction(c) for idx, c in _PHI_TERMS.items()})
    if kind == SPIN7:
        form = DiffForm(8, dict(form.terms)).wedge(DiffForm.monomial(8, (8,))) + DiffForm(
            8, dict(form.hodge().terms)
        )
        if form.hodge() != form:
            raise StructureValidationError("Cayley form is not self-dual")
    rows = _star_ext_rows(form)
    if any(rows[j].get(i) != v for i, row in enumerate(rows) for j, v in row.items()):
        raise StructureValidationError("star-wedge operator is not symmetric")
    table = _eig_validate(rows, plus)
    if table != [(plus, 7), (-1, big)]:
        raise StructureValidationError(f"wrong multiplicities {table}")
    basis = two_form_basis(n)
    pair = (Projection("7", n, plus + 1, _mask_rows(basis, rows, 1, 1)),
            Projection(str(big), n, plus + 1, _mask_rows(basis, rows, -1, plus)))
    return HolonomyStructure(kind, n, form, table, _mask_rows(basis, rows, 1, 0), pair)


def projections(s: HolonomyStructure) -> Tuple[Projection, Projection]:
    """(P_7, P_big) = (A + 1, plus - A) / (plus + 1) for A = *e(w), exact,
    as ``standard_structure`` built them from the integer rows of A."""
    return s.projection_pair


def decompose_two_form(s: HolonomyStructure, alpha: DiffForm) -> Tuple[DiffForm, DiffForm]:
    """Split a 2-form into its 7-part and the complementary part."""
    if not alpha.is_zero() and alpha.degree() != 2:
        raise ValueError("decompose_two_form requires a 2-form")
    p7, pbig = projections(s)
    return p7.apply(alpha), pbig.apply(alpha)


@dataclass
class InstantonReport:
    ok: bool
    max_component: float
    exact_zero: bool


def instanton_check(s: HolonomyStructure, curvature) -> InstantonReport:
    """True iff every bundle entry of the curvature 2-form has no 7-part.

    ``curvature`` is a CurvatureData.  The integer P_7 rows act on its
    real and imaginary numerator planes apart.  ``ok`` and ``exact_zero``
    are decided on those integers; ``max_component`` is the largest
    |re + i im| of a 7-part entry in floats, which reads 0.0 when a nonzero
    part lies below the float range.
    """
    p7 = projections(s)[0]
    planes, den = curvature.f_planes, p7.den * curvature.f_den
    worst = 0.0
    exact_zero = True
    for _, row in p7.rows:
        hits = [(v, planes[mj]) for mj, v in row if mj in planes]
        for ab in range(curvature.r ** 2) if hits else ():
            x = sum(v * re[ab] for v, (re, _) in hits)
            y = sum(v * im[ab] for v, (_, im) in hits)
            if x or y:
                exact_zero = False
                worst = max(worst, abs(complex(float(Fraction(x, den)), float(Fraction(y, den)))))
    return InstantonReport(ok=exact_zero, max_component=worst, exact_zero=exact_zero)
