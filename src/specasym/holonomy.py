"""Standard G2 / Spin(7) structures and the 2-form eigenspace machinery.

The defining 3-form and Cayley 4-form are built in fixed coordinates and
then self-validated: the operator a |-> *(w ^ a) on 2-forms must have
spectrum {+2 x7, -1 x14} (G2) or {+3 x7, -1 x21} (Spin(7)), and the
Cayley form must be self-dual.  Published sign conventions differ, so the
constructor tries sign and last-coordinate orientation flips until the
eigenvalue table validates, and records what it did.  The operator is an
integer matrix built from merge and Hodge signs on masks, and validation
is one exact integer matrix product; the projections keep its nonzero
entries over plus + 1 as sparse rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from .exact import numerator_planes
from .exterior import (
    _ZERO,
    DiffForm,
    hodge_sign,
    indices_of,
    mask_of,
    merge_sign,
    popcount,
)

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


class StructureValidationError(RuntimeError):
    """No sign/orientation choice produced the required eigenvalue table."""


def two_form_basis(n: int) -> List[int]:
    """Masks of e^{ij}, i<j, ordered lexicographically."""
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(mask_of((i, j)))
    return sorted(out, key=indices_of)


@dataclass
class Projection:
    """Idempotent self-adjoint projector on the 2-form fiber."""

    target: str  # "7", "14" or "21"
    n: int
    rows: List[Tuple[int, List[Tuple[int, Fraction]]]]  # (mask, [(mask, entry)]), nonzero

    @property
    def matrix(self) -> np.ndarray:
        """Dense object array of Fractions over the 2-form basis."""
        pos = {m: i for i, m in enumerate(two_form_basis(self.n))}
        mat = np.full((len(pos), len(pos)), Fraction(0), dtype=object)
        for m, row in self.rows:
            for mj, v in row:
                mat[pos[m], pos[mj]] = v
        return mat

    def apply(self, alpha: DiffForm) -> DiffForm:
        if any(popcount(m) != 2 for m in alpha.terms):
            raise ValueError("projection applies to 2-forms only")
        out = {}
        for m, row in self.rows:
            acc = 0
            for mj, v in row:
                c = alpha.terms.get(mj)
                if c:
                    acc = acc + v * c
            if acc != 0:
                out[m] = acc
        return DiffForm(self.n, out)

    def trace(self):
        return sum(v for m, row in self.rows for mj, v in row if mj == m)

    @cached_property
    def numerators(self):
        """(den, rows): the rows as integer numerators over one denominator."""
        den, planes = numerator_planes([v for _, row in self.rows for _, v in row])
        nums = iter(planes[(0, 0, 0)])
        return den, [(m, [(mj, next(nums)) for mj, _ in row]) for m, row in self.rows]


@dataclass
class HolonomyStructure:
    """Validated G2 or Spin(7) model fiber data."""

    kind: str
    n: int
    defining_form: DiffForm
    eigenvalue_table: List[Tuple[int, int]]
    sign_flipped: bool = False
    orientation_flipped: bool = False
    _op_cache: Dict[str, object] = field(default_factory=dict, repr=False)

    @property
    def degree(self) -> int:
        return self.defining_form.degree()

    @property
    def plus_eigenvalue(self) -> int:
        return 2 if self.kind == G2 else 3

    @property
    def big_label(self) -> str:
        return "14" if self.kind == G2 else "21"


def _flip_last(form: DiffForm, n: int) -> DiffForm:
    bit = 1 << (n - 1)
    return DiffForm(
        form.n, {m: (-c if (m & bit) else c) for m, c in form.terms.items()}
    )


def star_ext_on_two_forms(w, n: int = None) -> np.ndarray:
    """Matrix of alpha |-> *(w ^ alpha) on the 2-form fiber.

    Accepts either a defining form plus the ambient dimension or a
    validated HolonomyStructure.
    """
    if isinstance(w, HolonomyStructure):
        return structure_operator(w)
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


def _star_ext_integers(form: DiffForm, n: int) -> np.ndarray:
    """Integer matrix of alpha |-> *(w ^ alpha) on the 2-form fiber.

    Built from merge and Hodge signs on masks: e^K ^ e^B = merge_sign(K, B)
    e^{K|B} and *e^T = hodge_sign(T) e^{T^c}.  The coefficients of ``form``
    must be integers, as those of every candidate structure form are.
    """
    basis = two_form_basis(n)
    pos = {m: i for i, m in enumerate(basis)}
    full = (1 << n) - 1
    if any(int(c) != c for c in form.terms.values()):
        raise ValueError("structure forms must have integer coefficients")
    terms = [(k, int(c)) for k, c in form.terms.items()]
    mat = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for j, b in enumerate(basis):
        for k, c in terms:
            if k & b:
                continue
            t = k | b
            i = pos.get(full & ~t)
            if i is None:
                raise ValueError("star-wedge image is not a 2-form")
            mat[i, j] += c * merge_sign(k, b) * hodge_sign(t, n)
    return mat


def _eig_validate(mat: np.ndarray, plus: int) -> List[Tuple[int, int]]:
    """Check (A - plus)(A + 1) = 0 exactly as one matrix product, then the
    trace split, and return the eigenvalue table.  ``mat`` is an integer
    array or an object array of exact values."""
    dim = mat.shape[0]
    eye = np.eye(dim, dtype=mat.dtype)
    if np.dot(mat - plus * eye, mat + eye).any():
        raise StructureValidationError("minimal polynomial check failed")
    m_plus = Fraction(sum(mat.diagonal().tolist()) + dim, plus + 1)
    if m_plus.denominator != 1 or not (0 < m_plus < dim):
        raise StructureValidationError("trace does not split the fiber")
    m_plus = int(m_plus)
    return [(plus, m_plus), (-1, dim - m_plus)]


def standard_structure(kind: str) -> HolonomyStructure:
    """Build and validate the model structure for the given kind."""
    kind = kind.lower()
    if kind not in (G2, SPIN7):
        raise ValueError("kind must be 'g2' or 'spin7'")
    n = 7 if kind == G2 else 8
    phi7 = DiffForm(7, {mask_of(idx): Fraction(s) for idx, s in _PHI_TERMS.items()})

    def candidates():
        for orient in (False, True):
            for neg in (False, True):
                base = _flip_last(phi7, 7) if orient else phi7
                base = -base if neg else base
                if kind == G2:
                    yield base, neg, orient
                else:
                    lift = DiffForm(8, dict(base.terms))
                    psi = lift.wedge(DiffForm.monomial(8, (8,))) + DiffForm(
                        8, dict(base.hodge().terms)
                    )
                    for orient8 in (False, True):
                        yield (
                            _flip_last(psi, 8) if orient8 else psi,
                            neg,
                            orient or orient8,
                        )

    plus = 2 if kind == G2 else 3
    last_error = None
    for form, neg, orient in candidates():
        try:
            if kind == SPIN7 and form.hodge() != form:
                raise StructureValidationError("Cayley form is not self-dual")
            mat = _star_ext_integers(form, n)
            if (mat != mat.T).any():
                raise StructureValidationError("star-wedge operator is not symmetric")
            table = _eig_validate(mat, plus)
            if table != [(plus, 7), (-1, (14 if kind == G2 else 21))]:
                raise StructureValidationError(f"wrong multiplicities {table}")
            s = HolonomyStructure(kind, n, form, table, neg, orient)
            s._op_cache["star_ext_integers"] = mat
            return s
        except StructureValidationError as exc:
            last_error = exc
    raise StructureValidationError(
        f"no sign/orientation choice validates for {kind}: {last_error}"
    )


def _integer_operator(s: HolonomyStructure) -> np.ndarray:
    if "star_ext_integers" not in s._op_cache:
        s._op_cache["star_ext_integers"] = _star_ext_integers(s.defining_form, s.n)
    return s._op_cache["star_ext_integers"]


def structure_operator(s: HolonomyStructure) -> np.ndarray:
    """The validated matrix of *e(w) on the 2-form fiber, as Fractions."""
    if "star_ext" not in s._op_cache:
        s._op_cache["star_ext"] = np.array(
            [[Fraction(v) if v else _ZERO for v in row] for row in _integer_operator(s).tolist()],
            dtype=object,
        )
    return s._op_cache["star_ext"]


def projections(s: HolonomyStructure) -> Tuple[Projection, Projection]:
    """(P_7, P_big) = (A + 1, plus - A) / (plus + 1) for A = *e(w), exact.

    Built once per structure from the integer rows of A and cached.  The
    rows over plus + 1 also give each Projection its ``numerators``.
    """
    if "projections" not in s._op_cache:
        basis = two_form_basis(s.n)
        a, plus = _integer_operator(s), s.plus_eigenvalue
        eye = np.eye(len(basis), dtype=np.int64)
        out = []
        for label, nums in (("7", a + eye), (s.big_label, plus * eye - a)):
            sparse = [[(basis[j], v) for j, v in enumerate(row) if v] for row in nums.tolist()]
            entry = {v: Fraction(v, plus + 1) for v in np.unique(nums).tolist()}
            p = Projection(label, s.n, [
                (basis[i], [(mj, entry[v]) for mj, v in row]) for i, row in enumerate(sparse)
            ])
            # A has a zero diagonal (w ^ e^I ^ e^I = 0), so the diagonals
            # 1 and plus are coprime to plus + 1, the least common
            # denominator that numerator_planes would find
            p.__dict__["numerators"] = (plus + 1, [(basis[i], row) for i, row in enumerate(sparse)])
            out.append(p)
        s._op_cache["projections"] = tuple(out)
    return s._op_cache["projections"]


def decompose_two_form(s: HolonomyStructure, alpha: DiffForm) -> Tuple[DiffForm, DiffForm]:
    """Split a 2-form into its 7-part and the complementary part."""
    if not alpha.is_zero() and alpha.degree() != 2:
        raise ValueError("decompose_two_form requires a 2-form")
    p7, pbig = projections(s)
    a7 = p7.apply(alpha) if not alpha.is_zero() else DiffForm.zero(s.n)
    rest = alpha - a7
    return a7, rest


@dataclass
class InstantonReport:
    ok: bool
    max_component: float
    exact_zero: bool


def instanton_check(s: HolonomyStructure, curvature, tol: float = 0.0) -> InstantonReport:
    """True iff every bundle entry of the curvature 2-form has no 7-part.

    ``curvature`` is a CurvatureData.  The integer P_7 rows act on its
    real and imaginary numerator planes apart.  ``exact_zero`` (and ``ok``
    when ``tol`` is 0) is decided on those integers; ``max_component`` is
    the largest |re + i im| of a 7-part entry in floats, which reads 0.0
    when a nonzero part lies below the float range.
    """
    pden, rows = projections(s)[0].numerators
    planes, den = curvature._f_planes, pden * curvature._f_den
    worst = 0.0
    exact_zero = True
    for _, row in rows:
        hits = [(v, planes[mj]) for mj, v in row if mj in planes]
        for ab in range(curvature.r ** 2) if hits else ():
            x = sum(v * re[ab] for v, (re, _) in hits)
            y = sum(v * im[ab] for v, (_, im) in hits)
            if x or y:
                exact_zero = False
                worst = max(worst, abs(complex(float(Fraction(x, den)), float(Fraction(y, den)))))
    ok = exact_zero if tol == 0 else worst <= tol
    return InstantonReport(ok=ok, max_component=worst, exact_zero=exact_zero)
