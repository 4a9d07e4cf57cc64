"""Standard G2 / Spin(7) structures and the 2-form eigenspace machinery.

The defining 3-form and Cayley 4-form are built in fixed coordinates and
then self-validated: the operator a |-> *(w ^ a) on 2-forms must have
spectrum {+2 x7, -1 x14} (G2) or {+3 x7, -1 x21} (Spin(7)), and the
Cayley form must be self-dual.  Published sign conventions differ, so the
constructor tries sign and last-coordinate orientation flips until the
eigenvalue table validates, and records what it did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .exterior import DiffForm, indices_of, mask_of, popcount

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
    matrix: np.ndarray  # object array of Fractions over the 2-form basis

    def apply(self, alpha: DiffForm) -> DiffForm:
        basis = two_form_basis(self.n)
        pos = {m: i for i, m in enumerate(basis)}
        vec = [Fraction(0)] * len(basis)
        for m, c in alpha.terms.items():
            if popcount(m) != 2:
                raise ValueError("projection applies to 2-forms only")
            vec[pos[m]] = c
        out = {}
        for i, m in enumerate(basis):
            acc = 0
            for j in range(len(basis)):
                if vec[j] != 0 and self.matrix[i, j] != 0:
                    acc = acc + self.matrix[i, j] * vec[j]
            if acc != 0:
                out[m] = acc
        return DiffForm(self.n, out)

    def trace(self):
        return sum(self.matrix[i, i] for i in range(self.matrix.shape[0]))

    def fiber_dimension(self) -> int:
        return int(self.target.lstrip("l"))


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

    @property
    def fiber_two_dim(self) -> int:
        return len(two_form_basis(self.n))


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


def _eig_validate(mat: np.ndarray, plus: int) -> List[Tuple[int, int]]:
    """Check (A - plus)(A + 1) = 0 exactly and return the eigenvalue table."""
    dim = mat.shape[0]
    eye = np.full((dim, dim), Fraction(0), dtype=object)
    for i in range(dim):
        eye[i, i] = Fraction(1)
    prod = np.dot(mat - plus * eye, mat + eye)
    if any(v != 0 for v in prod.flat):
        raise StructureValidationError("minimal polynomial check failed")
    tr = sum(mat[i, i] for i in range(dim))
    m_plus = Fraction(tr + dim, plus + 1)
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
            mat = star_ext_on_two_forms(form, n)
            if any(mat[i, j] != mat[j, i] for i in range(mat.shape[0]) for j in range(i)):
                raise StructureValidationError("star-wedge operator is not symmetric")
            table = _eig_validate(mat, plus)
            if table != [(plus, 7), (-1, (14 if kind == G2 else 21))]:
                raise StructureValidationError(f"wrong multiplicities {table}")
            s = HolonomyStructure(kind, n, form, table, neg, orient)
            s._op_cache["star_ext"] = mat
            return s
        except StructureValidationError as exc:
            last_error = exc
    raise StructureValidationError(
        f"no sign/orientation choice validates for {kind}: {last_error}"
    )


def structure_operator(s: HolonomyStructure) -> np.ndarray:
    """The validated matrix of *e(w) on the 2-form fiber."""
    if "star_ext" not in s._op_cache:
        s._op_cache["star_ext"] = star_ext_on_two_forms(s.defining_form, s.n)
    return s._op_cache["star_ext"]


def projections(s: HolonomyStructure) -> Tuple[Projection, Projection]:
    """(P_7, P_big) as exact spectral projections of *e(w).

    Built once per structure and cached; the matrices are read-only.
    """
    if "projections" not in s._op_cache:
        mat = structure_operator(s)
        dim = mat.shape[0]
        eye = np.full((dim, dim), Fraction(0), dtype=object)
        for i in range(dim):
            eye[i, i] = Fraction(1)
        plus = s.plus_eigenvalue
        denom = Fraction(plus + 1)
        p7 = (mat + eye) * (1 / denom)
        pbig = (plus * eye - mat) * (1 / denom)
        for m in (p7, pbig):
            m.setflags(write=False)
        s._op_cache["projections"] = (
            Projection("7", s.n, p7),
            Projection(s.big_label, s.n, pbig),
        )
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

    ``curvature`` is a CurvatureData; its F entries are reassembled as an
    r x r matrix of 2-forms and each entry is projected onto the 7-part.
    """
    p7, _ = projections(s)
    worst = 0.0
    exact = True
    for (a, b), form in curvature.bundle_two_forms().items():
        comp = p7.apply(form)
        for c in comp.terms.values():
            exact = False if c != 0 else exact
            mag = abs(complex(c.evalf() if hasattr(c, "evalf") else c))
            worst = max(worst, mag)
    ok = worst <= tol
    return InstantonReport(ok=ok, max_component=worst, exact_zero=(worst == 0.0))
