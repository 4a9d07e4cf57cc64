"""Chern-Weil forms and the Gamma-factor arithmetic for zeta residues.

The density w ^ ((1/3) p1 + c1^2 - c2) is built from constant curvature
data; integration over the unit-volume flat model reads off its dvol
coefficient.  Residues follow by exact division by Gamma(deg(w)/2 + 1),
so they come out as exact rational multiples of powers of pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .exact import Scalar
from .exterior import DiffForm
from .holonomy import (
    G2,
    HolonomyStructure,
    InstantonReport,
    decompose_two_form,
    instanton_check,
)


def pontryagin_p1(cd) -> DiffForm:
    """First Pontryagin form -(1/8 pi^2) sum_ij Omega_ij ^ Omega_ji."""
    n = cd.n
    out = DiffForm.zero(n)
    norm = Scalar.term(Fraction(-1, 8), pi_half=-4)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            omega_ij = cd.rhat(i, j).scale(2)
            omega_ji = cd.rhat(j, i).scale(2)
            out = out + omega_ij.wedge(omega_ji)
    return out.scale(norm).map_coefficients(_require_real)


def chern_forms(cd) -> Tuple[DiffForm, DiffForm]:
    """(c1, c2) of the bundle from its skew-Hermitian curvature matrices."""
    n = cd.n
    fhat = cd.bundle_two_forms()  # nonzero (a, b) -> 2-form, so no loop over r^2
    tr_f = DiffForm.zero(n)
    tr_ff = DiffForm.zero(n)
    for (a, b), f_ab in fhat.items():
        if a == b:
            tr_f = tr_f + f_ab
        f_ba = fhat.get((b, a))
        if f_ba is not None:
            tr_ff = tr_ff + f_ab.wedge(f_ba)
    c1 = tr_f.scale(Scalar.term(0, Fraction(1, 2), pi_half=-2))
    c2 = (tr_f.wedge(tr_f) - tr_ff).scale(Scalar.term(Fraction(-1, 8), pi_half=-4))
    return c1.map_coefficients(_require_real), c2.map_coefficients(_require_real)


def characteristic_density_form(cd) -> DiffForm:
    """(1/3) p1 + c1^2 - c2 as a 4-form."""
    p1 = pontryagin_p1(cd)
    c1, c2 = chern_forms(cd)
    return p1.scale(Fraction(1, 3)) + c1.wedge(c1) - c2


def residue_density(s: HolonomyStructure, cd) -> DiffForm:
    """w ^ ((1/3) p1 + c1^2 - c2), a degree-n form."""
    return s.defining_form.wedge(characteristic_density_form(cd))


def gamma_pole_factor(deg_w: int) -> Scalar:
    """Gamma(deg(w)/2 + 1) for deg(w) in {3, 4}, kept exact."""
    if deg_w == 3:
        # Gamma(5/2) = (3/4) sqrt(pi)
        return Scalar.term(Fraction(3, 4), pi_half=1)
    if deg_w == 4:
        return Scalar.of(2)  # Gamma(3)
    raise ValueError(f"unsupported defining-form degree {deg_w}")


@dataclass
class ResidueReport:
    kind: str
    twisted: bool
    density: DiffForm
    integral: Scalar
    b_coefficient: Scalar
    residue: Scalar
    pole_location: Fraction
    untwisted_constant_ok: Optional[bool] = None
    instanton: Optional[InstantonReport] = None

    def residue_float(self) -> float:
        return self.residue.real_float()

    def to_dict(self):
        return {
            "kind": self.kind,
            "twisted": self.twisted,
            "pole_location": f"{self.pole_location}",
            "integral": {"exact": repr(self.integral), "float": _safe_float(self.integral)},
            "b_coefficient": {
                "exact": repr(self.b_coefficient),
                "float": _safe_float(self.b_coefficient),
            },
            "residue": {"exact": repr(self.residue), "float": _safe_float(self.residue)},
            "untwisted_constant_ok": self.untwisted_constant_ok,
            "instanton_warning": (
                None
                if self.instanton is None or self.instanton.ok
                else f"P7 component up to {self.instanton.max_component:.3e}"
            ),
        }


def residue_value(
    s: HolonomyStructure,
    twisted: bool,
    integral,
    density: Optional[DiffForm] = None,
) -> ResidueReport:
    """Assemble the residue from the integrated density coefficient.

    ``integral`` is the dvol coefficient of w ^ ((1/3) p1 + c1^2 - c2)
    over the unit-volume flat model.  The heat coefficient is
    b = pi^(-deg(w)/2) * integral and the residue is b / Gamma(deg(w)/2 + 1).
    """
    deg_w = s.degree
    integral = Scalar.of(integral) if not isinstance(integral, Scalar) else integral
    b = Scalar.pi_pow(-deg_w) * integral
    residue = b / gamma_pole_factor(deg_w)
    report = ResidueReport(
        kind=s.kind,
        twisted=twisted,
        density=density if density is not None else DiffForm.zero(s.n),
        integral=integral,
        b_coefficient=b,
        residue=residue,
        pole_location=Fraction(deg_w, 2),
    )
    if not twisted:
        # cross-check against the closed-form constants: the twisted
        # prefactor times 1/3 must reproduce the untwisted one.
        const = twisted_constant(s.kind)
        expected = const * Fraction(1, 3)
        direct = untwisted_constant(s.kind)
        report.untwisted_constant_ok = expected == direct
    return report


def twisted_constant(kind: str) -> Scalar:
    """4/(3 pi^2) for G2, 1/(2 pi^2) for Spin(7)."""
    return (
        Scalar.term(Fraction(4, 3), pi_half=-4)
        if kind == G2
        else Scalar.term(Fraction(1, 2), pi_half=-4)
    )


def untwisted_constant(kind: str) -> Scalar:
    """4/(9 pi^2) for G2, 1/(6 pi^2) for Spin(7)."""
    return (
        Scalar.term(Fraction(4, 9), pi_half=-4)
        if kind == G2
        else Scalar.term(Fraction(1, 6), pi_half=-4)
    )


def full_residue_report(s: HolonomyStructure, cd, twisted: Optional[bool] = None) -> ResidueReport:
    """Run the density -> b -> residue pipeline on curvature data."""
    if twisted is None:
        twisted = cd.has_bundle_curvature()
    density = residue_density(s, cd)
    integral = Scalar.of(density.top_coefficient())
    report = residue_value(s, twisted, integral, density)
    if twisted:
        report.instanton = instanton_check(s, cd)
    return report


@dataclass
class SignReport:
    kind: str
    residue: Scalar
    sign: Optional[int]  # -1 / 0 / +1, None when no conclusion is drawn
    is_instanton: Optional[bool]
    nonpositivity_violated: bool
    note: str


def sign_report(s: HolonomyStructure, cd) -> SignReport:
    """Sign bookkeeping for the residue on a concrete example."""
    return report_sign(full_residue_report(s, cd))


def report_sign(rep: ResidueReport) -> SignReport:
    """Sign bookkeeping for an existing residue report.

    For twisted data the instanton gate is enforced: without P7 F = 0 the
    report refuses a sign conclusion.
    """
    if rep.twisted and not rep.instanton.ok:
        return SignReport(
            kind=rep.kind,
            residue=rep.residue,
            sign=None,
            is_instanton=False,
            nonpositivity_violated=False,
            note="curvature has a nonzero 7-part; not an instanton, no sign conclusion",
        )
    sgn = _scalar_sign(rep.residue)
    violated = sgn is not None and sgn > 0
    note = "residue is exactly zero" if sgn == 0 else (
        "nonpositivity violated" if violated else "consistent with nonpositivity"
    )
    return SignReport(
        kind=rep.kind,
        residue=rep.residue,
        sign=sgn,
        is_instanton=(rep.instanton.ok if rep.instanton else None),
        nonpositivity_violated=violated,
        note=note,
    )


def _scalar_sign(x: Scalar) -> Optional[int]:
    if x.is_zero():
        return 0
    if len(x.terms) != 1:
        v = x.real_float()
        return (v > 0) - (v < 0)
    (p, q), (re, im) = next(iter(x.terms.items()))
    if im != 0 or q != 0:
        return None
    return (re > 0) - (re < 0)


def instanton_line_curvature(s: HolonomyStructure, base=(1, 2), scale=1):
    """Rank-1 curvature i * scale * P_big(e^base): passes the instanton gate."""
    from .heat import CurvatureData

    base_form = DiffForm.monomial(s.n, base)
    _, abig = decompose_two_form(s, base_form)
    f_entries = {}
    for m, c in abig.terms.items():
        lo = (m & -m).bit_length()
        hi = (m & (m - 1)).bit_length()
        f_entries[(lo, hi)] = ((Scalar.i() * Scalar.of(scale * c),),)
    return CurvatureData(s.n, 1, {}, f_entries)


def _require_real(c):
    if isinstance(c, Scalar):
        if any(im != 0 for (_, im) in c.terms.values()):
            raise ValueError(f"characteristic form coefficient is not real: {c}")
        return c
    return c


def _safe_float(x: Scalar):
    try:
        return x.real_float()
    except ValueError:
        z = x.evalf()
        return [z.real, z.imag]
