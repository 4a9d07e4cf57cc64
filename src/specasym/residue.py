"""Chern-Weil forms and the Gamma-factor arithmetic for zeta residues.

The density w ^ ((1/3) p1 + c1^2 - c2) is built from constant curvature
data; integration over the unit-volume flat model reads off its dvol
coefficient.  Residues follow by exact division by Gamma(deg(w)/2 + 1),
so they come out as exact rational multiples of powers of pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Dict, Optional, Tuple

from .exact import Scalar
from .exterior import DiffForm, mask_of, merge_sign
from .holonomy import (
    G2,
    HolonomyStructure,
    InstantonReport,
    decompose_two_form,
    instanton_check,
)


def pontryagin_p1(cd) -> DiffForm:
    """First Pontryagin form -(1/8 pi^2) sum_ij Omega_ij ^ Omega_ji."""
    return _pi2_form(cd.n, chern_weil_sums(cd)[0])


def chern_forms(cd) -> Tuple[DiffForm, DiffForm]:
    """(c1, c2) of the bundle from its skew-Hermitian curvature matrices."""
    _, c1, c2, _ = chern_weil_sums(cd)
    c1 = DiffForm(cd.n, {m: Scalar.term(c, pi_half=-2) for m, c in c1.items()})
    return c1, _pi2_form(cd.n, c2)


def characteristic_density_form(cd) -> DiffForm:
    """(1/3) p1 + c1^2 - c2 as a 4-form."""
    p1, _, _, bundle = chern_weil_sums(cd)
    keys = p1.keys() | bundle.keys()
    return _pi2_form(cd.n, {m: Fraction(p1.get(m, 0), 3) + bundle.get(m, 0) for m in keys})


def _pi2_form(n, coefficients) -> DiffForm:
    return DiffForm(n, {m: Scalar.term(c, pi_half=-4) for m, c in coefficients.items()})


def chern_weil_sums(cd):
    """(pi^2 p1, pi c1, pi^2 c2, pi^2 (c1^2 - c2)) as mask -> rational maps.

    Every characteristic form and model trace reads these sums, so they are
    built once per curvature data (``_p1`` and ``_chern``) and cached on it.
    """
    if cd._chern_weil is None:
        cd._chern_weil = (_p1(cd),) + _chern(cd)
    return cd._chern_weil


def _pair_sum(planes, product, acc) -> Dict[int, int]:
    """acc[4-plane] += sum over ordered pairs of disjoint 2-planes of sign *
    product: 2-forms commute and ``product`` is symmetric, so each
    unordered pair is taken once, twice over."""
    for a, (m1, x1) in enumerate(planes):
        for m2, x2 in planes[a + 1:]:
            if not m1 & m2:
                acc[m1 | m2] = acc.get(m1 | m2, 0) + 2 * merge_sign(m1, m2) * product(x1, x2)
    return acc


def _p1(cd) -> Dict[int, Fraction]:
    """pi^2 p1 = (1/4) sum_{i<j} Omega_ij ^ Omega_ij (Omega_ji = -Omega_ij),
    Omega_ij = sum_{k<l} R_ijkl e^{kl}, on integer numerators of R."""
    den = lcm(*(v.denominator for row in cd._r_rows.values() for _, v in row))
    acc: Dict[int, int] = {}
    for row in cd._r_rows.values():
        _pair_sum([(mask_of(kl), v.numerator * (den // v.denominator)) for kl, v in row], mul, acc)
    return {m: Fraction(x, 4 * den * den) for m, x in acc.items()}


def _chern(cd):
    """pi c1, pi^2 c2 and pi^2 (c1^2 - c2) from the numerator planes.

    tr F = i T / den, since its real numerators must vanish, so
    c1 = -T / (2 pi den).  With tr F ^ tr F = A / den^2 and
    tr(F ^ F) = B / den^2: c2 = (B - A) / (8 pi^2 den^2) and
    c1^2 - c2 = -(A + B) / (8 pi^2 den^2).  F^T is (-re, im), so
    tr(F_m F_m') = -(re.re' + im.im') + i (re.im' - im.re'), and its
    imaginary numerators must vanish too.
    """
    r, den, scale = cd.r, cd._f_den, 8 * cd._f_den ** 2
    planes = sorted(cd._f_planes.items())
    trace = [(m, sum(im[::r + 1])) for m, (_, im) in planes]
    for (_, (re, _)), (_, t) in zip(planes, trace):
        if sum(re[::r + 1]):
            _not_real(Fraction(-t, 2 * den), Fraction(sum(re[::r + 1]), 2 * den), -2)
    a = _pair_sum(trace, lambda t1, t2: -t1 * t2, {})
    b = _pair_sum(planes, lambda f1, f2: -_dot(f1[0], f2[0]) - _dot(f1[1], f2[1]), {})
    b_im = _pair_sum(planes, lambda f1, f2: _dot(f1[0], f2[1]) - _dot(f1[1], f2[0]), {})
    for m, y in b_im.items():
        if y:
            _not_real(Fraction(b.get(m, 0) - a.get(m, 0), scale), Fraction(y, scale), -4)
    c1 = {m: Fraction(-t, 2 * den) for m, t in trace}
    c2 = {m: Fraction(b.get(m, 0) - a.get(m, 0), scale) for m in a.keys() | b.keys()}
    return c1, c2, {m: Fraction(-a.get(m, 0) - b.get(m, 0), scale) for m in c2}


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def _not_real(re, im, pi_half):
    c = Scalar.term(re, im, pi_half=pi_half)
    raise ValueError(f"characteristic form coefficient is not real: {c}")


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
            "instanton_warning": _instanton_warning(self.instanton),
        }


def _instanton_warning(rep: Optional[InstantonReport]) -> Optional[str]:
    if rep is None or rep.ok:
        return None
    if rep.max_component == 0.0 and not rep.exact_zero:
        return "P7 component nonzero but below the float range"
    return f"P7 component up to {rep.max_component:.3e}"


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


def _safe_float(x: Scalar):
    try:
        return x.real_float()
    except ValueError:
        z = x.evalf()
        return [z.real, z.imag]
