"""Curvature data, Chern-Weil forms and the Gamma-factor arithmetic for
zeta residues.

``CurvatureData`` owns the curvature format.  It is built whole: its
constructor checks the index symmetries, stores the Riemann rows and the
bundle numerator planes, and builds the Chern-Weil sums (pi^2 p1, pi c1,
pi^2 c2, pi^2 (c1^2 - c2)) that every characteristic form here and every
model trace in ``heat`` reads.  The density w ^ ((1/3) p1 + c1^2 - c2) is
a top form: integration over the unit-volume flat model reads off its dvol
coefficient, which is all that is built.  Residues follow by exact
division by Gamma(deg(w)/2 + 1), so they come out as exact rational
multiples of powers of pi.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isfinite, lcm
from operator import mul
from typing import Dict, List, Optional, Tuple

from .exact import Scalar
from .exterior import DiffForm, Mat, indices_of, mask_of, merge_sign
from .holonomy import (
    G2,
    HolonomyStructure,
    InstantonReport,
    decompose_two_form,
    instanton_check,
)
from .record import Record


# ----------------------------------------------------------------------
# curvature data
# ----------------------------------------------------------------------

class CurvatureError(ValueError):
    pass


class CurvatureData:
    """Riemann-type tensor plus skew-Hermitian bundle curvature matrices.

    ``r_entries`` maps canonical index quadruples (i<j, k<l, pair-sorted)
    to rational values; ``f_entries`` maps (i, j) with i<j to the bundle
    map F_ij, a sparse ``{(a, b): value}`` map with keys in range(r)^2
    and Gaussian-rational values (``exterior.Mat``).  Index symmetries are
    enforced on construction and never silently repaired.

    The bundle curvature is stored once, as integer planes:

    * ``f_planes``: mask of e^{ij} -> (real, imaginary) row-major integer
      numerators of F_ij over one denominator ``f_den``, the least one;
    * ``r_rows``: (i, j) -> [((k, l), R_ijkl)] with i < j and k < l,
      sorted, listed under both pairs;
    * the Chern-Weil sums, mask -> rational maps: ``pi2_p1`` = pi^2 p1,
      ``pi_c1`` = pi c1, ``pi2_c2`` = pi^2 c2 and ``pi2_bundle`` =
      pi^2 (c1^2 - c2).

    ``CurvatureData(n, r, r_entries, f_entries)`` reads the bundle maps
    into numerators; ``from_planes`` takes them ready, as ``cli`` reads
    them from text.  Both end in ``_build``, the one place that checks the
    entries and builds the sums.  ``f_entries`` is derived from the planes
    on first use, in the format the constructor takes, so
    ``CurvatureData(n, r, cd.r_entries, cd.f_entries) == cd``; only the
    oracles read it.

    ``model_trace_forms`` starts as None; ``heat.model_traces`` fills it
    on first use, so the model traces are built once per curvature.
    """

    __hash__ = None

    def __init__(self, n: int, r: int = 1,
                 r_entries: Optional[Dict[Tuple[int, int, int, int], Fraction]] = None,
                 f_entries: Optional[Dict[Tuple[int, int], Mat]] = None):
        self._build(n, r, r_entries or {},
                    ((key, _matrix_numerators(r, key, m)) for key, m in (f_entries or {}).items()))

    @classmethod
    def from_planes(cls, n: int, r: int, r_entries, f_planes) -> "CurvatureData":
        """Curvature from ready numerators: ``f_planes`` maps (i, j) to
        (den, re, im), the row-major integer lists of the r x r matrix F_ij
        times den, for any den > 0; ``_build`` reduces it."""
        cd = cls.__new__(cls)
        cd._build(n, r, r_entries, f_planes.items())
        return cd

    def _build(self, n, r, r_entries, f_items):
        """Check the entries and fill every field from the R values and the
        ((i, j), (den, re, im)) items of F."""
        self.n, self.r = n, r
        clean = {}
        for (i, j, k, l), v in r_entries.items():
            if not all(1 <= x <= n for x in (i, j, k, l)):
                raise CurvatureError(f"R indices must lie in 1..{n}, got ({i},{j},{k},{l})")
            if type(v) is not Fraction:
                v = Fraction(v)
            if v == 0:
                continue
            key, sign = _canonical_r_key(i, j, k, l)
            if key is None:
                raise CurvatureError(f"degenerate index pattern R[{i}{j}{k}{l}]")
            want = v if sign > 0 else -v
            if key in clean and clean[key] != want:
                raise CurvatureError(f"conflicting values for R{key}")
            clean[key] = want
        self.r_entries = clean
        # R_klij = R_ijkl; in key order every row comes out sorted
        self.r_rows = {}
        for (i, j, k, l), v in sorted(clean.items()):
            self.r_rows.setdefault((i, j), []).append(((k, l), v))
            if (i, j) != (k, l):
                self.r_rows.setdefault((k, l), []).append(((i, j), v))
        planes = {}
        for (i, j), (den, re, im) in f_items:
            if not (1 <= i < j <= n):
                raise CurvatureError(f"F indices must satisfy i<j, got ({i},{j})")
            # F^* = -F: the real part antisymmetric, the imaginary part symmetric
            if any(re[a * r + b] != -re[b * r + a] or im[a * r + b] != im[b * r + a]
                   for a in range(r) for b in range(a, r)):
                raise CurvatureError(f"F[{i},{j}] is not skew-Hermitian")
            if any(re) or any(im):
                g = gcd(den, *re, *im)  # the least denominator of this matrix
                if g > 1:
                    den, re, im = den // g, [x // g for x in re], [x // g for x in im]
                planes[mask_of((i, j))] = (den, re, im)
        self.f_den = lcm(*(den for den, _, _ in planes.values()))
        self.f_planes = {m: (re, im) if den == self.f_den else
                         tuple([x * (self.f_den // den) for x in p] for p in (re, im))
                         for m, (den, re, im) in planes.items()}
        self._f_entries = None
        self.model_trace_forms = None
        self.pi2_p1 = _p1(self.r_rows)
        self.pi_c1, self.pi2_c2, self.pi2_bundle = _chern(r, self.f_den, self.f_planes)

    @property
    def f_entries(self) -> Dict[Tuple[int, int], Mat]:
        """(i, j) -> bundle map F_ij (i < j) with nonzero Scalar values,
        built from the planes on first use."""
        if self._f_entries is None:
            self._f_entries = _scalar_matrices(self.r, self.f_den, self.f_planes)
        return self._f_entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the least common denominator makes the planes canonical
        return ((self.n, self.r, self.r_entries, self.f_den, self.f_planes)
                == (other.n, other.r, other.r_entries, other.f_den, other.f_planes))

    def __repr__(self):
        return (f"CurvatureData(n={self.n!r}, r={self.r!r}, r_entries={self.r_entries!r}, "
                f"f_entries={self.f_entries!r})")

    # -- accessors ---------------------------------------------------------

    def r_component(self, i: int, j: int, k: int, l: int) -> Fraction:
        key, sign = _canonical_r_key(i, j, k, l)
        if key is None:
            return Fraction(0)
        return sign * self.r_entries.get(key, Fraction(0))

    def f_matrix(self, i: int, j: int) -> Mat:
        """F_ij for any i, j as a bundle map (F_ji = -F_ij)."""
        if i <= j:
            return self.f_entries.get((i, j), {})
        return {ab: -v for ab, v in self.f_entries.get((j, i), {}).items()}

    def rhat(self, i: int, j: int) -> DiffForm:
        """(1/4) sum_{k,l} R_{ijkl} e^k ^ e^l = (1/2) sum_{k<l} R_{ijkl} e^{kl}."""
        sign = 1 if i < j else -1  # R_jikl = -R_ijkl; the row of (i, i) is empty
        row = self.r_rows.get((min(i, j), max(i, j)), ())
        return DiffForm(self.n, {mask_of(kl): Fraction(sign * v, 2) for kl, v in row})

    def has_riemann_curvature(self) -> bool:
        return bool(self.r_entries)

    def has_bundle_curvature(self) -> bool:
        return bool(self.f_planes)

    def scaled(self, lam) -> "CurvatureData":
        lam = Fraction(lam)
        return CurvatureData(
            self.n,
            self.r,
            {k: v * lam for k, v in self.r_entries.items()},
            {k: {ab: v * lam for ab, v in m.items()} for k, m in self.f_entries.items()},
        )

    def bianchi_defect(self) -> Fraction:
        """max |R_{ijkl} + R_{iklj} + R_{iljk}| over index quadruples."""
        worst = Fraction(0)
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                for k in range(1, self.n + 1):
                    for l in range(1, self.n + 1):
                        s = (
                            self.r_component(i, j, k, l)
                            + self.r_component(i, k, l, j)
                            + self.r_component(i, l, j, k)
                        )
                        worst = max(worst, abs(s))
        return worst

    def bianchi_symmetrized(self) -> "CurvatureData":
        """Remove the fully antisymmetric part so the cyclic identity holds."""
        new_entries: Dict[Tuple[int, int, int, int], Fraction] = {}
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                for k in range(1, self.n + 1):
                    for l in range(k + 1, self.n + 1):
                        if (i, j) > (k, l):
                            continue
                        cyc = (
                            self.r_component(i, j, k, l)
                            + self.r_component(i, k, l, j)
                            + self.r_component(i, l, j, k)
                        ) / 3
                        v = self.r_component(i, j, k, l) - cyc
                        if v:
                            new_entries[(i, j, k, l)] = v
        return CurvatureData(self.n, self.r, new_entries, dict(self.f_entries))


def _matrix_numerators(r: int, key, m: Mat) -> Tuple[int, List[int], List[int]]:
    """(den, re, im) of the bundle map ``m`` under ``key``: row-major
    planes of its Gaussian-rational Scalar (or rational) values."""
    mat = [Scalar()] * (r * r)
    rows = range(r)
    for (a, b), x in m.items():
        if a not in rows or b not in rows:
            raise CurvatureError("bundle curvature matrix has wrong rank")
        mat[a * r + b] = Scalar.of(x)
    parts = _gaussian_numerators(mat)
    if parts is None:
        raise CurvatureError(f"F[{key[0]},{key[1]}] entries must be Gaussian rationals")
    return parts


def _gaussian_numerators(values: List[Scalar]) -> Optional[Tuple[int, List[int], List[int]]]:
    """(den, re, im) with ``re[k] / den`` and ``im[k] / den`` the real and
    imaginary parts of ``values[k]``, read off each (0, 0) pair; None if a
    value has a nonzero part with a power of pi or t."""
    if any(key != (0, 0) and (a or b) for x in values for key, (a, b) in x.terms.items()):
        return None
    pairs = [x.terms.get((0, 0), (0, 0)) for x in values]
    den = lcm(*(v.denominator for pair in pairs for v in pair))
    return (den, [a.numerator * (den // a.denominator) for a, _ in pairs],
            [b.numerator * (den // b.denominator) for _, b in pairs])


def _scalar_matrices(r: int, den: int, planes) -> Dict[Tuple[int, int], Mat]:
    """(i, j) -> bundle map F_ij from the numerator planes over ``den``, in
    plane order, with the zero entries left out."""
    return {
        indices_of(m): {divmod(k, r): Scalar.term(Fraction(x, den), Fraction(y, den))
                        for k, (x, y) in enumerate(zip(re, im)) if x or y}
        for m, (re, im) in planes.items()
    }


def _canonical_r_key(i, j, k, l):
    sign = 1
    if i == j or k == l:
        return None, 0
    if i > j:
        i, j = j, i
        sign = -sign
    if k > l:
        k, l = l, k
        sign = -sign
    if (i, j) > (k, l):
        i, j, k, l = k, l, i, j
    return (i, j, k, l), sign


def random_curvature(
    n: int,
    r: int = 1,
    seed: int = 0,
    with_riemann: bool = True,
    with_bundle: bool = True,
    bianchi: bool = False,
) -> CurvatureData:
    """Random exact curvature data with the required index symmetries."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    r_entries = {}
    if with_riemann:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for a, (i, j) in enumerate(pairs):
            for (k, l) in pairs[a:]:
                v = q()
                if v and rng.random() < 0.4:
                    r_entries[(i, j, k, l)] = v
    f_entries = {}
    if with_bundle:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.25:
                    # F = i H with H Hermitian: i q on the diagonal, and
                    # i (re + i im) = -im + i re above it, im + i re below
                    f = {}
                    for a in range(r):
                        f[a, a] = Scalar.i(q())
                        for b in range(a + 1, r):
                            re, im = q(), q()
                            f[a, b], f[b, a] = Scalar.term(-im, re), Scalar.term(im, re)
                    f_entries[(i, j)] = f
    cd = CurvatureData(n, r, r_entries, f_entries)
    return cd.bianchi_symmetrized() if bianchi else cd


# ----------------------------------------------------------------------
# Chern-Weil sums and characteristic forms
# ----------------------------------------------------------------------

def _pair_sum(planes, product, acc) -> Dict[int, int]:
    """acc[4-plane] += sum over ordered pairs of disjoint 2-planes of sign *
    product: 2-forms commute and ``product`` is symmetric, so each
    unordered pair is taken once, twice over."""
    for a, (m1, x1) in enumerate(planes):
        for m2, x2 in planes[a + 1:]:
            if not m1 & m2:
                acc[m1 | m2] = acc.get(m1 | m2, 0) + 2 * merge_sign(m1, m2) * product(x1, x2)
    return acc


def _p1(r_rows) -> Dict[int, Fraction]:
    """pi^2 p1 = (1/4) sum_{i<j} Omega_ij ^ Omega_ij (Omega_ji = -Omega_ij),
    Omega_ij = sum_{k<l} R_ijkl e^{kl}, on integer numerators of the rows."""
    den = lcm(*(v.denominator for row in r_rows.values() for _, v in row))
    acc: Dict[int, int] = {}
    for row in r_rows.values():
        _pair_sum([(mask_of(kl), v.numerator * (den // v.denominator)) for kl, v in row], mul, acc)
    return {m: Fraction(x, 4 * den * den) for m, x in acc.items()}


def _chern(r, den, f_planes):
    """pi c1, pi^2 c2 and pi^2 (c1^2 - c2) from the rank-r numerator planes
    over ``den``.

    tr F = i T / den, since its real numerators must vanish, so
    c1 = -T / (2 pi den).  With tr F ^ tr F = A / den^2 and
    tr(F ^ F) = B / den^2: c2 = (B - A) / (8 pi^2 den^2) and
    c1^2 - c2 = -(A + B) / (8 pi^2 den^2).  F^T is (-re, im), so
    tr(F_m F_m') = -(re.re' + im.im') + i (re.im' - im.re'), and its
    imaginary numerators must vanish too.
    """
    scale = 8 * den ** 2
    planes = sorted(f_planes.items())
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


def pontryagin_p1(cd: CurvatureData) -> DiffForm:
    """First Pontryagin form -(1/8 pi^2) sum_ij Omega_ij ^ Omega_ji."""
    return _pi2_form(cd.n, cd.pi2_p1)


def chern_forms(cd: CurvatureData) -> Tuple[DiffForm, DiffForm]:
    """(c1, c2) of the bundle from its skew-Hermitian curvature matrices."""
    c1 = DiffForm(cd.n, {m: Scalar.term(c, pi_half=-2) for m, c in cd.pi_c1.items()})
    return c1, _pi2_form(cd.n, cd.pi2_c2)


def characteristic_density_form(cd: CurvatureData) -> DiffForm:
    """(1/3) p1 + c1^2 - c2 as a 4-form."""
    return _pi2_form(cd.n, _characteristic_coefficients(cd))


def _characteristic_coefficients(cd: CurvatureData) -> Dict[int, Fraction]:
    """pi^2 ((1/3) p1 + c1^2 - c2), mask -> rational."""
    p1, bundle = cd.pi2_p1, cd.pi2_bundle
    return {m: Fraction(p1.get(m, 0), 3) + bundle.get(m, 0) for m in p1.keys() | bundle.keys()}


def _pi2_form(n, coefficients) -> DiffForm:
    return DiffForm(n, {m: Scalar.term(c, pi_half=-4) for m, c in coefficients.items()})


def residue_density(s: HolonomyStructure, cd: CurvatureData) -> DiffForm:
    """w ^ ((1/3) p1 + c1^2 - c2), a degree-n form: only its dvol
    coefficient can be nonzero.  Pair over Q, then lift once: w is paired
    with pi^2 ((1/3) p1 + c1^2 - c2) by complement lookups
    (``DiffForm.top_pairing``, no wedge formed), and the rational result
    becomes one Scalar times pi^-2.  It equals the ``top_pairing`` of w
    with ``characteristic_density_form(cd)``."""
    top = s.defining_form.top_pairing(DiffForm(s.n, _characteristic_coefficients(cd)))
    return DiffForm(s.n, {(1 << s.n) - 1: Scalar.term(top, pi_half=-4)})


def gamma_pole_factor(deg_w: int) -> Scalar:
    """Gamma(deg(w)/2 + 1) for deg(w) in {3, 4}, kept exact."""
    if deg_w == 3:
        # Gamma(5/2) = (3/4) sqrt(pi)
        return Scalar.term(Fraction(3, 4), pi_half=1)
    if deg_w == 4:
        return Scalar.of(2)  # Gamma(3)
    raise ValueError(f"unsupported defining-form degree {deg_w}")


class ResidueReport(Record):
    _fields = ("kind", "twisted", "density", "integral", "b_coefficient", "residue",
               "pole_location", "untwisted_constant_ok", "instanton")

    def __init__(self, kind: str, twisted: bool, density: DiffForm, integral: Scalar,
                 b_coefficient: Scalar, residue: Scalar, pole_location: Fraction,
                 untwisted_constant_ok: Optional[bool] = None,
                 instanton: Optional[InstantonReport] = None):
        self.kind = kind
        self.twisted = twisted
        self.density = density
        self.integral = integral
        self.b_coefficient = b_coefficient
        self.residue = residue
        self.pole_location = pole_location
        self.untwisted_constant_ok = untwisted_constant_ok
        self.instanton = instanton

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
    if rep.max_component == 0.0:
        return "P7 component nonzero but below the float range"
    return f"P7 component up to {rep.max_component:.3e}"


def residue_value(
    s: HolonomyStructure,
    twisted: bool,
    integral,
    density: DiffForm,
) -> ResidueReport:
    """Assemble the residue from the integrated density coefficient.

    ``integral`` is the dvol coefficient of ``density``, the form
    w ^ ((1/3) p1 + c1^2 - c2) over the unit-volume flat model.  The heat
    coefficient is b = pi^(-deg(w)/2) * integral and the residue is
    b / Gamma(deg(w)/2 + 1).
    """
    deg_w = s.degree
    integral = Scalar.of(integral)
    b = Scalar.pi_pow(-deg_w) * integral
    residue = b / gamma_pole_factor(deg_w)
    report = ResidueReport(
        kind=s.kind,
        twisted=twisted,
        density=density,
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


def full_residue_report(s: HolonomyStructure, cd) -> ResidueReport:
    """Run the density -> b -> residue pipeline on curvature data; it is
    twisted, with an instanton check, when ``cd`` has bundle curvature."""
    twisted = cd.has_bundle_curvature()
    density = residue_density(s, cd)
    integral = Scalar.of(density.top_coefficient())
    report = residue_value(s, twisted, integral, density)
    if twisted:
        report.instanton = instanton_check(s, cd)
    return report


class SignReport(Record):
    _fields = ("kind", "residue", "sign", "is_instanton", "nonpositivity_violated", "note")

    def __init__(self, kind: str, residue: Scalar, sign: Optional[int],
                 is_instanton: Optional[bool], nonpositivity_violated: bool, note: str):
        self.kind = kind
        self.residue = residue
        self.sign = sign  # -1 / 0 / +1, None when no conclusion is drawn
        self.is_instanton = is_instanton
        self.nonpositivity_violated = nonpositivity_violated
        self.note = note


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
    base_form = DiffForm.monomial(s.n, base)
    _, abig = decompose_two_form(s, base_form)
    f_entries = {}
    for m, c in abig.terms.items():
        lo = (m & -m).bit_length()
        hi = (m & (m - 1)).bit_length()
        f_entries[(lo, hi)] = {(0, 0): Scalar.i() * Scalar.of(scale * c)}
    return CurvatureData(s.n, 1, {}, f_entries)


def _safe_float(x: Scalar):
    """The value as a float, [re, im] if it is not real, None past the
    float range."""
    try:
        z = x.evalf()
    except OverflowError:
        return None
    if not (isfinite(z.real) and isfinite(z.imag)):
        return None
    try:
        return x.real_float()
    except ValueError:
        return [z.real, z.imag]
