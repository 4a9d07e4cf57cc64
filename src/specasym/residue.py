"""Curvature data, Chern-Weil forms and the Gamma-factor arithmetic for
zeta residues.

``CurvatureData`` owns the curvature format.  It is built whole: its
constructor checks the index symmetries, stores R and F as integer
numerators over one least denominator each, and builds on those integers
the Chern-Weil sums (pi^2 p1, pi c1, pi^2 c2, pi^2 (c1^2 - c2)) that every
characteristic form here and every model trace in ``heat`` reads.  The
density w ^ ((1/3) p1 + c1^2 - c2) is a top form: integration over the
unit-volume flat model reads off its dvol coefficient, which is all that
is built, as one integer pairing lifted to one Fraction.  Residues follow
by exact division by Gamma(deg(w)/2 + 1), so they come out as exact
rational multiples of powers of pi.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
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

_ZERO = Fraction(0)


# ----------------------------------------------------------------------
# curvature data
# ----------------------------------------------------------------------

class CurvatureError(ValueError):
    pass


class CurvatureData:
    """Riemann-type tensor plus skew-Hermitian bundle curvature matrices.

    The curvature is stored once, as integer numerators over one least
    denominator per field, and every Chern-Weil sum is built on them when
    the data is constructed:

    * ``r_nums``: canonical index quadruple (i<j, k<l, pair-sorted) ->
      nonzero integer numerator of R_ijkl over ``r_den``, in input order;
    * ``f_planes``: mask of e^{ij} -> (real, imaginary) row-major integer
      numerators of F_ij over ``f_den``;
    * ``p1_nums``: mask -> numerator of pi^2 p1 over ``p1_den`` = 4 r_den^2;
    * ``c1_nums``, ``c2_nums``, ``bundle_nums``: mask -> numerators of
      pi c1, pi^2 c2 and pi^2 (c1^2 - c2) over ``chern_den`` = 8 f_den^2.

    The production routes pair the defining form with these integers and
    lift to Fraction or Scalar once, at the end: ``residue_density`` here,
    the model traces and both densities in ``heat``.  The Chern-Weil sums
    have no rational view.  The rational views of the curvature,
    ``r_entries`` (canonical quadruple -> R value), ``r_rows``
    ((i, j) -> [((k, l), R_ijkl)] with i < j and k < l, sorted, listed
    under both pairs) and ``f_entries`` ((i, j) -> the bundle map F_ij, a
    sparse ``{(a, b): Scalar}`` map, ``exterior.Mat``), are built on first
    use, for the full-kernel oracles and the tests; ``f_entries`` is in the
    format the constructor takes, so ``CurvatureData(n, r, cd.r_entries,
    cd.f_entries) == cd``.  Index symmetries are enforced on construction
    and never silently repaired.

    ``CurvatureData(n, r, r_entries, f_entries)`` reads rational R values
    and Scalar bundle maps; ``from_planes`` takes integer pairs and planes
    ready, as ``cli`` reads them from text.  Both end in ``_build``, the
    one place that checks the entries and builds the sums.

    ``model_trace_forms`` starts as None; ``heat.model_traces`` fills it
    on first use, so the model traces are built once per curvature.
    """

    __hash__ = None

    def __init__(self, n: int, r: int = 1,
                 r_entries: Optional[Dict[Tuple[int, int, int, int], Fraction]] = None,
                 f_entries: Optional[Dict[Tuple[int, int], Mat]] = None):
        self._build(n, r, ((key, _num_den(v)) for key, v in (r_entries or {}).items()),
                    ((key, _matrix_numerators(r, key, m)) for key, m in (f_entries or {}).items()))

    @classmethod
    def from_planes(cls, n: int, r: int, r_ratios, f_planes) -> "CurvatureData":
        """Curvature from ready integers: ``r_ratios`` maps (i, j, k, l) to
        (numerator, denominator > 0) of R_ijkl and ``f_planes`` maps (i, j)
        to (den, re, im), the row-major integer lists of the r x r matrix
        F_ij times den, for any den > 0; ``_build`` reduces both."""
        cd = cls.__new__(cls)
        cd._build(n, r, r_ratios.items(), f_planes.items())
        return cd

    def _build(self, n, r, r_items, f_items):
        """Check the entries and fill every field from the
        ((i, j, k, l), (num, den)) items of R and the ((i, j), (den, re, im))
        items of F."""
        self.n, self.r = n, r
        clean = {}
        for (i, j, k, l), (num, den) in r_items:
            if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n and 1 <= l <= n):
                raise CurvatureError(f"R indices must lie in 1..{n}, got ({i},{j},{k},{l})")
            if not num:
                continue
            key, sign = _canonical_r_key(i, j, k, l)
            if key is None:
                raise CurvatureError(f"degenerate index pattern R[{i}{j}{k}{l}]")
            if sign < 0:
                num = -num
            old = clean.get(key)
            if old is not None and old[0] * den != num * old[1]:
                raise CurvatureError(f"conflicting values for R{key}")
            clean[key] = num, den
        self.r_den, self.r_nums = _least_numerators(clean)
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
        self.model_trace_forms = None
        self.p1_den, self.p1_nums = 4 * self.r_den ** 2, _p1(self.r_nums)
        self.chern_den = 8 * self.f_den ** 2
        self.c1_nums, self.c2_nums, self.bundle_nums = _chern(r, self.f_den, self.f_planes)

    # -- rational views, built on first use ----------------------------------

    @cached_property
    def r_entries(self) -> Dict[Tuple[int, int, int, int], Fraction]:
        return _fractions(self.r_nums, self.r_den)

    @cached_property
    def r_rows(self) -> Dict[Tuple[int, int], List[Tuple[Tuple[int, int], Fraction]]]:
        # R_klij = R_ijkl; in key order every row comes out sorted
        rows = {}
        for (i, j, k, l), v in sorted(self.r_entries.items()):
            rows.setdefault((i, j), []).append(((k, l), v))
            if (i, j) != (k, l):
                rows.setdefault((k, l), []).append(((i, j), v))
        return rows

    @cached_property
    def f_entries(self) -> Dict[Tuple[int, int], Mat]:
        """(i, j) -> bundle map F_ij (i < j) with nonzero Scalar values."""
        return _scalar_matrices(self.r, self.f_den, self.f_planes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # least denominators make the numerators canonical
        return ((self.n, self.r, self.r_den, self.r_nums, self.f_den, self.f_planes)
                == (other.n, other.r, other.r_den, other.r_nums, other.f_den, other.f_planes))

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
        return bool(self.r_nums)

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


def _num_den(v) -> Tuple[int, int]:
    """(numerator, denominator) of a rational R value."""
    if type(v) is not int and type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator, v.denominator


def _least_numerators(ratios) -> Tuple[int, dict]:
    """(den, {key: numerator}) of the {key: (num, den > 0)} values over
    their least common denominator: the lcm of the denominators, divided
    by its gcd with every numerator."""
    den = lcm(*(d for _, d in ratios.values()))
    nums = {key: x * (den // d) for key, (x, d) in ratios.items()}
    g = gcd(den, *nums.values())
    return den // g, {key: x // g for key, x in nums.items()}


def _fractions(nums: dict, den: int) -> dict:
    """{key: numerator / den} as Fractions: the rational views."""
    return {key: Fraction(x, den) for key, x in nums.items()}


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


def _p1(r_nums) -> Dict[int, int]:
    """pi^2 p1 = (1/4) sum_{i<j} Omega_ij ^ Omega_ij (Omega_ji = -Omega_ij),
    Omega_ij = sum_{k<l} R_ijkl e^{kl}, as integer numerators over
    4 r_den^2 from the numerators of R over r_den.  The row of Omega_ij
    lists (mask of e^{kl}, R_ijkl) under the mask of e^{ij}, and
    R_klij = R_ijkl lists each entry under both of its pairs."""
    rows: Dict[int, list] = {}
    for (i, j, k, l), v in r_nums.items():
        ij, kl = (1 << i - 1) | (1 << j - 1), (1 << k - 1) | (1 << l - 1)
        rows.setdefault(ij, []).append((kl, v))
        if ij != kl:
            rows.setdefault(kl, []).append((ij, v))
    acc: Dict[int, int] = {}
    for row in rows.values():
        _pair_sum(row, mul, acc)
    return acc


def _chern(r, den, f_planes):
    """pi c1, pi^2 c2 and pi^2 (c1^2 - c2) as integer numerators over
    8 den^2, from the rank-r numerator planes over ``den``.

    tr F = i T / den, since its real numerators must vanish, so
    c1 = -T / (2 pi den) = -4 den T / (8 pi den^2).  With
    tr F ^ tr F = A / den^2 and tr(F ^ F) = B / den^2:
    c2 = (B - A) / (8 pi^2 den^2) and c1^2 - c2 = -(A + B) / (8 pi^2 den^2).
    F^T is (-re, im), so tr(F_m F_m') = -(re.re' + im.im') +
    i (re.im' - im.re'), and its imaginary numerators must vanish too.
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
    c1 = {m: -4 * den * t for m, t in trace}
    c2 = {m: b.get(m, 0) - a.get(m, 0) for m in a.keys() | b.keys()}
    return c1, c2, {m: -a.get(m, 0) - b.get(m, 0) for m in c2}


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def _not_real(re, im, pi_half):
    c = Scalar.term(re, im, pi_half=pi_half)
    raise ValueError(f"characteristic form coefficient is not real: {c}")


def pontryagin_p1(cd: CurvatureData) -> DiffForm:
    """First Pontryagin form -(1/8 pi^2) sum_ij Omega_ij ^ Omega_ji."""
    return _pi_form(cd.n, cd.p1_nums, cd.p1_den, -4)


def chern_forms(cd: CurvatureData) -> Tuple[DiffForm, DiffForm]:
    """(c1, c2) of the bundle from its skew-Hermitian curvature matrices."""
    return (_pi_form(cd.n, cd.c1_nums, cd.chern_den, -2),
            _pi_form(cd.n, cd.c2_nums, cd.chern_den, -4))


def characteristic_density_form(cd: CurvatureData) -> DiffForm:
    """(1/3) p1 + c1^2 - c2 as a 4-form."""
    return _pi_form(cd.n, *_characteristic_numerators(cd), -4)


def _characteristic_numerators(cd: CurvatureData) -> Tuple[Dict[int, int], int]:
    """pi^2 ((1/3) p1 + c1^2 - c2) as (mask -> integer numerator, den)."""
    p1, bundle, a, b = cd.p1_nums, cd.bundle_nums, cd.chern_den, 3 * cd.p1_den
    return ({m: a * p1.get(m, 0) + b * bundle.get(m, 0) for m in p1.keys() | bundle.keys()},
            a * b)


def _pi_form(n, nums, den, pi_half) -> DiffForm:
    """The form of the coefficients num / den * pi^(pi_half/2)."""
    return DiffForm(n, {m: Scalar.term(Fraction(x, den), pi_half=pi_half)
                        for m, x in nums.items()})


def characteristic_pairing(w: DiffForm, cd: CurvatureData) -> Fraction:
    """[w ^ pi^2 ((1/3) p1 + c1^2 - c2)]_n: w and the integer numerators of
    the sum are paired by complement lookups (``DiffForm.top_pairing``, no
    wedge formed), and the pairing over the sum's denominator is the one
    Fraction built.  A structure's w has int coefficients, so the pairing
    multiplies ints; a rational w gives the same exact Fraction."""
    nums, den = _characteristic_numerators(cd)
    return Fraction(w.top_pairing(DiffForm(cd.n, nums)), den)


def residue_density(s: HolonomyStructure, cd: CurvatureData) -> DiffForm:
    """w ^ ((1/3) p1 + c1^2 - c2), a degree-n form: only its dvol
    coefficient can be nonzero.  Pair over the integers, then lift once:
    the dvol coefficient is ``characteristic_pairing`` times pi^-2, the
    ``top_pairing`` of w with ``characteristic_density_form(cd)``."""
    top = characteristic_pairing(s.defining_form, cd)
    return DiffForm(s.n, {(1 << s.n) - 1: Scalar({(-4, 0): (top, _ZERO)} if top else None)})


# Gamma(deg(w)/2 + 1) = coef * pi^(pi_half/2) for deg(w) in {3, 4}:
# Gamma(5/2) = (3/4) sqrt(pi) and Gamma(3) = 2
_GAMMA_POLE = {3: (Fraction(3, 4), 1), 4: (Fraction(2), 0)}


def _gamma_pole(deg_w: int) -> Tuple[Fraction, int]:
    if deg_w not in _GAMMA_POLE:
        raise ValueError(f"unsupported defining-form degree {deg_w}")
    return _GAMMA_POLE[deg_w]


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
    coef, pi_half = _gamma_pole(deg_w)
    integral = Scalar.of(integral)
    # pi^(-deg(w)/2) and Gamma(deg(w)/2 + 1) = coef pi^(pi_half/2) move the
    # pi exponents of the integral's terms and divide its parts by coef
    b = Scalar({(p - deg_w, q): v for (p, q), v in integral.terms.items()})
    residue = Scalar({(p - deg_w - pi_half, q): (re / coef, im / coef if im else im)
                      for (p, q), (re, im) in integral.terms.items()})
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

