"""Model-operator heat kernel: Mehler product form and a Duhamel oracle.

The model operator keeps the top-weight part of the twisted form
Laplacian at a point: a flat Laplacian, a rotation drift with 2-form
coefficients, a quadratic potential built from the same 2-forms, and a
constant curvature term in the form/word algebra.  Its diagonal value is
computed two independent ways:

* ``mehler_kernel``: closed product form - determinant factor (matrix
  ``x/sinh x`` series through nilpotent form entries) times a terminating
  curvature exponential;
* ``duhamel_kernel``: second-order perturbation theory around the flat
  Gaussian kernel, with every iterated integral done exactly by Wick
  contractions of the Brownian-bridge covariance.

The densities build neither kernel.  At form degree 4, the only degree
the weighted density reads, both need just tr Q, tr V and tr V^2
(``model_traces``), which are the Chern-Weil pair sums of ``residue``:
tr Q = -(1/2) pi^2 p1, tr V = 2^n i pi c1 and tr V^2 = 2^n (-4 r pi^2 p1
+ pi^2 (2 c2 - c1^2)).  The sums are integer fields of
``residue.CurvatureData`` (numerators over one denominator each), built
once when the data is constructed, and the three traces are built from
them once per CurvatureData, on first use, as integer numerator forms
over one least denominator, so the Mehler and the Duhamel density of one
call share them.

Each density has two tiers: a production route that pairs over the
integers, then lifts once, and a full-kernel oracle.  The weighted
density is a linear functional [w ^ .]_n of tr Q and tr V^2 (the pairing
of w with tr V, a 2-form, is zero), so w, whose coefficients are ints for
both structures (``holonomy.standard_structure``), is paired with the
numerators of the traces through complement lookups
(``DiffForm.top_pairing``: only the complement of each term of w is read,
and no wedge is formed), the integer pairings are combined over one
denominator, and ``_lift_density`` is the one place they are lifted: one
Fraction per power of t, times TRACE_NORMALISATION (4 pi t)^{-n/2}, with
no Scalar product.  ``mehler_diag_trace`` combines
them in ``_mehler_pairing``; ``duhamel_density`` pairs the form trace of
each Wick term (with no drift, since rhat is antisymmetric) and sums them
with their coefficients.  The Wick terms are listed once (``wick_terms``);
``wick_kernel`` multiplies them out, so ``mehler_kernel`` and
``duhamel_kernel``, read through ``density_from_kernel``, are the
independent full-kernel oracles.  The oracles build ``WordOperator``s,
whose products multiply integer numerators over one denominator per
operator, and lift to ``Scalar`` once, in ``form_trace``.  They import
``wordops`` when they run, so the densities, the calibration and a
fresh process's start-up never load it.

The two normalisation constants follow.  Per unit 2^n t^2 (4 pi t)^{-n/2},
the degree-4 trace is (1/2) l_1 tr(4 Q) r + tr V^2 / 2 with l_1 = -1/6:
(1/6) r pi^2 p1 - 2 r pi^2 p1 - (1/2) pi^2 (c1^2 - 2 c2).  On rank-1
bundle data (c2 = 0, no p1) the calibration target is pi^2 c1^2, so the
trace normalisation is -2 (``TRACE_NORMALISATION``, by which both
densities multiply), and the calibrated density is
(11/3) r pi^2 p1 + pi^2 (c1^2 - 2 c2): 11/3 = 2 (2 - 1/6) is 11 r times
the paper's (1/3) p1, and the bundle sector is c1^2 - 2 c2 = 2 ch_2,
which is the paper's c1^2 - c2 only at rank 1.  ``calibration_constant``
still measures target / route on that family, and the heat suite checks
that it reads -2, so a wrong model trace fails a check.

``landau_kernel`` runs the same Wick engine on the *untruncated* flat
operator with constant bundle curvature; it feeds
``model_reduction_ratio``, the untruncated / model ratios 1/16 (G2) and
1/32 (Spin(7)), which the heat suite checks against 2^(3-n).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import factorial, gcd, lcm, pi as _PI, sinh as _sinh, sqrt as _sqrt
from operator import add, mul
from typing import TYPE_CHECKING, List, Optional, Tuple

from .exact import Scalar
from .exterior import DiffForm, mask_of, sparse_product
from .residue import CurvatureData, characteristic_pairing

if TYPE_CHECKING:  # the full-kernel oracles import wordops when they run
    from .wordops import WordOperator

FormMatrix = List[List[DiffForm]]

# the derived trace normalisation of the weighted densities (module docstring)
_TRACE_NORM = -2
TRACE_NORMALISATION = Scalar.of(_TRACE_NORM)
_ZERO = Fraction(0)


# ----------------------------------------------------------------------
# Q matrix and determinant factor
# ----------------------------------------------------------------------

def q_matrix(cd: CurvatureData) -> FormMatrix:
    """Q_{jk} = -(1/4) sum_i rhat_{ij} ^ rhat_{ik} (4-form entries).

    Only the oracles build it; the densities read its trace from
    ``model_traces``.  2-forms commute, so Q is symmetric: only j <= k is
    built, over the nonempty rhat rows.
    """
    n = cd.n
    q = [[DiffForm.zero(n)] * n for _ in range(n)]
    for i in range(1, n + 1) if cd.r_entries else ():
        rh = [(j - 1, f) for j in range(1, n + 1) if (f := cd.rhat(i, j)).terms]
        for a, (j, fj) in enumerate(rh):
            fj = fj.scale(Fraction(-1, 4))
            for k, fk in rh[a:]:
                q[j][k] = q[k][j] = q[j][k] + fj.wedge(fk)
    return q


def form_matrix_trace(m: FormMatrix) -> DiffForm:
    out = m[0][0]
    for i in range(1, len(m)):
        out = out + m[i][i]
    return out


def _form_matrix_mul(a: FormMatrix, b: FormMatrix) -> FormMatrix:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i][0].wedge(b[0][j])
            for k in range(1, n):
                acc = acc + a[i][k].wedge(b[k][j])
            row.append(acc)
        out.append(row)
    return out


def _log_x_over_sinh_series(kmax: int) -> List[Fraction]:
    """Coefficients l_k of log(x/sinh x) = sum_k l_k (x^2)^k."""
    # sinh(x)/x = sum_m y^m / (2m+1)!  with y = x^2
    s = [Fraction(1)]
    fact = 1
    for m in range(1, kmax + 1):
        fact *= (2 * m) * (2 * m + 1)
        s.append(Fraction(1, fact))
    # log(s) = sum_{p>=1} (-1)^{p+1} (s-1)^p / p, truncated at degree kmax
    u = [Fraction(0)] + s[1:]
    log_s = [Fraction(0)] * (kmax + 1)
    power = [Fraction(1)] + [Fraction(0)] * kmax
    for p in range(1, kmax + 1):
        power = _series_mul(power, u, kmax)
        sign = Fraction((-1) ** (p + 1), p)
        for d in range(kmax + 1):
            log_s[d] += sign * power[d]
    return [-c for c in log_s[1:]]


def _series_mul(a, b, kmax):
    out = [Fraction(0)] * (kmax + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0 or i + j > kmax:
                continue
            out[i + j] += ai * bj
    return out


# (1/2) l_1 4 = 2 l_1 = -1/3: the weight of tr Q in the degree-4 trace
_DET_WEIGHT = 2 * _log_x_over_sinh_series(1)[0]


def form_exp(f: DiffForm) -> DiffForm:
    """exp of an even form with no degree-0 part (terminating series)."""
    if 0 in f.terms:
        raise ValueError("exponent must have no scalar part")
    out = DiffForm.one(f.n)
    power = DiffForm.one(f.n)
    k = 0
    while True:
        k += 1
        power = power.wedge(f)
        if power.is_zero():
            break
        out = out + power.scale(Fraction(1, factorial(k)))
    return out


def mehler_det_factor(q: FormMatrix, n: int) -> DiffForm:
    """(4 pi t)^{-n/2} det(X / sinh X)^{1/2} with X^2 = 4 t^2 Q.

    Q must have nilpotent entries (no degree-0 part); the result is an
    exact Laurent polynomial in sqrt(t) with even-form coefficients.
    """
    for row in q:
        for entry in row:
            if 0 in entry.terms:
                raise ValueError("Q has a nonzero scalar part")
    kmax = max(1, n // 4)
    coeffs = _log_x_over_sinh_series(kmax)
    t2 = Scalar.term(Fraction(4), t_half=4)  # 4 t^2
    m = [[entry.scale(t2) for entry in row] for row in q]
    log_sum = DiffForm.zero(n)
    power = m
    for k in range(1, kmax + 1):
        tr = form_matrix_trace(power)
        log_sum = log_sum + tr.scale(coeffs[k - 1])
        if k < kmax:
            power = _form_matrix_mul(power, m)
    half_log = log_sum.scale(Fraction(1, 2))
    return form_exp(half_log).scale(gaussian_prefactor(n))


# ----------------------------------------------------------------------
# model potential and Mehler kernel
# ----------------------------------------------------------------------

def model_constant_potential(cd: CurvatureData) -> WordOperator:
    """The constant term V = V_R (x) 1_r + V_F of the model, built in full.

    V = -(1/4) sum_{ij} e^{ij} R_{ijkl} chat^l chat^k - (1/2) sum_{i<j} e^{ij} F_{ij}.
    Ordered (i, j), (j, i) and (k, l), (l, k) give four equal terms, so the
    coefficient of e^{ij} (x) chat^{kl} (i<j, k<l) is R_ijkl 1_r.  V_F =
    -F/2 halves the bundle maps of ``cd.f_entries``.  Only the oracles
    build it; the densities read ``model_traces``.
    """
    from .wordops import WordOperator, eye

    n, r, minus_half = cd.n, cd.r, Fraction(-1, 2)
    terms = {
        (mask_of(ij), 0, mask_of(kl)): eye(r, v)
        for ij, row in cd.r_rows.items()
        for kl, v in row
    }
    terms.update({
        (mask_of(ij), 0, 0): {ab: v * minus_half for ab, v in m.items()}
        for ij, m in cd.f_entries.items()
    })
    return WordOperator(n, r, terms)


def model_traces(cd: CurvatureData) -> Tuple[int, DiffForm, DiffForm, DiffForm]:
    """(den, tr Q, tr V, tr V^2): all the densities read of the model
    operator, as integer numerator forms over one least denominator den.
    tr Q and tr V^2 are their numerator forms over den; tr V is i times
    its numerator form over den.  The least den makes the tuple canonical,
    so equal traces compare equal.

    ``_build_model_traces`` builds them on the first call for each
    CurvatureData, which keeps them (``cd.model_trace_forms``), so the
    Mehler and the Duhamel density of one ``residue --oracle`` call share
    one build.  Callers must treat the forms as read-only.
    """
    if cd.model_trace_forms is None:
        cd.model_trace_forms = _build_model_traces(cd)
    return cd.model_trace_forms


def _build_model_traces(cd: CurvatureData) -> Tuple[int, DiffForm, DiffForm, DiffForm]:
    """The traces of ``model_traces``, from the Chern-Weil pair sums.

    They are the integer sums of ``residue`` (pi^2 p1 over p1_den; pi c1,
    pi^2 c2 and pi^2 (c1^2 - c2) over chern_den), which CurvatureData
    builds on construction and shares with ``characteristic_pairing``.
    rhat_ij = Omega_ij / 2, so tr Q = -(1/4) sum_{i,j} rhat_ij ^ rhat_ij =
    -(1/2) pi^2 p1.  Nonempty words are traceless and the fiber trace of 1
    is 2^n, so tr V = tr V_F = 2^n tr(-F/2) = 2^n i pi c1.  V_R and V_F
    never join in V^2, and each c-hat word chat^k chat^l squares to -1, so
    tr V_R^2 = -2^n sum_{k<l} Omega_kl ^ Omega_kl and
    tr V^2 = r tr V_R^2 + tr V_F^2 = 2^n (-4 r pi^2 p1 + pi^2 (2 c2 - c1^2)).
    Over p1_den * chern_den (chern_den = 8 f_den^2 is even) every
    coefficient is an integer; the common gcd is then divided out.
    """
    fiber, pd, cw = 1 << cd.n, cd.p1_den, cd.chern_den
    p1, c2, e = cd.p1_nums, cd.c2_nums, cd.bundle_nums  # pi^2 (p1, c2, c1^2 - c2)
    tr_q = {m: -(cw // 2) * x for m, x in p1.items()}
    tr_v = {m: fiber * pd * x for m, x in cd.c1_nums.items()}
    tr_v2 = {m: fiber * (-4 * cd.r * cw * p1.get(m, 0) + pd * (c2.get(m, 0) - e.get(m, 0)))
             for m in p1.keys() | c2.keys()}
    den = pd * cw
    g = gcd(den, *tr_q.values(), *tr_v.values(), *tr_v2.values())
    return (den // g, *(DiffForm(cd.n, {m: x // g for m, x in t.items()})
                        for t in (tr_q, tr_v, tr_v2)))


def curvature_exponential(cd: CurvatureData) -> WordOperator:
    """exp(-t V) for the constant model potential; terminates at power n//2."""
    from .wordops import WordOperator

    v = model_constant_potential(cd)
    if v.is_zero():
        return WordOperator.identity(cd.n, cd.r)
    return v.scale(Scalar.term(Fraction(-1), t_half=2)).exp_nilpotent()


@cache
def gaussian_prefactor(n: int) -> Scalar:
    """(4 pi t)^{-n/2} as an exact Scalar, one per n (read-only)."""
    return Scalar.term(Fraction(1, 2 ** n), pi_half=-n, t_half=-n)


def mehler_kernel(cd: CurvatureData) -> WordOperator:
    """Diagonal value of the model heat kernel, closed product form."""
    from .wordops import WordOperator

    det = mehler_det_factor(q_matrix(cd), cd.n)  # includes the flat prefactor
    return WordOperator.from_form(det, cd.r) * curvature_exponential(cd)


# ----------------------------------------------------------------------
# Duhamel / Wick engine
# ----------------------------------------------------------------------

# Wick terms of the diagonal kernel through two insertions:
# (coefficient, power of t^(1/2), factors).  Every integral of
# Brownian-bridge Wick contractions is done in closed form; "drift_pairs"
# stands for sum_{i,k} drift[i][k] (drift[i][k] + drift[k][i]).
_WICK_TERMS = (
    (Fraction(1), 0, ()),
    (Fraction(-1), 2, ("const",)),
    (Fraction(1, 2), 2, ("tr_drift",)),
    (Fraction(-1, 3), 4, ("tr_quad",)),
    (Fraction(1, 2), 4, ("const", "const")),
    (Fraction(-1, 6), 4, ("tr_drift", "const")),
    (Fraction(-1, 3), 4, ("const", "tr_drift")),
    (Fraction(1, 8), 4, ("tr_drift", "tr_drift")),
    (Fraction(-1, 24), 4, ("drift_pairs",)),
)
# one denominator for every Wick coefficient
_WICK_DEN = lcm(*(coef.denominator for coef, _, _ in _WICK_TERMS))


def wick_terms(n: int, const, drift, tr_quad) -> List[Tuple[Fraction, int, list]]:
    """Wick terms of -Laplacian + drift + quad + const through two insertions.

    drift[i][k] multiplies x^k d_i; quad[j][k] multiplies x^j x^k and
    enters only through its trace ``tr_quad``; const is x-independent.
    Returns ``(coefficient, half, products)`` triples: the rational
    coefficient goes with t^(half/2), and ``products`` lists operand tuples
    whose products are summed (the empty tuple is the identity).  Operands
    are WordOperators or pure forms, passed through as given
    (``duhamel_density`` passes the traces of const); None operands drop
    out.
    """
    named = {
        "const": const,
        "tr_drift": None if drift is None else reduce(add, (drift[i][i] for i in range(n))),
        "tr_quad": tr_quad,
    }
    out = []
    for coef, half, factors in _WICK_TERMS:
        if factors == ("drift_pairs",):
            products = []
            for i in range(n):
                for k in range(n):
                    if drift is None or drift[i][k].is_zero():
                        continue
                    pair = drift[i][k] + drift[k][i]
                    if not pair.is_zero():
                        products.append((drift[i][k], pair))
        else:
            ops = tuple(named[f] for f in factors)
            products = [] if any(x is None for x in ops) else [ops]
        if products:
            out.append((coef, half, products))
    return out


def wick_kernel(
    n: int,
    r: int,
    const: Optional[WordOperator],
    drift: Optional[List[List[WordOperator]]],
    tr_quad: Optional[WordOperator],
) -> WordOperator:
    """Diagonal heat kernel of -Laplacian + drift + quad + const at 0.

    Multiplies out every product of ``wick_terms``; the result is exact
    through relative order t^2.
    """
    from .wordops import WordOperator

    k = WordOperator.zero(n, r)
    for coef, half, products in wick_terms(n, const, drift, tr_quad):
        term = WordOperator.zero(n, r)
        for ops in products:
            term = term + (reduce(mul, ops) if ops else WordOperator.identity(n, r))
        k = k + term.scale(Scalar.term(coef, t_half=half))
    return k.scale(gaussian_prefactor(n))


def duhamel_kernel(cd: CurvatureData) -> WordOperator:
    """Duhamel expansion of the model heat kernel diagonal, built in full
    from the rank-r potential, the whole drift and the trace of ``q_matrix``."""
    from .wordops import WordOperator

    n, r = cd.n, cd.r
    drift = tr_quad = None
    if cd.has_riemann_curvature():
        drift = [[WordOperator.from_form(cd.rhat(i, j), r) for j in range(1, n + 1)]
                 for i in range(1, n + 1)]
        tr_quad = WordOperator.from_form(form_matrix_trace(q_matrix(cd)), r)
    return wick_kernel(n, r, model_constant_potential(cd), drift, tr_quad)


def landau_kernel(cd: CurvatureData) -> WordOperator:
    """Wick expansion of the *untruncated* flat operator with constant F.

    Requires vanishing Riemann data.  The potential keeps the honest
    Weitzenboeck term -sum e^i e*^j F_{ij}, the gauge drift F_{ik} x^k d_i
    and the quadratic -(1/4) sum_i (F x)_i^2 term, whose trace
    -(1/4) sum_{i,j} F_ij F_ij = -(1/2) sum_{i<j} F_ij^2 is all the Wick
    terms read; nothing is rescaled.
    """
    if cd.has_riemann_curvature():
        raise ValueError("landau_kernel requires R = 0")
    from .wordops import WordOperator, add_maps

    n, r = cd.n, cd.r
    const = WordOperator.zero(n, r)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            fm = cd.f_matrix(i, j)
            if not fm:
                continue
            ee = WordOperator.ext_gen(n, i, r) * WordOperator.int_gen(n, j, r)
            const = const + (ee * WordOperator(n, r, {(0, 0, 0): fm})).scale(-1)
    drift = [
        [WordOperator(n, r, {(0, 0, 0): cd.f_matrix(i, k)}) for k in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    squares = reduce(add_maps, (sparse_product(m, m) for m in cd.f_entries.values()), {})
    tr_quad = WordOperator(n, r, {(0, 0, 0): squares}).scale(Fraction(-1, 2))
    return wick_kernel(n, r, const, drift, tr_quad)


# ----------------------------------------------------------------------
# diagonal traces, calibration, densities
# ----------------------------------------------------------------------

def _calibration_curvature(s) -> CurvatureData:
    """Rank-1 bundle data whose quadratic Chern term pairs with w."""
    n = s.n
    w = s.defining_form
    for m in sorted(w.terms):
        comp = [i for i in range(1, n + 1) if not (m >> (i - 1)) & 1]
        if len(comp) != 4:
            continue
        a, b, c, d = comp
        f = {
            (a, b): {(0, 0): Scalar.i()},
            (c, d): {(0, 0): Scalar.i()},
        }
        cd = CurvatureData(n, 1, {}, f)
        if characteristic_pairing(w, cd):
            return cd
    raise RuntimeError("no calibration pairing found for this structure")


def calibration_constant(s) -> Scalar:
    """Measured trace normalisation for the weighted-density functional.

    Target over route on the rank-1 bundle family with vanishing Riemann
    data, where the residue-order density has the closed form
    pi^{-deg(w)/2} [w ^ (c1^2 - c2)]_n; the route is the rational
    ``_mehler_pairing`` of ``mehler_diag_trace`` times (4 pi t)^{-n/2} t^2.
    The densities multiply by the derived ``TRACE_NORMALISATION`` instead;
    the heat suite checks that this measurement equals it, so a wrong
    model trace fails a check.
    """
    cd0 = _calibration_curvature(s)
    deg = s.degree
    w = s.defining_form
    target = Scalar.pi_pow(-deg - 4, characteristic_pairing(w, cd0))
    route = (gaussian_prefactor(s.n) * Scalar.t_pow(4, Fraction(*_mehler_pairing(w, cd0)))
             ).t_coefficient(Fraction(-deg, 2))
    if route.is_zero():
        raise RuntimeError("degenerate calibration family")
    return target / route


def density_from_kernel(s, kernel: WordOperator) -> Scalar:
    """Weighted diagonal density: norm * [w ^ form-trace(kernel)]_n.

    The form trace is summed on the kernel's integer numerators and lifted
    to Scalar coefficients once; the pairing reads only the complements of
    w's terms."""
    return TRACE_NORMALISATION * s.defining_form.top_pairing(kernel.form_trace())


def mehler_diag_trace(s, cd: CurvatureData) -> Scalar:
    """Weighted heat-trace density from the closed-form kernel.

    Returns the exact Laurent polynomial in sqrt(t); the residue-order
    coefficient sits at t^{-deg(w)/2}.  Wedging with w keeps only form
    degree n - deg(w) = 4 of the trace, so the kernel is never built.
    Pair over the integers, then lift once: the integer
    ``_mehler_pairing`` becomes one Fraction times TRACE_NORMALISATION
    (4 pi t)^{-n/2} t^2 (``_lift_density``).  The result equals
    ``density_from_kernel(s, mehler_kernel(cd))`` as a full Laurent
    series.
    """
    if s.n != cd.n:
        raise ValueError("structure/curvature dimension mismatch")
    if s.n - s.degree != 4:
        raise ValueError("the Mehler density is built at form degree 4 only")
    num, den = _mehler_pairing(s.defining_form, cd)
    return _lift_density(cd.n, den, {4: (num, 0)})


def _mehler_pairing(w: DiffForm, cd: CurvatureData) -> Tuple[int, int]:
    """[w ^ degree-4 trace of the Mehler kernel]_n per unit (4 pi t)^{-n/2}
    t^2, as (numerator, denominator).

    Every term of the potential V sits on one 2-plane and every entry of Q
    is a sum of wedges of two 2-forms, so the power of t follows form
    degree.  At degree 4 the kernel needs only t^2 V^2 / 2 from exp(-t V)
    and only the first determinant term (1/2) l_1 tr(4 t^2 Q) (x) 1_r,
    whose fiber trace is 2^n r; w is paired with the numerators of tr Q
    and tr V^2.  An int w gives an int numerator; a rational w gives a
    Fraction numerator of the same value.
    """
    den, tr_q, _, tr_v2 = model_traces(cd)
    a, b = _DET_WEIGHT.numerator, _DET_WEIGHT.denominator
    # a / b r 2^n [w ^ tr Q]_n + (1/2) [w ^ tr V^2]_n over den
    return (2 * a * cd.r * (1 << cd.n) * w.top_pairing(tr_q) + b * w.top_pairing(tr_v2),
            2 * b * den)


def duhamel_density(s, cd: CurvatureData) -> Scalar:
    """Weighted density via the Duhamel expansion (oracle side).

    Pair over the integers, then lift once: w is paired with the form
    trace of each product of ``wick_terms``, the pairings are summed with
    their coefficients over one denominator, each power of t apart, and
    the sums become Fractions times TRACE_NORMALISATION
    (4 pi t)^{-n/2} once (``_lift_density``).  The operands are
    ``model_traces``: the constant C is the pair (tr C, tr C^2) =
    (tr V, tr V^2), and tr Q stands for tr Q (x) 1_r.  No drift is passed:
    rhat is antisymmetric, so the drift's trace and every symmetrised pair
    of its entries vanish.  Such forms commute with everything, so a
    product with k >= 1 factors C traces to tr C^k wedged with its form
    factors; tr C^0 = 2^n r is a number, so it moves into the coefficient.
    Each trace is a numerator form over the traces' den, and tr V is i
    times its numerator form, so a product of f traces is its numerators
    over den^f, times i when its C factor is tr V; a product has at most
    two operands, so den^2 is a common denominator.  The result equals
    ``density_from_kernel(s, duhamel_kernel(cd))``.
    """
    if s.n != cd.n:
        raise ValueError("structure/curvature dimension mismatch")
    den, tr_q, tr_v, tr_v2 = model_traces(cd)
    const = (tr_v, tr_v2)
    w, fiber = s.defining_form, (1 << cd.n) * cd.r
    sums = {}  # power of t^(1/2) -> [real, imaginary] numerators
    for coef, half, products in wick_terms(cd.n, const, None, tr_q):
        c = coef.numerator * (_WICK_DEN // coef.denominator)
        for ops in products:
            forms = [x for x in ops if x is not const]
            k = len(ops) - len(forms)
            if k:
                forms.insert(0, const[k - 1])
            form = reduce(DiffForm.wedge, forms) if forms else DiffForm.one(cd.n)
            x = (c if k else c * fiber) * w.top_pairing(form) * den ** (2 - len(forms))
            sums.setdefault(half, [0, 0])[k == 1] += x
    return _lift_density(cd.n, _WICK_DEN * den * den, sums)


def _lift_density(n: int, den: int, sums) -> Scalar:
    """TRACE_NORMALISATION (4 pi t)^{-n/2} sum_q (re_q + i im_q) / den t^(q/2)
    from the integer numerators {q: (re_q, im_q)}: one Fraction per
    nonzero part, and no Scalar product."""
    den <<= n  # (4 pi t)^{-n/2} = 2^-n pi^{-n/2} t^{-n/2}
    return Scalar({(-n, q - n): (Fraction(_TRACE_NORM * re, den) if re else _ZERO,
                                 Fraction(_TRACE_NORM * im, den) if im else _ZERO)
                   for q, (re, im) in sums.items() if re or im})


def true_operator_density(s, cd: CurvatureData) -> Scalar:
    """Honest matrix trace tr[* e(w) K] of the untruncated flat-F kernel."""
    from .wordops import star_weighted_trace

    return star_weighted_trace(s.defining_form, landau_kernel(cd))


def model_reduction_ratio(s) -> Scalar:
    """Residue-order ratio between the untruncated-operator density and the
    calibrated model pipeline on the calibration family: 2^(3-n), which
    the heat suite checks."""
    cd0 = _calibration_curvature(s)
    deg = s.degree
    power = Fraction(-deg, 2)
    true_coeff = true_operator_density(s, cd0).t_coefficient(power)
    model_coeff = mehler_diag_trace(s, cd0).t_coefficient(power)
    return true_coeff / model_coeff


def oscillator_diag_kernel(a: float, t: float) -> float:
    """1-D oscillator diagonal (a / (2 pi sinh(2 t a)))^(1/2) at x = 0."""
    return _sqrt(a / (2.0 * _PI * _sinh(2.0 * t * a)))
