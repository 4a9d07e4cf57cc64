"""Invariant suites behind the ``verify`` command.

Each suite returns a list of CheckResult records; a suite passes when no
check has status "fail".  "info" checks report measured constants that
are deliberately not asserted (see the README notes on the model
reduction normalisation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import exp, pi, sqrt
from time import perf_counter
from typing import Dict, List, Union

import numpy as np

from .exact import Scalar, numerator_planes
from .exterior import DiffForm, FiberOp, popcount, star_ext_entries, subset_order
from .filtration import (
    expand_clifford_basis,
    gram_orthogonality_check,
    trace_identity_sweep,
)
from .heat import (
    CurvatureData,
    calibration_constant,
    duhamel_density,
    duhamel_diag_trace,
    duhamel_kernel,
    mehler_diag_trace,
    model_reduction_ratio,
    oscillator_diag_kernel,
    random_curvature,
)
from .holonomy import (
    _integer_operator,
    decompose_two_form,
    projections,
    standard_structure,
)
from .residue import characteristic_density_form
from .spectrum import (
    enumerate_levels,
    heat_trace,
    mellin_equivalence,
    mellin_equivalence_levels,
    poisson_dual_trace,
    shell_counts,
    shell_counts_bruteforce,
    twisted_levels,
    weyl_ratio,
    zeta_partial,
)
from .wordops import WordOperator


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "info"
    detail: str = ""
    seconds: float = 0.0  # since the previous record of the same suite

    def to_dict(self) -> Dict[str, Union[str, float]]:
        return {"name": self.name, "status": self.status, "detail": self.detail,
                "seconds": self.seconds}


class _Results(list):
    """The check records of one suite run, each timed from the previous
    record (the first from the start of the suite)."""

    def __init__(self):
        super().__init__()
        self._last = perf_counter()

    def record(self, name: str, status: str, detail: str) -> None:
        now = perf_counter()
        self.append(CheckResult(name, status, detail, now - self._last))
        self._last = now


def _check(results, name, ok, detail=""):
    results.record(name, "pass" if ok else "fail", detail)


def _info(results, name, detail):
    results.record(name, "info", detail)


# ----------------------------------------------------------------------
# algebra suite
# ----------------------------------------------------------------------

def algebra_suite(seed: int = 0) -> List[CheckResult]:
    out = _Results()
    for n in (7, 8):
        ok = True
        for i in range(1, n + 1):
            ci = WordOperator.from_word(n, 1 << (i - 1), 0)
            hi = WordOperator.from_word(n, 0, 1 << (i - 1))
            for j in range(1, n + 1):
                cj = WordOperator.from_word(n, 1 << (j - 1), 0)
                hj = WordOperator.from_word(n, 0, 1 << (j - 1))
                delta = WordOperator.identity(n) if i == j else WordOperator.zero(n)
                ok &= (ci * cj + cj * ci) == delta.scale(-2)
                ok &= (hi * hj + hj * hi) == delta.scale(2)
                ok &= (ci * hj + hj * ci).is_zero()
        _check(out, f"clifford anticommutators exhaustive (n={n})", ok)

    for n in (7, 8):
        ok = True
        for m in range(1 << n):
            k = popcount(m)
            f = DiffForm(n, {m: Fraction(1)})
            ok &= f.hodge().hodge() == f.scale((-1) ** (k * (n - k)))
        _check(out, f"hodge involution sign (n={n})", ok)

    n = 7
    ok = True
    for a in range(1 << n):
        for b in range(1 << n):
            if popcount(a) != popcount(b):
                continue
            fa, fb = DiffForm(n, {a: Fraction(1)}), DiffForm(n, {b: Fraction(1)})
            ok &= fa.inner(fb) == fa.wedge(fb.hodge()).top_coefficient()
    _check(out, "pairing a^*(b) = <a,b> dvol (n=7, exhaustive)", ok)

    # e(e^i)^* against the contraction DiffForm.interior(i), column by column
    order, pos = subset_order(7)
    ok = True
    for i in range(1, 8):
        interior = FiberOp.zeros(7)
        for s in order:
            for m, c in DiffForm(7, {s: Fraction(1)}).interior(i).terms.items():
                interior.mat[pos[m], pos[s]] = c
        ok &= FiberOp.ext_op(DiffForm.monomial(7, (i,))).adjoint() == interior
    _check(out, "interior operator is the matrix adjoint", ok)

    fails, checked = trace_identity_sweep(7)
    _check(out, "word-trace identity, all 4^7 pairs (n=7)", not fails, f"{checked} pairs")
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, 2 ** 8, size=(10 ** 4, 2))
    fails, checked = trace_identity_sweep(8, pairs)
    _check(out, "word-trace identity, 10^4 random pairs (n=8)", not fails, f"{checked} pairs")

    for n in (7, 8):
        fails, checked = gram_orthogonality_check(n, sample=400, seed=seed)
        _check(out, f"word Gram orthogonality (n={n})", not fails, f"{checked} pairings")

    rnd = random.Random(seed)
    m = FiberOp.zeros(7)
    for _ in range(60):
        i, j = rnd.randrange(128), rnd.randrange(128)
        m.mat[i, j] = m.mat[i, j] + Fraction(rnd.randint(-4, 4), rnd.randint(1, 4))
    _check(
        out,
        "expansion round trip on a random operator",
        expand_clifford_basis(m).reconstruct() == m,
    )

    # Hodge/Clifford bridge on the degree-2 block, both kinds
    for kind in ("g2", "spin7"):
        s = standard_structure(kind)
        ok = _bridge_check(s, seed)
        _check(out, f"{kind} bridge tr(*e(w)M) = -tr(c(dvol)e(w)M), 100 random M", ok)
    return out


def _bridge_check(s, seed: int, count: int = 100) -> bool:
    """tr(*e(w) M) = -tr(c(dvol) e(w) M) for degree-2-block operators M.

    Both weight operators map 2-forms to 2-forms, so they are tabulated
    on the 2-form sources once.  Both sides are linear in M, so the tables
    are first compared entry by entry, which is the identity on every M of
    the block: the random M alone, 12 entries each, can miss a wrong sign
    in one column.  Each random M then costs only its own support.
    """
    rnd = random.Random(seed + s.n)
    basis2 = [m for m in range(1 << s.n) if popcount(m) == 2]
    star_w = star_ext_entries(s.defining_form, basis2)
    cdvol_w = star_ext_entries(s.defining_form, basis2, cdvol=True)
    if star_w != {k: -v for k, v in cdvol_w.items()}:
        return False
    for _ in range(count):
        entries = {}
        for _ in range(12):
            a, b = rnd.choice(basis2), rnd.choice(basis2)
            entries[(a, b)] = entries.get((a, b), 0) + Fraction(
                rnd.randint(-3, 3), rnd.randint(1, 3)
            )
        lhs = sum(star_w.get((b, a), 0) * v for (a, b), v in entries.items())
        rhs = sum(cdvol_w.get((b, a), 0) * v for (a, b), v in entries.items())
        if lhs != -rhs:
            return False
    return True


# ----------------------------------------------------------------------
# holonomy suite
# ----------------------------------------------------------------------

def holonomy_suite(seed: int = 0) -> List[CheckResult]:
    out = _Results()
    rnd = random.Random(seed)
    for kind, plus, table in (("g2", 2, [(2, 7), (-1, 14)]), ("spin7", 3, [(3, 7), (-1, 21)])):
        s = standard_structure(kind)
        _check(out, f"{kind} eigenvalue table", s.eigenvalue_table == table, str(s.eigenvalue_table))
        p7, pbig = projections(s)
        a = _integer_operator(s)
        dim = a.shape[0]
        # P = N / den: P^2 = P iff N N = den N, and so on
        den, n7, nbig = p7.den, p7.numerator_matrix(), pbig.numerator_matrix()
        ok = pbig.den == den
        ok &= (np.dot(n7, n7) == den * n7).all()
        ok &= (np.dot(nbig, nbig) == den * nbig).all()
        ok &= not np.dot(n7, nbig).any()
        ok &= (n7.T == n7).all()
        _check(out, f"{kind} projections idempotent, orthogonal, symmetric", bool(ok))
        _check(
            out,
            f"{kind} projection traces",
            p7.trace() == 7 and pbig.trace() == dim - 7,
            f"tr P7 = {p7.trace()}, tr Pbig = {pbig.trace()}",
        )
        recon = plus * n7 - nbig
        _check(out, f"{kind} spectral reconstruction plus*P7 - Pbig", (recon == den * a).all())
        comm = np.dot(n7, a) - np.dot(a, n7)
        _check(out, f"{kind} projections commute with *e(w)", not comm.any())

        if kind == "spin7":
            _check(out, "spin7 cayley form self-dual", s.defining_form.hodge() == s.defining_form)
        else:
            ok = True
            for v in range(1, 8):
                iv = s.defining_form.interior(v)
                img = s.defining_form.wedge(iv).hodge()
                ok &= img == iv.scale(2)
            _check(out, "g2 contractions are +2 eigenvectors (all v)", ok)

        ok = True
        basis2 = [m for m in range(1 << s.n) if popcount(m) == 2]
        for _ in range(100):
            terms = {}
            for _ in range(5):
                terms[rnd.choice(basis2)] = Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
            alpha = DiffForm(s.n, terms)
            ok &= _orthogonal_decomposition(alpha, *decompose_two_form(s, alpha))
        _check(out, f"{kind} orthogonal decomposition, 100 random 2-forms", ok)

    g2 = standard_structure("g2")
    a7, rest = decompose_two_form(g2, DiffForm.monomial(7, (1, 2)))
    _check(
        out,
        "g2 |P7 e12|^2 = 1/3",
        a7.norm_sq() == Fraction(1, 3) and rest.norm_sq() == Fraction(2, 3),
        f"{a7.norm_sq()}, {rest.norm_sq()}",
    )
    return out


def _orthogonal_decomposition(alpha: DiffForm, a7: DiffForm, rest: DiffForm) -> bool:
    """|a7|^2 + |rest|^2 = |alpha|^2, a7 + rest = alpha and <a7, rest> = 0
    for rational 2-forms, decided on integer numerators over one common
    denominator."""
    masks = set(alpha.terms) | set(a7.terms) | set(rest.terms)
    values = [f.terms.get(m, 0) for f in (alpha, a7, rest) for m in masks]
    nums = numerator_planes(values)[1].get((0, 0, 0), [0] * len(values))
    k = len(masks)
    x, y, z = nums[:k], nums[k:2 * k], nums[2 * k:]  # alpha, a7, rest
    return (
        sum(v * v for v in y + z) == sum(v * v for v in x)
        and all(a + b == c for a, b, c in zip(y, z, x))
        and sum(a * b for a, b in zip(y, z)) == 0
    )


# ----------------------------------------------------------------------
# heat suite
# ----------------------------------------------------------------------

def heat_suite(seed: int = 0, full: bool = True) -> List[CheckResult]:
    out = _Results()
    g2 = standard_structure("g2")
    sp7 = standard_structure("spin7")

    for s in (g2, sp7):
        norm = calibration_constant(s)
        _info(out, f"{s.kind} trace normalisation constant", repr(norm))
        _check(out, f"{s.kind} normalisation is -2", norm == Scalar.of(-2), repr(norm))
        ratio = model_reduction_ratio(s)
        _info(
            out,
            f"{s.kind} untruncated-operator / model ratio at residue order",
            repr(ratio),
        )

    # oracle equivalence and vanishing below residue order
    seeds = [(7, 1, 3), (7, 1, 4), (7, 2, 5), (7, 1, 6), (7, 2, 7)] if full else [(7, 1, 3)]
    deg = Fraction(-3, 2)
    for n, r, sd in seeds:
        cd = random_curvature(n, r, seed=sd)
        dm = mehler_diag_trace(g2, cd)
        dd = duhamel_density(g2, cd)
        same = all(
            dm.t_coefficient(p) == dd.t_coefficient(p)
            for p in (Fraction(-7, 2), Fraction(-5, 2), Fraction(-3, 2))
        )
        _check(out, f"mehler = duhamel through t^2 (n={n}, r={r}, seed {sd})", same)
        # true by construction for Mehler (built at t^{-3/2} only); Duhamel can fail
        low = [p for p in dm.t_support() + dd.t_support() if p < deg]
        _check(
            out,
            f"no coefficients below residue order (seed {sd})",
            not low,
            f"mehler {dm.t_support()}, duhamel {dd.t_support()}",
        )

    # structured cases: block curvature and rank-1 instanton
    block = CurvatureData(7, 1, {(1, 2, 1, 2): Fraction(1), (3, 4, 3, 4): Fraction(2)}, {})
    same = mehler_diag_trace(g2, block) == duhamel_density(g2, block)
    _check(out, "mehler = duhamel on block curvature", same)
    inst = _instanton_curvature(g2)
    same = mehler_diag_trace(g2, inst) == duhamel_density(g2, inst)
    _check(out, "mehler = duhamel on rank-1 instanton F", same)

    # bundle-sector consistency with the characteristic density (rank 1)
    ok = True
    for sd in (11, 12, 13):
        cd = random_curvature(7, 1, seed=sd, with_riemann=False)
        if not cd.has_bundle_curvature():
            continue
        target = Scalar.pi_pow(-3) * Scalar.of(
            g2.defining_form.top_pairing(characteristic_density_form(cd))
        )
        got = mehler_diag_trace(g2, cd).t_coefficient(deg)
        ok &= got == target
    _check(out, "bundle sector matches pi^{-3/2} [w ^ (c1^2 - c2)]_n (rank 1)", ok)

    # Riemann sector: measured ratio against (1/3) p1, generic vs Bianchi
    ratios = {}
    for tag, bianchi in (("generic", False), ("bianchi", True)):
        cd = random_curvature(7, 1, seed=8, with_bundle=False, bianchi=bianchi)
        target = Scalar.pi_pow(-3) * Scalar.of(
            g2.defining_form.top_pairing(characteristic_density_form(cd))
        )
        got = mehler_diag_trace(g2, cd).t_coefficient(deg)
        if not target.is_zero():
            ratios[tag] = got / target
            _info(out, f"riemann sector / (1/3) p1 ratio ({tag})", repr(ratios[tag]))
    if len(ratios) == 2:
        _check(
            out,
            "riemann-sector ratio independent of the cyclic identity",
            ratios["generic"] == ratios["bianchi"],
            f"{ratios['generic']} vs {ratios['bianchi']}",
        )

    # exact quadratic scaling in the curvature
    cd = random_curvature(7, 1, seed=9)
    base = mehler_diag_trace(g2, cd).t_coefficient(deg)
    scaled = mehler_diag_trace(g2, cd.scaled(3)).t_coefficient(deg)
    _check(out, "residue coefficient scales quadratically", scaled == base * 9)

    # gauge covariance: conjugating F by a rational orthogonal matrix
    cd = random_curvature(7, 2, seed=10, with_riemann=False)
    u = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))
    conj = _conjugate_bundle(cd, u)
    same = duhamel_diag_trace(g2, cd) == duhamel_diag_trace(g2, conj)
    _check(out, "duhamel trace invariant under constant gauge rotation", same)

    # the density path sums Wick-term traces; the full kernel is its oracle
    cd = random_curvature(7, 2, seed=15)
    same = duhamel_diag_trace(g2, cd) == duhamel_kernel(cd).form_trace()
    _check(out, "trace-aware Duhamel trace equals the form trace of the full Duhamel kernel",
           same, "g2, r=2, seed 15")

    # 1-d oscillator diagonal vs Hermite eigenfunction sum
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for t in (0.05, 0.3, 1.0):
            closed = oscillator_diag_kernel(a, t)
            series = _hermite_diag_sum(a, t)
            worst = max(worst, abs(closed - series) / closed)
    _check(out, "oscillator diagonal matches Hermite sum", worst < 1e-6, f"max rel {worst:.2e}")
    return out


def _conjugate_bundle(cd: CurvatureData, u) -> CurvatureData:
    from .wordops import mat_conj_t, mat_from, mat_mul

    r = cd.r
    um = mat_from(u, r)
    new = {}
    for key, m in cd.f_entries.items():
        new[key] = mat_mul(mat_conj_t(um), mat_mul(m, um))
    return CurvatureData(cd.n, cd.r, dict(cd.r_entries), new)


def _instanton_curvature(g2) -> CurvatureData:
    from .residue import instanton_line_curvature

    return instanton_line_curvature(g2, base=(1, 2), scale=3)


def _hermite_diag_sum(a: float, t: float, terms: int = 4000) -> float:
    # |psi_{2m}(0)|^2 = sqrt(a/pi) (2m)! / (4^m (m!)^2), eigenvalue a(4m+1)
    total = 0.0
    log_coeff = 0.0
    for m in range(terms):
        if m == 0:
            coeff = 1.0
        else:
            log_coeff += np.log((2 * m) * (2 * m - 1)) - np.log(4.0) - 2 * np.log(m)
            coeff = exp(log_coeff)
        total += coeff * exp(-t * a * (4 * m + 1))
    return sqrt(a / pi) * total


# ----------------------------------------------------------------------
# spectrum suite
# ----------------------------------------------------------------------

def spectrum_suite(seed: int = 0, q_max: int = 400) -> List[CheckResult]:
    out = _Results()
    _check(
        out,
        "shell counts match brute-force scan (n=7, q<=6)",
        shell_counts(7, 6) == shell_counts_bruteforce(7, 6),
    )
    levels = enumerate_levels(7, q_max)
    ok = all(lv.mult_big == 2 * lv.mult_7 for lv in levels)
    ok &= all(lv.weighted_deficit() == 0 for lv in levels)
    _check(out, f"per-level 2:1 split and zero deficit up to q={q_max}", ok, f"{len(levels)} levels")

    x = 4 * pi * pi * q_max
    from .spectrum import counting_functions

    n7, n14 = counting_functions(levels, x)
    _check(out, "N_14(x) = 2 N_7(x) at the top of the range", n14 == 2 * n7, f"{n7}, {n14}")

    wr = weyl_ratio(7, q_max)
    _check(out, "Weyl normalisation within 5%", abs(wr - 1.0) < 0.05, f"{wr:.4f}")

    small = enumerate_levels(7, 80)
    ok = True
    detail = []
    for t in (0.01, 0.02, 0.05):
        ht = heat_trace(small, t, weighted=False)
        dual = poisson_dual_trace(7, t)
        rel = abs(ht - dual) / dual
        detail.append(f"t={t}: rel {rel:.1e}")
        ok &= rel < 1e-6
    _check(out, "heat trace matches the dual theta sum", ok, "; ".join(detail))
    lead = 21 * (4 * pi * 0.02) ** (-3.5)
    ht = heat_trace(small, 0.02, weighted=False)
    _info(out, "leading-term-only deviation at t=0.02", f"{abs(ht - lead)/lead:.2e}")
    _check(out, "weighted heat trace identically zero", all(
        heat_trace(small, t, weighted=True) == 0.0 for t in (0.01, 0.02, 0.05)
    ))

    z, _ = zeta_partial(levels, "delta", 4.0)
    _check(out, "zeta_delta partial sums vanish (flat)", z == 0.0)
    tw = twisted_levels(7, [Fraction(1, 3), Fraction(1, 2)] + [Fraction(0)] * 5, 6)
    zt, _ = zeta_partial(tw, "delta", 4.0)
    _check(out, "twisted zeta_delta partial sums vanish", zt == 0.0, f"{len(tw)} levels")
    ok = all(lv.mult_big == 2 * lv.mult_7 for lv in tw)
    _check(out, "twisted levels keep the 2:1 split", ok)
    _check(out, "twist has no zero modes", all(lv.q > 0 for lv in tw))

    v50, t50 = zeta_partial(enumerate_levels(7, 50), "7", 4.0)
    v100, _ = zeta_partial(enumerate_levels(7, 100), "7", 4.0)
    _check(out, "zeta tail bound covers truncation error", abs(v100 - v50) <= t50,
           f"|diff| {abs(v100-v50):.2e} <= {t50:.2e}")

    rep = mellin_equivalence([(3.0, 4 * pi * pi)], 4.0)
    _check(out, "one-level Mellin identity", rep.difference <= 1e-8 * abs(rep.direct),
           f"diff {rep.difference:.2e}")
    rep = mellin_equivalence_levels(enumerate_levels(7, 20), "7", 4.0)
    _check(out, "truncated-spectrum Mellin identity at s=4",
           rep.difference <= 1e-8 * abs(rep.direct), f"rel {rep.difference/abs(rep.direct):.2e}")
    rep = mellin_equivalence_levels(enumerate_levels(7, 20), "delta", 4.0)
    _check(out, "flat weighted Mellin: both sides zero", rep.direct == 0.0 and rep.mellin == 0.0)
    return out


SUITES = {
    "algebra": algebra_suite,
    "holonomy": holonomy_suite,
    "heat": heat_suite,
    "spectrum": spectrum_suite,
}


def run_suites(names: List[str], seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    for name in names:
        for res in SUITES[name](seed):
            res.name = f"{name}: {res.name}"
            out.append(res)
    return out
