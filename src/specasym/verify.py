"""Invariant suites behind the ``verify`` command.

Each suite returns a list of CheckResult records; a suite passes when no
check has status "fail".  "info" checks report measured constants that
are deliberately not asserted: the measured trace normalisation (its
pass/fail twin compares it with -2), the Riemann-sector ratios and the
leading-term deviation of the flat heat trace.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import log, pi, sqrt
from time import perf_counter
from typing import Dict, List, Tuple, Union

import numpy as np

from .exact import Scalar, rational_numerators
from .exterior import DiffForm, FiberOp, popcount, sparse_product, star_ext_entries
from .filtration import (
    expand_clifford_basis,
    gram_orthogonality_check,
    trace_identity_sweep,
)
from .heat import (
    TRACE_NORMALISATION,
    calibration_constant,
    density_from_kernel,
    duhamel_density,
    duhamel_kernel,
    mehler_diag_trace,
    model_reduction_ratio,
    model_traces,
    oscillator_diag_kernel,
)
from .holonomy import decompose_two_form, projections, standard_structure
from .record import Record
from .residue import (
    CurvatureData,
    characteristic_density_form,
    instanton_line_curvature,
    random_curvature,
)
from .spectrum import (
    _lattice_counts,
    counting_functions,
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


class CheckResult(Record):
    _fields = ("name", "status", "detail", "seconds")

    def __init__(self, name: str, status: str, detail: str = "", seconds: float = 0.0):
        self.name = name
        self.status = status  # "pass" | "fail" | "info"
        self.detail = detail
        self.seconds = seconds  # since the previous record of the same suite

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
        c = [WordOperator.from_word(n, 1 << i, 0) for i in range(n)]
        h = [WordOperator.from_word(n, 0, 1 << i) for i in range(n)]
        zero, one = WordOperator.zero(n), WordOperator.identity(n)
        minus_two, two = one.scale(-2), one.scale(2)
        for i in range(n):
            for j in range(n):
                ok &= (c[i] * c[j] + c[j] * c[i]) == (minus_two if i == j else zero)
                ok &= (h[i] * h[j] + h[j] * h[i]) == (two if i == j else zero)
                ok &= (c[i] * h[j] + h[j] * c[i]).is_zero()
        _check(out, f"clifford anticommutators exhaustive (n={n})", ok)

    for n in (7, 8):
        ok = True
        for m in range(1 << n):
            k = popcount(m)
            f = DiffForm(n, {m: 1})
            ok &= f.hodge().hodge() == f.scale((-1) ** (k * (n - k)))
        _check(out, f"hodge involution sign (n={n})", ok)

    # monomials, their stars and the masks by degree are built once
    n = 7
    forms = [DiffForm(n, {m: 1}) for m in range(1 << n)]
    stars = [f.hodge() for f in forms]
    by_degree = [[] for _ in range(n + 1)]
    for m in range(1 << n):
        by_degree[popcount(m)].append(m)
    ok = all(forms[a].inner(forms[b]) == forms[a].wedge(stars[b]).top_coefficient()
             for group in by_degree for a in group for b in group)
    _check(out, "pairing a^*(b) = <a,b> dvol (n=7, exhaustive)", ok)

    # e(e^i)^* against the contraction DiffForm.interior(i), column by column
    ok = True
    for i in range(1, 8):
        interior = FiberOp(7, 1, {
            (m, s): c
            for s in range(1 << 7)
            for m, c in DiffForm(7, {s: 1}).interior(i).terms.items()
        })
        ok &= FiberOp.ext_op(DiffForm.monomial(7, (i,))).adjoint() == interior
    _check(out, "interior operator is the matrix adjoint", ok)

    fails, checked = trace_identity_sweep(7)
    _check(out, "word-trace identity, all 4^7 pairs (n=7)", not fails, f"{checked} pairs")
    # 10^4 pairs of n = 8 word masks: the bytes of one randbytes call
    pairs = np.frombuffer(random.Random(seed).randbytes(2 * 10 ** 4), np.uint8).reshape(-1, 2)
    fails, checked = trace_identity_sweep(8, pairs)
    _check(out, "word-trace identity, 10^4 random pairs (n=8)", not fails, f"{checked} pairs")

    for n in (7, 8):
        fails, checked = gram_orthogonality_check(n, seed=seed)
        _check(out, f"word Gram orthogonality (n={n})", not fails, f"{checked} pairings")

    rnd = random.Random(seed)
    entries = {}
    for _ in range(60):
        key = (rnd.randrange(128), rnd.randrange(128))
        entries[key] = entries.get(key, 0) + Fraction(rnd.randint(-4, 4), rnd.randint(1, 4))
    m = FiberOp(7, 1, entries)
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


def _bridge_check(s, seed: int) -> bool:
    """tr(*e(w) M) = -tr(c(dvol) e(w) M) for degree-2-block operators M.

    Both weight operators map 2-forms to 2-forms: *e(w) is the stored
    ``s.star_ext`` and c(dvol) e(w) is tabulated on the 2-form sources
    once.  Both sides are linear in M, so the tables are first compared
    entry by entry, which is the identity on every M of the block: the
    random M alone, 12 entries each, can miss a wrong sign in one column.
    The random M are then checked on ``_bridge_sums``.
    """
    basis2 = [m for m in range(1 << s.n) if popcount(m) == 2]
    cdvol_w = {k: int(v) for k, v in star_ext_entries(s.defining_form, basis2, True).items()}
    if s.star_ext != {k: -v for k, v in cdvol_w.items()}:
        return False
    return all(lhs == -rhs for lhs, rhs in _bridge_sums(s, basis2, cdvol_w, seed))


def _bridge_sums(s, basis2: List[int], cdvol_w, seed: int) -> List[Tuple[int, int]]:
    """(6 tr(*e(w) M), 6 tr(c(dvol) e(w) M)) for 100 random M.

    Each M is 12 entries (a, b) += p/q with a, b drawn from the 2-form
    masks ``basis2`` in increasing order, p in -3..3 and q in 1..3, all
    from one ``_uniform_draws`` call; it is kept as integers over the
    common denominator 6.  A trace sums M[a, b] T[b, a], with T read off
    ``s.star_ext`` or the integer table ``cdvol_w`` as a dense table on
    the positions in ``basis2``.
    """
    dim = len(basis2)
    a, b, num, den = _uniform_draws(random.Random(seed + s.n), (dim, dim, 7, 3), 12 * 100)
    v = (num - 3) * (6 // (den + 1))
    index = {m: k for k, m in enumerate(basis2)}
    sums = []
    for table in (s.star_ext, cdvol_w):
        dense = np.zeros((dim, dim), np.int64)
        for (t, src), x in table.items():
            dense[index[t], index[src]] = x
        sums.append((v * dense[b, a]).reshape(100, 12).sum(axis=1).tolist())
    return list(zip(*sums))


def _uniform_draws(rnd: random.Random, bounds: Tuple[int, ...], count: int) -> List[np.ndarray]:
    """``count`` uniform draws from range(k) for each k in ``bounds`` (k at
    most 256), one int64 column per k, from the bytes of one ``randbytes``
    call of ``rnd``.  Column j reads block j of the bytes and skips each
    byte at or above 256 - 256 % k, the top partial block, so each kept
    byte % k is uniform.  A block with too few kept bytes, which its slack
    makes rare, reads on from further ``randbytes`` calls."""
    def read(size):
        return np.frombuffer(rnd.randbytes(size), np.uint8).astype(np.int64)

    width = count + count // 4 + 16
    cols = []
    for k, block in zip(bounds, read(len(bounds) * width).reshape(-1, width)):
        limit = 256 - 256 % k
        kept = block[block < limit]
        while len(kept) < count:
            more = read(width)
            kept = np.concatenate([kept, more[more < limit]])
        cols.append(kept[:count] % k)
    return cols


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
        # P = N / den: P^2 = P iff N N = den N, and so on, as map equality
        a, den, n7, nbig = s.star_ext, p7.den, p7.entries, pbig.entries
        basis2 = [m for m in range(1 << s.n) if popcount(m) == 2]
        ok = pbig.den == den
        ok &= sparse_product(n7, n7) == {k: den * v for k, v in n7.items()}
        ok &= sparse_product(nbig, nbig) == {k: den * v for k, v in nbig.items()}
        ok &= not sparse_product(n7, nbig)
        ok &= all(n7.get((j, i)) == v for (i, j), v in n7.items())
        _check(out, f"{kind} projections idempotent, orthogonal, symmetric", ok)
        _check(
            out,
            f"{kind} projection traces",
            p7.trace() == 7 and pbig.trace() == len(basis2) - 7,
            f"tr P7 = {p7.trace()}, tr Pbig = {pbig.trace()}",
        )
        recon = all(plus * n7.get(k, 0) - nbig.get(k, 0) == den * a.get(k, 0)
                    for k in n7.keys() | nbig.keys() | a.keys())
        _check(out, f"{kind} spectral reconstruction plus*P7 - Pbig", recon)
        comm = sparse_product(n7, a) == sparse_product(a, n7)
        _check(out, f"{kind} projections commute with *e(w)", comm)

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
        # 100 forms of 5 draws (mask, p in -5..5, q in 1..4) each
        masks, ps, qs = (col.tolist() for col in _uniform_draws(rnd, (len(basis2), 11, 4), 500))
        for f in range(0, 500, 5):
            terms = {}
            for d in range(f, f + 5):
                terms[basis2[masks[d]]] = Fraction(ps[d] - 5, qs[d] + 1)
            alpha = DiffForm(s.n, terms)
            # |a7|^2 + |abig|^2 = |alpha|^2, a7 + abig = alpha and <a7, abig> = 0,
            # on the integer numerators over the projections' one denominator
            d7, a7 = p7.numerators(alpha)
            dbig, abig = pbig.numerators(alpha)
            nums = rational_numerators(list(alpha.terms.values()))[1]
            x = {m: den * v for m, v in zip(alpha.terms, nums)}  # alpha over d7
            ok &= (
                d7 == dbig
                and sum(v * v for part in (a7, abig) for v in part.values())
                == sum(v * v for v in x.values())
                and all(a7.get(m, 0) + abig.get(m, 0) == x.get(m, 0)
                        for m in a7.keys() | abig.keys() | x.keys())
                and not sum(v * abig.get(m, 0) for m, v in a7.items())
            )
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


# ----------------------------------------------------------------------
# heat suite
# ----------------------------------------------------------------------

def heat_suite(seed: int = 0) -> List[CheckResult]:
    out = _Results()
    g2 = standard_structure("g2")
    sp7 = standard_structure("spin7")

    for s in (g2, sp7):
        norm = calibration_constant(s)
        _info(out, f"{s.kind} trace normalisation constant", repr(norm))
        _check(out, f"{s.kind} normalisation is -2", norm == TRACE_NORMALISATION, repr(norm))
        # 2^3 (4 pi)^{-n/2} pi^{n/2}: the bundle weight -4 A of *e(w) over
        # the calibrated model (README)
        ratio = model_reduction_ratio(s)
        _check(
            out,
            f"{s.kind} untruncated-operator / model ratio at residue order",
            ratio == Scalar.of(Fraction(1, 2 ** (s.n - 3))),
            repr(ratio),
        )

    # oracle equivalence and vanishing below residue order
    deg = Fraction(-3, 2)
    for n, r, sd in ((7, 1, 3), (7, 1, 4), (7, 2, 5), (7, 1, 6), (7, 2, 7)):
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
            f"mehler [{', '.join(map(str, dm.t_support()))}], "
            f"duhamel [{', '.join(map(str, dd.t_support()))}]",
        )

    # structured cases: block curvature and rank-1 instanton
    block = CurvatureData(7, 1, {(1, 2, 1, 2): Fraction(1), (3, 4, 3, 4): Fraction(2)}, {})
    same = mehler_diag_trace(g2, block) == duhamel_density(g2, block)
    _check(out, "mehler = duhamel on block curvature", same)
    inst = instanton_line_curvature(g2, base=(1, 2), scale=3)
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
    u = {(0, 0): Fraction(3, 5), (0, 1): Fraction(4, 5),
         (1, 0): Fraction(-4, 5), (1, 1): Fraction(3, 5)}
    conj = _conjugate_bundle(cd, u)
    same = model_traces(cd) == model_traces(conj)
    _check(out, "model traces invariant under constant gauge rotation", same)

    # the density path sums Wick-term traces; the full kernel is its oracle
    cd = random_curvature(7, 2, seed=15)
    same = duhamel_density(g2, cd) == density_from_kernel(g2, duhamel_kernel(cd))
    _check(out, "Duhamel density equals the density of the full Duhamel kernel",
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
    """u^* F u for each F_ij, with u a bundle map."""
    u_star = {(b, a): v.conjugate() for (a, b), v in u.items()}
    new = {key: sparse_product(u_star, sparse_product(m, u)) for key, m in cd.f_entries.items()}
    return CurvatureData(cd.n, cd.r, dict(cd.r_entries), new)


def _hermite_diag_sum(a: float, t: float) -> float:
    # |psi_{2m}(0)|^2 = sqrt(a/pi) (2m)! / (4^m (m!)^2), eigenvalue a(4m+1),
    # summed over the first 4000 even eigenfunctions; the log-coefficients
    # are a cumulative sum of the ratios of consecutive terms
    m = np.arange(4000, dtype=float)
    ratios = np.log((2 * m[1:]) * (2 * m[1:] - 1)) - log(4.0) - 2 * np.log(m[1:])
    log_coeff = np.concatenate(([0.0], np.cumsum(ratios)))
    return sqrt(a / pi) * float(np.sum(np.exp(log_coeff) * np.exp(-t * a * (4 * m + 1))))


# ----------------------------------------------------------------------
# spectrum suite
# ----------------------------------------------------------------------

# the flat line twist of the spectrum suite's twisted rows
_SUITE_TWIST = (Fraction(1, 3), Fraction(1, 2)) + (Fraction(0),) * 5


def spectrum_suite(seed: int = 0) -> List[CheckResult]:
    out = _Results()
    q_max = 400
    _check(
        out,
        "shell counts match brute-force scan (n=7, q<=6)",
        shell_counts(7, 6) == shell_counts_bruteforce(7, 6),
    )
    levels = enumerate_levels(7, q_max)
    ok = all(lv.mult_big == 2 * lv.mult_7 for lv in levels)
    ok &= all(lv.weight("delta") == 0 for lv in levels)
    _check(out, f"per-level 2:1 split and zero deficit up to q={q_max}", ok, f"{len(levels)} levels")

    x = 4 * pi * pi * q_max
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
    tw = twisted_levels(7, _SUITE_TWIST, 6)
    zt, _ = zeta_partial(tw, "delta", 4.0)
    _check(out, "twisted zeta_delta partial sums vanish", zt == 0.0, f"{len(tw)} levels")
    ok = all(lv.mult_big == 2 * lv.mult_7 for lv in tw)
    _check(out, "twisted levels keep the 2:1 split", ok)
    # the level lists keep q > 0 only, so the zero modes are read off the
    # raw count at |k + theta|^2 = 0
    _check(out, "twist has no zero modes", not _lattice_counts(_SUITE_TWIST, 6)[1].get(0))

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
