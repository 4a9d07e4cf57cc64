"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""

import time
from fractions import Fraction
from math import exp, log, pi, sqrt

import numpy as np
import pytest

from specasym.exact import Scalar
from specasym.exterior import DiffForm, popcount
from specasym.filtration import trace_identity_sweep
from specasym.heat import duhamel_density, mehler_diag_trace, oscillator_diag_kernel
from specasym.holonomy import standard_structure, two_form_basis
from specasym.residue import (
    CurvatureData,
    full_residue_report,
    instanton_line_curvature,
    random_curvature,
    residue_value,
    sign_report,
    twisted_constant,
    untwisted_constant,
)
from specasym.spectrum import (
    enumerate_levels,
    heat_trace,
    mellin_equivalence,
    mellin_equivalence_levels,
    poisson_dual_trace,
    zeta_partial,
)


def _report(num, name, t0, detail=""):
    extra = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.time() - t0:.2f}s){extra}")


def test_criterion_01_eigenstructure():
    t0 = time.time()
    for kind, table in (("g2", [(2, 7), (-1, 14)]), ("spin7", [(3, 7), (-1, 21)])):
        s = standard_structure(kind)
        assert s.eigenvalue_table == table
        # exact minimal-polynomial certificate on the stored integer map
        pos = {m: i for i, m in enumerate(two_form_basis(s.n))}
        dim = len(pos)
        a = np.full((dim, dim), Fraction(0), dtype=object)
        for (t, b), v in s.star_ext.items():
            a[pos[t], pos[b]] = Fraction(v)
        eye = np.full((dim, dim), Fraction(0), dtype=object)
        for i in range(dim):
            eye[i, i] = Fraction(1)
        plus = 2 if kind == "g2" else 3
        assert all(v == 0 for v in np.dot(a - plus * eye, a + eye).flat)
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"eigenstructure took {elapsed:.2f}s (budget 1s)"
    _report(1, "eigenstructure spectra {+2x7,-1x14} / {+3x7,-1x21}", t0)


def test_criterion_02_trace_lemma():
    t0 = time.time()
    fails, checked = trace_identity_sweep(7)
    assert not fails and checked == 4 ** 7
    rng = np.random.default_rng(2024)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 2 ** 8, size=(10 ** 4, 2))]
    fails8, checked8 = trace_identity_sweep(8, pairs)
    assert not fails8 and checked8 == 10 ** 4
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"trace sweep took {elapsed:.2f}s (budget 30s)"
    _report(2, "trace lemma sweep (16384 exact + 10^4 random)", t0)


def test_criterion_03_bridge():
    import random as _random

    t0 = time.time()
    for kind in ("g2", "spin7"):
        s = standard_structure(kind)
        n = s.n
        full = (1 << n) - 1
        rnd = _random.Random(5)
        basis2 = [m for m in range(1 << n) if popcount(m) == 2]
        from specasym.exterior import apply_word, hodge_sign, merge_sign

        star_w, cdvol_w = {}, {}
        for src in range(1 << n):
            for p, coeff in s.defining_form.terms.items():
                if p & src:
                    continue
                tgt = p | src
                c = coeff if merge_sign(p, src) > 0 else -coeff
                star_w[(full & ~tgt, src)] = star_w.get((full & ~tgt, src), 0) + c * hodge_sign(tgt, n)
                sg, row = apply_word(full, 0, tgt)
                cdvol_w[(row, src)] = cdvol_w.get((row, src), 0) + c * sg
        for _ in range(100):
            entries = {}
            for _ in range(15):
                a, b = rnd.choice(basis2), rnd.choice(basis2)
                entries[(a, b)] = entries.get((a, b), 0) + Fraction(
                    rnd.randint(-4, 4), rnd.randint(1, 3)
                )
            lhs = sum(star_w.get((b, a), 0) * v for (a, b), v in entries.items())
            rhs = sum(cdvol_w.get((b, a), 0) * v for (a, b), v in entries.items())
            assert lhs == -rhs
    _report(3, "bridge tr(*e(w)M) = -tr(c(dvol)e(w)M), exact", t0)


def test_criterion_04_vanishing_below_residue_order():
    t0 = time.time()
    g2 = standard_structure("g2")
    floor = Fraction(-3, 2)
    for seed in (101, 102, 103, 104, 105):
        cd = random_curvature(7, 1, seed=seed)
        density = mehler_diag_trace(g2, cd)
        assert all(p >= floor for p in density.t_support()), density.t_support()
        # the Mehler side is built at t^{-3/2} only; Duhamel is untruncated
        oracle = duhamel_density(g2, cd)
        assert all(p >= floor for p in oracle.t_support()), oracle.t_support()
    _report(4, "all t-powers below -deg(w)/2 vanish exactly (5 seeds)", t0)


def test_criterion_05_oracle_equivalence():
    t0 = time.time()
    g2 = standard_structure("g2")
    seeds = [(1, 201), (1, 202), (2, 203), (1, 204), (2, 205)]
    for r, seed in seeds:
        cd = random_curvature(7, r, seed=seed)
        a = mehler_diag_trace(g2, cd)
        b = duhamel_density(g2, cd)
        assert a == b, f"seed {seed}"  # exact, stronger than 1e-8 relative
    block = CurvatureData(7, 1, {(1, 2, 1, 2): Fraction(2), (3, 4, 3, 4): Fraction(1)}, {})
    assert mehler_diag_trace(g2, block) == duhamel_density(g2, block)
    inst = instanton_line_curvature(g2, scale=3)
    assert mehler_diag_trace(g2, inst) == duhamel_density(g2, inst)
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"oracle equivalence took {elapsed:.1f}s (budget 600s)"
    _report(5, "mehler = duhamel through relative t^2 (exact, 7 cases)", t0)


def test_criterion_06_residue_constants():
    t0 = time.time()
    g2 = standard_structure("g2")
    sp7 = standard_structure("spin7")
    # untwisted: residue = (4/9 pi^2) * integral(p1 ^ w), via b / Gamma
    p = Scalar.of(Fraction(5))
    rep = residue_value(g2, twisted=False, integral=p * Fraction(1, 3),
                        density=DiffForm.dvol(7).scale(p * Fraction(1, 3)))
    assert rep.residue == Scalar.term(Fraction(4, 9), pi_half=-4) * p
    q = Scalar.of(Fraction(-7, 2))
    rep = residue_value(sp7, twisted=False, integral=q * Fraction(1, 3),
                        density=DiffForm.dvol(8).scale(q * Fraction(1, 3)))
    assert rep.residue == Scalar.term(Fraction(1, 6), pi_half=-4) * q
    # twisted constants 4/(3 pi^2) and 1/(2 pi^2)
    one = Scalar.of(1)
    rep = residue_value(g2, True, one, DiffForm.dvol(7))
    assert rep.residue == Scalar.term(Fraction(4, 3), pi_half=-4)
    rep = residue_value(sp7, True, one, DiffForm.dvol(8))
    assert rep.residue == Scalar.term(Fraction(1, 2), pi_half=-4)
    # internal consistency: twisted constant x 1/3 = untwisted constant
    for kind in ("g2", "spin7"):
        assert twisted_constant(kind) * Fraction(1, 3) == untwisted_constant(kind)
    # end-to-end on curvature data: the b/Gamma arithmetic reproduces the
    # closed-form constant exactly (residue = (4/3 pi^2) * integral)
    cd = random_curvature(7, 1, seed=301)
    rep = full_residue_report(g2, cd)
    assert rep.residue == twisted_constant("g2") * rep.integral
    cd8 = random_curvature(8, 1, seed=302)
    rep8 = full_residue_report(sp7, cd8)
    assert rep8.residue == twisted_constant("spin7") * rep8.integral
    _report(6, "residue constants 4/9pi^2, 1/6pi^2, 4/3pi^2, 1/2pi^2 exact", t0)


def test_criterion_07_sign_checks():
    t0 = time.time()
    g2 = standard_structure("g2")
    flat = sign_report(g2, CurvatureData(7, 1))
    assert flat.sign == 0, "flat residue must be exactly zero"
    inst = sign_report(g2, instanton_line_curvature(g2, scale=2))
    assert inst.sign == -1 and inst.is_instanton
    sp7 = standard_structure("spin7")
    inst8 = sign_report(sp7, instanton_line_curvature(sp7, base=(1, 2), scale=1))
    assert inst8.sign == -1 and inst8.is_instanton
    _report(7, "flat residue = 0; rank-1 instanton residue < 0", t0)


def test_criterion_08_flat_torus_asymmetry():
    t0 = time.time()
    levels = enumerate_levels(7, 400)
    assert all(lv.mult_big == 2 * lv.mult_7 for lv in levels)
    assert all(lv.weight("delta") == 0 for lv in levels)
    n7 = n14 = 0
    for lv in levels:
        n7 += lv.mult_7
        n14 += lv.mult_big
        assert n14 == 2 * n7
    for s in (4.0, 6.0):
        v, _ = zeta_partial(levels, "delta", s)
        assert v == 0.0
    small = enumerate_levels(7, 80)
    for t in (0.01, 0.02, 0.05, 0.5):
        assert heat_trace(small, t, weighted=True) == 0.0
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"torus checks took {elapsed:.1f}s (budget 120s)"
    _report(8, "N_14 = 2 N_7 to q=400; zeta_delta and weighted trace = 0", t0)


def test_criterion_09_heat_trace_asymptotics():
    t0 = time.time()
    levels = enumerate_levels(7, 80)
    t = 0.02
    ht = heat_trace(levels, t, weighted=False)
    dual = poisson_dual_trace(7, t)
    rel = abs(ht - dual) / dual
    assert rel < 1e-6, f"theta-identity deviation {rel:.2e}"
    lead = 21.0 * (4 * pi * t) ** (-3.5)
    lead_rel = abs(ht - lead) / lead
    # the dual lattice contributes 14 e^{-1/4t} ~ 5e-5 at t = 0.02, so the
    # leading term alone is accurate only to that order
    assert lead_rel < 1e-4
    _report(9, "heat trace matches Poisson dual sum", t0,
            f"identity rel {rel:.1e}; leading-term rel {lead_rel:.1e}")


def test_criterion_10_oscillator_diagonal():
    t0 = time.time()
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for t in (0.05, 0.35, 1.0):
            closed = oscillator_diag_kernel(a, t)
            total, log_c = 0.0, 0.0
            series = exp(-t * a)
            for m in range(1, 4000):
                log_c += log((2 * m) * (2 * m - 1)) - log(4.0) - 2 * log(m)
                series += exp(log_c - t * a * (4 * m + 1))
            series *= sqrt(a / pi)
            worst = max(worst, abs(closed - series) / closed)
    assert worst < 1e-6
    _report(10, "oscillator diagonal vs Hermite eigensum", t0, f"max rel {worst:.1e}")


def test_criterion_11_mellin_equivalence():
    t0 = time.time()
    rep = mellin_equivalence_levels(enumerate_levels(7, 20), "7", 4.0)
    assert rep.difference <= 1e-8 * abs(rep.direct)
    lam = 4 * pi * pi
    rep = mellin_equivalence([(2.0, lam), (-1.0, 2 * lam)], 4.0)
    assert rep.difference <= 1e-8 * abs(rep.direct)
    rep0 = mellin_equivalence_levels(enumerate_levels(7, 20), "delta", 4.0)
    assert rep0.direct == 0.0 and rep0.mellin == 0.0
    _report(11, "zeta sums match the weighted-trace Mellin transform", t0)
