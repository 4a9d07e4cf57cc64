import random
from fractions import Fraction
from functools import reduce
from math import exp, pi, sinh, sqrt
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specasym.exact import Scalar
from specasym.exterior import DiffForm, mask_of, popcount
from specasym.heat import (
    CurvatureData,
    CurvatureError,
    calibration_constant,
    curvature_exponential,
    duhamel_density,
    duhamel_diag_trace,
    duhamel_kernel,
    extract_t_coefficient,
    form_matrix_trace,
    gaussian_prefactor,
    density_from_kernel,
    landau_kernel,
    mehler_det_factor,
    mehler_diag_trace,
    mehler_kernel,
    mehler_trace_degree4,
    model_constant_potential,
    model_reduction_ratio,
    model_traces,
    oscillator_diag_kernel,
    q_matrix,
    random_curvature,
    wick_kernel,
    wick_trace,
    _calibration_curvature,
    _log_x_over_sinh_series,
)
from specasym import heat
from specasym.holonomy import InstantonReport, decompose_two_form, instanton_check, projections
from specasym.residue import (
    characteristic_density_form,
    chern_forms,
    instanton_line_curvature,
    pontryagin_p1,
)
from specasym.wordops import WordOperator, mat_add, mat_eye, mat_scale, mat_zero


# ----------------------------------------------------------------------
# curvature data validation
# ----------------------------------------------------------------------

def test_curvature_symmetry_closure():
    cd = CurvatureData(7, 1, {(1, 2, 3, 4): Fraction(2)}, {})
    assert cd.r_component(1, 2, 3, 4) == 2
    assert cd.r_component(2, 1, 3, 4) == -2
    assert cd.r_component(1, 2, 4, 3) == -2
    assert cd.r_component(3, 4, 1, 2) == 2
    assert cd.r_component(1, 3, 2, 4) == 0


def test_curvature_conflict_rejected():
    with pytest.raises(CurvatureError):
        CurvatureData(7, 1, {(1, 2, 3, 4): Fraction(1), (3, 4, 1, 2): Fraction(2)}, {})


def test_riemann_indices_out_of_range_rejected():
    for key in ((1, 2, 3, 9), (0, 2, 3, 4), (1, 2, 3, 8)):
        for v in (1, 0):
            with pytest.raises(CurvatureError, match="R indices"):
                CurvatureData(7, 1, {key: v})
    assert CurvatureData(8, 1, {(1, 2, 3, 8): 1}).r_entries == {(1, 2, 3, 8): 1}


def test_bundle_curvature_must_be_skew_hermitian():
    good = ((Scalar.i(),),)
    CurvatureData(7, 1, {}, {(1, 2): good})
    with pytest.raises(CurvatureError):
        CurvatureData(7, 1, {}, {(1, 2): ((Scalar.of(1),),)})
    z, a, b = Scalar(), Scalar.term(1, 2), Scalar.term(-1, 2)
    cd = CurvatureData(7, 2, {}, {(1, 2): ((Scalar.i(3), a), (b, z))})
    assert cd._f_planes == {mask_of((1, 2)): ([0, 1, -1, 0], [3, 2, 2, 0])}
    for bad in (((z, a), (a, z)), ((z, b), (b, z)), ((z, a), (-a, z))):
        with pytest.raises(CurvatureError, match="not skew-Hermitian"):
            CurvatureData(7, 2, {}, {(1, 2): bad})
    with pytest.raises(CurvatureError, match="Gaussian rationals"):
        CurvatureData(7, 1, {}, {(1, 2): ((Scalar.term(0, 1, pi_half=-2),),)})


def test_bundle_planes_share_one_denominator():
    cd = CurvatureData(7, 1, {}, {(1, 2): ((Scalar.i(Fraction(1, 2)),),),
                                  (3, 4): ((Scalar.i(Fraction(2, 3)),),),
                                  (5, 6): ((Scalar(),),)})
    assert cd._f_den == 6
    assert cd._f_planes == {mask_of((1, 2)): ([0], [3]), mask_of((3, 4)): ([0], [4])}
    assert set(cd.f_entries) == {(1, 2), (3, 4)}


def test_rhat_antisymmetric():
    cd = random_curvature(7, 1, seed=0)
    for i in range(1, 8):
        assert cd.rhat(i, i).is_zero()
        for j in range(i + 1, 8):
            assert cd.rhat(i, j) == -cd.rhat(j, i)


def _rhat_scan(cd, i, j):
    """rhat(i, j) from r_component over every (k, l), k < l."""
    terms = {}
    for k in range(1, cd.n + 1):
        for l in range(k + 1, cd.n + 1):
            v = cd.r_component(i, j, k, l)
            if v:
                terms[mask_of((k, l))] = Fraction(v, 2)
    return DiffForm(cd.n, terms)


def _potential_scan(cd):
    """The model potential from r_component over every index quadruple."""
    n, r = cd.n, cd.r
    terms = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    v = cd.r_component(i, j, k, l) if k != l else 0
                    if not v:
                        continue
                    key = (mask_of((i, j)), 0, mask_of((min(k, l), max(k, l))))
                    coeff = 2 * Fraction(-1, 4) * v * (1 if l < k else -1)
                    terms[key] = mat_add(terms.get(key, mat_zero(r)), mat_scale(mat_eye(r), coeff))
    op = WordOperator(n, r, terms)
    if cd.has_bundle_curvature():
        op = op + cd.fhat_word().scale(Fraction(-1, 2))
    return op


def _p1_scan(cd):
    out = DiffForm.zero(cd.n)
    for i in range(1, cd.n + 1):
        for j in range(1, cd.n + 1):
            if i != j:
                out = out + _rhat_scan(cd, i, j).scale(2).wedge(_rhat_scan(cd, j, i).scale(2))
    return out.scale(Scalar.term(Fraction(-1, 8), pi_half=-4))


def _bundle_two_forms(cd):
    """The curvature as an r x r matrix of 2-forms with Scalar entries."""
    out = {}
    for (i, j), m in cd.f_entries.items():
        for a in range(cd.r):
            for b in range(cd.r):
                if not m[a][b].is_zero():
                    out[(a, b)] = out.get((a, b), DiffForm.zero(cd.n)) + DiffForm(
                        cd.n, {mask_of((i, j)): m[a][b]})
    return out


def _require_real(c):
    if any(im != 0 for (_, im) in c.terms.values()):
        raise ValueError(f"characteristic form coefficient is not real: {c}")
    return c


def _p1_wedges(cd):
    """p1 from n^2 wedges of whole 2-forms with Scalar coefficients."""
    out = DiffForm.zero(cd.n)
    for i in range(1, cd.n + 1):
        for j in range(1, cd.n + 1):
            if i != j:
                out = out + cd.rhat(i, j).scale(2).wedge(cd.rhat(j, i).scale(2))
    return out.scale(Scalar.term(Fraction(-1, 8), pi_half=-4)).map_coefficients(_require_real)


def _chern_wedges(cd):
    """(c1, c2) from tr F and r^2 wedges F_ab ^ F_ba with Scalar coefficients."""
    fhat = _bundle_two_forms(cd)
    tr_f = tr_ff = DiffForm.zero(cd.n)
    for (a, b), f_ab in fhat.items():
        if a == b:
            tr_f = tr_f + f_ab
        if (b, a) in fhat:
            tr_ff = tr_ff + f_ab.wedge(fhat[(b, a)])
    c1 = tr_f.scale(Scalar.term(0, Fraction(1, 2), pi_half=-2))
    c2 = (tr_f.wedge(tr_f) - tr_ff).scale(Scalar.term(Fraction(-1, 8), pi_half=-4))
    return c1.map_coefficients(_require_real), c2.map_coefficients(_require_real)


def _density_wedges(cd):
    c1, c2 = _chern_wedges(cd)
    return _p1_wedges(cd).scale(Fraction(1, 3)) + c1.wedge(c1) - c2


def _instanton_scalar(s, cd, tol=0.0):
    """The gate with P_7 applied to each entry's 2-form through Scalar products."""
    p7, _ = projections(s)
    worst = 0.0
    for form in _bundle_two_forms(cd).values():
        for c in p7.apply(form).terms.values():
            worst = max(worst, abs(complex(c.evalf())))
    return InstantonReport(ok=worst <= tol, max_component=worst, exact_zero=(worst == 0.0))


def _q_scan(cd):
    """Q from all n^3 wedges of rhat rows, both halves."""
    n = cd.n
    return [
        [reduce(add, (cd.rhat(i, j).wedge(cd.rhat(i, k)) for i in range(1, n + 1)))
         .scale(Fraction(-1, 4)) for k in range(1, n + 1)]
        for j in range(1, n + 1)
    ]


_SCAN_CASES = [
    (n, r, bianchi) for n in (7, 8) for r in (1, 2) for bianchi in (False, True)
]


@pytest.mark.parametrize("n,r,bianchi", _SCAN_CASES + [(7, 1, None)])
def test_stored_entry_builders_match_index_scan(n, r, bianchi):
    if bianchi is None:
        # a pair with itself, (i, j) = (k, l), and entries given off-canonical
        cd = CurvatureData(7, 1, {
            (1, 2, 1, 2): Fraction(3), (2, 5, 1, 3): Fraction(-1, 2), (6, 4, 7, 3): 2,
        }, {(1, 2): ((Scalar.i(),),)})
    else:
        cd = random_curvature(n, r, seed=10 * n + r, bianchi=bianchi)
    assert cd.r_entries
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert cd.rhat(i, j) == _rhat_scan(cd, i, j), (i, j)
    assert model_constant_potential(cd) == _potential_scan(cd)
    assert pontryagin_p1(cd) == _p1_scan(cd) == _p1_wedges(cd)
    assert q_matrix(cd) == _q_scan(cd)


def _hermitian(rnd, r):
    def q():
        return Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))

    h = [[Scalar() for _ in range(r)] for _ in range(r)]
    for a in range(r):
        h[a][a] = Scalar.of(q())
        for b in range(a + 1, r):
            re, im = q(), q()
            h[a][b], h[b][a] = Scalar.term(re, im), Scalar.term(re, -im)
    return h


def _bundle_case(s, r, seed, instanton, riemann):
    """Skew-Hermitian Gaussian-rational F of rank r: sum_k P_big(alpha_k) (x) i H_k
    (an instanton) or random planes times i H; random Riemann data if asked."""
    rnd = random.Random(seed)
    basis = [mask_of((i, j)) for i in range(1, s.n + 1) for j in range(i + 1, s.n + 1)]
    f = {}
    for _ in range(rnd.randint(1, 3)):
        alpha = DiffForm(s.n, {m: Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
                               for m in rnd.sample(basis, rnd.randint(1, 4))})
        form = decompose_two_form(s, alpha)[1] if instanton else alpha
        h = _hermitian(rnd, r)
        for m, c in form.terms.items():
            key = ((m & -m).bit_length(), (m & (m - 1)).bit_length())
            old = f.get(key, mat_zero(r))
            f[key] = tuple(tuple(old[a][b] + Scalar.i() * h[a][b] * c for b in range(r))
                           for a in range(r))
    r_entries = random_curvature(s.n, 1, seed=seed, with_bundle=False).r_entries if riemann else {}
    return CurvatureData(s.n, r, r_entries, f)


@settings(max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(["g2", "spin7"]), r=st.integers(1, 4), seed=st.integers(0, 10 ** 6),
       instanton=st.booleans(), riemann=st.booleans())
def test_numerator_planes_equal_scalar_oracles(g2, spin7, kind, r, seed, instanton, riemann):
    """Chern-Weil and the instanton gate on numerator planes give the same
    forms (==, repr) and the same InstantonReport, float included, as the
    Scalar wedges and Scalar projections they replace."""
    s = g2 if kind == "g2" else spin7
    base = tuple(sorted(random.Random(seed).sample(range(1, s.n + 1), 2)))
    line = instanton_line_curvature(s, base=base, scale=Fraction(seed % 7 - 3, 2))
    for cd, is_instanton in ((_bundle_case(s, r, seed, instanton, riemann), instanton),
                             (line, True)):
        for got, want in (
            (pontryagin_p1(cd), _p1_wedges(cd)),
            (chern_forms(cd), _chern_wedges(cd)),
            (characteristic_density_form(cd), _density_wedges(cd)),
        ):
            assert got == want and repr(got) == repr(want)
        report, oracle = instanton_check(s, cd), _instanton_scalar(s, cd)
        assert report == oracle and repr(report) == repr(oracle)
        if is_instanton:
            assert report.ok and report.exact_zero


def test_non_real_characteristic_coefficient_is_rejected():
    """The reality test reads the imaginary numerator sums; planes that are
    not skew-Hermitian (the constructor refuses them) give non-real c1, c2."""
    cd = CurvatureData(7, 1, {}, {(1, 2): ((Scalar.i(),),), (3, 4): ((Scalar.i(2),),)})
    cd._f_planes[mask_of((1, 2))] = ([1], [1])
    for build in (chern_forms, characteristic_density_form):
        with pytest.raises(ValueError, match="not real"):
            build(cd)
    # symmetric real parts: c1 stays real, tr(F12 F34) gets an imaginary part
    cd = CurvatureData(7, 2)
    cd._f_planes = {mask_of((1, 2)): ([0, 1, 1, 0], [0, 1, 1, 0]),
                    mask_of((3, 4)): ([0, -1, -1, 0], [0, 1, 1, 0])}
    with pytest.raises(ValueError, match="not real"):
        chern_forms(cd)


def test_rank_only_input_builds_no_planes(g2, monkeypatch):
    """With no F entries nothing of size r (let alone r^2) is built: the
    only numerator planes on the residue and density paths are those of
    the rank-1 calibration data, and rank 10^6 gives what rank 1 gives."""
    from specasym.residue import full_residue_report

    sizes = []
    real = heat.numerator_planes

    def spy(values):
        sizes.append(len(values))
        return real(values)

    monkeypatch.setattr(heat, "numerator_planes", spy)
    results = []
    for r in (1, 10 ** 6):
        cd = CurvatureData(7, r)
        report = full_residue_report(g2, cd, twisted=True)
        results.append((repr(report.density), report.instanton, cd._f_planes,
                        mehler_diag_trace(g2, cd), duhamel_density(g2, cd)))
    assert results[0] == results[1]
    assert max(sizes, default=0) < 100


def test_riemann_only_input_builds_nothing_of_rank_size(g2, spin7, monkeypatch):
    """With only R entries the potential is V_R (x) 1_r: no numerator plane
    on the residue and density paths grows with the rank, and both
    densities at rank 400 are exactly 400 times those at rank 1."""
    from specasym.residue import full_residue_report

    sizes = []
    real = heat.numerator_planes

    def spy(values):
        sizes.append(len(values))
        return real(values)

    monkeypatch.setattr(heat, "numerator_planes", spy)
    r_entries = {(1, 2, 4, 5): Fraction(1, 2), (1, 2, 6, 7): Fraction(-2)}
    for s in (g2, spin7):
        one, big = (CurvatureData(s.n, r, r_entries) for r in (1, 400))
        full_residue_report(s, big, twisted=True)
        for density in (mehler_diag_trace, duhamel_density):
            base = density(s, one)
            assert not base.is_zero()
            assert density(s, big) == base * 400
    assert max(sizes, default=0) < 100


def test_bianchi_symmetrization():
    cd = random_curvature(7, 1, seed=1)
    assert cd.bianchi_defect() > 0
    fixed = cd.bianchi_symmetrized()
    assert fixed.bianchi_defect() == 0


# ----------------------------------------------------------------------
# Q matrix and determinant factor
# ----------------------------------------------------------------------

def test_q_matrix_flat():
    q = q_matrix(CurvatureData(7, 1))
    assert all(entry.is_zero() for row in q for entry in row)


def test_q_matrix_single_plane():
    # rhat_12 = (kappa/2) e12: every product of these is a repeated wedge
    kappa = Fraction(4)
    cd = CurvatureData(7, 1, {(1, 2, 1, 2): kappa}, {})
    assert cd.rhat(1, 2) == DiffForm.monomial(7, (1, 2), kappa / 2)
    q = q_matrix(cd)
    assert all(entry.is_zero() for row in q for entry in row)


def test_q_matrix_two_plane():
    # rhat_12 = kappa (e12 + e34) requires R_1212 = R_1234 = 2 kappa
    kappa = Fraction(3)
    cd = CurvatureData(
        7, 1, {(1, 2, 1, 2): 2 * kappa, (1, 2, 3, 4): 2 * kappa}, {}
    )
    assert cd.rhat(1, 2) == (
        DiffForm.monomial(7, (1, 2), kappa) + DiffForm.monomial(7, (3, 4), kappa)
    )
    q = q_matrix(cd)
    expected = DiffForm.monomial(7, (1, 2, 3, 4), -(kappa ** 2) * Fraction(1, 2) * 2)
    # Q_22 = -(1/4) rhat_12 ^ rhat_12 = -(kappa^2/2) e1234
    assert q[1][1] == DiffForm.monomial(7, (1, 2, 3, 4), -(kappa ** 2) / 2)
    assert q[0][0] == DiffForm.monomial(7, (1, 2, 3, 4), -(kappa ** 2) / 2)
    assert q[0][1].is_zero()


@pytest.mark.parametrize("n,seed", [(7, 2), (8, 3), (7, 4)])
def test_q_matrix_half_build_equals_full_scan(n, seed):
    """Only j <= k is built and mirrored; it equals all n^3 wedges."""
    cd = random_curvature(n, 1, seed=seed)
    q = q_matrix(cd)
    assert q == _q_scan(cd)


def test_q_matrix_symmetric_nilpotent():
    cd = random_curvature(7, 1, seed=2)
    q = q_matrix(cd)
    for j in range(7):
        for k in range(7):
            assert q[j][k] == q[k][j]
            assert all(d >= 4 for d in q[j][k].degrees()) or q[j][k].is_zero()


def test_det_factor_flat():
    det = mehler_det_factor(q_matrix(CurvatureData(7, 1)), 7)
    assert det == DiffForm.one(7).scale(gaussian_prefactor(7))


def test_det_factor_first_order():
    cd = random_curvature(7, 1, seed=3)
    q = q_matrix(cd)
    # Q^2 vanishes in 7 dimensions (degree-8 entries), so only the first
    # series term survives: (4 pi t)^{-n/2} (1 - (t^2/3) tr Q)
    tr_q = q[0][0]
    for i in range(1, 7):
        tr_q = tr_q + q[i][i]
    expected = (DiffForm.one(7) - tr_q.scale(Scalar.term(Fraction(1, 3), t_half=4))).scale(
        gaussian_prefactor(7)
    )
    assert mehler_det_factor(q, 7) == expected


def test_det_factor_rejects_scalar_part():
    q = [[DiffForm.one(7) for _ in range(7)] for _ in range(7)]
    with pytest.raises(ValueError):
        mehler_det_factor(q, 7)


def test_log_series_matches_closed_form():
    # compare the series for log(x/sinh x) with floats at small x
    coeffs = _log_x_over_sinh_series(8)
    for x in (0.1, 0.3):
        series = sum(float(c) * x ** (2 * (k + 1)) for k, c in enumerate(coeffs))
        import math

        assert series == pytest.approx(math.log(x / math.sinh(x)), abs=1e-13 + x ** 18)


def test_scalar_oscillator_is_the_det_factor_analogue():
    # 1-d analogue: (a/(2 pi sinh 2ta))^{1/2} = (4 pi t)^{-1/2} (x/sinh x)^{1/2}
    # with x = 2ta; validates the same series against the closed form.
    a, t = 0.7, 0.15
    x = 2 * t * a
    coeffs = _log_x_over_sinh_series(6)
    log_val = sum(float(c) * x ** (2 * (k + 1)) for k, c in enumerate(coeffs))
    series_side = (4 * pi * t) ** -0.5 * exp(0.5 * log_val)
    assert oscillator_diag_kernel(a, t) == pytest.approx(series_side, rel=1e-12)


# ----------------------------------------------------------------------
# curvature exponential
# ----------------------------------------------------------------------

def test_exponential_trivial():
    assert curvature_exponential(CurvatureData(7, 1)) == WordOperator.identity(7, 1)


def test_exponential_rank_one_oracle():
    cd = random_curvature(7, 1, seed=4, with_riemann=False)
    assert cd.has_bundle_curvature()
    expo = curvature_exponential(cd)
    # commuting nilpotent exponential: sum_k (t/2)^k Fhat^k / k!
    fhat = cd.fhat_word()
    acc = WordOperator.identity(7, 1)
    power = WordOperator.identity(7, 1)
    fact = 1
    for k in range(1, 4):
        power = power * fhat
        fact *= k
        acc = acc + power.scale(Scalar.term(Fraction(1, 2 ** k * fact), t_half=2 * k))
    assert expo == acc


def test_exponential_terminates():
    cd = random_curvature(7, 1, seed=5)
    v = model_constant_potential(cd)
    # the (n//2 + 1)-st power carries form degree > n, hence vanishes
    power = WordOperator.identity(7, 1)
    for _ in range(7 // 2 + 1):
        power = power * v
    assert power.is_zero()


# ----------------------------------------------------------------------
# Wick engine against independent closed forms
# ----------------------------------------------------------------------

def test_wick_ou_drift():
    lam = Fraction(3, 2)
    drift = [[WordOperator.identity(1, 1).scale(lam)]]
    k = wick_kernel(1, 1, None, drift, None, order=2)
    rel = k.form_trace().terms[0] / (gaussian_prefactor(1) * 2)
    assert rel.t_coefficient(0) == Scalar.of(1)
    assert rel.t_coefficient(1) == Scalar.of(lam / 2)
    assert rel.t_coefficient(2) == Scalar.of(lam * lam / 24)


def test_wick_ou_drift_with_constant():
    # a constant c commutes with everything: the kernel is e^{-tc} times the
    # OU kernel, so the two cross terms must add up to -c lam / 2 at t^2
    lam, c = Fraction(3, 2), Fraction(5, 7)
    drift = [[WordOperator.identity(1, 1).scale(lam)]]
    const = WordOperator.identity(1, 1).scale(c)
    k = wick_kernel(1, 1, const, drift, None, order=2)
    rel = k.form_trace().terms[0] / (gaussian_prefactor(1) * 2)
    assert rel.t_coefficient(1) == Scalar.of(lam / 2 - c)
    assert rel.t_coefficient(2) == Scalar.of(lam * lam / 24 + c * c / 2 - c * lam / 2)


def test_wick_rotation_drift():
    b = Fraction(2)
    rho = [[Fraction(0), -b], [b, Fraction(0)]]
    drift = [[WordOperator.identity(2, 1).scale(rho[i][k]) for k in range(2)] for i in range(2)]
    # quad_jk = -(1/4) sum_i rho_ij rho_ik enters through its trace
    tr_quad = WordOperator.identity(2, 1).scale(
        Fraction(-1, 4) * sum(rho[i][j] ** 2 for i in range(2) for j in range(2))
    )
    k = wick_kernel(2, 1, None, drift, tr_quad, order=2)
    rel = k.form_trace().terms[0] / (gaussian_prefactor(2) * 4)
    # closed form bt/sin(bt): 1 + (bt)^2/6 + O(t^4)
    assert rel.t_coefficient(0) == Scalar.of(1)
    assert rel.t_coefficient(1).is_zero()
    assert rel.t_coefficient(2) == Scalar.of(b * b / 6)


def test_wick_order_gate():
    with pytest.raises(ValueError):
        wick_kernel(1, 1, None, None, None, order=3)
    with pytest.raises(ValueError):
        duhamel_kernel(random_curvature(7, 1, seed=0), order=3)


# ----------------------------------------------------------------------
# diagonal traces
# ----------------------------------------------------------------------

def test_duhamel_flat_leading_term(g2):
    for r in (1, 2):
        series = duhamel_diag_trace(g2, CurvatureData(7, r))
        assert series == DiffForm.one(7).scale(gaussian_prefactor(7) * (2 ** 7) * r)


def test_duhamel_pure_constant_matches_exponential(g2):
    cd = random_curvature(7, 1, seed=6, with_riemann=False)
    lhs = duhamel_kernel(cd, order=2)
    # constant perturbations commute with the flat kernel: the Duhamel sum
    # is the exponential series, exact through t^2
    expo = curvature_exponential(cd)
    pref = gaussian_prefactor(7)
    for p in (Fraction(-7, 2), Fraction(-5, 2), Fraction(-3, 2)):
        for key in set(lhs.terms) | set(expo.terms):
            a = lhs.terms.get(key)
            b = expo.terms.get(key)
            va = a[0][0].t_coefficient(p) if a else Scalar()
            vb = (b[0][0] * pref).t_coefficient(p) if b else Scalar()
            assert va == vb, (key, p)


def test_mehler_flat_density_vanishes(g2):
    assert mehler_diag_trace(g2, CurvatureData(7, 1)).is_zero()


@pytest.mark.parametrize("seed,r", [(3, 1), (4, 1), (5, 2)])
def test_mehler_equals_duhamel(g2, seed, r):
    cd = random_curvature(7, r, seed=seed)
    assert mehler_diag_trace(g2, cd) == duhamel_density(g2, cd)


def test_mehler_equals_duhamel_spin7(spin7):
    cd = random_curvature(8, 1, seed=42)
    a = mehler_diag_trace(spin7, cd)
    assert a == duhamel_density(spin7, cd)
    assert all(p >= Fraction(-2) for p in a.t_support())


def test_vanishing_below_residue_order(g2):
    # the Mehler side holds by construction (it is built at t^{-3/2} only);
    # the untruncated Duhamel density is the side that can fail
    for seed in range(5):
        cd = random_curvature(7, 1, seed=seed)
        density = mehler_diag_trace(g2, cd)
        assert all(p >= Fraction(-3, 2) for p in density.t_support())
        oracle = duhamel_density(g2, cd)
        assert all(p >= Fraction(-3, 2) for p in oracle.t_support())


def _sparse_curvature(n, r, riemann=True, bundle=True, bianchi=False):
    """At most six R and six F entries, so the full kernel stays cheap."""
    cd = random_curvature(n, r, seed=3, with_riemann=riemann, with_bundle=bundle)
    sparse = CurvatureData(
        n, r, dict(list(cd.r_entries.items())[:6]), dict(list(cd.f_entries.items())[:6])
    )
    return sparse.bianchi_symmetrized() if bianchi else sparse


_DEGREE4_INPUTS = {
    f"r{r}-{tag}": (lambda n, r=r, rm=rm, bd=bd: _sparse_curvature(n, r, rm, bd))
    for r in (1, 2)
    for tag, rm, bd in (("riemann", True, False), ("bundle", False, True), ("both", True, True))
}
_DEGREE4_INPUTS["bianchi"] = lambda n: _sparse_curvature(n, 1, bundle=False, bianchi=True)
_DEGREE4_INPUTS["flat"] = lambda n: CurvatureData(n, 1)


@pytest.mark.parametrize("kind", ["g2", "spin7"])
@pytest.mark.parametrize("case", sorted(_DEGREE4_INPUTS) + ["calibration"])
def test_degree4_path_equals_full_kernel(g2, spin7, kind, case):
    s = g2 if kind == "g2" else spin7
    cd = _calibration_curvature(s) if case == "calibration" else _DEGREE4_INPUTS[case](s.n)
    kernel = mehler_kernel(cd)
    full = density_from_kernel(s, kernel)
    assert mehler_diag_trace(s, cd) == full
    assert full.is_zero() == cd.is_flat()
    trace = kernel.form_trace()
    degree4 = DiffForm(s.n, {m: c for m, c in trace.terms.items() if popcount(m) == 4})
    assert mehler_trace_degree4(cd) == degree4


@pytest.mark.parametrize("kind", ["g2", "spin7"])
@pytest.mark.parametrize("case", sorted(_DEGREE4_INPUTS) + ["calibration"])
def test_trace_path_equals_full_duhamel_kernel(g2, spin7, kind, case):
    """The density path sums Wick-term traces; the kernel built in full by
    ``_mul_op`` is its oracle, so the oracle is never checked only against
    itself."""
    s = g2 if kind == "g2" else spin7
    cd = _calibration_curvature(s) if case == "calibration" else _DEGREE4_INPUTS[case](s.n)
    for order in (0, 1, 2):
        kernel = duhamel_kernel(cd, order)
        assert duhamel_diag_trace(s, cd, order) == kernel.form_trace()
        assert duhamel_density(s, cd, order) == density_from_kernel(s, kernel)
    with pytest.raises(ValueError):
        duhamel_density(s, cd, order=3)


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("case", sorted(_DEGREE4_INPUTS))
def test_model_traces_equal_traces_of_the_full_potential(n, case):
    """tr Q, tr V and tr V^2 against the rank-r V multiplied out by
    ``_mul_op`` and the trace of the whole Q matrix."""
    cd = _DEGREE4_INPUTS[case](n)
    v = model_constant_potential(cd)
    want = (form_matrix_trace(q_matrix(cd)), v.form_trace(), (v * v).form_trace())
    assert model_traces(cd) == want


@pytest.mark.parametrize("kind", ["g2", "spin7"])
def test_densities_build_no_word_operator(kind, monkeypatch):
    """Both densities, the calibration included, run on the Chern-Weil
    pair sums alone: with WordOperator unconstructible they still agree on
    a rank-2 input with Riemann and bundle entries."""
    from specasym.holonomy import standard_structure

    s = standard_structure(kind)  # a fresh structure, so nothing is cached
    cd = _sparse_curvature(s.n, 2)

    def no_build(self, *args, **kwargs):
        raise AssertionError("WordOperator built on the density path")

    monkeypatch.setattr(WordOperator, "__init__", no_build)
    dm = mehler_diag_trace(s, cd)
    assert not dm.is_zero() and dm == duhamel_density(s, cd)


@pytest.mark.parametrize("kind", ["g2", "spin7"])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("riemann,bundle", [(True, False), (False, True), (True, True)],
                         ids=["riemann", "bundle", "both"])
def test_calibrated_mehler_is_the_derived_chern_weil_sum(g2, spin7, kind, r, riemann, bundle):
    """The calibrated residue coefficient is pi^{-deg w/2} [w ^ (11 r (1/3) p1
    + c1^2 - 2 c2)]_n.  The degree-4 trace is (1/6) r pi^2 p1 from the
    determinant (l_1 = -1/6) plus tr V^2 / 2 = -2 r pi^2 p1 - (1/2) pi^2
    (c1^2 - 2 c2); calibrating on rank-1 bundles multiplies it by -2, so
    the p1 coefficient is 2 (2 - 1/6) r = 11 r / 3."""
    s = g2 if kind == "g2" else spin7
    rand = random_curvature(s.n, r, seed=60 + r)
    f = dict(rand.f_entries) if bundle else {}
    if bundle:
        # two planes whose wedge pairs with w, so the bundle sector shows
        rnd = random.Random(60 + r)
        for key in _calibration_curvature(s).f_entries:
            f[key] = tuple(tuple(Scalar.i() * x for x in row) for row in _hermitian(rnd, r))
    cd = CurvatureData(s.n, r, rand.r_entries if riemann else {}, f)
    c1, c2 = chern_forms(cd)
    form = pontryagin_p1(cd).scale(Fraction(11 * r, 3)) + c1.wedge(c1) - c2.scale(2)
    want = Scalar.pi_pow(-s.degree) * Scalar.of(s.defining_form.wedge(form).top_coefficient())
    assert not want.is_zero()
    assert mehler_diag_trace(s, cd).t_coefficient(Fraction(-s.degree, 2)) == want


def _random_even_form(n, rnd):
    masks = [m for m in range(1 << n) if popcount(m) in (0, 2)]
    return DiffForm(n, {m: Fraction(rnd.randint(-2, 2), rnd.randint(1, 3))
                        for m in rnd.sample(masks, 2)})


@pytest.mark.parametrize("r", [1, 2])
def test_wick_trace_equals_trace_of_wick_kernel(r):
    """Generic operands: the drift has a nonzero trace (the model's does
    not), so every cross term of the Wick table is exercised."""
    rnd = random.Random(40 + r)
    n = 4
    const = model_constant_potential(random_curvature(n, r, seed=40 + r))
    traces = (const.form_trace(), (const * const).form_trace())
    drift = [[_random_even_form(n, rnd) for _ in range(n)] for _ in range(n)]
    tr_quad = reduce(add, (_random_even_form(n, rnd) for _ in range(n)))
    lifted = [[WordOperator.from_form(x, r) for x in row] for row in drift]

    for order in (0, 1, 2):
        full = wick_kernel(n, r, const, lifted, WordOperator.from_form(tr_quad, r), order)
        assert wick_trace(n, r, traces, drift, tr_quad, order) == full.form_trace()
    assert not full.form_trace().is_zero()


def test_extract_t_coefficient():
    s = Scalar.term(5, t_half=-7) + Scalar.term(2, t_half=-3)
    assert extract_t_coefficient(s, Fraction(-7, 2)) == Scalar.of(5)
    assert extract_t_coefficient(s, Fraction(-1, 2)).is_zero()
    f = DiffForm.one(7).scale(Scalar.term(3, t_half=2))
    out = extract_t_coefficient(f, 1)
    assert out.terms[0] == Scalar.of(3)


def test_calibration_constants(g2, spin7):
    assert calibration_constant(g2) == Scalar.of(-2)
    assert calibration_constant(spin7) == Scalar.of(-2)


def test_pipeline_matches_characteristic_density_bundle_sector(g2, spin7):
    for s in (g2, spin7):
        for seed in (21, 22):
            cd = random_curvature(s.n, 1, seed=seed, with_riemann=False)
            if not cd.has_bundle_curvature():
                continue
            target = Scalar.pi_pow(-s.degree) * Scalar.of(
                s.defining_form.wedge(characteristic_density_form(cd)).top_coefficient()
            )
            got = mehler_diag_trace(s, cd).t_coefficient(Fraction(-s.degree, 2))
            assert got == target


def test_riemann_sector_measured_ratio(g2):
    # Model-vs-characteristic-form constant on the Riemann sector,
    # 11 = 3 * 2 (2 - 1/6) at rank 1; identical with and without the cyclic
    # identity because tr Q and tr V_R^2 are both multiples of p1.
    ratios = []
    for bianchi in (False, True):
        cd = random_curvature(7, 1, seed=8, with_bundle=False, bianchi=bianchi)
        target = Scalar.pi_pow(-3) * Scalar.of(
            g2.defining_form.wedge(characteristic_density_form(cd)).top_coefficient()
        )
        got = mehler_diag_trace(g2, cd).t_coefficient(Fraction(-3, 2))
        ratios.append(got / target)
    assert ratios[0] == ratios[1] == Scalar.of(11)


def test_quadratic_scaling(g2):
    cd = random_curvature(7, 1, seed=9)
    base = mehler_diag_trace(g2, cd)
    scaled = mehler_diag_trace(g2, cd.scaled(5))
    p = Fraction(-3, 2)
    assert scaled.t_coefficient(p) == base.t_coefficient(p) * 25


@pytest.mark.parametrize("kind", ["g2", "spin7"])
def test_scaled_copy_does_not_share_the_chern_weil_cache(kind):
    """The sums are cached per CurvatureData: a scaled copy, built after the
    original's caches are full, still gives 9 times everything at residue
    order."""
    from specasym.holonomy import standard_structure
    from specasym.residue import full_residue_report

    s = standard_structure(kind)
    cd = random_curvature(s.n, 2, seed=21)
    p = Fraction(-s.degree, 2)
    base = (full_residue_report(s, cd).residue, mehler_diag_trace(s, cd).t_coefficient(p),
            duhamel_density(s, cd).t_coefficient(p))
    assert cd._chern_weil is not None and cd._traces is not None
    big = cd.scaled(3)
    assert big._chern_weil is None and big._traces is None
    scaled = (full_residue_report(s, big).residue, mehler_diag_trace(s, big).t_coefficient(p),
              duhamel_density(s, big).t_coefficient(p))
    assert not base[0].is_zero()
    assert scaled == tuple(x * 9 for x in base)
    assert characteristic_density_form(big) == characteristic_density_form(cd).scale(9)


def test_bundle_scaling_quadratic(g2):
    # scaling F alone multiplies the bundle part of the residue
    # coefficient by lambda^2 (rank 1)
    from specasym.wordops import mat_scale

    cd = random_curvature(7, 1, seed=12, with_riemann=False)
    lam = Fraction(4)
    scaled = CurvatureData(7, 1, {}, {k: mat_scale(m, lam) for k, m in cd.f_entries.items()})
    p = Fraction(-3, 2)
    assert mehler_diag_trace(g2, scaled).t_coefficient(p) == mehler_diag_trace(
        g2, cd
    ).t_coefficient(p) * (lam * lam)


def test_gauge_covariance(g2):
    cd = random_curvature(7, 2, seed=10, with_riemann=False)
    u = ((Scalar.of(Fraction(3, 5)), Scalar.of(Fraction(4, 5))),
         (Scalar.of(Fraction(-4, 5)), Scalar.of(Fraction(3, 5))))
    from specasym.wordops import mat_conj_t, mat_mul

    conj = CurvatureData(
        cd.n,
        cd.r,
        dict(cd.r_entries),
        {k: mat_mul(mat_conj_t(u), mat_mul(m, u)) for k, m in cd.f_entries.items()},
    )
    assert duhamel_diag_trace(g2, cd) == duhamel_diag_trace(g2, conj)


def test_model_reduction_ratio_reported(g2, spin7):
    # the untruncated-operator oracle measures a fixed power of two per
    # structure; recorded (not unity) and frozen here as a regression
    assert model_reduction_ratio(g2) == Scalar.of(Fraction(1, 16))
    assert model_reduction_ratio(spin7) == Scalar.of(Fraction(1, 32))


def test_landau_requires_flat_riemann():
    with pytest.raises(ValueError):
        landau_kernel(random_curvature(7, 1, seed=1))


def test_oscillator_against_hermite_sum():
    # independent eigenfunction-sum oracle for the 1-d diagonal
    for a in (0.5, 1.0, 2.0):
        for t in (0.05, 0.2, 1.0):
            closed = oscillator_diag_kernel(a, t)
            total, log_c = 0.0, 0.0
            for m in range(3000):
                if m:
                    import math

                    log_c += math.log((2 * m) * (2 * m - 1)) - math.log(4.0) - 2 * math.log(m)
                total += exp(log_c - t * a * (4 * m + 1)) if m else exp(-t * a)
            series = sqrt(a / pi) * total
            assert abs(closed - series) / closed < 1e-6
