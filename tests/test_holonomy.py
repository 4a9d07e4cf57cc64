import random
from fractions import Fraction

import numpy as np
import pytest

from specasym import exterior, holonomy, verify
from specasym.exact import Scalar
from specasym.exterior import DiffForm
from specasym.holonomy import (
    HolonomyStructure,
    Projection,
    StructureValidationError,
    _eig_validate,
    bundle_weight_check,
    decompose_two_form,
    instanton_check,
    projections,
    standard_structure,
    star_ext_on_two_forms,
    two_form_basis,
)
from specasym.residue import CurvatureData, instanton_line_curvature


def _array(n, entries):
    """A sparse 2-form operator {(target, source): value} as a dense
    object array of Fractions over ``two_form_basis(n)``."""
    pos = {m: i for i, m in enumerate(two_form_basis(n))}
    a = np.full((len(pos), len(pos)), Fraction(0), dtype=object)
    for (t, b), v in entries.items():
        a[pos[t], pos[b]] = Fraction(v)
    return a


def _entries(n, mat):
    """The nonzero entries of a dense matrix over ``two_form_basis(n)`` as
    a sparse map, the input of ``_eig_validate``."""
    basis = two_form_basis(n)
    return {(basis[i], basis[j]): v
            for i, row in enumerate(mat.tolist()) for j, v in enumerate(row) if v}


def test_g2_structure(g2):
    phi = g2.defining_form
    assert len(phi.terms) == 7
    assert all(c in (1, -1) for c in phi.terms.values())
    assert phi.norm_sq() == 7
    assert g2.eigenvalue_table == [(2, 7), (-1, 14)]


def test_spin7_structure(spin7):
    psi = spin7.defining_form
    assert psi.hodge() == psi
    assert spin7.eigenvalue_table == [(3, 7), (-1, 21)]


def test_star_ext_image_of_e12(g2):
    img = g2.defining_form.wedge(DiffForm.monomial(7, (1, 2))).hodge()
    expected = DiffForm.monomial(7, (4, 7), -1) + DiffForm.monomial(7, (5, 6), -1)
    assert img == expected


def test_minimal_polynomials(g2, spin7):
    for s, plus in ((g2, 2), (spin7, 3)):
        a = _array(s.n, s.star_ext)
        dim = a.shape[0]
        eye = np.full((dim, dim), Fraction(0), dtype=object)
        for i in range(dim):
            eye[i, i] = Fraction(1)
        prod = np.dot(a - plus * eye, a + eye)
        assert all(v == 0 for v in prod.flat)
        # (x - plus)(x + 1) translated: A^2 = (plus - 1) A + plus Id
        sq = np.dot(a, a)
        assert (sq == (plus - 1) * a + plus * eye).all()


def test_projection_properties(g2, spin7):
    for s in (g2, spin7):
        p7, pbig = projections(s)
        assert p7.trace() == 7
        assert pbig.trace() == (14 if s.kind == "g2" else 21)
        m7, mbig = (_array(s.n, p.entries) / p.den for p in (p7, pbig))
        assert (np.dot(m7, m7) == m7).all()
        assert all(v == 0 for v in np.dot(m7, mbig).flat)
        dim = m7.shape[0]
        for i in range(dim):
            for j in range(dim):
                assert m7[i, j] + mbig[i, j] == (1 if i == j else 0)


def test_decompose_contraction_is_pure(g2):
    for v in range(1, 8):
        iv = g2.defining_form.interior(v)
        a7, rest = decompose_two_form(g2, iv)
        assert rest.is_zero()
        assert a7 == iv
        # eigenvector check: *(phi ^ x) = 2x
        assert g2.defining_form.wedge(iv).hodge() == iv.scale(2)


def test_decompose_zero_and_norms(g2):
    a7, rest = decompose_two_form(g2, DiffForm.zero(7))
    assert a7.is_zero() and rest.is_zero()
    rnd = random.Random(2)
    basis2 = two_form_basis(7)
    for _ in range(100):
        alpha = DiffForm(
            7,
            {
                rnd.choice(basis2): Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))
                for _ in range(4)
            },
        )
        a7, rest = decompose_two_form(g2, alpha)
        assert a7.norm_sq() + rest.norm_sq() == alpha.norm_sq()


def test_decompose_rejects_wrong_degree(g2):
    with pytest.raises(ValueError):
        decompose_two_form(g2, DiffForm.monomial(7, (1,)))


def test_e12_norm_split(g2):
    a7, rest = decompose_two_form(g2, DiffForm.monomial(7, (1, 2)))
    assert a7.norm_sq() == Fraction(1, 3)
    assert rest.norm_sq() == Fraction(2, 3)


def test_instanton_check_flat(g2):
    rep = instanton_check(g2, CurvatureData(7, 1))
    assert rep.ok and rep.max_component == 0.0


def test_instanton_check_seven_part(g2):
    # i_{e_1} phi lies entirely in the 7-part: not an instanton
    iv = g2.defining_form.interior(1)
    f_entries = {}
    from specasym.exact import Scalar

    for m, c in iv.terms.items():
        lo = (m & -m).bit_length()
        hi = (m & (m - 1)).bit_length()
        f_entries[(lo, hi)] = {(0, 0): Scalar.i() * Scalar.of(c)}
    rep = instanton_check(g2, CurvatureData(7, 1, {}, f_entries))
    assert not rep.ok and rep.max_component > 0.5


def test_instanton_check_seven_part_past_the_float_range_reads_inf(g2):
    """A 7-part past the float range gives an infinite max_component, not
    an OverflowError; ok is decided on the integers."""
    cd = CurvatureData(7, 1, {}, {(1, 2): {(0, 0): Scalar.i(10 ** 400)}})
    rep = instanton_check(g2, cd)
    assert not rep.ok
    assert rep.max_component == float("inf")


def test_instanton_check_big_part(g2):
    cd = instanton_line_curvature(g2, base=(1, 2), scale=3)
    rep = instanton_check(g2, cd)
    assert rep.ok and rep.max_component == 0.0


def test_star_ext_matrix_symmetry(g2):
    entries = star_ext_on_two_forms(g2.defining_form, 7)
    assert len(entries) == 42
    assert all(entries.get((b, t)) == v for (t, b), v in entries.items())


def test_eig_validate_rejects_broken_operators(g2, spin7):
    for s, plus in ((g2, 2), (spin7, 3)):
        basis = two_form_basis(s.n)
        a = _array(s.n, s.star_ext)
        assert _eig_validate(_entries(s.n, a), basis, plus) == s.eigenvalue_table
        i, j = next((i, j) for i in range(a.shape[0]) for j in range(i) if a[i, j])
        broken = a.copy()
        broken[i, j], broken[j, i] = -a[i, j], -a[j, i]
        assert (broken.T == broken).all()
        with pytest.raises(StructureValidationError, match="minimal polynomial"):
            _eig_validate(_entries(s.n, broken), basis, plus)
        # plus * Id satisfies the polynomial but puts the whole fiber in one part
        scalar = np.full(a.shape, Fraction(0), dtype=object)
        for k in range(a.shape[0]):
            scalar[k, k] = Fraction(plus)
        with pytest.raises(StructureValidationError, match="trace"):
            _eig_validate(_entries(s.n, scalar), basis, plus)
        # an empty sparse row (eigenvalue 0) fails only through its plus Id term
        hole = scalar.copy()
        hole[0, 0] = Fraction(0)
        with pytest.raises(StructureValidationError, match="minimal polynomial"):
            _eig_validate(_entries(s.n, hole), basis, plus)


@pytest.mark.parametrize("kind", ["g2", "spin7"])
def test_nonsymmetric_conjugate_operator_is_caught(monkeypatch, kind):
    """S A S^-1 for a unimodular S keeps the minimal polynomial and the
    trace; only the symmetry check rejects it."""
    s = standard_structure(kind)
    a = _array(s.n, s.star_ext).astype(np.int64)
    shear = np.eye(len(a), dtype=np.int64)
    shear[0, 1] = 1
    inverse = np.eye(len(a), dtype=np.int64)
    inverse[0, 1] = -1
    conj = shear @ a @ inverse
    assert (conj != conj.T).any()
    basis = two_form_basis(s.n)
    assert _eig_validate(_entries(s.n, conj), basis, s.eigenvalue_table[0][0]) == s.eigenvalue_table
    monkeypatch.setattr(holonomy, "star_ext_entries", lambda w, sources: _entries(s.n, conj))
    with pytest.raises(StructureValidationError, match="not symmetric"):
        standard_structure.__wrapped__(kind)


def test_projection_apply_matches_dense_product(g2, spin7):
    rnd = random.Random(5)

    def q():
        return Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))

    for s in (g2, spin7):
        basis = two_form_basis(s.n)
        for p in projections(s):
            dense_p = _array(s.n, p.entries) / p.den
            for _ in range(10):
                form = DiffForm(s.n, {rnd.choice(basis): q() for _ in range(rnd.randint(1, 6))})
                vec = np.array([form.terms.get(m, Fraction(0)) for m in basis], dtype=object)
                got = p.apply(form)
                assert got == DiffForm(s.n, dict(zip(basis, dense_p.dot(vec))))
                assert all(type(c) is Fraction for c in got.terms.values())


def test_projection_apply_is_one_path_for_every_coefficient_type(g2, spin7):
    """The same integer 2-form as int and as Fraction coefficients projects
    to equal Fractions; a Scalar coefficient, even a real rational one,
    raises TypeError naming it."""
    rnd = random.Random(11)
    for s in (g2, spin7):
        basis = two_form_basis(s.n)
        for p in projections(s):
            for _ in range(10):
                ints = {rnd.choice(basis): rnd.choice((-3, -1, 1, 2, 5)) for _ in range(6)}
                got = p.apply(DiffForm(s.n, ints))
                assert got == p.apply(DiffForm(s.n, {m: Fraction(v) for m, v in ints.items()}))
                assert got.terms and all(type(c) is Fraction for c in got.terms.values())
                scalars = dict(ints)
                scalars[next(iter(ints))] = Scalar.of(1)
                with pytest.raises(TypeError, match="Scalar"):
                    p.apply(DiffForm(s.n, scalars))


def _sparse_rows(a, basis, shift=0):
    """Row t of A + shift * Id as {source: nonzero Fraction}, for every t
    in ``basis``."""
    rows = {t: {} for t in basis}
    for (t, b), v in a.items():
        rows[t][b] = Fraction(v)
    for m in basis:
        rows[m][m] = rows[m].get(m, Fraction(0)) + shift
        if not rows[m][m]:
            del rows[m][m]
    return rows


def _sparse_eig_validate(a, basis, plus):
    """(A - plus)(A + 1) = 0 as a product of sparse Fraction rows, then the
    trace split (oracle)."""
    dim = len(basis)
    left, right = _sparse_rows(a, basis, -plus), _sparse_rows(a, basis, 1)
    for row in left.values():
        acc = {}
        for k, x in row.items():
            for j, y in right[k].items():
                acc[j] = acc.get(j, 0) + x * y
        if any(acc.values()):
            raise StructureValidationError("minimal polynomial check failed")
    tr = sum(Fraction(a.get((m, m), 0)) for m in basis)
    m_plus = Fraction(tr + dim, plus + 1)
    if m_plus.denominator != 1 or not (0 < m_plus < dim):
        raise StructureValidationError("trace does not split the fiber")
    m_plus = int(m_plus)
    return [(plus, m_plus), (-1, dim - m_plus)]


def _outcome(fn, a, basis, plus):
    try:
        return fn(a, basis, plus)
    except StructureValidationError as exc:
        return str(exc)


def test_integer_structure_matches_fraction_oracles(g2, spin7):
    rnd = random.Random(4)
    for s in (g2, spin7):
        basis = two_form_basis(s.n)
        # A is the oracle map entry by entry, with int values
        assert s.star_ext == star_ext_on_two_forms(s.defining_form, s.n)
        assert all(type(v) is int for v in s.star_ext.values())
        for _ in range(20):
            # entries moved by small integers, symmetric or not
            broken = dict(s.star_ext)
            i, j = rnd.choice(basis), rnd.choice(basis)
            broken[(i, j)] = broken.get((i, j), 0) + rnd.choice((-2, -1, 1))
            if rnd.random() < 0.5:
                broken[(j, i)] = broken[(i, j)]
            broken = {k: v for k, v in broken.items() if v}
            for a in (s.star_ext, broken):
                want = _outcome(_sparse_eig_validate, a, basis, s.eigenvalue_table[0][0])
                assert _outcome(_eig_validate, a, basis, s.eigenvalue_table[0][0]) == want

        # the projections as derived from the sparse Fraction rows of A
        denom = s.eigenvalue_table[0][0] + 1
        for p, shift, sign in zip(projections(s), (1, -s.eigenvalue_table[0][0]), (1, -1)):
            want = {(t, b): sign * v / denom
                    for t, row in _sparse_rows(s.star_ext, basis, shift).items()
                    for b, v in row.items()}
            assert p.den == denom
            assert {k: Fraction(v, p.den) for k, v in p.entries.items()} == want
            assert all(type(v) is int for v in p.entries.values())


@pytest.mark.parametrize("kind", ["g2", "spin7"])
@pytest.mark.parametrize("flip_cdvol", [False, True])
def test_flipped_star_ext_sign_is_caught(monkeypatch, kind, flip_cdvol):
    """A sign flipped for one source mask of the *e(w) table fails the
    structure validation; of the c(dvol)e(w) table, the bridge check."""
    real = exterior.star_ext_entries
    for mask in two_form_basis(7 if kind == "g2" else 8):

        def flipped(w, sources, cdvol=False, mask=mask):
            out = real(w, sources, cdvol)
            if cdvol != flip_cdvol:
                return out
            return {(t, b): -v if b == mask else v for (t, b), v in out.items()}

        monkeypatch.setattr(holonomy, "star_ext_entries", flipped)
        monkeypatch.setattr(verify, "star_ext_entries", flipped)
        if flip_cdvol:
            assert not verify._bridge_check(standard_structure(kind), 0)
        else:
            with pytest.raises(StructureValidationError):
                standard_structure.__wrapped__(kind)


@pytest.mark.parametrize("kind", ["g2", "spin7"])
@pytest.mark.parametrize("term", sorted(holonomy._PHI_TERMS))
def test_flipped_phi_term_fails_validation(monkeypatch, kind, term):
    terms = dict(holonomy._PHI_TERMS)
    terms[term] = -terms[term]
    monkeypatch.setattr(holonomy, "_PHI_TERMS", terms)
    with pytest.raises(StructureValidationError):
        standard_structure.__wrapped__(kind)


def _regrouped(entries):
    """The entries of a projection grouped by source, each column sorted."""
    cols = {}
    for (t, b), v in entries.items():
        cols.setdefault(b, []).append((t, v))
    return {b: sorted(col) for b, col in cols.items()}


@pytest.mark.parametrize("kind, size", [("g2", 3), ("spin7", 4)])
def test_projection_columns_are_the_entries_regrouped(kind, size):
    """``columns`` holds every entry once, under its source mask; a
    Projection built from altered entries gets matching columns, and its
    ``apply`` equals the sum over all its entries."""
    s = standard_structure(kind)
    basis = two_form_basis(s.n)
    for p in projections(s):
        assert {b: sorted(col) for b, col in p.columns.items()} == _regrouped(p.entries)
        assert sorted(p.columns) == sorted(basis)
        assert {len(col) for col in p.columns.values()} == {size}
    p7 = projections(s)[0]
    rnd = random.Random(11)
    altered = dict(p7.entries)
    first = next(iter(altered))[0]
    altered = {(t, b): v for (t, b), v in altered.items() if t != first}
    altered[(basis[0], basis[-1])] = 5
    altered[(basis[1], basis[1])] = altered.get((basis[1], basis[1]), 0) - 2
    q = Projection(p7.target, p7.n, p7.den, altered)
    assert {b: sorted(col) for b, col in q.columns.items()} == _regrouped(altered)
    for _ in range(20):
        alpha = DiffForm(s.n, {rnd.choice(basis): Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
                               for _ in range(5)})
        want = {}
        for (t, b), v in altered.items():
            want[t] = want.get(t, 0) + Fraction(v, q.den) * alpha.terms.get(b, 0)
        assert q.apply(alpha) == DiffForm(s.n, want)


@pytest.mark.parametrize("kind", ["g2", "spin7"])
def test_bundle_weight_check_holds_and_can_fail(kind):
    """tr(A D_ab D_cd), antisymmetrised, is -4 A; the check fails on A + Id
    (sent to -4 A - 2 (n - 2) Id) and on A with one symmetric off-diagonal
    pair negated.  Each altered A goes into a new structure; the cached
    ``standard_structure`` object and its map stay as they are."""
    s = standard_structure(kind)
    star_ext = dict(s.star_ext)

    def with_star_ext(entries):
        return HolonomyStructure(s.kind, s.n, s.defining_form, s.eigenvalue_table,
                                 entries, s.projection_pair)

    assert bundle_weight_check(s)
    shifted = dict(s.star_ext)
    for m in two_form_basis(s.n):
        shifted[(m, m)] = shifted.get((m, m), 0) + 1
    assert not bundle_weight_check(with_star_ext(shifted))
    negated = dict(s.star_ext)
    t, b = next(k for k in negated if k[0] != k[1])
    negated[(t, b)], negated[(b, t)] = -negated[(t, b)], -negated[(b, t)]
    assert not bundle_weight_check(with_star_ext(negated))
    assert standard_structure(kind) is s and s.star_ext == star_ext


@pytest.mark.parametrize("bad", [Fraction(2), 2.0, True, Scalar.of(2), np.int64(2)])
def test_projection_rejects_numerators_that_are_not_ints(bad):
    with pytest.raises(TypeError, match="projection numerators must be ints"):
        Projection("7", 7, 3, {(3, 3): 2, (5, 3): bad})
    assert Projection("7", 7, 3, {(3, 3): 2, (5, 3): -1}).columns == {3: ((3, 2), (5, -1))}
