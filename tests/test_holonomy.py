import random
from fractions import Fraction

import numpy as np
import pytest

from specasym import exterior, holonomy, verify
from specasym.exact import Scalar
from specasym.exterior import DiffForm
from specasym.holonomy import (
    StructureValidationError,
    _eig_validate,
    decompose_two_form,
    instanton_check,
    projections,
    standard_structure,
    star_ext_on_two_forms,
    two_form_basis,
)
from specasym.residue import CurvatureData, instanton_line_curvature


def _fraction_operator(s):
    """The stored integer rows of *e(w) as a dense object array of Fractions."""
    pos = {m: i for i, m in enumerate(two_form_basis(s.n))}
    a = np.full((len(pos), len(pos)), Fraction(0), dtype=object)
    for m, row in s.star_ext_rows:
        for mj, v in row:
            a[pos[m], pos[mj]] = Fraction(v)
    return a


def _index_rows(mat):
    """Every row of a dense matrix as {column: value} over its nonzero
    entries, the input of ``_eig_validate``."""
    return [{j: v for j, v in enumerate(row) if v} for row in mat.tolist()]


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
        a = _fraction_operator(s)
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
        assert (np.dot(p7.matrix, p7.matrix) == p7.matrix).all()
        assert all(v == 0 for v in np.dot(p7.matrix, pbig.matrix).flat)
        dim = p7.matrix.shape[0]
        for i in range(dim):
            for j in range(dim):
                assert p7.matrix[i, j] + pbig.matrix[i, j] == (1 if i == j else 0)


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
    assert rep.ok and rep.exact_zero


def test_instanton_check_seven_part(g2):
    # i_{e_1} phi lies entirely in the 7-part: not an instanton
    iv = g2.defining_form.interior(1)
    f_entries = {}
    from specasym.exact import Scalar

    for m, c in iv.terms.items():
        lo = (m & -m).bit_length()
        hi = (m & (m - 1)).bit_length()
        f_entries[(lo, hi)] = ((Scalar.i() * Scalar.of(c),),)
    rep = instanton_check(g2, CurvatureData(7, 1, {}, f_entries))
    assert not rep.ok and rep.max_component > 0.5


def test_instanton_check_big_part(g2):
    cd = instanton_line_curvature(g2, base=(1, 2), scale=3)
    rep = instanton_check(g2, cd)
    assert rep.ok and rep.exact_zero


def test_star_ext_matrix_symmetry(g2):
    mat = star_ext_on_two_forms(g2.defining_form, 7)
    assert (mat.T == mat).all()


def test_eig_validate_rejects_broken_operators(g2, spin7):
    for s, plus in ((g2, 2), (spin7, 3)):
        a = _fraction_operator(s)
        assert _eig_validate(_index_rows(a), plus) == s.eigenvalue_table
        i, j = next((i, j) for i in range(a.shape[0]) for j in range(i) if a[i, j])
        broken = a.copy()
        broken[i, j], broken[j, i] = -a[i, j], -a[j, i]
        assert (broken.T == broken).all()
        with pytest.raises(StructureValidationError, match="minimal polynomial"):
            _eig_validate(_index_rows(broken), plus)
        # plus * Id satisfies the polynomial but puts the whole fiber in one part
        scalar = np.full(a.shape, Fraction(0), dtype=object)
        for k in range(a.shape[0]):
            scalar[k, k] = Fraction(plus)
        with pytest.raises(StructureValidationError, match="trace"):
            _eig_validate(_index_rows(scalar), plus)
        # an empty sparse row (eigenvalue 0) fails only through its plus Id term
        hole = scalar.copy()
        hole[0, 0] = Fraction(0)
        with pytest.raises(StructureValidationError, match="minimal polynomial"):
            _eig_validate(_index_rows(hole), plus)


@pytest.mark.parametrize("kind", ["g2", "spin7"])
def test_nonsymmetric_conjugate_operator_is_caught(monkeypatch, kind):
    """S A S^-1 for a unimodular S keeps the minimal polynomial and the
    trace; only the symmetry check rejects it."""
    s = standard_structure(kind)
    a = s.star_ext
    shear = np.eye(len(a), dtype=np.int64)
    shear[0, 1] = 1
    inverse = np.eye(len(a), dtype=np.int64)
    inverse[0, 1] = -1
    conj = shear @ a @ inverse
    assert (conj != conj.T).any()
    assert _eig_validate(_index_rows(conj), s.plus_eigenvalue) == s.eigenvalue_table
    monkeypatch.setattr(holonomy, "_star_ext_rows", lambda form: _index_rows(conj))
    with pytest.raises(StructureValidationError, match="not symmetric"):
        standard_structure(kind)


def test_projection_apply_matches_dense_product(g2, spin7):
    rnd = random.Random(5)

    def q():
        return Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))

    for s in (g2, spin7):
        basis = two_form_basis(s.n)
        for p in projections(s):
            for _ in range(10):
                alpha = DiffForm(s.n, {
                    rnd.choice(basis): Scalar.term(q(), q(), pi_half=rnd.choice((0, -2)))
                    for _ in range(rnd.randint(1, 6))
                })
                rational = DiffForm(s.n, {m: q() for m in alpha.terms})
                # the output keeps the coefficient type of the input
                for form, kind in ((alpha, Scalar), (rational, Fraction)):
                    vec = np.array([form.terms.get(m, kind(0)) for m in basis], dtype=object)
                    dense = p.matrix.dot(vec)
                    got = p.apply(form)
                    assert got == DiffForm(s.n, dict(zip(basis, dense)))
                    assert all(type(c) is kind for c in got.terms.values())


def test_projection_apply_is_one_path_for_every_coefficient_type(g2, spin7):
    """The same integer 2-form as int, Fraction, real-Scalar and
    complex-Scalar coefficients projects to equal values; the output is
    Fractions for rational input and Scalars for Scalar input."""
    rnd = random.Random(11)
    z = Scalar.term(1, 2)  # 1 + 2i
    several = Scalar.term(3, -1, pi_half=1) + Scalar.term(Fraction(1, 2), 0, t_half=-2)
    for s in (g2, spin7):
        basis = two_form_basis(s.n)
        for p in projections(s):
            for _ in range(10):
                ints = {rnd.choice(basis): rnd.choice((-3, -1, 1, 2, 5)) for _ in range(6)}
                got = {
                    "int": p.apply(DiffForm(s.n, ints)),
                    "fraction": p.apply(DiffForm(s.n, {m: Fraction(v) for m, v in ints.items()})),
                    "real": p.apply(DiffForm(s.n, {m: Scalar.of(v) for m, v in ints.items()})),
                    "complex": p.apply(DiffForm(s.n, {m: v * z for m, v in ints.items()})),
                    "planes": p.apply(DiffForm(s.n, {m: v * several for m, v in ints.items()})),
                }
                assert got["int"] == got["fraction"] == got["real"]
                assert got["complex"] == got["int"].scale(z)
                assert got["planes"] == got["int"].scale(several)
                for key, form in got.items():
                    kind = Fraction if key in ("int", "fraction") else Scalar
                    assert all(type(c) is kind for c in form.terms.values()), key


def _sparse_rows(mat, shift=0):
    """Nonzero entries of mat + shift * Id, row by row."""
    rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
    for i, row in enumerate(rows):
        row[i] = row.get(i, 0) + shift
        if not row[i]:
            del row[i]
    return rows


def _sparse_eig_validate(mat, plus):
    """(A - plus)(A + 1) = 0 as a product of sparse Fraction rows, then the
    trace split (oracle)."""
    dim = mat.shape[0]
    left, right = _sparse_rows(mat, -plus), _sparse_rows(mat, 1)
    for row in left:
        acc = {}
        for k, a in row.items():
            for j, b in right[k].items():
                acc[j] = acc.get(j, 0) + a * b
        if any(acc.values()):
            raise StructureValidationError("minimal polynomial check failed")
    tr = sum(mat[i, i] for i in range(dim))
    m_plus = Fraction(tr + dim, plus + 1)
    if m_plus.denominator != 1 or not (0 < m_plus < dim):
        raise StructureValidationError("trace does not split the fiber")
    m_plus = int(m_plus)
    return [(plus, m_plus), (-1, dim - m_plus)]


def _outcome(fn, mat, plus):
    try:
        return fn(mat, plus)
    except StructureValidationError as exc:
        return str(exc)


def test_integer_structure_matches_fraction_oracles(g2, spin7):
    rnd = random.Random(4)
    for s in (g2, spin7):
        # the rows are the oracle matrix entry by entry: every nonzero entry
        # in basis order, every basis row present
        oracle = star_ext_on_two_forms(s.defining_form, s.n)
        basis = two_form_basis(s.n)
        assert s.star_ext_rows == [
            (basis[i], [(basis[j], v) for j, v in enumerate(row) if v])
            for i, row in enumerate(oracle.tolist())
        ]
        assert all(type(v) is int for _, row in s.star_ext_rows for _, v in row)
        assert s.star_ext.dtype == np.int64
        assert (s.star_ext == oracle).all()
        a = _fraction_operator(s)
        ints = np.array(a.tolist(), dtype=np.int64)
        for _ in range(20):
            # entries moved by small integers, symmetric or not
            broken = ints.copy()
            i, j = rnd.randrange(len(a)), rnd.randrange(len(a))
            broken[i, j] += rnd.choice((-2, -1, 1))
            if rnd.random() < 0.5:
                broken[j, i] = broken[i, j]
            for mat in (ints, broken):
                want = _outcome(_sparse_eig_validate, mat.astype(object), s.plus_eigenvalue)
                assert _outcome(_eig_validate, _index_rows(mat), s.plus_eigenvalue) == want

        # the projections as derived from the sparse Fraction rows of A
        denom = Fraction(s.plus_eigenvalue + 1)
        for p, shift, sign in zip(projections(s), (1, -s.plus_eigenvalue), (1, -1)):
            want = [
                (basis[i], [(basis[j], sign * v / denom) for j, v in sorted(row.items())])
                for i, row in enumerate(_sparse_rows(a, shift))
            ]
            assert p.den == s.plus_eigenvalue + 1
            assert [(m, [(mj, Fraction(v, p.den)) for mj, v in row]) for m, row in p.rows] == want
            assert all(type(v) is int for _, row in p.rows for _, v in row)


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
                standard_structure(kind)


@pytest.mark.parametrize("kind", ["g2", "spin7"])
@pytest.mark.parametrize("term", sorted(holonomy._PHI_TERMS))
def test_flipped_phi_term_fails_validation(monkeypatch, kind, term):
    terms = dict(holonomy._PHI_TERMS)
    terms[term] = -terms[term]
    monkeypatch.setattr(holonomy, "_PHI_TERMS", terms)
    with pytest.raises(StructureValidationError):
        standard_structure(kind)
