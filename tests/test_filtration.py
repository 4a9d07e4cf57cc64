import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specasym import filtration
from specasym.exact import Scalar
from specasym.exterior import DiffForm, FiberOp, apply_word, popcount, sparse_product, star_ext_entries
from specasym.filtration import (
    CliffordWordExpansion,
    _sum_dtype,
    expand_clifford_basis,
    gram_orthogonality_check,
    trace_identity_sweep,
    word_tables,
)
from specasym.wordops import WordOperator


def _trace_of_word(n, cm, hm):
    """The degree-0 form trace of the word c(omega^cm) c-hat(omega^hm)."""
    return WordOperator.from_word(n, cm, hm).form_trace().terms.get(0, 0)


def test_form_trace_of_single_words():
    full = (1 << 7) - 1
    assert _trace_of_word(7, 0, 0) == 128
    assert _trace_of_word(7, 1, 0) == 0
    assert _trace_of_word(7, full, full) == 0


def test_form_trace_of_words_against_dense_matrices(fiber_matrix):
    """``form_trace`` of c(I) c-hat(J), as a product of two WordOperators,
    against the trace of the product of their fiber matrices."""
    rnd = random.Random(3)
    n = 5
    for _ in range(10):
        cm, hm = rnd.randrange(1 << n), rnd.randrange(1 << n)
        x = WordOperator.from_word(n, cm, 0) * WordOperator.from_word(n, 0, hm)
        dense = sparse_product(fiber_matrix(WordOperator.from_word(n, cm, 0)),
                               fiber_matrix(WordOperator.from_word(n, 0, hm)))
        assert fiber_matrix(x) == dense
        assert x.form_trace().terms.get(0, 0) == sum(v for (i, j), v in dense.items() if i == j)
    assert _trace_of_word(n, 0b101, 0b101) == 0


@pytest.mark.parametrize("hat", [False, True])
@pytest.mark.parametrize("n", [3, 5, 7, 8])
def test_word_tables_match_apply_word(n, hat):
    signs = word_tables(n, hat)
    assert signs.dtype == np.int8 and signs.shape == (1 << n, 1 << n)
    for w in range(1 << n):
        for s in range(1 << n):
            want = apply_word(0, w, s) if hat else apply_word(w, 0, s)
            assert (int(signs[w, s]), s ^ w) == want


@pytest.mark.parametrize("n", [7, 8])
def test_word_tables_match_generator_words(generator_words, n):
    """Both tables against the generator products built from DiffForm."""
    for hat in (False, True):
        signs, words = word_tables(n, hat), generator_words(n, hat)
        for w in range(1 << n):
            assert words[w] == {(s ^ w, s): int(signs[w, s]) for s in range(1 << n)}, (hat, w)


def test_sweep_small_exhaustive():
    fails, checked = trace_identity_sweep(5)
    assert checked == 4 ** 5 and not fails


def test_gram_orthogonality():
    fails, checked = gram_orthogonality_check(7, seed=1)
    assert not fails and checked == 400


def _identity(n, r=1):
    return FiberOp(n, r, {(i, i): Fraction(1) for i in range((1 << n) * r)})


def test_expand_identity_and_generator():
    exp = expand_clifford_basis(_identity(7))
    assert exp.coefficients == {(0, 0): Fraction(1)}
    e1 = FiberOp.ext_op(DiffForm.monomial(7, (1,)))
    exp = expand_clifford_basis(e1)
    assert exp.coefficients == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}


def test_expand_round_trip_random():
    m = _random_operator(7, 50, seed=7)
    assert expand_clifford_basis(m).reconstruct() == m


def _entry_loop_reconstruct(exp):
    """The word expansion summed one entry at a time from Fraction(0) (oracle)."""
    cs = word_tables(exp.n, False)
    hs = word_tables(exp.n, True)
    entries = {}
    for (cm, hm), coeff in exp.coefficients.items():
        for s in range(1 << exp.n):
            v = coeff if cs[cm, s ^ hm] * hs[hm, s] > 0 else -coeff
            key = (s ^ cm ^ hm, s)
            entries[key] = entries.get(key, Fraction(0)) + v
    return FiberOp(exp.n, 1, entries)


def _random_operator(n, entries, seed):
    rnd = random.Random(seed)
    out = {}
    for _ in range(entries):
        key = (rnd.randrange(1 << n), rnd.randrange(1 << n))
        out[key] = out.get(key, 0) + Fraction(rnd.randint(-6, 6), rnd.randint(1, 5))
    return FiberOp(n, 1, out)


def _random_words(n, count, seed, draw):
    rnd = random.Random(seed)
    return CliffordWordExpansion(n, {
        (rnd.randrange(1 << n), rnd.randrange(1 << n)): draw(rnd) for _ in range(count)
    })


def _int_or_fraction(rnd):
    if rnd.randrange(3) == 0:
        return rnd.randint(-2, 2)
    return Fraction(rnd.randint(-4, 4), rnd.randint(1, 6))


def _random_sparse(n, count, rnd):
    dim = 1 << n
    return {(rnd.randrange(dim), rnd.randrange(dim)): _int_or_fraction(rnd) for _ in range(count)}


def _pairing(x, y):
    """Sum of x[k] * y[k] over the shared keys of two sparse maps."""
    return sum((v * y[k] for k, v in x.items() if k in y), Fraction(0))


@pytest.mark.parametrize("n", [5, 7, 8])
def test_expansion_is_the_adjoint_of_the_reconstruction(n):
    """<K phi, M>_F = 2^n sum phi_IJ expand(M)_IJ, exactly: ``reconstruct``
    applies the word-sign matrix K and ``expand_clifford_basis`` applies
    K^T / 2^n, so a wrong sign in either direction alone breaks it."""
    rnd = random.Random(n)
    dim = 1 << n
    for _ in range(4):
        phi = CliffordWordExpansion(n, _random_sparse(n, 6, rnd))
        entries = _random_sparse(n, 20, rnd)
        # half of M on entries that the words of phi reach, so the
        # pairing has terms to compare
        for _ in range(20):
            cm, hm = rnd.choice(list(phi.coefficients))
            s = rnd.randrange(dim)
            entries[(s ^ cm ^ hm, s)] = _int_or_fraction(rnd)
        m = FiberOp(n, 1, entries)
        got = _pairing(phi.reconstruct().entries, m.entries)
        assert got != 0
        assert got == dim * _pairing(phi.coefficients, expand_clifford_basis(m).coefficients)


def test_expansion_of_a_word_operator_recovers_its_terms(fiber_matrix, scalar_maps):
    """The form-free words of a rank-1 WordOperator are the expansion
    coefficients of its fiber matrix, built from the generator words; the
    matrix's real rational Scalars are read as Fractions."""
    rnd = random.Random(21)
    for n in (5, 7):
        x = WordOperator(n, 1, {
            (0, cm, hm): {(0, 0): Scalar.of(v)} for (cm, hm), v in _random_sparse(n, 5, rnd).items()
        })
        matrix = {k: _fraction(v) for k, v in fiber_matrix(x).items()}
        got = expand_clifford_basis(FiberOp(n, 1, matrix)).coefficients
        assert got == {(cm, hm): _fraction(m[0, 0])
                       for (_, cm, hm), m in scalar_maps.terms(x).items()}


def _fraction(c):
    """A real rational Scalar as a Fraction."""
    (key, (re, im)), = c.terms.items()
    assert key == (0, 0) and not im
    return re


@pytest.mark.parametrize("case", [
    "random-n5", "random-n7", "tiny-n8", "30-digit-denominators", "empty",
    "int-and-fraction-coefficients",
])
def test_reconstruct_matches_entry_loop(case):
    if case == "random-n5":
        exp = expand_clifford_basis(_random_operator(5, 20, seed=1))
    elif case == "random-n7":
        exp = expand_clifford_basis(_random_operator(7, 3, seed=2))
    elif case == "tiny-n8":
        exp = expand_clifford_basis(_random_operator(8, 1, seed=3))
    elif case == "30-digit-denominators":
        exp = _random_words(5, 60, seed=4, draw=lambda rnd: Fraction(
            rnd.randint(-10 ** 30, 10 ** 30), rnd.randint(10 ** 29, 10 ** 30)))
    elif case == "empty":
        exp = CliffordWordExpansion(7, {})
    else:
        exp = _random_words(5, 80, seed=5, draw=_int_or_fraction)
    got, want = exp.reconstruct(), _entry_loop_reconstruct(exp)
    assert got == want
    assert all(type(v) is Fraction for v in got.entries.values())


def test_sweep_blocks_match_pair_loop(flipped_word_sign):
    """Given pairs are read in slices; the failures equal a per-pair loop's."""
    fails, checked = trace_identity_sweep(7)
    assert checked == 4 ** 7 and fails == _full_gather_sweep(7, [(3, 3)])
    assert fails[0][2] in (2, -2)
    rnd = random.Random(6)
    pairs = [(3, 3), (0, 0)] + [(rnd.randrange(128), rnd.randrange(128)) for _ in range(148)]
    pairs.insert(10, (3, 3))
    pairs.insert(100, (3, 3))
    want = _full_gather_sweep(7, pairs)
    fails, checked = trace_identity_sweep(7, iter(pairs))
    assert checked == len(pairs) and fails == want and len(want) == 3


def _entry_loop_expand(m):
    """Hilbert-Schmidt coefficients added one Fraction entry at a time (oracle)."""
    n, dim = m.n, 1 << m.n
    cs = word_tables(n, False)
    hs = word_tables(n, True)
    coeffs = {}
    for row_mask in range(dim):
        for col_mask in range(dim):
            v = m.entries.get((row_mask, col_mask), 0)
            if v == 0:
                continue
            diff = row_mask ^ col_mask
            for hm in range(dim):
                cm = diff ^ hm
                sg = int(cs[cm, col_mask ^ hm]) * int(hs[hm, col_mask])
                acc = coeffs.get((cm, hm), 0) + (v if sg > 0 else -v)
                if acc == 0:
                    coeffs.pop((cm, hm), None)
                else:
                    coeffs[(cm, hm)] = acc
    return {k: v * Fraction(1, dim) for k, v in coeffs.items()}


def _rational(draw, huge):
    bound = 2 ** 70 if huge else 6
    return Fraction(draw(st.integers(-bound, bound)), draw(st.integers(1, bound)))


@st.composite
def _entries(draw, ns=(7, 8), min_size=1):
    """n from ``ns`` and a sparse map of at most 6 keys at n, a rank-1
    operator's entries or word coefficients: ints (zeros too) and
    rationals, with numerators past 2^62."""
    n = draw(st.sampled_from(ns))
    huge = draw(st.booleans())
    entries = {}
    for _ in range(draw(st.integers(min_size, 6))):
        pos = (draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, (1 << n) - 1)))
        if draw(st.booleans()):
            entries[pos] = draw(st.integers(-3, 3))
        else:
            entries[pos] = _rational(draw, huge)
    return n, entries


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_entries(), st.data())
def test_integer_paths_match_oracles(drawn, data):
    n, entries = drawn
    m = FiberOp(n, 1, entries)
    exp = expand_clifford_basis(m)
    assert exp.coefficients == _entry_loop_expand(m)
    assert exp.reconstruct() == m

    # FiberOp.__eq__ against entrywise comparison over the whole fiber:
    # explicit zeros (int 0, Fraction(0), a zero Scalar) and one changed entry
    dim = 1 << n

    def entrywise(a, b):
        return all(a.entries.get((i, j), 0) == b.entries.get((i, j), 0)
                   for i in range(dim) for j in range(dim))

    zeros = (0, Fraction(0), Scalar())
    padded = dict(m.entries)
    for k in range(0, dim * dim, 3):
        padded.setdefault(divmod(k, dim), zeros[k % 3])
    other = FiberOp(n, 1, padded)
    assert entrywise(m, other) and m == other
    key = divmod(data.draw(st.integers(0, dim * dim - 1)), dim)
    changed = dict(other.entries)
    changed[key] = changed.get(key, Fraction(0)) + 1
    other = FiberOp(n, 1, changed)
    assert not entrywise(m, other) and not m == other


@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_entries((5, 7, 8)), st.data())
def test_word_transform_matches_the_entry_loops(drawn, data):
    """Both directions of the signed Walsh-Hadamard transform against the
    entry-loop oracles: the expansion of drawn fiber entries and its
    reconstruction from the numerators it holds, and the reconstruction of
    drawn word coefficients and their expansion back."""
    n, entries = drawn
    m = FiberOp(n, 1, entries)
    exp = expand_clifford_basis(m)
    assert exp.coefficients == _entry_loop_expand(m)
    assert exp.reconstruct() == _entry_loop_reconstruct(exp) == m

    _, words = data.draw(_entries((n,), 0))
    phi = CliffordWordExpansion(n, words)
    back = phi.reconstruct()
    assert back == _entry_loop_reconstruct(phi)
    assert expand_clifford_basis(back).coefficients == {k: v for k, v in words.items() if v}


def test_word_sum_accumulator_switches_to_python_ints(monkeypatch):
    """A row of the transform stays int64 while every signed sum of 2^n
    of its numerators stays below 2^62, and is taken to Python ints past
    that, in each direction apart: a 2^61 numerator at n = 5 takes the
    object path both ways, and two 2^56 numerators on one offset give word
    numerators of 2^57, which reconstruct on Python ints.  Both round
    trips are exact."""
    assert _sum_dtype(2 ** 56, 5) is np.int64
    assert _sum_dtype(2 ** 57, 5) is object
    assert _sum_dtype(0, 8) is np.int64
    transform, seen = filtration._word_transform, []

    def spy(*args):
        out = transform(*args)
        seen.append(out.dtype)
        return out

    monkeypatch.setattr(filtration, "_word_transform", spy)
    for entries, dtypes in (
        ({(3, 5): 2 ** 61, (6, 6): Fraction(-1, 3)}, [object, object]),
        ({(3, 5): 2 ** 56, (5, 3): 2 ** 56}, [np.int64, object]),
    ):
        seen.clear()
        m = FiberOp(5, 1, entries)
        exp = expand_clifford_basis(m)
        assert exp.coefficients == _entry_loop_expand(m)
        assert exp.reconstruct() == m
        assert seen == [np.dtype(t) for t in dtypes]


def _full_gather_sweep(n, pairs):
    """Every given pair gathered from the word tables (oracle)."""
    dim = 1 << n
    cs = filtration.word_tables(n, False)
    hs = filtration.word_tables(n, True)
    s = np.arange(dim)
    failures = []
    for cm, hm in pairs:
        sg = cs[cm, s ^ hm].astype(np.int64) * hs[hm]
        tr = int(sg[(s ^ cm ^ hm) == s].sum())
        if tr != (dim if (cm, hm) == (0, 0) else 0):
            failures.append((cm, hm, tr))
    return failures


def _flip_hat_sign(monkeypatch, n, w, s):
    """filtration.word_tables with the sign of the n-dimensional c-hat
    word over ``w`` on e^s negated."""
    tables = filtration.word_tables

    def patched(m, hat):
        signs = tables(m, hat)
        if m == n and hat:
            signs = signs.copy()
            signs[w, s] = -signs[w, s]
        return signs

    monkeypatch.setattr(filtration, "word_tables", patched)


def _sample_pairs(n):
    return np.random.default_rng(0).integers(0, 1 << n, size=(10 ** 4, 2))


@pytest.mark.parametrize("n", [7, 8], ids=["hat-sign-7", "hat-sign-8"])
def test_sweep_reports_full_gather_failures_on_broken_tables(monkeypatch, n):
    """The sweep sums diagonal pairs only and reports the failures of a
    gather over every pair when one c-hat sign is flipped."""
    dim = 1 << n
    sample = _sample_pairs(n)
    w = next(int(a) for a, b in sample if a == b and a)  # a diagonal pair in the sample
    _flip_hat_sign(monkeypatch, n, w, 5)

    pairs = [(int(a), int(b)) for a, b in sample]
    want = _full_gather_sweep(n, pairs)
    assert (w, w) in {(a, b) for a, b, _ in want}
    assert trace_identity_sweep(n, sample) == (want, len(pairs))
    assert trace_identity_sweep(n, iter(pairs)) == (want, len(pairs))
    if n == 7:
        every = [(a, b) for a in range(dim) for b in range(dim)]
        assert trace_identity_sweep(n) == (_full_gather_sweep(n, every), dim * dim)


def test_expand_requires_rank_one():
    with pytest.raises(ValueError):
        expand_clifford_basis(_identity(5, r=2))


def test_low_degree_operators_are_traceless_against_weight(g2, generator_words, fiber_matrix):
    # tr(c(dvol) e(w) M) = 0 whenever the upper Clifford degree of M is
    # below n - deg w; exercised with random small-word operators, with
    # c(dvol) the generator word over all indices.
    rnd = random.Random(11)
    w = g2.defining_form
    cdvol_w = sparse_product(generator_words(7, False)[(1 << 7) - 1], FiberOp.ext_op(w).entries)
    assert cdvol_w == star_ext_entries(w, range(1 << 7), True)
    for _ in range(40):
        terms = {}
        for _ in range(4):
            cmask = 0
            for b in rnd.sample(range(7), rnd.randint(0, 3)):
                cmask |= 1 << b
            hmask = rnd.randrange(128)
            terms[(0, cmask, hmask)] = {(0, 0): Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))}
        m = WordOperator(7, 1, {k: {ab: _sc(x) for ab, x in v.items()} for k, v in terms.items()})
        if m.is_zero() or max(popcount(c) for _, c, _ in m.terms) >= 4:
            continue
        fm = fiber_matrix(m)
        assert not sum(v * fm[(j, i)] for (i, j), v in cdvol_w.items() if (j, i) in fm)


def _sc(x):
    from specasym.exact import Scalar

    return Scalar.of(x)
