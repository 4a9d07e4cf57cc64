
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from specasym import exterior, filtration, verify, wordops
from specasym.exterior import DiffForm, FiberOp, popcount, star_ext_entries
from specasym.filtration import CliffordWordExpansion, expand_clifford_basis
from specasym.holonomy import Projection, projections, standard_structure
from specasym.spectrum import enumerate_levels


def _statuses(results):
    return {r.name: r.status for r in results}


def test_algebra_and_holonomy_suites_pass():
    for suite in (verify.algebra_suite, verify.holonomy_suite):
        results = suite(0)
        assert results and all(r.status == "pass" for r in results), [
            r.name for r in results if r.status != "pass"
        ]


def test_round_trip_check_fails_when_a_coefficient_is_dropped(monkeypatch):
    reconstruct = CliffordWordExpansion.reconstruct

    def dropping(self):
        kept = dict(self.coefficients)
        kept.pop(next(iter(kept)))
        return reconstruct(CliffordWordExpansion(self.n, kept))

    monkeypatch.setattr(CliffordWordExpansion, "reconstruct", dropping)
    status = _statuses(verify.algebra_suite(0))
    assert status["expansion round trip on a random operator"] == "fail"


def test_round_trip_check_fails_when_a_word_sign_is_dropped(monkeypatch):
    reconstruct = CliffordWordExpansion.reconstruct

    def flipping(self):
        coeffs = dict(self.coefficients)
        key = next(iter(coeffs))
        coeffs[key] = -coeffs[key]
        return reconstruct(CliffordWordExpansion(self.n, coeffs))

    monkeypatch.setattr(CliffordWordExpansion, "reconstruct", flipping)
    status = _statuses(verify.algebra_suite(0))
    assert status["expansion round trip on a random operator"] == "fail"


def test_each_check_records_its_seconds():
    results = verify.holonomy_suite(0)
    assert all(r.seconds >= 0 for r in results) and sum(r.seconds for r in results) > 0
    assert all(r.to_dict()["seconds"] == r.seconds for r in results)
    assert verify.CheckResult("synthetic", "pass").to_dict() == {
        "name": "synthetic", "status": "pass", "detail": "", "seconds": 0.0}


@pytest.mark.parametrize("broken", ["wedge-on-the-right", "interior-sign"])
def test_interior_adjoint_check_can_fail(monkeypatch, broken):
    """e^s ^ e^i = (-1)^|s| e^i ^ e^s, so a wedge that multiplies on the
    right flips the odd-degree columns of e(e^i)."""
    if broken == "wedge-on-the-right":
        wedge = DiffForm.wedge
        monkeypatch.setattr(DiffForm, "wedge", lambda self, other: wedge(other, self))
    else:
        interior = DiffForm.interior
        monkeypatch.setattr(
            DiffForm, "interior", lambda self, i: interior(self, i).scale(-1 if i == 3 else 1)
        )
    status = _statuses(verify.algebra_suite(0))
    assert status["interior operator is the matrix adjoint"] == "fail"


def test_trace_sweep_check_fails_on_a_flipped_word_sign(flipped_word_sign):
    status = _statuses(verify.algebra_suite(0))
    assert status["word-trace identity, all 4^7 pairs (n=7)"] == "fail"
    assert status["word-trace identity, 10^4 random pairs (n=8)"] == "pass"


def test_gram_check_fails_on_a_flipped_word_sign(flipped_word_sign):
    """The sampled pairs share their targets, so the off-diagonal ones read
    the flipped sign of c(e1)c(e2)."""
    status = _statuses(verify.algebra_suite(0))
    assert status["word Gram orthogonality (n=7)"] == "fail"
    assert status["word Gram orthogonality (n=8)"] == "pass"


@pytest.mark.parametrize("kind", ["g2", "spin7"])
def test_projection_checks_fail_on_a_changed_entry(monkeypatch, kind):
    """One diagonal numerator of P_7 moved by 1: symmetry still holds, so
    the integer products have to catch it."""

    def changed(s):
        p7, pbig = projections(s)
        if s.kind != kind:
            return p7, pbig
        entries = dict(p7.entries)
        mask = next(t for t, b in entries if t == b)
        entries[(mask, mask)] += 1
        return Projection(p7.target, p7.n, p7.den, entries), pbig

    monkeypatch.setattr(verify, "projections", changed)
    status = _statuses(verify.holonomy_suite(0))
    other = "spin7" if kind == "g2" else "g2"
    for check in ("projections idempotent, orthogonal, symmetric",
                  "spectral reconstruction plus*P7 - Pbig",
                  "projections commute with *e(w)",
                  "projection traces"):
        assert status[f"{kind} {check}"] == "fail"
        assert status[f"{other} {check}"] == "pass"


def test_trace_path_check_fails_on_a_flipped_join_sign(monkeypatch):
    """A sign error in tr V^2 reaches the Mehler and the Duhamel density
    alike, so they still agree; the full-kernel check sees it, and so does
    the measured normalisation against the constant -2."""
    from specasym import heat

    traces = heat.model_traces

    def flipped(cd):
        den, tr_q, tr_v, tr_v2 = traces(cd)
        return den, tr_q, tr_v, -tr_v2

    monkeypatch.setattr(heat, "model_traces", flipped)
    status = _statuses(verify.heat_suite(0))
    name = "Duhamel density equals the density of the full Duhamel kernel"
    assert status[name] == "fail"
    assert status["g2 normalisation is -2"] == "fail"
    assert status["spin7 normalisation is -2"] == "fail"
    assert status["mehler = duhamel through t^2 (n=7, r=1, seed 3)"] == "pass"


_RATIO_ROWS = {f"{kind} untruncated-operator / model ratio at residue order": want
               for kind, want in (("g2", "1/16"), ("spin7", "1/32"))}


@pytest.mark.parametrize("doubled", [False, True])
def test_model_ratio_rows_compare_with_two_to_the_three_minus_n(monkeypatch, doubled):
    """The ratio rows pass at 1/16 and 1/32 and fail when the measured
    ratio is doubled."""
    if doubled:
        ratio = verify.model_reduction_ratio
        monkeypatch.setattr(verify, "model_reduction_ratio", lambda s: ratio(s) * 2)
    results = {r.name: r for r in verify.heat_suite(0)}
    for name, want in _RATIO_ROWS.items():
        assert results[name].status == ("fail" if doubled else "pass")
        assert (results[name].detail == want) != doubled


def _fraction_bridge_sums(s, seed):
    """The random-M loop of the bridge check on Fraction entries, each
    trace times 6, with both weight tables from ``star_ext_entries``, on
    the draws of ``verify._uniform_draws`` (oracle of
    ``verify._bridge_sums``)."""
    basis2 = [m for m in range(1 << s.n) if popcount(m) == 2]
    star_w = star_ext_entries(s.defining_form, basis2)
    cdvol_w = star_ext_entries(s.defining_form, basis2, cdvol=True)
    draws = verify._uniform_draws(random.Random(seed + s.n), (len(basis2), len(basis2), 7, 3), 1200)
    rows, cols, nums, dens = (col.tolist() for col in draws)
    sums = []
    for first in range(0, 1200, 12):
        entries = {}
        for d in range(first, first + 12):
            a, b = basis2[rows[d]], basis2[cols[d]]
            entries[(a, b)] = entries.get((a, b), 0) + Fraction(nums[d] - 3, dens[d] + 1)
        lhs = sum(star_w.get((b, a), 0) * v for (a, b), v in entries.items())
        rhs = sum(cdvol_w.get((b, a), 0) * v for (a, b), v in entries.items())
        sums.append((6 * lhs, 6 * rhs))
    return sums


@pytest.mark.parametrize("kind", ["g2", "spin7"])
@pytest.mark.parametrize("seed", [0, 3])
def test_bridge_sums_draw_the_same_random_operators(kind, seed):
    s = standard_structure(kind)
    basis2 = [m for m in range(1 << s.n) if popcount(m) == 2]
    cdvol_w = {k: int(v) for k, v in star_ext_entries(s.defining_form, basis2, True).items()}
    got = verify._bridge_sums(s, basis2, cdvol_w, seed)
    assert len(got) == 100
    assert got == _fraction_bridge_sums(s, seed)
    assert all(type(x) is int for pair in got for x in pair)
    assert sum(1 for lhs, _ in got if lhs) > 50  # most M meet the weight table


@pytest.mark.parametrize("bounds", [(21, 21, 7, 3), (28, 11, 4), (256, 1)])
def test_uniform_draws_keep_the_bytes_below_the_top_partial_block(bounds):
    """Column j is block j of the bytes of one ``randbytes`` call: the
    bytes below 256 - 256 % k, in order, each taken mod k."""
    count = 500
    cols = verify._uniform_draws(random.Random(5), bounds, count)
    width = count + count // 4 + 16
    raw = random.Random(5).randbytes(len(bounds) * width)
    for j, (k, col) in enumerate(zip(bounds, cols)):
        block = raw[j * width:(j + 1) * width]
        assert col.tolist() == [x % k for x in block if x < 256 - 256 % k][:count]
        if k < 32:
            assert set(col.tolist()) == set(range(k))


def test_uniform_draws_read_on_when_a_block_runs_short():
    """A block whose bytes are all rejected (255 for k = 3) reads on from
    the next ``randbytes`` call."""

    class Bytes:
        calls = 0

        def randbytes(self, size):
            self.calls += 1
            return bytes([255] * size) if self.calls == 1 else bytes(x % 256 for x in range(size))

    col, = verify._uniform_draws(Bytes(), (3,), 40)
    assert col.tolist() == [x % 3 for x in range(40)]


_PAIRING = "pairing a^*(b) = <a,b> dvol (n=7, exhaustive)"


@pytest.fixture
def built_structures():
    """Both structures, built before a sign of ``exterior`` is patched: the
    cached builds read ``hodge_sign`` and ``merge_sign`` too."""
    return standard_structure("g2"), standard_structure("spin7")


def _flip_hodge_sign(monkeypatch, flipped_mask, flipped_n):
    hodge_sign = exterior.hodge_sign

    def flipped(mask, n):
        sign = hodge_sign(mask, n)
        return -sign if (mask, n) == (flipped_mask, flipped_n) else sign

    monkeypatch.setattr(exterior, "hodge_sign", flipped)


def test_pairing_check_fails_on_a_flipped_star(monkeypatch, built_structures):
    """The Hodge sign of e123 flipped: the pairing row reads the star of
    e123 inside the weighted star of the degree-3 masks."""
    _flip_hodge_sign(monkeypatch, 0b111, 7)
    assert _statuses(verify.algebra_suite(0))[_PAIRING] == "fail"


def test_pairing_check_fails_on_a_flipped_wedge_sign(monkeypatch, built_structures):
    """The sign of e1 ^ e234567 flipped in the wedge alone: ``hodge_sign``
    keeps the unpatched ``merge_sign``, which it calls on the same masks,
    so the star of e1 stays right."""
    merge_sign = exterior.merge_sign

    def flipped(m1, m2):
        return -merge_sign(m1, m2) if (m1, m2) == (0b1, 0b1111110) else merge_sign(m1, m2)

    monkeypatch.setattr(exterior, "merge_sign", flipped)
    monkeypatch.setattr(exterior, "hodge_sign",
                        lambda mask, n: merge_sign(mask, ((1 << n) - 1) & ~mask))
    assert _statuses(verify.algebra_suite(0))[_PAIRING] == "fail"


def test_hodge_check_fails_on_one_flipped_mask_sign(monkeypatch, built_structures):
    """The Hodge sign of e12 flipped at n = 7 breaks ** on e12 alone."""
    _flip_hodge_sign(monkeypatch, 0b11, 7)
    status = _statuses(verify.algebra_suite(0))
    assert status["hodge involution sign (n=7)"] == "fail"
    assert status["hodge involution sign (n=8)"] == "pass"


@pytest.mark.parametrize("words", [(0b100, 0b10000, -1), (0b1000, 0b1000, 1)],
                         ids=["c3-c5-product", "h4-square"])
def test_anticommutator_checks_fail_on_one_word_sign(monkeypatch, words):
    """One product sign of ``word_mul`` flipped, c3 c5 or the square of
    h4: {c3, c5} = 0 or h4^2 = 1 breaks at n = 7 and at n = 8."""
    word_mul = wordops.word_mul

    def flipped(m1, m2, square_sign):
        sign, mask = word_mul(m1, m2, square_sign)
        return (-sign if (m1, m2, square_sign) == words else sign), mask

    monkeypatch.setattr(wordops, "word_mul", flipped)
    status = _statuses(verify.algebra_suite(0))
    for n in (7, 8):
        assert status[f"clifford anticommutators exhaustive (n={n})"] == "fail"


def test_round_trip_check_fails_on_a_word_sign_both_directions_share(monkeypatch):
    """An all-ones alpha in ``_offset_signs`` drops a sign from K in the
    expansion and in the reconstruction alike, so the round trip still
    holds; the coefficients read against ``apply_word`` catch it."""
    offset_signs = filtration._offset_signs

    def ones(n):
        alpha, beta = offset_signs(n)
        return np.ones_like(alpha), beta

    monkeypatch.setattr(filtration, "_offset_signs", ones)
    status = _statuses(verify.algebra_suite(0))
    assert status["expansion round trip on a random operator"] == "fail"


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_round_trip_row_passes_and_coefficient_reads_one_word(seed):
    """The expansion row passes on every seed the CI runs, and
    ``coefficient`` reads the lifted coefficients one word at a time."""
    assert _statuses(verify.algebra_suite(seed))[
        "expansion round trip on a random operator"] == "pass"
    rnd = random.Random(seed)
    m = FiberOp(5, 1, {(rnd.randrange(32), rnd.randrange(32)): Fraction(rnd.randint(1, 4), 3)
                       for _ in range(12)})
    exp = expand_clifford_basis(m)
    words = [(c, h) for c in range(32) for h in range(32)]
    assert {w: exp.coefficient(*w) for w in words if exp.coefficient(*w)} == exp.coefficients
    again = CliffordWordExpansion(5, exp.coefficients)
    assert all(again.coefficient(*w) == exp.coefficient(*w) for w in words)


@pytest.mark.parametrize("q_max", [20, 50, 80, 100, 399, 400])
def test_spectrum_suite_prefixes_equal_their_own_tables(q_max):
    """Each table the spectrum suite cuts from its q <= 400 table is, column
    for column, the table ``enumerate_levels`` builds up to q_max."""
    got = verify._levels_up_to(enumerate_levels(7, 400), q_max)
    want = enumerate_levels(7, q_max)
    for field in ("n", "den", "nums", "counts", "zero_modes"):
        assert getattr(got, field) == getattr(want, field), field


def test_decomposition_check_fails_when_apply_drops_a_row(monkeypatch):
    """The row is dropped in ``Projection.numerators``, the integer core
    that ``apply`` lifts and the orthogonal-decomposition rows read."""
    numerators = Projection.numerators

    def dropping(self, alpha):
        first = next(iter(self.entries))[0]
        kept = {(t, b): v for (t, b), v in self.entries.items() if t != first}
        return numerators(Projection(self.target, self.n, self.den, kept), alpha)

    monkeypatch.setattr(Projection, "numerators", dropping)
    status = _statuses(verify.holonomy_suite(0))
    for kind in ("g2", "spin7"):
        assert status[f"{kind} orthogonal decomposition, 100 random 2-forms"] == "fail"


def test_zero_mode_row_fails_on_an_untwisted_torus(monkeypatch):
    """The level lists keep q > 0 only, so the row reads the lattice count
    at q = 0, which is 1 at theta = 0 (k = 0).  That it passes on the
    suite's own twist is pinned by the check-name digest test."""
    monkeypatch.setattr(verify, "_SUITE_TWIST", (Fraction(0),) * 7)
    assert _statuses(verify.spectrum_suite(0))["twist has no zero modes"] == "fail"


def test_heat_details_print_exact_text():
    """The t-powers of the residue-order rows print as "-3/2", not as
    Fraction reprs; no heat detail holds a Python repr."""
    details = {r.name: r.detail for r in verify.heat_suite(0)}
    for sd in (3, 4, 5, 6, 7):
        assert details[f"no coefficients below residue order (seed {sd})"] == (
            "mehler [-3/2], duhamel [-3/2]")
    assert not [d for d in details.values() if "Fraction" in d]


def _hermite_diag_loop(a, t):
    """The Hermite series of ``verify._hermite_diag_sum`` as a float loop,
    term by term: its reference."""
    total, log_coeff = 0.0, 0.0
    for m in range(4000):
        if m:
            log_coeff += math.log((2 * m) * (2 * m - 1)) - math.log(4.0) - 2 * math.log(m)
        total += math.exp(log_coeff) * math.exp(-t * a * (4 * m + 1))
    return math.sqrt(a / math.pi) * total


def test_hermite_sum_matches_its_loop():
    """The numpy sum adds the same 4000 terms in another order: within
    1e-12 relative (float64 rounding over 4000 terms) of the loop."""
    for a in (0.5, 1.0, 2.0):
        for t in (0.05, 0.3, 1.0):
            loop = _hermite_diag_loop(a, t)
            assert abs(verify._hermite_diag_sum(a, t) - loop) <= 1e-12 * loop, (a, t)
