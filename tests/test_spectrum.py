import csv
import os
import tracemalloc
from fractions import Fraction
from math import exp, gamma, pi

import numpy as np
import pytest

from specasym.spectrum import (
    SpectralLevel,
    CSV_HEADER,
    _square_counts,
    counting_functions,
    enumerate_levels,
    heat_trace,
    lattice_scan,
    mellin_equivalence,
    mellin_equivalence_levels,
    poisson_dual_trace,
    shell_counts,
    shell_counts_bruteforce,
    twisted_levels,
    weyl_ratio,
    write_levels_csv,
    zeta_partial,
)
from specasym.verify import _SUITE_TWIST


def test_shell_counts_against_bruteforce():
    for n in (2, 3, 7):
        q = 10 if n < 7 else 6
        assert shell_counts(n, q) == shell_counts_bruteforce(n, q)


def _divisors(q):
    return [d for d in range(1, q + 1) if q % d == 0]


def _r4(q):
    """Jacobi's four-square theorem: r_4(q) = 8 sum_{d | q, 4 !| d} d."""
    return 1 if q == 0 else 8 * sum(d for d in _divisors(q) if d % 4)


def _r8(q):
    """Jacobi's eight-square theorem: r_8(q) = 16 sum_{d | q} (-1)^(q+d) d^3."""
    return 1 if q == 0 else 16 * sum((-1) ** (q + d) * d ** 3 for d in _divisors(q))


def test_four_square_counts_are_jacobis():
    q_max = 2000
    assert _square_counts(4, q_max).tolist() == [_r4(q) for q in range(q_max + 1)]


def test_eight_square_counts_are_jacobis():
    assert shell_counts(8, 1000) == [_r8(q) for q in range(1001)]
    # the first q_max whose box (2 isqrt(q_max) + 1)^8 passes 2^63
    q_max = 13689
    assert _square_counts(8, q_max - 1).dtype == np.int64
    assert _square_counts(8, q_max).dtype == object
    assert shell_counts(8, q_max)[-50:] == [_r8(q) for q in range(q_max - 49, q_max + 1)]


def test_square_counts_past_int64_are_exact():
    # r_64 = (r_8)^8 as a convolution power of Jacobi's counts in Python ints
    q_max = 40
    r8 = [_r8(q) for q in range(q_max + 1)]
    r64 = [1] + [0] * q_max
    for _ in range(8):
        r64 = [sum(r64[j] * r8[q - j] for j in range(q + 1)) for q in range(q_max + 1)]
    assert max(r64) >= 2 ** 63
    assert _square_counts(64, q_max).tolist() == r64


def test_first_levels():
    levels = enumerate_levels(7, 2)
    assert levels[0].lattice_count == 14
    assert (levels[0].mult_7, levels[0].mult_big) == (98, 196)
    assert levels[1].lattice_count == 84
    assert levels[0].eigenvalue == pytest.approx(4 * pi * pi)


def test_level_gates():
    with pytest.raises(ValueError):
        enumerate_levels(7, 0)
    with pytest.raises(ValueError):
        enumerate_levels(6, 5)


def test_per_level_ratios():
    for lv in enumerate_levels(7, 60):
        assert lv.mult_big == 2 * lv.mult_7
        assert lv.weight("delta") == 0
    for lv in enumerate_levels(8, 30):
        assert lv.mult_big == 3 * lv.mult_7
        assert lv.weight("delta") == 0


@pytest.mark.parametrize("n", [7, 8])
def test_untwisted_levels_are_ints(tmp_path, n):
    """Untwisted q is a plain int, and the CSV writes it as the digits of q;
    every q >= 1 is a sum of four squares, so each is a level."""
    levels = enumerate_levels(n, 30)
    assert [lv.q for lv in levels] == list(range(1, 31))
    assert all(type(lv.q) is int for lv in levels)
    path = os.fspath(tmp_path / "levels.csv")
    write_levels_csv(levels, path)
    with open(path) as fh:
        assert [row["q"] for row in csv.DictReader(fh)] == [str(lv.q) for lv in levels]


def test_counting_functions():
    levels = enumerate_levels(7, 5)
    x = 4 * pi * pi + 1e-9
    assert counting_functions(levels, x) == (98, 196)
    assert counting_functions(levels, 1.0) == (0, 0)
    with pytest.raises(ValueError):
        counting_functions(levels, 4 * pi * pi * 50)


def test_zeta_partial_cancellation():
    levels = enumerate_levels(7, 40)
    for s in (4.0, 5.5):
        v, _ = zeta_partial(levels, "delta", s)
        assert v == 0.0
    v7, _ = zeta_partial(levels, "7", 4.0)
    v14, _ = zeta_partial(levels, "big", 4.0)
    assert v14 == pytest.approx(2 * v7, rel=1e-14)


def test_zeta_divergence_gate():
    levels = enumerate_levels(7, 5)
    for s in (3.0, 3.5):  # s <= n/2
        with pytest.raises(ValueError):
            zeta_partial(levels, "7", s)


def test_zeta_tail_bound_self_consistency():
    v50, t50 = zeta_partial(enumerate_levels(7, 50), "7", 4.0)
    v100, _ = zeta_partial(enumerate_levels(7, 100), "7", 4.0)
    assert abs(v100 - v50) <= t50


@pytest.mark.parametrize("n, s, q_max", [(7, 4.0, 50), (7, 3.6, 400), (8, 4.5, 1000), (8, 4.1, 3)])
def test_zeta_tail_closed_form_matches_quadrature(n, s, q_max):
    """The closed-form tail against quad of the box-count integrand."""
    from scipy.integrate import quad

    levels = enumerate_levels(n, q_max)
    _, tail = zeta_partial(levels, "7", s)
    fiber = 7  # the 7-part weight of one lattice point
    q_top = max(float(lv.q) for lv in levels)

    def dbox(q):
        return fiber * n * (2 * q ** 0.5 + 1) ** (n - 1) / q ** 0.5 * (4 * pi * pi * q) ** (-s)

    want, _ = quad(dbox, max(q_top, 1.0), float("inf"))
    assert tail == pytest.approx(want, rel=1e-6)


def test_heat_trace_poisson():
    levels = enumerate_levels(7, 80)
    for t in (0.01, 0.02, 0.05):
        ht = heat_trace(levels, t, weighted=False)
        dual = poisson_dual_trace(7, t)
        assert abs(ht - dual) / dual < 1e-6
    assert heat_trace(levels, 0.02, weighted=True) == 0.0
    # large t: zero modes dominate
    assert heat_trace(levels, 50.0, weighted=False) == pytest.approx(21.0)


def test_weyl_ratio():
    assert abs(weyl_ratio(7, 400) - 1.0) < 0.05


def test_twisted_levels():
    theta0 = [Fraction(0)] * 7
    assert [lv.q for lv in twisted_levels(7, theta0, 3)] == [
        lv.q for lv in enumerate_levels(7, 3)
    ]
    theta = [Fraction(1, 2)] + [Fraction(0)] * 6
    tw = twisted_levels(7, theta, 4)
    assert all(lv.q > 0 for lv in tw)
    assert tw[0].q == Fraction(1, 4)
    assert all(lv.mult_big == 2 * lv.mult_7 for lv in tw)
    v, _ = zeta_partial(tw, "delta", 4.0)
    assert v == 0.0
    with pytest.raises(ValueError):
        twisted_levels(7, [Fraction(3, 2)] + [Fraction(0)] * 6, 3)


F = Fraction
_HALF = F(1, 2)

# (n, q_max, theta): untwisted, half-integer and mixed-denominator twists;
# q_max is kept small where the scan is slow (large n, many twisted angles)
_TWISTS = [
    (7, 12, (0,) * 7),
    (8, 12, (0,) * 8),
    (7, 8, (_HALF,) * 7),
    (8, 6, (_HALF,) * 8),
    (7, 12, (_HALF,) + (0,) * 6),
    (8, 10, (0,) * 7 + (_HALF,)),
    (7, 12, (F(1, 3), _HALF) + (0,) * 5),
    (8, 8, (F(1, 3), _HALF, F(1, 4)) + (0,) * 5),
    (7, 7, (F(1, 2), F(2, 3), F(3, 4), 0, 0, 0, 0)),
    (7, 6, (F(1, 5), F(2, 7), F(5, 6), F(1, 9), 0, 0, F(3, 8))),
    (8, 5, (F(1, 5), F(2, 7), F(5, 6), F(1, 9), 0, 0, F(3, 8), _HALF)),
    (7, 9, (F(1, 4), F(3, 4)) + (0,) * 5),
    (8, 7, (F(2, 3), F(1, 3), F(1, 6)) + (0,) * 5),
    (7, 5, tuple(F(j, 7) for j in range(7))),
    (8, 4, tuple(F(j, 8) for j in range(8))),
    (7, 10, (0, 0, 0, F(9, 10), 0, 0, 0)),
    (8, 6, (F(1, 12), F(5, 12), F(7, 12), F(11, 12), 0, 0, 0, 0)),
    (7, 8, (F(1, 3),) * 3 + (0,) * 4),
    (8, 5, (F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1, 13), F(1, 17), F(1, 19))),
    (7, 11, (F(1, 100),) + (0,) * 6),
    (8, 9, (0, F(3, 5), 0, F(2, 5), 0, 0, 0, 0)),
    (7, 4, (F(99, 100), F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 6), F(1, 7))),
]


@pytest.mark.parametrize("n, q_max, theta", _TWISTS)
def test_twisted_levels_match_lattice_scan(n, q_max, theta):
    levels = twisted_levels(n, theta, q_max)
    scan = sorted((q, c) for q, c in lattice_scan(theta, q_max).items() if q)
    assert [(lv.q, lv.lattice_count) for lv in levels] == scan
    for lv in levels:
        assert isinstance(lv.q, Fraction) and lv.n == n
        big = 21 if n == 8 else 14
        assert (lv.mult_7, lv.mult_big) == (7 * lv.lattice_count, big * lv.lattice_count)


def test_huge_twist_denominator_stays_sparse():
    # d = 10^10: a dense table on the d^2 scale would need 5 * 10^20 cells
    theta = (F(1, 10 ** 10),) + (0,) * 6
    tracemalloc.start()
    try:
        levels = twisted_levels(7, theta, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scan = sorted((q, c) for q, c in lattice_scan(theta, 5).items() if q)
    assert [(lv.q, lv.lattice_count) for lv in levels] == scan
    assert peak < 5 * 2 ** 20


def test_spectrum_input_errors():
    with pytest.raises(ValueError):
        twisted_levels(5, [Fraction(0)] * 5, 3)
    with pytest.raises(ValueError):
        twisted_levels(7, [Fraction(1, 2)], 3)
    with pytest.raises(ValueError):
        twisted_levels(7, [Fraction(1, 2)] * 7, 0)
    levels = enumerate_levels(7, 5)
    with pytest.raises(ValueError):
        mellin_equivalence_levels(levels, "bogus", 4.0)
    with pytest.raises(ValueError):
        zeta_partial(levels, "bogus", 4.0)


def test_mellin_identities():
    lam = 4 * pi * pi
    # flat cancellation: the weighted multiplicity 2 m7 - m14 vanishes
    rep = mellin_equivalence([(2.0 * 98 - 196, lam)], 4.0)
    assert rep.direct == 0.0 and rep.mellin == 0.0
    # a single synthetic level with artificially unbalanced weights
    rep = mellin_equivalence([(2.0, lam), (-1.0, 2 * lam)], 4.0)
    assert rep.difference <= 1e-8 * abs(rep.direct)
    rep = mellin_equivalence_levels(enumerate_levels(7, 20), "7", 4.0)
    assert rep.difference <= 1e-8 * abs(rep.direct)


# the Mellin rule's level sets: one level, two levels of both signs, the
# untwisted 7-part levels up to q = 20 and the spectrum suite's twisted ones
_MELLIN_SETS = {
    "one-level": lambda: [(3.0, 4 * pi * pi)],
    "two-level": lambda: [(2.0, 4 * pi * pi), (-1.0, 8 * pi * pi)],
    "untwisted-q20": lambda: [(float(lv.weight("7")), lv.eigenvalue)
                              for lv in enumerate_levels(7, 20)],
    "twisted": lambda: [(float(lv.weight("7")), lv.eigenvalue)
                        for lv in twisted_levels(7, _SUITE_TWIST, 6)],
}


@pytest.mark.parametrize("s", [0.6, 1.0, 4.0, 7.3, 12.0])
@pytest.mark.parametrize("name", list(_MELLIN_SETS))
def test_mellin_rule_against_quad(name, s):
    """The exp-sinh rule against the direct sum, with scipy's quad of the
    same heat-trace integral as an independent oracle.  At s = 12, x^(s-1)
    alone overflows at the far nodes, so a product x^(s-1) e^(-x) there
    would read inf * 0 = nan."""
    from scipy.integrate import quad

    pairs = _MELLIN_SETS[name]()
    direct = sum(w * lam ** (-s) for w, lam in pairs)
    rep = mellin_equivalence(pairs, s)
    assert rep.direct == direct
    assert rep.difference <= 1e-12 * abs(direct)
    assert rep.quad_error <= 1e-10 * abs(direct)

    def integrand(t):
        return t ** (s - 1.0) * sum(w * exp(-lam * t) for w, lam in pairs)

    split = 1.0 / min(lam for _, lam in pairs)
    v1, e1 = quad(integrand, 0.0, split, limit=400)
    v2, e2 = quad(integrand, split, float("inf"), limit=400)
    assert abs(rep.mellin - (v1 + v2) / gamma(s)) <= (e1 + e2) / gamma(s) + 1e-12 * abs(direct)


def test_csv_schema(tmp_path):
    path = os.fspath(tmp_path / "levels.csv")
    levels = enumerate_levels(7, 3)
    write_levels_csv(levels, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + len(levels)
    assert rows[1][0] == "1"
    assert int(rows[1][2]) == 14
    assert int(rows[1][3]) == 98 and int(rows[1][4]) == 196
    # cumulative columns
    assert int(rows[2][5]) == 98 + levels[1].mult_7


def _csv_writer_oracle(levels, path):
    """The csv.writer body the one-pass writer replaced, kept as its oracle."""
    n7 = nbig = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for lv in levels:
            n7 += lv.mult_7
            nbig += lv.mult_big
            writer.writerow(
                [
                    f"{float(lv.q):.17g}" if lv.q.denominator != 1 else str(lv.q),
                    f"{lv.eigenvalue:.17g}",
                    lv.lattice_count,
                    lv.mult_7,
                    lv.mult_big,
                    n7,
                    nbig,
                ]
            )


_HUGE = 2 ** 64 + 3
_CSV_CASES = {
    "n7-untwisted": lambda: enumerate_levels(7, 1000),
    "n8-untwisted": lambda: enumerate_levels(8, 1000),
    # the two twisted cases of the benchmark's torus-spectrum workload at seed 0
    "n7-twisted": lambda: twisted_levels(
        7, [Fraction(x) for x in ("0", "1/4", "0", "0", "1/2", "0", "1/3")], 7),
    "n8-twisted": lambda: twisted_levels(
        8, [Fraction(x) for x in ("0", "0", "1/2", "0", "1/3", "3/4", "0", "0")], 5),
    # theta = (1/2)^4: every q is a Fraction with denominator 1
    "twisted-integral-q": lambda: twisted_levels(7, [Fraction(1, 2)] * 4 + [0] * 3, 3),
    "empty": lambda: [],
    "counts-past-2**63": lambda: [
        SpectralLevel(7, 5, _HUGE, 7 * _HUGE, 14 * _HUGE),
        SpectralLevel(7, Fraction(7, 3), _HUGE + 1, 7 * (_HUGE + 1), 14 * (_HUGE + 1)),
    ],
}


@pytest.mark.parametrize("case", sorted(_CSV_CASES))
def test_csv_bytes_equal_the_csv_writer_oracle(tmp_path, case):
    """Compared as bytes: a text-mode read cannot see the "\\r\\n" row ends."""
    levels = _CSV_CASES[case]()
    new, old = os.fspath(tmp_path / "new.csv"), os.fspath(tmp_path / "old.csv")
    totals = write_levels_csv(levels, new)
    _csv_writer_oracle(levels, old)
    with open(new, "rb") as fh_new, open(old, "rb") as fh_old:
        data = fh_new.read()
        assert data == fh_old.read()
    last = data.split(b"\r\n")[-2].split(b",")
    assert totals == ((int(last[5]), int(last[6])) if levels else (0, 0))
    assert totals == (sum(lv.mult_7 for lv in levels), sum(lv.mult_big for lv in levels))


@pytest.mark.parametrize("argv", [
    ("--n", "7", "--qmax", "1000"),
    ("--n", "8", "--qmax", "5", "--theta", "0,0,1/2,0,1/3,3/4,0,0"),
])
def test_spectrum_prints_the_totals_the_csv_ends_with(tmp_path, capsys, argv):
    from specasym.cli import main

    path = os.fspath(tmp_path / "levels.csv")
    assert main(["spectrum", *argv, "--out", path]) == 0
    out = capsys.readouterr().out.splitlines()
    with open(path, newline="") as fh:
        last = list(csv.reader(fh))[-1]
    assert f"N_7 = {last[5]}" in out and f"N_big = {last[6]}" in out
