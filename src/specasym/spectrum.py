"""Exact 2-form spectra of flat tori and the spectral-asymmetry bookkeeping.

Eigenvalues on the unit torus R^n/Z^n twisted by a flat line bundle with
holonomy angles theta are 4 pi^2 q with q = |k + theta|^2; the 2-form
fiber splits pointwise into the 7-part and its complement, so each level
carries multiplicities 7 c and 14 c (n = 7) or 21 c (n = 8), c the number
of lattice points on it.  Every level set, twisted or not, is counted
exactly in two parts.  The untwisted coordinates (theta_j = 0) share the
line {k^2}, so their block is the dense theta-series power r_k(q) on numpy
(int64 while the box bound allows, Python ints past it).  Its levels,
scaled by the square d^2 of the common denominator of theta, seed a
sparse integer convolution over the twisted coordinates' 1-D level sets
{(d k + a_j)^2}; nothing dense is built on the d^2 scale.  A literal
lattice scan (``lattice_scan``) is kept only as the oracle for ``verify``
and the tests.  ``write_levels_csv`` writes the levels in one pass, one
``%`` format per row, with the bytes ``csv.writer`` would give them.
``mellin_equivalence`` integrates the weighted heat trace with a fixed,
nested exp-sinh rule (Takahasi and Mori's double-exponential substitution
x = exp(pi/2 sinh u)) on numpy, so no quadrature library is needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, exp, gamma, isqrt, lcm, pi, sqrt
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .record import Record

if TYPE_CHECKING:
    import numpy as np


TWO_FORM_FIBER = {7: 21, 8: 28}
SEVEN_FIBER = 7


class SpectralLevel(Record):
    """One Laplace eigenvalue on 2-forms of the flat torus."""

    _fields = ("n", "q", "lattice_count", "mult_7", "mult_big")

    def __init__(self, n: int, q: Union[int, Fraction], lattice_count: int, mult_7: int,
                 mult_big: int):
        self.n = n
        self.q = q  # |k + theta|^2: an int untwisted, a Fraction twisted
        self.lattice_count = lattice_count
        self.mult_7 = mult_7
        self.mult_big = mult_big

    @property
    def eigenvalue(self) -> float:
        return 4.0 * pi * pi * float(self.q)

    def weight(self, which: str) -> int:
        """Multiplicity weight: '7' -> m7, 'big' -> m14 or m21, 'delta' ->
        the weighted difference (2 m7 - m14) or (3 m7 - m21)."""
        if which == "7":
            return self.mult_7
        if which == "big":
            return self.mult_big
        if which == "delta":
            return (2 if self.n == 7 else 3) * self.mult_7 - self.mult_big
        raise ValueError("which must be '7', 'big' or 'delta'")


def _square_counts(k: int, q_max: int) -> np.ndarray:
    """r_k(q) for q = 0..q_max: the k-th power of the theta series sum_m x^(m^2).

    Each of the k passes adds the shifted copies 2 r(q - m^2), m >= 1, to
    the m = 0 copy.  No count exceeds the (2 isqrt(q_max) + 1)^k points of
    the box, so int64 is exact below 2^63; past that the array holds
    Python ints (dtype object), through the same code.  numpy is imported
    here, so only a spectrum call loads it.
    """
    import numpy as np

    r = isqrt(q_max)
    counts = np.zeros(q_max + 1, dtype=np.int64 if (2 * r + 1) ** k < 2 ** 63 else object)
    counts[0] = 1
    for _ in range(k):
        new = counts.copy()
        for m in range(1, r + 1):
            new[m * m:] += 2 * counts[:q_max + 1 - m * m]
        counts = new
    return counts


def _lattice_counts(theta: Sequence[Fraction], q_max: int) -> Tuple[int, Dict[int, int]]:
    """(d, {d^2 |k + theta|^2: number of k}) over k in Z^n with |k + theta|^2 <= q_max.

    d is the lcm of the denominators of theta, so with theta_j = a_j / d
    every 1-D level (d k + a_j)^2 is an integer.  The untwisted coordinates
    (theta_j = 0) all share the line {k^2}, so their block is the dense
    theta-series power ``_square_counts``; its levels, scaled by d^2 in
    Python ints, seed a sparse dict that is convolved one twisted
    coordinate at a time with that coordinate's 1-D level set.  Nothing
    dense is built on the d^2 scale.
    """
    theta = [Fraction(t) for t in theta]
    d = lcm(*(t.denominator for t in theta))
    bound = d * d * q_max
    r = isqrt(bound)
    twisted = [t for t in theta if t]
    square = _square_counts(len(theta) - len(twisted), q_max).tolist()
    counts = {d * d * q: c for q, c in enumerate(square) if c}
    for t in twisted:
        a = t.numerator * (d // t.denominator)
        line: Dict[int, int] = {}
        for m in range(a - (a + r) // d * d, r + 1, d):   # m = d k + a, |m| <= r
            line[m * m] = line.get(m * m, 0) + 1
        steps = sorted(line.items())
        new: Dict[int, int] = {}
        for v, c in counts.items():
            for step, k in steps:
                if v + step > bound:
                    break
                new[v + step] = new.get(v + step, 0) + c * k
        counts = new
    return d, counts


def shell_counts(n: int, q_max: int) -> List[int]:
    """r_n(q) for q = 0..q_max, the theta-series power (exact ints)."""
    return _square_counts(n, q_max).tolist()


def lattice_scan(theta: Sequence[Fraction], q_max: int) -> Dict[Fraction, int]:
    """{|k + theta|^2: number of k} by a literal scan of the lattice box.

    Each k_j runs over every integer with |k_j + theta_j| <= sqrt(q_max),
    and a partial sum past q_max is dropped.  Oracle for small q_max only.
    """
    r = isqrt(q_max)
    box = [[(k + t) ** 2 for k in range(-r - 1, r + 1)] for t in theta]
    counts: Dict[Fraction, int] = {}

    def rec(dim: int, acc: Fraction):
        if dim == len(box):
            counts[acc] = counts.get(acc, 0) + 1
            return
        for sq in box[dim]:
            q = acc + sq
            if q <= q_max:
                rec(dim + 1, q)

    rec(0, 0)
    return counts


def shell_counts_bruteforce(n: int, q_max: int) -> List[int]:
    """r_n(q) for q = 0..q_max from ``lattice_scan``; oracle for small q_max."""
    counts = lattice_scan((0,) * n, q_max)
    return [counts.get(q, 0) for q in range(q_max + 1)]


def _checked_theta(
    n: int, q_max: int, theta: Optional[Sequence[Fraction]] = None
) -> Tuple[Fraction, ...]:
    """The input checks shared by every level list; returns theta as Fractions."""
    if n not in TWO_FORM_FIBER:
        raise ValueError("n must be 7 or 8")
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    theta = tuple(Fraction(t) for t in theta) if theta is not None else (Fraction(0),) * n
    if len(theta) != n:
        raise ValueError("theta must have one angle per coordinate")
    if any(t < 0 or t >= 1 for t in theta):
        raise ValueError("twist angles must lie in [0, 1)")
    return theta


def _spectral_levels(n: int, counts: Iterable[Tuple[Union[int, Fraction], int]]
                     ) -> List[SpectralLevel]:
    """One level per nonzero q with a nonzero count, in the given order."""
    big = TWO_FORM_FIBER[n] - SEVEN_FIBER
    return [SpectralLevel(n, q, c, SEVEN_FIBER * c, big * c) for q, c in counts if q and c]


def enumerate_levels(n: int, q_max: int) -> List[SpectralLevel]:
    """All nonzero levels with |k|^2 <= q_max on the unit torus."""
    _checked_theta(n, q_max)
    return _spectral_levels(n, enumerate(shell_counts(n, q_max)))


def twisted_levels(n: int, theta: Sequence[Fraction], q_max: int) -> List[SpectralLevel]:
    """Levels 4 pi^2 |k + theta|^2 of a flat unitary line twist.

    ``theta`` has entries in [0, 1); exact Fractions keep level grouping
    exact.  The 7/14(21) fiber split is unchanged by the twist, which is
    flat, so the weighted zeta sums cancel per level as when untwisted.
    """
    theta = _checked_theta(n, q_max, theta)
    d, counts = _lattice_counts(theta, q_max)
    return _spectral_levels(n, ((Fraction(v, d * d), c) for v, c in sorted(counts.items())))


def counting_functions(levels: Sequence[SpectralLevel], x: float) -> Tuple[int, int]:
    """(N_7(x), N_big(x)): cumulative nonzero-eigenvalue counts up to x."""
    if levels:
        top = max(lv.eigenvalue for lv in levels)
        if x > top * (1 + 1e-12):
            raise ValueError(f"x = {x} beyond the enumerated range {top}")
    n7 = nbig = 0
    for lv in levels:
        if lv.eigenvalue <= x:
            n7 += lv.mult_7
            nbig += lv.mult_big
    return n7, nbig


def zeta_partial(levels: Sequence[SpectralLevel], which: str, s: float) -> Tuple[float, float]:
    """Partial zeta sum over ``levels`` with an integral-comparison tail bound.

    ``which`` is '7', 'big', or 'delta' (the weighted difference); s must
    exceed n/2.  The tail bound integrates the box count (2 sqrt(q) + 1)^n
    in closed form, valid for all the shells beyond the highest level.
    """
    if not levels:
        return 0.0, 0.0
    n = levels[0].n
    if s <= n / 2:
        raise ValueError(f"s = {s} is in the divergent range (need s > {n/2})")
    total = 0.0
    q_top = 0.0
    for lv in levels:
        # q_top feeds only the tail, whose nonzero fiber weight leaves no
        # level with weight 0, so skipping those levels changes no float
        w = lv.weight(which)
        if not w:
            continue
        q_top = max(q_top, float(lv.q))
        total += w * lv.eigenvalue ** (-s)
    # the weight of a single lattice point: 7, 14 or 21, and 0 for 'delta'
    fiber = _spectral_levels(n, [(1, 1)])[0].weight(which)
    if fiber:
        # at most (2u + 1)^n lattice points lie within radius u = sqrt(q);
        # the growth 2 fiber n (2u + 1)^(n-1) du of that bound, weighted by
        # (4 pi^2 u^2)^(-s), integrates term by term of its binomial expansion
        u = sqrt(max(q_top, 1.0))
        tail = 2 * fiber * n * (4 * pi * pi) ** (-s) * sum(
            comb(n - 1, k) * 2 ** k * u ** (k + 1 - 2 * s) / (2 * s - k - 1)
            for k in range(n)
        )
    else:
        tail = 0.0
    return total, tail


def heat_trace(levels: Sequence[SpectralLevel], t: float, weighted: bool) -> float:
    """2-form heat trace; unweighted includes the zero modes."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not levels:
        raise ValueError("no levels supplied")
    n = levels[0].n
    total = 0.0 if weighted else float(TWO_FORM_FIBER[n])
    for lv in levels:
        w = lv.weight("delta") if weighted else lv.mult_7 + lv.mult_big
        if w:
            total += w * exp(-t * lv.eigenvalue)
    return total


def poisson_dual_trace(n: int, t: float) -> float:
    """fiber * (4 pi t)^{-n/2} * [sum_m exp(-m^2/4t)]^n via the dual lattice,
    summed over |m| <= 40."""
    theta = 1.0 + 2.0 * sum(exp(-m * m / (4.0 * t)) for m in range(1, 41))
    return TWO_FORM_FIBER[n] * (4.0 * pi * t) ** (-n / 2.0) * theta ** n


def weyl_ratio(n: int, q_max: int) -> float:
    """N_7(x) (4 pi)^{n/2} Gamma(n/2+1) / (7 x^{n/2}) at x = 4 pi^2 q_max."""
    levels = enumerate_levels(n, q_max)
    x = 4.0 * pi * pi * q_max
    n7, _ = counting_functions(levels, x)
    return n7 * (4.0 * pi) ** (n / 2.0) * gamma(n / 2.0 + 1.0) / (SEVEN_FIBER * x ** (n / 2.0))


class MellinReport(Record):
    _fields = ("s", "direct", "mellin", "quad_error")

    def __init__(self, s: float, direct: float, mellin: float, quad_error: float):
        self.s = s
        self.direct = direct
        self.mellin = mellin
        self.quad_error = quad_error

    @property
    def difference(self) -> float:
        return abs(self.direct - self.mellin)


@cache
def _exp_sinh_rule() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log x, x, weights) of the exp-sinh rule on [0, inf), built once.

    x = exp(pi/2 sinh u) with u on [-4.5, 4.5] at step h = 1/64 (577
    nodes), so dx = (pi/2) cosh(u) x du and the weights are h (pi/2)
    cosh(u) x.  The even-indexed nodes are the same rule at step 2h.
    """
    import numpy as np

    h = 1.0 / 64
    u = np.arange(-288, 289) * h
    log_x = pi / 2 * np.sinh(u)
    x = np.exp(log_x)
    return log_x, x, h * pi / 2 * np.cosh(u) * x


def mellin_equivalence(
    weights_and_eigenvalues: Sequence[Tuple[float, float]],
    s: float,
) -> MellinReport:
    """Compare sum w lambda^{-s} with its Mellin-transform evaluation.

    The right side integrates the weighted heat trace of the same finite
    level set: (1/Gamma(s)) \\int_0^inf t^{s-1} sum_i w_i e^{-lambda_i t} dt.
    With t = x / lambda_min it is lambda_min^{-s} / Gamma(s) times
    \\int_0^inf x^{s-1} sum_i w_i e^{-(lambda_i / lambda_min) x} dx, summed
    over every node of ``_exp_sinh_rule`` at once; ``quad_error`` is the
    distance to the same sum at step 2h.
    """
    pairs = [(w, lam) for (w, lam) in weights_and_eigenvalues if w != 0]
    direct = sum(w * lam ** (-s) for w, lam in pairs)
    if not pairs:
        return MellinReport(s, 0.0, 0.0, 0.0)

    import numpy as np

    w, lam = np.array(pairs).T
    lam_min = lam.min()
    log_x, x, weights = _exp_sinh_rule()
    # x^(s-1) e^(-r x) as one exp, so a large s meets no inf * 0 at the far nodes
    trace = np.exp((s - 1.0) * log_x[:, None] - np.outer(x, lam / lam_min)) @ w
    fine = weights @ trace
    coarse = 2.0 * (weights[::2] @ trace[::2])
    scale = lam_min ** (-s) / gamma(s)
    return MellinReport(s, direct, float(fine * scale), float(abs(fine - coarse) * scale))


def mellin_equivalence_levels(levels: Sequence[SpectralLevel], which: str, s: float
                              ) -> MellinReport:
    return mellin_equivalence([(float(lv.weight(which)), lv.eigenvalue) for lv in levels], s)


CSV_HEADER = ["q", "lambda", "lattice_count", "mult_7", "mult_big", "N_7", "N_big"]
# the bytes csv.writer gives these fields: none needs quoting, rows end "\r\n"
_CSV_ROW = "%s,%.17g,%s,%s,%s,%s,%s\r\n"


def write_levels_csv(levels: Sequence[SpectralLevel], path: str) -> Tuple[int, int]:
    """One row per level with cumulative counting functions; returns the
    final (N_7, N_big).

    Each row is one ``%`` format of ``_CSV_ROW``: q as its digits when
    integral, else ``%.17g`` of its float, and ``%.17g`` of the eigenvalue.
    Rows go to the file as they are formatted, in one pass, so memory does
    not grow with the number of levels.
    """
    n7 = nbig = 0
    with open(path, "w", newline="") as fh:
        write = fh.write
        write(",".join(CSV_HEADER) + "\r\n")
        for lv in levels:
            q = lv.q
            n7 += lv.mult_7
            nbig += lv.mult_big
            write(_CSV_ROW % (q if q.denominator == 1 else "%.17g" % float(q), lv.eigenvalue,
                              lv.lattice_count, lv.mult_7, lv.mult_big, n7, nbig))
    return n7, nbig
