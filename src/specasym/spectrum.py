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
and the tests.  A spectrum is one ``Levels`` record of integer columns:
the level numerators over one denominator d^2, their lattice counts and
the zero-mode count.  Multiplicities, eigenvalues and weights are derived
from the counts when read, and q is lifted to ``Fraction`` only in a view
for tests and oracles.  ``write_levels_csv`` formats the zipped columns,
one ``%`` format per row, with the bytes ``csv.writer`` would give them;
the zeta and heat-trace sums read the same columns, and a weight whose
unit is 0 ('delta') sums to 0.0 without a pass over the levels.
``mellin_equivalence`` integrates the weighted heat trace with a fixed,
nested exp-sinh rule (Takahasi and Mori's double-exponential substitution
x = exp(pi/2 sinh u)) on numpy, so no quadrature library is needed.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import accumulate, compress
from math import comb, exp, gamma, isqrt, lcm, pi, sqrt
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .record import Record

if TYPE_CHECKING:
    import numpy as np


TWO_FORM_FIBER = {7: 21, 8: 28}
SEVEN_FIBER = 7
# eigenvalue = _FOUR_PI_SQ * float(q), the product 4.0 * pi * pi * float(q) in its order
_FOUR_PI_SQ = 4.0 * pi * pi


class Levels(Record):
    """The nonzero levels of one flat-torus 2-form spectrum, as integer columns.

    Level k has q = nums[k] / den and lattice count counts[k] > 0.  ``den``
    is d^2, d the common denominator of the twist angles (1 when
    untwisted), and ``nums`` ascend.  ``zero_modes`` is the lattice count
    at q = 0.  Everything else about a level is derived from the columns
    when it is read: the multiplicities 7 c and 14 c (n = 7) or 21 c
    (n = 8), the eigenvalues 4 pi^2 q, and the weights of ``weights``.
    """

    _fields = ("n", "den", "nums", "counts", "zero_modes")

    def __init__(self, n: int, den: int, nums: List[int], counts: List[int], zero_modes: int):
        self.n = n
        self.den = den
        self.nums = nums
        self.counts = counts
        self.zero_modes = zero_modes

    def __len__(self) -> int:
        return len(self.nums)

    @property
    def terms(self) -> List[int]:
        # one entry per level, for code that sizes a result by len(result.terms)
        return self.nums

    @property
    def q(self) -> List[Fraction]:
        """Every level's q as an exact Fraction: a view for tests and oracles."""
        return [Fraction(v, self.den) for v in self.nums]

    @property
    def eigenvalues(self) -> List[float]:
        """4 pi^2 q per level: the float of the exact q, times 4 pi^2."""
        den = self.den
        return [_FOUR_PI_SQ * (v / den) for v in self.nums]

    def unit(self, which: str) -> int:
        """The weight of one lattice point: '7' -> 7, 'big' -> 14 or 21,
        'delta' -> the weighted difference 2 * 7 - 14 or 3 * 7 - 21, which is 0."""
        big = TWO_FORM_FIBER[self.n] - SEVEN_FIBER
        if which == "7":
            return SEVEN_FIBER
        if which == "big":
            return big
        if which == "delta":
            return (2 if self.n == 7 else 3) * SEVEN_FIBER - big
        raise ValueError("which must be '7', 'big' or 'delta'")

    def weights(self, which: str) -> List[int]:
        """Multiplicity weight per level: ``unit(which)`` times its lattice count."""
        unit = self.unit(which)
        return [unit * c for c in self.counts]


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


def enumerate_levels(n: int, q_max: int) -> Levels:
    """All nonzero levels with |k|^2 <= q_max on the unit torus."""
    _checked_theta(n, q_max)
    counts = shell_counts(n, q_max)
    rest = counts[1:]
    return Levels(n, 1, list(compress(range(1, q_max + 1), rest)), list(filter(None, rest)),
                  counts[0])


def twisted_levels(n: int, theta: Sequence[Fraction], q_max: int) -> Levels:
    """Levels 4 pi^2 |k + theta|^2 of a flat unitary line twist.

    ``theta`` has entries in [0, 1); exact Fractions keep level grouping
    exact.  The 7/14(21) fiber split is unchanged by the twist, which is
    flat, so the weighted zeta sums cancel per level as when untwisted.
    """
    theta = _checked_theta(n, q_max, theta)
    d, counts = _lattice_counts(theta, q_max)
    zero_modes = counts.pop(0, 0)
    nums = sorted(counts)
    return Levels(n, d * d, nums, [counts[v] for v in nums], zero_modes)


def counting_functions(levels: Levels, x: float) -> Tuple[int, int]:
    """(N_7(x), N_big(x)): cumulative nonzero-eigenvalue counts up to x."""
    eigenvalues = levels.eigenvalues
    if eigenvalues and x > eigenvalues[-1] * (1 + 1e-12):
        raise ValueError(f"x = {x} beyond the enumerated range {eigenvalues[-1]}")
    # the eigenvalues ascend with q, so the levels up to x are a prefix
    c = sum(levels.counts[:bisect_right(eigenvalues, x)])
    return levels.unit("7") * c, levels.unit("big") * c


def zeta_partial(levels: Levels, which: str, s: float) -> Tuple[float, float]:
    """Partial zeta sum over ``levels`` with an integral-comparison tail bound.

    ``which`` is '7', 'big', or 'delta' (the weighted difference); s must
    exceed n/2.  The tail bound integrates the box count (2 sqrt(q) + 1)^n
    in closed form, valid for all the shells beyond the highest level.
    Every level of a weight whose unit is 0 ('delta') has weight 0, so that
    sum and its tail are 0.0 without a pass over the levels.
    """
    n = levels.n
    if s <= n / 2:
        raise ValueError(f"s = {s} is in the divergent range (need s > {n/2})")
    fiber = levels.unit(which)
    if not fiber or not levels:
        return 0.0, 0.0
    total = 0.0
    for w, lam in zip(levels.weights(which), levels.eigenvalues):
        total += w * lam ** (-s)
    # at most (2u + 1)^n lattice points lie within radius u = sqrt(q);
    # the growth 2 fiber n (2u + 1)^(n-1) du of that bound, weighted by
    # (4 pi^2 u^2)^(-s), integrates term by term of its binomial expansion
    u = sqrt(max(levels.nums[-1] / levels.den, 1.0))
    tail = 2 * fiber * n * (4 * pi * pi) ** (-s) * sum(
        comb(n - 1, k) * 2 ** k * u ** (k + 1 - 2 * s) / (2 * s - k - 1)
        for k in range(n)
    )
    return total, tail


def heat_trace(levels: Levels, t: float, weighted: bool) -> float:
    """2-form heat trace, the zero modes included; weighted by the eigenvalues
    of *e(w) ('delta') when ``weighted``."""
    if t <= 0:
        raise ValueError("t must be positive")
    fiber = levels.unit("delta") if weighted else TWO_FORM_FIBER[levels.n]
    total = float(fiber * levels.zero_modes)
    if fiber:
        for c, lam in zip(levels.counts, levels.eigenvalues):
            total += fiber * c * exp(-t * lam)
    return total


def poisson_dual_trace(n: int, t: float) -> float:
    """fiber * (4 pi t)^{-n/2} * [sum_m exp(-m^2/4t)]^n via the dual lattice,
    summed over |m| <= 40."""
    theta = 1.0 + 2.0 * sum(exp(-m * m / (4.0 * t)) for m in range(1, 41))
    return TWO_FORM_FIBER[n] * (4.0 * pi * t) ** (-n / 2.0) * theta ** n


def weyl_ratio(levels: Levels, q_max: int) -> float:
    """N_7(x) (4 pi)^{n/2} Gamma(n/2+1) / (7 x^{n/2}) at x = 4 pi^2 q_max,
    over the levels of a table that reaches q_max."""
    n = levels.n
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


def mellin_equivalence_levels(levels: Levels, which: str, s: float) -> MellinReport:
    return mellin_equivalence(list(zip(map(float, levels.weights(which)), levels.eigenvalues)), s)


CSV_HEADER = ["q", "lambda", "lattice_count", "mult_7", "mult_big", "N_7", "N_big"]
# the bytes csv.writer gives these fields: none needs quoting, rows end "\r\n"
_CSV_ROW = "%s,%.17g,%s,%s,%s,%s,%s\r\n"


def write_levels_csv(levels: Levels, path: str) -> Tuple[int, int]:
    """One row per level with cumulative counting functions; returns the
    final (N_7, N_big).

    Each row is one ``%`` format of ``_CSV_ROW`` over the columns zipped
    together: q as its digits when integral, else ``%.17g`` of its float,
    and ``%.17g`` of the eigenvalue; the counting functions are running
    totals of the multiplicity columns.  The file gets the rows joined,
    in one write.
    """
    den = levels.den
    q = levels.nums if den == 1 else [v // den if v % den == 0 else "%.17g" % (v / den)
                                      for v in levels.nums]
    m7, mbig = levels.weights("7"), levels.weights("big")
    n7, nbig = list(accumulate(m7)), list(accumulate(mbig))
    rows = map(_CSV_ROW.__mod__, zip(q, levels.eigenvalues, levels.counts, m7, mbig, n7, nbig))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n" + "".join(rows))
    return (n7[-1], nbig[-1]) if levels else (0, 0)
