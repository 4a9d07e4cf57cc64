"""Clifford word-basis expansion and trace identities.

Every c(omega^I) c-hat(omega^J) word acts on the subset basis as a signed
permutation e^S -> +-e^{S ^ I ^ J}, so the whole 4^n word family is
tabulated as one sign array for the c words and one for the c-hat words,
each the closed form of ``exterior.apply_word`` over all masks at once.
Traces, the exhaustive trace-identity sweeps and the signs of the word
transform below are read from these tables.

The expansion and its reconstruction are one kernel in two directions.
With K[(S ^ I ^ J, S), (I, J)] the sign of the word (I, J) on e^S, the
coefficients of an operator M are phi = K^T M / 2^n and the operator of
coefficients phi is M = K phi.  K splits by the offset d = I ^ J of a
word into 2^n blocks, each a signed Walsh-Hadamard matrix:

    K[(S ^ d, S), (c, c ^ d)] = alpha_d(S) H[S, c] beta_d(c),

with H[S, c] = (-1)^|S & c|, alpha_d(S) = ``word_tables(n, True)[d, S]``
and beta_d(c) = ``word_tables(n, False)[c, c] * word_tables(n, False)[c,
d]``.  Over GF(2) the table signs are bilinear forms: the c word over w
has sign (-1)^(w . L0 s) on e^s and the c-hat word (-1)^(w . L1 s), where
x . L y sums x_j y_k over j >= k for L0 (the bits of w at or above each
bit of s) and over j > k for L1 (strictly above).  Both are lower
triangular with the same entries below the diagonal, and L0 has ones on
it, so L0 + L1 = I.  The word (c, h = c ^ d) has sign (-1)^q on e^S with
q = c . L0 (S ^ h) + h . L1 S; expanding h,

    q = c . (L0 + L1) S + d . L1 S + c . L0 c + c . L0 d
      = |S & c| + d . L1 S + c . L0 c + c . L0 d,

which is the factorisation.  So ``_word_transform`` applies K or K^T, for
every offset at once, as a sign, an n-stage butterfly and a sign: O(n 4^n)
integer operations on one dense row per offset.  Both directions take int
or Fraction coefficients only, put over their least common denominator
(``_offset_numerators``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .exact import Rat, rational_numerators
from .exterior import FiberOp, popcount
from .record import Record


_BLOCK = 1 << 14  # table entries gathered per numpy round


# ----------------------------------------------------------------------
# sign tables for all words
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def word_tables(n: int, hat: bool) -> np.ndarray:
    """int8 sign[wmask, s]: the c (or c-hat) word over ``wmask`` sends e^s
    to sign * e^{s ^ wmask}.

    The sign is merge_sign(w, s), times (-1)^|w & s| for c words
    (``apply_word``): the parity of the bits of w above each bit k of s,
    or at or above it for c words, summed over k.
    """
    dim = 1 << n
    masks = np.arange(dim)
    odd = np.fromiter((popcount(m) & 1 for m in range(dim)), np.uint8, dim)
    parity = np.zeros((dim, dim), dtype=np.uint8)
    for k in range(n):
        above = odd[masks >> (k + hat)]
        parity ^= above[:, None] & ((masks >> k) & 1).astype(np.uint8)
    return 1 - 2 * parity.view(np.int8)


def _word_signs(n: int, cms, hms, s):
    """Sign of c(omega^cm) c-hat(omega^hm) on e^s, broadcast over the
    masks; the target is e^{s ^ cm ^ hm}.  Flat ``take`` indices, which
    numpy gathers faster than a pair of index arrays."""
    c, h = word_tables(n, False), word_tables(n, True)
    return c.take((cms << n) | (s ^ hms)) * h.take((hms << n) | s)


def trace_identity_sweep(n: int, pairs: Optional[Iterable[Tuple[int, int]]] = None):
    """Check tr c(I) c-hat(J) = 0 except (0,0) -> 2^n over the given pairs.

    ``pairs`` defaults to all 4^n word pairs; given pairs may be an
    iterable of (c mask, c-hat mask) tuples or an integer array of shape
    (N, 2).  The word c(I) c-hat(J) moves e^S to +-e^{S ^ I ^ J}
    (``word_tables``), so a pair with I != J has no fixed point and trace
    0; only the pairs with I == J are summed.  Returns (failures, checked).
    """
    dim = 1 << n
    if pairs is None:
        checked = dim * dim
        diagonal = np.arange(dim)
    else:
        pairs = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
        pairs = pairs.reshape(len(pairs), 2)
        checked = len(pairs)
        diagonal = pairs[pairs[:, 0] == pairs[:, 1], 0]
    s = np.arange(dim)
    failures = []
    for ws in _slices(diagonal, n):
        tr = _word_signs(n, ws[:, None], ws[:, None], s).sum(axis=1, dtype=np.int64)
        expected = np.where(ws == 0, dim, 0)
        for k in np.flatnonzero(tr != expected):
            failures.append((int(ws[k]), int(ws[k]), int(tr[k])))
    return failures, checked


def _slices(arr: np.ndarray, n: int):
    """Successive slices of ``arr`` whose rows gather at most ``_BLOCK``
    entries of the 2^n-wide word tables."""
    rows = max(1, _BLOCK >> n)
    return (arr[k:k + rows] for k in range(0, len(arr), rows))


# ----------------------------------------------------------------------
# word-basis expansion of fiber operators
# ----------------------------------------------------------------------

class CliffordWordExpansion(Record):
    """Rational coefficients phi_{IJ} of M = sum phi_{IJ} c(omega^I) c-hat(omega^J).

    ``expand_clifford_basis`` gives an expansion that holds integer
    numerators over one denominator, one row per word offset
    (``_offset_numerators``): ``reconstruct`` transforms them as they are,
    and ``coefficients`` is lifted from them on first read.
    ``CliffordWordExpansion(n, coefficients)`` holds the rationals, and
    ``reconstruct`` splits them first.  An expansion is read-only once
    built.
    """

    _fields = ("n", "coefficients")

    def __init__(self, n: int, coefficients: Optional[Dict[Tuple[int, int], Rat]] = None):
        self.n = n
        self._coefficients = {} if coefficients is None else coefficients
        self._numerators = None

    @classmethod
    def _of_numerators(cls, n: int, numerators) -> "CliffordWordExpansion":
        exp = cls.__new__(cls)
        exp.n, exp._coefficients, exp._numerators = n, None, numerators
        return exp

    @property
    def coefficients(self) -> Dict[Tuple[int, int], Rat]:
        """{(c mask, c-hat mask): nonzero coefficient}."""
        if self._coefficients is None:
            self._coefficients = _lifted(*self._numerators, fiber=False)
        return self._coefficients

    def coefficient(self, cmask: int, hmask: int) -> Rat:
        """phi_{IJ} of one word, 0 when it is absent, lifted alone: the row
        x[k, I] of the offset d = I ^ J of ``_offset_numerators``."""
        if self._numerators is None:
            return self._coefficients.get((cmask, hmask), 0)
        den, offsets, x = self._numerators
        k = int(np.searchsorted(offsets, cmask ^ hmask))
        if k < len(offsets) and offsets[k] == cmask ^ hmask:
            return Fraction(int(x[k, cmask]), den)
        return 0

    def reconstruct(self) -> FiberOp:
        """The operator sum phi_{IJ} c(omega^I) c-hat(omega^J), exactly:
        M = K phi (``_word_transform``)."""
        den, offsets, x = (self._numerators
                           or _offset_numerators(self.n, self._coefficients, fiber=False))
        y = _word_transform(self.n, offsets, x, False)
        return FiberOp(self.n, 1, _lifted(den, offsets, y, fiber=True))


def expand_clifford_basis(m: FiberOp) -> CliffordWordExpansion:
    """Expand a rank-1 fiber operator with rational entries over the 4^n
    Clifford words.

    Coefficients come from the Hilbert-Schmidt pairing with the explicit
    word inverses: phi_{IJ} = tr(W_{IJ}^{-1} M) / 2^n = (K^T M)_{IJ} / 2^n
    (``_word_transform``), and the round trip through ``reconstruct`` is
    exact.
    """
    if m.r != 1:
        raise ValueError("word expansion requires bundle rank 1")
    den, offsets, x = _offset_numerators(m.n, m.entries, fiber=True)
    y = _word_transform(m.n, offsets, x, True)
    return CliffordWordExpansion._of_numerators(m.n, (den << m.n, offsets, y))


@lru_cache(maxsize=None)
def _offset_signs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """int8 (alpha, beta) by offset: alpha[d, S] = alpha_d(S) and
    beta[d, c] = beta_d(c) of the module docstring."""
    c = word_tables(n, False)
    return word_tables(n, True), np.diagonal(c) * c.T


def _offset_numerators(n: int, values: Dict[Tuple[int, int], Rat], fiber: bool):
    """(den, offsets, x): ``values`` as integer numerators over their least
    common denominator ``den``, one dense row of x per offset d.

    Fiber entries {(S ^ d, S): v} (``fiber``) are read into x[k, S], word
    coefficients {(c, c ^ d): v} into x[k, c], with d = offsets[k];
    positions that no key reaches hold 0.  ``rational_numerators`` raises
    TypeError on a value that is not an int or a Fraction.
    """
    den, nums = rational_numerators(list(values.values()))
    a, b = np.fromiter(chain.from_iterable(values), np.int64, 2 * len(nums)).reshape(-1, 2).T
    offsets, row = np.unique(a ^ b, return_inverse=True)
    x = np.zeros((len(offsets), 1 << n), dtype=_sum_dtype(max(map(abs, nums), default=0), n))
    x[row, b if fiber else a] = nums
    return den, offsets, x


def _word_transform(n: int, offsets: np.ndarray, x: np.ndarray, to_words: bool) -> np.ndarray:
    """K^T x (``to_words``) or K x on the rows of ``_offset_numerators``:
    diag(beta_d) H diag(alpha_d) or diag(alpha_d) H diag(beta_d) on each
    row, with H applied as n butterfly stages in place.  An int64 ``x``
    whose row sums could reach 2^62 is taken to Python ints first."""
    if x.dtype != object and _sum_dtype(int(np.abs(x).max(initial=0)), n) is object:
        x = x.astype(object)
    alpha, beta = _offset_signs(n)
    first, last = (alpha, beta) if to_words else (beta, alpha)
    y = first[offsets] * x
    rows, dim = y.shape
    for k in range(n):
        # the entries whose masks differ in bit k only: (lo, hi) -> (lo + hi, lo - hi)
        pairs = y.reshape(rows, dim >> (k + 1), 2, 1 << k)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        total = lo + hi
        np.subtract(lo, hi, out=hi)
        lo[...] = total
    return last[offsets] * y


def _sum_dtype(max_abs: int, n: int):
    """int64 when every signed sum of 2^n values of size at most
    ``max_abs`` stays below 2^62 in size, else object (Python ints)."""
    return np.int64 if max_abs << n < 1 << 62 else object


def _lifted(den: int, offsets: np.ndarray, x: np.ndarray, fiber: bool
            ) -> Dict[Tuple[int, int], Fraction]:
    """The nonzero numerators of x over ``den`` as Fractions, keyed as
    ``_offset_numerators`` reads them: (S ^ d, S) for fiber entries, (c,
    c ^ d) for words.  Each distinct numerator is lifted once."""
    row, col = np.nonzero(x)
    nums = x[row, col].tolist()
    i, j = col.tolist(), (col ^ offsets[row]).tolist()
    rational = {num: Fraction(num, den) for num in set(nums)}  # few distinct values
    return {key: rational[num] for key, num in zip(zip(j, i) if fiber else zip(i, j), nums)}


def gram_orthogonality_check(n: int, seed: int = 0):
    """Verify tr(W_{IJ}^{-1} W_{KL}) = 2^n delta_{IK} delta_{JL} on 400
    random pairs of words.

    W_{KL} sends e^s to g2[s] e^{s ^ K ^ L}, and W_{IJ}^{-1} sends
    e^{s ^ I ^ J} to g1[s] e^s, so the pairing is the sign dot product
    g1 . g2 when I ^ J = K ^ L and 0 otherwise.  Only such pairs are drawn,
    half of them diagonal, as 16-bit words of one ``randbytes`` call of
    ``random.Random(seed)`` cut to n bits, and they are gathered in blocks
    of rows.  Nondegeneracy of this Gram matrix makes the expansion a
    bijection.
    """
    dim = 1 << n
    sample = 400
    raw = np.frombuffer(random.Random(seed).randbytes(6 * sample), dtype="<u2")
    c1, h1, c2 = (raw & (dim - 1)).astype(np.int64).reshape(3, sample)
    c2[:sample // 2] = c1[:sample // 2]
    quads = np.stack([c1, h1, c2, c2 ^ c1 ^ h1], axis=1)
    s = np.arange(dim)
    failures = []
    for q in _slices(quads, n):
        c1, h1, c2, h2 = (col[:, None] for col in q.T)
        got = (_word_signs(n, c1, h1, s) * _word_signs(n, c2, h2, s)).sum(axis=1, dtype=np.int64)
        want = np.where((q[:, 0] == q[:, 2]) & (q[:, 1] == q[:, 3]), dim, 0)
        failures += [(*map(int, q[k]), int(got[k])) for k in np.flatnonzero(got != want)]
    return failures, sample
