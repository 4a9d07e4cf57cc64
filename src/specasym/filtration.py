"""Clifford word-basis expansion and trace identities.

Every c(omega^I) c-hat(omega^J) word acts on the subset basis as a signed
permutation e^S -> +-e^{S ^ I ^ J}, so the whole 4^n word family is
tabulated as one sign array for the c words and one for the c-hat words,
each the closed form of ``exterior.apply_word`` over all masks at once.
Traces, Hilbert-Schmidt coefficient extraction and the exhaustive
trace-identity sweeps all run on these tables.

The expansion and its reconstruction are one kernel in two directions.
With K[(S ^ I ^ J, S), (I, J)] the sign of the word (I, J) on e^S, the
coefficients of an operator M are phi = K^T M / 2^n and the operator of
coefficients phi is M = K phi; ``_word_scatter`` applies K or K^T to a
sparse map of rationals, on their integer numerators over one common
denominator.  Both directions take int or Fraction coefficients only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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
    """Rational coefficients phi_{IJ} of M = sum phi_{IJ} c(omega^I) c-hat(omega^J)."""

    _fields = ("n", "coefficients")

    def __init__(self, n: int, coefficients: Optional[Dict[Tuple[int, int], Rat]] = None):
        self.n = n
        self.coefficients = {} if coefficients is None else coefficients

    def reconstruct(self) -> FiberOp:
        """The operator sum phi_{IJ} c(omega^I) c-hat(omega^J), exactly:
        M = K phi (``_word_scatter``)."""
        return FiberOp(self.n, 1, _word_scatter(self.n, self.coefficients, False))


def expand_clifford_basis(m: FiberOp) -> CliffordWordExpansion:
    """Expand a rank-1 fiber operator with rational entries over the 4^n
    Clifford words.

    Coefficients come from the Hilbert-Schmidt pairing with the explicit
    word inverses: phi_{IJ} = tr(W_{IJ}^{-1} M) / 2^n = (K^T M)_{IJ} / 2^n
    (``_word_scatter``), and the round trip through ``reconstruct`` is
    exact.
    """
    if m.r != 1:
        raise ValueError("word expansion requires bundle rank 1")
    return CliffordWordExpansion(m.n, _word_scatter(m.n, m.entries, True))


def _word_scatter(n: int, values: Dict[Tuple[int, int], Rat], to_words: bool):
    """K^T x / 2^n (``to_words``) or K x, as a sparse map.

    K[(s ^ c ^ h, s), (c, h)] is the sign of the word c(omega^c)
    c-hat(omega^h) on e^s, and ``values`` is x: fiber entries {(row, col):
    v} for K^T, word coefficients {(c, h): v} for K.  Either way the key
    (a, b) reaches the output keys (a ^ b ^ x, x) for every mask x, so
    both directions share one scatter and differ only in which word and
    source give the sign.

    The rational values are put over their least common denominator
    (``rational_numerators``, which raises TypeError on any other value);
    their integer numerators are summed on one ``_accumulator`` while the
    word signs are read from the tables in blocks, and each nonzero sum is
    lifted once to a Fraction.  Zero sums are dropped.
    """
    dim = 1 << n
    den, nums = rational_numerators(list(values.values()))
    a, b = np.array(list(values), dtype=np.int64).reshape(-1, 2).T
    x = np.arange(dim)
    acc = _accumulator(dim * dim, nums)
    nums = np.array(nums, dtype=acc.dtype)
    for block in _slices(np.arange(len(a)), n):
        ak, bk = a[block, None], b[block, None]
        out = ak ^ bk ^ x
        signs = _word_signs(n, out, x, bk) if to_words else _word_signs(n, ak, bk, x)
        np.add.at(acc, (out * dim + x).ravel(), (signs * nums[block, None]).ravel())

    keys = np.flatnonzero(acc)
    sums = acc[keys].tolist()
    if to_words:
        den <<= n
    rational = {num: Fraction(num, den) for num in set(sums)}  # few distinct values
    return {divmod(k, dim): rational[num] for k, num in zip(keys.tolist(), sums)}


def _accumulator(size: int, nums) -> np.ndarray:
    """Zeros that hold any sum of at most len(nums) terms +-num exactly:
    int64 when max|num| * len(nums) < 2^62, Python ints otherwise."""
    bound = max(map(abs, nums), default=0) * len(nums)
    return np.zeros(size, dtype=np.int64 if bound < 1 << 62 else object)


def gram_orthogonality_check(n: int, seed: int = 0):
    """Verify tr(W_{IJ}^{-1} W_{KL}) = 2^n delta_{IK} delta_{JL} on 400
    random pairs of words.

    W_{KL} sends e^s to g2[s] e^{s ^ K ^ L}, and W_{IJ}^{-1} sends
    e^{s ^ I ^ J} to g1[s] e^s, so the pairing is the sign dot product
    g1 . g2 when I ^ J = K ^ L and 0 otherwise.  Only such pairs are drawn,
    half of them diagonal, and they are gathered in blocks of rows.
    Nondegeneracy of this Gram matrix makes the expansion a bijection.
    """
    dim = 1 << n
    sample = 400
    c1, h1, c2 = np.random.default_rng(seed).integers(0, dim, (3, sample))
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
