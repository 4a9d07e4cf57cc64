"""Clifford word-basis expansion, trace identities and Clifford degrees.

Every c(omega^I) c-hat(omega^J) word acts on the subset basis as a signed
permutation e^S -> +-e^{S ^ I ^ J}, so the whole 4^n word family is
tabulated as one sign array for the c words and one for the c-hat words.
Traces, Hilbert-Schmidt coefficient extraction and the exhaustive
trace-identity sweeps all run on these tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .exact import Scalar, lift_planes, numerator_planes
from .exterior import FiberOp, apply_cliff, popcount


_BLOCK = 1 << 14  # table entries gathered per numpy round


# ----------------------------------------------------------------------
# sign tables for all words
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def word_tables(n: int, hat: bool) -> np.ndarray:
    """int8 sign[wmask, s]: the c (or c-hat) word over ``wmask`` sends e^s
    to sign * e^{s ^ wmask}.

    Raises RuntimeError unless every generator of ``apply_cliff`` flips
    exactly its own bit, which is what lets the tables carry no targets.
    """
    dim = 1 << n
    gen = np.empty((n, dim), dtype=np.int8)
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        for s in range(dim):
            gen[i - 1, s], t = apply_cliff(i, s, hat)
            if t != s ^ bit:
                raise RuntimeError(f"generator {i} sends e^{s} to e^{t}, not e^{s ^ bit}")
    s = np.arange(dim)
    signs = np.empty((dim, dim), dtype=np.int8)
    signs[0] = 1
    for w in range(1, dim):
        low = w & -w
        rest = w & ~low
        # ascending words put the lowest index leftmost, so gen(i) is the
        # outermost factor wrapped around word(rest)
        signs[w] = gen[low.bit_length() - 1][s ^ rest] * signs[rest]
    return signs


def _word_signs(n: int, cms, hms, s):
    """Sign of c(omega^cm) c-hat(omega^hm) on e^s, broadcast over the
    masks; the target is e^{s ^ cm ^ hm}.  Flat ``take`` indices, which
    numpy gathers faster than a pair of index arrays."""
    c, h = word_tables(n, False), word_tables(n, True)
    return c.take((cms << n) | (s ^ hms)) * h.take((hms << n) | s)


def word_trace(n: int, cmask_or_indices, hmask_or_indices) -> int:
    """Trace of c(omega^I) c-hat(omega^J) over Lambda*(R^n)."""
    cm = _as_mask(cmask_or_indices)
    hm = _as_mask(hmask_or_indices)
    if cm != hm:
        return 0  # e^S -> +-e^{S ^ I ^ J} has no fixed point
    return int(_word_signs(n, cm, hm, np.arange(1 << n)).sum(dtype=np.int64))


def _as_mask(x) -> int:
    if isinstance(x, int):
        return x
    m = 0
    for i in x:
        m |= 1 << (i - 1)
    return m


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

@dataclass
class CliffordWordExpansion:
    """Coefficients phi_{IJ} of M = sum phi_{IJ} c(omega^I) c-hat(omega^J)."""

    n: int
    coefficients: Dict[Tuple[int, int], object] = field(default_factory=dict)

    def reconstruct(self) -> FiberOp:
        """The operator sum phi_{IJ} c(omega^I) c-hat(omega^J), exactly.

        Coefficients are split by linearity into rational planes, one per
        Scalar term key and real/imaginary part; a rational coefficient is
        the real part of the (0, 0) plane.  Each plane is summed as integer
        numerators over one common denominator (``_word_sum``).  An entry
        reached by a Scalar coefficient is a Scalar, any other a Fraction,
        as when the coefficients are added one at a time.
        """
        n = self.n
        dim = 1 << n
        den, planes = numerator_planes(list(self.coefficients.values()))
        sums = {plane: _word_sum(n, self.coefficients, nums) for plane, nums in planes.items()}
        scalar_diffs = {
            cm ^ hm for (cm, hm), coeff in self.coefficients.items() if isinstance(coeff, Scalar)
        }

        entries: Dict[Tuple[int, int], object] = {}
        if (0, 0, 0) in sums:
            acc = sums[(0, 0, 0)]
            nz = np.flatnonzero(acc)
            for idx, a in zip(nz.tolist(), acc[nz].tolist()):
                entries[divmod(idx, dim)] = Fraction(a, den)
        if scalar_diffs:
            # W_{IJ} only links e^S to e^{S ^ I ^ J}: the entries a Scalar
            # coefficient reaches are those whose masks differ by I ^ J
            s = np.arange(dim)
            reached = np.isin(s[:, None] ^ s, list(scalar_diffs)).ravel()
            for idx in np.flatnonzero(reached).tolist():
                entries[divmod(idx, dim)] = lift_planes(
                    {k: v[idx] for k, v in sums.items()}, den, True)
        return FiberOp(n, 1, entries)

    def upper_degree(self) -> int:
        return max(popcount(cm) for (cm, _) in self.coefficients)

    def lower_degree(self) -> int:
        return min(popcount(cm) for (cm, _) in self.coefficients)


def _word_sum(n: int, words: Iterable[Tuple[int, int]], nums) -> np.ndarray:
    """Integer sum of num * W(cm, hm) over ``words`` and their numerators.

    The result is a flat integer array (``_accumulator``), index
    ``target_mask * 2^n + source_mask``.  Word signs are read from the
    tables in blocks and the signed numerators scattered to
    e^{s ^ cm ^ hm} with ``np.add.at``.
    """
    dim = 1 << n
    acc = _accumulator(dim * dim, nums)
    values = np.array(nums, dtype=acc.dtype)
    words = np.array(list(words), dtype=np.int64).reshape(-1, 2)
    src = np.arange(dim)
    for block in _slices(np.arange(len(words)), n):
        cms, hms = words[block, :1], words[block, 1:]
        signed = _word_signs(n, cms, hms, src) * values[block, None]
        np.add.at(acc, ((cms ^ hms ^ src) * dim + src).ravel(), signed.ravel())
    return acc


def _accumulator(size: int, nums) -> np.ndarray:
    """Zeros that hold any sum of at most len(nums) terms +-num exactly:
    int64 when max|num| * len(nums) < 2^62, Python ints otherwise."""
    bound = max(map(abs, nums), default=0) * len(nums)
    return np.zeros(size, dtype=np.int64 if bound < 1 << 62 else object)


def expand_clifford_basis(m: FiberOp) -> CliffordWordExpansion:
    """Expand a rank-1 fiber operator over the 4^n Clifford words.

    Coefficients come from the Hilbert-Schmidt pairing with the explicit
    word inverses: phi_{IJ} = tr(W_{IJ}^{-1} M) / 2^n, and the round trip
    through ``reconstruct`` is exact.  The nonzero entries are split into
    integer numerator planes over one denominator (as in ``reconstruct``),
    and each plane is one integer scatter over the 4^n words.  A
    coefficient reached by a Scalar entry is a Scalar, any other a
    Fraction.
    """
    if m.r != 1:
        raise ValueError("word expansion requires bundle rank 1")
    n = m.n
    dim = 1 << n
    values = list(m.entries.values())
    den, planes = numerator_planes(values)
    rows, cols = np.array(list(m.entries), dtype=np.int64).reshape(-1, 2).T
    # Every word sends e^S to +- e^{S ^ cm ^ hm}, so entry (row, col) pairs
    # with the words cm = row ^ col ^ hm only, one for each c-hat mask hm.
    hms = np.arange(dim)
    sums = {plane: _accumulator(dim * dim, nums) for plane, nums in planes.items()}
    values_of = {plane: np.array(nums, dtype=sums[plane].dtype) for plane, nums in planes.items()}
    for block in _slices(np.arange(len(values)), n):
        col = cols[block, None]
        cms = (rows[block] ^ cols[block])[:, None] ^ hms
        signs = _word_signs(n, cms, hms, col)
        idx = (cms * dim + hms).ravel()
        for plane, acc in sums.items():
            np.add.at(acc, idx, (signs * values_of[plane][block, None]).ravel())

    scalar_diffs = {r ^ c for (r, c), v in m.entries.items() if isinstance(v, Scalar)}
    reached = np.zeros(dim * dim, dtype=bool)
    for acc in sums.values():
        reached |= acc != 0
    keys = np.flatnonzero(reached)
    parts = {plane: acc[keys].tolist() for plane, acc in sums.items()}
    scale = den * dim
    real = parts.get((0, 0, 0), [])
    rational = {num: Fraction(num, scale) for num in set(real)}  # few distinct values
    coeffs: Dict[Tuple[int, int], object] = {}
    for k, idx in enumerate(keys.tolist()):
        cm, hm = divmod(idx, dim)
        if cm ^ hm in scalar_diffs:
            coeffs[(cm, hm)] = lift_planes({p: v[k] for p, v in parts.items()}, scale, True)
        else:
            coeffs[(cm, hm)] = rational[real[k]]
    return CliffordWordExpansion(n, coeffs)


def clifford_degrees(m: FiberOp) -> Tuple[int, int]:
    """(lower, upper) Clifford degree of a nonzero rank-1 operator."""
    exp = expand_clifford_basis(m)
    if not exp.coefficients:
        raise ValueError("zero operator has no Clifford degree")
    return exp.lower_degree(), exp.upper_degree()


def gram_orthogonality_check(n: int, sample: int = 400, seed: int = 0):
    """Verify tr(W_{IJ}^{-1} W_{KL}) = 2^n delta_{IK} delta_{JL} on
    ``sample`` random pairs of words.

    W_{KL} sends e^s to g2[s] e^{s ^ K ^ L}, and W_{IJ}^{-1} sends
    e^{s ^ I ^ J} to g1[s] e^s, so the pairing is the sign dot product
    g1 . g2 when I ^ J = K ^ L and 0 otherwise.  Only such pairs are drawn,
    half of them diagonal, and they are gathered in blocks of rows.
    Nondegeneracy of this Gram matrix makes the expansion a bijection.
    """
    dim = 1 << n
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
