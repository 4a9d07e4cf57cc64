"""Clifford word-basis expansion, trace identities, and degree calculus.

Every c(omega^I) c-hat(omega^J) word acts on the subset basis as a signed
permutation, so the whole 4^n word family is tabulated as permutation and
sign arrays.  Traces, Hilbert-Schmidt coefficient extraction and the
exhaustive trace-identity sweeps all run on these tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, perm
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .exact import Scalar, lift_planes, numerator_planes
from .exterior import _ZERO, FiberOp, apply_cliff, popcount, subset_order
from .wordops import WordOperator


_BLOCK = 1 << 14  # table entries gathered per numpy round


# ----------------------------------------------------------------------
# signed-permutation tables for all words
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _generator_tables(n: int, hat: bool):
    dim = 1 << n
    perms = np.empty((n, dim), dtype=np.int32)
    signs = np.empty((n, dim), dtype=np.int8)
    for i in range(1, n + 1):
        for s in range(dim):
            sg, t = apply_cliff(i, s, hat)
            perms[i - 1, s] = t
            signs[i - 1, s] = sg
    return perms, signs


@lru_cache(maxsize=None)
def word_tables(n: int, hat: bool):
    """perm[wmask, s] and sign[wmask, s] for every word mask."""
    dim = 1 << n
    gp, gs = _generator_tables(n, hat)
    perms = np.empty((dim, dim), dtype=np.int32)
    signs = np.empty((dim, dim), dtype=np.int8)
    perms[0] = np.arange(dim, dtype=np.int32)
    signs[0] = 1
    for w in range(1, dim):
        low = w & -w
        rest = w & ~low
        i = low.bit_length() - 1
        # ascending words put the lowest index leftmost, so gen(i) is the
        # outermost factor wrapped around word(rest)
        inner_p, inner_s = perms[rest], signs[rest]
        perms[w] = gp[i][inner_p]
        signs[w] = gs[i][inner_p] * inner_s
    return perms, signs


def word_trace(n: int, cmask_or_indices, hmask_or_indices) -> int:
    """Trace of c(omega^I) c-hat(omega^J) over Lambda*(R^n)."""
    cm = _as_mask(cmask_or_indices)
    hm = _as_mask(hmask_or_indices)
    cp, cs = word_tables(n, False)
    hp, hs = word_tables(n, True)
    s = np.arange(1 << n)
    mid = hp[hm]
    tgt = cp[cm][mid]
    sg = cs[cm][mid].astype(np.int64) * hs[hm]
    return int(sg[tgt == s].sum())


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
    (N, 2).  When both tables satisfy ``perm[w, s] == s ^ w`` (checked on
    every call), the word c(I) c-hat(J) moves e^S to e^{S ^ I ^ J}, so a
    pair with I != J has no fixed point and trace 0; only the pairs with
    I == J are gathered.  Otherwise every pair is gathered.  Returns
    (failures, checked).
    """
    dim = 1 << n
    cp, cs = word_tables(n, False)
    hp, hs = word_tables(n, True)
    s = np.arange(dim, dtype=cp.dtype)
    xor_tables = all(((perm ^ s) == s[:, None]).all() for perm in (cp, hp))
    if pairs is None:
        checked = dim * dim
        if xor_tables:
            blocks = ((w, w) for w in _slices(s, n))
        else:
            blocks = ((np.full(dim, cm), s) for cm in range(dim))
    else:
        pairs = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
        pairs = pairs.reshape(len(pairs), 2)
        checked = len(pairs)
        if xor_tables:
            pairs = pairs[pairs[:, 0] == pairs[:, 1]]
        blocks = ((b[:, 0], b[:, 1]) for b in _slices(pairs, n))
    failures = []
    for cms, hms in blocks:
        mid = hp[hms]
        fixed = cp[cms[:, None], mid] == s
        sg = cs[cms[:, None], mid] * hs[hms]  # int8, each +-1
        tr = np.where(fixed, sg, 0).sum(axis=1, dtype=np.int64)
        expected = np.where((cms == 0) & (hms == 0), dim, 0)
        for k in np.flatnonzero(tr != expected):
            failures.append((int(cms[k]), int(hms[k]), int(tr[k])))
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

        flat = np.full(dim * dim, _ZERO, dtype=object)
        if (0, 0, 0) in sums:
            acc = sums[(0, 0, 0)]
            nz = np.flatnonzero(acc)
            flat[nz] = [Fraction(a, den) for a in acc[nz].tolist()]
        if scalar_diffs:
            # W_{IJ} only links e^S to e^{S ^ I ^ J}: the entries a Scalar
            # coefficient reaches are those whose masks differ by I ^ J
            s = np.arange(dim)
            reached = np.isin(s[:, None] ^ s, list(scalar_diffs)).ravel()
            for idx in np.flatnonzero(reached):
                flat[idx] = lift_planes({k: v[idx] for k, v in sums.items()}, den, True)
        # rows and columns were indexed by mask; FiberOp uses subset order
        order = np.array(subset_order(n)[0])
        return FiberOp(n, 1, flat.reshape(dim, dim)[np.ix_(order, order)])

    def upper_degree(self) -> int:
        return max(popcount(cm) for (cm, _) in self.coefficients)

    def lower_degree(self) -> int:
        return min(popcount(cm) for (cm, _) in self.coefficients)


def _word_sum(n: int, words: Iterable[Tuple[int, int]], nums) -> np.ndarray:
    """Integer sum of num * W(cm, hm) over ``words`` and their numerators.

    The result is a flat integer array (``_accumulator``), index
    ``target_mask * 2^n + source_mask``.  Words are gathered from the
    flattened word tables in blocks and their signed numerators scattered
    with ``np.add.at``.
    """
    dim = 1 << n
    cp, cs = word_tables(n, False)
    hp, hs = word_tables(n, True)
    acc = _accumulator(dim * dim, nums)
    values = np.array(nums, dtype=acc.dtype)
    words = np.array(list(words), dtype=np.int64).reshape(-1, 2)
    src = np.arange(dim)
    for block in _slices(np.arange(len(words)), n):
        cms, hms = words[block, 0], words[block, 1]
        mid = hp[hms] + (cms * dim)[:, None]  # flat index of cp[cm, hp[hm, s]]
        signed = (cs.take(mid) * hs[hms]) * values[block, None]
        np.add.at(acc, (cp.take(mid) * dim + src).ravel(), signed.ravel())
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
    flat = m.mat.ravel().tolist()
    nz = [k for k, v in enumerate(flat) if v is not _ZERO and v != 0]
    values = [flat[k] for k in nz]
    den, planes = numerator_planes(values)
    order = np.array(subset_order(n)[0])
    rpos, cpos = np.divmod(np.array(nz, dtype=np.int64), dim)
    rows, cols = order[rpos], order[cpos]
    cs = word_tables(n, False)[1]
    hp, hs = word_tables(n, True)
    # Every word sends e^S to +- e^{S ^ cm ^ hm}, so entry (row, col) pairs
    # with the words cm = row ^ col ^ hm only, one for each c-hat mask hm.
    hms = np.arange(dim)
    sums = {plane: _accumulator(dim * dim, nums) for plane, nums in planes.items()}
    values_of = {plane: np.array(nums, dtype=sums[plane].dtype) for plane, nums in planes.items()}
    for block in _slices(np.arange(len(nz)), n):
        col = cols[block, None]
        cms = (rows[block] ^ cols[block])[:, None] ^ hms
        signs = cs[cms, hp[hms, col]] * hs[hms, col]
        idx = (cms * dim + hms).ravel()
        for plane, acc in sums.items():
            np.add.at(acc, idx, (signs * values_of[plane][block, None]).ravel())

    scalar_diffs = {
        int(r ^ c) for r, c, v in zip(rows, cols, values) if isinstance(v, Scalar)
    }
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


def gram_orthogonality_check(n: int, sample: Optional[int] = None, seed: int = 0):
    """Verify tr(W_{IJ}^{-1} W_{KL}) = 2^n delta_{IK} delta_{JL}.

    With ``sample`` set, checks that many random pairs of pairs; otherwise
    checks every diagonal pair plus a deterministic off-diagonal sweep.
    Nondegeneracy of this Gram matrix makes the expansion a bijection.
    """
    dim = 1 << n
    cp, cs = word_tables(n, False)
    hp, hs = word_tables(n, True)
    s_range = np.arange(dim)

    def pairing(cm1, hm1, cm2, hm2) -> int:
        # trace of W1^{-1} W2: apply W2 then the inverse of W1.
        mid = hp[hm2]
        t2 = cp[cm2][mid]
        g2 = cs[cm2][mid].astype(np.int64) * hs[hm2]
        mid1 = hp[hm1]
        t1 = cp[cm1][mid1]
        g1 = cs[cm1][mid1].astype(np.int64) * hs[hm1]
        # W1 chi_s = g1[s] chi_{t1[s]}  =>  W1^{-1} chi_{t1[s]} = g1[s] chi_s
        inv_t = np.empty(dim, dtype=np.int64)
        inv_g = np.empty(dim, dtype=np.int64)
        inv_t[t1] = s_range
        inv_g[t1] = g1
        tgt = inv_t[t2]
        sg = inv_g[t2] * g2
        return int(sg[tgt == s_range].sum())

    rng = np.random.default_rng(seed)
    failures = []
    if sample is None:
        it = [(w, w) for w in range(min(dim, 64))]
        it += [((a * 37) % dim, (a * 101 + 13) % dim) for a in range(64)]
        quads = [(c1, h1, c2, h2) for (c1, h1) in it for (c2, h2) in [it[0], it[-1]]]
    else:
        quads = [tuple(int(x) for x in rng.integers(0, dim, 4)) for _ in range(sample)]
    for c1, h1, c2, h2 in quads:
        got = pairing(c1, h1, c2, h2)
        want = dim if (c1, h1) == (c2, h2) else 0
        if got != want:
            failures.append((c1, h1, c2, h2, got))
    return failures, len(quads)


# ----------------------------------------------------------------------
# polynomial-coefficient differential operators and total degree
# ----------------------------------------------------------------------

class TruncationError(Exception):
    pass


@dataclass
class PolyDiffOp:
    """sum_{J,I} x^I C_{JI} d^J with word-operator coefficients.

    ``terms[(J, I)]`` maps derivative and monomial multi-degrees (length-n
    tuples) to a WordOperator coefficient.  Truncation bounds limit the
    total polynomial degree and total derivative order.
    """

    n: int
    terms: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], WordOperator] = field(
        default_factory=dict
    )
    max_poly_degree: int = 4
    max_deriv_order: int = 4

    def __post_init__(self):
        clean = {}
        for (dj, mi), c in self.terms.items():
            if sum(mi) > self.max_poly_degree or sum(dj) > self.max_deriv_order:
                raise TruncationError(f"term ({dj}, {mi}) exceeds truncation bounds")
            if not c.is_zero():
                clean[(tuple(dj), tuple(mi))] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(n: int, r: int = 1) -> "PolyDiffOp":
        z = tuple(0 for _ in range(n))
        return PolyDiffOp(n, {(z, z): WordOperator.identity(n, r)})

    @staticmethod
    def partial(n: int, i: int, r: int = 1) -> "PolyDiffOp":
        dj = tuple(1 if k == i - 1 else 0 for k in range(n))
        z = tuple(0 for _ in range(n))
        return PolyDiffOp(n, {(dj, z): WordOperator.identity(n, r)})

    @staticmethod
    def coordinate(n: int, j: int, r: int = 1) -> "PolyDiffOp":
        mi = tuple(1 if k == j - 1 else 0 for k in range(n))
        z = tuple(0 for _ in range(n))
        return PolyDiffOp(n, {(z, mi): WordOperator.identity(n, r)})

    @staticmethod
    def constant(coeff: WordOperator) -> "PolyDiffOp":
        z = tuple(0 for _ in range(coeff.n))
        return PolyDiffOp(coeff.n, {(z, z): coeff})

    @staticmethod
    def flat_laplacian(n: int, r: int = 1) -> "PolyDiffOp":
        z = tuple(0 for _ in range(n))
        terms = {}
        for i in range(n):
            dj = tuple(2 if k == i else 0 for k in range(n))
            terms[(dj, z)] = WordOperator.identity(n, r).scale(-1)
        return PolyDiffOp(n, terms)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return PolyDiffOp(
            self.n,
            out,
            min(self.max_poly_degree, other.max_poly_degree),
            min(self.max_deriv_order, other.max_deriv_order),
        )

    def __sub__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return self + other.scale(-1)

    def scale(self, s) -> "PolyDiffOp":
        return PolyDiffOp(
            self.n,
            {k: c.scale(s) for k, c in self.terms.items()},
            self.max_poly_degree,
            self.max_deriv_order,
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PolyDiffOp):
            return NotImplemented
        return self.n == other.n and (self - other).is_zero()


def total_degree(d: PolyDiffOp) -> int:
    """max over terms of |J| - |I| + (upper Clifford degree of coefficient)."""
    if d.is_zero():
        raise ValueError("zero operator has no total degree")
    return max(
        sum(dj) - sum(mi) + c.c_degree_upper() for (dj, mi), c in d.terms.items()
    )


def compose(a: PolyDiffOp, b: PolyDiffOp) -> PolyDiffOp:
    """Operator composition a b with Leibniz expansion of derivatives."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    n = a.n
    bounds = (
        min(a.max_poly_degree, b.max_poly_degree),
        min(a.max_deriv_order, b.max_deriv_order),
    )
    out: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], WordOperator] = {}
    for (j1, i1), c1 in a.terms.items():
        for (j2, i2), c2 in b.terms.items():
            coeff_prod = c1 * c2
            if coeff_prod.is_zero():
                continue
            for k in _sub_multi(j1, i2):
                factor = 1
                for c in range(n):
                    factor *= comb(j1[c], k[c]) * perm(i2[c], k[c])
                if factor == 0:
                    continue
                dj = tuple(j1[c] - k[c] + j2[c] for c in range(n))
                mi = tuple(i1[c] + i2[c] - k[c] for c in range(n))
                if sum(mi) > bounds[0] or sum(dj) > bounds[1]:
                    raise TruncationError(
                        f"composition overflows truncation bounds at ({dj}, {mi})"
                    )
                term = coeff_prod.scale(factor)
                key = (dj, mi)
                out[key] = out[key] + term if key in out else term
    return PolyDiffOp(n, out, bounds[0], bounds[1])


def _sub_multi(j, i):
    """All multi-indices k with k <= min(j, i) componentwise."""
    caps = [min(a, b) for a, b in zip(j, i)]
    out = [()]
    for cap in caps:
        out = [t + (v,) for t in out for v in range(cap + 1)]
    return out
