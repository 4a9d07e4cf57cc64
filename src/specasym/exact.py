"""Exact scalar arithmetic for the symbolic pipelines.

Every exact computation in this package takes coefficients in one ring:
finite sums ``(a + b*i) * pi^(p/2) * t^(q/2)`` with rational ``a, b`` and
integer ``p, q`` (possibly negative).  Heat-trace Laurent series in sqrt(t),
characteristic-form normalisations (powers of pi) and Gamma-factor
arithmetic all live here without rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, pi as _PI
from typing import Dict, List, Sequence, Tuple, Union

Rat = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Scalar:
    """Element of Q(i)[pi^(1/2), pi^(-1/2), t^(1/2), t^(-1/2)].

    Internal representation: ``terms[(p, q)] = (re, im)`` meaning
    ``(re + im*i) * pi^(p/2) * t^(q/2)``.  Instances are immutable in use;
    mutate only inside constructors.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            f = Fraction(x)
            return Scalar({(0, 0): (f, _ZERO)} if f else {})
        raise TypeError(f"cannot build exact Scalar from {type(x).__name__}")

    @staticmethod
    def term(re: Rat = 1, im: Rat = 0, pi_half: int = 0, t_half: int = 0) -> "Scalar":
        re, im = Fraction(re), Fraction(im)
        if re == 0 and im == 0:
            return Scalar()
        return Scalar({(pi_half, t_half): (re, im)})

    @staticmethod
    def i(coef: Rat = 1) -> "Scalar":
        return Scalar.term(0, coef)

    @staticmethod
    def pi_pow(pi_half: int, coef: Rat = 1) -> "Scalar":
        return Scalar.term(coef, 0, pi_half, 0)

    @staticmethod
    def t_pow(t_half: int, coef: Rat = 1) -> "Scalar":
        return Scalar.term(coef, 0, 0, t_half)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other):
        other = Scalar.of(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for k, (re2, im2) in other.terms.items():
            re1, im1 = out.get(k, (_ZERO, _ZERO))
            re, im = re1 + re2, im1 + im2
            if re == 0 and im == 0:
                out.pop(k, None)
            else:
                out[k] = (re, im)
        return Scalar(out)

    __radd__ = __add__

    def __neg__(self):
        return Scalar({k: (-re, -im) for k, (re, im) in self.terms.items()})

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return Scalar.of(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                raise TypeError(f"cannot build exact Scalar from {type(other).__name__}")
            # a rational factor scales each part; a zero part stays as it is
            if not other:
                return Scalar()
            return Scalar({k: (re * other if re else re, im * other if im else im)
                           for k, (re, im) in self.terms.items()})
        if not self.terms or not other.terms:
            return Scalar()
        out = {}
        for (p1, q1), (a1, b1) in self.terms.items():
            for (p2, q2), (a2, b2) in other.terms.items():
                if b1:
                    if b2:
                        re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                    else:
                        re, im = a1 * a2, b1 * a2
                elif b2:
                    re, im = a1 * a2, a1 * b2
                else:
                    re, im = a1 * a2, _ZERO
                k = (p1 + p2, q1 + q2)
                prev = out.get(k)
                if prev is not None:
                    re, im = prev[0] + re, prev[1] + im
                    if not (re or im):
                        del out[k]
                        continue
                out[k] = (re, im)
        return Scalar(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Scalar({k: (re / f, im / f) for k, (re, im) in self.terms.items()})
        other = Scalar.of(other)
        if len(other.terms) != 1:
            raise ZeroDivisionError("exact division only by monomial scalars")
        (p, q), (re, im) = next(iter(other.terms.items()))
        den = re * re + im * im
        if den == 0:
            raise ZeroDivisionError("division by zero Scalar")
        inv = Scalar({(-p, -q): (re / den, -im / den)})
        return self * inv

    def __pow__(self, k: int):
        if k < 0:
            return Scalar.of(1) / self.__pow__(-k)
        out = Scalar.of(1)
        for _ in range(k):
            out = out * self
        return out

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        try:
            other = Scalar.of(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def conjugate(self) -> "Scalar":
        return Scalar({k: (re, -im) for k, (re, im) in self.terms.items()})

    def t_support(self):
        """All half-integer t exponents (as Fractions) with nonzero terms."""
        return sorted({Fraction(q, 2) for (_, q) in self.terms})

    def t_coefficient(self, power) -> "Scalar":
        """Coefficient of t**power; ``power`` may be half-integral."""
        q0 = Fraction(power) * 2
        if q0.denominator != 1:
            return Scalar()
        q0 = int(q0)
        return Scalar({(p, 0): v for (p, q), v in self.terms.items() if q == q0})

    def as_rational(self) -> Fraction:
        """The value as a plain rational; raises if pi, t or i is present."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {(0, 0)}:
            raise ValueError(f"not a plain rational: {self}")
        re, im = self.terms[(0, 0)]
        if im != 0:
            raise ValueError(f"not real: {self}")
        return re

    def evalf(self, t=None) -> complex:
        """Numeric value; ``t`` must be supplied when t-powers are present."""
        total = 0j
        for (p, q), (re, im) in self.terms.items():
            v = complex(re) + 1j * complex(im)
            v *= _PI ** (p / 2.0)
            if q:
                if t is None:
                    raise ValueError("t value required to evaluate this Scalar")
                v *= float(t) ** (q / 2.0)
            total += v
        return total

    def real_float(self, t=None) -> float:
        z = self.evalf(t)
        if abs(z.imag) > 1e-12 * (1.0 + abs(z.real)):
            raise ValueError(f"not numerically real: {self}")
        return z.real

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (p, q) in sorted(self.terms):
            re, im = self.terms[(p, q)]
            if im == 0:
                coef = str(re)
            elif re == 0:
                coef = f"{im}*i"
            else:
                coef = f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"
            factors = [coef]
            if p:
                factors.append(f"pi^({Fraction(p,2)})" if p % 2 else f"pi^{p//2}")
            if q:
                factors.append(f"t^({Fraction(q,2)})" if q % 2 else f"t^{q//2}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


ZERO = Scalar()
ONE = Scalar.of(1)
I = Scalar.i()


def rational_parts(x) -> List[Tuple[Tuple[int, int, int], Rat]]:
    """(plane, value) for each nonzero rational part of an exact value.

    A plane is (pi power, t power, 0 for real or 1 for imaginary).
    """
    if isinstance(x, (int, Fraction)):
        return [((0, 0, 0), x)] if x else []
    return [
        (key + (part,), value)
        for key, pair in Scalar.of(x).terms.items()
        for part, value in enumerate(pair)
        if value
    ]


def numerator_planes(values: Sequence) -> Tuple[int, Dict[Tuple[int, int, int], List[int]]]:
    """Exact values as integer numerators over one common denominator.

    Returns ``(den, planes)``: ``planes[(p, q, part)][k] / den`` is the
    real (part 0) or imaginary (part 1) coefficient of pi^(p/2) t^(q/2)
    in ``values[k]``.  Only planes with a nonzero entry are present, so
    sums and products of the values run on Python ints.
    """
    if all(type(x) is int or type(x) is Fraction for x in values):
        # plain rationals fill the real plane only: skip the per-value parts
        den = lcm(*(x.denominator for x in values))
        nums = [x.numerator * (den // x.denominator) for x in values]
        return den, ({(0, 0, 0): nums} if any(nums) else {})
    parts = [rational_parts(x) for x in values]
    den = lcm(*(v.denominator for ps in parts for _, v in ps))
    planes: Dict[Tuple[int, int, int], List[int]] = {}
    for k, ps in enumerate(parts):
        for plane, v in ps:
            if plane not in planes:
                planes[plane] = [0] * len(values)
            planes[plane][k] = v.numerator * (den // v.denominator)
    return den, planes


def lift_planes(nums: Dict[Tuple[int, int, int], int], den: int, scalar: bool):
    """One exact value back from its planes: ``nums[plane] / den`` is its
    rational part on each plane, as in ``numerator_planes``.

    Returns a Scalar when ``scalar``, else a Fraction, which only the real
    (0, 0) plane can hold.
    """
    if not scalar:
        return Fraction(int(nums.get((0, 0, 0), 0)), den)
    terms: Dict[Tuple[int, int], list] = {}
    for (p, q, part), num in nums.items():
        if num:
            terms.setdefault((p, q), [_ZERO, _ZERO])[part] = Fraction(int(num), den)
    return Scalar({k: tuple(v) for k, v in terms.items()})
