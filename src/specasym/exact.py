"""Exact scalar arithmetic for the symbolic pipelines.

Every exact computation in this package takes coefficients in one ring:
finite sums ``(a + b*i) * pi^(p/2) * t^(q/2)`` with rational ``a, b`` and
integer ``p, q`` (possibly negative).  Heat-trace Laurent series in sqrt(t),
characteristic-form normalisations (powers of pi) and Gamma-factor
arithmetic all live here without rounding.  ``rational_numerators`` puts
plain rationals over one least common denominator, so the 2-form
projections and the word expansion sum Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, pi as _PI
from typing import List, Sequence, Tuple, Union

Rat = Union[int, Fraction]

_ZERO = Fraction(0)


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
        # equal values hash equal: a real rational Scalar hashes as its
        # Fraction, and the zero Scalar as 0
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            (key, (re, im)), = self.terms.items()
            if key == (0, 0) and not im:
                return hash(re)
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

    def evalf(self) -> complex:
        """Numeric value of a Scalar free of t; a t-power raises ValueError."""
        total = 0j
        for (p, q), (re, im) in self.terms.items():
            if q:
                raise ValueError("cannot evaluate a Scalar with a power of t")
            total += (complex(re) + 1j * complex(im)) * _PI ** (p / 2.0)
        return total

    def real_float(self) -> float:
        z = self.evalf()
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


def rational_numerators(values: Sequence[Rat]) -> Tuple[int, List[int]]:
    """Rationals as integer numerators over their least common denominator.

    Returns ``(den, nums)`` with ``nums[k] / den == values[k]``, so sums and
    products of the values run on Python ints.  Raises TypeError on a value
    that is not an int or a Fraction.
    """
    for x in values:
        if type(x) is not int and type(x) is not Fraction:
            raise TypeError(f"rational numerators need int or Fraction, not {type(x).__name__}")
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]
