"""Exact arithmetic in the quadratic field Q(sqrt(2)).

Every scalar is ``a + b*sqrt(2)`` with ``a``, ``b`` rational, kept in lowest
terms by ``fractions.Fraction``.  Equality is exact and structural; there is
no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

_RatLike = Union[int, Fraction]

# The rational zero shared by every rational scalar's sqrt2 part; arithmetic
# takes its rational fast path when both operands' ``b`` is this object.
_Q0 = Fraction(0)


def _frac(v: _RatLike) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v) if v else _Q0
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class ExactScalar:
    """An element a + b*sqrt2 of Q(sqrt2)."""

    __slots__ = ("a", "b")

    def __init__(self, a: _RatLike = 0, b: _RatLike = 0):
        _set_a(self, _frac(a))
        _set_b(self, _frac(b))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("ExactScalar is immutable")

    # --- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "ExactScalar":
        return ExactScalar(0, 0)

    @staticmethod
    def one() -> "ExactScalar":
        return ExactScalar(1, 0)

    @staticmethod
    def sqrt2() -> "ExactScalar":
        return ExactScalar(0, 1)

    @staticmethod
    def of(v: "ScalarLike") -> "ExactScalar":
        if isinstance(v, ExactScalar):
            return v
        return ExactScalar(_frac(v), 0)

    # --- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.a and (self.b is _Q0 or not self.b)

    def is_rational(self) -> bool:
        return self.b is _Q0 or not self.b

    def __bool__(self) -> bool:
        return not self.is_zero()

    # --- arithmetic ---------------------------------------------------
    # +, - and * skip the sqrt2 parts when both operands are rational with
    # the shared zero ``b``; otherwise they apply the generic formula.
    def __add__(self, other: "ScalarLike") -> "ExactScalar":
        o = other if type(other) is ExactScalar else ExactScalar.of(other)
        if self.b is _Q0 and o.b is _Q0:
            return _rational(self.a + o.a)
        return _make(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        if self.b is _Q0:
            return _rational(-self.a)
        return _make(-self.a, -self.b)

    def __sub__(self, other: "ScalarLike") -> "ExactScalar":
        o = other if type(other) is ExactScalar else ExactScalar.of(other)
        if self.b is _Q0 and o.b is _Q0:
            return _rational(self.a - o.a)
        return _make(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: "ScalarLike") -> "ExactScalar":
        return ExactScalar.of(other) - self

    def __mul__(self, other: "ScalarLike") -> "ExactScalar":
        o = other if type(other) is ExactScalar else ExactScalar.of(other)
        if self.b is _Q0 and o.b is _Q0:
            return _rational(self.a * o.a)
        # (a + b r)(c + d r) = ac + 2bd + (ad + bc) r   with r^2 = 2
        return _make(self.a * o.a + 2 * self.b * o.b,
                     self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        # 1/(a + b r) = (a - b r)/(a^2 - 2 b^2); the norm is nonzero for
        # nonzero elements because sqrt(2) is irrational.
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        if self.b is _Q0:
            return _rational(1 / self.a)
        n = self.a * self.a - 2 * self.b * self.b
        return _make(self.a / n, -self.b / n)

    def __truediv__(self, other: "ScalarLike") -> "ExactScalar":
        return self * ExactScalar.of(other).inverse()

    def __rtruediv__(self, other: "ScalarLike") -> "ExactScalar":
        return ExactScalar.of(other) * self.inverse()

    # --- comparisons ----------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactScalar(other, 0)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def sign(self) -> int:
        """Exact sign of a + b*sqrt2 as a real number: -1, 0 or +1."""
        a, b = self.a, self.b
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Mixed signs: compare |a| against |b|*sqrt2 via squares.
        a2, twob2 = a * a, 2 * b * b
        if a > 0:  # b < 0: positive iff a^2 > 2 b^2
            return 1 if a2 > twob2 else (-1 if a2 < twob2 else 0)
        # a < 0, b > 0: positive iff 2 b^2 > a^2
        return 1 if twob2 > a2 else (-1 if twob2 < a2 else 0)

    def __lt__(self, other: "ScalarLike") -> bool:
        return (self - ExactScalar.of(other)).sign() < 0

    def __le__(self, other: "ScalarLike") -> bool:
        return (self - ExactScalar.of(other)).sign() <= 0

    def __gt__(self, other: "ScalarLike") -> bool:
        return (self - ExactScalar.of(other)).sign() > 0

    def __ge__(self, other: "ScalarLike") -> bool:
        return (self - ExactScalar.of(other)).sign() >= 0

    # --- printing -------------------------------------------------------
    def to_expr(self) -> str:
        """Render as an expression the package grammar parses back."""
        if self.is_zero():
            return "0"
        parts = []
        if self.a != 0:
            parts.append(_frac_str(self.a))
        if self.b != 0:
            if self.b == 1:
                t = "sqrt2"
            elif self.b == -1:
                t = "-sqrt2"
            else:
                t = f"{_frac_str(self.b)}*sqrt2"
            if parts and not t.startswith("-"):
                parts.append("+" + t)
            else:
                parts.append(t)
        return "".join(parts) if len(parts) == 1 else parts[0] + parts[1]

    def __repr__(self) -> str:
        return f"ExactScalar({self.to_expr()})"


_set_a = ExactScalar.a.__set__
_set_b = ExactScalar.b.__set__
_new = object.__new__


def _rational(a: Fraction) -> ExactScalar:
    """The scalar a + 0*sqrt2, with the shared zero sqrt2 part."""
    s = _new(ExactScalar)
    _set_a(s, a)
    _set_b(s, _Q0)
    return s


def _make(a: Fraction, b: Fraction) -> ExactScalar:
    """The scalar a + b*sqrt2; a zero ``b`` becomes the shared zero."""
    s = _new(ExactScalar)
    _set_a(s, a)
    _set_b(s, b if b else _Q0)
    return s


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


ScalarLike = Union[ExactScalar, int, Fraction]

ZERO = ExactScalar.zero()
ONE = ExactScalar.one()
SQRT2 = ExactScalar.sqrt2()
HALF = ExactScalar(Fraction(1, 2))
