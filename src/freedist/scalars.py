"""Exact arithmetic in the quadratic field Q(sqrt(2)).

Every scalar is ``(p + q*sqrt(2)) / d`` with integers ``p``, ``q``, ``d``,
kept canonical: ``d > 0`` and ``gcd(p, q, d) == 1``, so zero is
``(0, 0, 1)``.  Each result is reduced by one gcd (none when ``d == 1``),
and equality and hashing compare the triple.  ``a`` and ``b``, the rational
and sqrt2 parts, are derived as ``Fraction``s.  There is no floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

_RatLike = Union[int, Fraction]


def _ratio(v: _RatLike):
    """(numerator, denominator) of an int or Fraction."""
    if isinstance(v, int):
        return v, 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class ExactScalar:
    """An element (p + q*sqrt2)/d of Q(sqrt2), in canonical form."""

    __slots__ = ("p", "q", "d")

    def __init__(self, a: _RatLike = 0, b: _RatLike = 0):
        (an, ad), (bn, bd) = _ratio(a), _ratio(b)
        # parts in lowest terms make the triple over their lcm canonical
        d = lcm(ad, bd)
        _set_p(self, an * (d // ad))
        _set_q(self, bn * (d // bd))
        _set_d(self, d)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("ExactScalar is immutable")

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """The sqrt2 part."""
        return Fraction(self.q, self.d)

    # --- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "ExactScalar":
        return ZERO

    @staticmethod
    def one() -> "ExactScalar":
        return ONE

    @staticmethod
    def sqrt2() -> "ExactScalar":
        return SQRT2

    @staticmethod
    def of(v: "ScalarLike") -> "ExactScalar":
        if type(v) is ExactScalar:
            return v
        n, d = _ratio(v)
        return _reduced(n, 0, d)

    # --- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not (self.p or self.q)

    def __bool__(self) -> bool:
        return bool(self.p or self.q)

    # --- arithmetic ---------------------------------------------------
    def __add__(self, other: "ScalarLike") -> "ExactScalar":
        o = other
        if type(o) is not ExactScalar:
            if not isinstance(o, (int, Fraction)):
                return NotImplemented   # a polynomial adds it as a constant
            o = ExactScalar.of(o)
        d, od = self.d, o.d
        if d == od:
            return _reduced(self.p + o.p, self.q + o.q, d)
        return _reduced(self.p * od + o.p * d, self.q * od + o.q * d, d * od)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        s = _new(ExactScalar)   # canonical already: no gcd
        _set_p(s, -self.p)
        _set_q(s, -self.q)
        _set_d(s, self.d)
        return s

    def __sub__(self, other: "ScalarLike") -> "ExactScalar":
        o = other if type(other) is ExactScalar else ExactScalar.of(other)
        d, od = self.d, o.d
        if d == od:
            return _reduced(self.p - o.p, self.q - o.q, d)
        return _reduced(self.p * od - o.p * d, self.q * od - o.q * d, d * od)

    def __rsub__(self, other: "ScalarLike") -> "ExactScalar":
        return ExactScalar.of(other) - self

    def __mul__(self, other: "ScalarLike") -> "ExactScalar":
        o = other
        if type(o) is not ExactScalar:
            if not isinstance(o, (int, Fraction)):
                return NotImplemented   # a polynomial scales by it
            if o == 1:   # the commonest integer table entry
                return self
            o = ExactScalar.of(o)
        p, q, op, oq = self.p, self.q, o.p, o.q
        # (p + q r)(p' + q' r) = pp' + 2qq' + (pq' + qp') r   with r^2 = 2
        if q or oq:
            return _reduced(p * op + 2 * q * oq, p * oq + q * op, self.d * o.d)
        return _reduced(p * op, 0, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        # d/(p + q r) = d (p - q r)/(p^2 - 2 q^2); the norm is nonzero for
        # nonzero elements because sqrt(2) is irrational.
        p, q, d = self.p, self.q, self.d
        if not (p or q):
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        n = p * p - 2 * q * q
        return _reduced(d * p, -d * q, n) if n > 0 else \
            _reduced(-d * p, d * q, -n)

    def __truediv__(self, other: "ScalarLike") -> "ExactScalar":
        return self * ExactScalar.of(other).inverse()

    def __rtruediv__(self, other: "ScalarLike") -> "ExactScalar":
        return ExactScalar.of(other) * self.inverse()

    # --- comparisons ----------------------------------------------------
    def __eq__(self, other) -> bool:
        if type(other) is not ExactScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ExactScalar.of(other)
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.d))

    def sign(self) -> int:
        """Exact sign of (p + q*sqrt2)/d as a real number: -1, 0 or +1."""
        p, q = self.p, self.q   # d > 0 does not change the sign
        sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
        if sp == sq or not (sp and sq):
            return sp or sq
        # Mixed signs: p sets the sign iff p^2 > 2 q^2, and the two are
        # never equal because sqrt(2) is irrational.
        return sp if p * p > 2 * q * q else sq

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
        """Render as an expression the package grammar parses back, each
        part in lowest terms."""
        p, q, d = self.p, self.q, self.d
        if not q:
            return _ratio_str(p, d)
        t = ("sqrt2" if q == d else "-sqrt2" if q == -d
             else f"{_ratio_str(q, d)}*sqrt2")
        if not p:
            return t
        return _ratio_str(p, d) + ("" if t.startswith("-") else "+") + t

    def __repr__(self) -> str:
        return f"ExactScalar({self.to_expr()})"


_set_p = ExactScalar.p.__set__
_set_q = ExactScalar.q.__set__
_set_d = ExactScalar.d.__set__
_new = object.__new__


def _reduced(p: int, q: int, d: int) -> ExactScalar:
    """The scalar (p + q*sqrt2)/d for d > 0, reduced by one gcd."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
    s = _new(ExactScalar)
    _set_p(s, p)
    _set_q(s, q)
    _set_d(s, d)
    return s


def _ratio_str(n: int, d: int) -> str:
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


ScalarLike = Union[ExactScalar, int, Fraction]

ZERO = _reduced(0, 0, 1)
ONE = _reduced(1, 0, 1)
SQRT2 = _reduced(0, 1, 1)
HALF = _reduced(1, 0, 2)
