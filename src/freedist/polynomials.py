"""Sparse multivariate polynomials over Q(sqrt2) on a rank-l chart.

The chart for rank ``l`` carries coordinates ``x1..xl`` followed by the
pair coordinates ``y[j,k]`` for ``j < k`` in lexicographic order.  A
polynomial stores only nonzero terms, keyed by exponent tuples over the
chart's coordinate order; equality is structural.  Monomials are ordered
lexicographically in that coordinate order.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

from .scalars import ExactScalar, ScalarLike

Exponents = Tuple[int, ...]


class Chart:
    """Coordinate chart for a rank-l free distribution: x1..xl, y[j,k]."""

    __slots__ = ("l", "coords", "_index")

    def __init__(self, l: int):
        if l < 2:
            raise ValueError("chart requires l >= 2")
        self.l = l
        coords = [("x", i) for i in range(1, l + 1)]
        coords += [("y", (j, k)) for j in range(1, l + 1)
                   for k in range(j + 1, l + 1)]
        self.coords = tuple(coords)
        self._index = {c: i for i, c in enumerate(self.coords)}

    @property
    def ncoords(self) -> int:
        return len(self.coords)

    def x_index(self, i: int) -> int:
        if not 1 <= i <= self.l:
            raise KeyError(f"x{i} out of range for l={self.l}")
        return i - 1

    def y_index(self, j: int, k: int) -> int:
        if not (1 <= j < k <= self.l):
            raise KeyError(f"y[{j},{k}] out of range for l={self.l}")
        return self._index[("y", (j, k))]

    def name(self, idx: int) -> str:
        kind, v = self.coords[idx]
        return f"x{v}" if kind == "x" else f"y[{v[0]},{v[1]}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Chart) and other.l == self.l

    def __hash__(self) -> int:
        return hash(("Chart", self.l))

    def __repr__(self) -> str:
        return f"Chart(l={self.l})"


@lru_cache(maxsize=None)
def chart(l: int) -> Chart:
    return Chart(l)


def accumulate(dst: Dict[Hashable, Any], pairs: Iterable[Tuple[Hashable, Any]],
               c: Optional[Any] = None) -> None:
    """dst[k] += c * v (v when c is None) for each (k, v) of pairs, in
    order, dropping a key whose sum cancels; a later pair on that key puts
    it back at the end.  One routine for every sparse sum in the package,
    over ints, scalars and polynomials alike."""
    for k, v in pairs:
        if c is not None:
            v = c * v
        old = dst.get(k)
        if old is not None:
            v = old + v
        if v:
            dst[k] = v
        elif old is not None:
            del dst[k]


def add_product(out: Dict[Exponents, ExactScalar],
                p: Dict[Exponents, ExactScalar],
                q: Dict[Exponents, ExactScalar]) -> None:
    """Add the product of two term dicts into ``out``.  Sums that cancel
    stay as zero coefficients, for the Polynomial constructor to drop."""
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            s = out.get(e)
            out[e] = c if s is None else s + c


def _nonzero(chart_: Chart, terms: Dict[Exponents, ExactScalar]
             ) -> "Polynomial":
    """The Polynomial of terms that hold no zero coefficient, unfiltered."""
    p = object.__new__(Polynomial)
    p.chart, p.terms = chart_, terms
    return p


def _check_same_chart(p: "Polynomial", q: "Polynomial") -> None:
    if p.chart != q.chart:
        raise ValueError(
            f"mismatched charts: l={p.chart.l} vs l={q.chart.l}")


class Polynomial:
    """Sparse polynomial: dict from exponent tuple to nonzero ExactScalar."""

    __slots__ = ("chart", "terms")
    __hash__ = None  # mutable-ish container semantics; structural equality

    def __init__(self, chart_: Chart, terms: Dict[Exponents, ExactScalar]):
        self.chart = chart_
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    # --- constructors -------------------------------------------------
    @staticmethod
    def zero(chart_: Chart) -> "Polynomial":
        return Polynomial(chart_, {})

    @staticmethod
    def const(chart_: Chart, value: ScalarLike) -> "Polynomial":
        v = ExactScalar.of(value)
        zeros = (0,) * chart_.ncoords
        return Polynomial(chart_, {zeros: v})

    @staticmethod
    def coordinate(chart_: Chart, idx: int) -> "Polynomial":
        e = [0] * chart_.ncoords
        e[idx] = 1
        return Polynomial(chart_, {tuple(e): ExactScalar.one()})

    # --- predicates -----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        zeros = (0,) * self.chart.ncoords
        return all(e == zeros for e in self.terms)

    def constant_value(self) -> ExactScalar:
        """The scalar value, provided the polynomial is constant."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        zeros = (0,) * self.chart.ncoords
        return self.terms.get(zeros, ExactScalar.zero())

    # --- ring operations -------------------------------------------------
    # A scalar operand is the constant polynomial of its value.
    def __add__(self, other: "Polynomial | ScalarLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.chart, other)
        _check_same_chart(self, other)
        out = dict(self.terms)
        accumulate(out, other.terms.items())
        return _nonzero(self.chart, out)

    def __radd__(self, other: ScalarLike) -> "Polynomial":
        return Polynomial.const(self.chart, other) + self

    def __neg__(self) -> "Polynomial":
        return _nonzero(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial | ScalarLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self if other == 1 else self.scale(other)
        _check_same_chart(self, other)
        out: Dict[Exponents, ExactScalar] = {}
        add_product(out, self.terms, other.terms)
        return Polynomial(self.chart, out)

    __rmul__ = __mul__

    def scale(self, s: ScalarLike) -> "Polynomial":
        v = ExactScalar.of(s)
        if v.is_zero():
            return Polynomial.zero(self.chart)
        return _nonzero(self.chart, {e: c * v for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out = Polynomial.const(self.chart, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    # --- calculus ---------------------------------------------------------
    def partial_derivative(self, idx: int) -> "Polynomial":
        # distinct exponents stay distinct, and k * c is nonzero for k > 0
        return _nonzero(self.chart, {
            e[:idx] + (k - 1,) + e[idx + 1:]: c * k
            for e, c in self.terms.items() if (k := e[idx])})

    # --- printing -----------------------------------------------------------
    def sorted_terms(self) -> Iterable[Tuple[Exponents, ExactScalar]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def to_expr(self) -> str:
        """Render in the package expression grammar; parses back equal."""
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            mono = [
                self.chart.name(i) + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k > 0
            ]
            if not mono:
                pieces.append(c.to_expr())
                continue
            if c == ExactScalar.one():
                pieces.append("*".join(mono))
            elif c == -ExactScalar.one():
                pieces.append("-" + "*".join(mono))
            else:
                cs = c.to_expr()
                if "+" in cs[1:] or "-" in cs[1:]:
                    cs = "(" + cs + ")"
                pieces.append("*".join([cs] + mono))
        out = pieces[0]
        for p in pieces[1:]:
            out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.to_expr()})"
