"""Field axioms and exact behavior of the quadratic scalar type."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ReferenceScalar
from freedist.parsing import parse_scalar
from freedist.scalars import ExactScalar

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scalars = st.builds(ExactScalar, fracs, fracs)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())


def test_constants():
    assert ExactScalar.zero().is_zero()
    assert not ExactScalar.one().is_zero()
    assert ExactScalar.of(Fraction(3, 4)) == ExactScalar(Fraction(3, 4), 0)


def test_sqrt2_squares_to_two():
    r = ExactScalar.sqrt2()
    assert r * r == ExactScalar.of(2)
    assert r.inverse() * r == ExactScalar.one()
    assert r.inverse() == r / ExactScalar.of(2)


@given(scalars, scalars, scalars)
@settings(deadline=None)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ExactScalar.zero() == x
    assert x * ExactScalar.one() == x
    assert x - x == ExactScalar.zero()


@given(nonzero_scalars)
@settings(deadline=None)
def test_multiplicative_inverse(x):
    assert x * x.inverse() == ExactScalar.one()
    assert (ExactScalar.one() / x) == x.inverse()


@given(nonzero_scalars, nonzero_scalars)
@settings(deadline=None)
def test_division_cancels(x, y):
    assert (x * y) / y == x


def _canonical(x):
    """x is (p + q sqrt2)/d with d > 0 and gcd(p, q, d) == 1."""
    return (type(x) is ExactScalar and x.d > 0
            and gcd(x.p, x.q, x.d) == 1)


def _agree(x, ref):
    """x is canonical and equal to the oracle value ref, part by part."""
    return (_canonical(x) and (x.a, x.b) == (ref.a, ref.b)
            and x.to_expr() == ref.to_expr()
            and repr(x) == f"ExactScalar({ref.to_expr()})")


# Operands over the rationals, over Q(sqrt2), and with larger denominators
# that make the triple's gcd reduction do work.
wide_fracs = st.fractions(min_value=-10**6, max_value=10**6,
                          max_denominator=10**4)
operand_parts = st.one_of(st.tuples(fracs, st.just(Fraction(0))),
                          st.tuples(fracs, fracs),
                          st.tuples(wide_fracs, wide_fracs),
                          st.tuples(st.integers(-50, 50), st.integers(-5, 5)))


@given(operand_parts, operand_parts)
@settings(deadline=None, max_examples=300)
def test_triple_matches_fraction_oracle(xs, ys):
    x, y = ExactScalar(*xs), ExactScalar(*ys)
    rx, ry = ReferenceScalar(*xs), ReferenceScalar(*ys)
    assert _agree(x, rx) and _agree(y, ry)
    assert _agree(x + y, rx + ry)
    assert _agree(x - y, rx - ry)
    assert _agree(x * y, rx * ry)
    assert _agree(-x, -rx)
    assert x.sign() == rx.sign()
    d = (rx - ry).sign()
    assert (x < y, x <= y, x > y, x >= y) == (d < 0, d <= 0, d > 0, d >= 0)
    if ry.a or ry.b:
        assert _agree(y.inverse(), ry.inverse())
        assert _agree(x / y, rx / ry)
    # equal values have equal triples and hashes, however they were made
    z = (x * y + x) - x * y
    assert z == x and (z.p, z.q, z.d) == (x.p, x.q, x.d)
    assert hash(z) == hash(x)


@given(st.one_of(st.integers(-10**9, 10**9), wide_fracs), operand_parts)
@settings(deadline=None)
def test_equality_with_ints_and_fractions(v, xs):
    s = ExactScalar.of(v)
    assert _canonical(s) and s == v and v == s
    assert s == ExactScalar(v, 0) and hash(s) == hash(ExactScalar(v, 0))
    x = ExactScalar(*xs)
    assert (x == v) == (ReferenceScalar(*xs) == ReferenceScalar(v))


def test_constants_are_shared_and_canonical():
    assert ExactScalar.zero() is ExactScalar.zero()
    assert ExactScalar.one() is ExactScalar.one()
    assert ExactScalar.sqrt2() is ExactScalar.sqrt2()
    for c, triple in ((ExactScalar.zero(), (0, 0, 1)),
                      (ExactScalar.one(), (1, 0, 1)),
                      (ExactScalar.sqrt2(), (0, 1, 1))):
        assert (c.p, c.q, c.d) == triple
    x = ExactScalar(Fraction(3, 4), Fraction(-5, 6))
    assert (x.p, x.q, x.d) == (9, -10, 12)
    assert (x - x).p == (x - x).q == 0 and (x - x).d == 1


def test_adding_a_non_number_raises_type_error():
    with pytest.raises(TypeError):
        ExactScalar.one() + "x"
    with pytest.raises(TypeError):
        "x" + ExactScalar.one()
    assert ExactScalar.one().__add__("x") is NotImplemented


def test_multiplying_by_a_non_number_defers_to_the_other_operand():
    x = ExactScalar(Fraction(3, 4), 2)
    assert x.__mul__("x") is NotImplemented
    assert x.__mul__([1]) is NotImplemented
    with pytest.raises(TypeError):
        x * "x"
    with pytest.raises(TypeError):
        "x" * x
    # the hot paths keep their results: * 1 is the scalar itself
    assert x * 1 is x and 1 * x is x
    assert x * 2 == 2 * x == x + x
    assert x * Fraction(1, 2) == ExactScalar(Fraction(3, 8), 1)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ExactScalar.zero().inverse()


@given(scalars)
@settings(deadline=None)
def test_sign_trichotomy(x):
    s = x.sign()
    assert s in (-1, 0, 1)
    assert (s == 0) == x.is_zero()
    assert (-x).sign() == -s


@given(scalars, scalars)
@settings(deadline=None)
def test_sign_respects_order(x, y):
    if (x - y).sign() > 0 and not (y - x).is_zero():
        assert (y - x).sign() < 0


def test_sign_of_mixed_terms():
    # 3 - 2*sqrt2 > 0 but 3 - 2*sqrt2 - (1/5) has the same sign question
    assert ExactScalar(3, -2).sign() > 0          # 3 > 2*sqrt2
    assert ExactScalar(-7, 5).sign() > 0          # 5*sqrt2 > 7
    assert ExactScalar(7, -5).sign() < 0
    assert ExactScalar(0, 0).sign() == 0


@given(scalars)
@settings(deadline=None)
def test_expression_round_trip(x):
    assert parse_scalar(x.to_expr()) == x


@given(scalars, scalars)
@settings(deadline=None)
def test_hash_consistent_with_eq(x, y):
    if x == y:
        assert hash(x) == hash(y)


def test_truthiness_matches_is_zero():
    assert not ExactScalar.zero()
    assert ExactScalar(0, 1)
    assert ExactScalar(1, 0)
