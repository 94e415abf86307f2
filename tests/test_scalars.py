"""Field axioms and exact behavior of the quadratic scalar type."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedist.parsing import parse_scalar
from freedist.scalars import ExactScalar

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scalars = st.builds(ExactScalar, fracs, fracs)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())


def test_constants():
    assert ExactScalar.zero().is_zero()
    assert not ExactScalar.one().is_zero()
    assert ExactScalar.one().is_rational()
    assert not ExactScalar.sqrt2().is_rational()
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


rationals = fracs.map(ExactScalar.of)
# A rational scalar whose zero sqrt2 part is its own Fraction(0), not the
# shared one, so arithmetic on it takes the generic formula.
distinct_zero_rationals = fracs.map(lambda a: ExactScalar(a, Fraction(0)))
operands = st.one_of(rationals, distinct_zero_rationals, scalars)


@given(operands, operands)
@settings(deadline=None)
def test_rational_fast_path_matches_generic_formula(x, y):
    a, b, c, d = x.a, x.b, y.a, y.b
    for got, want in ((x + y, (a + c, b + d)),
                      (x - y, (a - c, b - d)),
                      (x * y, (a * c + 2 * b * d, a * d + b * c)),
                      (-x, (-a, -b))):
        assert (got.a, got.b) == want
        assert got == ExactScalar(*want)


@given(fracs, fracs)
@settings(deadline=None)
def test_rational_results_share_the_zero_sqrt2_part(a, c):
    shared = ExactScalar.zero().b
    x, y = ExactScalar.of(a), ExactScalar(c, Fraction(0))
    assert y.b is not shared
    for got in (x + x, x - x, x * x, -x, x + y, x * y):
        assert got.b is shared
    if a:
        assert x.inverse().b is shared


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
