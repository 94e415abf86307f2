"""Ring axioms, calculus rules, and chart indexing for sparse polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly_value
from freedist.parsing import parse_expression
import random

from freedist.polynomials import Polynomial, accumulate, chart
from freedist.scalars import ExactScalar

CH = chart(3)  # 3 single + 3 pair coordinates


def test_chart_indexing():
    ch = chart(4)
    assert ch.l == 4
    assert ch.ncoords == 4 + 6
    xs = [ch.x_index(i) for i in range(1, 5)]
    ys = [ch.y_index(j, k) for j in range(1, 5) for k in range(j + 1, 5)]
    assert sorted(xs + ys) == list(range(ch.ncoords))
    assert chart(4) is ch  # cached


def test_chart_rejects_bad_indices():
    ch = chart(3)
    with pytest.raises(Exception):
        ch.x_index(0)
    with pytest.raises(Exception):
        ch.x_index(4)
    with pytest.raises(Exception):
        ch.y_index(2, 2)


fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
coeffs = st.builds(ExactScalar, fracs, fracs)


@st.composite
def polynomials(draw):
    nterms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(min_value=0, max_value=2))
                     for _ in range(CH.ncoords))
        c = draw(coeffs)
        if not c.is_zero():
            terms[exps] = c
    return Polynomial(CH, terms)


@given(polynomials(), polynomials(), polynomials())
@settings(deadline=None, max_examples=60)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == Polynomial.zero(CH)
    assert p * Polynomial.const(CH, ExactScalar.one()) == p


@given(polynomials(), polynomials(), st.integers(min_value=0, max_value=5))
@settings(deadline=None, max_examples=60)
def test_leibniz_rule(p, q, idx):
    dp = p.partial_derivative(idx)
    dq = q.partial_derivative(idx)
    assert (p * q).partial_derivative(idx) == dp * q + p * dq


@given(polynomials(), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=5))
@settings(deadline=None, max_examples=60)
def test_mixed_partials_commute(p, i, j):
    assert (p.partial_derivative(i).partial_derivative(j)
            == p.partial_derivative(j).partial_derivative(i))


@given(polynomials(), polynomials(), st.lists(
    st.builds(ExactScalar, fracs, fracs), min_size=6, max_size=6))
@settings(deadline=None, max_examples=60)
def test_evaluation_is_a_homomorphism(p, q, vals):
    point = {i: v for i, v in enumerate(vals)}
    pv, qv = poly_value(p, point), poly_value(q, point)
    assert poly_value(p * q, point) == pv * qv
    assert poly_value(p + q, point) == pv + qv


@given(polynomials())
@settings(deadline=None, max_examples=60)
def test_expression_round_trip(p):
    assert parse_expression(p.to_expr(), CH) == p


def test_coordinate_and_const():
    x1 = Polynomial.coordinate(CH, CH.x_index(1))
    y23 = Polynomial.coordinate(CH, CH.y_index(2, 3))
    two = Polynomial.const(CH, ExactScalar.of(2))
    prod = x1 * y23 * two
    assert not prod.is_zero()
    assert not prod.is_constant()
    pt = {i: ExactScalar.zero() for i in range(CH.ncoords)}
    pt[CH.x_index(1)] = ExactScalar.of(3)
    pt[CH.y_index(2, 3)] = ExactScalar.of(Fraction(1, 2))
    assert poly_value(prod, pt) == ExactScalar.of(3)
    assert two.is_constant() and two.constant_value() == ExactScalar.of(2)


def test_derivative_of_coordinate():
    x1 = Polynomial.coordinate(CH, CH.x_index(1))
    d = x1.partial_derivative(CH.x_index(1))
    assert d.is_constant() and d.constant_value() == ExactScalar.one()
    assert x1.partial_derivative(CH.x_index(2)).is_zero()


def test_scale_accepts_plain_rationals():
    x1 = Polynomial.coordinate(CH, CH.x_index(1))
    assert x1.scale(Fraction(1, 2)) + x1.scale(Fraction(1, 2)) == x1


def test_scalar_operands_are_constant_polynomials():
    x1 = Polynomial.coordinate(CH, CH.x_index(1))
    want = x1 + Polynomial.const(CH, 2)
    for two in (2, ExactScalar(2)):
        assert x1 + two == want and two + x1 == want
    one = Polynomial.const(CH, 1)
    assert (one + ExactScalar(-1)).is_zero()
    assert (ExactScalar(-1) + one).is_zero()
    assert x1 * 3 == x1.scale(3) == x1 + x1 + x1
    assert x1 * ExactScalar.sqrt2() == x1.scale(ExactScalar.sqrt2())
    assert (x1 * 0).is_zero()
    with pytest.raises(TypeError):
        x1 + "x"
    with pytest.raises(TypeError):
        x1 * "x"


def test_scalar_times_polynomial_is_scale_on_either_side():
    x1 = Polynomial.coordinate(CH, CH.x_index(1))
    p = x1 * x1 + Polynomial.const(CH, ExactScalar(Fraction(1, 3), 1))
    for c in (3, -2, Fraction(1, 2), ExactScalar(3),
              ExactScalar(Fraction(-1, 2), 1)):
        assert c * p == p * c == p.scale(c)
    assert 1 * p is p and ExactScalar.one() * p == p
    assert (0 * p).is_zero() and (ExactScalar.zero() * p).is_zero()
    with pytest.raises(TypeError):
        "x" * x1


def pruning_reference(dst, key, c):
    """The add-or-drop step each caller used to write out for itself."""
    s = dst.get(key, 0) + c
    if s:
        dst[key] = s
    elif key in dst:
        del dst[key]


def test_accumulate_drops_cancelled_keys_in_order():
    dst = {"a": 1}
    accumulate(dst, [("b", 2), ("a", -1), ("c", 3), ("a", 4), ("b", -2)])
    assert list(dst.items()) == [("c", 3), ("a", 4)]
    scaled = {"x": ExactScalar(1)}
    accumulate(scaled, [("y", 1), ("x", 1), ("z", 0)], ExactScalar(-1))
    assert list(scaled.items()) == [("y", -1)]
    rng = random.Random(3)
    for _ in range(200):
        pairs = [(rng.randrange(4), rng.randrange(-2, 3)) for _ in range(12)]
        c = rng.choice([None, 1, -2])
        want, got = {}, {}
        for k, v in pairs:
            pruning_reference(want, k, v if c is None else c * v)
        accumulate(got, pairs, c)
        assert list(got.items()) == list(want.items())


def test_accumulate_adds_a_scalar_to_a_polynomial_as_a_constant():
    for first, second in ((ExactScalar(1), Polynomial.const(CH, 2)),
                          (Polynomial.const(CH, 2), ExactScalar(1))):
        dst = {"k": first}
        accumulate(dst, [("k", second)])
        assert dst == {"k": Polynomial.const(CH, 3)}
    dst = {"k": Polynomial.const(CH, 2)}
    accumulate(dst, [("k", 1)], ExactScalar(-2))
    assert dst == {}


def test_sorted_terms_is_deterministic():
    p = (Polynomial.coordinate(CH, 0) * Polynomial.coordinate(CH, 3)
         + Polynomial.const(CH, ExactScalar.sqrt2()))
    assert p.sorted_terms() == p.sorted_terms()
    assert len(p.sorted_terms()) == 2
