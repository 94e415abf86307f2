"""Skew realizations of tangent vectors, Pfaffians, and the null cone."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_term, poly_det
from freedist.errors import UnsupportedError
from freedist.linalg import _determinant
from freedist.polynomials import Polynomial, chart
from freedist.scalars import ExactScalar
from freedist.spinorial import (SkewMatrix, list_inclusions,
                                null_cone_member, pfaffian,
                                pfaffian_quadratic_form,
                                quadratic_form_signature, skew_to_tangent,
                                tangent_to_skew)

CH = chart(3)


def sc(v):
    return ExactScalar.of(v)


def random_skew(n, rng):
    rows = [[ExactScalar.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = ExactScalar(Fraction(rng.randint(-6, 6),
                                     rng.randint(1, 3)),
                            Fraction(rng.randint(-2, 2)))
            rows[i][j] = v
            rows[j][i] = -v
    return SkewMatrix(rows)


def exact_det(m):
    rows = [[Polynomial.const(CH, m.entry(i, j)) for j in range(m.size)]
            for i in range(m.size)]
    return constant_term(poly_det(rows))


def test_skew_matrix_validation():
    with pytest.raises(ValueError):
        SkewMatrix([[sc(1), sc(0)], [sc(0), sc(0)]])  # nonzero diagonal
    with pytest.raises(ValueError):
        SkewMatrix([[sc(0), sc(1)], [sc(1), sc(0)]])  # not antisymmetric
    with pytest.raises(ValueError):
        SkewMatrix([[sc(0), sc(1)]])  # not square


@st.composite
def tangent_vectors(draw):
    """A rank and a sparse tangent vector over single and pair keys, with
    sqrt2 parts and zero values among the coefficients."""
    l = draw(st.sampled_from([3, 4, 5, 7]))
    keys = list(range(1, l + 1)) + [(j, k) for j in range(1, l + 1)
                                    for k in range(j + 1, l + 1)]
    v = draw(st.dictionaries(
        st.sampled_from(keys),
        st.builds(ExactScalar, st.fractions(-4, 4, max_denominator=3),
                  st.integers(-2, 2)), max_size=8))
    return l, v


@given(tangent_vectors())
@settings(deadline=None, max_examples=150)
def test_tangent_to_skew_is_skew_and_round_trips(lv):
    """tangent_to_skew builds its matrix skew without the re-check; the
    checked constructor accepts the same rows, and the map inverts."""
    l, v = lv
    m = tangent_to_skew(v, l)
    n = l + 1
    assert m.size == n
    assert all(m.entry(i, j) == -m.entry(j, i)
               for i in range(n) for j in range(n))
    assert SkewMatrix(m.entries) == m
    assert skew_to_tangent(m, l) == {k: c for k, c in v.items() if c}


def test_tangent_identification_basis_images():
    inv_root2 = ExactScalar.sqrt2().inverse()
    m = tangent_to_skew({1: sc(1)}, 3)
    assert m.size == 4
    assert m.entry(0, 1) == inv_root2
    assert m.entry(1, 0) == -inv_root2
    m2 = tangent_to_skew({(2, 3): sc(1)}, 3)
    assert m2.entry(2, 3) == sc(1)
    assert m2.entry(3, 2) == sc(-1)


def test_tangent_round_trip():
    rng = random.Random(23)
    for _ in range(10):
        v = {}
        for i in range(1, 4):
            c = rng.randint(-4, 4)
            if c:
                v[i] = sc(c)
        for p in ((1, 2), (1, 3), (2, 3)):
            c = rng.randint(-4, 4)
            if c:
                v[p] = sc(c)
        m = tangent_to_skew(v, 3)
        assert skew_to_tangent(m, 3) == v


def test_tangent_identification_is_linear():
    a = {1: sc(2), (1, 3): sc(-1)}
    b = {1: sc(1), 2: sc(3), (1, 3): sc(1)}
    total = {1: sc(3), 2: sc(3)}
    ma, mb = tangent_to_skew(a, 3), tangent_to_skew(b, 3)
    mt = tangent_to_skew(total, 3)
    for i in range(4):
        for j in range(4):
            assert mt.entry(i, j) == ma.entry(i, j) + mb.entry(i, j)


def test_pfaffian_base_cases():
    assert pfaffian(SkewMatrix([])) == sc(1)  # empty product convention
    m = SkewMatrix([[sc(0), sc(5)], [sc(-5), sc(0)]])
    assert pfaffian(m) == sc(5)


def test_pfaffian_four_by_four_formula():
    rng = random.Random(29)
    for _ in range(10):
        m = random_skew(4, rng)
        want = (m.entry(0, 1) * m.entry(2, 3)
                - m.entry(0, 2) * m.entry(1, 3)
                + m.entry(0, 3) * m.entry(1, 2))
        assert pfaffian(m) == want


def test_pfaffian_squares_to_determinant():
    rng = random.Random(31)
    for n in (4, 6):
        for _ in range(6):
            m = random_skew(n, rng)
            pf = pfaffian(m)
            assert pf * pf == exact_det(m)


def recursive_pfaffian(m):
    """Test oracle: the Pfaffian by plain recursive expansion along the
    first remaining row, in ExactScalar arithmetic, with no memo and no
    common denominator; each sub-Pfaffian is recomputed where met."""
    rows = m.entries

    def pf(idx):
        if not idx:
            return ExactScalar.one()
        first, rest = idx[0], idx[1:]
        total = ExactScalar.zero()
        for pos, c in enumerate(rest):
            v = rows[first][c]
            if v.is_zero():
                continue
            term = v * pf(rest[:pos] + rest[pos + 1:])
            total = total + (term if pos % 2 == 0 else -term)
        return total

    return pf(tuple(range(m.size)))


DENOMINATORS = (1, 2, 3, 5, 7, 10, 21, 35)


def seeded_skew(n, rng, density, zero_rows=0):
    """A skew n x n matrix whose upper entries are drawn with the given
    probability, with sqrt2 parts and mixed, coprime denominators;
    ``zero_rows`` indices drawn at random get an all-zero row and
    column."""
    empty = set(rng.sample(range(n), zero_rows))
    rows = [[ExactScalar.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if i in empty or j in empty or rng.random() >= density:
                continue
            v = ExactScalar(Fraction(rng.randint(-9, 9),
                                     rng.choice(DENOMINATORS)),
                            Fraction(rng.randint(-3, 3),
                                     rng.choice(DENOMINATORS)))
            rows[i][j], rows[j][i] = v, -v
    return SkewMatrix(rows)


def assert_matches_oracle(m):
    got, want = pfaffian(m), recursive_pfaffian(m)
    assert (got.p, got.q, got.d) == (want.p, want.q, want.d)
    assert got.to_expr() == want.to_expr()


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_pfaffian_matches_the_recursive_oracle(n):
    """Exact agreement, on the (p, q, d) triple and the printed form, with
    the plain recursive expansion: sparse and dense seeded matrices, some
    with zero rows, with sqrt2 parts and denominators 1..35."""
    rng = random.Random(100 + n)
    for density in (0.25, 0.6, 1.0):
        for zero_rows in (0, 0, 1, 2):
            if zero_rows <= n:
                assert_matches_oracle(seeded_skew(n, rng, density,
                                                  zero_rows))


@pytest.mark.parametrize("l", [1, 3, 5, 7, 9])
def test_pfaffian_of_tangent_vectors_matches_the_oracle(l):
    """Matrices from tangent_to_skew: the 1/sqrt2 weight of the first row
    meets pair entries with denominators 5 and 7."""
    rng = random.Random(200 + l)
    keys = list(range(1, l + 1)) + [(j, k) for j in range(1, l + 1)
                                    for k in range(j + 1, l + 1)]
    for size in (1, l, len(keys) // 2, len(keys)):
        v = {key: ExactScalar(Fraction(rng.randint(-6, 6),
                                       rng.choice((1, 5, 7))),
                              rng.randint(-2, 2))
             for key in rng.sample(keys, size)}
        assert_matches_oracle(tangent_to_skew(v, l))


def test_pfaffian_squares_to_the_pivot_determinant():
    """Pf(M)^2 = det M at n = 8, with the determinant read off the pivots
    of linalg's elimination."""
    rng = random.Random(43)
    for density in (0.3, 0.7, 1.0):
        for _ in range(3):
            m = seeded_skew(8, rng, density)
            pf = pfaffian(m)
            assert pf * pf == _determinant(m.entries)[0]


def test_pfaffian_rejects_odd_size():
    m = SkewMatrix([[sc(0), sc(1), sc(0)],
                    [sc(-1), sc(0), sc(0)],
                    [sc(0), sc(0), sc(0)]])
    with pytest.raises(UnsupportedError):
        pfaffian(m)


def test_reference_cone_value():
    # the mixed vector e_1 + e_[23] sits off the cone with value 1/sqrt2
    v = {1: sc(1), (2, 3): sc(1)}
    assert pfaffian(tangent_to_skew(v, 3)) == ExactScalar.sqrt2().inverse()
    assert not null_cone_member(v, 3)


def test_decomposables_lie_on_cone():
    rng = random.Random(37)
    for _ in range(15):
        a = [sc(rng.randint(-3, 3)) for _ in range(4)]
        b = [sc(rng.randint(-3, 3)) for _ in range(4)]
        rows = [[a[i] * b[j] - a[j] * b[i] for j in range(4)]
                for i in range(4)]
        v = skew_to_tangent(SkewMatrix(rows), 3)
        assert null_cone_member(v, 3)


def test_null_cone_even_rank_unsupported():
    with pytest.raises(UnsupportedError):
        null_cone_member({1: sc(1)}, 4)


def test_quadratic_form_and_signature():
    b = pfaffian_quadratic_form(3)
    assert len(b) == 6 and all(len(row) == 6 for row in b)
    for i in range(6):
        for j in range(6):
            assert b[i][j] == b[j][i]
    assert quadratic_form_signature(b) == (3, 3)


def test_quadratic_form_polarizes_the_pfaffian():
    b = pfaffian_quadratic_form(3)
    keys = [1, 2, 3, (1, 2), (1, 3), (2, 3)]
    rng = random.Random(41)
    for _ in range(10):
        coords = [sc(rng.randint(-3, 3)) for _ in range(6)]
        v = {k: c for k, c in zip(keys, coords) if not c.is_zero()}
        q = pfaffian(tangent_to_skew(v, 3))
        acc = ExactScalar.zero()
        for i in range(6):
            for j in range(6):
                acc = acc + coords[i] * b[i][j] * coords[j]
        assert acc == q * sc(2)


def test_quadratic_form_rank_guard():
    with pytest.raises(UnsupportedError):
        pfaffian_quadratic_form(4)


def test_inclusions_table():
    rows = list_inclusions()
    assert len(rows) == 3
    for row in rows:
        assert set(row.keys()) == {"inclusion", "groups", "model"}
    assert rows[1]["model"] == "Q5"
    assert "6" in rows[2]["model"] and "Bryant" in rows[2]["model"]
