"""Graded algebra realizations, chains, and the operators built on them."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedist.algebra import (ALGEBRA_CHECKS, EVEN, ODD, Chain, GradedAlgebra,
                              algebra, algebra_battery, annihilator_subspace,
                              codifferential, commutator_operator,
                              commutator_operator_closed_form, differential,
                              kappa11_normality_test, phi_extension)
from freedist.scalars import ExactScalar

L = 3
GA = algebra(L)
ONE = ExactScalar.one()


def unit2(l, s1, s2, tgt, v=1):
    return Chain.make(ODD, l, 2, [((s1, s2), tgt, ExactScalar.of(v))])


def pairs_of(l):
    return [(j, k) for j in range(1, l + 1) for k in range(j + 1, l + 1)]


def test_algebra_is_cached():
    assert algebra(3) is algebra(3)


def test_basis_sizes():
    # odd realization: dimension l(2l+1); even: (l+1)(2l+1)
    for l in (3, 4):
        ga = algebra(l)
        assert len(ga.odd_keys) == l * (2 * l + 1)
        assert len(ga.even_keys) == (l + 1) * (2 * l + 1)
        assert ga.odd_size == 2 * l + 1
        assert ga.even_size == 2 * l + 2


def test_grades_partition_basis():
    for key in GA.odd_keys:
        g = GradedAlgebra.grade(key)
        assert g in (-2, -1, 0, 1, 2)
        kind = key[0]
        assert g == {"lo2": -2, "lo1": -1, "zero": 0, "up1": 1,
                     "up2": 2}[kind]


def test_bracket_respects_grading():
    for k1 in GA.odd_keys:
        for k2 in GA.odd_keys:
            img = GA.bracket_coeffs(ODD, {k1: ONE}, {k2: ONE})
            g = GradedAlgebra.grade(k1) + GradedAlgebra.grade(k2)
            for k3, v in img.items():
                assert v
                assert GradedAlgebra.grade(k3) == g


def test_bracket_antisymmetry_and_jacobi_sampled():
    rng = random.Random(7)
    keys = GA.odd_keys
    for _ in range(40):
        a, b, c = (dict([(keys[rng.randrange(len(keys))], ONE)])
                   for _ in range(3))
        ab = GA.bracket_coeffs(ODD, a, b)
        ba = GA.bracket_coeffs(ODD, b, a)
        assert ab == {k: -v for k, v in ba.items()}
        jac = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for k, v in GA.bracket_coeffs(ODD, x,
                                          GA.bracket_coeffs(ODD, y,
                                                            z)).items():
                w = jac.get(k, ExactScalar.zero()) + v
                if w:
                    jac[k] = w
                elif k in jac:
                    del jac[k]
        assert jac == {}


def test_pairing_nondegenerate_on_basis():
    for k in GA.odd_keys:
        if k[0] == "zero":
            d = ("zero", (k[1][1], k[1][0]))
        else:
            d = GA.dual_slot(k)
        assert GA.pairing_int(ODD, k, d) != 0
        assert GradedAlgebra.grade(k) + GradedAlgebra.grade(d) == 0
        # and orthogonal to everything of non-complementary grade
        for k2 in GA.odd_keys:
            if GradedAlgebra.grade(k) + GradedAlgebra.grade(k2) != 0:
                assert GA.pairing_int(ODD, k, k2) == 0


def test_pairing_invariance_sampled():
    # B([x,y],z) = B(x,[y,z]) on the trace form of the defining realization
    rng = random.Random(11)
    keys = GA.odd_keys

    def tp(m1, m2):
        return sum(v1 * m2.get((c1, r1), 0)
                   for (r1, c1), v1 in m1.items())

    def mat_of(coeffs):
        acc = {}
        for k, v in coeffs.items():
            for pos, n in GA.mat(ODD, k).items():
                acc[pos] = acc.get(pos, 0) + (v.a if hasattr(v, "a")
                                              else v) * n
        return acc

    for _ in range(30):
        x, y, z = (keys[rng.randrange(len(keys))] for _ in range(3))
        xy = GA.bracket_coeffs(ODD, {x: ONE}, {y: ONE})
        yz = GA.bracket_coeffs(ODD, {y: ONE}, {z: ONE})
        lhs = sum((v * ExactScalar.of(tp(GA.mat(ODD, k), GA.mat(ODD, z)))
                   for k, v in xy.items()), ExactScalar.zero())
        rhs = sum((v * ExactScalar.of(tp(GA.mat(ODD, x), GA.mat(ODD, k)))
                   for k, v in yz.items()), ExactScalar.zero())
        assert lhs == rhs


def test_embedding_is_a_bracket_homomorphism_sampled():
    rng = random.Random(13)
    keys = GA.odd_keys
    for _ in range(40):
        k1 = keys[rng.randrange(len(keys))]
        k2 = keys[rng.randrange(len(keys))]
        br = GA.bracket_coeffs(ODD, {k1: ONE}, {k2: ONE})
        lhs = GA.embed_coeffs(br)
        rhs = GA.bracket_coeffs(EVEN, GA.embed_coeffs({k1: ONE}),
                                GA.embed_coeffs({k2: ONE}))
        assert lhs == rhs


def test_chain_make_canonicalizes():
    p = (1, 2)
    a = Chain.make(ODD, L, 2, [((("up1", 1), ("up2", p)), ("lo1", 2), ONE)])
    b = Chain.make(ODD, L, 2, [((("up2", p), ("up1", 1)), ("lo1", 2), ONE)])
    assert a.terms == {k: -v for k, v in b.terms.items()}
    # repeated slots vanish
    c = Chain.make(ODD, L, 2, [((("up1", 1), ("up1", 1)), ("lo1", 2), ONE)])
    assert c.is_zero()
    # zero coefficients are pruned
    d = Chain.make(ODD, L, 2, [((("up1", 1), ("up2", p)), ("lo1", 2),
                                ExactScalar.zero())])
    assert d.is_zero() and d.terms == {}


def test_chain_arithmetic_and_homogeneity():
    p = (1, 2)
    tk = ((("up1", 1), ("up2", p)), ("lo2", (1, 3)))
    c = Chain(ODD, L, 2, {tk: ONE})
    assert (c + c.scale(ExactScalar.of(-1))).is_zero()
    assert (c - c).is_zero()
    assert c.homogeneous_part(1) == c
    assert c.homogeneous_part(2).is_zero()
    assert c.homogeneity(tk) == 1 + 2 - 2
    tk2 = ((("up1", 1), ("up1", 2)), ("zero", (1, 2)))
    assert c.homogeneity(tk2) == 2


def test_codifferential_rejects_degree_zero():
    c = Chain(ODD, L, 0, {((), ("lo1", 1)): ONE})
    with pytest.raises(ValueError):
        codifferential(c)


def test_differential_rejects_bad_inputs():
    p = (1, 2)
    tk3 = ((("up1", 1), ("up1", 2), ("up2", p)), ("lo1", 1))
    c3 = Chain(ODD, L, 3, {tk3: ONE})
    with pytest.raises(ValueError):
        differential(c3)


def test_boundary_squares_to_zero_sampled():
    rng = random.Random(17)
    pos = [("up1", i) for i in range(1, L + 1)] + \
        [("up2", p) for p in pairs_of(L)]
    for _ in range(40):
        s1, s2 = rng.sample(pos, 2)
        tgt = GA.odd_keys[rng.randrange(len(GA.odd_keys))]
        c = unit2(L, s1, s2, tgt)
        if c.is_zero():
            continue
        d1 = codifferential(c)
        assert codifferential(d1).is_zero() if d1.k >= 1 else True
        assert differential(differential(
            Chain(ODD, L, 1, {((s1,), tgt): ONE}))).is_zero()


def dense_differential(c):
    """The differential evaluated argument by argument: d(omega) on every
    pair (k = 1) or triple (k = 2) of negative keys, read back through the
    dual slots.  The reference the term-driven differential must
    reproduce."""
    ga = algebra(c.l)
    omega = {}   # omega at every ordering of its arguments, with its sign
    for (slots, target), coeff in c.terms.items():
        args = [ga.dual_slot(s) for s in slots]
        for perm in permutations(range(c.k)):
            sign = (-1) ** sum(1 for i in range(c.k)
                               for j in range(i + 1, c.k)
                               if perm[i] > perm[j])
            bucket = omega.setdefault(tuple(args[p] for p in perm), {})
            bucket[target] = bucket.get(target, ExactScalar.zero()) \
                + coeff * sign

    def add(acc, elem, sign, bracket_with=None):
        for t, v in elem.items():
            image = (((t, 1),) if bracket_with is None
                     else ga.bracket_table(ODD, bracket_with, t))
            for r, n in image:
                acc[r] = acc.get(r, ExactScalar.zero()) + v * (sign * n)

    items = []
    for args in combinations(ga.negative_keys, c.k + 1):
        val = {}
        for i, x in enumerate(args):
            add(val, omega.get(args[:i] + args[i + 1:], {}), (-1) ** i, x)
        for i in range(len(args)):
            for j in range(i + 1, len(args)):
                rest = args[:i] + args[i + 1:j] + args[j + 1:]
                for u, n in ga.bracket_table(ODD, args[i], args[j]):
                    add(val, omega.get((u,) + rest, {}), (-1) ** (i + j) * n)
        slots = tuple(ga.dual_slot(x) for x in args)
        items.extend((slots, t, v) for t, v in val.items() if v)
    return Chain.make(ODD, c.l, c.k + 1, items)


def unit_chains(l, k):
    ga = algebra(l)
    return [Chain(ODD, l, k, {(slots, t): ONE})
            for slots in combinations(ga.positive_keys, k)
            for t in ga.odd_keys]


@pytest.mark.parametrize("l,k", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_differential_matches_dense_oracle_on_units(l, k):
    for unit in unit_chains(l, k):
        assert differential(unit) == dense_differential(unit)


@st.composite
def sparse_chains(draw):
    l = draw(st.sampled_from([3, 4]))
    k = draw(st.sampled_from([1, 2]))
    units = unit_chains(l, k)
    picks = draw(st.lists(st.integers(0, len(units) - 1), min_size=1,
                          max_size=6))
    terms = {}
    for n in picks:
        (key, _), = units[n].terms.items()
        c = ExactScalar(draw(st.fractions(-3, 3, max_denominator=3)),
                        draw(st.integers(-3, 3)))
        terms[key] = c or ONE
    return Chain(ODD, l, k, terms)


@given(sparse_chains())
@settings(deadline=None, max_examples=60)
def test_differential_matches_dense_oracle_on_sparse_chains(c):
    assert differential(c) == dense_differential(c)


def test_differential_linearity_on_units():
    p = (1, 2)
    a = unit2(L, ("up1", 1), ("up2", p), ("lo1", 2))
    b = unit2(L, ("up1", 2), ("up2", p), ("lo2", (1, 3)))
    assert differential(a + b) == differential(a) + differential(b)
    two = ExactScalar.of(2)
    assert differential(a.scale(two)) == differential(a).scale(two)


def test_phi_extension_lands_on_even_side():
    p = (1, 2)
    c = unit2(L, ("up1", 1), ("up2", p), ("lo1", 2))
    e = phi_extension(c)
    assert e.side == EVEN
    assert e.k == c.k
    assert not e.is_zero()


def test_operator_matches_closed_form_sampled():
    rng = random.Random(19)
    pos = [("up1", i) for i in range(1, L + 1)] + \
        [("up2", p) for p in pairs_of(L)]
    for _ in range(60):
        s1, s2 = rng.sample(pos, 2)
        tgt = GA.odd_keys[rng.randrange(len(GA.odd_keys))]
        c = unit2(L, s1, s2, tgt, rng.choice([1, -1, 2, 3]))
        if c.is_zero():
            continue
        assert commutator_operator(c) == commutator_operator_closed_form(c)


def test_operator_kills_pair_pair_block():
    ps = pairs_of(L)
    for i, p in enumerate(ps):
        for q in ps[i + 1:]:
            for tgt in GA.odd_keys:
                c = unit2(L, ("up2", p), ("up2", q), tgt)
                assert commutator_operator(c).is_zero()


def test_normality_test_on_simple_chains():
    assert kappa11_normality_test(Chain(ODD, L, 2, {}))
    # a pure single-single chain is never annihilated
    c = unit2(L, ("up1", 1), ("up1", 2), ("lo2", (1, 2)))
    assert not kappa11_normality_test(c)


def test_annihilator_subspace_defining_property():
    for i in (1, 2):
        basis = annihilator_subspace(L, i)
        assert basis
        for coeffs in basis:
            img = GA.bracket_coeffs(EVEN, GA.defect_up(i),
                                    GA.embed_coeffs(coeffs))
            assert img == {}


def test_positive_part_lies_in_every_annihilator():
    for i in range(1, L + 1):
        for key in GA.positive_keys:
            img = GA.bracket_coeffs(EVEN, GA.defect_up(i),
                                    GA.embed_coeffs({key: ONE}))
            assert img == {}


def test_battery_names_and_results():
    names = [name for name, _ in ALGEBRA_CHECKS]
    assert "killing-pairing-values" in names
    assert "alpha-homomorphism" in names
    assert "phi-duality" in names
    assert "delta-relations" in names
    assert "operator-closed-forms" in names
    results = algebra_battery(3)
    assert [n for n, _ in results] == names
    assert all(ok for _, ok in results)
