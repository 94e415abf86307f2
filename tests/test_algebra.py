"""Graded algebra realizations, chains, and the operators built on them."""

import importlib
import random
from functools import partial
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedist.algebra import (ALGEBRA_CHECKS, EVEN, ODD, AlgebraElement,
                              Chain, GradedAlgebra, algebra, algebra_battery,
                              basis, bracket, codifferential,
                              commutator_operator,
                              commutator_operator_closed_form, differential,
                              embed_alpha, kappa11_normality_test,
                              phi_extension)
from conftest import (coordinate, oracle_closed_form,
                      oracle_codifferential_term, oracle_differential,
                      oracle_operator_closed_forms, oracle_phi_extension,
                      oracle_squares_vanish)
from freedist.polynomials import Polynomial, chart
from freedist.scalars import ExactScalar

# the module itself: ``freedist.algebra`` as an attribute is the function
algebra_module = importlib.import_module("freedist.algebra")

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
        assert len(ga.sides[EVEN].keys) == (l + 1) * (2 * l + 1)
        # the basis matrices are square of sizes 2l+1 and 2l+2, every
        # row and column index in use
        for side, size in ((ODD, 2 * l + 1), (EVEN, 2 * l + 2)):
            mats = ga.sides[side].mats
            assert {i for m in mats.values() for pos in m for i in pos} \
                == set(range(size))


def readoffs(ga, side):
    """Each basis key's read-off position, in basis order."""
    return {key: pos for pos, (_, key) in ga.sides[side].index.items()}


def dense_tables(ga, side):
    """Bracket and pairing tables by the full scan: every ordered basis
    pair, each commutator expanded by reading every read-off position in
    basis order and reconstructed exactly.  The reference the
    support-meeting build must equal, order included."""
    record = ga.sides[side]
    readoff = readoffs(ga, side)
    table, pairings = {}, {}
    for k1 in record.keys:
        m1 = record.mats[k1]
        for k2 in record.keys:
            m2 = record.mats[k2]
            comm = algebra_module._mat_commutator(m1, m2)
            coeffs = {k: comm[pos] for k, pos in readoff.items()
                      if comm.get(pos)}
            recon = {}
            for k, c in coeffs.items():
                for pos, v in record.mats[k].items():
                    recon[pos] = recon.get(pos, 0) + c * v
            assert {p: v for p, v in recon.items() if v} == comm
            if coeffs:
                table[(k1, k2)] = tuple(coeffs.items())
            tr = sum(v * m2.get((c, r), 0) for (r, c), v in m1.items())
            if tr:
                assert tr % 2 == 0
                pairings[(k1, k2)] = -tr // 2
    return table, pairings


@pytest.mark.parametrize("l", [2, 3, 4, 5])
@pytest.mark.parametrize("side", [ODD, EVEN])
def test_tables_match_full_scan(l, side):
    ga = GradedAlgebra(l)
    table, pairings = dense_tables(ga, side)
    assert list(ga.sides[side].table.items()) == list(table.items())
    assert list(ga.sides[side].pairing.items()) == list(pairings.items())


def test_even_tables_are_built_on_first_even_use(monkeypatch):
    """A new algebra holds the ODD tables only; the first EVEN read builds
    both EVEN tables and runs their dual-pairing check, which refuses a
    doubled trace form (every pairing 2, not 1)."""
    ga = GradedAlgebra(3)
    assert list(ga.sides) == [ODD]
    assert ga.pairing_int(EVEN, ("tlo", (0, 1)), ("tup", (0, 1))) == 1
    assert list(ga.sides) == [ODD, EVEN]
    ga = GradedAlgebra(3)
    trace = algebra_module._mat_trace_product
    monkeypatch.setattr(algebra_module, "_mat_trace_product",
                        lambda a, b: 2 * trace(a, b))
    with pytest.raises(AssertionError, match=r"^GradedAlgebra: pairing of "
                       r"\('tlo', \(0, 1\)\) with \('tup', \(0, 1\)\) is "
                       r"not 1$"):
        ga.bracket_table(EVEN, ("tlo", (0, 1)), ("tup", (0, 1)))
    assert list(ga.sides) == [ODD]


def test_an_unknown_side_is_refused():
    ga = GradedAlgebra(3)
    for call in (lambda: basis("both", 3),
                 lambda: ga.bracket_table("both", ("up1", 1), ("lo1", 1)),
                 lambda: Chain.make("both", 3, 1, [])):
        with pytest.raises(ValueError, match="^algebra must be 'odd' or "
                           "'even'$"):
            call()
    assert list(ga.sides) == [ODD]


def test_expand_refuses_a_read_off_entry_without_its_partner():
    key = ("lo1", 1)
    pos = readoffs(GA, ODD)[key]
    assert len(GA.sides[ODD].mats[key]) == 2
    assert GA.expand(ODD, GA.sides[ODD].mats[key]) == {key: 1}
    assert GA.expand(ODD, {pos: 1}) is None


def test_expand_refuses_an_entry_at_no_read_off_position():
    pos = (L, L)   # the centre of the odd form, on the diagonal
    assert pos not in GA.sides[ODD].index
    assert GA.expand(ODD, {pos: 1}) is None
    # also beside entries that do lie in the algebra
    assert GA.expand(ODD, {**GA.sides[ODD].mats[("lo1", 2)], pos: 3}) is None


def test_expand_gives_basis_order_for_every_coefficient_type():
    """One expansion serves int, scalar and polynomial matrices alike,
    its coefficients in basis order whatever the order of the entries."""
    keys = [("up2", (1, 2)), ("lo1", 3), ("zero", (2, 1))]
    ch = chart(L)
    x1 = coordinate(ch, 0)
    for coeffs in ({k: n for k, n in zip(keys, (2, -1, 3))},
                   {k: ExactScalar(n, 1) for k, n in zip(keys, (1, 2, 3))},
                   {k: x1.scale(n) for k, n in zip(keys, (1, 2, 3))}):
        m = {}
        for key, c in coeffs.items():
            for pos, n in GA.sides[ODD].mats[key].items():
                m[pos] = c * n
        m = dict(reversed(list(m.items())))
        got = GA.expand(ODD, m)
        assert got == coeffs
        assert list(got) == sorted(coeffs, key=GA.odd_keys.index)


def test_coefficients_refuses_a_matrix_outside_the_algebra():
    pos = (L, L)
    element = AlgebraElement(ODD, L, {pos: ExactScalar.one()})
    with pytest.raises(ValueError, match="does not lie in the algebra"):
        element.coefficients()


def test_element_operations_match_the_tables():
    """bracket, sums and embed_alpha on matrix elements agree with the
    bracket table and the coefficient-level embedding."""
    elements = dict(basis(ODD, L))
    for k1, x in elements.items():
        for k2, y in elements.items():
            assert bracket(x, y).coefficients() == dict(
                GA.bracket_table(ODD, k1, k2))
    x = elements[("lo1", 1)] + elements[("up1", 2)].scale(ExactScalar(2))
    y = elements[("zero", (1, 2))] - elements[("lo1", 1)]
    assert (x + y).coefficients() == {("zero", (1, 2)): 1, ("up1", 2): 2}
    assert (x - x).is_zero()
    assert embed_alpha(bracket(x, y)) == bracket(embed_alpha(x),
                                                 embed_alpha(y))
    assert embed_alpha(x).coefficients() == GA.embed_coeffs(x.coefficients())


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
    keys, mats = GA.odd_keys, GA.sides[ODD].mats

    def tp(m1, m2):
        return sum(v1 * m2.get((c1, r1), 0)
                   for (r1, c1), v1 in m1.items())

    def mat_of(coeffs):
        acc = {}
        for k, v in coeffs.items():
            for pos, n in mats[k].items():
                acc[pos] = acc.get(pos, 0) + (v.a if hasattr(v, "a")
                                              else v) * n
        return acc

    for _ in range(30):
        x, y, z = (keys[rng.randrange(len(keys))] for _ in range(3))
        xy = GA.bracket_coeffs(ODD, {x: ONE}, {y: ONE})
        yz = GA.bracket_coeffs(ODD, {y: ONE}, {z: ONE})
        lhs = sum((v * ExactScalar.of(tp(mats[k], mats[z]))
                   for k, v in xy.items()), ExactScalar.zero())
        rhs = sum((v * ExactScalar.of(tp(mats[x], mats[k]))
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
    even = Chain(EVEN, L, 1, {((GA.sides[EVEN].slot_keys[0],),
                               ("tzero", (0, 0))): ONE})
    with pytest.raises(ValueError):
        differential(even)


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


@st.composite
def polynomial_2_chains(draw):
    """Sparse odd 2-chains at l = 4, 5 whose coefficients are polynomials
    of up to three monomials, each a product of at most two coordinates."""
    l = draw(st.sampled_from([4, 5]))
    ga, ch = algebra(l), chart(l)
    items = []
    for _ in range(draw(st.integers(1, 5))):
        slots = draw(st.lists(st.sampled_from(ga.positive_keys), min_size=2,
                              max_size=2, unique=True))
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = [0] * ch.ncoords
            for i in draw(st.lists(st.integers(0, ch.ncoords - 1),
                                   max_size=2)):
                exps[i] += 1
            terms[tuple(exps)] = ExactScalar(
                draw(st.fractions(-3, 3, max_denominator=3)),
                draw(st.integers(-2, 2))) or ONE
        items.append((slots, draw(st.sampled_from(ga.odd_keys)),
                      Polynomial(ch, terms)))
    return Chain.make(ODD, l, 2, items)


@given(polynomial_2_chains())
@settings(deadline=None, max_examples=60)
def test_differential_of_polynomial_chain_is_monomialwise(c):
    """The differential of a polynomial chain is the sum, over monomials,
    of the differential of that monomial's constant slice times it."""
    ch = chart(c.l)
    slices = {}
    for key, poly in c.terms.items():
        for e, v in poly.terms.items():
            slices.setdefault(e, {})[key] = v
    want = Chain.zero(ODD, c.l, 3)
    for e, terms in slices.items():
        image = differential(Chain(ODD, c.l, 2, terms))
        want = want + Chain(ODD, c.l, 3,
                            {key: Polynomial(ch, {e: v})
                             for key, v in image.terms.items()})
    assert differential(c) == want


def oracle_codifferential(c):
    """The codifferential as one item list canonicalized afterwards (slots
    sorted by rank with the permutation's sign, repeated slots dropped,
    accumulated with pop on cancel): the reference the per-term integer
    kernel must reproduce, term order included."""
    ga = algebra(c.l)
    items = []
    for (slots, target), coeff in c.terms.items():
        for i, z in enumerate(slots):
            rest = slots[:i] + slots[i + 1:]
            for tkey, n in ga.bracket_table(c.side, z, target):
                items.append((rest, tkey, coeff, (-1) ** (i + 1) * n))
        for i, j in combinations(range(len(slots)), 2):
            rest = tuple(s for m, s in enumerate(slots) if m not in (i, j))
            for bkey, n in ga.bracket_table(c.side, slots[i], slots[j]):
                items.append(((bkey,) + rest, target, coeff,
                              (-1) ** (i + j) * n))
    terms = {}
    for slots, target, coeff, n in items:
        ranks = [ga.sides[c.side].ranks[s] for s in slots]
        if len(set(ranks)) != len(ranks):
            continue
        order = sorted(range(len(ranks)), key=ranks.__getitem__)
        sign = (-1) ** sum(1 for a, b in combinations(order, 2) if a > b)
        key = (tuple(slots[m] for m in order), target)
        v = coeff.scale(sign * n) if isinstance(coeff, Polynomial) \
            else coeff * (sign * n)
        old = terms.get(key)
        v = v if old is None else old + v
        if v:
            terms[key] = v
        else:
            terms.pop(key, None)
    return Chain(c.side, c.l, c.k - 1, terms)


def all_units(l, side, k):
    ga = algebra(l)
    record = ga.sides[side]
    return [Chain(side, l, k, {(slots, t): ONE})
            for slots in combinations(record.slot_keys, k)
            for t in record.keys]


@pytest.mark.parametrize("l", [3, 4])
@pytest.mark.parametrize("side", [ODD, EVEN])
def test_codifferential_matches_oracle_on_units(l, side):
    for k in (1, 2, 3):
        for unit in all_units(l, side, k):
            got, want = codifferential(unit), oracle_codifferential(unit)
            assert got == want
            assert list(got.terms) == list(want.terms)


@st.composite
def coefficient_chains(draw):
    """Sparse chains on either side, degree 1..3, with sqrt2 coefficients
    or (all of them) polynomial coefficients."""
    l = draw(st.sampled_from([3, 4]))
    side = draw(st.sampled_from([ODD, EVEN]))
    k = draw(st.integers(1, 3))
    units = all_units(l, side, k)
    ch = chart(l)
    polynomial = draw(st.booleans())
    terms = {}
    for n in draw(st.lists(st.integers(0, len(units) - 1), min_size=1,
                           max_size=8)):
        (key, _), = units[n].terms.items()
        c = ExactScalar(draw(st.fractions(-3, 3, max_denominator=3)),
                        draw(st.integers(-2, 2))) or ONE
        if polynomial:
            x = coordinate(ch, draw(st.integers(0, 2)))
            c = Polynomial.const(ch, c) + x.scale(draw(st.integers(-2, 2)))
        terms[key] = c
    return Chain(side, l, k, terms)


@given(coefficient_chains())
@settings(deadline=None, max_examples=80)
def test_codifferential_matches_oracle_on_chains(c):
    got, want = codifferential(c), oracle_codifferential(c)
    assert got == want
    assert list(got.terms) == list(want.terms)


def as_polynomial(c, l):
    return c if isinstance(c, Polynomial) else Polynomial.const(chart(l), c)


def promoted_sum(l, items):
    """The term-by-term sum of (key, coefficient) items, every coefficient
    taken as a polynomial."""
    out = {}
    for key, c in items:
        c = as_polynomial(c, l)
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


@st.composite
def mixed_chain_pairs(draw):
    """Two chains of one shape over the same few unit keys, each term's
    coefficient a sqrt2 scalar or a polynomial, so the kinds meet."""
    l = draw(st.sampled_from([3, 4]))
    side = draw(st.sampled_from([ODD, EVEN]))
    k = draw(st.integers(1, 3))
    units = all_units(l, side, k)[:6]
    ch = chart(l)
    chains = []
    for _ in range(2):
        terms = {}
        for n in draw(st.lists(st.integers(0, len(units) - 1), min_size=1,
                               max_size=4)):
            (key, _), = units[n].terms.items()
            c = ExactScalar(draw(st.integers(-2, 2)),
                            draw(st.integers(-1, 1))) or ONE
            if draw(st.booleans()):
                c = Polynomial.const(ch, c) + coordinate(
                    ch, draw(st.integers(0, 2))).scale(
                        draw(st.integers(-1, 1)))
            terms[key] = c
        chains.append(Chain(side, l, k, terms))
    return chains


@given(mixed_chain_pairs())
@settings(deadline=None, max_examples=60)
def test_mixed_coefficient_chains(pair):
    a, b = pair
    l = a.l
    items = list(a.terms.items()) + list(b.terms.items())
    total = a + b
    assert promoted_sum(l, total.terms.items()) == promoted_sum(l, items)
    made = Chain.make(a.side, l, a.k,
                      [(slots, t, c) for (slots, t), c in items])
    assert made == total
    for c in (a, b, total):
        image = [term for key, coeff in c.terms.items()
                 for term in codifferential(
                     Chain(c.side, l, c.k, {key: coeff})).terms.items()]
        assert promoted_sum(l, codifferential(c).terms.items()) == \
            promoted_sum(l, image)


def test_mixed_coefficients_meeting_on_one_key():
    slots, target = (("up1", 1),), ("lo1", 1)
    two = Polynomial.const(chart(3), 2)
    a = Chain.make(ODD, 3, 1, [(slots, target, ExactScalar.of(1))])
    b = Chain.make(ODD, 3, 1, [(slots, target, two)])
    three = {(slots, target): Polynomial.const(chart(3), 3)}
    assert (a + b).terms == three and (b + a).terms == three
    assert Chain.make(ODD, 3, 1, [(slots, target, ExactScalar.of(1)),
                                  (slots, target, two)]).terms == three


def test_codifferential_term_order_after_a_cancellation():
    """A chain whose first two terms cancel on a key that the third term
    brings back: the key moves to where the third term puts it."""
    units = all_units(3, ODD, 2)
    hits = {}
    for n, unit in enumerate(units):
        for key, v in codifferential(unit).terms.items():
            hits.setdefault(key, []).append((n, v))
    found = 0
    for (a, va), (b, vb), (c, vc) in (h[:3] for h in hits.values()
                                      if len(h) >= 3):
        chain = Chain(ODD, 3, 2, {
            next(iter(units[a].terms)): va.inverse(),
            next(iter(units[b].terms)): -vb.inverse(),
            next(iter(units[c].terms)): vc.inverse()})
        got, want = codifferential(chain), oracle_codifferential(chain)
        assert got == want
        assert list(got.terms) == list(want.terms)
        first_seen = [key for n in (a, b, c)
                      for key in codifferential(units[n]).terms]
        found += list(want.terms) != [key for key in dict.fromkeys(
            first_seen) if key in want.terms]
    assert found


def flip_table_entry(ga, side, pair, n=0):
    """Negate the n-th coefficient of one bracket-table entry."""
    entry = list(ga.sides[side].table[pair])
    key, c = entry[n]
    entry[n] = (key, -c)
    ga.sides[side].table[pair] = tuple(entry)


@pytest.mark.parametrize("side", [ODD, EVEN])
def test_codifferential_squares_check_catches_a_flipped_table_entry(side):
    """The check's target half is the bracket table: one entry [z, t] with
    z a slot key, negated on a private instance after the plans are built."""
    ga = GradedAlgebra(3)   # a private instance: the flip must not leak
    check = algebra_module._check_codifferential_squares
    assert check(ga)
    record = ga.sides[side]
    flip_table_entry(ga, side, next(pair for pair in record.table
                                    if pair[0] in record.slot_keys))
    assert not check(ga)


@pytest.mark.parametrize("l", [3, 4])
def test_squares_checks_agree_with_the_per_unit_oracle_under_flips(l):
    """Seeded single sign flips of a cached plan entry (_CD on both sides,
    _D) or of a bracket-table entry: the ad-word check and the per-unit
    composition give the same verdict, and some flips are caught."""
    rng = random.Random(l)
    ga = GradedAlgebra(l)
    squares = algebra_module._squares_vanish
    caught = 0
    for kind, side, k in ((algebra_module._CD, ODD, 3),
                          (algebra_module._CD, EVEN, 3),
                          (algebra_module._D, ODD, 1)):
        assert squares(ga, kind, side, k)
        assert oracle_squares_vanish(ga, kind, side, k)
        halves = [part for record in ga.sides[side].plans.values()
                  if record[kind] is not None
                  for part in record[kind] if part]
        table = ga.sides[side].table
        pairs = list(table)
        for _ in range(10):
            if rng.random() < 0.5:
                part = rng.choice(halves)
                n = rng.randrange(len(part))
                *entry, c = part[n]
                part[n] = (*entry, -c)
                flip = partial(part.__setitem__, n, (*entry, c))
            else:
                pair = rng.choice(pairs)
                entry = table[pair]
                flip_table_entry(ga, side, pair, rng.randrange(len(entry)))
                flip = partial(table.__setitem__, pair, entry)
            verdict = squares(ga, kind, side, k)
            assert verdict == oracle_squares_vanish(ga, kind, side, k)
            caught += not verdict
            flip()
        assert squares(ga, kind, side, k)
    assert caught


def flip_first_entry(ga, kind, side, slots):
    """Negate the sign of the first entry of one cached kernel half."""
    record = ga.sides[side].plans[slots]
    if kind == algebra_module._PHI:
        eslots, sign = record[kind]
        record[kind] = (eslots, -sign)
        return
    head = next(part for part in record[kind] if part)
    *entry, n = head[0]
    head[0] = (*entry, -n)


@pytest.mark.parametrize("side", [ODD, EVEN])
def test_codifferential_squares_check_catches_a_flipped_plan_sign(side):
    ga = GradedAlgebra(3)   # a private instance: the flip must not leak
    check = algebra_module._check_codifferential_squares
    assert check(ga)
    two = next(slots for slots in ga.sides[side].plans if len(slots) == 2)
    flip_first_entry(ga, algebra_module._CD, side, two)
    assert not check(ga)


def test_differential_squares_check_catches_a_flipped_plan_sign():
    ga = GradedAlgebra(3)
    check = algebra_module._check_differential_squares
    assert check(ga)
    two = next(slots for slots in ga.sides[ODD].plans if len(slots) == 2)
    flip_first_entry(ga, algebra_module._D, ODD, two)
    assert not check(ga)


@pytest.mark.parametrize("kind,side,k", [("_PHI", ODD, 1), ("_PHI", ODD, 2),
                                         ("_CD", ODD, 2), ("_CD", EVEN, 2)])
def test_operator_closed_forms_check_catches_a_flipped_plan_sign(kind, side,
                                                                 k):
    """A sign flipped in any kernel half the check reads: the transfer of
    either degree, or the codifferential on either side."""
    ga = GradedAlgebra(3)
    check = algebra_module._check_operator_closed_forms
    assert check(ga)
    slots = next(s for s, record in ga.sides[side].plans.items()
                 if len(s) == k and record[getattr(algebra_module, kind)])
    flip_first_entry(ga, getattr(algebra_module, kind), side, slots)
    assert not check(ga)


@pytest.mark.parametrize("l", [3, 4])
def test_operator_check_agrees_with_the_per_unit_oracle_under_flips(l):
    """Seeded single sign flips of a bracket-table entry on either side, of
    a cached _CD plan entry on either side or of a cached transfer sign:
    the ad-word check and the per-unit oracle give the same verdict, and
    some flips are caught."""
    rng = random.Random(l)
    ga = GradedAlgebra(l)
    check = algebra_module._check_operator_closed_forms
    assert check(ga)   # builds the plans the check and the oracle read
    assert oracle_operator_closed_forms(ga)
    cd, phi = algebra_module._CD, algebra_module._PHI
    halves = [part for side in (ODD, EVEN)
              for record in ga.sides[side].plans.values() if record[cd]
              for part in record[cd] if part]
    transfers = [record for record in ga.sides[ODD].plans.values()
                 if record[phi]]
    caught = 0
    for _ in range(30):
        roll = rng.random()
        if roll < 0.4:
            table = ga.sides[rng.choice((ODD, EVEN))].table
            pair = rng.choice(list(table))
            entry = table[pair]
            n = rng.randrange(len(entry))
            key, c = entry[n]
            table[pair] = entry[:n] + ((key, -c),) + entry[n + 1:]
            flip = partial(table.__setitem__, pair, entry)
        elif roll < 0.8:
            part = rng.choice(halves)
            n = rng.randrange(len(part))
            *entry, c = part[n]
            part[n] = (*entry, -c)
            flip = partial(part.__setitem__, n, (*entry, c))
        else:
            record = rng.choice(transfers)
            eslots, sign = record[phi]
            record[phi] = (eslots, -sign)
            flip = partial(record.__setitem__, phi, (eslots, sign))
        verdict = check(ga)
        assert verdict == oracle_operator_closed_forms(ga)
        caught += not verdict
        flip()
    assert check(ga)
    assert caught


@pytest.mark.parametrize("l", [3, 4, 5])
def test_unit_kernels_match_item_by_item_oracles(l):
    """On every unit term, on both sides where defined, the kernels built
    on cached slot halves give the oracles' values in the oracles' order."""
    ga = algebra(l)
    kernel = algebra_module._codifferential_term
    for side in (ODD, EVEN):
        for k in (1, 2, 3):
            for unit in all_units(l, side, k):
                (slots, t), = unit.terms
                assert kernel(ga, side, slots, t) == \
                    oracle_codifferential_term(ga, side, slots, t)
    for op, oracle, ks in (
            (differential, oracle_differential, (1, 2)),
            (phi_extension, oracle_phi_extension, (0, 1, 2, 3)),
            (commutator_operator_closed_form, oracle_closed_form, (2,))):
        for k in ks:
            for unit in all_units(l, ODD, k):
                got, want = op(unit), oracle(unit)
                assert got == want
                assert list(got.terms) == list(want.terms)


@given(sparse_chains())
@settings(deadline=None, max_examples=60)
def test_differential_matches_item_by_item_oracle_on_chains(c):
    got, want = differential(c), oracle_differential(c)
    assert got == want
    assert list(got.terms) == list(want.terms)


@given(coefficient_chains().filter(lambda c: c.side == ODD))
@settings(deadline=None, max_examples=60)
def test_transfer_and_closed_form_match_oracles_on_chains(c):
    """Scalar or polynomial coefficients for the transfer and, on the
    degree-2 chains, for the operator and its closed form."""
    got, want = phi_extension(c), oracle_phi_extension(c)
    assert got == want
    assert list(got.terms) == list(want.terms)
    if c.k == 2:
        got = commutator_operator_closed_form(c)
        assert got == oracle_closed_form(c) == commutator_operator(c)
        assert list(got.terms) == list(oracle_closed_form(c).terms)


def test_battery_plans_are_lazy_and_bounded_by_the_slot_tuples():
    """algebra(5) builds no plan; the battery keeps at most one record per
    slot tuple of degree <= 3 on each side (a guard on peak memory)."""
    ga = GradedAlgebra(5)   # the battery's checks on a fresh instance
    assert {side: r.plans for side, r in ga.sides.items()} == {ODD: {}}
    assert all(fn(ga) for _, fn in ALGEBRA_CHECKS)
    for side in (ODD, EVEN):
        record = ga.sides[side]
        assert 0 < len(record.plans) <= sum(comb(len(record.slot_keys), k)
                                            for k in range(4))
    assert algebra_battery(5) == [(name, True) for name, _ in ALGEBRA_CHECKS]
    for side in (ODD, EVEN):
        record = algebra(5).sides[side]
        assert len(record.plans) <= sum(comb(len(record.slot_keys), k)
                                        for k in range(4))


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
