"""Harmonic cochain spaces: guards, verification, and small exact values."""

from functools import lru_cache
from itertools import combinations, permutations, product
from math import prod

import pytest

import freedist.cohomology as cohomology
from conftest import harmonic_system, unsplit_harmonic_basis
from freedist.algebra import ODD, Chain, algebra, codifferential, differential
from freedist.cohomology import (HarmonicSpace, _column, _term_keys,
                                 harmonic_h1_scan, harmonic_space)
from freedist.errors import UnsupportedError
from freedist.linalg import _kernel
from freedist.scalars import ExactScalar

# (l, k, h) where the weight-orbit route is checked against the whole system
GRID = ([(3, 2, h) for h in range(0, 8)] + [(4, 2, h) for h in range(1, 5)]
        + [(5, 2, h) for h in range(1, 4)] + [(5, 1, h) for h in range(0, 4)])


def chain_route_harmonic_system(l, k, h):
    """Test oracle: the harmonic columns built through one scalar unit
    Chain per term key and the chain-level operators."""
    keys = _term_keys(algebra(l), k, h)
    columns = []
    for tk in keys:
        unit = Chain(ODD, l, k, {tk: ExactScalar.one()})
        col = {("d", key): v for key, v in differential(unit).terms.items()}
        col.update({("cd", key): v
                    for key, v in codifferential(unit).terms.items()})
        columns.append(col)
    return keys, columns


@pytest.mark.parametrize("l", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_integer_columns_match_chain_route(l, k):
    """Same term keys, and per column the same values in the same key
    order, as the scalar Chain route, at every homogeneity -3..6."""
    for h in range(-3, 7):
        keys, columns = harmonic_system(l, k, h)
        want_keys, want_columns = chain_route_harmonic_system(l, k, h)
        assert keys == want_keys
        assert [list(c.items()) for c in columns] \
            == [list(c.items()) for c in want_columns]
        assert all(type(v) is ExactScalar for c in columns for v in c.values())


def test_rank_guard():
    with pytest.raises(UnsupportedError):
        harmonic_space(2, 2, 1)


def test_degree_guard():
    with pytest.raises(UnsupportedError):
        harmonic_space(3, 3, 1)
    with pytest.raises(UnsupportedError):
        harmonic_space(3, 0, 1)


def test_basis_chains_are_harmonic_and_homogeneous():
    hs = harmonic_space(3, 2, 3)
    assert isinstance(hs, HarmonicSpace)
    assert hs.dimension > 0
    for c in hs.basis:
        assert c.side == ODD and c.k == 2 and c.l == 3
        assert codifferential(c).is_zero()
        assert differential(c).is_zero()
        assert c.homogeneous_part(hs.h) == c


def test_unreachable_homogeneity_is_empty():
    # no degree-2 term keys exist at homogeneity 7
    hs = harmonic_space(3, 2, 7)
    assert hs.dimension == 0
    assert hs.basis == ()


def test_rank3_degree2_profile():
    # rank 3 is exceptional: the invariant sits in homogeneity 3, not 1
    dims = {h: harmonic_space(3, 2, h).dimension for h in range(0, 5)}
    assert dims == {0: 0, 1: 0, 2: 0, 3: 27, 4: 0}


def test_rank3_degree1_vanishes_nonnegative():
    for h in range(0, 3):
        assert harmonic_space(3, 1, h).dimension == 0


def test_scan_matches_pointwise():
    scan = harmonic_h1_scan(3, range(-1, 3))
    assert scan == {h: harmonic_space(3, 1, h).dimension
                    for h in range(-1, 3)}


def test_rank3_invariant_block_support():
    # the rank-3 invariant pairs a grade-1 and a grade-2 slot with a
    # grade-0 value: mixed slots, zero-block targets only
    hs = harmonic_space(3, 2, 3)
    for c in hs.basis:
        for (slots, target) in c.terms:
            kinds = tuple(s[0] for s in slots)
            assert kinds == ("up1", "up2")
            assert target[0] == "zero"


def test_deterministic_rerun():
    a = harmonic_space(3, 2, 3)
    b = harmonic_space(3, 2, 3)
    assert len(a.basis) == len(b.basis)
    for c1, c2 in zip(a.basis, b.basis):
        assert c1.terms == c2.terms


def test_rank5_degree2_profile():
    # the figures the benchmark's algebra-cohomology workload checks
    dims = tuple(harmonic_space(5, 2, h).dimension for h in (1, 2, 3))
    assert dims == (280, 0, 0)


def signed_key_action(ga, sigma):
    """Per odd basis key, (image, s) with P M_key P^-1 = s M_image, for P
    the permutation matrix of i -> sigma[i] on the a_i and on the b_i (the
    centre fixed), read off by ``GradedAlgebra.expand``."""
    l = ga.l
    pos = {l: l}
    for i in range(1, l + 1):
        pos[i - 1], pos[l + i] = sigma[i] - 1, l + sigma[i]
    action = {}
    for key, m in ga.sides[ODD].mats.items():
        moved = ga.expand(ODD, {(pos[r], pos[c]): v
                                for (r, c), v in m.items()})
        assert moved is not None and len(moved) == 1
        (image, s), = moved.items()
        assert s in (1, -1)
        action[key] = image, s
    return action


def act(action, l, k, terms):
    """A degree-k term dict with every key moved by a signed key action,
    slots put back in order with their sign by ``Chain.make``."""
    items = []
    for (slots, target), c in terms.items():
        moved = [action[key] for key in slots + (target,)]
        items.append(([key for key, _ in moved[:-1]], moved[-1][0],
                      c * prod(s for _, s in moved)))
    return Chain.make(ODD, l, k, items).terms


@pytest.mark.parametrize("l", [3, 4, 5, 6])
def test_every_permutation_preserves_the_bracket_table(l):
    """The signed action of each sigma in S_l maps the odd bracket table
    onto itself: [sigma a, sigma b] = sigma [a, b]."""
    ga = algebra(l)
    table = ga.sides[ODD].table
    want = {pair: dict(values) for pair, values in table.items()}
    for perm in permutations(range(1, l + 1)):
        action = signed_key_action(ga, (0,) + perm)
        moved = {}
        for (a, b), values in table.items():
            (a2, sa), (b2, sb) = action[a], action[b]
            moved[a2, b2] = {action[c][0]: n * sa * sb * action[c][1]
                             for c, n in values}
        assert moved == want, perm


@pytest.mark.parametrize("l,k,h", GRID)
def test_harmonic_columns_are_equivariant(l, k, h):
    """The column of sigma.key is sigma applied to the column of key, for
    sigma the transposition (1 2) and the cycle (1 2 .. l), which generate
    S_l, so the signed action commutes with both operators; ``_moved``
    moves each unit term as the matrix action does."""
    ga = algebra(l)
    for sigma in ((0, 2, 1) + tuple(range(3, l + 1)),
                  (0,) + tuple(range(2, l + 1)) + (1,)):
        action = signed_key_action(ga, sigma)
        for tk in _term_keys(ga, k, h):
            (image, s), = act(action, l, k, {tk: 1}).items()
            assert Chain.make(ODD, l, k, [cohomology._moved(
                list(sigma), tk, 1)]).terms == {image: s}
            col = _column(ga, tk)
            want = {}
            for row, degree in (("d", k + 1), ("cd", k - 1)):
                part = {key: v for (r, key), v in col.items() if r == row}
                want.update(((row, key), v) for key, v in
                            act(action, l, degree, part).items())
            assert {rk: v * s for rk, v in _column(ga, image).items()} \
                == want


@pytest.mark.parametrize("l,k,h", GRID)
def test_basis_spans_the_unsplit_kernel(l, k, h):
    """Same dimension as the kernel of the whole system, and the two bases
    together have rank that dimension, so they span the same space."""
    old = unsplit_harmonic_basis(l, k, h)
    new = harmonic_space(l, k, h).basis
    assert len(new) == len(old)
    both = [c.terms for c in old + list(new)]
    assert len(both) - len(_kernel(both)) == len(old)


def test_only_representative_blocks_are_eliminated(monkeypatch):
    """At l=5, k=2, h=1..3 the elimination sees one weight block per S_l
    orbit (5, 5 and 7 orbit types), at most a tenth of the 3025 keys."""
    calls = []

    def counting_kernel(columns):
        calls.append(len(columns))
        return _kernel(columns)

    monkeypatch.setattr(cohomology, "_kernel", counting_kernel)
    dims = [harmonic_space(5, 2, h).dimension for h in (1, 2, 3)]
    keys = sum(len(_term_keys(algebra(5), 2, h)) for h in (1, 2, 3))
    assert dims == [280, 0, 0] and keys == 3025
    assert len(calls) == 5 + 5 + 7
    assert sum(calls) <= keys // 10


def test_weight_block_size_mismatch_raises(monkeypatch):
    """A weight block whose key count differs from its orbit
    representative's is refused (here: the last key left out)."""
    term_keys = cohomology._term_keys
    monkeypatch.setattr(cohomology, "_term_keys",
                        lambda ga, k, h: term_keys(ga, k, h)[:-1])
    with pytest.raises(AssertionError, match="differs in size"):
        harmonic_space(4, 2, 1)


@pytest.mark.parametrize("l", range(3, 9))
def test_term_keys_equal_the_grade_filter(l):
    """Taking each slot tuple's targets by grade gives the list that
    filtering every (slots, target) pair by homogeneity gives, in order."""
    ga = algebra(l)
    grade = ga.grade
    for k in (1, 2):
        for h in range(-4, 7):
            assert _term_keys(ga, k, h) == [
                (slots, target)
                for slots in combinations(ga.positive_keys, k)
                for target in ga.odd_keys
                if sum(map(grade, slots + (target,))) == h]


def weyl_dimension(weight):
    """The dimension of the gl(l) irreducible of the non-increasing highest
    weight: the product over i < j of (w_i - w_j + j - i) / (j - i)."""
    pairs = list(combinations(range(len(weight)), 2))
    return (prod(weight[i] - weight[j] + j - i for i, j in pairs)
            // prod(j - i for i, j in pairs))


def test_weyl_dimension_of_small_weights():
    """The standard, adjoint, symmetric and exterior modules, and the
    partition (2, 1) of gl(4) (20 by the hook content formula)."""
    assert [weyl_dimension(w) for w in ((1, 0, 0), (1, 0, -1), (3, 0, 0),
                                        (1, 1, 0, 0), (2, 1, 0, 0))] \
        == [3, 8, 10, 6, 20]


@pytest.mark.parametrize("l", range(3, 9))
def test_h1_is_the_weyl_module_of_its_highest_weight(l):
    """H^1 sits at homogeneity -1, as the gl(l) module of highest weight
    (1, 1, 0, ..., 0, -1)."""
    weight = (1, 1) + (0,) * (l - 3) + (-1,)
    assert harmonic_space(l, 1, -1).dimension == weyl_dimension(weight)


@pytest.mark.parametrize("l", range(4, 9))
def test_h2_is_the_weyl_module_of_its_highest_weight(l):
    """For l >= 4, H^2 sits at homogeneity 1, as the gl(l) module of
    highest weight (2, 1, 0, ..., 0, -1, -1)."""
    weight = (2, 1) + (0,) * (l - 4) + (-1, -1)
    assert harmonic_space(l, 2, 1).dimension == weyl_dimension(weight)


@pytest.mark.parametrize("l", [3, 4, 5])
def test_cohomology_vanishes_off_its_homogeneity(l):
    """Every other homogeneity is zero: h = -3..4 for H^1 and h = -3..6 for
    H^2; at l = 3, H^2 sits at homogeneity 3 instead, with dimension 27."""
    h2 = 3 if l == 3 else 1
    assert {h: harmonic_space(l, 1, h).dimension for h in range(-3, 5)
            if h != -1} == dict.fromkeys(set(range(-3, 5)) - {-1}, 0)
    assert {h: harmonic_space(l, 2, h).dimension for h in range(-3, 7)
            if h != h2} == dict.fromkeys(set(range(-3, 7)) - {h2}, 0)
    if l == 3:
        assert harmonic_space(3, 2, 3).dimension == 27


@lru_cache(maxsize=None)
def kostka(shape, content):
    """The number of semistandard tableaux of a partition shape with the
    given content: the boxes holding the largest entry form a horizontal
    strip, so strip them off every way (an inner partition interlacing the
    shape) and count the rest (Fulton & Harris 15.3)."""
    if not content:
        return int(not any(shape))
    below = shape[1:] + (0,)
    return sum(kostka(inner, content[:-1])
               for inner in product(*map(range, below,
                                         (s + 1 for s in shape)))
               if sum(shape) - sum(inner) == content[-1])


def test_kostka_numbers_of_small_shapes():
    """Tableaux listed by hand: the standard ones of (2, 1) and (2, 2),
    (3, 2) filled with 1 1 2 2 3 (rows 112/23 and 113/22), (2, 2) with
    1 1 2 3 (rows 11/23), and none of (2, 1) with 1 1 1."""
    assert kostka((2, 1, 0), (1, 1, 1)) == 2
    assert kostka((2, 2, 0, 0), (1, 1, 1, 1)) == 2
    assert kostka((3, 2, 0), (2, 2, 1)) == 2
    assert kostka((2, 2, 0), (2, 1, 1)) == 1
    assert kostka((2, 1), (3, 0)) == 0


def test_h2_weight_multiplicities_are_kostka_numbers():
    """On each dominant weight mu, the number of harmonic basis chains of
    weight mu in H^2 at l = 5 is the multiplicity of mu in the module of
    highest weight lambda = (2, 1, 0, -1, -1): the Kostka number
    K(lambda + 2, mu + 2), on every dominant mu of the same size."""
    lam = (2, 1, 0, -1, -1)
    counts = {}
    for chain in harmonic_space(5, 2, 1).basis:
        (w, _), = cohomology._weight_blocks(5, chain.terms).items()
        if list(w) == sorted(w, reverse=True):
            counts[w] = counts.get(w, 0) + 1
    shifted = tuple(x + 2 for x in lam)
    want = {}
    for nu in product(range(sum(shifted) + 1), repeat=5):
        if sum(nu) == sum(shifted) and list(nu) == sorted(nu, reverse=True):
            if k := kostka(shifted, nu):
                want[tuple(x - 2 for x in nu)] = k
    assert counts == want
    assert [want[mu] for mu in ((2, 0, 0, 0, -1), (1, 1, 1, -1, -1),
                                (1, 1, 0, 0, -1))] == [2, 2, 4]
