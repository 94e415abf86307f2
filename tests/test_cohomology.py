"""Harmonic cochain spaces: guards, verification, and small exact values."""

import pytest

from freedist.algebra import ODD, Chain, algebra, codifferential, differential
from freedist.cohomology import (HarmonicSpace, _term_keys, harmonic_h1_scan,
                                 harmonic_space, harmonic_system)
from freedist.errors import UnsupportedError
from freedist.scalars import ExactScalar


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
