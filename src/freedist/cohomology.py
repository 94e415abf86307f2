"""Harmonic cochain spaces of the constant-coefficient graded complex.

A cochain is harmonic when both the differential and the codifferential
annihilate it.  For each homogeneity the space is computed exactly: the
candidate unit cochains span a finite space, both operators' integer
kernels are composed on every unit (``algebra._apply``), and the joint
kernel is extracted by sparse elimination over the exact scalar field.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterable, List, Tuple

from .algebra import (Chain, GradedAlgebra, ODD, TermKey, _apply,
                      _codifferential_term, _differential_term, algebra,
                      codifferential, differential)
from .errors import UnsupportedError
from .linalg import _kernel
from .scalars import ExactScalar


# one shared (immutable) exact scalar per integer column or row coefficient
_int_scalar = lru_cache(maxsize=None)(ExactScalar.of)


class HarmonicSpace:
    """An exact basis of the harmonic k-cochains at one homogeneity."""

    def __init__(self, l: int, k: int, h: int, basis: Tuple[Chain, ...]):
        self.l = l
        self.k = k
        self.h = h
        self.basis = basis
        self.dimension = len(basis)


def _term_keys(ga: GradedAlgebra, k: int, h: int) -> List[TermKey]:
    """All degree-k term keys of the named homogeneity, in canonical order
    (slots strictly increasing in the positive-part rank order)."""
    return [(slots, target)
            for slots in combinations(ga.positive_keys, k)
            for target in ga.odd_keys
            if sum(map(GradedAlgebra.grade, slots + (target,))) == h]


def harmonic_system(l: int, k: int, h: int
                    ) -> Tuple[List[TermKey], List[Dict[object, ExactScalar]]]:
    """The unit term keys of degree k and homogeneity h, and for each the
    column of its differential and codifferential images, composed in ints
    (rows ("d", key) and ("cd", key)); harmonic cochains are its kernel."""
    ga = algebra(l)
    keys = _term_keys(ga, k, h)
    columns: List[Dict[object, ExactScalar]] = []
    for tk in keys:
        d = _apply(_differential_term, ga, ODD, [(tk, 1)])
        cd = _apply(_codifferential_term, ga, ODD, [(tk, 1)])
        col = {("d", key): _int_scalar(n) for key, n in d.items()}
        col.update({("cd", key): _int_scalar(n) for key, n in cd.items()})
        columns.append(col)
    return keys, columns


def harmonic_space(l: int, k: int, h: int) -> HarmonicSpace:
    """The harmonic k-cochains of homogeneity h (k = 1 or 2, l >= 3).

    Every returned basis chain is verified to be annihilated by both
    operators and to be homogeneous of the requested degree.
    """
    if l < 3:
        raise UnsupportedError("harmonic spaces require rank at least 3")
    if k not in (1, 2):
        raise UnsupportedError("harmonic spaces are computed for cochain "
                               "degrees 1 and 2 only")
    keys, columns = harmonic_system(l, k, h)
    basis: List[Chain] = []
    for vec in _kernel(columns):
        chain = Chain(ODD, l, k, {keys[j]: c for j, c in vec.items()})
        if not differential(chain).is_zero():
            raise AssertionError("harmonic basis chain is not closed")
        if not codifferential(chain).is_zero():
            raise AssertionError("harmonic basis chain is not coclosed")
        if any(chain.homogeneity(tk) != h for tk in chain.terms):
            raise AssertionError("harmonic basis chain is not homogeneous")
        basis.append(chain)
    return HarmonicSpace(l, k, h, tuple(basis))


def harmonic_h1_scan(l: int, h_range: Iterable[int]) -> Dict[int, int]:
    """Dimensions of the harmonic 1-cochain spaces over a homogeneity range."""
    return {h: harmonic_space(l, 1, h).dimension for h in h_range}
