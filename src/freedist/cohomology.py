"""Harmonic cochain spaces of the constant-coefficient graded complex.

A cochain is harmonic when both the differential and the codifferential
annihilate it.  For each homogeneity the space is computed exactly: the
candidate unit cochains split into blocks by torus weight; on one block per
S_l orbit both operators' integer kernels are composed (``algebra._apply``)
and the joint kernel is extracted by sparse elimination over the exact
scalar field, then moved to the orbit's other blocks by permutations.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterable, List, Tuple

from .algebra import (BasisKey, Chain, GradedAlgebra, ODD, TermKey, _apply,
                      _codifferential_term, _differential_term, algebra,
                      codifferential, differential)
from .errors import UnsupportedError
from .linalg import _kernel
from .scalars import ExactScalar


# one shared (immutable) exact scalar per integer column or row coefficient
_int_scalar = lru_cache(maxsize=None)(ExactScalar.of)

# a key's torus weight in Z^l: these signs on its indices' unit vectors
_WEIGHT = {"up1": (1,), "lo1": (-1,), "up2": (1, 1), "lo2": (-1, -1),
           "zero": (-1, 1)}
_PAIRS = ("up2", "lo2", "zero")


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
    (slots strictly increasing in the positive-part rank order), each slot
    tuple taking only the odd targets of the grade that completes h."""
    targets: Dict[int, List[BasisKey]] = {}
    for target in ga.odd_keys:
        targets.setdefault(GradedAlgebra.grade(target), []).append(target)
    return [(slots, target)
            for slots in combinations(ga.positive_keys, k)
            for target in targets.get(
                h - sum(map(GradedAlgebra.grade, slots)), ())]


def _column(ga: GradedAlgebra, tk: TermKey) -> Dict[object, ExactScalar]:
    """A unit term's differential and codifferential images, composed in
    ints, as one column: rows ("d", key), then ("cd", key)."""
    d = _apply(_differential_term, ga, ODD, [(tk, 1)])
    cd = _apply(_codifferential_term, ga, ODD, [(tk, 1)])
    col = {("d", key): _int_scalar(n) for key, n in d.items()}
    col.update({("cd", key): _int_scalar(n) for key, n in cd.items()})
    return col


def _moved(sigma: List[int], tk: TermKey, c: ExactScalar):
    """c times a unit term under the index permutation i -> sigma[i], as a
    ``Chain.make`` item; a lo2 or up2 pair that sigma reverses takes -1."""
    keys = []
    for kind, idx in tk[0] + (tk[1],):
        if kind not in _PAIRS:
            idx = sigma[idx]
        elif kind == "zero" or sigma[idx[0]] < sigma[idx[1]]:
            idx = sigma[idx[0]], sigma[idx[1]]
        else:
            idx, c = (sigma[idx[1]], sigma[idx[0]]), -c
        keys.append((kind, idx))
    return keys[:-1], keys[-1], c


def _weight_blocks(l: int, keys: Iterable[TermKey]
                   ) -> Dict[Tuple[int, ...], List[int]]:
    """The positions of term keys grouped by torus weight, weights in order
    of first appearance.  Both operators preserve the weight (they are
    g_0-equivariant), so each group is a block of their matrices."""
    blocks: Dict[Tuple[int, ...], List[int]] = {}
    for n, tk in enumerate(keys):
        w = [0] * (l + 1)
        for kind, idx in tk[0] + (tk[1],):
            for i, s in zip(idx if kind in _PAIRS else (idx,), _WEIGHT[kind]):
                w[i] += s
        blocks.setdefault(tuple(w[1:]), []).append(n)
    return blocks


def harmonic_space(l: int, k: int, h: int) -> HarmonicSpace:
    """The harmonic k-cochains of homogeneity h (k = 1 or 2, l >= 3).

    Both operators commute with the torus and with index permutations, so
    the unit keys split into weight blocks (in order of first appearance)
    and only the block of each S_l orbit's sorted weight is eliminated; the
    other weights w of the orbit take its kernel moved by the sigma with
    sigma(rep) = w.  Every returned basis chain is verified to be
    annihilated by both operators and to be homogeneous of degree h.
    """
    if l < 3:
        raise UnsupportedError("harmonic spaces require rank at least 3")
    if k not in (1, 2):
        raise UnsupportedError("harmonic spaces are computed for cochain "
                               "degrees 1 and 2 only")
    ga = algebra(l)
    term_keys = _term_keys(ga, k, h)
    blocks = {w: [term_keys[n] for n in ns]
              for w, ns in _weight_blocks(l, term_keys).items()}
    kernels: Dict[Tuple[int, ...], List[Dict[int, ExactScalar]]] = {}
    basis: List[Chain] = []
    for w, keys in blocks.items():
        rep = tuple(sorted(w, reverse=True))
        rep_keys = blocks.get(rep, [])
        if len(keys) != len(rep_keys):
            raise AssertionError("weight block differs in size from its "
                                 "orbit representative")
        if rep not in kernels:
            kernels[rep] = _kernel([_column(ga, tk) for tk in rep_keys])
        # sigma[n]: the n-th index of w by non-increasing value, stable
        sigma = [0] + sorted(range(1, l + 1), key=lambda i: -w[i - 1])
        for vec in kernels[rep]:
            chain = Chain.make(ODD, l, k, [_moved(sigma, rep_keys[j], c)
                                           for j, c in vec.items()])
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
