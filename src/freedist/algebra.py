"""Graded orthogonal Lie algebras, chains, and the normality operators.

Two algebras per rank l:

* the "odd" algebra — matrices annihilating a symmetric form of odd size
  2l+1, carrying a 5-part grading (-2,-1,0,1,2);
* the "even" algebra — matrices annihilating a split form of even size
  2l+2, carrying a 3-part grading (-1,0,1).

All basis matrices are wedges v(Qw)^t - w(Qv)^t of standard vectors; the
bracket and pairing tables are read off the form by the wedge identities
(matrix commutators stay in ``bracket()``, the battery and the tests' dense
oracle).  One wedge rule (``_WEDGE_RULE``) builds both algebras, each into
one side record (``_Side``).  Basis keys name grade and indices:

  odd:  ('lo2',(i,j)) ('lo1',i) ('zero',(i,j)) ('up1',i) ('up2',(i,j))
  even: ('tlo',(r,s)) ('tzero',(r,s)) ('tup',(r,s))   (indices 0..l)

Pair keys always store i<j.  The trace pairing is normalized by -1/2 so
that ('up1',i) is exactly dual to ('lo1',i) and ('up2',p) to ('lo2',p).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .polynomials import Polynomial, accumulate
from .scalars import ExactScalar

BasisKey = Tuple[str, object]
IntMatrix = Dict[Tuple[int, int], int]
Coefficients = Dict[BasisKey, ExactScalar]

ODD = "odd"
EVEN = "even"

_HALF_ROOT2 = ExactScalar(0, Fraction(1, 2))   # 1/sqrt2
_ROOT2 = ExactScalar.sqrt2()
_NEG_HALF = ExactScalar(Fraction(-1, 2))

_GRADES = {"lo2": -2, "lo1": -1, "zero": 0, "up1": 1, "up2": 2,
           "tlo": -1, "tzero": 0, "tup": 1}


# --------------------------------------------------------------------------
# sparse integer matrices
# --------------------------------------------------------------------------

def _mat_commutator(a: Dict, b: Dict) -> Dict:
    """ab - ba for sparse matrices of ints or scalars, zeros dropped."""
    products = []
    for (r1, c1), v1 in a.items():
        for (r2, c2), v2 in b.items():
            if c1 == r2:
                products.append(((r1, c2), v1 * v2))
            if c2 == r1:
                products.append(((r2, c1), -(v2 * v1)))
    out: Dict = {}
    accumulate(out, products)
    return out


def _mat_trace_product(a: Dict, b: Dict):
    """trace(ab) for sparse matrices of ints or scalars."""
    return sum(v1 * b.get((c1, r1), 0) for (r1, c1), v1 in a.items())


def _wedge(p: int, q: int, qmap: Dict[int, int]) -> IntMatrix:
    """v(Qw)^t - w(Qv)^t for standard vectors e_p != e_q."""
    return {(p, qmap[q]): 1, (q, qmap[p]): -1}


# per side: the first index of its vector pairs a_i, b_i and its kinds in
# basis order
_SIDES = {ODD: (1, ("lo2", "lo1", "zero", "up1", "up2")),
          EVEN: (0, ("tlo", "tzero", "tup"))}

# the wedge rule: per kind, the indices it runs over ("pairs" i < j, "span"
# i or "square" (i, j)) and the standard vectors (p, q) of the basis matrix
# at index idx, from the vector positions a[i], b[i] and the centre c
_WEDGE_RULE = {
    "lo2": ("pairs", lambda a, b, c, idx: (a[idx[1]], a[idx[0]])),
    "lo1": ("span", lambda a, b, c, i: (a[i], c)),
    "zero": ("square", lambda a, b, c, idx: (a[idx[0]], b[idx[1]])),
    "up1": ("span", lambda a, b, c, i: (b[i], c)),
    "up2": ("pairs", lambda a, b, c, idx: (b[idx[1]], b[idx[0]])),
}
_WEDGE_RULE.update(tlo=_WEDGE_RULE["lo2"], tzero=_WEDGE_RULE["zero"],
                   tup=_WEDGE_RULE["up2"])

_DUALS = {"lo1": "up1", "lo2": "up2", "tlo": "tup",
          "up1": "lo1", "up2": "lo2", "tup": "tlo"}


class _Side:
    """One algebra of rank l, built from the wedge rule: basis keys and
    matrices, the read-off index (position -> (basis index, key)), the
    form map, the positive-part slot keys and their ranks, the bracket and
    pairing tables, and each slot tuple's cached kernel halves (plans)."""

    __slots__ = ("keys", "mats", "index", "qmap", "slot_keys", "ranks",
                 "table", "pairing", "plans")

    def __init__(self, l: int, side: str):
        first, kinds = _SIDES[side]
        span = range(first, l + 1)
        a = {i: i - first for i in span}
        b = {i: i - first + l + 1 for i in span}
        # the form pairs a_i with b_i, and the odd form's centre c = l with
        # itself (on the even side, l is a_l)
        qmap = self.qmap = {l: l}
        for i in span:
            qmap[a[i]], qmap[b[i]] = b[i], a[i]
        indices = {"pairs": list(combinations(span, 2)), "span": list(span),
                   "square": [(i, j) for i in span for j in span]}
        self.keys: List[BasisKey] = [
            (kind, idx) for kind in kinds
            for idx in indices[_WEDGE_RULE[kind][0]]]
        self.mats: Dict[BasisKey, IntMatrix] = {}
        self.index: Dict[Tuple[int, int], Tuple[int, BasisKey]] = {}
        vectors = [_WEDGE_RULE[k[0]][1](a, b, l, k[1]) for k in self.keys]
        for n, (key, (p, q)) in enumerate(zip(self.keys, vectors)):
            m = self.mats[key] = _wedge(p, q, qmap)
            pos = (p, qmap[q])
            if m.get(pos) != 1:
                raise AssertionError(f"GradedAlgebra: {side} basis matrix "
                                     f"{key} does not read 1 at {pos}")
            self.index[pos] = (n, key)
        self.slot_keys = [k for k in self.keys if _GRADES[k[0]] > 0]
        self.ranks = {k: n for n, k in enumerate(self.slot_keys)}
        self._build_tables(side, vectors)
        for up in self.slot_keys:
            lo = GradedAlgebra.dual_slot(up)
            if self.pairing.get((lo, up)) != 1:
                raise AssertionError(
                    f"GradedAlgebra: pairing of {lo} with {up} is not 1")
        # slot tuple -> its [_CD, _D, _PHI] kernel halves
        self.plans: Dict[tuple, list] = {}

    def _build_tables(self, side: str, vectors: List[Tuple[int, int]]
                      ) -> None:
        """Brackets and pairings of the basis wedges by the form B(u, v) =
        [v = q(u)]: [x^y, z^w] = B(y,z) x^w - B(y,w) x^z - B(x,z) y^w +
        B(x,w) y^z and -tr(x^y z^w)/2 = B(x,z)B(y,w) - B(y,z)B(x,w), both
        zero unless z^w holds q(x) or q(y); a wedge u^v is +key at the
        read-off position (u, q(v)) and -key at (v, q(u))."""
        keys, qmap, index = self.keys, self.qmap, self.index
        holders = {v: [n for n, pq in enumerate(vectors) if v in pq]
                   for v in qmap}
        self.table, self.pairing = {}, {}
        for k1, (x, y) in zip(keys, vectors):
            qx, qy = qmap[x], qmap[y]
            for n2 in sorted({*holders[qx], *holders[qy]}):
                k2, (z, w) = keys[n2], vectors[n2]
                terms = []
                for on, s, u, v in ((z == qy, 1, x, w), (w == qy, -1, x, z),
                                    (z == qx, -1, y, w), (w == qx, 1, y, z)):
                    if on and u != v:
                        if (u, qmap[v]) not in index:
                            u, v, s = v, u, -s
                        if (u, qmap[v]) not in index:
                            raise AssertionError(
                                f"GradedAlgebra: {side} wedge {v}^{u} of "
                                f"[{k1}, {k2}] is no basis key")
                        terms.append(index[u, qmap[v]] + (s,))
                coeffs: Dict[BasisKey, int] = {}
                accumulate(coeffs, (t[1:] for t in sorted(terms)))
                if coeffs:
                    self.table[(k1, k2)] = tuple(coeffs.items())
                pair = (z == qx) * (w == qy) - (z == qy) * (w == qx)
                if pair:
                    self.pairing[(k1, k2)] = pair

    def expand(self, m: Dict[Tuple[int, int], object]
               ) -> Optional[Dict[BasisKey, object]]:
        """The coefficients, in basis order, of a matrix of ints, scalars
        or polynomials that holds no zero entry: its values at the read-off
        positions.  None when they do not rebuild the matrix exactly, that
        is when it does not lie in the algebra."""
        index = self.index
        coeffs = {key: v for _, key, v in sorted(
            index[pos] + (v,) for pos, v in m.items() if pos in index)}
        recon: Dict = {}
        for key, c in coeffs.items():
            accumulate(recon, self.mats[key].items(), c)
        return coeffs if recon == m else None


class _Sides(dict):
    """Side records by side, each built on first lookup."""

    def __init__(self, l: int):
        super().__init__()
        self.l = l

    def __missing__(self, side: str) -> _Side:
        if side not in _SIDES:
            raise ValueError("algebra must be 'odd' or 'even'")
        return self.setdefault(side, _Side(self.l, side))


# --------------------------------------------------------------------------
# the algebra pair
# --------------------------------------------------------------------------

class GradedAlgebra:
    """Both side records of one rank l (the even one built on first use),
    and the odd side's grade data."""

    def __init__(self, l: int):
        if l < 2:
            raise ValueError("rank must be at least 2")
        self.l = l
        self.sides = _Sides(l)
        odd = self.sides[ODD]
        self.odd_keys: List[BasisKey] = odd.keys
        self.positive_keys: List[BasisKey] = odd.slot_keys
        self.pair_indices = list(combinations(range(1, l + 1), 2))

        # construction sanity: the lowering bracket
        for i, j in self.pair_indices:
            got = dict(odd.table.get((("lo1", i), ("lo1", j)), ()))
            if got != {("lo2", (i, j)): 1}:
                raise AssertionError(
                    f"GradedAlgebra: [lo1 {i}, lo1 {j}] is {got}, "
                    f"not lo2 {(i, j)}")

        self.negative_keys: List[BasisKey] = [
            self.dual_slot(k) for k in self.positive_keys]
        # u -> the pairs a < b of negative keys with [a, b] = n u
        self.negative_pair_brackets: Dict[
            BasisKey, List[Tuple[BasisKey, BasisKey, int]]] = {}
        for ai, a in enumerate(self.negative_keys):
            for b in self.negative_keys[ai + 1:]:
                for u, n in odd.table.get((a, b), ()):
                    self.negative_pair_brackets.setdefault(u, []).append(
                        (a, b, n))

    # --- structure data ---------------------------------------------------

    @staticmethod
    def grade(key: BasisKey) -> int:
        return _GRADES[key[0]]

    @staticmethod
    def dual_slot(key: BasisKey) -> BasisKey:
        """Positive-part key dual to a negative-part key (and back)."""
        return (_DUALS[key[0]], key[1])

    def _plan(self, kind: int, side: str, slots: Tuple[BasisKey, ...]):
        """One target-independent kernel half of a slot tuple, cached."""
        halves = self.sides[side].plans.setdefault(slots, [None, None, None])
        if halves[kind] is None:
            halves[kind] = _HALVES[kind](self, side, slots)
        return halves[kind]

    def bracket_table(self, side: str, k1: BasisKey, k2: BasisKey
                      ) -> Tuple[Tuple[BasisKey, int], ...]:
        return self.sides[side].table.get((k1, k2), ())

    def pairing_int(self, side: str, k1: BasisKey, k2: BasisKey) -> int:
        return self.sides[side].pairing.get((k1, k2), 0)

    # --- element-level operations (coefficient dicts) ----------------------

    def bracket_coeffs(self, side: str, e1: Coefficients, e2: Coefficients
                       ) -> Coefficients:
        out: Dict[BasisKey, ExactScalar] = {}
        for k1, c1 in e1.items():
            for k2, c2 in e2.items():
                accumulate(out, self.bracket_table(side, k1, k2), c1 * c2)
        return out

    def pairing_coeffs(self, side: str, e1: Coefficients, e2: Coefficients
                       ) -> ExactScalar:
        out = ExactScalar.zero()
        for k1, c1 in e1.items():
            for k2, c2 in e2.items():
                n = self.pairing_int(side, k1, k2)
                if n:
                    out = out + c1 * c2 * n
        return out

    # --- the embedding and the positive-part transfer ---------------------

    def embed_coeffs(self, e: Coefficients) -> Coefficients:
        """Image under the canonical embedding (see _embed_int)."""
        out: Dict[BasisKey, ExactScalar] = {}
        for key, c in e.items():
            accumulate(out, _embed_int(key),
                       c * _HALF_ROOT2 if _GRADES[key[0]] % 2 else c)
        return out

    def transfer_key(self, key: BasisKey) -> Tuple[BasisKey, ExactScalar]:
        """Positive-part transfer of an odd positive basis element."""
        kind, idx = key
        if kind == "up2":
            return ("tup", idx), ExactScalar.one()
        if kind == "up1":
            return ("tup", (0, idx)), _ROOT2
        raise ValueError(
            "positive-part transfer is defined only on the positive part")

    def transfer_coeffs(self, e: Coefficients) -> Coefficients:
        out: Dict[BasisKey, ExactScalar] = {}
        for key, c in e.items():
            accumulate(out, (self.transfer_key(key),), c)
        return out

    # --- transfer-defect elements ------------------------------------------

    def defect_up(self, i: int) -> Coefficients:
        return {("tup", (0, i)): ExactScalar.one(),
                ("tzero", (0, i)): ExactScalar.one()}

    def defect_lo(self, r: int) -> Coefficients:
        return {("tlo", (0, r)): ExactScalar.one(),
                ("tzero", (r, 0)): -ExactScalar.one()}

    def defect_diag(self) -> Coefficients:
        return {("tzero", (0, 0)): -_ROOT2}


@lru_cache(maxsize=None)
def algebra(l: int) -> GradedAlgebra:
    return GradedAlgebra(l)


# --------------------------------------------------------------------------
# public element API
# --------------------------------------------------------------------------

class AlgebraElement:
    """An element of one of the two algebras, stored as a sparse matrix."""

    __slots__ = ("algebra", "l", "entries")

    def __init__(self, which: str, l: int,
                 entries: Dict[Tuple[int, int], ExactScalar]):
        if which not in (ODD, EVEN):
            raise ValueError("algebra must be 'odd' or 'even'")
        object.__setattr__(self, "algebra", which)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "entries",
                           {k: v for k, v in entries.items() if v})

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("AlgebraElement is immutable")

    @staticmethod
    def from_key(which: str, l: int, key: BasisKey) -> "AlgebraElement":
        return AlgebraElement.from_coefficients(
            which, l, {key: ExactScalar.one()})

    @staticmethod
    def from_coefficients(which: str, l: int, coeffs: Coefficients
                          ) -> "AlgebraElement":
        """sum_k c_k * basis matrix k; raises ValueError for a key outside
        the side's basis."""
        mats = algebra(l).sides[which].mats
        entries: Dict[Tuple[int, int], ExactScalar] = {}
        for key, c in coeffs.items():
            if key not in mats:
                raise ValueError(
                    f"{key!r} is not a basis key of the {which} algebra "
                    f"of rank {l}")
            accumulate(entries, mats[key].items(), c)
        return AlgebraElement(which, l, entries)

    def coefficients(self) -> Coefficients:
        """Expand over the basis, verifying membership exactly."""
        coeffs = algebra(self.l).sides[self.algebra].expand(self.entries)
        if coeffs is None:
            raise ValueError(
                "matrix does not lie in the algebra spanned by the basis")
        return coeffs

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        entries = dict(self.entries)
        accumulate(entries, other.entries.items())
        return AlgebraElement(self.algebra, self.l, entries)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.l,
                              {k: -v for k, v in self.entries.items()})

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.l,
                              {k: v * c for k, v in self.entries.items()})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AlgebraElement)
                and self.algebra == other.algebra and self.l == other.l
                and self.entries == other.entries)

    __hash__ = None  # type: ignore[assignment]

    def _check(self, other: "AlgebraElement") -> None:
        if self.algebra != other.algebra or self.l != other.l:
            raise ValueError("algebra mismatch")


def basis(which: str, l: int) -> List[Tuple[BasisKey, AlgebraElement]]:
    """All basis elements of one algebra, in canonical grade order."""
    return [(key, AlgebraElement.from_key(which, l, key))
            for key in algebra(l).sides[which].keys]


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    x._check(y)
    return AlgebraElement(x.algebra, x.l,
                          _mat_commutator(x.entries, y.entries))


def pairing(x: AlgebraElement, y: AlgebraElement) -> ExactScalar:
    x._check(y)
    return _mat_trace_product(x.entries, y.entries) * _NEG_HALF


def embed_alpha(x: AlgebraElement) -> AlgebraElement:
    """The canonical embedding of the odd algebra into the even one."""
    if x.algebra != ODD:
        raise ValueError("embedding applies to odd-algebra elements")
    ga = algebra(x.l)
    return AlgebraElement.from_coefficients(
        EVEN, x.l, ga.embed_coeffs(x.coefficients()))


def phi(xi: AlgebraElement) -> AlgebraElement:
    """Positive-part transfer; errors unless xi lies in the positive part."""
    if xi.algebra != ODD:
        raise ValueError("transfer applies to odd-algebra elements")
    ga = algebra(xi.l)
    coeffs = xi.coefficients()
    for key in coeffs:
        if key[0] not in ("up1", "up2"):
            raise ValueError(
                "argument does not lie in the positive part")
    return AlgebraElement.from_coefficients(
        EVEN, xi.l, ga.transfer_coeffs(coeffs))


# --------------------------------------------------------------------------
# chains
# --------------------------------------------------------------------------

Coefficient = Union[ExactScalar, Polynomial]
TermKey = Tuple[Tuple[BasisKey, ...], BasisKey]


class Chain:
    """A sparse alternating k-chain with positive-part slots.

    Terms map (slots, target) to a coefficient; slots are strictly
    increasing in the canonical positive-part order of the named side.
    """

    __slots__ = ("side", "l", "k", "terms")

    def __init__(self, side: str, l: int, k: int,
                 terms: Dict[TermKey, Coefficient]):
        if side not in (ODD, EVEN):
            raise ValueError("side must be 'odd' or 'even'")
        if not 0 <= k <= 3:
            raise ValueError("chain degree must be 0..3")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms",
                           {key: c for key, c in terms.items()
                            if c})

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Chain is immutable")

    @staticmethod
    def zero(side: str, l: int, k: int) -> "Chain":
        return Chain(side, l, k, {})

    @staticmethod
    def make(side: str, l: int, k: int,
             items: Iterable[Tuple[Sequence[BasisKey], BasisKey, Coefficient]]
             ) -> "Chain":
        """Build a chain, canonicalizing slot order with signs."""
        ranks = algebra(l).sides[side].ranks
        pairs = []
        for slots, target, coeff in items:
            if len(slots) != k:
                raise ValueError("slot count does not match chain degree")
            canon = _canonical_slots(ranks, tuple(slots))
            if canon is not None:
                pairs.append(((canon[0], target), coeff * canon[1]))
        terms: Dict[TermKey, Coefficient] = {}
        accumulate(terms, pairs)
        return Chain(side, l, k, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Chain") -> "Chain":
        self._check(other)
        terms = dict(self.terms)
        accumulate(terms, other.terms.items())
        return Chain(self.side, self.l, self.k, terms)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + other.scale(-1)

    def scale(self, c) -> "Chain":
        return Chain(self.side, self.l, self.k,
                     {key: v * c for key, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Chain) and self.side == other.side
                and self.l == other.l and self.k == other.k
                and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]

    def homogeneity(self, key: TermKey) -> int:
        slots, target = key
        return sum(_GRADES[s[0]] for s in slots) + _GRADES[target[0]]

    def homogeneous_part(self, h: int) -> "Chain":
        return Chain(self.side, self.l, self.k,
                     {key: c for key, c in self.terms.items()
                      if self.homogeneity(key) == h})

    def _check(self, other: "Chain") -> None:
        if (self.side != other.side or self.l != other.l
                or self.k != other.k):
            raise ValueError("chain shape mismatch")


def _canonical_slots(ranks: Dict[BasisKey, int],
                     slots: Tuple[BasisKey, ...]
                     ) -> Optional[Tuple[Tuple[BasisKey, ...], int]]:
    """Slots sorted by their positive-part rank, with the sign (-1)^(number
    of inversions); None when a slot repeats."""
    try:
        r = [ranks[s] for s in slots]
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]} is not a positive-part basis key")
    inversions = 0
    for n, a in enumerate(r):
        for b in r[n + 1:]:
            if a == b:
                return None
            inversions += a > b
    if not inversions:
        return slots, 1
    return (tuple(sorted(slots, key=ranks.__getitem__)),
            -1 if inversions % 2 else 1)


# --------------------------------------------------------------------------
# the two differentials and the transfer as integer unit kernels: a slot half
# built once per slot tuple (GradedAlgebra._plan), a target half of lookups
# --------------------------------------------------------------------------

_CD, _D, _PHI = range(3)


def _codifferential_half(ga: GradedAlgebra, side: str,
                         slots: Tuple[BasisKey, ...]):
    """Slot removals (z, canonical rest, (-1)^(i+1) sign) and pair-bracket
    terms [z_i, z_j] + rest, canonical, with (-1)^(i+j) sign n."""
    record = ga.sides[side]
    ranks, table = record.ranks, record.table
    removals = []
    for i0, z in enumerate(slots):
        canon = _canonical_slots(ranks, slots[:i0] + slots[i0 + 1:])
        if canon is not None:
            removals.append((z, canon[0], canon[1] if i0 % 2 else -canon[1]))
    pairs = []
    for i0, j0 in combinations(range(len(slots)), 2):
        sign = -1 if (i0 + j0) % 2 else 1
        rest = slots[:i0] + slots[i0 + 1:j0] + slots[j0 + 1:]
        for bkey, n in table.get((slots[i0], slots[j0]), ()):
            canon = _canonical_slots(ranks, (bkey,) + rest)
            if canon is not None:
                pairs.append((canon[0], sign * canon[1] * n))
    return removals, pairs


def _differential_half(ga: GradedAlgebra, side: str,
                       slots: Tuple[BasisKey, ...]):
    """Per negative key x, (x, canonical (x*,) + slots, sign); per slot u_i
    and a < b with [a, b] = n u_i, (a*, b*) + rest, canonical, sign n."""
    ranks = ga.sides[side].ranks
    xs = []
    for x in ga.negative_keys:
        canon = _canonical_slots(ranks, (ga.dual_slot(x),) + slots)
        if canon is not None:
            xs.append((x,) + canon)
    pairs = []
    for i, s in enumerate(slots):
        rest = slots[:i] + slots[i + 1:]
        sign = 1 if i % 2 else -1
        for a, b, n in ga.negative_pair_brackets.get(ga.dual_slot(s), ()):
            canon = _canonical_slots(
                ranks, (ga.dual_slot(a), ga.dual_slot(b)) + rest)
            if canon is not None:
                pairs.append((canon[0], sign * canon[1] * n))
    return xs, pairs


def _unit_term(kind: int, ga: GradedAlgebra, side: str,
               slots: Tuple[BasisKey, ...], target: BasisKey
               ) -> List[Tuple[TermKey, int]]:
    """One differential (kind _CD or _D) of one unit term, as (canonical
    key, n) pairs in emission order (a key may repeat); integers only."""
    brackets, fixed = ga._plan(kind, side, slots)
    table = ga.sides[side].table
    out = [((rest, key), s * n) for z, rest, s in brackets
           for key, n in table.get((z, target), ())]
    out.extend(((rest, target), n) for rest, n in fixed)
    return out


_codifferential_term = partial(_unit_term, _CD)
_differential_term = partial(_unit_term, _D)


def _apply(kernel, ga: GradedAlgebra, side: str,
           items: Iterable[Tuple[TermKey, Coefficient]]
           ) -> Dict[TermKey, Coefficient]:
    """A unit kernel composed over (term key, coeff) items of one side:
    coeff * n summed into one term dict in emission order.  Coefficients
    may be ints, scalars or polynomials."""
    terms: Dict[TermKey, Coefficient] = {}
    for (slots, target), coeff in items:
        accumulate(terms, kernel(ga, side, slots, target), coeff)
    return terms


def codifferential(c: Chain) -> Chain:
    """The homology-side boundary operator on positive-part chains.

    For a term Z_1^..^Z_k (x) X the image collects (-1)^i times the slot
    removal with target bracket [Z_i, X], plus (-1)^(i+j) times the pair
    bracket [Z_i, Z_j] prepended to the remaining slots, slots sorted by
    their inversion count (``_codifferential_term``).
    """
    if c.k == 0:
        raise ValueError("codifferential of a degree-0 chain is not defined")
    return Chain(c.side, c.l, c.k - 1, _apply(
        _codifferential_term, algebra(c.l), c.side, c.terms.items()))


def differential(c: Chain) -> Chain:
    """The Lie algebra cohomology differential, applied term by term.

    A chain is read as an alternating map on the negative part, each slot
    naming its dual negative key.  By the Chevalley-Eilenberg formula a term
    w(u_1, .., u_k) = c T contributes c [x, T] at the arguments
    (x, u_1, .., u_k) for every negative key x, and (-1)^(i+1) c n T at
    (a, b, u's without u_i) for every pair a < b with [a, b] = n u_i (i
    counted from 0), slots sorted with their sign and repeated ones dropped
    (``_differential_term``).  Degrees 1 and 2; a polynomial coefficient is
    carried along as it is, so the image of a polynomial chain is the sum
    of its monomial slices' images times their monomials.
    """
    if c.side != ODD:
        raise ValueError("differential is defined on odd-side chains")
    if c.k not in (1, 2):
        raise ValueError("differential implemented for degrees 1 and 2")
    return Chain(ODD, c.l, c.k + 1, _apply(
        _differential_term, algebra(c.l), ODD, c.terms.items()))


# --------------------------------------------------------------------------
# chain-level transfer and the commutator operator
# --------------------------------------------------------------------------

_EMBED_KINDS = {"lo2": "tlo", "zero": "tzero", "up2": "tup"}


def _embed_int(key: BasisKey) -> Tuple[Tuple[BasisKey, int], ...]:
    """The canonical embedding of an odd basis key: 1/sqrt2 times these
    integer pairs on the grade +-1 keys, the pairs themselves otherwise."""
    kind, idx = key
    if kind == "lo1":
        return (("tzero", (idx, 0)), 1), (("tlo", (0, idx)), 1)
    if kind == "up1":
        return (("tup", (0, idx)), 1), (("tzero", (0, idx)), -1)
    if kind not in _EMBED_KINDS:
        raise ValueError(f"not an odd-algebra basis key: {key}")
    return ((_EMBED_KINDS[kind], idx), 1),


def _transfer_half(ga: GradedAlgebra, side: str,
                   slots: Tuple[BasisKey, ...]):
    """The transferred slots, canonical with their sign (None on a repeat)."""
    return _canonical_slots(ga.sides[EVEN].ranks,
                            tuple(ga.transfer_key(s)[0] for s in slots))


_HALVES = (_codifferential_half, _differential_half, _transfer_half)


def _root2_exponent(slots: Tuple[BasisKey, ...], grade: int) -> int:
    """One per up1 slot, less one for a target of odd grade (_phi_term)."""
    return sum(s[0] == "up1" for s in slots) - grade % 2


@lru_cache(maxsize=None)
def _root2_power(e: int) -> ExactScalar:
    half = Fraction(2) ** (e // 2)
    return ExactScalar(0, half) if e % 2 else ExactScalar(half)


def _phi_term(ga: GradedAlgebra, side: str, slots: Tuple[BasisKey, ...],
              target: BasisKey) -> List[Tuple[TermKey, int]]:
    """The transfer of one odd unit term: sqrt2^e (``_root2_exponent``)
    times these (even key, n) pairs, in emission order."""
    canon = ga._plan(_PHI, ODD, slots)
    return [] if canon is None else [
        ((canon[0], key), canon[1] * n) for key, n in _embed_int(target)]


def phi_extension(c: Chain) -> Chain:
    """Transfer an odd-side chain to the even side: the positive-part
    transfer on every slot and the canonical embedding on the target."""
    if c.side != ODD:
        raise ValueError("transfer applies to odd-side chains")
    items = [((slots, t), coeff * _root2_power(
        _root2_exponent(slots, _GRADES[t[0]])))
        for (slots, t), coeff in c.terms.items()]
    return Chain(EVEN, c.l, c.k, _apply(_phi_term, algebra(c.l), ODD, items))


def commutator_operator(c: Chain) -> Chain:
    """The defect of the chain transfer against the two boundary operators:
    codifferential(transfer(c)) - transfer(codifferential(c))."""
    if c.side != ODD or c.k != 2:
        raise ValueError("operator is defined on odd-side degree-2 chains")
    return codifferential(phi_extension(c)) - phi_extension(codifferential(c))


def _closed_form_words(ga: GradedAlgebra, slots: Tuple[BasisKey, ...]):
    """The operator's closed form on an odd unit 2-term's slot-type block,
    target t: sqrt2^(e - 2) (``_root2_exponent``) times n rest (x) a(t), or
    n rest (x) the sum of [z, a(t)] over the keys z of a defect_up (both of
    coefficient 1), per (even rest, those keys or (), n)."""
    kinds = (slots[0][0], slots[1][0])
    if kinds == ("up2", "up2"):
        return []
    if kinds == ("up1", "up2"):
        return [((("tup", slots[1][1]),), tuple(ga.defect_up(slots[0][1])),
                 -1)]
    i, j = slots[0][1], slots[1][1]
    return [((("tup", (i, j)),), (), 1),
            ((("tup", (0, i)),), tuple(ga.defect_up(j)), 1),
            ((("tup", (0, j)),), tuple(ga.defect_up(i)), -1)]


def _closed_form_term(ga: GradedAlgebra, side: str,
                      slots: Tuple[BasisKey, ...], target: BasisKey
                      ) -> List[Tuple[TermKey, int]]:
    """The closed form (``_closed_form_words``) on one odd unit 2-term:
    sqrt2^(e - 2) times these (key, n) pairs."""
    alpha = dict(_embed_int(target))
    return [((rest, key), n * v)
            for rest, zs, n in _closed_form_words(ga, slots)
            for key, v in (ga.bracket_coeffs(EVEN, dict.fromkeys(zs, 1),
                                             alpha) if zs else alpha).items()]


def commutator_operator_closed_form(c: Chain) -> Chain:
    """Independent evaluation of the same operator from its closed forms
    on the three slot-type blocks (used as a cross-check oracle)."""
    if c.side != ODD or c.k != 2:
        raise ValueError("operator is defined on odd-side degree-2 chains")
    items = [((slots, t), coeff * _root2_power(
        _root2_exponent(slots, _GRADES[t[0]]) - 2))
        for (slots, t), coeff in c.terms.items()]
    return Chain(EVEN, c.l, 1,
                 _apply(_closed_form_term, algebra(c.l), ODD, items))


def kappa11_normality_test(c: Chain) -> bool:
    """True iff the commutator operator annihilates the chain.  The operator
    is linear over the coefficients, so on a polynomial chain this holds
    iff it holds on every monomial slice."""
    if c.side != ODD or c.k != 2:
        raise ValueError("test applies to odd-side degree-2 chains")
    return commutator_operator(c).is_zero()


# --------------------------------------------------------------------------
# invariant battery (used by the CLI self-check and the test suite)
# --------------------------------------------------------------------------

def _check_form_annihilation(ga: GradedAlgebra) -> bool:
    for record in (ga.sides[ODD], ga.sides[EVEN]):
        qmap = record.qmap
        for m in record.mats.values():
            # With Q the 0/1 involution permutation, entry (r,c,v) of m
            # contributes v to (Q m) at (qmap[r], c) and, via the
            # transpose, v to (m^t Q) at (c, qmap[r]).
            acc: Dict[Tuple[int, int], int] = {}
            accumulate(acc, [(pos, v) for (r, c), v in m.items()
                             for pos in ((qmap[r], c), (c, qmap[r]))])
            if acc:
                return False
    return True


def _check_bracket_grading(ga: GradedAlgebra) -> bool:
    """Stored brackets [k1, k2] lie in grade g(k1) + g(k2) (others: 0)."""
    grade = GradedAlgebra.grade
    return all(grade(key) == grade(k1) + grade(k2)
               for side in (ODD, EVEN)
               for (k1, k2), entry in ga.sides[side].table.items()
               for key, _ in entry)


def _check_pairing_values(ga: GradedAlgebra) -> bool:
    span = range(1, ga.l + 1)
    odd = ga.sides[ODD]
    for k1, k2, tr in ([(("lo1", i), ("up1", i), -2) for i in span]
                       + [(("lo2", p), ("up2", p), -2)
                          for p in ga.pair_indices]
                       + [(("zero", (i, j)), ("zero", (j, i)), 2)
                          for i in span for j in span if i != j]):
        if _mat_trace_product(odd.mats[k1], odd.mats[k2]) != tr:
            return False
    # cross-grade orthogonality, on the stored (nonzero) pairings
    grade = GradedAlgebra.grade
    return all(n == 0 or grade(k1) + grade(k2) == 0
               for (k1, k2), n in odd.pairing.items())


def _check_embedding_homomorphism(ga: GradedAlgebra) -> bool:
    one = ExactScalar.one()
    for k1 in ga.odd_keys:
        e1 = ga.embed_coeffs({k1: one})
        for k2 in ga.odd_keys:
            e2 = ga.embed_coeffs({k2: one})
            lhs = ga.embed_coeffs(
                {key: ExactScalar.of(n)
                 for key, n in ga.bracket_table(ODD, k1, k2)})
            rhs = ga.bracket_coeffs(EVEN, e1, e2)
            if lhs != rhs:
                return False
    return True


def _check_embedding_eigenspace(ga: GradedAlgebra) -> bool:
    l = ga.l

    def swap(n: int) -> int:
        if n == 0:
            return l + 1
        if n == l + 1:
            return 0
        return n

    one = ExactScalar.one()
    for key in ga.odd_keys:
        elem = AlgebraElement.from_coefficients(
            EVEN, l, ga.embed_coeffs({key: one}))
        swapped = {(swap(r), swap(c)): v
                   for (r, c), v in elem.entries.items()}
        if swapped != elem.entries:
            return False
    return True


def _check_transfer_duality(ga: GradedAlgebra) -> bool:
    one = ExactScalar.one()
    for xi in ga.positive_keys:
        txi = ga.transfer_coeffs({xi: one})
        for xkey in ga.odd_keys:
            lhs = ga.pairing_coeffs(EVEN, txi,
                                    ga.embed_coeffs({xkey: one}))
            rhs = ExactScalar.of(ga.pairing_int(ODD, xi, xkey))
            if lhs != rhs:
                return False
    return True


def _check_defect_relations(ga: GradedAlgebra) -> bool:
    """[defect_up(i), a(x)] for every odd basis key x: defect_up(s) on
    zero (i, s), -defect_diag on lo1 i, +-defect_lo of the other index on
    a lo2 pair holding i, and zero otherwise."""
    one = ExactScalar.one()

    def neg(e: Coefficients) -> Coefficients:
        return {k: -v for k, v in e.items()}

    for i in range(1, ga.l + 1):
        d = ga.defect_up(i)
        for key in ga.odd_keys:
            kind, idx = key
            want: Coefficients = {}
            if kind == "zero" and idx[0] == i:
                want = ga.defect_up(idx[1])
            elif kind == "lo1" and idx == i:
                want = neg(ga.defect_diag())
            elif kind == "lo2" and i in idx:
                r, s = idx
                want = ga.defect_lo(s) if i == r else neg(ga.defect_lo(r))
            if ga.bracket_coeffs(EVEN, d, ga.embed_coeffs({key: one})) != want:
                return False
    return True


def _word_sums(base: Dict[tuple, int], step):
    """A test that each rest's sum of words in {rest: {word: n}} vanishes on
    the words' integer matrices {(t, key): n}, memoized: () is the base, and
    (a,) + w sends t through w, then each key to the pairs step(a, key)."""
    words: Dict[tuple, Dict[tuple, int]] = {(): base}

    def word_matrix(word: tuple) -> Dict[tuple, int]:
        if word not in words:
            m = words[word] = {}
            for (t, key), c in word_matrix(word[1:]).items():
                accumulate(m, (((t, k2), n) for k2, n in step(word[0], key)),
                           c)
        return words[word]

    def vanish(by_rest: Dict[tuple, Dict[tuple, int]]) -> bool:
        for coeffs in by_rest.values():
            acc: Dict[tuple, int] = {}
            for word, c in coeffs.items():
                accumulate(acc, word_matrix(word).items(), c)
            if acc:
                return False
        return True
    return vanish


def _plan_words(ga: GradedAlgebra, kind: int, side: str,
                slots: Tuple[BasisKey, ...]):
    """The plan of a unit kernel (kind _CD or _D) as (word, rest, n): slots
    (x) t goes to the sum of n rest (x) word(t), a word (z,) being ad z."""
    brackets, fixed = ga._plan(kind, side, slots)
    return ([((z,), rest, s) for z, rest, s in brackets]
            + [((), rest, n) for rest, n in fixed])


def _squares_vanish(ga: GradedAlgebra, kind: int, side: str, k: int) -> bool:
    """A unit kernel (kind _CD or _D) composed with itself kills every unit
    k-chain of one side.  Its plan sends slots (x) t to terms n rest (x) w(t)
    for words w = ad z or 1, so the square of a slot tuple is, per inner
    rest r, r (x) a sum of words ad a ad b, ad a, 1, which must vanish
    (``_word_sums``)."""
    record = ga.sides[side]
    table = record.table
    vanish = _word_sums({(t, t): 1 for t in record.keys},
                        lambda z, key: table.get((z, key), ()))

    for slots in combinations(record.slot_keys, k):
        by_rest: Dict[Tuple[BasisKey, ...], Dict[tuple, int]] = {}
        for word, rest, s in _plan_words(ga, kind, side, slots):
            for inner, r, n in _plan_words(ga, kind, side, rest):
                accumulate(by_rest.setdefault(r, {}), ((inner + word, n),), s)
        if not vanish(by_rest):
            return False
    return True


def _check_codifferential_squares(ga: GradedAlgebra) -> bool:
    return (_squares_vanish(ga, _CD, ODD, 3)
            and _squares_vanish(ga, _CD, EVEN, 3))


def _check_differential_squares(ga: GradedAlgebra) -> bool:
    return _squares_vanish(ga, _D, ODD, 1)


def _check_operator_closed_forms(ga: GradedAlgebra) -> bool:
    """codifferential(transfer(u)) - transfer(codifferential(u)) equals the
    closed form on every unit 2-chain u (so vanishes on two up2 slots), all
    in integers: both sides over sqrt2^e / 2, e = _root2_exponent(u) of the
    slots and the target's grade parity p.  Per slot tuple and p, each side
    is, per even rest, a sum of words (``_word_sums``) on the target: the
    embedding a, written (None,), ad z a for even z and a ad z for odd z."""
    def step(z, key):   # a pair is stored in at most one side's table
        return _embed_int(key) if z is None else (
            ga.bracket_table(ODD, z, key) or ga.bracket_table(EVEN, z, key))

    vanish = [_word_sums({(t, t): 1 for t in ga.odd_keys
                          if _GRADES[t[0]] % 2 == p}, step) for p in (0, 1)]
    for slots in combinations(ga.positive_keys, 2):
        # (even rest, word, n) of 2 cd(transfer(u)) - the closed form
        words = []
        canon = ga._plan(_PHI, ODD, slots)
        if canon is not None:
            words += [(rest, w + (None,), 2 * canon[1] * n)
                      for w, rest, n in _plan_words(ga, _CD, EVEN, canon[0])]
        for rest, zs, n in _closed_form_words(ga, slots):
            words += [(rest, (z, None), -n) for z in zs] or [
                (rest, (None,), -n)]
        # (word, odd rest, n, grade of the ad in the word) of transfer(cd(u))
        inner = [((None,) + w, rest, n, sum(_GRADES[z[0]] for z in w))
                 for w, rest, n in _plan_words(ga, _CD, ODD, slots)]
        for p in (0, 1):
            e = _root2_exponent(slots, p)
            by_rest: Dict[Tuple[BasisKey, ...], Dict[tuple, int]] = {}
            for rest, word, n in words:
                accumulate(by_rest.setdefault(rest, {}), ((word, n),))
            for word, rest, n, g in inner:
                # 2 sqrt2^(e1 - e) = 2^(shift / 2), by homogeneity 1 or 2
                shift = _root2_exponent(rest, p + g) - e + 2
                if shift not in (0, 2):
                    return False
                moved = ga._plan(_PHI, ODD, rest)
                if moved is not None:
                    accumulate(by_rest.setdefault(moved[0], {}),
                               ((word, -(moved[1] * n << shift // 2)),))
            if not vanish[p](by_rest):
                return False
    return True


ALGEBRA_CHECKS = (
    ("basis-form-annihilation", _check_form_annihilation),
    ("bracket-grading", _check_bracket_grading),
    ("killing-pairing-values", _check_pairing_values),
    ("alpha-homomorphism", _check_embedding_homomorphism),
    ("alpha-eigenspace", _check_embedding_eigenspace),
    ("phi-duality", _check_transfer_duality),
    ("delta-relations", _check_defect_relations),
    ("codifferential-squares-to-zero", _check_codifferential_squares),
    ("differential-squares-to-zero", _check_differential_squares),
    ("operator-closed-forms", _check_operator_closed_forms),
)


def algebra_battery(l: int) -> List[Tuple[str, bool]]:
    """Run every named invariant check; returns (name, passed) pairs."""
    ga = algebra(l)
    return [(name, fn(ga)) for name, fn in ALGEBRA_CHECKS]
