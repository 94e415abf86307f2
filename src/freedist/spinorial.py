"""Tangent vectors as skew matrices, Pfaffians, and the null cone.

Each tangent direction of the model is identified with a skew-symmetric
matrix with l+1 rows: single-index coefficients fill the first row and
column (scaled by 1/sqrt(2)), pair-index coefficients fill the remaining
block.  For odd l the matrix has even size, so it carries an exact
Pfaffian whose zero set is a cone; for l = 3 the Pfaffian is a quadratic
form of split signature.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import Dict, List, Sequence, Tuple, Union

from .errors import UnsupportedError
from .linalg import _determinant, invert_scalar_matrix
from .scalars import ONE, ExactScalar, ScalarLike, _reduced

TangentKey = Union[int, Tuple[int, int]]
TangentCoefficients = Dict[TangentKey, ScalarLike]


class SkewMatrix:
    """An exactly skew-symmetric square matrix of exact scalars."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[ExactScalar]]):
        n = len(entries)
        rows = tuple(tuple(row) for row in entries)
        for row in rows:
            if len(row) != n:
                raise ValueError("skew matrix must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("matrix is not skew-symmetric")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _skew_by_construction(cls, rows) -> "SkewMatrix":
        """A matrix its builder made skew, without the O(n^2) re-check."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", tuple(map(tuple, rows)))
        return m

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("SkewMatrix is immutable")

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> ExactScalar:
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SkewMatrix) and self.entries == other.entries

    def __repr__(self) -> str:  # pragma: no cover
        body = "; ".join(", ".join(v.to_expr() for v in row)
                         for row in self.entries)
        return f"SkewMatrix[{body}]"


class SpinorIdentification:
    """The basis map sending tangent directions to wedge-index pairs.

    Single directions map to the (0, i) plane with weight 1/sqrt(2); pair
    directions map to the (i, j) plane with weight 1.
    """

    def __init__(self, l: int):
        self.l = l

    def basis_image(self, key: TangentKey
                    ) -> Tuple[Tuple[int, int], ExactScalar]:
        if isinstance(key, int):
            if not 1 <= key <= self.l:
                raise ValueError(f"single index {key} out of range")
            return (0, key), _INV_ROOT2
        j, k = key
        if not 1 <= j < k <= self.l:
            raise ValueError(f"pair index {key!r} out of range or unsorted")
        return (j, k), ExactScalar.one()


# 1/sqrt(2) = sqrt(2)/2, exactly representable
_INV_ROOT2 = ExactScalar.sqrt2().inverse()


def tangent_to_skew(v: TangentCoefficients, l: int) -> SkewMatrix:
    """The skew (l+1) x (l+1) matrix of a tangent coefficient vector.

    Keys are single indices i (weight 1/sqrt(2) into the first row) or
    sorted pairs (j, k); missing keys are zero.
    """
    n = l + 1
    zero = ExactScalar.zero()
    m = [[zero] * n for _ in range(n)]
    ident = SpinorIdentification(l)
    for key, raw in v.items():
        c = raw if isinstance(raw, ExactScalar) else ExactScalar.of(raw)
        (a, b), w = ident.basis_image(key)
        val = c if w is ONE else c * w
        m[a][b], m[b][a] = val, -val
    return SkewMatrix._skew_by_construction(m)


def skew_to_tangent(m: SkewMatrix, l: int) -> Dict[TangentKey, ExactScalar]:
    """Exact inverse of tangent_to_skew (sparse: zero entries omitted)."""
    if m.size != l + 1:
        raise ValueError("matrix size does not match the rank")
    out: Dict[TangentKey, ExactScalar] = {}
    root2 = ExactScalar.sqrt2()
    for i in range(1, l + 1):
        val = m.entry(0, i) * root2
        if not val.is_zero():
            out[i] = val
    for j in range(1, l + 1):
        for k in range(j + 1, l + 1):
            val = m.entry(j, k)
            if not val.is_zero():
                out[(j, k)] = val
    return out


def pfaffian(m: SkewMatrix) -> ExactScalar:
    """Exact Pfaffian of an even-sized skew matrix; its square is the
    determinant.

    The entries are brought to their common denominator D and held as
    integers (a, b) of Z[sqrt2].  Pf(D*M) is expanded along the lowest
    remaining index, each sub-Pfaffian once per set of remaining indices,
    and Pf(M) = Pf(D*M) / D^(n/2) is reduced by one gcd.
    """
    n = m.size
    if n % 2 != 0:
        raise UnsupportedError(
            "the Pfaffian requires an even-sized skew matrix; for even rank "
            "the tangent identification has odd size and carries no "
            "Pfaffian cone")
    den = lcm(*(v.d for row in m.entries for v in row))
    upper = [[(j, v.p * (den // v.d), v.q * (den // v.d))
              for j, v in enumerate(row) if j > i and v]
             for i, row in enumerate(m.entries)]
    memo: Dict[int, Tuple[int, int]] = {0: (1, 0)}

    def pf(mask: int) -> Tuple[int, int]:
        got = memo.get(mask)
        if got is None:
            first = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << first)
            a = b = 0
            for j, p, q in upper[first]:
                if rest >> j & 1:
                    x, y = pf(rest ^ (1 << j))
                    if (rest & ((1 << j) - 1)).bit_count() & 1:
                        p, q = -p, -q
                    a += p * x + 2 * q * y
                    b += p * y + q * x
            got = memo[mask] = a, b
        return got

    return _reduced(*pf((1 << n) - 1), den ** (n // 2))


def null_cone_member(v: TangentCoefficients, l: int) -> bool:
    """True iff the tangent vector lies on the Pfaffian null cone.

    Membership is scale-invariant: the Pfaffian is homogeneous, so any
    nonzero rescaling of v (or of the identification weights) leaves the
    verdict unchanged.
    """
    if l % 2 == 0:
        raise UnsupportedError(
            "the null cone is defined for odd rank only (even-sized skew "
            "matrices)")
    return pfaffian(tangent_to_skew(v, l)).is_zero()


def _coordinate_keys(l: int) -> List[TangentKey]:
    singles: List[TangentKey] = list(range(1, l + 1))
    pairs: List[TangentKey] = [(j, k) for j in range(1, l + 1)
                               for k in range(j + 1, l + 1)]
    return singles + pairs


def pfaffian_quadratic_form(l: int) -> List[List[ExactScalar]]:
    """The symmetric matrix B with B(v, v) = 2 Pf(tangent_to_skew(v)),
    in coordinate order (singles 1..3, then pairs lexicographic); defined
    for l = 3, where the Pfaffian is quadratic.  Its signature is (3, 3).
    """
    if l != 3:
        raise UnsupportedError(
            "the Pfaffian is a quadratic form only for rank 3")
    keys = _coordinate_keys(l)
    one = ExactScalar.one()

    def pf_of(coeffs: Dict[TangentKey, ExactScalar]) -> ExactScalar:
        return pfaffian(tangent_to_skew(coeffs, l))

    n = len(keys)
    b: List[List[ExactScalar]] = [[ExactScalar.zero()] * n for _ in range(n)]
    pf_unit = [pf_of({keys[a]: one}) for a in range(n)]
    for a in range(n):
        b[a][a] = pf_unit[a] + pf_unit[a]
        for c in range(a + 1, n):
            val = pf_of({keys[a]: one, keys[c]: one}) - pf_unit[a] \
                - pf_unit[c]
            b[a][c] = val
            b[c][a] = val
    return b


def quadratic_form_signature(b: List[List[ExactScalar]]) -> Tuple[int, int]:
    """Signature (positive, negative inertia) of a symmetric exact matrix.

    The characteristic polynomial p(t) = det(tI - b) of a symmetric matrix
    has real roots only, so Descartes' rule of signs counts them exactly:
    the positive eigenvalues are the sign changes of p's coefficients and
    the negative ones those of p(-t)'s, zero coefficients skipped (a zero
    eigenvalue is a factor t^k and changes no sign).  p is read at
    t = 0..n by ``_determinant``, and its coefficients are those values
    times the inverse of the Vandermonde matrix (t^k).
    """
    n = len(b)
    if any(len(row) != n for row in b):
        raise ValueError("matrix is not square")
    if any(b[i][j] != b[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    values = [_determinant([[(t if i == j else 0) - b[i][j]
                             for j in range(n)] for i in range(n)])[0]
              for t in range(n + 1)]
    _, inverse = invert_scalar_matrix(
        [[ExactScalar.of(t ** k) for k in range(n + 1)]
         for t in range(n + 1)])
    coeffs = [sum(map(mul, row, values)) for row in inverse]
    signs = [(c.sign(), (-1) ** k * c.sign())
             for k, c in enumerate(coeffs) if c]
    pos, neg = (sum(x != y for x, y in zip(s, s[1:])) for s in zip(*signs))
    return pos, neg


def list_inclusions() -> List[Dict[str, str]]:
    """The three inclusions of parabolic-geometry types realized by the
    construction, as display strings."""
    return [
        {
            "inclusion": "contact projective structures inside projective "
                         "structures",
            "groups": "symplectic group C_l inside special linear type "
                      "A_(2l-1)",
            "model": "projective space of dimension 2l-1",
        },
        {
            "inclusion": "split exceptional geometries inside odd "
                         "orthogonal geometries",
            "groups": "G2 inside B3",
            "model": "Q5",
        },
        {
            "inclusion": "generic free-distribution geometries inside even "
                         "orthogonal geometries",
            "groups": "B_l inside D_(l+1)",
            "model": "generic free distribution with growth vector "
                     "(l, l(l+1)/2); for l = 3 this is the rank-3 "
                     "distribution on a 6-dimensional manifold studied by "
                     "Bryant",
        },
    ]
