"""Exact linear algebra over Q(sqrt2) and its polynomial ring.

Kernels and linear systems share one sparse elimination core,
``_eliminate``, fraction-free over Z[sqrt2], whose vectors carry their
tails (their expressions in the original vectors) along.
``_kernel`` reads the kernel off the dependent columns' tails;
``FactoredSystem`` back-substitutes over the pivots once per system, and
then adds each nonzero polynomial right-hand side into the unknowns it
reaches; ``_determinant`` reads a square scalar matrix's determinant off
the pivots and tails, and ``invert_scalar_matrix`` adds the same
back-substitution for its inverse.
Inverses of polynomial matrices with constant determinant are Newton-lifted
from the inverse of their constant term, up to the cofactor degree bound:
lifting either reaches the exact inverse within it, which proves the
determinant a nonzero constant, or passes it, which refutes that.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import add
from typing import (Dict, Hashable, Iterator, List, Optional, Sequence,
                    Tuple)

from .polynomials import Polynomial, accumulate
from .scalars import ExactScalar, _reduced


Root2 = Tuple[int, int]   # a + b*sqrt2 with integer a, b
IntVec = Tuple[Dict[Hashable, int], Dict[Hashable, int]]  # a and b parts
Pivot = Tuple[Hashable, Root2, IntVec, IntVec, int]
Block = Tuple[List[Pivot], List[Tuple[int, IntVec]]]


def _axpy(dst: IntVec, c: Root2, src: IntVec) -> IntVec:
    """dst += c * src over Z[sqrt2]; returns dst."""
    (da, db), (a, b), (x, y) = dst, c, src
    for part, f, s in ((da, a, x), (da, 2 * b, y), (db, a, y), (db, b, x)):
        if f:
            accumulate(part, s.items(), f)
    return dst


def _at(vec: IntVec, k: Hashable) -> Root2:
    """The entry of vec at k."""
    return vec[0].get(k, 0), vec[1].get(k, 0)


def _times(x: Root2, y: Root2) -> Root2:
    """x * y in Z[sqrt2]."""
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _divided(vec: IntVec, den: int, p: Root2) -> Tuple[IntVec, int]:
    """vec / (den * p) as integers over one positive denominator, in
    lowest terms; 1/p is its conjugate over its norm a^2 - 2b^2."""
    a, b = p
    if b:
        vec, a = _axpy(({}, {}), (a, -b), vec), a * a - 2 * b * b
    den *= a
    g = gcd(den, *vec[0].values(), *vec[1].values())
    g = g if den > 0 else -g
    return tuple({k: v // g for k, v in d.items()} for d in vec), den // g


def _scalars(vec: IntVec, den: int) -> Dict[Hashable, ExactScalar]:
    """The entries (a + b sqrt2) / den of vec, den > 0, as scalars."""
    a, b = vec
    return {k: _reduced(a.get(k, 0), b.get(k, 0), den)
            for k in chain(a, b.keys() - a.keys())}


def _eliminate(vectors: Sequence[Dict[Hashable, ExactScalar]]
               ) -> Iterator[Block]:
    """Fraction-free forward elimination of sparse vectors over Z[sqrt2].

    Vectors that share no nonzero label, even through other vectors, are
    split into blocks (union-find over labels), each eliminated alone, its
    vectors in index order.  Vector i is scaled by the lcm d of its
    denominators and starts with tail {i: d}.  Against an earlier pivot P
    with tail S and entry p, where it has entry c, V and T become p*V - c*P
    and p*T - c*S (p and c over their gcd, negated unless p's rational
    part is positive), then lose their integer content.  What is left
    pivots on its label with the fewest nonzeros across the original
    vectors (a static Markowitz count; Duff, Erisman & Reid, *Direct
    Methods for Sparse Matrices*, ch. 7), ties by ``repr``.  Nonzero
    scaling keeps supports, so pivots and dependent vectors are those of
    elimination over Q(sqrt2); no zero entry is ever stored.

    Yields per block its pivots, as (label, entry there, reduced vector,
    tail, vector index), and its dependent vectors, as (index, tail).
    """
    n = len(vectors)
    parent = list(range(n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: Dict[Hashable, int] = {}
    count: Dict[Hashable, int] = {}
    for i, vec in enumerate(vectors):
        for k, v in vec.items():
            if v:
                parent[root(i)] = root(owner.setdefault(k, i))
                count[k] = count.get(k, 0) + 1
    # pivot priority of a label: its nonzero count, then its repr
    rank = {k: r for r, k in enumerate(
        sorted(count, key=lambda k: (count[k], repr(k))))}
    blocks: Dict[int, List[int]] = {}
    for i in range(n):
        blocks.setdefault(root(i), []).append(i)
    for block in blocks.values():
        pivots: List[Pivot] = []
        dependent: List[Tuple[int, IntVec]] = []
        for i in block:
            row = {k: v for k, v in vectors[i].items() if v}
            d = lcm(*(v.d for v in row.values()))
            vec = ({k: v.p * (d // v.d) for k, v in row.items() if v.p},
                   {k: v.q * (d // v.d) for k, v in row.items() if v.q})
            tail: IntVec = ({i: d}, {})
            for pkey, p, pvec, ptail, _ in pivots:
                c = _at(vec, pkey)
                if c == (0, 0):
                    continue
                g = gcd(*p, *c) if p[0] > 0 else -gcd(*p, *c)
                s, c = (p[0] // g, p[1] // g), (-c[0] // g, -c[1] // g)
                if s[1]:
                    vec, tail = (_axpy(({}, {}), s, vec),
                                 _axpy(({}, {}), s, tail))
                elif s[0] != 1:
                    for part in (*vec, *tail):
                        for k in part:
                            part[k] *= s[0]
                _axpy(vec, c, pvec)
                _axpy(tail, c, ptail)
                g = gcd(*vec[0].values(), *vec[1].values(),
                        *tail[0].values(), *tail[1].values())
                if g > 1:
                    for part in (*vec, *tail):
                        for k in part:
                            part[k] //= g
            if not (vec[0] or vec[1]):
                dependent.append((i, tail))
                continue
            pkey = min(chain(*vec), key=rank.__getitem__)
            pivots.append((pkey, _at(vec, pkey), vec, tail, i))
        yield pivots, dependent


def _kernel(columns: Sequence[Dict[Hashable, ExactScalar]]
            ) -> List[Dict[int, ExactScalar]]:
    """Basis of {c : sum_i c_i * columns[i] = 0} for sparse columns keyed
    by any hashable row labels, as {column index: nonzero value}, indices
    ascending.  Per column i that depends on the earlier ones, in the order
    of i: its tail over the tail's entry at i, that is e_i minus column i's
    unique expression in the earlier independent columns, so neither the
    block split nor the pivot rows of ``_eliminate`` change the result."""
    kernel: Dict[int, Dict[int, ExactScalar]] = {}
    for _, dependent in _eliminate(columns):
        for i, tail in dependent:
            vec = _scalars(*_divided(tail, 1, _at(tail, i)))
            kernel[i] = {j: vec[j] for j in sorted(vec)}
    return [kernel[i] for i in sorted(kernel)]


def kernel_of_columns(columns: Sequence[Dict[Hashable, ExactScalar]]
                      ) -> List[List[ExactScalar]]:
    """The vectors of ``_kernel`` as dense coefficient lists, one entry per
    column, in column order."""
    zero = ExactScalar.zero()
    return [[vec.get(j, zero) for j in range(len(columns))]
            for vec in _kernel(columns)]


def _solution_operator(blocks: List[List[Pivot]]
                       ) -> Dict[Hashable, Dict[int, ExactScalar]]:
    """Per pivot label u, the combination of right-hand sides that gives
    x[u] for every consistent M x = b, when every label is a pivot label.

    Pivot q's reduced vector rho_q, with entry p_q at its label u_q, is
    tail_q . M, so x[u_q] = (tail_q . b - sum_{k != u_q} rho_q[k] x[k]) /
    p_q; rho_q names later pivots' labels only, so back-substitution runs
    over the pivots in reverse order, in integers over one denominator.
    """
    ints: Dict[Hashable, Tuple[IntVec, int]] = {}
    for pivots in blocks:
        for pkey, p, (a, b), tail, _ in reversed(pivots):
            keys = [k for k in chain(a, b.keys() - a.keys()) if k != pkey]
            den = lcm(*(ints[k][1] for k in keys))
            x = _axpy(({}, {}), (den, 0), tail)
            for k in keys:
                num, d = ints[k]
                f = den // d
                _axpy(x, (-a.get(k, 0) * f, -b.get(k, 0) * f), num)
            ints[pkey] = _divided(x, den, p)
    return {u: _scalars(*ints[u]) for u in ints}


class FactoredSystem:
    """A constant-coefficient sparse system factored once for many solves.

    Rows map the unknowns (integer labels, ascending) to scalars.
    ``_eliminate`` factors the rows as vectors keyed by unknown; every
    unknown must become a pivot label (full column rank; raises ValueError
    otherwise), and the dependent rows are the redundant ones.
    ``_solution_operator`` back-substitutes over the pivots once, giving
    each unknown as a fixed combination of right-hand sides, kept by
    right-hand side: ``_op[r]`` maps unknown j to the coefficient of rhs[r]
    in x[j], j ascending.  A solve adds only the nonzero right-hand sides
    into the unknowns' term dicts, then verifies every row against its
    right-hand side exactly, over nonzero unknowns.
    """

    def __init__(self, rows: Sequence[Dict[int, ExactScalar]],
                 unknowns: Sequence[int]):
        self.rows = [dict(r) for r in rows]
        self.unknowns = list(unknowns)
        blocks = [pivots for pivots, _ in _eliminate(self.rows)]
        labels = {p[0] for pivots in blocks for p in pivots}
        missing = [j for j in self.unknowns if j not in labels]
        if missing:
            raise ValueError(
                f"linear system does not determine unknowns {missing[:5]}"
                + ("..." if len(missing) > 5 else ""))
        op = _solution_operator(blocks)
        self._op: List[Dict[int, ExactScalar]] = [{} for _ in self.rows]
        for j in self.unknowns:
            for r, c in op[j].items():
                self._op[r][j] = c

    def solve(self, rhs: Sequence[Polynomial]) -> List[Polynomial]:
        if len(rhs) != len(self.rows):
            raise ValueError("row/rhs length mismatch")
        if not rhs:
            raise ValueError("empty system")
        chart_ = rhs[0].chart
        xs: Dict[int, Dict[Hashable, ExactScalar]] = {
            j: {} for j in self.unknowns}
        for b, op in zip(rhs, self._op):
            if b.terms:
                for j, c in op.items():
                    accumulate(xs[j], b.terms.items(), c)
        for row, b in zip(self.rows, rhs):
            lhs: Dict[Hashable, ExactScalar] = {}
            for j, c in row.items():
                if xs[j]:
                    accumulate(lhs, xs[j].items(), c)
            if lhs != b.terms:
                raise ValueError("inconsistent linear system")
        return [Polynomial(chart_, x) for x in xs.values()]


def invert_scalar_matrix(m: Sequence[Sequence[ExactScalar]]
                         ) -> Tuple[ExactScalar,
                                    Optional[List[List[ExactScalar]]]]:
    """Determinant (``_determinant``) and inverse of a square scalar
    matrix, back-substituted over its pivots; the inverse is None when the
    determinant is zero."""
    det, blocks = _determinant(m)
    if not det:
        return det, None
    op, zero, n = _solution_operator(blocks), ExactScalar.zero(), len(m)
    return det, [[op[j].get(r, zero) for r in range(n)] for j in range(n)]


def _determinant(m: Sequence[Sequence[ExactScalar]]
                 ) -> Tuple[ExactScalar, List[List[Pivot]]]:
    """Determinant of a square scalar matrix off the pivots of
    ``_eliminate`` on its rows, and the pivot blocks when it is nonzero.

    The tails are triangular in elimination order, and the reduced rows
    (tails times m) are triangular once the columns are in pivot order: det
    m is the permutation sign (row -> its pivot column) times the product
    of p_q / t_q over each pivot's entry p_q and its tail's own entry t_q.
    """
    eliminated = list(_eliminate([{j: v for j, v in enumerate(row) if v}
                                  for row in m]))
    if any(dependent for _, dependent in eliminated):
        return ExactScalar.zero(), []
    blocks = [pivots for pivots, _ in eliminated]
    column: Dict[int, Hashable] = {}
    num = den = (1, 0)
    for pivots in blocks:
        for pkey, p, _, tail, i in pivots:
            column[i] = pkey
            num, den = _times(num, p), _times(den, _at(tail, i))
    det = ExactScalar(*num) / ExactScalar(*den)
    cycles = 0
    for j in range(len(m)):
        cycles += j in column
        while j in column:
            j = column.pop(j)
    return (-det if (len(m) - cycles) % 2 else det), blocks


def _mat_mul(a: Sequence[Sequence[Polynomial]],
             b: Sequence[Sequence[Polynomial]],
             below: Optional[int] = None,
             base: Optional[Sequence[Sequence[Polynomial]]] = None
             ) -> List[List[Polynomial]]:
    """base + a*b for square polynomial matrices (zero base when None),
    each entry in one term dict, skipping zero entries of a; with
    ``below``, only product terms of total degree < below are formed."""
    n = len(a)
    chart = a[0][0].chart
    zero = Polynomial.zero(chart)
    b_terms = [[[(e, sum(e), c) for e, c in b[k][j].terms.items()]
                for j in range(n)] for k in range(n)]
    out = []
    for i in range(n):
        a_terms = [(k, [(e, sum(e), c) for e, c in a[i][k].terms.items()])
                   for k in range(n) if a[i][k].terms]
        row = []
        for j in range(n):
            acc = dict(base[i][j].terms) if base else {}
            for k, ta in a_terms:
                tb = b_terms[k][j]
                for e1, d1, c1 in ta:
                    for e2, d2, c2 in tb:
                        if below is not None and d1 + d2 >= below:
                            continue
                        e = tuple(map(add, e1, e2))
                        v = c1 * c2
                        s = acc.get(e)
                        acc[e] = v if s is None else s + v
            row.append(Polynomial(chart, acc) if acc else zero)
        out.append(row)
    return out


def poly_inverse(m: Sequence[Sequence[Polynomial]],
                 x0: Optional[Sequence[Sequence[ExactScalar]]] = None
                 ) -> List[List[Polynomial]]:
    """Inverse of a square polynomial matrix whose determinant is a nonzero
    constant, by Newton iteration (von zur Gathen & Gerhard, *Modern
    Computer Algebra*, ch. 9).

    Starts from X = m(0)^-1 (``x0`` when the caller has it already) and
    repeats: E = I - X*m exactly; return X when E = 0, otherwise double the
    precision p and set X = X + E*X truncated to total degree < p, both
    sums formed in ``_mat_mul``'s term dicts (E as I + X*(-m)).  The
    returned X satisfies X*m = I exactly.  An inverse that exists is the
    adjugate over a constant, and a cofactor leaves out one row and one
    column, so its degree is at most the sum of the column degrees less
    the smallest one, and likewise for rows; raises ValueError when m(0) is
    singular or the iteration passes that bound (the determinant is not a
    nonzero constant).
    """
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    chart = m[0][0].chart
    zeros = (0,) * chart.ncoords
    if x0 is None:
        _, x0 = invert_scalar_matrix(
            [[e.terms.get(zeros, ExactScalar.zero()) for e in row]
             for row in m])
        if x0 is None:
            raise ValueError("constant term of the matrix is singular; "
                             "no polynomial inverse")
    degree = [[max(map(sum, p.terms), default=0) for p in row] for row in m]
    rows = [max(ds) for ds in degree]
    cols = [max(ds) for ds in zip(*degree)]
    bound = min(sum(rows) - min(rows), sum(cols) - min(cols))
    one = Polynomial.const(chart, ExactScalar.one())
    zero = Polynomial.zero(chart)
    identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
    minus_m = [[-p for p in row] for row in m]
    x = [[Polynomial(chart, {zeros: v}) for v in row] for row in x0]
    precision = 1
    while True:
        e = _mat_mul(x, minus_m, base=identity)
        if not any(p.terms for row in e for p in row):
            return x
        if precision > bound:
            raise ValueError(
                f"Newton inverse passed the degree bound {bound} without "
                "X*m = I; the determinant is not a nonzero constant")
        precision *= 2
        x = _mat_mul(e, x, precision, base=x)

