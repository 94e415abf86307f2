"""Exact linear algebra over Q(sqrt2) and its polynomial ring.

Kernels and linear systems share one sparse elimination core,
``_eliminate``: it splits the vectors into blocks that share no label,
reduces each block's vectors in order, pivoting on the label with the
fewest nonzeros, and records each pivot's multipliers, so that a pivot's
expression in the original vectors (its tail) is rebuilt only where it is
needed.  ``kernel_of_columns`` reads the kernel off the dependent columns'
tails; ``FactoredSystem`` back-substitutes over the pivots' tails once per
system and then solves each polynomial right-hand side by one sparse
combination per unknown; ``invert_scalar_matrix`` does the same
back-substitution for a square scalar matrix and reads its determinant off
the pivots.  Inverses of polynomial matrices with constant determinant are
Newton-lifted from the inverse of their constant term, up to the cofactor
degree bound: lifting either reaches the exact inverse within it, which
proves the determinant a nonzero constant, or passes it, which refutes
that.
"""

from __future__ import annotations

from operator import add
from typing import (Dict, Hashable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .polynomials import Chart, Polynomial
from .scalars import ExactScalar


Multipliers = List[Tuple[int, ExactScalar]]
Pivot = Tuple[Hashable, Dict[Hashable, ExactScalar], int, Multipliers,
              ExactScalar]
Tails = Dict[int, Dict[int, ExactScalar]]
Block = Tuple[List[Pivot], List[Tuple[int, Multipliers]]]


def _accumulate(dst: Dict[Hashable, ExactScalar], c: ExactScalar,
                src: Dict[Hashable, ExactScalar]) -> None:
    """dst += c * src, dropping the entries that cancel."""
    for k, v in src.items():
        old = dst.get(k)
        w = c * v if old is None else old + c * v
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)


def _eliminate(vectors: Sequence[Dict[Hashable, ExactScalar]]
               ) -> Iterator[Block]:
    """Forward elimination of sparse vectors, block by block.

    Vectors that share no nonzero label, even through other vectors, never
    meet, so they are split into blocks (union-find over labels) and each
    block is eliminated on its own, its vectors in index order.  Each
    vector is reduced by the block's earlier pivots in turn; if anything
    is left, it pivots on its label with the fewest nonzeros across the
    original vectors (a static Markowitz count, which keeps fill-in low;
    Duff, Erisman & Reid, *Direct Methods for Sparse Matrices*, ch. 7),
    ties broken by ``repr``.  A pivot's reduced vector has no entry at an
    earlier pivot's label.

    Yields per block its pivots, as (label, normalized reduced vector,
    vector index, multipliers [(earlier pivot, c)], inverse of the pivot
    entry), and its dependent vectors, as (vector index, multipliers).
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
        dependent: List[Tuple[int, Multipliers]] = []
        for i in block:
            vec = {k: v for k, v in vectors[i].items() if v}
            mults: Multipliers = []
            for q, (pkey, pvec, _, _, _) in enumerate(pivots):
                c = vec.get(pkey)
                if c is not None:
                    mults.append((q, c))
                    _accumulate(vec, -c, pvec)
            if not vec:
                dependent.append((i, mults))
                continue
            pkey = min(vec, key=rank.__getitem__)
            inv = vec[pkey].inverse()
            pivots.append((pkey, {k: v * inv for k, v in vec.items()}, i,
                           mults, inv))
        yield pivots, dependent


def _combine(i: int, mults: Multipliers, tails: Tails
             ) -> Dict[int, ExactScalar]:
    """e_i - sum c * tails[q] over the multipliers (q, c)."""
    out: Dict[int, ExactScalar] = {i: ExactScalar.one()}
    for q, c in mults:
        _accumulate(out, -c, tails[q])
    return out


def _build_tails(pivots: List[Pivot], wanted: Iterable[int],
                 tails: Tails) -> None:
    """Add to ``tails`` each wanted pivot's reduced vector as a combination
    of the original vectors, and every tail that one needs first."""
    # one descending pass finds the missing tails (a pivot's multipliers
    # name earlier pivots only); ascending order builds each after its own
    todo = {q for q in wanted if q not in tails}
    for q in range(max(todo, default=-1), -1, -1):
        if q in todo:
            todo.update(p for p, _ in pivots[q][3] if p not in tails)
    for q in sorted(todo):
        _, _, iq, mq, inv = pivots[q]
        tails[q] = {k: v * inv for k, v in _combine(iq, mq, tails).items()}


def kernel_of_columns(columns: Sequence[Dict[Hashable, ExactScalar]]
                      ) -> List[List[ExactScalar]]:
    """Basis of {c : sum_i c_i * columns[i] = 0}, as coefficient lists.

    Columns are sparse dicts keyed by arbitrary hashable row labels.  The
    returned vectors have one entry per column, in column order.  There is
    one vector per column that depends on the earlier ones: e_i minus the
    unique expression of column i in the earlier independent columns, in
    the order of i.  Since that expression is unique, neither the block
    split nor the pivot rows of ``_eliminate`` change the result.  Tails
    are lazy: a pivot's expression in the original columns is built only
    when a dependent column needs it, so a block with an empty kernel
    never forms one.
    """
    n = len(columns)
    zero = ExactScalar.zero()
    kernel: Dict[int, List[ExactScalar]] = {}
    for pivots, dependent in _eliminate(columns):
        tails: Tails = {}
        for i, mults in dependent:
            _build_tails(pivots, (q for q, _ in mults), tails)
            tail = _combine(i, mults, tails)
            kernel[i] = [tail.get(j, zero) for j in range(n)]
    return [kernel[i] for i in sorted(kernel)]


def _solution_operator(blocks: List[List[Pivot]]
                       ) -> Dict[Hashable, Dict[int, ExactScalar]]:
    """Per pivot label u, the combination of right-hand sides that gives
    x[u] for every consistent M x = b, when every label is a pivot label.

    Each pivot's reduced vector rho_q, with label u_q, equals tail_q . M
    (tail_q over vector indices), so x[u_q] = tail_q . b - sum_{k != u_q}
    rho_q[k] x[k]; rho_q names later pivots' labels only, so
    back-substitution runs over the pivots in reverse order.
    """
    op: Dict[Hashable, Dict[int, ExactScalar]] = {}
    for pivots in blocks:
        tails: Tails = {}
        _build_tails(pivots, range(len(pivots)), tails)
        for q in range(len(pivots) - 1, -1, -1):
            pkey, pvec, _, _, _ = pivots[q]
            x = dict(tails[q])
            for k, v in pvec.items():
                if k != pkey:
                    _accumulate(x, -v, op[k])
            op[pkey] = x
    return op


def _poly_sum(chart_: Chart,
              pairs: Iterable[Tuple[Polynomial, ExactScalar]]) -> Polynomial:
    """sum c * p over the pairs (p, c), as one Polynomial."""
    acc: Dict[Hashable, ExactScalar] = {}
    for p, c in pairs:
        _accumulate(acc, c, p.terms)
    return Polynomial(chart_, acc)


class FactoredSystem:
    """A constant-coefficient sparse system factored once for many solves.

    Rows map unknown indices to scalars.  ``_eliminate`` factors the rows
    as vectors keyed by unknown; every unknown must become a pivot label
    (full column rank; raises ValueError otherwise), and the dependent rows
    are the redundant ones.  ``_solution_operator`` back-substitutes over
    the pivots once, giving each unknown as a fixed combination of
    right-hand sides; a solve forms that combination, one term dict per
    unknown, and verifies every row against its right-hand side exactly.
    """

    def __init__(self, rows: Sequence[Dict[int, ExactScalar]],
                 nunknowns: int):
        self.rows = [dict(r) for r in rows]
        self.nunknowns = nunknowns
        blocks = [pivots for pivots, _ in _eliminate(self.rows)]
        labels = {p[0] for pivots in blocks for p in pivots}
        missing = [j for j in range(nunknowns) if j not in labels]
        if missing:
            raise ValueError(
                f"linear system does not determine unknowns {missing[:5]}"
                + ("..." if len(missing) > 5 else ""))
        op = _solution_operator(blocks)
        self._op = [op[j] for j in range(nunknowns)]

    def solve(self, rhs: Sequence[Polynomial]) -> List[Polynomial]:
        if len(rhs) != len(self.rows):
            raise ValueError("row/rhs length mismatch")
        if not rhs:
            raise ValueError("empty system")
        chart_ = rhs[0].chart
        xs = [_poly_sum(chart_, ((rhs[r], c) for r, c in op.items()))
              for op in self._op]
        for row, b in zip(self.rows, rhs):
            lhs = _poly_sum(chart_, ((xs[j], c) for j, c in row.items()))
            if lhs != b:
                raise ValueError("inconsistent linear system")
        return xs


def invert_scalar_matrix(m: Sequence[Sequence[ExactScalar]]
                         ) -> Tuple[ExactScalar,
                                    Optional[List[List[ExactScalar]]]]:
    """Determinant and inverse of a square scalar matrix, by ``_eliminate``
    on its rows; the inverse is None when the determinant is zero.

    Eliminating a row subtracts earlier rows only, so the reduced rows keep
    the determinant of m, and they are triangular once the columns are put
    in pivot order: det m is the sign of the permutation (row -> its pivot
    column) times the product of the pivot entries.
    """
    n = len(m)
    eliminated = list(_eliminate([dict(enumerate(row)) for row in m]))
    if any(dependent for _, dependent in eliminated):
        return ExactScalar.zero(), None
    blocks = [pivots for pivots, _ in eliminated]
    column: Dict[int, Hashable] = {}
    inverse_product = ExactScalar.one()
    for pivots in blocks:
        for pkey, _, i, _, inv in pivots:
            column[i] = pkey
            inverse_product = inverse_product * inv
    cycles = 0
    for i in range(n):
        if i in column:
            cycles += 1
            j = i
            while j in column:
                j = column.pop(j)
    det = inverse_product.inverse()
    if (n - cycles) % 2:
        det = -det
    op = _solution_operator(blocks)
    zero = ExactScalar.zero()
    return det, [[op[j].get(r, zero) for r in range(n)] for j in range(n)]


def _mat_mul(a: Sequence[Sequence[Polynomial]],
             b: Sequence[Sequence[Polynomial]],
             below: Optional[int] = None) -> List[List[Polynomial]]:
    """Product of square polynomial matrices, skipping zero entries; with
    ``below``, only the terms of total degree < below are formed."""
    n = len(a)
    chart = a[0][0].chart
    b_terms = [[[(e, sum(e), c) for e, c in b[k][j].terms.items()]
                for j in range(n)] for k in range(n)]
    out = []
    for i in range(n):
        a_terms = [(k, [(e, sum(e), c) for e, c in a[i][k].terms.items()])
                   for k in range(n) if a[i][k].terms]
        row = []
        for j in range(n):
            acc: Dict[Tuple[int, ...], ExactScalar] = {}
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
            row.append(Polynomial(chart, acc))
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
    precision p and set X = X + E*X truncated to total degree < p.  The
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
    x = [[Polynomial(chart, {zeros: v}) for v in row] for row in x0]
    precision = 1
    while True:
        e = [[(one if i == j else zero) - p for j, p in enumerate(row)]
             for i, row in enumerate(_mat_mul(x, m))]
        if not any(p.terms for row in e for p in row):
            return x
        if precision > bound:
            raise ValueError(
                f"Newton inverse passed the degree bound {bound} without "
                "X*m = I; the determinant is not a nonzero constant")
        precision *= 2
        x = [[p + q for p, q in zip(xr, er)]
             for xr, er in zip(x, _mat_mul(e, x, precision))]


def signature_of_symmetric(m: Sequence[Sequence[ExactScalar]]
                           ) -> Tuple[int, int]:
    """(positive, negative) inertia of a symmetric matrix over Q(sqrt2),
    computed by exact congruence diagonalization."""
    n = len(m)
    a = [[m[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    pos = neg = 0
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            found = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j]:
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                break  # remaining block is zero
            i, j = found
            for t in range(n):
                a[i][t] = a[i][t] + a[j][t]
            for t in range(n):
                a[t][i] = a[t][i] + a[t][j]
            piv = i
        if piv != k:
            a[piv], a[k] = a[k], a[piv]
            for t in range(n):
                a[t][piv], a[t][k] = a[t][k], a[t][piv]
        d = a[k][k]
        if d.sign() > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            f = a[r][k] / d
            if not f:
                continue
            for t in range(n):
                a[r][t] = a[r][t] - f * a[k][t]
            for t in range(n):
                a[t][r] = a[t][r] - f * a[t][k]
    return pos, neg
