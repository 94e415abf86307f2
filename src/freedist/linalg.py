"""Exact linear algebra over Q(sqrt2) and its polynomial ring.

Everything here is dense-free where it matters: kernels and linear systems
work on sparse dicts, and a kernel is found block by block, over the sets
of columns that share row labels, pivoting on the row with the fewest
nonzeros and rebuilding a pivot's expression in the original columns only
when a dependent column needs it; determinants of polynomial matrices use a
column-by-column bitmask dynamic program so the common near-triangular frames
stay cheap; and inverses of polynomial matrices with constant determinant are
Newton-lifted from the inverse of their constant term, which a scalar
Gauss-Jordan reduction also gives together with its determinant.
"""

from __future__ import annotations

from operator import add
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .polynomials import Polynomial
from .scalars import ExactScalar


def kernel_of_columns(columns: Sequence[Dict[Hashable, ExactScalar]]
                      ) -> List[List[ExactScalar]]:
    """Basis of {c : sum_i c_i * columns[i] = 0}, as coefficient lists.

    Columns are sparse dicts keyed by arbitrary hashable row labels.  The
    returned vectors have one entry per column, in column order.  There is
    one vector per column that depends on the earlier ones: e_i minus the
    unique expression of column i in the earlier independent columns, in
    the order of i.  Since that expression is unique, neither the block
    split nor the pivot rows below change the result.

    Columns that share no nonzero row label, even through other columns,
    never meet in that expression, so the columns are split into such
    blocks (union-find over row labels) and each block is eliminated on
    its own.  Each column is reduced by the earlier pivots in turn; an
    independent column then pivots on its row label with the fewest
    nonzeros across the original columns (a static Markowitz count, which
    keeps fill-in low), ties broken by ``repr``.  Tails are lazy: the
    reduction records each column's multipliers and pivot inverse, and a
    pivot's expression in the original columns is rebuilt (and kept) only
    when a dependent column needs it, so a block with an empty kernel
    never forms one.
    """
    n = len(columns)
    parent = list(range(n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: Dict[Hashable, int] = {}
    count: Dict[Hashable, int] = {}
    for i, col in enumerate(columns):
        for k, v in col.items():
            if v:
                parent[root(i)] = root(owner.setdefault(k, i))
                count[k] = count.get(k, 0) + 1
    # pivot priority of a row label: its nonzero count, then its repr
    rank = {k: r for r, k in enumerate(
        sorted(count, key=lambda k: (count[k], repr(k))))}
    blocks: Dict[int, List[int]] = {}
    for i in range(n):
        blocks.setdefault(root(i), []).append(i)
    zero = ExactScalar.zero()
    kernel: Dict[int, List[ExactScalar]] = {}
    for block in blocks.values():
        # per pivot: row label, normalized reduced column, column index,
        # multipliers [(earlier pivot, c)], inverse of the pivot entry
        pivots: List[Tuple[Hashable, Dict[Hashable, ExactScalar], int,
                           List[Tuple[int, ExactScalar]], ExactScalar]] = []
        tails: Dict[int, Dict[int, ExactScalar]] = {}

        def combine(i: int, mults: List[Tuple[int, ExactScalar]]
                    ) -> Dict[int, ExactScalar]:
            """e_i - sum c * tail_q over the multipliers (q, c)."""
            out: Dict[int, ExactScalar] = {i: ExactScalar.one()}
            for q, c in mults:
                for k, v in tails[q].items():
                    w = out.get(k, zero) - c * v
                    if w:
                        out[k] = w
                    elif k in out:
                        del out[k]
            return out

        for i in block:
            vec = {k: v for k, v in columns[i].items() if v}
            mults: List[Tuple[int, ExactScalar]] = []
            for q, (pkey, pvec, _, _, _) in enumerate(pivots):
                c = vec.get(pkey)
                if c is None:
                    continue
                mults.append((q, c))
                for k, v in pvec.items():
                    w = vec.get(k, zero) - c * v
                    if w:
                        vec[k] = w
                    elif k in vec:
                        del vec[k]
            if not vec:
                # build the missing tails this needs: one descending pass
                # finds them (a pivot's multipliers name earlier pivots
                # only), and ascending order builds each after its own
                todo = {q for q, _ in mults if q not in tails}
                for q in range(max(todo, default=-1), -1, -1):
                    if q in todo:
                        todo.update(p for p, _ in pivots[q][3]
                                    if p not in tails)
                for q in sorted(todo):
                    _, _, iq, mq, inv = pivots[q]
                    tails[q] = {k: v * inv
                                for k, v in combine(iq, mq).items()}
                tail = combine(i, mults)
                kernel[i] = [tail.get(j, zero) for j in range(n)]
                continue
            pkey = min(vec, key=rank.__getitem__)
            inv = vec[pkey].inverse()
            pivots.append((pkey, {k: v * inv for k, v in vec.items()}, i,
                           mults, inv))
    return [kernel[i] for i in sorted(kernel)]


def solve_linear(rows: Sequence[Dict[int, ExactScalar]],
                 rhs: Sequence[Polynomial],
                 nunknowns: int) -> List[Polynomial]:
    """Solve a sparse exact linear system with polynomial right-hand sides.

    Requires the system to be consistent and of full column rank; raises
    ValueError otherwise.  Returns the unique solution as a list of
    polynomials indexed by unknown.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    # eliminated rows: pivot column -> (row dict with pivot coeff 1, rhs poly)
    elim: Dict[int, Tuple[Dict[int, ExactScalar], Polynomial]] = {}
    zero = ExactScalar.zero()
    for row0, b0 in zip(rows, rhs):
        row = {k: v for k, v in row0.items() if v}
        b = b0
        for pcol in sorted(set(row.keys()) & set(elim.keys())):
            c = row.get(pcol)
            if c is None or not c:
                continue
            prow, pb = elim[pcol]
            for k, v in prow.items():
                w = row.get(k, zero) - c * v
                if w:
                    row[k] = w
                elif k in row:
                    del row[k]
            b = b - pb.scale(c)
        if not row:
            if not b.is_zero():
                raise ValueError("inconsistent linear system")
            continue
        pcol = min(row.keys())
        inv = row[pcol].inverse()
        row = {k: v * inv for k, v in row.items()}
        b = b.scale(inv)
        # back-substitute into already-eliminated rows (full Gauss-Jordan)
        for qcol, (qrow, qb) in list(elim.items()):
            c = qrow.get(pcol)
            if c is None or not c:
                continue
            for k, v in row.items():
                w = qrow.get(k, zero) - c * v
                if w:
                    qrow[k] = w
                elif k in qrow:
                    del qrow[k]
            elim[qcol] = (qrow, qb - b.scale(c))
        elim[pcol] = (row, b)
    missing = [j for j in range(nunknowns) if j not in elim]
    if missing:
        raise ValueError(
            f"linear system does not determine unknowns {missing[:5]}"
            + ("..." if len(missing) > 5 else ""))
    return [elim[j][1] for j in range(nunknowns)]


class FactoredSystem:
    """A constant-coefficient sparse system factored once for many solves.

    Rows map unknown indices to scalars.  Requires full column rank (raises
    ValueError otherwise); redundant rows are allowed and every solve
    verifies consistency of its right-hand side exactly.
    """

    def __init__(self, rows: Sequence[Dict[int, ExactScalar]],
                 nunknowns: int):
        self.rows = [dict(r) for r in rows]
        self.nunknowns = nunknowns
        zero = ExactScalar.zero()
        # Gauss-Jordan over [M | I]; tails live in row-index space.
        elim: Dict[int, Tuple[Dict[int, ExactScalar],
                              Dict[int, ExactScalar]]] = {}
        for ridx, row0 in enumerate(self.rows):
            row = {k: v for k, v in row0.items() if v}
            tail: Dict[int, ExactScalar] = {ridx: ExactScalar.one()}
            for pcol in sorted(set(row) & set(elim)):
                c = row.get(pcol)
                if c is None or not c:
                    continue
                prow, ptail = elim[pcol]
                for k, v in prow.items():
                    w = row.get(k, zero) - c * v
                    if w:
                        row[k] = w
                    elif k in row:
                        del row[k]
                for k, v in ptail.items():
                    w = tail.get(k, zero) - c * v
                    if w:
                        tail[k] = w
                    elif k in tail:
                        del tail[k]
            if not row:
                continue  # redundant row; consistency is checked per solve
            pcol = min(row.keys())
            inv = row[pcol].inverse()
            row = {k: v * inv for k, v in row.items()}
            tail = {k: v * inv for k, v in tail.items()}
            for qcol, (qrow, qtail) in list(elim.items()):
                c = qrow.get(pcol)
                if c is None or not c:
                    continue
                for k, v in row.items():
                    w = qrow.get(k, zero) - c * v
                    if w:
                        qrow[k] = w
                    elif k in qrow:
                        del qrow[k]
                for k, v in tail.items():
                    w = qtail.get(k, zero) - c * v
                    if w:
                        qtail[k] = w
                    elif k in qtail:
                        del qtail[k]
            elim[pcol] = (row, tail)
        missing = [j for j in range(nunknowns) if j not in elim]
        if missing:
            raise ValueError(
                f"linear system does not determine unknowns {missing[:5]}"
                + ("..." if len(missing) > 5 else ""))
        # After full Gauss-Jordan each pivot row reads x_j = tail . rhs.
        self._op: List[Dict[int, ExactScalar]] = [
            elim[j][1] for j in range(nunknowns)]

    def solve(self, rhs: Sequence[Polynomial]) -> List[Polynomial]:
        if len(rhs) != len(self.rows):
            raise ValueError("row/rhs length mismatch")
        if not rhs:
            raise ValueError("empty system")
        chart = rhs[0].chart
        xs: List[Polynomial] = []
        for j in range(self.nunknowns):
            acc = Polynomial.zero(chart)
            for r, c in self._op[j].items():
                acc = acc + rhs[r].scale(c)
            xs.append(acc)
        for row, b in zip(self.rows, rhs):
            acc = Polynomial.zero(chart)
            for jj, c in row.items():
                acc = acc + xs[jj].scale(c)
            if acc != b:
                raise ValueError("inconsistent linear system")
        return xs


def _popcount_above(mask: int, r: int) -> int:
    return bin(mask >> (r + 1)).count("1")


def poly_det(m: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix (bitmask column DP)."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    chart = m[0][0].chart
    states: Dict[int, Polynomial] = {0: Polynomial.const(
        chart, ExactScalar.one())}
    for c in range(n):
        nxt: Dict[int, Polynomial] = {}
        for mask, val in states.items():
            for r in range(n):
                if mask & (1 << r):
                    continue
                e = m[r][c]
                if e.is_zero():
                    continue
                term = val * e
                if _popcount_above(mask, r) % 2:
                    term = -term
                nm = mask | (1 << r)
                if nm in nxt:
                    nxt[nm] = nxt[nm] + term
                else:
                    nxt[nm] = term
        states = {k: v for k, v in nxt.items() if not v.is_zero()}
        if not states:
            return Polynomial.zero(chart)
    return states.get((1 << n) - 1, Polynomial.zero(chart))


def invert_scalar_matrix(m: Sequence[Sequence[ExactScalar]]
                         ) -> Tuple[ExactScalar,
                                    Optional[List[List[ExactScalar]]]]:
    """Determinant and inverse of a square scalar matrix, by one exact
    Gauss-Jordan reduction of [m | I]; the inverse is None when the
    determinant is zero."""
    n = len(m)
    a = [list(row) + [ExactScalar.one() if j == i else ExactScalar.zero()
                      for j in range(n)] for i, row in enumerate(m)]
    det = ExactScalar.one()
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return ExactScalar.zero(), None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k]
        inv = a[k][k].inverse()
        a[k] = [v * inv for v in a[k]]
        for r in range(n):
            f = a[r][k]
            if r == k or not f:
                continue
            a[r] = [v - f * w for v, w in zip(a[r], a[k])]
    return det, [row[n:] for row in a]


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
    returned X satisfies X*m = I exactly.  An inverse that exists has
    degree at most (n-1)*deg(m); raises ValueError when m(0) is singular or
    the iteration passes that bound (the determinant is not constant).
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
    bound = (n - 1) * max((sum(e) for row in m for p in row
                           for e in p.terms), default=0)
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
