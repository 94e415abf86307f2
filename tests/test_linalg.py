"""Exact kernels, linear solves, determinants and inverses."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (constant_term, coordinate, harmonic_system, poly_det,
                      reference_kernel_of_columns,
                      reference_solution_operator, whole_rank_system)
from freedist.linalg import (FactoredSystem, _eliminate, _kernel,
                             invert_scalar_matrix, kernel_of_columns,
                             poly_inverse)
from freedist.polynomials import Polynomial, chart
from freedist.scalars import ExactScalar

CH = chart(3)


def sc(v):
    return ExactScalar.of(v)


def const(v):
    return Polynomial.const(CH, sc(v))


def test_kernel_of_independent_columns_is_trivial():
    cols = [{"r1": sc(1)}, {"r2": sc(1)}, {"r1": sc(1), "r2": sc(1)}]
    # third column = first + second: kernel is one-dimensional
    ker = kernel_of_columns(cols)
    assert len(ker) == 1
    v = ker[0]
    # the relation c0*col0 + c1*col1 + c2*col2 = 0 must hold exactly
    rows = {}
    for c, col in zip(v, cols):
        for k, w in col.items():
            rows[k] = rows.get(k, sc(0)) + c * w
    assert all(x.is_zero() for x in rows.values())
    assert any(not x.is_zero() for x in v)


def test_kernel_of_zero_columns_is_full():
    ker = kernel_of_columns([{}, {}])
    assert len(ker) == 2


def test_kernel_empty_input():
    assert kernel_of_columns([]) == []


@given(st.lists(st.lists(st.fractions(min_value=-5, max_value=5,
                                      max_denominator=4),
                         min_size=3, max_size=3),
                min_size=5, max_size=5))
@settings(deadline=None, max_examples=40)
def test_kernel_vectors_annihilate_columns(rows):
    cols = []
    for j in range(3):
        col = {}
        for i in range(5):
            v = sc(rows[i][j])
            if not v.is_zero():
                col[i] = v
        cols.append(col)
    for vec in kernel_of_columns(cols):
        for i in range(5):
            acc = sc(0)
            for j in range(3):
                acc = acc + vec[j] * cols[j].get(i, sc(0))
            assert acc.is_zero()


def unsplit_kernel(columns):
    """Greedy elimination of all columns at once, pivots shared across
    blocks: the reference the block-split kernel_of_columns must equal."""
    zero = sc(0)
    pivots = []
    kernel = []
    for i, col in enumerate(columns):
        vec = {k: v for k, v in col.items() if v}
        tail = {i: sc(1)}
        for pkey, pvec, ptail in pivots:
            c = vec.get(pkey)
            if c is None or not c:
                continue
            for src, dst in ((pvec, vec), (ptail, tail)):
                for k, v in src.items():
                    dst[k] = dst.get(k, zero) - c * v
                    if not dst[k]:
                        del dst[k]
        if not vec:
            kernel.append([tail.get(j, zero) for j in range(len(columns))])
            continue
        pkey = min(vec.keys(), key=repr)
        inv = vec[pkey].inverse()
        pivots.append((pkey, {k: v * inv for k, v in vec.items()},
                       {k: v * inv for k, v in tail.items()}))
    return kernel


SMALL = st.builds(lambda a, b: ExactScalar(a, b),
                  st.fractions(min_value=-2, max_value=2, max_denominator=3),
                  st.integers(-1, 1))


@st.composite
def block_diagonal_columns(draw):
    """Columns in up to four blocks with disjoint row labels (entries may
    be zero-valued, columns may be empty), shuffled across blocks."""
    cols = []
    for b in range(draw(st.integers(1, 4))):
        nrows = draw(st.integers(1, 3))
        for _ in range(draw(st.integers(0, 5))):
            rows = draw(st.lists(st.integers(0, nrows - 1), max_size=nrows,
                                 unique=True))
            cols.append({(b, r): draw(SMALL) for r in rows})
    return draw(st.permutations(cols))


@given(block_diagonal_columns())
@settings(deadline=None, max_examples=80)
def test_kernel_blocks_match_unsplit_elimination(cols):
    assert kernel_of_columns(cols) == unsplit_kernel(cols)


R2_ENTRIES = st.builds(lambda a, b: ExactScalar(a, b), st.integers(-2, 2),
                      st.sampled_from([0, 0, 1, -1, Fraction(1, 2)]))


@st.composite
def skewed_block_columns(draw):
    """Columns in up to three blocks of up to 8 rows and 12 columns, with
    sqrt2 entries.  A block's rows are drawn with skewed frequencies in a
    drawn order, so the rows' nonzero counts and their repr order
    disagree; about half the columns are combinations of earlier columns
    of the block."""
    zero = sc(0)
    cols = []
    for b in range(draw(st.integers(1, 3))):
        nrows = draw(st.integers(1, 8))
        order = draw(st.permutations(range(nrows)))
        pool = [r for n, r in enumerate(order) for _ in range(nrows - n)]
        block = []
        for _ in range(draw(st.integers(0, 12))):
            if block and draw(st.booleans()):
                col = {}
                for p in draw(st.lists(st.integers(0, len(block) - 1),
                                       min_size=1, max_size=3)):
                    f = draw(R2_ENTRIES)
                    for k, v in block[p].items():
                        col[k] = col.get(k, zero) + f * v
            else:
                rows = draw(st.lists(st.sampled_from(pool), max_size=4))
                col = {(b, "row", r): draw(R2_ENTRIES) for r in rows}
            block.append(col)
        cols.extend(block)
    return draw(st.permutations(cols))


@given(skewed_block_columns())
@settings(deadline=None, max_examples=80)
def test_kernel_skewed_blocks_match_unsplit_elimination(cols):
    assert kernel_of_columns(cols) == unsplit_kernel(cols)


@given(skewed_block_columns(), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=60)
def test_kernel_ignores_row_label_names(cols, rng):
    """Renaming the row labels reorders both the count ties and the repr
    ranks, so the pivot rows change; the kernel must not."""
    labels = sorted({k for col in cols for k in col}, key=repr)
    names = [f"r{n:03d}" for n in range(len(labels))]
    rng.shuffle(names)
    rename = dict(zip(labels, names))
    renamed = [{rename[k]: v for k, v in col.items()} for col in cols]
    assert kernel_of_columns(renamed) == kernel_of_columns(cols)


@pytest.mark.parametrize("h", range(0, 7))
def test_kernel_matches_unsplit_on_harmonic_systems(h):
    keys, cols = harmonic_system(4, 2, h)
    assert keys
    assert kernel_of_columns(cols) == unsplit_kernel(cols)


@pytest.mark.parametrize("l,k,h", [(4, 2, 1), (5, 1, -1), (5, 2, 1)])
def test_sparse_kernel_holds_the_nonzeros_of_the_dense_one(l, k, h):
    """Each sparse kernel vector is the dense vector's nonzero entries,
    column indices ascending, in the same vector order."""
    _, cols = harmonic_system(l, k, h)
    sparse = _kernel(cols)
    assert sparse
    assert sparse == [{j: v for j, v in enumerate(vec) if v}
                      for vec in kernel_of_columns(cols)]
    assert all(list(vec) == sorted(vec) for vec in sparse)


def test_kernel_vectors_ordered_by_dependent_column():
    r2 = ExactScalar.sqrt2()
    cols = [{"a": sc(1)}, {"b": r2}, {"b": sc(3)}, {"a": sc(2), "z": sc(0)},
            {}, {"b": sc(0)}, {"a": sc(1), "c": sc(1)}]
    ker = kernel_of_columns(cols)
    assert ker == unsplit_kernel(cols)
    assert [max(j for j, v in enumerate(vec) if v) for vec in ker] \
        == [2, 3, 4, 5]
    assert ker[0] == [sc(0), -r2 * sc(3) / sc(2), sc(1)] + [sc(0)] * 4
    assert ker[1] == [sc(-2), sc(0), sc(0), sc(1)] + [sc(0)] * 3


class GaussJordanSystem:
    """Full Gauss-Jordan over [M | I], pivots in row order on the smallest
    unknown, back-substituted into every earlier pivot row: the reference
    FactoredSystem must equal."""

    def __init__(self, rows, nunknowns):
        self.rows = [dict(r) for r in rows]
        self.nunknowns = nunknowns
        zero = sc(0)

        def sub(dst, c, src):
            for k, v in src.items():
                w = dst.get(k, zero) - c * v
                if w:
                    dst[k] = w
                elif k in dst:
                    del dst[k]

        elim = {}
        for ridx, row0 in enumerate(self.rows):
            row = {k: v for k, v in row0.items() if v}
            tail = {ridx: sc(1)}
            for pcol in sorted(set(row) & set(elim)):
                c = row.get(pcol)
                if not c:
                    continue
                prow, ptail = elim[pcol]
                sub(row, c, prow)
                sub(tail, c, ptail)
            if not row:
                continue
            pcol = min(row)
            inv = row[pcol].inverse()
            row = {k: v * inv for k, v in row.items()}
            tail = {k: v * inv for k, v in tail.items()}
            for qrow, qtail in elim.values():
                c = qrow.get(pcol)
                if c:
                    sub(qrow, c, row)
                    sub(qtail, c, tail)
            elim[pcol] = (row, tail)
        missing = [j for j in range(nunknowns) if j not in elim]
        if missing:
            raise ValueError(f"linear system does not determine {missing}")
        self.op = [elim[j][1] for j in range(nunknowns)]

    def solve(self, rhs):
        chart_ = rhs[0].chart
        xs = []
        for op in self.op:
            acc = Polynomial.zero(chart_)
            for r, c in op.items():
                acc = acc + rhs[r].scale(c)
            xs.append(acc)
        for row, b in zip(self.rows, rhs):
            acc = Polynomial.zero(chart_)
            for j, c in row.items():
                acc = acc + xs[j].scale(c)
            if acc != b:
                raise ValueError("inconsistent linear system")
        return xs


def test_factored_system_unique_solution():
    # x0 + x1 = 3, x0 - x1 = 1  ->  x0 = 2, x1 = 1
    rows = [{0: sc(1), 1: sc(1)}, {0: sc(1), 1: sc(-1)}]
    xs = FactoredSystem(rows, range(2)).solve([const(3), const(1)])
    assert xs == [const(2), const(1)]


def test_factored_system_polynomial_rhs_redundant_row():
    x1 = coordinate(CH, CH.x_index(1))
    rows = [{0: sc(2)}, {0: sc(2)}]  # redundant row
    xs = FactoredSystem(rows, range(1)).solve([x1, x1])
    assert xs == [x1.scale(Fraction(1, 2))]


def test_factored_system_rejects_inconsistent():
    rows = [{0: sc(1)}, {0: sc(1)}]
    with pytest.raises(ValueError, match="inconsistent"):
        FactoredSystem(rows, range(1)).solve([const(1), const(2)])


def test_factored_system_rejects_underdetermined():
    with pytest.raises(ValueError, match=r"does not determine unknowns \[1\]"):
        FactoredSystem([{0: sc(1)}], range(2))


def test_factored_system_matches_direct_solve():
    rows = [{0: sc(1), 1: sc(2)}, {1: sc(1)}, {0: sc(1), 1: sc(3)}]
    fs = FactoredSystem(rows, range(2))
    oracle = GaussJordanSystem(rows, 2)
    for rhs, want in (([const(5), const(1), const(6)], [3, 1]),
                      ([const(0), const(7), const(7)], [-14, 7])):
        assert fs.solve(rhs) == oracle.solve(rhs) == [const(w) for w in want]


def test_factored_system_checks_consistency_per_solve():
    rows = [{0: sc(1)}, {0: sc(1)}]
    fs = FactoredSystem(rows, range(1))
    assert fs.solve([const(4), const(4)]) == [const(4)]
    with pytest.raises(ValueError):
        fs.solve([const(4), const(5)])


def random_poly(rng, ch):
    """A sparse polynomial of degree <= 2 with small Q(sqrt2) coefficients;
    zero about half the time."""
    terms = {}
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            e = [0] * ch.ncoords
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(ch.ncoords)] += 1
            terms[tuple(e)] = ExactScalar(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                rng.choice([0, 0, 1, -1]))
    return Polynomial(ch, terms)


def solve_outcome(system, rhs):
    try:
        return system.solve(rhs)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("l", [4, 5])
@pytest.mark.parametrize("degree", [1, 2])
def test_factored_system_matches_gauss_jordan_on_normalization_systems(
        l, degree):
    """Consistent right-hand sides b = M x give back x on both; one row of
    b shifted by a constant gives the same outcome on both."""
    _, _, fs = whole_rank_system(l, degree)
    oracle = GaussJordanSystem(fs.rows, len(fs.unknowns))
    ch = chart(l)
    rng = random.Random(1000 * l + degree)
    for _ in range(2):
        x = [random_poly(rng, ch) for _ in range(len(fs.unknowns))]
        rhs = []
        for row in fs.rows:
            acc = Polynomial.zero(ch)
            for j, c in row.items():
                acc = acc + x[j].scale(c)
            rhs.append(acc)
        assert fs.solve(rhs) == oracle.solve(rhs) == x
        r = rng.randrange(len(rhs))
        rhs[r] = rhs[r] + Polynomial.const(ch, 1)
        assert solve_outcome(fs, rhs) == solve_outcome(oracle, rhs)


@pytest.mark.parametrize("l", [4, 5, 6, 7])
@pytest.mark.parametrize("degree", [1, 2])
def test_normalization_operators_match_reference_core(l, degree):
    """The integer systems give the reference core's solution operator:
    the same values, each right-hand side's unknowns in the same order."""
    _, _, fs = whole_rank_system(l, degree)
    want = reference_solution_operator(fs.rows, len(fs.unknowns))
    assert fs._op == want
    assert [list(op) for op in fs._op] == [list(op) for op in want]


def test_zero_right_hand_sides_give_zero_unknowns():
    zero = Polynomial.zero(CH)
    fs = FactoredSystem([{0: sc(1)}, {1: sc(2)}, {0: sc(1), 1: sc(1)}],
                        range(2))
    assert fs.solve([zero] * 3) == [zero] * 2
    _, _, fs = whole_rank_system(4, 2)
    assert fs.solve([Polynomial.zero(chart(4))] * len(fs.rows)) \
        == [Polynomial.zero(chart(4))] * len(fs.unknowns)


def test_solve_checks_rows_the_solution_never_reads():
    """The solve reads only the nonzero right-hand sides and sums only
    the nonzero unknowns, but still checks every row: a right-hand side
    off only on the redundant row, or nonzero only on a row whose unknowns
    all come out zero, is inconsistent."""
    x1 = coordinate(CH, 0)
    zero = Polynomial.zero(CH)
    fs = FactoredSystem([{0: sc(1)}, {1: sc(2)}, {0: sc(1), 1: sc(1)}],
                        range(2))
    assert fs.solve([x1, x1.scale(2), x1 + x1]) == [x1, x1]
    for rhs in ([x1, zero, zero], [zero, zero, const(1)]):
        with pytest.raises(ValueError, match="^inconsistent linear system$"):
            fs.solve(rhs)
    _, _, fs = whole_rank_system(4, 2)
    ch = chart(4)
    redundant = [r for r, op in enumerate(fs._op) if not op]
    assert redundant
    for r in redundant[:3]:
        rhs = [Polynomial.zero(ch)] * len(fs.rows)
        rhs[r] = Polynomial.const(ch, 1)
        assert solve_outcome(fs, rhs) == "inconsistent linear system"


@pytest.mark.parametrize("l", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_kernel_matches_reference_core_on_harmonic_systems(l, k):
    for h in range(-3, 7):
        _, cols = harmonic_system(l, k, h)
        assert kernel_of_columns(cols) == reference_kernel_of_columns(cols)


FRACTIONAL_R2 = st.builds(
    ExactScalar, st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]))


@st.composite
def sparse_r2_systems(draw):
    """Sparse rows over Q(sqrt2) in up to 6 unknowns, with fractional and
    pure-sqrt2 entries; about half the rows are combinations of earlier
    rows, and rows that leave unknowns out make the system singular or
    underdetermined."""
    n = draw(st.integers(1, 6))
    zero = sc(0)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            row = {}
            for p in draw(st.lists(st.integers(0, len(rows) - 1),
                                   min_size=1, max_size=3)):
                f = draw(FRACTIONAL_R2)
                for j, v in rows[p].items():
                    row[j] = row.get(j, zero) + f * v
        else:
            row = {j: draw(FRACTIONAL_R2) for j in draw(st.lists(
                st.integers(0, n - 1), max_size=n, unique=True))}
        rows.append(row)
    return rows, n


@given(sparse_r2_systems())
@settings(deadline=None, max_examples=150)
def test_factored_system_and_kernel_match_reference_core(system):
    rows, n = system
    assert kernel_of_columns(rows) == reference_kernel_of_columns(rows)
    try:
        want = reference_solution_operator(rows, n)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            FactoredSystem(rows, range(n))
        return
    assert FactoredSystem(rows, range(n))._op == want


def assert_no_stored_zero(vectors):
    for pivots, dependent in _eliminate(vectors):
        for pkey, p, vec, tail, _ in pivots:
            assert p == (vec[0].get(pkey, 0), vec[1].get(pkey, 0)) != (0, 0)
            assert all(v for part in (*vec, *tail) for v in part.values())
        for _, tail in dependent:
            assert all(v for part in tail for v in part.values())


R2 = ExactScalar.sqrt2()
# pivots whose entry has zero rational part, among rational entries: row 0
# pivots on label 0 (count tie, repr order) with entry sqrt2, and row 1,
# scaled by that sqrt2 and reduced, on label 2 with a sqrt2 entry; in
# PIVOT_MINUS_2R2 row 0 pivots on label 0 (fewest nonzeros) with -2*sqrt2
PURE_R2_ROWS = [{0: R2, 1: sc(1)},
                {0: sc(1), 1: sc(3), 2: sc(Fraction(1, 2))},
                {0: sc(2), 1: sc(2) + R2, 2: sc(-1) - R2 * sc(2)}]
PIVOT_MINUS_2R2 = [{0: -R2 * sc(2), 1: sc(1)}, {0: sc(3), 1: R2},
                   {0: sc(1), 1: sc(-2)}, {1: R2 * sc(2)}]


def test_pure_sqrt2_pivots_store_no_zero():
    (pivots, _), = _eliminate(PURE_R2_ROWS)
    assert [(pkey, p[0]) for pkey, p, _, _, _ in pivots[:2]] \
        == [(0, 0), (2, 0)]
    (pivots, dependent), = _eliminate(PIVOT_MINUS_2R2)
    assert pivots[0][:2] == (0, (0, -2)) and len(dependent) == 2
    assert_no_stored_zero(PURE_R2_ROWS)
    assert_no_stored_zero(PIVOT_MINUS_2R2)
    assert_no_stored_zero([{"a": R2, "b": sc(2)}, {"a": sc(1), "b": R2}])


def test_pure_sqrt2_pivot_solves_and_kernels():
    for rows, n in ((PURE_R2_ROWS, 3), (PIVOT_MINUS_2R2[:2], 2)):
        m = [[row.get(j, sc(0)) for j in range(n)] for row in rows]
        det, inv = invert_scalar_matrix(m)
        assert Polynomial.const(CH, det) == poly_det(
            [[Polynomial.const(CH, v) for v in row] for row in m])
        for i in range(n):
            for j in range(n):
                acc = sc(0)
                for k in range(n):
                    acc = acc + inv[i][k] * m[k][j]
                assert acc == sc(1 if i == j else 0)
    assert invert_scalar_matrix([[-R2 * sc(2), sc(1)], [sc(3), R2]])[0] \
        == sc(-7)
    fs = FactoredSystem(PURE_R2_ROWS, range(3))
    assert fs._op == reference_solution_operator(PURE_R2_ROWS, 3)
    x = [const(1), const(R2), const(Fraction(-1, 3))]
    rhs = [sum((x[j].scale(c) for j, c in row.items()),
               Polynomial.zero(CH)) for row in PURE_R2_ROWS]
    assert fs.solve(rhs) == x
    # a redundant row with a pure-sqrt2 pivot: column 3 is sqrt2 * column 0
    cols = PURE_R2_ROWS + [{0: sc(2), 1: R2}]
    assert kernel_of_columns(cols) == reference_kernel_of_columns(cols)
    assert kernel_of_columns(cols)[0] == [-R2, sc(0), sc(0), sc(1)]
    assert kernel_of_columns(PIVOT_MINUS_2R2) \
        == reference_kernel_of_columns(PIVOT_MINUS_2R2)
    assert FactoredSystem(PIVOT_MINUS_2R2, range(2))._op \
        == reference_solution_operator(PIVOT_MINUS_2R2, 2)
    with pytest.raises(ValueError, match=r"does not determine unknowns"):
        FactoredSystem(PURE_R2_ROWS[:1] + [{0: sc(-2) * R2, 1: sc(-2)}],
                       range(2))


def identity(n):
    return [[const(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Polynomial.zero(CH)
            for k in range(n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def cofactor_inverse(m):
    """Test oracle: inv[i][j] = (-1)^(i+j) * minor(j, i) / det."""
    n = len(m)
    inv_det = constant_term(poly_det(m)).inverse()
    out = [[None] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            minor = [[m[i][j] for j in range(n) if j != c]
                     for i in range(n) if i != r]
            d = poly_det(minor).scale(inv_det)
            out[c][r] = -d if (r + c) % 2 else d
    return out


@st.composite
def small_polys(draw):
    """A polynomial of degree <= 2 in x1..x3 with small integer terms."""
    p = Polynomial.zero(CH)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        term = const(draw(st.integers(min_value=-3, max_value=3)))
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            term = term * coordinate(
                CH, draw(st.integers(min_value=0, max_value=2)))
        p = p + term
    return p


@st.composite
def unimodular_matrices(draw):
    """Products of elementary matrices I + p*e_ij (i != j) with polynomial
    p and of constant diagonal scalings, so the determinant is a nonzero
    constant."""
    n = 3
    m = identity(n)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            i, j = draw(st.sampled_from([(i, j) for i in range(n)
                                         for j in range(n) if i != j]))
            factor = identity(n)
            factor[i][j] = draw(small_polys())
        else:
            factor = identity(n)
            i = draw(st.integers(min_value=0, max_value=n - 1))
            factor[i][i] = const(draw(st.sampled_from([-2, -1, 2, 3])))
        m = mat_mul(m, factor)
    return m


@given(unimodular_matrices())
@settings(deadline=None, max_examples=40)
def test_poly_inverse_matches_cofactor_oracle(m):
    inv = poly_inverse(m)
    assert mat_mul(m, inv) == identity(3)
    assert mat_mul(inv, m) == identity(3)
    assert inv == cofactor_inverse(m)


def test_poly_inverse_degree_guard_rejects_nonconstant_determinant():
    x1 = coordinate(CH, CH.x_index(1))
    x2 = coordinate(CH, CH.x_index(2))
    # det = 1 - x1*x2: m(0) = I is invertible, but the inverse is a power
    # series, so the iteration passes the cofactor degree bound 1.
    m = [[const(1), x1], [x2, const(1)]]
    with pytest.raises(ValueError, match="degree bound 1"):
        poly_inverse(m)
    with pytest.raises(ValueError, match="degree bound 0"):
        poly_inverse([[const(1) + x1]])


def test_poly_inverse_reaches_the_cofactor_bound():
    x1 = coordinate(CH, CH.x_index(1))
    zero = const(0)
    # unitriangular: the column degrees 0, 1, 1 bound every cofactor by
    # 1 + 1 = 2, and the corner entry of the inverse has degree exactly 2
    m = [[const(1), x1, zero], [zero, const(1), x1], [zero, zero, const(1)]]
    assert poly_inverse(m) == [[const(1), -x1, x1 * x1],
                               [zero, const(1), -x1],
                               [zero, zero, const(1)]]
    # closing the cycle makes det = 1 + x1^3; the bound stays 2
    m[2][0] = x1
    with pytest.raises(ValueError, match="degree bound 2 "):
        poly_inverse(m)


def test_poly_inverse_rejects_singular_constant_term():
    x1 = coordinate(CH, CH.x_index(1))
    with pytest.raises(ValueError, match="singular"):
        poly_inverse([[x1, const(1)], [const(0), const(1)]])


@given(st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                         min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(deadline=None, max_examples=40)
def test_invert_scalar_matrix(mat):
    m = [[sc(v) for v in row] for row in mat]
    det, inv = invert_scalar_matrix(m)
    assert Polynomial.const(CH, det) == poly_det(
        [[const(v) for v in row] for row in mat])
    if not det:
        assert inv is None
        return
    for i in range(3):
        for j in range(3):
            acc = sc(0)
            for k in range(3):
                acc = acc + inv[i][k] * m[k][j]
            assert acc == sc(1 if i == j else 0)


@st.composite
def sparse_square_matrices(draw):
    """Square matrices of size 1..6 with Q(sqrt2) entries, mostly zero, so
    that the rows fall into blocks and the pivots permute the columns."""
    n = draw(st.integers(1, 6))
    zero = sc(0)
    return [[draw(st.one_of(st.just(zero), st.just(zero), R2_ENTRIES))
             for _ in range(n)] for _ in range(n)]


@given(sparse_square_matrices())
@settings(deadline=None, max_examples=80)
def test_invert_sparse_scalar_matrix_matches_det_oracle(m):
    n = len(m)
    det, inv = invert_scalar_matrix(m)
    assert Polynomial.const(CH, det) == poly_det(
        [[Polynomial.const(CH, v) for v in row] for row in m])
    if not det:
        assert inv is None
        return
    for i in range(n):
        for j in range(n):
            acc = sc(0)
            for k in range(n):
                acc = acc + inv[i][k] * m[k][j]
            assert acc == sc(1 if i == j else 0)


def test_poly_det_with_polynomial_entries():
    x1 = coordinate(CH, CH.x_index(1))
    x2 = coordinate(CH, CH.x_index(2))
    m = [[const(1), x1], [x2, const(1)]]
    assert poly_det(m) == const(1) - x1 * x2


def test_poly_det_triangular():
    x1 = coordinate(CH, CH.x_index(1))
    m = [[const(2), x1, x1 * x1],
         [Polynomial.zero(CH), const(3), x1],
         [Polynomial.zero(CH), Polynomial.zero(CH), const(-1)]]
    assert poly_det(m) == const(-6)

