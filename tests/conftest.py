"""Shared frame builders and paths for the test suite."""

import os
import random
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Sequence

import pytest
from hypothesis import strategies as st

from freedist.algebra import (EVEN, ODD, Chain, _canonical_slots, _unit_term,
                              algebra)
from freedist.cohomology import _column, _term_keys
from freedist.geometry import DifferentialForm, VectorField
from freedist.linalg import _kernel
from freedist.polynomials import Polynomial, accumulate, add_product, chart
from freedist.scalars import ExactScalar

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def poly_value(p: Polynomial, point: Dict[int, ExactScalar]) -> ExactScalar:
    """Test oracle: a polynomial's value at {coordinate index: value};
    every coordinate that occurs must be assigned."""
    total = ExactScalar.zero()
    for e, c in p.terms.items():
        for idx, k in enumerate(e):
            for _ in range(k):
                c = c * point[idx]
        total = total + c
    return total


def form_value(form: DifferentialForm, *fields: VectorField) -> Polynomial:
    """Test oracle: a 1-form on one vector field or a 2-form on two, the
    coordinate sum of g v^c, or of g (v^d w^c - v^c w^d)."""
    if len(fields) != form.degree:
        raise ValueError("wrong number of field arguments")
    out: Dict = {}
    if form.degree == 1:
        for (c,), g in form.terms.items():
            add_product(out, g.terms, fields[0].components[c].terms)
        return Polynomial(form.chart, out)
    v, w = fields
    for (d, c), g in form.terms.items():
        t = v.components[d] * w.components[c] \
            - v.components[c] * w.components[d]
        add_product(out, g.terms, t.terms)
    return Polynomial(form.chart, out)


def poly_det(m: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Test oracle: determinant of a square polynomial matrix, by a
    column-by-column dynamic program over the sets of rows used so far.
    Exponential in the size; the package itself certifies unimodularity
    with the Newton inverse instead."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    chart_ = m[0][0].chart
    states: Dict[int, Polynomial] = {0: Polynomial.const(
        chart_, ExactScalar.one())}
    for c in range(n):
        nxt: Dict[int, Polynomial] = {}
        for mask, val in states.items():
            for r in range(n):
                if mask & (1 << r) or m[r][c].is_zero():
                    continue
                term = val * m[r][c]
                # sign: the rows already used that lie below row r
                if bin(mask >> (r + 1)).count("1") % 2:
                    term = -term
                nm = mask | (1 << r)
                nxt[nm] = nxt[nm] + term if nm in nxt else term
        states = {k: v for k, v in nxt.items() if not v.is_zero()}
        if not states:
            return Polynomial.zero(chart_)
    return states.get((1 << n) - 1, Polynomial.zero(chart_))


class ReferenceScalar:
    """Test oracle: a + b*sqrt2 held as two ``Fraction``s, with the textbook
    field formulas; ``ExactScalar``'s integer triple must agree with it."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return ReferenceScalar(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return ReferenceScalar(self.a - o.a, self.b - o.b)

    def __neg__(self):
        return ReferenceScalar(-self.a, -self.b)

    def __mul__(self, o):
        return ReferenceScalar(self.a * o.a + 2 * self.b * o.b,
                               self.a * o.b + self.b * o.a)

    def inverse(self):
        n = self.a * self.a - 2 * self.b * self.b
        return ReferenceScalar(self.a / n, -self.b / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __eq__(self, o):
        return self.a == o.a and self.b == o.b

    def sign(self):
        """Sign of a + b*sqrt2, comparing a^2 with 2b^2 when the parts'
        signs differ."""
        a, b = self.a, self.b
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa == sb or not sb:
            return sa or sb
        if not sa:
            return sb
        d = a * a - 2 * b * b
        return sa * ((d > 0) - (d < 0))

    def to_expr(self):
        def part(f):
            return (str(f.numerator) if f.denominator == 1
                    else f"{f.numerator}/{f.denominator}")

        if not (self.a or self.b):
            return "0"
        out = part(self.a) if self.a else ""
        if self.b:
            t = ("sqrt2" if self.b == 1 else "-sqrt2" if self.b == -1
                 else f"{part(self.b)}*sqrt2")
            out += ("+" if out and not t.startswith("-") else "") + t
        return out


# Test oracle: the same block-split, fewest-nonzero elimination in
# ExactScalar arithmetic, with normalized pivots and tails rebuilt from
# multipliers.  The package's fraction-free core must give the same kernels
# and solution operators.

def _ref_accumulate(dst, c, src):
    """dst += c * src, dropping the entries that cancel."""
    for k, v in src.items():
        old = dst.get(k)
        w = c * v if old is None else old + c * v
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)


def reference_eliminate(vectors):
    """Per block (union-find over labels), its pivots as (label,
    normalized reduced vector, index, multipliers, pivot inverse) and its
    dependent vectors as (index, multipliers); fewest-nonzero pivots, ties
    by repr."""
    n = len(vectors)
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner, count = {}, {}
    for i, vec in enumerate(vectors):
        for k, v in vec.items():
            if v:
                parent[root(i)] = root(owner.setdefault(k, i))
                count[k] = count.get(k, 0) + 1
    rank = {k: r for r, k in enumerate(
        sorted(count, key=lambda k: (count[k], repr(k))))}
    blocks = {}
    for i in range(n):
        blocks.setdefault(root(i), []).append(i)
    for block in blocks.values():
        pivots, dependent = [], []
        for i in block:
            vec = {k: v for k, v in vectors[i].items() if v}
            mults = []
            for q, (pkey, pvec, _, _, _) in enumerate(pivots):
                c = vec.get(pkey)
                if c is not None:
                    mults.append((q, c))
                    _ref_accumulate(vec, -c, pvec)
            if not vec:
                dependent.append((i, mults))
                continue
            pkey = min(vec, key=rank.__getitem__)
            inv = vec[pkey].inverse()
            pivots.append((pkey, {k: v * inv for k, v in vec.items()}, i,
                           mults, inv))
        yield pivots, dependent


def _ref_combine(i, mults, tails):
    out = {i: ExactScalar.one()}
    for q, c in mults:
        _ref_accumulate(out, -c, tails[q])
    return out


def _ref_build_tails(pivots, wanted, tails):
    """Add each wanted pivot's tail, and every tail that one needs."""
    todo = {q for q in wanted if q not in tails}
    for q in range(max(todo, default=-1), -1, -1):
        if q in todo:
            todo.update(p for p, _ in pivots[q][3] if p not in tails)
    for q in sorted(todo):
        _, _, iq, mq, inv = pivots[q]
        tails[q] = {k: v * inv
                    for k, v in _ref_combine(iq, mq, tails).items()}


def reference_kernel_of_columns(columns):
    """kernel_of_columns by the reference core."""
    n = len(columns)
    zero = ExactScalar.zero()
    kernel = {}
    for pivots, dependent in reference_eliminate(columns):
        tails = {}
        for i, mults in dependent:
            _ref_build_tails(pivots, (q for q, _ in mults), tails)
            tail = _ref_combine(i, mults, tails)
            kernel[i] = [tail.get(j, zero) for j in range(n)]
    return [kernel[i] for i in sorted(kernel)]


def reference_solution_operator(rows, nunknowns):
    """FactoredSystem's solution operator by the reference core, with the
    same ValueError for an underdetermined system.  It is kept by
    right-hand side, as FactoredSystem keeps it: per row r, each unknown j
    (ascending) to the coefficient of rhs[r] in x[j]."""
    blocks = [pivots for pivots, _ in reference_eliminate(rows)]
    labels = {p[0] for pivots in blocks for p in pivots}
    missing = [j for j in range(nunknowns) if j not in labels]
    if missing:
        raise ValueError(
            f"linear system does not determine unknowns {missing[:5]}"
            + ("..." if len(missing) > 5 else ""))
    op = {}
    for pivots in blocks:
        tails = {}
        _ref_build_tails(pivots, range(len(pivots)), tails)
        for q in range(len(pivots) - 1, -1, -1):
            pkey, pvec, _, _, _ = pivots[q]
            x = dict(tails[q])
            for k, v in pvec.items():
                if k != pkey:
                    _ref_accumulate(x, -v, op[k])
            op[pkey] = x
    by_rhs = [{} for _ in rows]
    for j in range(nunknowns):
        for r, c in op[j].items():
            by_rhs[r][j] = c
    return by_rhs


# --------------------------------------------------------------------------
# the differentials and the transfer built item by item, without cached
# slot halves: oracles for the per-unit kernels of ``freedist.algebra``
# --------------------------------------------------------------------------

def oracle_codifferential_term(ga, side, slots, target):
    """Test oracle: the codifferential of one unit term as (canonical key,
    n) pairs in emission order, every slot order recomputed per target."""
    ranks = ga._slot_ranks[side]
    table = ga._tables[side]
    out = []
    for i0, z in enumerate(slots):
        sign = 1 if i0 % 2 else -1
        canon = _canonical_slots(ranks, slots[:i0] + slots[i0 + 1:])
        if canon is None:
            continue
        rest, s = canon
        for tkey, n in table.get((z, target), ()):
            out.append(((rest, tkey), sign * s * n))
    for i0, j0 in combinations(range(len(slots)), 2):
        sign = -1 if (i0 + j0) % 2 else 1
        rest = slots[:i0] + slots[i0 + 1:j0] + slots[j0 + 1:]
        for bkey, n in table.get((slots[i0], slots[j0]), ()):
            canon = _canonical_slots(ranks, (bkey,) + rest)
            if canon is not None:
                out.append(((canon[0], target), sign * canon[1] * n))
    return out


def oracle_squares_vanish(ga, kind, side, k):
    """Test oracle: a unit kernel (kind _CD or _D) composed with itself on
    every unit k-chain of one side, one (slot tuple, target) at a time, each
    emitted term's kernel rebuilt from the cached plans and the table."""
    slot_keys = ga.positive_keys if side == ODD else ga.ext_positive_keys
    for slots in combinations(slot_keys, k):
        for t in ga.keys(side):
            acc = {}
            for (s2, t2), n in _unit_term(kind, ga, side, slots, t):
                accumulate(acc, _unit_term(kind, ga, side, s2, t2), n)
            if acc:
                return False
    return True


def oracle_differential(c):
    """Test oracle: the Chevalley-Eilenberg differential as one item list
    handed to ``Chain.make``, which sorts the slots with their sign."""
    ga = algebra(c.l)
    items = []
    for (slots, target), coeff in c.terms.items():
        for x in ga.negative_keys:
            xslots = (ga.dual_slot(x),) + slots
            for rkey, n in ga.bracket_table(ODD, x, target):
                items.append((xslots, rkey, coeff * n))
        for i, s in enumerate(slots):
            rest = slots[:i] + slots[i + 1:]
            sign = 1 if i % 2 else -1
            for a, b, n in ga.negative_pair_brackets.get(ga.dual_slot(s), ()):
                items.append(((ga.dual_slot(a), ga.dual_slot(b)) + rest,
                              target, coeff * (sign * n)))
    return Chain.make(ODD, c.l, c.k + 1, items)


def harmonic_system(l, k, h):
    """The unit term keys of degree k and homogeneity h, and for each the
    column of its differential and codifferential images (rows ("d", key)
    and ("cd", key)): the whole harmonic system, not split by weight."""
    ga = algebra(l)
    keys = _term_keys(ga, k, h)
    return keys, [_column(ga, tk) for tk in keys]


def unsplit_harmonic_basis(l, k, h):
    """Test oracle: a harmonic basis as the kernel of every column of
    ``harmonic_system`` at once, each kernel vector read as a chain."""
    keys, columns = harmonic_system(l, k, h)
    return [Chain(ODD, l, k, {keys[j]: c for j, c in vec.items()})
            for vec in _kernel(columns)]


HALF_ROOT2 = ExactScalar(0, Fraction(1, 2))


def oracle_embed_key(key):
    """Test oracle: the canonical embedding of one odd basis key."""
    kind, idx = key
    if kind in ("lo2", "zero", "up2"):
        return {({"lo2": "tlo", "zero": "tzero", "up2": "tup"}[kind], idx):
                ExactScalar.one()}
    if kind == "lo1":
        return {("tzero", (idx, 0)): HALF_ROOT2, ("tlo", (0, idx)): HALF_ROOT2}
    if kind == "up1":
        return {("tup", (0, idx)): HALF_ROOT2,
                ("tzero", (0, idx)): -HALF_ROOT2}
    raise ValueError(f"not an odd-algebra basis key: {key}")


def oracle_phi_extension(c):
    """Test oracle: the chain transfer with sqrt2 factors multiplied slot by
    slot, handed to ``Chain.make``."""
    ga = algebra(c.l)
    items = []
    for (slots, target), coeff in c.terms.items():
        factor = ExactScalar.one()
        new_slots = []
        for s in slots:
            tkey, tc = ga.transfer_key(s)
            new_slots.append(tkey)
            factor = factor * tc
        base = (coeff.scale(factor) if isinstance(coeff, Polynomial)
                else coeff * factor)
        for tkey, tc in oracle_embed_key(target).items():
            c2 = base.scale(tc) if isinstance(base, Polynomial) else base * tc
            items.append((tuple(new_slots), tkey, c2))
    return Chain.make(EVEN, c.l, c.k, items)


def oracle_closed_form(c):
    """Test oracle: the transfer defect's closed forms on the three
    slot-type blocks, evaluated with exact scalars."""
    ga = algebra(c.l)
    items = []
    for (slots, target), coeff in c.terms.items():
        kinds = (slots[0][0], slots[1][0])
        alpha_target = oracle_embed_key(target)
        if kinds == ("up2", "up2"):
            continue
        if kinds == ("up1", "up2"):
            i, jk = slots[0][1], slots[1][1]
            br = ga.bracket_coeffs(EVEN, ga.defect_up(i), alpha_target)
            for tkey, v in br.items():
                items.append(((("tup", jk),), tkey,
                              coeff * v * (-HALF_ROOT2)))
        else:
            i, j = slots[0][1], slots[1][1]
            for tkey, v in alpha_target.items():
                items.append(((("tup", (i, j)),), tkey, coeff * v))
            br_j = ga.bracket_coeffs(EVEN, ga.defect_up(j), alpha_target)
            for tkey, v in br_j.items():
                items.append(((("tup", (0, i)),), tkey, coeff * v))
            br_i = ga.bracket_coeffs(EVEN, ga.defect_up(i), alpha_target)
            for tkey, v in br_i.items():
                items.append(((("tup", (0, j)),), tkey, -(coeff * v)))
    return Chain.make(EVEN, c.l, 1, items)


def flat_fields(l: int) -> List[VectorField]:
    """The flat model: each single field translates and twists by the
    later coordinates only."""
    ch = chart(l)
    out = []
    for i in range(1, l + 1):
        comps = [Polynomial.zero(ch) for _ in range(ch.ncoords)]
        comps[ch.x_index(i)] = Polynomial.const(ch, ExactScalar.one())
        for p in range(i + 1, l + 1):
            comps[ch.y_index(i, p)] = -Polynomial.coordinate(
                ch, ch.x_index(p))
        out.append(VectorField(ch, comps))
    return out


def armstrong_fields(l: int) -> List[VectorField]:
    """The flat model plus the single quadratic twist on the first field."""
    ch = chart(l)
    fields = flat_fields(l)
    first = list(fields[0].components)
    first[ch.y_index(3, 4)] = first[ch.y_index(3, 4)] + \
        Polynomial.coordinate(ch, ch.y_index(1, 2))
    return [VectorField(ch, first)] + list(fields[1:])


def random_sparse_fields(l: int, rng: random.Random) -> List[VectorField]:
    """A random sparse candidate frame: the flat model plus one to three
    monomial perturbations in the pair directions."""
    ch = chart(l)
    fields = flat_fields(l)
    comps = [list(f.components) for f in fields]
    pairs = [(j, k) for j in range(1, l + 1) for k in range(j + 1, l + 1)]
    for _ in range(rng.randint(1, 3)):
        fi = rng.randrange(l)
        ci = ch.y_index(*pairs[rng.randrange(len(pairs))])
        exps = [0] * ch.ncoords
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                exps[ch.x_index(rng.randint(1, l))] += 1
            else:
                exps[ch.y_index(*pairs[rng.randrange(len(pairs))])] += 1
        coef = ExactScalar.of(rng.choice([1, -1, 2, -2, Fraction(1, 2)]))
        comps[fi][ci] = comps[fi][ci] + Polynomial(ch, {tuple(exps): coef})
    return [VectorField(ch, c) for c in comps]


@pytest.fixture(scope="session")
def flat4():
    return flat_fields(4)


@pytest.fixture(scope="session")
def armstrong4():
    return armstrong_fields(4)


@pytest.fixture
def flip_unit_sign(monkeypatch):
    """A mutation of the normalization: flip(l, degree, unknown, item)
    negates the sign of one item of that unknown's unit 1-chain.  The
    cached factored systems are rebuilt from the flipped units, and cleared
    again after the test."""
    import freedist.normalization as nm
    units = nm._units

    def flip(l, degree, unknown, item):
        def flipped(l_, degree_):
            unknowns, us = units(l_, degree_)
            if (l_, degree_) == (l, degree):
                n = unknowns.index(unknown)
                unit = list(us[n])
                key, sign = unit[item]
                unit[item] = (key, -sign)
                us = us[:n] + (tuple(unit),) + us[n + 1:]
            return unknowns, us

        monkeypatch.setattr(nm, "_units", flipped)
        nm._system.cache_clear()

    yield flip
    nm._system.cache_clear()


# Pieces of frame-file text for fuzzing the parser and the CLI: headers,
# field labels, atoms of the grammar, operators, large numbers (the last
# one longer than int() accepts), characters that are digits to
# str.isdigit but not to int(), and runs of brackets and signs nested
# deeper than parsing.MAX_NESTING.
FRAME_PIECES = ["l: ", "l:", "l: 4", "l: 2", "l: 3", "l: 9", "l: 99999",
                "\n", "\r\n", " ", "\t", "#", "X1: ", "X2: ", "X3:", "X4: ",
                "X5:", "Dx1", "Dx2", "Dx4", "Dy[1,2]", "Dy[3,4]", "Dy[2,1]",
                "Dy[1,1]", "x1", "x2", "x4", "x5", "y[1,2]", "y[3,4]",
                "y[4,3]", "x", "y", "D", "[", "]", ",", ":", "+", "-", "*",
                "^", "(", ")", "/", "0", "1", "2", "7", "99999999", "sqrt2",
                "²", "٣", "é", "\x00", "9" * 4301, "(" * 101, "-" * 101]

RANK4_FRAMES = ["flat_l4.frame", "armstrong_l4.frame", "obstructed_l4.frame",
                "integrable_l4.frame", "nonunimodular_l4.frame",
                "bad_syntax.frame"]


# Characters a token boundary follows: whitespace, the label colon,
# operators and brackets.
TOKEN_ENDS = " \t\r\n:+-*^/()[]"


@st.composite
def frame_texts(draw):
    """Frame-file text: pieces joined at random after a valid header and
    first label, or a shipped rank-4 frame with a few pieces spliced in or
    characters cut out.  Splices start at token boundaries, so a spliced
    piece lands as whole tokens inside an expression often enough to reach
    the parser's guards; the joined pieces start inside the first field's
    expression for the same reason."""
    if draw(st.booleans()):
        return "l: 4\nX1: " + "".join(
            draw(st.lists(st.sampled_from(FRAME_PIECES), max_size=40)))
    with open(data_path(draw(st.sampled_from(RANK4_FRAMES))),
              encoding="utf-8") as fh:
        text = fh.read()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(
            [0] + [n + 1 for n, ch in enumerate(text) if ch in TOKEN_ENDS]))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(st.sampled_from(FRAME_PIECES + [""])) \
            + text[j:]
    return text
