"""Shared frame builders and paths for the test suite."""

import os
import random
from fractions import Fraction
from typing import Dict, List, Sequence

import pytest
from hypothesis import strategies as st

from freedist.geometry import VectorField
from freedist.polynomials import Polynomial, chart
from freedist.scalars import ExactScalar

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


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
