"""Tokenizer and recursive-descent parser for the expression grammar.

Grammar (whitespace-insensitive)::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' uint)? | '-' factor | '(' expr ')'
    atom     := rational | 'sqrt2' | 'x' uint | 'y[' uint ',' uint ']'
              | 'Dx' uint | 'Dy[' uint ',' uint ']'
    rational := int ('/' uint)?

``Dx``/``Dy`` atoms denote coordinate vector fields and are legal only when
parsing a vector-field expression.  ``y[k,j]`` with ``k > j`` resolves to
``-y[j,k]`` and ``y[j,j]`` to zero at parse time; the same applies to ``Dy``.
All reported errors carry the 1-based line and column of the offending token.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import ParseError, UnsupportedError
from .geometry import VectorField
from .polynomials import (Chart, Exponents, Polynomial, accumulate,
                          add_product, chart as make_chart)
from .scalars import ExactScalar

Token = Tuple[str, object, int, int]  # (type, value, line, col)

# Every token but a number, whose text is its token type.
_LITERALS = {"sqrt2", "Dx", "Dy", "x", "y", *"+-*^()[],:/"}
# The text cut into whitespace runs, digit runs, the multi-character
# literals and single characters; no literal starts a longer one, so each
# piece is one token, one run of whitespace, or an unexpected character.
_PIECES = re.compile(r"\s+|\d+|sqrt2|D[xy]|.", re.S)

# Resource guards: a power is built by repeated multiplication, each level
# of '(' or unary '-' is one more level of recursion, int() refuses digit
# runs longer than 4300, and the analysis grows with the rank (a cold flat
# frame's analyze: about 0.14 CPU s at l=7, 0.16 s at l=8, 2-vCPU host).
MAX_EXPONENT = 32
MAX_NESTING = 100
MAX_DIGITS = 1000
MAX_L = 8


def tokenize(text: str, start_line: int = 1, start_col: int = 1) -> List[Token]:
    tokens: List[Token] = []
    line, col = start_line, start_col
    for piece in _PIECES.findall(text):
        if piece in _LITERALS:
            tokens.append((piece, None, line, col))
        elif piece.isspace():
            if "\n" in piece:   # columns restart after the last newline
                line += piece.count("\n")
                col = len(piece) - piece.rfind("\n")
                continue
        elif piece.isdecimal():
            tokens.append(("num", _read_int(piece, line, col), line, col))
        else:
            raise ParseError(f"unexpected character {piece!r}", line, col)
        col += len(piece)
    tokens.append(("end", None, line, col))
    return tokens


# A value's kind, 'p' (scalar) or 'v' (vector field), and its terms: c*x^e
# along D_d keyed (1 + d,) + e, a scalar c*x^e keyed (0,) + e, so a
# product's key is the sum of its factors' keys.  Each value is built fresh
# and used once, so a sum may accumulate into its left operand.
Value = Tuple[str, Dict[Exponents, ExactScalar]]


class _Parser:
    def __init__(self, tokens: List[Token], chart_: Chart,
                 allow_fields: bool, allow_coords: bool):
        self.tokens = tokens
        self.pos = 0
        self.chart = chart_
        self.allow_fields = allow_fields
        self.allow_coords = allow_coords
        self.depth = 0
        self.one = (0,) * (1 + chart_.ncoords)   # the key of a constant

    # --- token helpers ----------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, ttype: str, what: str) -> Token:
        t = self.next()
        if t[0] != ttype:
            raise ParseError(f"expected {what}", t[2], t[3])
        return t

    def error(self, msg: str, tok: Optional[Token] = None) -> ParseError:
        t = tok if tok is not None else self.peek()
        return ParseError(msg, t[2], t[3])

    # --- value algebra ------------------------------------------------------
    def _add(self, a: Value, b: Value, op: str, tok: Token) -> Value:
        if a[0] != b[0]:
            raise self.error("cannot combine a scalar expression with a "
                             "vector field", tok)
        accumulate(a[1], (b[1] if op == "+" else _negated(b[1])).items())
        return a

    def _mul(self, a: Value, b: Value, tok: Token) -> Value:
        if a[0] == b[0] == "v":
            raise self.error("cannot multiply vector fields", tok)
        if b[0] == "v":   # the field's terms lead, as in VectorField.scale
            a, b = b, a
        out: Dict[Exponents, ExactScalar] = {}
        add_product(out, a[1], b[1])
        return a[0], {key: c for key, c in out.items() if c}

    # --- grammar -------------------------------------------------------------
    def parse_expr(self) -> Value:
        v = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            tok = self.next()
            w = self.parse_term()
            v = self._add(v, w, tok[0], tok)
        return v

    def parse_term(self) -> Value:
        v = self.parse_factor()
        while self.peek()[0] == "*":
            tok = self.next()
            w = self.parse_factor()
            v = self._mul(v, w, tok)
        return v

    def parse_factor(self) -> Value:
        t = self.peek()
        if t[0] in ("-", "("):
            if self.depth == MAX_NESTING:
                raise _guard(f"expression nested deeper than {MAX_NESTING} "
                             "levels", t[2], t[3])
            self.depth += 1
            self.next()
            if t[0] == "-":
                v = self.parse_factor()
                v = (v[0], _negated(v[1]))
            else:
                v = self.parse_expr()
                self.expect(")", "')'")
            self.depth -= 1
            return v
        v = self.parse_atom()
        if self.peek()[0] == "^":
            tok = self.next()
            if v[0] != "p":
                raise self.error("cannot raise a vector field to a power", tok)
            n = self.expect("num", "a non-negative integer exponent")
            if n[1] > MAX_EXPONENT:
                raise _guard(f"exponent {n[1]} is larger than {MAX_EXPONENT}",
                             n[2], n[3])
            power = self._constant(ExactScalar.one())
            for _ in range(n[1]):
                power = self._mul(power, v, tok)
            return power
        return v

    def parse_atom(self) -> Value:
        t = self.next()
        if t[0] == "num":
            if self.peek()[0] == "/":
                self.next()
                d = self.expect("num", "a denominator")
                if d[1] == 0:
                    raise self.error("zero denominator", d)
                q = Fraction(t[1], d[1])
            else:
                q = Fraction(t[1])
            return self._constant(ExactScalar(q))
        if t[0] == "sqrt2":
            return self._constant(ExactScalar.sqrt2())
        if t[0] in ("x", "y", "Dx", "Dy"):
            kind = "v" if t[0].startswith("D") else "p"
            if kind == "v":
                self._require_fields(t)
            if t[0].endswith("x"):
                idx, sign = self.chart.x_index(self._index_after(t, t[0])), 1
            else:
                j, k = self._pair_after(t, t[0])
                if j == k:
                    return kind, {}
                idx = self.chart.y_index(min(j, k), max(j, k))
                sign = 1 if j < k else -1
            key = list(self.one)
            if kind == "v":
                key[0] = 1 + idx
            else:
                key[1 + idx] = 1
            return kind, {tuple(key): ExactScalar.of(sign)}
        raise ParseError("expected a number, 'sqrt2', a coordinate, or '('",
                         t[2], t[3])

    def _constant(self, c: ExactScalar) -> Value:
        return "p", ({self.one: c} if c else {})

    # --- atom helpers -----------------------------------------------------
    def _require_fields(self, t: Token) -> None:
        if not self.allow_fields:
            raise ParseError("vector-field symbol is not allowed in a scalar "
                             "expression", t[2], t[3])

    def _index_after(self, t: Token, sym: str) -> int:
        n = self.expect("num", f"an index after '{sym}'")
        i = n[1]
        if not self.allow_coords:
            raise ParseError("coordinates are not allowed in this expression",
                             t[2], t[3])
        if not 1 <= i <= self.chart.l:
            raise ParseError(f"{sym}{i} is out of range for l={self.chart.l}",
                             n[2], n[3])
        return i

    def _pair_after(self, t: Token, sym: str) -> Tuple[int, int]:
        self.expect("[", f"'[' after '{sym}'")
        a = self.expect("num", "a pair index")
        self.expect(",", "','")
        b = self.expect("num", "a pair index")
        self.expect("]", "']'")
        if not self.allow_coords:
            raise ParseError("coordinates are not allowed in this expression",
                             t[2], t[3])
        for n in (a, b):
            if not 1 <= n[1] <= self.chart.l:
                raise ParseError(
                    f"{sym}[{a[1]},{b[1]}] is out of range for l={self.chart.l}",
                    n[2], n[3])
        return a[1], b[1]


def _negated(terms: Dict[Exponents, ExactScalar]
             ) -> Dict[Exponents, ExactScalar]:
    return {key: -c for key, c in terms.items()}


def _guard(message: str, line: int, col: int) -> UnsupportedError:
    return UnsupportedError(f"{message} at line {line}, column {col} "
                            "(resource guard)")


def _read_int(digits: str, line: int, col: int) -> int:
    """The value of a run of decimal digits, refused beyond MAX_DIGITS."""
    if len(digits) > MAX_DIGITS:
        raise _guard(f"number of {len(digits)} digits is longer than "
                     f"{MAX_DIGITS}", line, col)
    return int(digits)


def _run_parser(tokens: List[Token], chart_: Chart, allow_fields: bool,
                allow_coords: bool) -> Value:
    p = _Parser(tokens, chart_, allow_fields, allow_coords)
    v = p.parse_expr()
    t = p.peek()
    if t[0] != "end":
        raise ParseError("unexpected trailing input", t[2], t[3])
    return v


def parse_expression(text: str, chart_: Chart) -> Polynomial:
    """Parse a scalar polynomial expression on the given chart."""
    v = _run_parser(tokenize(text), chart_, allow_fields=False,
                    allow_coords=True)
    return Polynomial(chart_, {key[1:]: c for key, c in v[1].items()})


def parse_scalar(text: str) -> ExactScalar:
    """Parse a coordinate-free expression to an exact Q(sqrt2) value."""
    v = _run_parser(tokenize(text), make_chart(2), allow_fields=False,
                    allow_coords=False)
    return next(iter(v[1].values()), ExactScalar.zero())  # its constant term


def parse_vector_field(text: str, chart_: Chart, start_line: int = 1,
                       start_col: int = 1) -> VectorField:
    tokens = tokenize(text, start_line, start_col)
    v = _run_parser(tokens, chart_, allow_fields=True, allow_coords=True)
    if v[0] != "v":
        raise ParseError("expression does not denote a vector field",
                         tokens[0][2], tokens[0][3])
    components = [{} for _ in range(chart_.ncoords)]
    for key, c in v[1].items():
        components[key[0] - 1][key[1:]] = c
    return VectorField(chart_, [Polynomial(chart_, t) for t in components])


def parse_frame_file(text: str) -> Tuple[int, List[VectorField]]:
    """Parse a frame file: an ``l: <int>`` header then lines ``X<i>: <expr>``.

    ``#`` starts a comment; blank lines are ignored.  The field lines must
    appear in order X1..Xl.  A header rank above MAX_L raises
    UnsupportedError before the rank's chart is built.  Lines end at
    newline characters only, as the tokenizer counts them, not at the other
    breaks of ``str.splitlines``.
    """
    l: Optional[int] = None
    fields: List[VectorField] = []
    chart_: Optional[Chart] = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if l is None:
            if not stripped.startswith("l"):
                raise ParseError("expected header 'l: <int>'", lineno,
                                 indent + 1)
            rest = stripped[1:].lstrip()
            if not rest.startswith(":"):
                raise ParseError("expected ':' in header", lineno, indent + 2)
            num = rest[1:].strip()
            if not num.isdecimal():
                raise ParseError("expected an integer rank after 'l:'",
                                 lineno, indent + 1)
            l = _read_int(num, lineno, indent + 1)
            if l < 2:
                raise ParseError("rank must be at least 2", lineno, indent + 1)
            if l > MAX_L:
                raise UnsupportedError(
                    f"rank l={l} is larger than {MAX_L} (resource guard)")
            chart_ = make_chart(l)
            continue
        if len(fields) == l:
            raise ParseError("unexpected extra line after the frame fields",
                             lineno, indent + 1)
        want = len(fields) + 1
        if not stripped.startswith("X") or ":" not in line:
            raise ParseError(f"expected 'X{want}: <expr>'", lineno, indent + 1)
        ci = line.index(":")
        head = line[:ci].strip()[1:]
        if not head.isdecimal() \
                or _read_int(head, lineno, indent + 1) != want:
            raise ParseError(f"expected field 'X{want}' here", lineno,
                             indent + 1)
        fields.append(parse_vector_field(line[ci + 1:], chart_,
                                         start_line=lineno, start_col=ci + 2))
    last = text.count("\n") + 1
    if l is None:
        raise ParseError("empty frame file: expected 'l: <int>' header",
                         last, 1)
    if len(fields) != l:
        raise ParseError(
            f"frame file ends after {len(fields)} of {l} fields", last, 1)
    return l, fields
