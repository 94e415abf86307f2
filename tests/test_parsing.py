"""Grammar coverage and error reporting for the expression/frame parsers."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (constant_term, coordinate, field_combination,
                      frame_texts)
from freedist.errors import FreeDistError, ParseError, UnsupportedError
from freedist.geometry import VectorField
from freedist.parsing import (MAX_DIGITS, MAX_L, parse_expression,
                              parse_frame_file, parse_scalar,
                              parse_vector_field, tokenize)
from freedist.polynomials import Polynomial, chart
from freedist.scalars import ExactScalar

CH = chart(4)


def P(text):
    return parse_expression(text, CH)


def test_scalar_forms():
    assert parse_scalar("3") == ExactScalar.of(3)
    assert parse_scalar("-3/4") == ExactScalar.of(-3) / ExactScalar.of(4)
    assert parse_scalar("sqrt2") == ExactScalar.sqrt2()
    assert parse_scalar("1/2*sqrt2 + 1") == \
        ExactScalar.one() + ExactScalar.sqrt2().inverse()
    assert parse_scalar("(1 - sqrt2)*(1 + sqrt2)") == ExactScalar.of(-1)


def test_scalar_rejects_coordinates():
    with pytest.raises(ParseError):
        parse_scalar("x1 + 1")


def test_precedence_and_parentheses():
    assert P("2 + 3*x1") == (Polynomial.const(CH, ExactScalar.of(2))
                             + coordinate(CH, CH.x_index(1)).scale(3))
    assert P("(2 + 3)*x1") == coordinate(CH, CH.x_index(1)).scale(5)
    assert P("2*x1^3") == P("2*x1*x1*x1")
    assert P("(x1 + x2)*(x1 + x2)") == P("x1^2 + 2*x1*x2 + x2^2")


def test_power_binds_to_atoms_only():
    # the grammar attaches exponents to atoms, not parenthesized groups
    with pytest.raises(ParseError):
        P("(x1 + x2)^2")


def test_unary_minus():
    assert P("-x1") == -coordinate(CH, CH.x_index(1))
    assert P("3 - -x1") == P("3 + x1")
    assert P("-(x1 - x2)") == P("x2 - x1")


def test_pair_coordinate_antisymmetry():
    assert P("y[2,1]") == -P("y[1,2]")
    assert P("y[3,3]").is_zero()
    assert P("y[1,2] + y[2,1]").is_zero()


def test_sqrt2_in_polynomials():
    p = P("sqrt2*x1")
    assert p * p == P("2*x1^2")


def test_parse_error_location():
    with pytest.raises(ParseError) as exc:
        parse_expression("x1 + @", CH)
    assert exc.value.line == 1
    assert exc.value.col == 6


@pytest.mark.parametrize("literal", ["12", "sqrt2", "Dx", "Dy", "x", "y",
                                     *"+-*^()[],:/", "  ", "\n"])
def test_unexpected_character_column_after_each_literal(literal):
    """Each literal advances the column by its length (a newline starts
    the next line at column 1)."""
    with pytest.raises(ParseError) as exc:
        tokenize(literal + "sqrt2$", start_line=3, start_col=5)
    where = (4, 6) if literal == "\n" else (3, 10 + len(literal))
    assert (exc.value.message, exc.value.line, exc.value.col) \
        == ("unexpected character '$'", *where)


def reference_tokenize(text, start_line=1, start_col=1):
    """Test oracle: the tokenizer one character at a time, each literal
    found by slicing every literal length."""
    literals = {"sqrt2", "Dx", "Dy", "x", "y", *"+-*^()[],:/"}
    tokens = []
    line, col = start_line, start_col
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
            i += 1
            continue
        j = i
        while j < len(text) and text[j].isdecimal():
            j += 1
        if j > i:
            tokens.append(("num", int(text[i:j]), line, col))
        else:
            j = next((i + size for size in (1, 2, 5)
                      if text[i:i + size] in literals), None)
            if j is None:
                raise ParseError(f"unexpected character {ch!r}", line, col)
            tokens.append((text[i:j], None, line, col))
        col += j - i
        i = j
    tokens.append(("end", None, line, col))
    return tokens


TOKEN_PIECES = ["sqrt2", "sqrt", "s", "Dx", "Dy", "D", "x", "y", "1", "23",
                "\u0663", "\u00b2", " ", "   ", "\t", "\n", "\r\n", "\r",
                "\x0b", "\x0c", "\x85", "\u2028", "\u3000", "\xa0",
                *"+-*^()[],:/", "#", "$", "\u00e9", "\x00"]


def tokenize_outcome(tokenizer, text, line, col):
    try:
        return tokenizer(text, line, col)
    except ParseError as exc:
        return exc.message, exc.line, exc.col


@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=30),
       st.integers(1, 9), st.integers(1, 9))
@settings(deadline=None, max_examples=300)
def test_tokenize_matches_the_character_by_character_reference(pieces,
                                                               line, col):
    """Whitespace runs of every kind (only '\\n' starts a line), numbers
    in any decimal digits, literals and bad characters: the same tokens
    with the same lines and columns, or the same error."""
    text = "".join(pieces)
    assert tokenize_outcome(tokenize, text, line, col) \
        == tokenize_outcome(reference_tokenize, text, line, col)


def test_vector_field_round_trip():
    v = parse_vector_field("Dx1 - x2*Dy[1,2] + sqrt2*Dy[3,4]", CH)
    assert v.components[CH.x_index(1)] == Polynomial.const(
        CH, ExactScalar.one())
    assert v.components[CH.y_index(1, 2)] == -coordinate(CH, CH.x_index(2))
    assert v.components[CH.y_index(3, 4)] == Polynomial.const(
        CH, ExactScalar.sqrt2())


def test_vector_field_pair_direction_antisymmetry():
    assert parse_vector_field("Dy[2,1]", CH) == field_combination(
        [(-1, parse_vector_field("Dy[1,2]", CH))])


def test_frame_file_parses_fixture():
    from conftest import data_path
    with open(data_path("flat_l4.frame"), encoding="utf-8") as fh:
        l, fields = parse_frame_file(fh.read())
    assert l == 4
    assert len(fields) == 4
    assert fields[3].components[fields[3].chart.x_index(4)] == \
        Polynomial.const(fields[3].chart, ExactScalar.one())


def test_frame_file_comments_and_blank_lines():
    text = """# leading comment

l: 3
X1: Dx1   # trailing comment
X2: Dx2
X3: Dx3 + x1*Dy[1,2]
"""
    l, fields = parse_frame_file(text)
    assert l == 3 and len(fields) == 3


@pytest.mark.parametrize("ws", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                "\x85", "\u2028", "\u2029"])
def test_frame_file_lines_end_at_newline_only(ws):
    """A whitespace character that str.splitlines() also breaks at is
    whitespace inside a field line, as in the tokenizer: the frame parses
    equal to the same frame with a space, and the line of a later error
    counts newlines only."""
    text = "l: 2\nX1: Dx1 +{} x1*Dx2\n"
    frame = text + "X2: Dx2\n"
    assert parse_frame_file(frame.format(ws)) \
        == parse_frame_file(frame.format(" "))
    with pytest.raises(ParseError) as exc:
        parse_frame_file((text + "X2: Dx2 ?\n").format(ws))
    assert (exc.value.line, exc.value.col) == (3, 9)
    with pytest.raises(ParseError, match="ends after 1 of 2 fields") as exc:
        parse_frame_file(text.format(ws))
    assert exc.value.line == 3


def test_frame_file_bad_header():
    with pytest.raises(ParseError):
        parse_frame_file("X1: Dx1\n")


def test_frame_file_wrong_order():
    with pytest.raises(ParseError):
        parse_frame_file("l: 2\nX2: Dx2\nX1: Dx1\n")


def test_frame_file_missing_field():
    with pytest.raises(ParseError):
        parse_frame_file("l: 3\nX1: Dx1\nX2: Dx2\n")


def test_frame_file_syntax_error_location():
    from conftest import data_path
    with open(data_path("bad_syntax.frame"), encoding="utf-8") as fh:
        text = fh.read()
    with pytest.raises(ParseError) as exc:
        parse_frame_file(text)
    assert exc.value.line == 3
    assert exc.value.message
    assert f"line {exc.value.line}" in str(exc.value)


def test_expression_round_trip_via_to_expr():
    for text in ("x1^2*y[1,2] - 1/2", "sqrt2*y[3,4] + x2*x3",
                 "-x1 + 2*y[1,4] - 3/5*y[2,3]^2"):
        p = P(text)
        assert parse_expression(p.to_expr(), CH) == p


def test_frame_file_rank_guard():
    # rank MAX_L is accepted: the file fails only for its missing fields
    with pytest.raises(ParseError, match=f"after 0 of {MAX_L} fields"):
        parse_frame_file(f"l: {MAX_L}\n")
    with pytest.raises(UnsupportedError,
                       match=rf"l={MAX_L + 1} .*resource guard"):
        parse_frame_file(f"l: {MAX_L + 1}\n")
    # refused at the header: no chart of the huge rank is built
    with pytest.raises(UnsupportedError):
        parse_frame_file("l: 100000000\n")


@pytest.mark.parametrize("text", [
    "l: " + "9" * 5000 + "\n",
    "l: 2\nX1: x1^" + "9" * 5000 + "*Dx1\n",
    "l: 2\nX1: " + "9" * 5000 + "*Dx1\n",
    "l: 2\nX" + "1" * 5000 + ": Dx1\n"],
    ids=["rank", "exponent", "coefficient", "field-label"])
def test_digit_runs_past_int_limit_are_refused(text):
    # int() raises ValueError on runs over 4300 digits
    with pytest.raises(UnsupportedError, match=f"longer than {MAX_DIGITS}"):
        parse_frame_file(text)


def test_longest_accepted_number():
    big = "9" * MAX_DIGITS
    assert P(f"{big}/{big}*x1") == P("x1")
    with pytest.raises(UnsupportedError, match="resource guard"):
        P(big + "9")


@pytest.mark.parametrize("text", ["l: ²\n", "l: 2\nX²: Dx1\n",
                                  "l: 2\nX1: 2³*Dx1\n"])
def test_non_decimal_digits_are_parse_errors(text):
    # str.isdigit accepts these superscripts, int() does not
    with pytest.raises(ParseError):
        parse_frame_file(text)


def test_nesting_and_exponent_guards():
    from freedist.parsing import MAX_EXPONENT, MAX_NESTING
    deep = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert P(deep) == P("x1")
    assert P("-" * MAX_NESTING + "x1") == P("x1")
    for text in ("(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1),
                 "-" * 5000 + "x1", "x1*" + "(-" * 60 + "x2" + ")" * 60):
        with pytest.raises(UnsupportedError, match="nested deeper"):
            P(text)
    x1_power = (MAX_EXPONENT,) + (0,) * (CH.ncoords - 1)
    assert P(f"x1^{MAX_EXPONENT}") == Polynomial(
        CH, {x1_power: ExactScalar.one()})
    for text in (f"x1^{MAX_EXPONENT + 1}", "2^99999999"):
        with pytest.raises(UnsupportedError, match="resource guard"):
            P(text)


@given(frame_texts())
@settings(deadline=None, max_examples=200)
# frame_texts reaches the MAX_NESTING guard in about 1 of 100 examples;
# these two reach it on every run
@example("l: 2\nX1: " + "(" * 101 + "Dx1\nX2: Dx2\n")
@example("l: 2\nX1: " + "-" * 101 + "Dx1\nX2: Dx2\n")
def test_parse_frame_file_fuzz(text):
    """Any text either parses to l fields on the rank-l chart or raises
    one of the package's own errors."""
    try:
        l, fields = parse_frame_file(text)
    except FreeDistError:
        return
    assert 2 <= l <= MAX_L and len(fields) == l
    assert all(f.chart == chart(l) for f in fields)


# An expression for the property tests below: its text, and the value that
# the Polynomial operators and field_combination give it when its text
# starts at a column, or the ParseError that the parser must raise there;
# fields=False refuses the Dx and Dy atoms, as a scalar expression does.

def _leaf(text, kind, value):
    def value_at(col, fields):
        if kind == "v" and not fields:
            raise ParseError("vector-field symbol is not allowed in a scalar "
                             "expression", 1, col)
        return kind, value
    return text, value_at


def _coordinate(j, k=None):
    """x_j, or y[j,k] = -y[k,j] (zero for j = k)."""
    if k is None:
        return coordinate(CH, CH.x_index(j))
    if j == k:
        return Polynomial.zero(CH)
    p = coordinate(CH, CH.y_index(min(j, k), max(j, k)))
    return p if j < k else -p


def _direction(j, k=None):
    """D_x_j, or D_y[j,k] = -D_y[k,j] (the zero field for j = k)."""
    comps = [Polynomial.zero(CH)] * CH.ncoords
    if k is None:
        comps[CH.x_index(j)] = Polynomial.const(CH, 1)
    elif j != k:
        comps[CH.y_index(min(j, k), max(j, k))] = Polynomial.const(
            CH, 1 if j < k else -1)
    return VectorField(CH, comps)


INDEX = st.integers(min_value=1, max_value=CH.l)
NUMBER = st.integers(min_value=0, max_value=5)
CONSTANT_LEAVES = st.one_of(
    NUMBER.map(lambda n: _leaf(str(n), "p", Polynomial.const(CH, n))),
    st.tuples(NUMBER, st.integers(min_value=1, max_value=4)).map(
        lambda nd: _leaf(f"{nd[0]}/{nd[1]}", "p", Polynomial.const(
            CH, ExactScalar.of(Fraction(*nd))))),
    st.just(_leaf("sqrt2", "p", Polynomial.const(CH, ExactScalar.sqrt2()))))
LEAVES = st.one_of(
    CONSTANT_LEAVES,
    INDEX.map(lambda j: _leaf(f"x{j}", "p", _coordinate(j))),
    st.tuples(INDEX, INDEX).map(
        lambda p: _leaf(f"y[{p[0]},{p[1]}]", "p", _coordinate(*p))),
    INDEX.map(lambda j: _leaf(f"Dx{j}", "v", _direction(j))),
    st.tuples(INDEX, INDEX).map(
        lambda p: _leaf(f"Dy[{p[0]},{p[1]}]", "v", _direction(*p))))


def _power(leaf, n):
    text, base_at = leaf

    def value_at(col, fields):
        kind, base = base_at(col, fields)
        if kind == "v":
            raise ParseError("cannot raise a vector field to a power", 1,
                             col + len(text))
        value = Polynomial.const(CH, 1)
        for _ in range(n):
            value = value * base
        return kind, value
    return f"{text}^{n}", value_at


def _negation(child):
    text, child_at = child

    def value_at(col, fields):
        kind, value = child_at(col + 1, fields)
        return kind, (field_combination([(-1, value)]) if kind == "v"
                      else -value)
    return "-" + text, value_at


def _binary(op, left, right):
    (ltext, left_at), (rtext, right_at) = left, right

    def value_at(col, fields):
        op_col = col + len(ltext) + 2
        (lkind, a), (rkind, b) = (left_at(col + 1, fields),
                                  right_at(op_col + 2, fields))
        if op == "*":
            if lkind == rkind == "v":
                raise ParseError("cannot multiply vector fields", 1, op_col)
            if lkind == rkind:
                return "p", a * b
            return "v", field_combination([(a, b)] if rkind == "v"
                                          else [(b, a)])
        if lkind != rkind:
            raise ParseError("cannot combine a scalar expression with a "
                             "vector field", 1, op_col)
        if lkind == "v":
            return "v", field_combination([(1, a),
                                           (1 if op == "+" else -1, b)])
        return "p", a + b if op == "+" else a - b
    return f"({ltext} {op} {rtext})", value_at


def expressions(leaves):
    return st.recursive(
        st.one_of(leaves, st.tuples(leaves, st.integers(0, 3)).map(
            lambda t: _power(*t))),
        lambda inner: st.one_of(
            inner.map(_negation),
            st.tuples(st.sampled_from("+-*"), inner, inner).map(
                lambda t: _binary(*t))),
        max_leaves=8)


def _refusal(parse):
    with pytest.raises(ParseError) as exc:
        parse()
    return exc.value.message, exc.value.line, exc.value.col


@given(expressions(LEAVES))
@settings(deadline=None, max_examples=300)
def test_parsed_values_equal_the_public_operators(expr):
    """parse_vector_field and parse_expression give the value the public
    Polynomial operators and field_combination build, and refuse a mixed or
    misplaced expression with the parser's message at its column."""
    text, value_at = expr
    for fields, parse in ((True, lambda: parse_vector_field(text, CH)),
                          (False, lambda: P(text))):
        try:
            kind, want = value_at(1, fields)
        except ParseError as err:
            assert _refusal(parse) == (err.message, err.line, err.col)
            continue
        if fields and kind == "p":
            assert _refusal(parse) \
                == ("expression does not denote a vector field", 1, 1)
        else:
            assert parse() == want


@given(expressions(CONSTANT_LEAVES))
@settings(deadline=None, max_examples=100)
def test_parsed_scalars_equal_the_public_operators(expr):
    text, value_at = expr
    assert parse_scalar(text) == constant_term(value_at(1, False)[1])
