"""Fields, forms, brackets, frames, coframes, and structure functions."""

import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freedist.geometry as geometry_module
import freedist.linalg as linalg_module
from conftest import (DATA_DIR, armstrong_fields, constant_term, coordinate,
                      data_path, directional_derivative, field_combination,
                      flat_fields, form_combination, form_value, poly_det,
                      poly_value, random_sparse_fields)
from freedist.errors import (DegenerateFrameError, NotFreeDistributionError,
                             UnsupportedFrameError)
from freedist.geometry import (DifferentialForm, Frame, VectorField,
                               _assemble, build_frame, check_nondegenerate,
                               dual_coframe, frame_keys, lie_bracket,
                               structure_functions)
from freedist.linalg import _determinant, invert_scalar_matrix, poly_inverse
from freedist.parsing import parse_frame_file
from freedist.polynomials import Polynomial, chart
from freedist.scalars import ExactScalar

CH = chart(3)


def coord_poly(idx):
    return coordinate(CH, idx)


def const_poly(v):
    return Polynomial.const(CH, ExactScalar.of(v))


def coord_field(idx):
    """The coordinate vector field along chart coordinate idx."""
    comps = [Polynomial.zero(CH)] * CH.ncoords
    comps[idx] = const_poly(1)
    return VectorField(CH, comps)


@st.composite
def sparse_fields(draw):
    comps = [Polynomial.zero(CH) for _ in range(CH.ncoords)]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        target = draw(st.integers(min_value=0, max_value=CH.ncoords - 1))
        c = draw(st.integers(min_value=-3, max_value=3))
        deg = draw(st.integers(min_value=0, max_value=2))
        p = Polynomial.const(CH, ExactScalar.of(c))
        for _ in range(deg):
            p = p * coord_poly(draw(st.integers(min_value=0,
                                                max_value=CH.ncoords - 1)))
        comps[target] = comps[target] + p
    return VectorField(CH, comps)


@st.composite
def sqrt2_polys(draw):
    """Zero or up to three monomials of degree <= 2 with coefficients in
    Q(sqrt2), including ones with a zero rational part."""
    p = Polynomial.zero(CH)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        mono = Polynomial.const(CH, ExactScalar(
            draw(st.integers(min_value=-2, max_value=2)),
            draw(st.integers(min_value=-1, max_value=1))))
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            mono = mono * coord_poly(draw(st.integers(
                min_value=0, max_value=CH.ncoords - 1)))
        p = p + mono
    return p


@st.composite
def dense_fields(draw):
    """Fields with every component drawn, many of them zero."""
    return VectorField(CH, [draw(sqrt2_polys()) for _ in range(CH.ncoords)])


def any_fields():
    return st.one_of(sparse_fields(), dense_fields())


@given(sparse_fields(), sparse_fields())
@settings(deadline=None, max_examples=40)
def test_bracket_antisymmetry(v, w):
    assert lie_bracket(v, w) == field_combination([(-1, lie_bracket(w, v))])


@given(sparse_fields(), sparse_fields(), sparse_fields())
@settings(deadline=None, max_examples=30)
def test_bracket_jacobi(u, v, w):
    total = field_combination([(1, lie_bracket(u, lie_bracket(v, w))),
                               (1, lie_bracket(v, lie_bracket(w, u))),
                               (1, lie_bracket(w, lie_bracket(u, v)))])
    assert total.is_zero()


@given(any_fields(), any_fields())
@settings(deadline=None, max_examples=30)
def test_apply_is_a_derivation(v, w):
    D = directional_derivative
    p = coord_poly(CH.x_index(1)) * coord_poly(CH.y_index(1, 2))
    q = coord_poly(CH.x_index(2))
    assert D(v, p * q) == D(v, p) * q + p * D(v, q)
    # bracket acts as commutator of derivations
    assert D(lie_bracket(v, w), p) == D(v, D(w, p)) - D(w, D(v, p))


def test_exterior_derivative_squares_to_zero():
    p = coord_poly(CH.x_index(1)) * coord_poly(CH.y_index(2, 3))
    theta = DifferentialForm(CH, 1, {(CH.x_index(2),): p})
    assert theta.d().degree == 2
    dd = theta.d()
    # d of a 2-form is not represented; instead verify d(df) = 0 for functions
    df = DifferentialForm(CH, 1, {(idx,): p.partial_derivative(idx)
                                  for idx in range(CH.ncoords)})
    assert df.d().is_zero()
    assert dd == dd  # stable


@given(any_fields(), any_fields())
@settings(deadline=None, max_examples=30)
def test_intrinsic_exterior_derivative_formula(v, w):
    p = coord_poly(CH.x_index(1)) * coord_poly(CH.x_index(3))
    theta = DifferentialForm(CH, 1, {(CH.y_index(1, 2),): p})
    lhs = form_value(theta.d(), v, w)
    rhs = (directional_derivative(v, form_value(theta, w))
           - directional_derivative(w, form_value(theta, v))
           - form_value(theta, lie_bracket(v, w)))
    assert lhs == rhs


def test_wedge_antisymmetry():
    a = DifferentialForm(CH, 1, {(0,): const_poly(1)})
    b = DifferentialForm(CH, 1, {(1,): coord_poly(2)})
    assert a.wedge(b) == form_combination(CH, 2, [(-1, b.wedge(a))])
    assert a.wedge(a).is_zero()


def test_two_form_evaluation_antisymmetry():
    a = DifferentialForm(CH, 1, {(0,): const_poly(1)})
    b = DifferentialForm(CH, 1, {(3,): const_poly(1)})
    v = coord_field(CH.x_index(1))
    w = coord_field(CH.y_index(1, 2))
    om = a.wedge(b)
    assert form_value(om, v, w) == -(form_value(om, w, v))


def test_frame_keys_ordering():
    keys = frame_keys(3)
    assert keys == [("s", 1), ("s", 2), ("s", 3),
                    ("p", (1, 2)), ("p", (1, 3)), ("p", (2, 3))]


def test_flat_frame_builds_and_is_unimodular():
    fr = build_frame(flat_fields(3))
    assert fr.l == 3
    # three pair directions, each contributing a -1 to the diagonal
    assert fr.det == ExactScalar.of(-1)
    assert build_frame(flat_fields(4)).det == ExactScalar.one()
    assert check_nondegenerate(fr)
    assert check_nondegenerate(flat_fields(3))


def test_flat_pair_fields_are_pair_translations():
    fr = build_frame(flat_fields(3))
    minus_one = Polynomial.const(fr.chart, ExactScalar.of(-1))
    for (j, k), field in fr.pairs.items():
        # the derived field -[X_j, X_k] points along the (j,k) direction
        assert field.components[fr.chart.y_index(j, k)] == minus_one
        assert sum(1 for c in field.components if not c.is_zero()) == 1


def test_dual_coframe_duality():
    fr = build_frame(armstrong_fields(4))
    co = dual_coframe(fr)
    keys = fr.keys()
    for a in keys:
        for b in keys:
            want = (Polynomial.const(fr.chart, ExactScalar.one())
                    if a == b else Polynomial.zero(fr.chart))
            assert form_value(co.form(a), fr.field(b)) == want


def test_degenerate_frame_rejected():
    fields = [coord_field(CH.x_index(i)) for i in range(1, 4)]
    with pytest.raises(DegenerateFrameError):
        build_frame(fields)


def test_nonconstant_determinant_rejected():
    fields = flat_fields(3)
    scaled = [f for f in fields]
    one_plus_x1 = Polynomial.const(CH, ExactScalar.one()) + coord_poly(
        CH.x_index(1))
    scaled[0] = VectorField(CH, tuple(
        c * one_plus_x1 for c in fields[0].components))
    with pytest.raises(UnsupportedFrameError):
        build_frame(scaled)
    assert not check_nondegenerate(scaled)


ONES = {i: ExactScalar.one() for i in range(CH.ncoords)}
ORIGIN = {i: ExactScalar.zero() for i in range(CH.ncoords)}


def first_field_scaled(g):
    fields = flat_fields(3)
    fields[0] = field_combination([(g, fields[0])])
    return fields


def nonunimodular_fields():
    """flat_fields(3) with the first field scaled by 1 + x1: it spans at
    the origin, but its determinant is not constant."""
    return first_field_scaled(const_poly(1) + coord_poly(CH.x_index(1)))


def newton_refuted_fields():
    """flat_fields(3) with the first field scaled by 1 + x1 - x2: its
    determinant -(1 + x1 - x2)^3 takes the same value at the origin and at
    the all-ones point, so only the Newton inverse refutes it."""
    return first_field_scaled(const_poly(1) + coord_poly(CH.x_index(1))
                              - coord_poly(CH.x_index(2)))


def degenerate_fields():
    return [coord_field(CH.x_index(i)) for i in range(1, 4)]


def frame_det(fields):
    return poly_det(_assemble(fields)[4])


def is_matrix(value):
    return (isinstance(value, list) and value and isinstance(value[0], list)
            and value[0] and isinstance(value[0][0],
                                        (Polynomial, ExactScalar)))


def assert_traceback_holds_no_matrix(exc):
    """Neither the Jacobian, its value at a point nor its inverse is kept
    alive by the rejection's traceback or by a chained exception."""
    assert exc.__context__ is None and exc.__cause__ is None
    tb = exc.__traceback__
    names = []
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_name)
        for key, value in tb.tb_frame.f_locals.items():
            assert key not in ("jac", "inverse", "base_inverse", "pairs"), key
            assert not is_matrix(value), key
        tb = tb.tb_next
    assert "build_frame" in names


@pytest.mark.parametrize("make_fields, error", [
    (degenerate_fields, DegenerateFrameError),
    (nonunimodular_fields, UnsupportedFrameError),
    (newton_refuted_fields, UnsupportedFrameError)])
def test_rejection_traceback_holds_no_jacobian(make_fields, error):
    with pytest.raises(error) as info:
        build_frame(make_fields())
    assert_traceback_holds_no_matrix(info.value)


def test_newton_inverse_refutes_determinant_equal_at_both_points():
    fields = newton_refuted_fields()
    det = frame_det(fields)
    assert det != const_poly(constant_term(det))
    assert poly_value(det, ORIGIN) == poly_value(det, ONES) \
        == ExactScalar.of(-1)
    with pytest.raises(UnsupportedFrameError,
                       match="^frame determinant is not constant; only "
                             "unimodular frames are supported$"):
        build_frame(fields)
    assert not check_nondegenerate(fields)


def test_shifted_base_point_with_singular_origin_refused():
    # scaled by x1: the frame spans at the all-ones point but not at the
    # origin, where it is refused as degenerate
    fields = first_field_scaled(coord_poly(CH.x_index(1)))
    assert poly_value(frame_det(fields), ORIGIN) == ExactScalar.zero()
    assert poly_value(frame_det(fields), ONES) != ExactScalar.zero()
    with pytest.raises(DegenerateFrameError):
        build_frame(fields)


def evaluate_route_outcome(fields):
    """Oracle: build_frame's outcome with the frame matrix evaluated by
    poly_value at the origin and at the all-ones point, and
    whether the Newton inverse ran."""
    ch, _, _, _, jac = _assemble(fields)
    origin = {i: ExactScalar.zero() for i in range(ch.ncoords)}
    ones = {i: ExactScalar.one() for i in range(ch.ncoords)}
    det, start = invert_scalar_matrix(
        [[poly_value(e, origin) for e in row] for row in jac])
    if not det:
        return DegenerateFrameError, False
    if _determinant([[poly_value(e, ones) for e in row] for row in jac])[0] \
            != det:
        return UnsupportedFrameError, False
    try:
        poly_inverse(jac, start)
    except ValueError:
        return UnsupportedFrameError, True
    return det, True


def oracle_candidates(l, rng):
    """random_sparse_fields, with one field scaled by c + x_a (- x_b) a
    third of the time: c = 0 is singular at the origin, and c = 1 has a
    nonconstant determinant, refuted at the all-ones point (x_a alone) or
    by the Newton inverse (x_a - x_b can cancel there)."""
    fields = random_sparse_fields(l, rng)
    if rng.random() < 1 / 3:
        ch = fields[0].chart
        g = Polynomial.const(ch, rng.choice([0, 1])) \
            + coordinate(ch, ch.x_index(rng.randint(1, l)))
        if rng.random() < 0.5:
            g = g - coordinate(ch, ch.x_index(rng.randint(1, l)))
        fi = rng.randrange(l)
        fields[fi] = field_combination([(g, fields[fi])])
    return fields


@pytest.mark.parametrize("l", [3, 4])
def test_build_frame_matches_the_evaluate_route(monkeypatch, l):
    """The outcome (det, DegenerateFrameError or UnsupportedFrameError) and
    whether poly_inverse ran equal the oracle's on seeded candidates."""
    newton = []

    def counted(m, x0=None):
        newton.append(1)
        return poly_inverse(m, x0)

    monkeypatch.setattr(geometry_module, "poly_inverse", counted)
    rng = random.Random(23 + l)
    outcomes = []
    for _ in range(30):
        fields = oracle_candidates(l, rng)
        newton.clear()
        try:
            outcome = build_frame(fields).det
        except (DegenerateFrameError, UnsupportedFrameError) as exc:
            outcome = type(exc)
        outcomes.append((outcome, bool(newton)))
        assert outcomes[-1] == evaluate_route_outcome(fields)
    assert {(o if isinstance(o, type) else "det", ran)
            for o, ran in outcomes} == {
        ("det", True), (DegenerateFrameError, False),
        (UnsupportedFrameError, False), (UnsupportedFrameError, True)}


@pytest.mark.parametrize("name", sorted(
    name for name in os.listdir(DATA_DIR) if name.endswith(".frame")
    and name != "bad_syntax.frame"))
def test_jacobian_terms_read_the_origin_and_the_all_ones_point(name):
    """Each Jacobian entry's constant term is its value at the origin, and
    its coefficient sum its value at the all-ones point."""
    with open(data_path(name), encoding="utf-8") as fh:
        jac = _assemble(parse_frame_file(fh.read())[1])[4]
    ch = jac[0][0].chart
    zeros = (0,) * ch.ncoords
    origin = {i: ExactScalar.zero() for i in range(ch.ncoords)}
    ones = {i: ExactScalar.one() for i in range(ch.ncoords)}
    for row in jac:
        for e in row:
            assert e.terms.get(zeros, ExactScalar.zero()) \
                == poly_value(e, origin)
            assert sum(e.terms.values(), ExactScalar.zero()) \
                == poly_value(e, ones)


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(deadline=None, max_examples=40)
def test_check_nondegenerate_matches_det_oracle(seed):
    fields = random_sparse_fields(4, random.Random(seed))
    det = frame_det(fields)
    value = constant_term(det)
    assert check_nondegenerate(fields) == (
        bool(value) and det == Polynomial.const(det.chart, value))


def test_dual_coframe_degree_guard_names_itself():
    # A Frame built by hand skips build_frame's unimodularity check, so
    # the Newton inverse runs past its degree bound.
    singles = nonunimodular_fields()
    pairs = {(j, k): lie_bracket(singles[k - 1], singles[j - 1])
             for j in range(1, 4) for k in range(j + 1, 4)}
    frame = Frame(CH, 3, singles, pairs, ExactScalar.one())
    with pytest.raises(AssertionError, match="^dual_coframe: .*degree bound"):
        dual_coframe(frame)


def test_doctored_pair_fields_are_not_free():
    fr = build_frame(flat_fields(3))
    pairs = dict(fr.pairs)
    pairs[(1, 2)] = field_combination([(1, pairs[(1, 2)]),
                                       (1, pairs[(1, 3)])])
    doctored = Frame(fr.chart, fr.l, fr.singles, pairs, fr.det)
    with pytest.raises(NotFreeDistributionError):
        structure_functions(doctored)


def test_swapped_pair_fields_are_not_free():
    """With the (1,2) and (2,3) pair fields of the flat frame swapped,
    dtheta^(1,2) = dx2^dx3 and its interior product with F_1 is empty; the
    frame is still refused."""
    fr = build_frame(flat_fields(3))
    pairs = dict(fr.pairs)
    pairs[(1, 2)], pairs[(2, 3)] = pairs[(2, 3)], pairs[(1, 2)]
    swapped = Frame(fr.chart, fr.l, fr.singles, pairs, fr.det)
    assert dual_coframe(swapped).form(("p", (1, 2))).d().terms.keys() \
        == {(fr.chart.x_index(2), fr.chart.x_index(3))}
    with pytest.raises(NotFreeDistributionError):
        structure_functions(swapped)


def test_coordinate_frame_is_not_free():
    """The coordinate fields Dx_i and Dy[j,k] as a frame: every coframe
    differential is zero, so every interior product is empty, and only
    the unit value each pair target (i, j) owes on (s_i, s_j) refuses
    the frame."""
    fr = build_frame(flat_fields(3))
    ch = fr.chart

    def unit(c):
        comps = [Polynomial.zero(ch)] * ch.ncoords
        comps[c] = Polynomial.const(ch, 1)
        return VectorField(ch, comps)

    singles = [unit(ch.x_index(i)) for i in range(1, 4)]
    pairs = {p: unit(ch.y_index(*p)) for p in fr.pairs}
    coordinate = Frame(ch, 3, singles, pairs, ExactScalar.one())
    with pytest.raises(NotFreeDistributionError):
        structure_functions(coordinate)


def test_flat_structure_functions_vanish():
    f = structure_functions(build_frame(flat_fields(4)))
    assert f.is_zero()
    assert all(not table for _, table in f.blocks())


def test_armstrong_structure_functions_single_entry():
    fr = build_frame(armstrong_fields(4))
    f = structure_functions(fr)
    assert not f.is_zero()
    assert list(f.pp_sp.keys()) == [((3, 4), 1, (1, 2))]
    assert f.pp_sp[((3, 4), 1, (1, 2))] == Polynomial.const(
        fr.chart, ExactScalar.one())
    assert not f.ss_sp and not f.ss_pp and not f.pp_pp


def test_structure_functions_match_per_pair_evaluation():
    """Every block entry, in order, is dtheta evaluated on one frame pair
    with form_value, and no nonzero value is missing."""
    rng = random.Random(7)
    frames = [build_frame(armstrong_fields(4))]
    while len(frames) < 5:
        try:
            frames.append(build_frame(random_sparse_fields(4, rng)))
        except (DegenerateFrameError, UnsupportedFrameError):
            continue
    for fr in frames:
        coframe = dual_coframe(fr)
        keys = fr.keys()
        want = {"ss_sp": [], "ss_pp": [], "pp_sp": [], "pp_pp": []}
        for tkey in keys:
            dtheta = coframe.form(tkey).d()
            for ui, ukey in enumerate(keys):
                for vkey in keys[ui + 1:]:
                    if ukey[0] == "s" and vkey[0] == "s":
                        continue
                    val = form_value(dtheta, fr.field(ukey),
                                     fr.field(vkey))
                    if not val.is_zero():
                        block = f"{tkey[0] * 2}_{ukey[0]}{vkey[0]}"
                        want[block].append(((tkey[1], ukey[1], vkey[1]),
                                            val))
        got = {name: list(table.items())
               for name, table in structure_functions(fr).blocks()}
        assert got == want


def stored_value(f, tkey, ukey, vkey):
    """What structure_functions keeps for dtheta^t(F_u, F_v): a block
    entry, or zero where nothing is stored; on single-single pairs, which
    it checks but never stores, 1 for a pair target's own pair, else 0."""
    if vkey[0] == "s":
        return Polynomial.const(f.chart, int(tkey[1] == (ukey[1], vkey[1])))
    table = dict(f.blocks())[f"{tkey[0] * 2}_{ukey[0]}{vkey[0]}"]
    return table.get((tkey[1], ukey[1], vkey[1]), Polynomial.zero(f.chart))


def golden_frame(name):
    with open(data_path(name), encoding="utf-8") as fh:
        return build_frame(parse_frame_file(fh.read())[1])


def seeded_frames_with_structure(l, seed, count):
    rng = random.Random(seed)
    frames = []
    while len(frames) < count:
        try:
            fr = build_frame(random_sparse_fields(l, rng))
        except (DegenerateFrameError, UnsupportedFrameError):
            continue
        if not structure_functions(fr).is_zero():
            frames.append(fr)
    return frames


with open(data_path("analyze_goldens.json"), encoding="utf-8") as _fh:
    GOLDEN_FRAMES = sorted(name for name, out in json.load(_fh).items()
                           if out["json"]["exit_code"] == 0)


@pytest.mark.parametrize("source", GOLDEN_FRAMES + ["seeded_l4",
                                                    "seeded_l5"])
def test_structure_functions_equal_the_coordinate_evaluation(source):
    """Oracle: for every target t and frame pair (u, v), the stored value
    is dtheta^t evaluated on (F_u, F_v) with form_value,
    and the blocks hold nothing else."""
    if source.startswith("seeded"):
        frames = seeded_frames_with_structure(int(source[-1]), 5, 3)
    else:
        frames = [golden_frame(source)]
    for fr in frames:
        f = structure_functions(fr)
        coframe = dual_coframe(fr)
        keys = fr.keys()
        stored = 0
        for tkey in keys:
            dtheta = coframe.form(tkey).d()
            for ui, ukey in enumerate(keys):
                for vkey in keys[ui + 1:]:
                    val = form_value(dtheta, fr.field(ukey),
                                     fr.field(vkey))
                    assert stored_value(f, tkey, ukey, vkey) == val
                    stored += vkey[0] == "p" and not val.is_zero()
        assert stored == sum(len(table) for _, table in f.blocks())


def test_build_frame_back_substitutes_only_for_the_newton_start(monkeypatch):
    """Both determinants are read off the pivots.  The one
    back-substitution of build_frame's own is the inverse at the origin,
    which it hands to poly_inverse as its start."""
    calls = {"frame": 0, "newton": 0}
    where = ["frame"]
    solution_operator = linalg_module._solution_operator
    poly_inverse = geometry_module.poly_inverse

    def counted(blocks):
        calls[where[-1]] += 1
        return solution_operator(blocks)

    def newton(m, x0=None):
        where.append("newton")
        try:
            return poly_inverse(m, x0)
        finally:
            where.pop()

    monkeypatch.setattr(linalg_module, "_solution_operator", counted)
    monkeypatch.setattr(geometry_module, "poly_inverse", newton)
    build_frame(armstrong_fields(4))
    assert calls == {"frame": 1, "newton": 0}
