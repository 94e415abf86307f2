"""End-to-end normalization pipeline: goldens, invariants, serialization."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (armstrong_fields, data_path, flat_fields, form_value,
                      random_sparse_fields)
from freedist.algebra import (ODD, Chain, GradedAlgebra, algebra,
                              codifferential, commutator_operator,
                              differential, kappa11_normality_test)
from freedist.errors import (DegenerateFrameError, UnsupportedError,
                             UnsupportedFrameError)
from freedist.geometry import (DifferentialForm, build_frame, dual_coframe,
                               structure_functions)
from freedist.normalization import (VERDICT_NORMAL, VERDICT_OBSTRUCTED,
                                    _chain, _curvature_reads, _system,
                                    _tensors, _units, analyze,
                                    curvature_chain,
                                    extension_normality_report,
                                    flatness_test, report_from_json,
                                    report_to_json, solve_degree1)
from freedist.parsing import parse_frame_file
from freedist.polynomials import Polynomial, accumulate, chart
from freedist.scalars import ExactScalar

JSON_KEY_ORDER = ["l", "nondegenerate", "structure_functions", "A", "C", "E",
                  "F", "P", "R", "S", "T", "flat", "kappa11_deg2_zero",
                  "extension_verdict"]


def load_fields(name):
    with open(data_path(name), encoding="utf-8") as fh:
        _, fields = parse_frame_file(fh.read())
    return fields


def analyze_fixture(name):
    return analyze(load_fields(name))


# --- exact trace helpers -------------------------------------------------

def p_lookup(P, ch, tgt_a, tgt_b, r, arg):
    zero = Polynomial.zero(ch)
    if tgt_a == tgt_b:
        return zero
    a, b, sign = (tgt_a, tgt_b, 1) if tgt_a < tgt_b else (tgt_b, tgt_a, -1)
    v = P.get(((a, b), r, arg))
    if v is None:
        return zero
    return v if sign == 1 else -v


def assert_p_totally_trace_free(P, l):
    ch = chart(l)
    zero = Polynomial.zero(ch)
    pairs = [(j, k) for j in range(1, l + 1) for k in range(j + 1, l + 1)]
    for p in pairs:
        for m in range(1, l + 1):
            acc = zero
            for r in range(1, l + 1):
                acc = acc + p_lookup(P, ch, r, m, r, p)
            assert acc.is_zero()
    for r in range(1, l + 1):
        for u in range(1, l + 1):
            for m in range(1, l + 1):
                acc = zero
                for s in range(1, l + 1):
                    if s == u:
                        continue
                    a, b, sgn = (s, u, 1) if s < u else (u, s, -1)
                    v = p_lookup(P, ch, s, m, r, (a, b))
                    acc = acc + (v if sgn == 1 else -v)
                assert acc.is_zero()


def assert_a_trace_free(A, l):
    ch = chart(l)
    for k in range(1, l + 1):
        acc = Polynomial.zero(ch)
        for i in range(1, l + 1):
            v = A.get((i, i, k))
            if v is not None:
                acc = acc + v
        assert acc.is_zero()


def assert_self_consistent(rep):
    l = rep.l
    assert_a_trace_free(rep.connection.A, l)
    assert_p_totally_trace_free(rep.curvature.P, l)
    for (i, j), v in rep.connection.F.items():
        assert rep.connection.F.get((j, i)) == v
    assert not rep.curvature.Q
    kc = curvature_chain(rep.curvature)
    assert codifferential(kc.homogeneous_part(1)).is_zero()
    assert codifferential(kc.homogeneous_part(2)).is_zero()


# --- golden fixtures ------------------------------------------------------

def test_flat_golden():
    rep = analyze_fixture("flat_l4.frame")
    assert rep.l == 4 and rep.nondegenerate
    assert rep.f.is_zero()
    assert not rep.connection.A and not rep.connection.C
    assert not rep.connection.E and not rep.connection.F
    k = rep.curvature
    assert not k.P and not k.R and not k.S and not k.T
    assert k.flat is True
    assert k.kappa11_deg2_zero is True
    assert rep.extension_verdict == VERDICT_NORMAL


def test_armstrong_golden():
    rep = analyze_fixture("armstrong_l4.frame")
    ch = chart(4)
    one = Polynomial.const(ch, ExactScalar.one())
    assert dict(rep.f.pp_sp) == {((3, 4), 1, (1, 2)): one}
    assert rep.f.ss_sp == {} and rep.f.ss_pp == {} and rep.f.pp_pp == {}
    assert not rep.connection.A and not rep.connection.C
    assert not rep.connection.E and not rep.connection.F
    k = rep.curvature
    assert dict(k.P) == {((3, 4), 1, (1, 2)): one}
    assert not k.R and not k.S and not k.T
    assert k.flat is False
    assert k.kappa11_deg2_zero is True
    assert rep.extension_verdict == VERDICT_NORMAL
    assert kappa11_normality_test(curvature_chain(k))


def test_armstrong_fields_builder_matches_fixture():
    rep_a = report_to_json(analyze_fixture("armstrong_l4.frame"))
    rep_b = report_to_json(analyze(armstrong_fields(4)))
    assert rep_a == rep_b


def test_obstructed_golden():
    rep = analyze_fixture("obstructed_l4.frame")
    c, k = rep.connection, rep.curvature
    assert k.kappa11_deg2_zero is False
    assert rep.extension_verdict == VERDICT_OBSTRUCTED
    assert k.flat is False
    # frozen shape of the solution (regression values)
    data = report_to_json(rep)
    assert len(data["A"]) == 7 and len(data["C"]) == 3
    assert len(data["E"]) == 8 and len(data["F"]) == 1
    assert len(data["P"]) == 17 and len(data["R"]) == 8
    assert len(data["S"]) == 8 and len(data["T"]) == 4
    assert data["F"] == {"1,1": "5/96*x1*x3 - 5/96*y[1,3]"}
    assert not kappa11_normality_test(curvature_chain(k))
    assert_self_consistent(rep)


def monomial_slice_kappa11(c):
    """Test oracle: the normality test monomial slice by monomial slice,
    the commutator operator on one constant chain per monomial."""
    slices = {}
    for (slots, target), coeff in c.terms.items():
        if isinstance(coeff, Polynomial):
            for mono, s in coeff.terms.items():
                slices.setdefault(mono, []).append((slots, target, s))
        else:
            slices.setdefault((), []).append((slots, target, coeff))
    return all(commutator_operator(Chain.make(ODD, c.l, 2, items)).is_zero()
               for items in slices.values())


@pytest.mark.parametrize("l", [4, 5])
def test_paper_normality_criterion_agrees_with_the_verdict(l):
    """The paper's criterion, ``kappa11_normality_test`` on the curvature
    chain, gives the reported kappa11_deg2_zero (T = 0) and the monomial
    slice oracle's verdict on seeded random frames, obstructed ones
    (T != 0) among them."""
    rng = random.Random(l)
    verdicts = []
    while len(verdicts) < 12:
        try:
            k = analyze(random_sparse_fields(l, rng)).curvature
        except (DegenerateFrameError, UnsupportedFrameError):
            continue
        chain = curvature_chain(k)
        assert kappa11_normality_test(chain) == monomial_slice_kappa11(chain) \
            == k.kappa11_deg2_zero == (not k.T)
        verdicts.append(k.kappa11_deg2_zero)
    assert verdicts.count(False) >= 2 and verdicts.count(True) >= 2


def test_random_frames_self_consistent():
    rng = random.Random(811)
    done = 0
    while done < 4:
        fields = random_sparse_fields(4, rng)
        try:
            rep = analyze(fields)
        except (DegenerateFrameError, UnsupportedFrameError):
            continue
        assert_self_consistent(rep)
        done += 1


def per_form_curvature_values(M, args):
    """The values of dM - M^M on each argument pair: each matrix row's
    2-forms evaluated pair by pair with form_value."""
    rows = {}
    for (r, c), form in M.items():
        rows.setdefault(r, []).append((c, form))
    values = [{} for _ in args]
    for r, row in rows.items():
        omega2 = {c: form.d() for c, form in row}
        for m, f1 in row:
            for c, f2 in rows.get(m, ()):
                w = f1.wedge(f2)
                if w.is_zero():
                    continue
                old = omega2.get(c)
                omega2[c] = (old - w) if old is not None else -w
        for c, form in omega2.items():
            if form.is_zero():
                continue
            for entries, (u, v) in zip(values, args):
                val = form_value(form, u, v)
                if not val.is_zero():
                    entries[(r, c)] = val
    return values


def coordinate_connection_forms(frame, A, C, E=None, F=None):
    """The connection's component 1-forms over coordinate differentials,
    by the basis key they multiply: omega_s[i] = theta^s_i + C^i_p theta^p
    on lo1 i, theta^p on lo2 p, A^i_kj omega_s[k] (+ E^ij_p theta^p) on
    zero (i, j) and, given F, -F_ij omega_s[j] on up1 i."""
    l = frame.l
    coframe = dual_coframe(frame)
    span = range(1, l + 1)
    pairs = algebra(l).pair_indices
    E, F = E or {}, F or {}
    theta_p = {p: coframe.form(("p", p)) for p in pairs}
    omega_s = {}
    forms = {}
    for i in span:
        form = coframe.form(("s", i))
        for p in pairs:
            if C.get((i, p)):
                form = form + theta_p[p].scale(C[(i, p)])
        omega_s[i] = forms[("lo1", i)] = form
    for p in pairs:
        forms[("lo2", p)] = theta_p[p]
    for i in span:
        for j in span:
            form = DifferentialForm.zero(frame.chart, 1)
            for k in span:
                if A.get((i, k, j)):
                    form = form + omega_s[k].scale(A[(i, k, j)])
            for p in pairs:
                if E.get((i, j, p)):
                    form = form + theta_p[p].scale(E[(i, j, p)])
            if not form.is_zero():
                forms[("zero", (i, j))] = form
        form = DifferentialForm.zero(frame.chart, 1)
        for j in span:
            if F.get((i, j)):
                form = form - omega_s[j].scale(F[(i, j)])
        if not form.is_zero():
            forms[("up1", i)] = form
    return forms


def coordinate_curvature_reads(frame, A, C, E=None, F=None):
    """The curvature engine on coordinate 2-forms, the reference for
    _curvature_reads: the matrix of connection 1-forms, its 2-forms
    dM - M^M evaluated on the dual frame W of the connection coframe, and
    the same expansion, refusals and homogeneity <= 2 cut."""
    l = frame.l
    ga = algebra(l)
    M = {}
    for key, form in coordinate_connection_forms(frame, A, C, E, F).items():
        for pos, n in ga.odd_mat[key].items():
            M[pos] = form.scale(n) + M[pos] if pos in M else form.scale(n)
    M = {pos: form for pos, form in M.items() if not form.is_zero()}
    W = {("up1", i): frame.field(("s", i)) for i in range(1, l + 1)}
    for p in ga.pair_indices:
        w = frame.field(("p", p))
        for m in range(1, l + 1):
            if C.get((m, p)):
                w = w - W[("up1", m)].scale(C[(m, p)])
        W[("up2", p)] = w
    args = list(combinations(ga.positive_keys, 2))
    terms = {}
    for slots, entries in zip(args, per_form_curvature_values(
            M, [(W[a], W[b]) for a, b in args])):
        coeffs = ga.expand(ODD, entries)
        if coeffs is None:
            raise AssertionError(
                "curvature matrix does not lie in the graded algebra")
        for key, poly in coeffs.items():
            h = sum(map(GradedAlgebra.grade, slots + (key,)))
            if h == 0:
                raise AssertionError(
                    "homogeneity-0 curvature component is nonzero")
            if h <= 2:
                terms[(slots, key)] = poly
    reads = Chain(ODD, l, 2, terms)
    if _tensors(reads)["Q"]:
        raise AssertionError(
            "single-target homogeneity-1 curvature reads are nonzero")
    return reads


def engine_inputs(fields):
    frame = build_frame(fields)
    f = structure_functions(frame)
    A, C, _ = solve_degree1(f)
    return frame, f, A, C


def seeded_frames(l, seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        try:
            out.append(engine_inputs(random_sparse_fields(l, rng)))
        except (DegenerateFrameError, UnsupportedFrameError):
            continue
    return out


def assert_reads_match_reference(frame, f, A, C):
    got = _curvature_reads(frame, f, A, C)
    want = coordinate_curvature_reads(frame, A, C)
    assert list(got.terms.items()) == list(want.terms.items())
    return got


with open(data_path("analyze_goldens.json"), encoding="utf-8") as _fh:
    GOLDEN_REPORTS = sorted(name for name, out in json.load(_fh).items()
                            if out["json"]["exit_code"] == 0)


def test_normality_test_matches_monomial_slice_oracle_on_goldens():
    """On the curvature chain of every recorded golden report, normal and
    obstructed, the polynomial test agrees with the slice oracle and with
    the recorded kappa11_deg2_zero."""
    with open(data_path("analyze_goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    verdicts = []
    for name in GOLDEN_REPORTS:
        data = json.loads(goldens[name]["json"]["stdout"])
        chain = curvature_chain(report_from_json(data).curvature)
        verdict = kappa11_normality_test(chain)
        assert verdict == monomial_slice_kappa11(chain) \
            == data["kappa11_deg2_zero"]
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_structure_equation_reads_match_coordinate_engine_on_goldens(name):
    reads = assert_reads_match_reference(*engine_inputs(load_fields(name)))
    assert reads.terms or name.startswith("flat")


@pytest.mark.parametrize("l, count", [(4, 8), (5, 3)])
def test_structure_equation_reads_match_coordinate_engine_on_random_frames(
        l, count):
    nonzero = 0
    for inputs in seeded_frames(l, 2024, count):
        nonzero += bool(assert_reads_match_reference(*inputs).terms)
    assert 2 * nonzero >= count


def test_engine_refuses_nonzero_single_target_reads():
    """A unit added to one C coefficient of armstrong_l4 gives the
    connection a nonzero Q read, which the engine refuses."""
    frame, f, A, C = engine_inputs(load_fields("armstrong_l4.frame"))
    C = dict(C)
    C[(1, (2, 3))] = C.get((1, (2, 3)), Polynomial.zero(frame.chart)) + 1
    with pytest.raises(AssertionError, match="single-target homogeneity-1 "
                       "curvature reads are nonzero"):
        _curvature_reads(frame, f, A, C)


def test_engine_refuses_a_nonzero_homogeneity_zero_component(monkeypatch):
    """[lo1 1, lo1 2] read as 2 lo2 (1, 2) leaves the flat model's
    homogeneity-0 read of (up1 1, up1 2) at -lo2 (1, 2): refused."""
    frame, f, A, C = engine_inputs(flat_fields(4))
    _curvature_reads(frame, f, A, C)
    monkeypatch.setitem(algebra(4)._tables[ODD], (("lo1", 1), ("lo1", 2)),
                        ((("lo2", (1, 2)), 2),))
    with pytest.raises(AssertionError, match="homogeneity-0 curvature "
                       "component is nonzero"):
        _curvature_reads(frame, f, A, C)


# --- the full connection: E and F in the connection, not in responses ----
#
# The engine reads the curvature of the connection before the degree-2
# unknowns, and the solve adds the differentials of their unit 1-chains.
# The reference engine, given E and F in the connection itself (E^ij_p
# theta^p on zero (i, j), -F_ij omega_s[j] on up1 i), must read the same
# normalized curvature: that checks the units' signs against the engine.

def full_connection_reads(frame, report):
    c = report.connection
    return coordinate_curvature_reads(frame, c.A, c.C, c.E, c.F)


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_full_connection_reads_equal_the_report_on_goldens(name):
    fields = load_fields(name)
    report = analyze(fields)
    assert full_connection_reads(build_frame(fields), report) == \
        curvature_chain(report.curvature)


@pytest.mark.parametrize("l, count", [(4, 4), (5, 2)])
def test_full_connection_reads_equal_the_report_on_random_frames(l, count):
    rng = random.Random(31)
    checked = 0
    while checked < count:
        fields = random_sparse_fields(l, rng)
        try:
            report = analyze(fields)
        except (DegenerateFrameError, UnsupportedFrameError):
            continue
        assert full_connection_reads(build_frame(fields), report) == \
            curvature_chain(report.curvature)
        checked += report.connection.E != {} or report.connection.F != {}


def test_full_connection_check_catches_a_flipped_unit_sign(flip_unit_sign):
    """A flipped E unit sign changes the report of obstructed_l4 while no
    check inside analyze fires and its P stays closed; the full-connection
    read disagrees with it."""
    fields = load_fields("obstructed_l4.frame")
    before = report_to_json(analyze(fields))
    flip_unit_sign(4, 2, ("E", (2, 1, (1, 2))), 0)
    report = analyze(fields)
    assert report_to_json(report) != before
    assert lowest_part_closed(report.curvature)
    assert full_connection_reads(build_frame(fields), report) != \
        curvature_chain(report.curvature)


# --- verdict helpers ------------------------------------------------------

def test_flatness_and_invariant_helpers():
    rep = analyze_fixture("armstrong_l4.frame")
    P = rep.curvature.P
    assert flatness_test(P) is False
    assert flatness_test({}) is True
    info = extension_normality_report(rep.curvature)
    assert info == {"kappa11_deg2_zero": True, "verdict": VERDICT_NORMAL}
    obstructed = analyze_fixture("obstructed_l4.frame")
    info = extension_normality_report(obstructed.curvature)
    assert info == {"kappa11_deg2_zero": False,
                    "verdict": VERDICT_OBSTRUCTED}


# --- guards and errors ----------------------------------------------------

def test_rank_three_is_unsupported():
    with pytest.raises(UnsupportedError):
        analyze(flat_fields(3))


def test_degenerate_frame_propagates():
    with pytest.raises(DegenerateFrameError):
        analyze_fixture("integrable_l4.frame")


def test_nonunimodular_frame_propagates():
    with pytest.raises(UnsupportedFrameError):
        analyze_fixture("nonunimodular_l4.frame")


# --- determinism and serialization ----------------------------------------

def test_reruns_are_bit_identical():
    a = json.dumps(report_to_json(analyze_fixture("obstructed_l4.frame")),
                   sort_keys=False)
    b = json.dumps(report_to_json(analyze_fixture("obstructed_l4.frame")),
                   sort_keys=False)
    assert a == b


def test_report_tables_share_equal_values():
    rep = analyze_fixture("obstructed_l4.frame")
    tables = [t for _, t in rep.f.blocks()]
    tables += [getattr(rep.connection, n) for n in "ACEF"]
    tables += [getattr(rep.curvature, n) for n in "PRST"]
    polys = [p for t in tables for p in t.values()]
    scalars = [c for p in polys for c in p.terms.values()]
    assert len(polys) > len({id(p) for p in polys})
    for group in (polys, scalars):
        for x in group:
            assert all(y is x for y in group if y == x)


def test_json_key_order():
    data = report_to_json(analyze_fixture("flat_l4.frame"))
    assert list(data.keys()) == JSON_KEY_ORDER


def test_json_microformat_keys():
    armstrong = report_to_json(analyze_fixture("armstrong_l4.frame"))
    assert armstrong["structure_functions"] == {"[3,4],1,[1,2]": "1"}
    assert armstrong["P"] == {"[3,4],1,[1,2]": "1"}
    data = report_to_json(analyze_fixture("obstructed_l4.frame"))
    for key in data["A"]:
        assert len(key.split(",")) == 3 and "[" not in key
    for key in data["E"]:
        assert key.count("[") == 1
    for key in data["P"]:
        assert key.count("[") == 2


def test_json_round_trip():
    rep = analyze_fixture("obstructed_l4.frame")
    data = report_to_json(rep)
    back = report_from_json(data)
    assert back.l == rep.l
    assert back.nondegenerate == rep.nondegenerate
    assert back.extension_verdict == rep.extension_verdict
    assert back.curvature.flat == rep.curvature.flat
    assert back.curvature.kappa11_deg2_zero == rep.curvature.kappa11_deg2_zero
    for name in ("A", "C", "E", "F"):
        assert getattr(back.connection, name) == getattr(
            rep.connection, name)
    for name in ("P", "R", "S", "T"):
        assert getattr(back.curvature, name) == getattr(rep.curvature, name)
    for (_, block_a), (_, block_b) in zip(back.f.blocks(),
                                          rep.f.blocks()):
        assert block_a == block_b
    assert report_to_json(back) == data


def test_json_values_are_expression_strings():
    from freedist.parsing import parse_expression
    data = report_to_json(analyze_fixture("obstructed_l4.frame"))
    ch = chart(4)
    for name in ("structure_functions", "A", "C", "E", "F", "P", "R", "S",
                 "T"):
        for expr in data[name].values():
            assert not parse_expression(expr, ch).is_zero()


# --- structural invariants ------------------------------------------------

def test_rho_block_trace_scales_with_rank():
    """The grade-0 response of a symmetric-coefficient unit scales with
    (1 - l) across ranks: the diagnostic row entries at ranks 4 and 5 sit
    in the exact ratio (1-5)/(1-4) = 4/3."""

    def diag_entry(l):
        unknowns, units = _units(l, 2)
        unit = units[unknowns.index(("F", (1, 2)))]
        d = codifferential(differential(unit_chain(l, unit)))
        rows = {key: v for key, v in d.terms.items()
                if key[0][0][0] == "up1" and key[1][0] == "up1"}
        assert set(rows) == {((("up1", 2),), ("up1", 1)),
                             ((("up1", 1),), ("up1", 2))}
        vals = set(rows.values())
        assert len(vals) == 1
        return vals.pop()

    v4 = diag_entry(4)
    v5 = diag_entry(5)
    assert v5 == v4 * ExactScalar.of(Fraction(1 - 5, 1 - 4))


def test_curvature_chain_homogeneity_split():
    rep = analyze_fixture("obstructed_l4.frame")
    kc = curvature_chain(rep.curvature)
    h1 = kc.homogeneous_part(1)
    h2 = kc.homogeneous_part(2)
    assert (h1 + h2) == kc
    assert not h1.is_zero() and not h2.is_zero()
    # homogeneity-1 terms are exactly the P block
    assert len(h1.terms) == len(rep.curvature.P)


def pairs_of(l):
    return [(j, k) for j in range(1, l + 1) for k in range(j + 1, l + 1)]


def reference_row_keys(l, degree):
    """The normalization row keys of one degree, enumerated by hand: an
    independent reference for the order the systems use."""
    keys = []
    if degree == 1:
        for r in range(1, l + 1):
            for i in range(1, l + 1):
                for j in range(1, l + 1):
                    keys.append(((("up1", r),), ("zero", (i, j))))
        for p in pairs_of(l):
            for i in range(1, l + 1):
                keys.append(((("up2", p),), ("lo1", i)))
    else:
        for r in range(1, l + 1):
            for i in range(1, l + 1):
                keys.append(((("up1", r),), ("up1", i)))
        for p in pairs_of(l):
            for i in range(1, l + 1):
                for j in range(1, l + 1):
                    keys.append(((("up2", p),), ("zero", (i, j))))
    return keys


def unit_chain(l, unit):
    """The 1-chain of one unknown's ((slots, target), sign) unit items."""
    return Chain.make(ODD, l, 1, [(slots, target, ExactScalar.of(sign))
                                  for (slots, target), sign in unit])


def scalar_probes(l, degree):
    """The probes by the scalar route: every bracket through
    ``bracket_coeffs`` on unit coefficient dicts, accumulated as exact
    scalars.  The reference the differential of each unit must equal."""
    ga = algebra(l)
    one = ExactScalar.one()
    pairs = ga.pair_indices

    def bracket_into(acc, e1, e2):
        accumulate(acc, ga.bracket_coeffs(ODD, e1, e2).items(), -1)

    def emit(items, slots, vals, grade):
        items.extend((slots, k, v) for k, v in vals.items()
                     if GradedAlgebra.grade(k) == grade and v)

    def deg1(i0, j0, k0):
        cvals = {}
        if j0 != k0:
            cvals[(i0, tuple(sorted((j0, k0))))] = 1 if j0 < k0 else -1
        unit = {("zero", (i0, k0)): one}
        items = []
        for r in range(1, l + 1):
            for s in range(r + 1, l + 1):
                vals = {}
                for i in range(1, l + 1):
                    if cvals.get((i, (r, s))):
                        accumulate(vals, [(("lo1", i), ExactScalar.of(
                            cvals[(i, (r, s))]))])
                if s == j0:
                    bracket_into(vals, {("lo1", r): one}, unit)
                if r == j0:
                    bracket_into(vals, unit, {("lo1", s): one})
                emit(items, (("up1", r), ("up1", s)), vals, -1)
        for r in range(1, l + 1):
            for p in pairs:
                vals = {}
                for (m, q), c in cvals.items():
                    if q == p and r != m:
                        key, v = ((("lo2", (r, m)), 1) if r < m
                                  else (("lo2", (m, r)), -1))
                        accumulate(vals, [(key, ExactScalar.of(-c * v))])
                if r == j0:
                    bracket_into(vals, unit, {("lo2", p): one})
                emit(items, (("up1", r), ("up2", p)), vals, -2)
        return items

    def deg2_e(i0, j0, p0):
        unit = {("zero", (i0, j0)): one}
        items = [((("up1", p0[0]), ("up1", p0[1])), ("zero", (i0, j0)), one)]
        for j in range(1, l + 1):
            vals = {}
            bracket_into(vals, {("lo1", j): one}, unit)
            emit(items, (("up1", j), ("up2", p0)), vals, -1)
        for q in pairs:
            if q != p0:
                vals = {}
                if p0 < q:
                    bracket_into(vals, unit, {("lo2", q): one})
                else:
                    bracket_into(vals, {("lo2", q): one}, unit)
                emit(items, (("up2", min(p0, q)), ("up2", max(p0, q))),
                     vals, -2)
        return items

    def deg2_f(i0, j0):
        def delta(r):
            out = {}
            if r == i0:
                accumulate(out, [(("up1", j0), -one)])
            if r == j0 and j0 != i0:
                accumulate(out, [(("up1", i0), -one)])
            return out

        items = []
        for k in range(1, l + 1):
            for m in range(k + 1, l + 1):
                vals = {}
                if delta(m):
                    bracket_into(vals, {("lo1", k): one}, delta(m))
                if delta(k):
                    bracket_into(vals, delta(k), {("lo1", m): one})
                emit(items, (("up1", k), ("up1", m)), vals, 0)
        for j in range(1, l + 1):
            if delta(j):
                for p in pairs:
                    vals = {}
                    bracket_into(vals, delta(j), {("lo2", p): one})
                    emit(items, (("up1", j), ("up2", p)), vals, -1)
        return items

    if degree == 1:
        unknowns = [(i, j, k) for i in range(1, l + 1)
                    for j in range(1, l + 1) for k in range(1, l + 1)]
        item_lists = [deg1(*u) for u in unknowns]
    else:
        unknowns = ([("E", (i, j, p)) for i in range(1, l + 1)
                     for j in range(1, l + 1) for p in pairs]
                    + [("F", (i, j)) for i in range(1, l + 1)
                       for j in range(i, l + 1)])
        item_lists = [deg2_e(*idx) if kind == "E" else deg2_f(*idx)
                      for kind, idx in unknowns]
    return tuple(unknowns), [Chain.make(ODD, l, 2, items)
                             for items in item_lists]


@pytest.mark.parametrize("l", [3, 4, 5])
@pytest.mark.parametrize("degree", [1, 2])
def test_integer_probes_match_scalar_route(l, degree):
    """The differential of every unknown's unit 1-chain is the response
    the scalar route builds bracket by bracket.  Values only: the order of
    a response's terms is not stored anywhere."""
    unknowns, units = _units(l, degree)
    ref_unknowns, ref_probes = scalar_probes(l, degree)
    assert unknowns == ref_unknowns
    for unit, ref in zip(units, ref_probes, strict=True):
        response = differential(unit_chain(l, unit))
        assert response == ref
        assert all(type(v) is ExactScalar for v in response.terms.values())


def dense_system_rows(l, degree):
    """Rows probed column by column for every reference row key, plus
    degree 1's trace rows: the reference the transposed assembly must
    equal."""
    unknowns, probes = scalar_probes(l, degree)
    row_keys = reference_row_keys(l, degree)
    columns = [codifferential(c) for c in probes]
    rows = []
    for rk in row_keys:
        row = {}
        for uidx, col in enumerate(columns):
            v = col.terms.get(rk)
            if v is not None and v:
                row[uidx] = v
        rows.append(row)
    if degree == 1:
        uindex = {u: n for n, u in enumerate(unknowns)}
        for k in range(1, l + 1):
            rows.append({uindex[(i, i, k)]: ExactScalar.one()
                         for i in range(1, l + 1)})
    return unknowns, row_keys, rows


@pytest.mark.parametrize("l", [4, 5])
@pytest.mark.parametrize("degree", [1, 2])
def test_transposed_system_rows_match_dense_probe_assembly(l, degree):
    unknowns, row_keys, system = _system(l, degree)
    ref_unknowns, ref_keys, ref_rows = dense_system_rows(l, degree)
    assert unknowns == ref_unknowns and row_keys == ref_keys
    assert [list(r.items()) for r in system.rows] \
        == [list(r.items()) for r in ref_rows]
    assert all(type(v) is ExactScalar for r in system.rows for v in r.values())


# --- the key rule between the curvature chain and its tensors ------------

@st.composite
def tensor_tables(draw):
    """A rank and sparse P, Q, R, S, T tables of nonzero constants, with
    keys drawn over each tensor's index convention."""
    l = draw(st.sampled_from([4, 5]))
    idx = st.integers(1, l)
    pair = st.sampled_from(pairs_of(l))
    two_pairs = st.sampled_from([(p, q) for p in pairs_of(l)
                                 for q in pairs_of(l) if p < q])
    keys = {"P": st.tuples(pair, idx, pair),
            "Q": st.tuples(idx, pair),
            "R": st.tuples(pair, two_pairs).map(lambda k: (k[0],) + k[1]),
            "S": st.tuples(idx, idx, pair),
            "T": st.tuples(idx, idx, pair)}
    value = st.integers(-3, 3).filter(bool).map(
        lambda n: Polynomial.const(chart(l), ExactScalar.of(n)))
    return l, {name: draw(st.dictionaries(key, value, max_size=6))
               for name, key in keys.items()}


@given(tensor_tables())
@settings(deadline=None, max_examples=80)
def test_tensor_chain_key_rule_round_trips(drawn):
    l, tables = drawn
    chain = _chain(l, tables)
    assert _tensors(chain) == tables
    assert len(chain.terms) == sum(map(len, tables.values()))
    # Chain.make re-sorts slots with a sign; equal chains mean _chain
    # already emitted canonical slot order
    items = [(slots, target, c) for (slots, target), c in chain.terms.items()]
    assert Chain.make(ODD, l, 2, items) == chain


def joined_hom_chains(report):
    """The curvature chain as assembled before the key rule: the
    homogeneity-1 P block joined with the R, S, T blocks."""
    h1, h2 = {}, {}
    for ((i, j), r, p), poly in report.P.items():
        h1[((("up1", r), ("up2", p)), ("lo2", (i, j)))] = poly
    for ((i, j), pkl, prs), poly in report.R.items():
        h2[((("up2", pkl), ("up2", prs)), ("lo2", (i, j)))] = poly
    for (i, j, p), poly in report.S.items():
        h2[((("up1", j), ("up2", p)), ("lo1", i))] = poly
    for (i, j, p), poly in report.T.items():
        h2[((("up1", p[0]), ("up1", p[1])), ("zero", (i, j)))] = poly
    return Chain(ODD, report.l, 2, h1) + Chain(ODD, report.l, 2, h2)


def test_curvature_chain_matches_joined_blocks():
    reports = [analyze_fixture("obstructed_l4.frame").curvature]
    rng = random.Random(1207)
    while len(reports) < 4:
        try:
            reports.append(analyze(random_sparse_fields(4, rng)).curvature)
        except (DegenerateFrameError, UnsupportedFrameError):
            continue
    assert any(k.R or k.S or k.T for k in reports[1:])
    for k in reports:
        assert curvature_chain(k) == joined_hom_chains(k)


# --- the Bianchi identity on the lowest homogeneity ----------------------
#
# The lowest homogeneous component of a normal curvature is harmonic, so
# closed under the differential as well as the codifferential (Cap &
# Slovak, Parabolic Geometries I, 3.1.12).  The normalization enforces
# only the codifferential, so differential(kappa_1) = 0 checks the frame,
# the structure functions and the degree-1 solve independently.

def lowest_part_closed(curvature):
    return differential(curvature_chain(curvature).homogeneous_part(1)) \
        .is_zero()


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_lowest_curvature_part_is_closed_on_goldens(name):
    assert lowest_part_closed(analyze_fixture(name).curvature)


@pytest.mark.parametrize("l", [4, 5])
def test_lowest_curvature_part_is_closed_on_random_frames(l):
    rng = random.Random(7)
    checked = 0
    while checked < 4:
        try:
            curvature = analyze(random_sparse_fields(l, rng)).curvature
        except (DegenerateFrameError, UnsupportedFrameError):
            continue
        assert curvature.P
        assert lowest_part_closed(curvature)
        checked += 1


def test_homogeneity_two_part_of_obstructed_frame_is_not_closed():
    """Only the lowest nonzero component need be closed: obstructed_l4 has
    P != 0, and its homogeneity-2 part is not."""
    kc = curvature_chain(analyze_fixture("obstructed_l4.frame").curvature)
    assert not differential(kc.homogeneous_part(2)).is_zero()


def test_closedness_check_catches_a_negated_p_entry():
    """Negating one P entry of obstructed_l4 breaks closedness (the
    Armstrong frames cannot serve: their single entry negated is still
    closed)."""
    P = dict(analyze_fixture("obstructed_l4.frame").curvature.P)
    assert differential(_chain(4, {"P": P})).is_zero()
    key = ((3, 4), 1, (2, 3))
    P[key] = -P[key]
    assert not differential(_chain(4, {"P": P})).is_zero()


# --- metamorphic invariance ------------------------------------------------
#
# flat and kappa11_deg2_zero are properties of the distribution, not of the
# frame that presents it, and any frame of the flat model has P = R = S = T
# = 0 however much its structure functions and connection move.

def triangular_change(fields, rng):
    """X_i -> sum_{j >= i} g_ij X_j for a random constant g with nonzero
    diagonal."""
    out = []
    for i, x in enumerate(fields):
        y = x.scale(rng.choice([1, -1, 2, Fraction(1, 2)]))
        for later in fields[i + 1:]:
            c = rng.choice([0, 0, 1, -1, 2, Fraction(-1, 3)])
            if c:
                y = y + later.scale(c)
        out.append(y)
    return out


def gauge_change(fields, rng):
    """X_i += m X_j for random i != j and a random monomial m in one or
    two single coordinates."""
    ch = fields[0].chart
    i, j = rng.sample(range(len(fields)), 2)
    exps = [0] * ch.ncoords
    for _ in range(rng.randint(1, 2)):
        exps[ch.x_index(rng.randint(1, ch.l))] += 1
    m = Polynomial(ch, {tuple(exps): ExactScalar.of(
        rng.choice([1, -1, 2, Fraction(1, 2)]))})
    out = list(fields)
    out[i] = out[i] + fields[j].scale(m)
    return out


def verdicts(fields):
    k = analyze(fields).curvature
    return k.flat, k.kappa11_deg2_zero


def test_verdicts_are_invariant_under_frame_changes():
    """Two constant triangular changes and one gauge change per frame."""
    bases = [load_fields(name) for name in
             ("flat_l4.frame", "armstrong_l4.frame", "obstructed_l4.frame")]
    rng = random.Random(5)
    while len(bases) < 7:
        fields = random_sparse_fields(4, rng)
        try:
            analyze(fields)
        except (DegenerateFrameError, UnsupportedFrameError):
            continue
        bases.append(fields)
    rng = random.Random(7)
    seen = set()
    for fields in bases:
        want = verdicts(fields)
        seen.add(want)
        for _ in range(2):
            assert verdicts(triangular_change(fields, rng)) == want
        assert verdicts(gauge_change(fields, rng)) == want
    assert seen == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("l", [4, 5])
def test_gauge_changed_flat_frames_have_zero_curvature(l):
    rng = random.Random(l)
    for _ in range(4):
        report = analyze(gauge_change(flat_fields(l), rng))
        c, k = report.connection, report.curvature
        assert not report.f.is_zero()
        assert c.A or c.C or c.E or c.F
        assert not (k.P or k.R or k.S or k.T)
        assert k.flat and k.kappa11_deg2_zero
