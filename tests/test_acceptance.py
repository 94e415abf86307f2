"""Acceptance gate: the ten shipped correctness criteria, one test each.

Every assertion is literal equality on exact arithmetic — no tolerances.
Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.
"""

import itertools
import json
import random
from fractions import Fraction

from conftest import (constant_term, data_path, poly_det,
                      random_sparse_fields)
from freedist.algebra import (EVEN, ODD, Chain, algebra, algebra_battery,
                              codifferential, commutator_operator,
                              commutator_operator_closed_form, differential,
                              kappa11_normality_test)
from freedist.cohomology import harmonic_space
from freedist.errors import DegenerateFrameError, UnsupportedFrameError
from freedist.linalg import kernel_of_columns
from freedist.normalization import (VERDICT_NORMAL, analyze, curvature_chain,
                                    report_to_json)
from freedist.parsing import parse_frame_file
from freedist.polynomials import Polynomial, chart
from freedist.scalars import ExactScalar
from freedist.spinorial import (SkewMatrix, null_cone_member, pfaffian,
                                pfaffian_quadratic_form,
                                quadratic_form_signature, skew_to_tangent)

ONE = ExactScalar.one()


def analyze_fixture(name):
    with open(data_path(name), encoding="utf-8") as fh:
        _, fields = parse_frame_file(fh.read())
    return analyze(fields)


def unit2(l, slots, target):
    return Chain(ODD, l, 2, {(tuple(slots), target): ONE})


def trace_rows_of_chain(chain):
    """Both trace contractions of a chain supported on (up1, up2) x lo2.

    Returns the accumulated row sums keyed by contraction label; an empty
    dict means the chain is totally trace-free.  Row patterns:
      ('tr1', p, m): contraction of the single slot index with the target
        pair — the sum over r of the coefficient at (r, p) x (r, m)-signed.
      ('tr2', r, u, m): contraction of the pair slot with the target pair —
        the signed sum over s of the coefficient at (r, (s,u)) x (s, m).
    """
    rows = {}

    def acc(key, v):
        s = rows.get(key)
        s = v if s is None else s + v
        if s:
            rows[key] = s
        elif key in rows:
            del rows[key]

    for (slots, tgt), v in chain.terms.items():
        assert tuple(s[0] for s in slots) == ("up1", "up2")
        assert tgt[0] == "lo2"
        r = slots[0][1]
        p = slots[1][1]
        a, b = tgt[1]
        if a == r:
            acc(("tr1", p, b), v)
        if b == r:
            acc(("tr1", p, a), -v)
        p1, p2 = p
        for (s, u, sgn) in ((p1, p2, 1), (p2, p1, -1)):
            if a == s:
                acc(("tr2", r, u, b), v if sgn == 1 else -v)
            if b == s:
                acc(("tr2", r, u, a), -v if sgn == 1 else v)
    return rows


def assert_report_self_consistent(rep):
    """Shared exact invariants of every analysis report."""
    l = rep.l
    ch = chart(l)
    zero = Polynomial.zero(ch)
    # partial-connection trace: sum_i A^i_{i,k} = 0 for every k
    for k in range(1, l + 1):
        acc = zero
        for i in range(1, l + 1):
            v = rep.connection.A.get((i, i, k))
            if v is not None:
                acc = acc + v
        assert acc.is_zero()
    # curvature P totally trace-free (both contraction families)
    pairs = [(j, k) for j in range(1, l + 1) for k in range(j + 1, l + 1)]

    def p_signed(tgt_a, tgt_b, r, arg):
        if tgt_a == tgt_b:
            return zero
        a, b, sign = ((tgt_a, tgt_b, 1) if tgt_a < tgt_b
                      else (tgt_b, tgt_a, -1))
        v = rep.curvature.P.get(((a, b), r, arg))
        if v is None:
            return zero
        return v if sign == 1 else -v

    for p in pairs:
        for m in range(1, l + 1):
            acc = zero
            for r in range(1, l + 1):
                acc = acc + p_signed(r, m, r, p)
            assert acc.is_zero()
    for r in range(1, l + 1):
        for u in range(1, l + 1):
            for m in range(1, l + 1):
                acc = zero
                for s in range(1, l + 1):
                    if s == u:
                        continue
                    a, b, sgn = (s, u, 1) if s < u else (u, s, -1)
                    v = p_signed(s, m, r, (a, b))
                    acc = acc + (v if sgn == 1 else -v)
                assert acc.is_zero()
    # second-degree symmetric coefficient block
    for (i, j), v in rep.connection.F.items():
        assert rep.connection.F.get((j, i)) == v
    # no residual curvature block
    assert not rep.curvature.Q
    # the codifferential annihilates both homogeneity layers exactly
    kc = curvature_chain(rep.curvature)
    assert codifferential(kc.homogeneous_part(1)).is_zero()
    assert codifferential(kc.homogeneous_part(2)).is_zero()


# --------------------------------------------------------------------------
# criterion 1 — single-twist golden frames, ranks 4..8
# --------------------------------------------------------------------------

def test_criterion_01_single_twist_goldens_rank_4_to_8():
    for l in (4, 5, 6, 7, 8):
        rep = analyze_fixture(f"armstrong_l{l}.frame")
        ch = chart(l)
        one_poly = Polynomial.const(ch, ONE)
        assert rep.l == l and rep.nondegenerate
        # exactly one nonzero structure function: pair [3,4] from single 1
        # against pair [1,2], with coefficient exactly 1
        assert dict(rep.f.pp_sp) == {((3, 4), 1, (1, 2)): one_poly}
        assert rep.f.ss_sp == {} and rep.f.ss_pp == {} and rep.f.pp_pp == {}
        assert not rep.connection.A and not rep.connection.C
        assert not rep.connection.E and not rep.connection.F
        k = rep.curvature
        assert dict(k.P) == {((3, 4), 1, (1, 2)): one_poly}
        assert not k.R and not k.S and not k.T
        assert k.flat is False
        assert k.kappa11_deg2_zero is True
        assert rep.extension_verdict == VERDICT_NORMAL
        assert kappa11_normality_test(curvature_chain(k)) is True


# --------------------------------------------------------------------------
# criterion 2 — flat-model golden frames, ranks 4, 5, 7 and 8
# --------------------------------------------------------------------------

def test_criterion_02_flat_model_goldens():
    for l in (4, 5, 7, 8):
        rep = analyze_fixture(f"flat_l{l}.frame")
        assert rep.l == l and rep.nondegenerate
        assert rep.f.is_zero()
        assert not rep.connection.A and not rep.connection.C
        assert not rep.connection.E and not rep.connection.F
        k = rep.curvature
        assert not k.P and not k.R and not k.S and not k.T
        assert k.flat is True
        assert k.kappa11_deg2_zero is True
        assert rep.extension_verdict == VERDICT_NORMAL


# --------------------------------------------------------------------------
# criterion 3 — trace-form pairing values and the full algebra battery
# --------------------------------------------------------------------------

def test_criterion_03_pairing_values_and_algebra_battery():
    ga = algebra(4)

    def raw_trace_form(k1, k2):
        m1 = ga.sides[ODD].mats[k1]
        m2 = ga.sides[ODD].mats[k2]
        return sum(v1 * m2.get((c1, r1), 0) for (r1, c1), v1 in m1.items())

    for p in ga.pair_indices:
        assert raw_trace_form(("lo2", p), ("up2", p)) == -2
    for i in range(1, 5):
        assert raw_trace_form(("lo1", i), ("up1", i)) == -2
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                assert raw_trace_form(("zero", (i, j)), ("zero", (j, i))) == 2

    # embedding homomorphism on all basis pairs, transfer duality on all
    # (positive, basis) pairs, and the five defect commutation relations are
    # exhaustive named checks inside the battery
    results = dict(algebra_battery(4))
    assert results["killing-pairing-values"] is True
    assert results["alpha-homomorphism"] is True
    assert results["phi-duality"] is True
    assert results["delta-relations"] is True
    assert all(results.values())


# --------------------------------------------------------------------------
# criterion 4 — operator equals its closed forms on every basis 2-chain
# --------------------------------------------------------------------------

def test_criterion_04_operator_matches_closed_forms():
    l = 4
    ga = algebra(l)
    pos = ga.positive_keys
    for a in range(len(pos)):
        for b in range(a + 1, len(pos)):
            s1, s2 = pos[a], pos[b]
            for tgt in ga.odd_keys:
                c = unit2(l, (s1, s2), tgt)
                img = commutator_operator(c)
                assert img == commutator_operator_closed_form(c)
                if s1[0] == "up2" and s2[0] == "up2":
                    # the doubly-second-degree block maps to zero
                    assert img.is_zero()


# --------------------------------------------------------------------------
# criterion 5 — defect annihilators and the operator kernel blocks
# --------------------------------------------------------------------------

def test_criterion_05_annihilator_intersection_and_operator_kernel():
    l = 4
    ga = algebra(l)
    pos = ga.positive_keys

    # (a) every positive basis element is annihilated by every defect map,
    # and the stacked kernel over all defect maps has exactly that dimension:
    # the common annihilator IS the positive part, as a subspace equality
    for i in range(1, l + 1):
        for key in pos:
            img = ga.bracket_coeffs(EVEN, ga.defect_up(i),
                                    ga.embed_coeffs({key: ONE}))
            assert img == {}
    columns = []
    for key in ga.odd_keys:
        col = {}
        for i in range(1, l + 1):
            img = ga.bracket_coeffs(EVEN, ga.defect_up(i),
                                    ga.embed_coeffs({key: ONE}))
            for ekey, v in img.items():
                col[(i, ekey)] = v
        columns.append(col)
    ker = kernel_of_columns(columns)
    assert len(ker) == len(pos) == 10
    pos_set = set(pos)
    for vec in ker:
        support = {key for key, v in zip(ga.odd_keys, vec) if v}
        assert support <= pos_set

    # (b) the operator kernel contains the whole mixed block with
    # positive-part targets
    for i in range(1, l + 1):
        for p in ga.pair_indices:
            for tgt in pos:
                c = unit2(l, (("up1", i), ("up2", p)), tgt)
                assert commutator_operator(c).is_zero()

    # (c) the operator is injective on the doubly-first-degree block:
    # the kernel of its restriction there is exactly {0}
    images = []
    for a in range(1, l + 1):
        for b in range(a + 1, l + 1):
            for tgt in ga.odd_keys:
                img = commutator_operator(
                    unit2(l, (("up1", a), ("up1", b)), tgt))
                images.append(dict(img.terms))
    assert kernel_of_columns(images) == []


# --------------------------------------------------------------------------
# criterion 6 — normality-test property suite
# --------------------------------------------------------------------------

def _constraint_column(l, tk):
    """Side-condition rows a degree-2 chain must satisfy at the unit
    termkey ``tk`` for the normality test: the all-first-degree part of its
    differential vanishes, the first-degree projection of its codifferential
    vanishes, and every trace contraction on the mixed block vanishes."""
    (s1, s2), tgt = tk
    col = {}

    def acc(key, v):
        s = col.get(key)
        s = v if s is None else s + v
        if s:
            col[key] = s
        elif key in col:
            del col[key]

    unit = Chain(ODD, l, 2, {tk: ONE})
    for k3, v in differential(unit).terms.items():
        slots3, _ = k3
        if all(s[0] == "up1" for s in slots3):
            acc(("d", k3), v)
    for k1, v in codifferential(unit).terms.items():
        slots1, _ = k1
        if slots1[0][0] == "up1":
            acc(("pr", k1), v)
    if s1[0] == "up1":
        r = s1[1]
        p = s2[1]
        if tgt[0] == "lo2":
            a, b = tgt[1]
            if a == r:
                acc(("tr1", p, b), ONE)
            if b == r:
                acc(("tr1", p, a), -ONE)
            p1, p2 = p
            for (s, u, sgn) in ((p1, p2, 1), (p2, p1, -1)):
                sv = ExactScalar.of(sgn)
                if a == s:
                    acc(("tr2", r, u, b), sv)
                if b == s:
                    acc(("tr2", r, u, a), -sv)
        elif tgt[0] == "lo1":
            if tgt[1] == r:
                acc(("trS", p), ONE)
        elif tgt[0] == "zero":
            a, b = tgt[1]
            if a == r:
                acc(("trZ", p, b), ONE)
    return col


def test_criterion_06_normality_test_property_suite():
    l = 4
    ga = algebra(l)
    pos = ga.positive_keys
    nkeys = len(ga.odd_keys)

    # (a) 100 random chains with a nonzero doubly-first-degree component
    # must all fail the test, whatever else they contain
    rng = random.Random(20260819)
    tested = 0
    while tested < 100:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, l - 1)
            j = rng.randint(i + 1, l)
            tgt = ga.odd_keys[rng.randrange(nkeys)]
            terms[((("up1", i), ("up1", j)), tgt)] = ExactScalar.of(
                rng.choice([1, -1, 2, -2, 3]))
        for _ in range(rng.randint(0, 6)):
            s1, s2 = sorted(rng.sample(range(len(pos)), 2))
            tgt = ga.odd_keys[rng.randrange(nkeys)]
            terms[((pos[s1], pos[s2]), tgt)] = ExactScalar.of(
                rng.randint(-4, 4))
        c = Chain(ODD, l, 2, {k: v for k, v in terms.items() if v})
        if not any(k[0][0][0] == "up1" and k[0][1][0] == "up1"
                   for k in c.terms):
            continue
        assert kappa11_normality_test(c) is False
        tested += 1

    # (b) 100 random chains satisfying the side conditions must all pass.
    # Build the exact solution space of the side conditions on the
    # mixed + doubly-second-degree blocks, then sample integer combinations.
    tks = []
    for r in range(1, l + 1):
        for p in ga.pair_indices:
            for tgt in ga.odd_keys:
                tks.append(((("up1", r), ("up2", p)), tgt))
    for i, p in enumerate(ga.pair_indices):
        for q in ga.pair_indices[i + 1:]:
            for tgt in ga.odd_keys:
                tks.append(((("up2", p), ("up2", q)), tgt))
    assert len(tks) == 1404
    ker = kernel_of_columns([_constraint_column(l, tk) for tk in tks])
    assert len(ker) == 1140
    basis_chains = [
        Chain(ODD, l, 2, {tk: v for tk, v in zip(tks, vec) if v})
        for vec in ker]
    tested = 0
    while tested < 100:
        terms = {}
        for c in rng.sample(basis_chains, rng.randint(2, 6)):
            w = ExactScalar.of(rng.randint(-5, 5))
            if not w:
                continue
            for tk, v in c.terms.items():
                s = terms.get(tk, ExactScalar.zero()) + w * v
                if s:
                    terms[tk] = s
                elif tk in terms:
                    del terms[tk]
        chain = Chain(ODD, l, 2, terms)
        if not chain.terms:
            continue
        assert kappa11_normality_test(chain) is True
        tested += 1


# --------------------------------------------------------------------------
# criterion 7 — harmonic profile at rank 4 and the trace-kernel oracle
# --------------------------------------------------------------------------

def test_criterion_07_harmonic_profile_and_trace_oracle():
    dims = {h: harmonic_space(4, 2, h).dimension for h in (1, 2, 3, 4)}
    assert dims == {1: 60, 2: 0, 3: 0, 4: 0}
    for h in range(0, 5):
        assert harmonic_space(4, 1, h).dimension == 0

    hs = harmonic_space(4, 2, 1)
    for c in hs.basis:
        # supported on (first-degree, second-degree) slots with
        # second-lowering targets, and totally trace-free
        assert trace_rows_of_chain(c) == {}

    # independent oracle: the harmonic dimension must equal the kernel
    # dimension of the two trace contractions on that block alone
    pairs = [(j, k) for j in range(1, 5) for k in range(j + 1, 5)]
    columns = []
    for r in range(1, 5):
        for p in pairs:
            for q in pairs:
                col = {}
                a, b = q
                if a == r:
                    col[("tr1", p, b)] = col.get(("tr1", p, b), 0) + 1
                if b == r:
                    col[("tr1", p, a)] = col.get(("tr1", p, a), 0) - 1
                p1, p2 = p
                for (s, u, sgn) in ((p1, p2, 1), (p2, p1, -1)):
                    if a == s:
                        col[("tr2", r, u, b)] = col.get(
                            ("tr2", r, u, b), 0) + sgn
                    if b == s:
                        col[("tr2", r, u, a)] = col.get(
                            ("tr2", r, u, a), 0) - sgn
                columns.append({k: ExactScalar.of(v)
                                for k, v in col.items() if v})
    assert len(columns) == 144
    oracle_dim = len(kernel_of_columns(columns))
    assert oracle_dim == 60
    assert hs.dimension == oracle_dim


# --------------------------------------------------------------------------
# criterion 8 — self-consistency on 25 random sparse unimodular frames
# --------------------------------------------------------------------------

def _random_frame_reports(check):
    rng = random.Random(20260819)
    out = []
    tries = 0
    while len(out) < 25:
        tries += 1
        assert tries < 500
        fields = random_sparse_fields(4, rng)
        try:
            rep = analyze(fields)
        except (DegenerateFrameError, UnsupportedFrameError):
            continue
        if check:
            assert_report_self_consistent(rep)
        out.append(json.dumps(report_to_json(rep)))
    return out


def test_criterion_08_random_frame_self_consistency():
    first = _random_frame_reports(check=True)
    # rerunning the identical pipeline must reproduce every report
    # byte for byte
    second = _random_frame_reports(check=False)
    assert first == second


# --------------------------------------------------------------------------
# criterion 9 — Pfaffian square identity, signature, and the null cone
# --------------------------------------------------------------------------

def test_criterion_09_pfaffian_and_null_cone():
    ch = chart(3)

    def exact_det(m):
        rows = [[Polynomial.const(ch, m.entry(i, j)) for j in range(m.size)]
                for i in range(m.size)]
        return constant_term(poly_det(rows))

    rng = random.Random(20260819)
    for n in (4, 6):
        for _ in range(20):
            rows = [[ExactScalar.zero() for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = ExactScalar(Fraction(rng.randint(-6, 6),
                                             rng.randint(1, 3)),
                                    Fraction(rng.randint(-2, 2)))
                    rows[i][j] = v
                    rows[j][i] = -v
            m = SkewMatrix(rows)
            pf = pfaffian(m)
            assert pf * pf == exact_det(m)

    assert quadratic_form_signature(pfaffian_quadratic_form(3)) == (3, 3)

    for _ in range(25):
        a = [ExactScalar.of(rng.randint(-3, 3)) for _ in range(4)]
        b = [ExactScalar.of(rng.randint(-3, 3)) for _ in range(4)]
        rows = [[a[i] * b[j] - a[j] * b[i] for j in range(4)]
                for i in range(4)]
        v = skew_to_tangent(SkewMatrix(rows), 3)
        assert null_cone_member(v, 3) is True


# --------------------------------------------------------------------------
# criterion 10 — both differentials square to zero on full bases
# --------------------------------------------------------------------------

def test_criterion_10_differentials_square_to_zero():
    l = 4
    ga = algebra(l)
    pos = ga.positive_keys
    count1 = 0
    for key in pos:
        for tgt in ga.odd_keys:
            c = Chain(ODD, l, 1, {((key,), tgt): ONE})
            assert differential(differential(c)).is_zero()
            count1 += 1
    assert count1 == 360
    count2 = 0
    for a in range(len(pos)):
        for b in range(a + 1, len(pos)):
            for tgt in ga.odd_keys:
                c = unit2(l, (pos[a], pos[b]), tgt)
                assert codifferential(codifferential(c)).is_zero()
                count2 += 1
    assert count2 == 1620
    count3 = 0
    for combo in itertools.combinations(pos, 3):
        for tgt in ga.odd_keys:
            c = Chain(ODD, l, 3, {(combo, tgt): ONE})
            assert codifferential(codifferential(c)).is_zero()
            count3 += 1
    assert count3 == 4320
