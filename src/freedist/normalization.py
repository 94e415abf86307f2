"""Canonical connection normalization through homogeneity two.

Given exact structure functions of a rank-l free-distribution frame, this
module determines the unique connection coefficients fixed by the trace
normalizations, evaluates the curvature of the resulting matrix-valued
connection form, and reports the invariant tensors.

The curvature engine is convention-free: the connection is a single matrix
of polynomial 1-forms, its curvature is computed entrywise as dM - M^M, and
every tensor is read off by evaluating against the dual frame of the
connection coframe and expanding over the graded basis with exact
reconstruction checks.  The linear systems that determine the unknown
coefficients are built from unit-coefficient probes of the same evaluation
rules and factored once per rank, so only right-hand sides vary per frame.

Index conventions for the stored tensors (all dicts are sparse; a missing
key means the zero polynomial; pair indices are stored sorted):

  A[(i, j, k)]          first lower index j contracts the single coframe
  C[(i, (j, k))]        pair-coframe correction, antisymmetric in (j, k)
  E[(i, j, (k, m))]     pair-coframe part of the grade-0 connection block
  F[(i, j)]             symmetric grade-(+1) coefficient block
  P[((i, j), r, (s, t))], Q[(i, (r, s))], R[((i, j), (k, m), (r, s))],
  S[(i, j, (k, m))], T[(i, j, (k, m))]   curvature reads; for R the two
  argument pairs satisfy (k, m) < (r, s) lexicographically.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (BasisKey, Chain, GradedAlgebra, ODD, TermKey,
                      _accumulate, algebra, codifferential)
from .errors import UnsupportedError
from .geometry import (Coframe, DifferentialForm, Frame, PairMinors,
                       StructureFunctions, VectorField, build_frame,
                       dual_coframe, structure_functions)
from .linalg import FactoredSystem
from .polynomials import Polynomial, chart
from .scalars import ExactScalar

Pair = Tuple[int, int]
AKey = Tuple[int, int, int]
CKey = Tuple[int, Pair]
EKey = Tuple[int, int, Pair]
FKey = Tuple[int, int]
PKey = Tuple[Pair, int, Pair]
QKey = Tuple[int, Pair]
RKey = Tuple[Pair, Pair, Pair]
SKey = Tuple[int, int, Pair]

VERDICT_NORMAL = "NormalAtComputedOrder"
VERDICT_OBSTRUCTED = "ObstructedByT"


def _pairs(l: int) -> List[Pair]:
    return [(j, k) for j in range(1, l + 1) for k in range(j + 1, l + 1)]


class ConnectionData:
    """The uniquely normalized connection coefficients of one frame."""

    def __init__(self, l: int, A: Dict[AKey, Polynomial],
                 C: Dict[CKey, Polynomial], E: Dict[EKey, Polynomial],
                 F: Dict[FKey, Polynomial]):
        self.l = l
        self.A = A
        self.C = C
        self.E = E
        self.F = F


class CurvatureReport:
    """Curvature tensors through homogeneity two, plus the verdicts."""

    def __init__(self, l: int, P: Dict[PKey, Polynomial],
                 Q: Dict[QKey, Polynomial], R: Dict[RKey, Polynomial],
                 S: Dict[SKey, Polynomial], T: Dict[SKey, Polynomial],
                 flat: bool, kappa11_deg2_zero: bool,
                 extension_normal_deg2: bool):
        self.l = l
        self.P = P
        self.Q = Q
        self.R = R
        self.S = S
        self.T = T
        self.flat = flat
        self.kappa11_deg2_zero = kappa11_deg2_zero
        self.extension_normal_deg2 = extension_normal_deg2


class AnalysisReport:
    """Everything the analyze pipeline produces for one frame."""

    def __init__(self, l: int, nondegenerate: bool, f: StructureFunctions,
                 connection: ConnectionData, curvature: CurvatureReport,
                 extension_verdict: str):
        self.l = l
        self.nondegenerate = nondegenerate
        self.f = f
        self.connection = connection
        self.curvature = curvature
        self.extension_verdict = extension_verdict


# --------------------------------------------------------------------------
# probe tables: the exact linear responses of the curvature reads to unit
# coefficient perturbations, built from the bracket tables alone
# --------------------------------------------------------------------------

def _delta_read_pattern(r: int, m: int) -> Dict[BasisKey, int]:
    """Coefficient pattern of a pair-coframe differential on two single
    frame fields: the own-pair unit, signed by argument order."""
    if r == m:
        return {}
    if r < m:
        return {("lo2", (r, m)): 1}
    return {("lo2", (m, r)): -1}


def _bracket_into(ga: GradedAlgebra, acc: Dict[BasisKey, ExactScalar],
                  e1: Dict[BasisKey, ExactScalar],
                  e2: Dict[BasisKey, ExactScalar], sign: int) -> None:
    for key, val in ga.bracket_coeffs(ODD, e1, e2).items():
        _accumulate(acc, key, val * sign)


def _emit(items: List, slots: Tuple[BasisKey, ...],
          vals: Dict[BasisKey, ExactScalar], grade: int) -> None:
    for tkey, v in vals.items():
        if GradedAlgebra.grade(tkey) == grade and v:
            items.append((slots, tkey, v))


@lru_cache(maxsize=None)
def _degree1_probes(l: int) -> Tuple[Tuple[AKey, ...], Tuple[Chain, ...]]:
    """Per unit A-coefficient: the exact homogeneity-1 curvature response."""
    ga = algebra(l)
    one = ExactScalar.one()
    unknowns = tuple((i, j, k)
                     for i in range(1, l + 1)
                     for j in range(1, l + 1)
                     for k in range(1, l + 1))
    probes = []
    for (i0, j0, k0) in unknowns:
        # induced pair-coframe correction: C^i_[jk] = A^i_jk - A^i_kj
        cvals: Dict[Tuple[int, Pair], int] = {}
        if j0 != k0:
            p = (j0, k0) if j0 < k0 else (k0, j0)
            cvals[(i0, p)] = 1 if j0 < k0 else -1
        items: List = []
        # single-single reads; keep grade -1 targets
        for r in range(1, l + 1):
            delta_r = {("zero", (i0, k0)): one} if r == j0 else {}
            for s in range(r + 1, l + 1):
                delta_s = {("zero", (i0, k0)): one} if s == j0 else {}
                vals: Dict[BasisKey, ExactScalar] = {}
                for i in range(1, l + 1):
                    c = cvals.get((i, (r, s)))
                    if c:
                        _accumulate(vals, ("lo1", i), ExactScalar.of(c))
                if delta_s:
                    _bracket_into(ga, vals, {("lo1", r): one}, delta_s, -1)
                if delta_r:
                    _bracket_into(ga, vals, delta_r, {("lo1", s): one}, -1)
                _emit(items, (("up1", r), ("up1", s)), vals, -1)
        # single-pair reads; keep grade -2 targets
        for r in range(1, l + 1):
            delta_r = {("zero", (i0, k0)): one} if r == j0 else {}
            for p in _pairs(l):
                vals = {}
                for (m, q), c in cvals.items():
                    if q == p:
                        for key, v in _delta_read_pattern(r, m).items():
                            _accumulate(vals, key, ExactScalar.of(-c * v))
                if delta_r:
                    _bracket_into(ga, vals, delta_r, {("lo2", p): one}, -1)
                _emit(items, (("up1", r), ("up2", p)), vals, -2)
        probes.append(Chain.make(ODD, l, 2, items))
    return unknowns, tuple(probes)


@lru_cache(maxsize=None)
def _degree2_probes(l: int) -> Tuple[Tuple[object, ...], Tuple[Chain, ...]]:
    """Per unit E- or symmetric-F coefficient: the exact homogeneity-2
    curvature response (grade-0, -1, -2 targets on the three read blocks)."""
    ga = algebra(l)
    one = ExactScalar.one()
    pairs = _pairs(l)
    e_unknowns = [("E", (i, j, p))
                  for i in range(1, l + 1)
                  for j in range(1, l + 1)
                  for p in pairs]
    f_unknowns = [("F", (i, j))
                  for i in range(1, l + 1)
                  for j in range(i, l + 1)]
    unknowns = tuple(e_unknowns + f_unknowns)
    probes = []
    for kind, idx in unknowns:
        items: List = []
        if kind == "E":
            i0, j0, p0 = idx
            unit = {("zero", (i0, j0)): one}
            # grade-0 read on the own single pair (pair-coframe
            # differential contributes its own-pair unit)
            items.append(((("up1", p0[0]), ("up1", p0[1])),
                          ("zero", (i0, j0)), one))
            # grade -1 reads on (single, pair) argument pairs
            for j in range(1, l + 1):
                vals: Dict[BasisKey, ExactScalar] = {}
                _bracket_into(ga, vals, {("lo1", j): one}, unit, -1)
                _emit(items, (("up1", j), ("up2", p0)), vals, -1)
            # grade -2 reads on (pair, pair) argument pairs
            for q in pairs:
                if q == p0:
                    continue
                left, right = (p0, q) if p0 < q else (q, p0)
                vals = {}
                if left == p0:
                    _bracket_into(ga, vals, unit, {("lo2", q): one}, -1)
                else:
                    _bracket_into(ga, vals, {("lo2", q): one}, unit, -1)
                _emit(items, (("up2", left), ("up2", right)), vals, -2)
        else:
            i0, j0 = idx

            def delta_single(r: int) -> Dict[BasisKey, ExactScalar]:
                out: Dict[BasisKey, ExactScalar] = {}
                if r == i0:
                    _accumulate(out, ("up1", j0), -one)
                if r == j0 and j0 != i0:
                    _accumulate(out, ("up1", i0), -one)
                return out

            # grade-0 reads on single-single argument pairs
            for k in range(1, l + 1):
                dk = delta_single(k)
                for m in range(k + 1, l + 1):
                    dm = delta_single(m)
                    vals = {}
                    if dm:
                        _bracket_into(ga, vals, {("lo1", k): one}, dm, -1)
                    if dk:
                        _bracket_into(ga, vals, dk, {("lo1", m): one}, -1)
                    _emit(items, (("up1", k), ("up1", m)), vals, 0)
            # grade -1 reads on (single, pair) argument pairs
            for j in range(1, l + 1):
                dj = delta_single(j)
                if not dj:
                    continue
                for p in pairs:
                    vals = {}
                    _bracket_into(ga, vals, dj, {("lo2", p): one}, -1)
                    _emit(items, (("up1", j), ("up2", p)), vals, -1)
        probes.append(Chain.make(ODD, l, 2, items))
    return unknowns, tuple(probes)


# --------------------------------------------------------------------------
# factored normalization systems (constant per rank)
# --------------------------------------------------------------------------

def _row_keys_degree1(l: int) -> List[TermKey]:
    keys: List[TermKey] = []
    for r in range(1, l + 1):
        for i in range(1, l + 1):
            for j in range(1, l + 1):
                keys.append(((("up1", r),), ("zero", (i, j))))
    for p in _pairs(l):
        for i in range(1, l + 1):
            keys.append(((("up2", p),), ("lo1", i)))
    return keys


def _row_keys_degree2(l: int) -> List[TermKey]:
    keys: List[TermKey] = []
    for r in range(1, l + 1):
        for i in range(1, l + 1):
            keys.append(((("up1", r),), ("up1", i)))
    for p in _pairs(l):
        for i in range(1, l + 1):
            for j in range(1, l + 1):
                keys.append(((("up2", p),), ("zero", (i, j))))
    return keys


@lru_cache(maxsize=None)
def _system(l: int, degree: int):
    """The factored normalization system of one degree: per row key, the
    unit probes' codifferential coefficients, assembled by walking each
    probe's codifferential terms once; degree 1 adds its l trace rows."""
    probes_of, keys_of = ((_degree1_probes, _row_keys_degree1)
                          if degree == 1 else
                          (_degree2_probes, _row_keys_degree2))
    unknowns, probes = probes_of(l)
    row_keys = keys_of(l)
    index = {rk: n for n, rk in enumerate(row_keys)}
    rows: List[Dict[int, ExactScalar]] = [{} for _ in row_keys]
    for uidx, probe in enumerate(probes):
        for tk, v in codifferential(probe).terms.items():
            n = index.get(tk)
            if n is not None:
                rows[n][uidx] = v
    if degree == 1:
        uindex = {u: n for n, u in enumerate(unknowns)}
        for k in range(1, l + 1):
            rows.append({uindex[(i, i, k)]: ExactScalar.one()
                         for i in range(1, l + 1)})
    return unknowns, row_keys, FactoredSystem(rows, len(unknowns))


# --------------------------------------------------------------------------
# chain assembly helpers
# --------------------------------------------------------------------------

def _hom1_chain(l: int, P: Dict[PKey, Polynomial],
                Q: Dict[QKey, Polynomial]) -> Chain:
    terms: Dict[TermKey, Polynomial] = {}
    for ((i, j), r, p), poly in P.items():
        terms[((("up1", r), ("up2", p)), ("lo2", (i, j)))] = poly
    for (i, (r, s)), poly in Q.items():
        terms[((("up1", r), ("up1", s)), ("lo1", i))] = poly
    return Chain(ODD, l, 2, terms)


def _hom2_chain(l: int, R: Dict[RKey, Polynomial],
                S: Dict[SKey, Polynomial], T: Dict[SKey, Polynomial]
                ) -> Chain:
    terms: Dict[TermKey, Polynomial] = {}
    for ((i, j), pkl, prs), poly in R.items():
        terms[((("up2", pkl), ("up2", prs)), ("lo2", (i, j)))] = poly
    for (i, j, p), poly in S.items():
        terms[((("up1", j), ("up2", p)), ("lo1", i))] = poly
    for (i, j, p), poly in T.items():
        terms[((("up1", p[0]), ("up1", p[1])), ("zero", (i, j)))] = poly
    return Chain(ODD, l, 2, terms)


def _structure_chain(f: StructureFunctions) -> Chain:
    terms: Dict[TermKey, Polynomial] = {}
    for ((i, j), r, p), poly in f.pp_sp.items():
        terms[((("up1", r), ("up2", p)), ("lo2", (i, j)))] = poly
    return Chain(ODD, f.l, 2, terms)


# --------------------------------------------------------------------------
# degree-1 normalization
# --------------------------------------------------------------------------

def solve_degree1(f: StructureFunctions
                  ) -> Tuple[Dict[AKey, Polynomial], Dict[CKey, Polynomial],
                             Dict[PKey, Polynomial]]:
    """Determine the grade-0 coefficients fixed by the homogeneity-1 trace
    normalization, and the resulting trace-free curvature tensor."""
    l = f.l
    if l < 4:
        raise UnsupportedError(
            "degree-1 normalization requires rank at least 4")
    chart_ = f.chart
    zero_poly = Polynomial.zero(chart_)
    unknowns, row_keys, system = _system(l, 1)
    f_chain = _structure_chain(f)
    d_f = codifferential(f_chain)
    rhs = []
    for rk in row_keys:
        v = d_f.terms.get(rk)
        rhs.append(-v if v is not None else zero_poly)
    rhs.extend([zero_poly] * l)
    xs = system.solve(rhs)
    A = {u: x for u, x in zip(unknowns, xs) if not x.is_zero()}
    C: Dict[CKey, Polynomial] = {}
    for i in range(1, l + 1):
        for p in _pairs(l):
            j, k = p
            c = A.get((i, j, k), zero_poly) - A.get((i, k, j), zero_poly)
            if not c.is_zero():
                C[(i, p)] = c
    P = _apply_degree1_probes(f, A)
    return A, C, P


def _apply_degree1_probes(f: StructureFunctions, A: Dict[AKey, Polynomial]
                          ) -> Dict[PKey, Polynomial]:
    """P = structure-function block plus the exact linear response to A;
    the single-target response must cancel identically."""
    l = f.l
    chart_ = f.chart
    unknowns, probes = _degree1_probes(l)
    acc: Dict[TermKey, Polynomial] = {}
    for ((i, j), r, p), poly in f.pp_sp.items():
        acc[((("up1", r), ("up2", p)), ("lo2", (i, j)))] = poly
    for u, probe in zip(unknowns, probes):
        a = A.get(u)
        if a is None or a.is_zero():
            continue
        for tk, c in probe.terms.items():
            _accumulate(acc, tk, a.scale(c))
    P: Dict[PKey, Polynomial] = {}
    for (slots, target), poly in acc.items():
        if target[0] == "lo1":
            raise AssertionError(
                "single-target homogeneity-1 component failed to cancel")
        r = slots[0][1]
        p = slots[1][1]
        P[((target[1][0], target[1][1]), r, p)] = poly
    return P


# --------------------------------------------------------------------------
# the curvature engine
# --------------------------------------------------------------------------

def _connection_forms(frame: Frame, coframe: Coframe,
                      A: Dict[AKey, Polynomial], C: Dict[CKey, Polynomial],
                      E: Dict[EKey, Polynomial], F: Dict[FKey, Polynomial]
                      ) -> Dict[BasisKey, DifferentialForm]:
    """The component 1-forms of the full connection matrix, indexed by the
    graded basis keys they multiply.  The grade-(+2) components vanish."""
    l = frame.l
    chart_ = frame.chart
    pairs = _pairs(l)
    forms: Dict[BasisKey, DifferentialForm] = {}
    theta_s = {i: coframe.form(("s", i)) for i in range(1, l + 1)}
    theta_p = {p: coframe.form(("p", p)) for p in pairs}
    omega_s: Dict[int, DifferentialForm] = {}
    for i in range(1, l + 1):
        form = theta_s[i]
        for p in pairs:
            c = C.get((i, p))
            if c is not None and not c.is_zero():
                form = form + theta_p[p].scale(c)
        omega_s[i] = form
        forms[("lo1", i)] = form
    for p in pairs:
        forms[("lo2", p)] = theta_p[p]
    for i in range(1, l + 1):
        for j in range(1, l + 1):
            form = DifferentialForm.zero(chart_, 1)
            for k in range(1, l + 1):
                a = A.get((i, k, j))
                if a is not None and not a.is_zero():
                    form = form + omega_s[k].scale(a)
            for p in pairs:
                e = E.get((i, j, p))
                if e is not None and not e.is_zero():
                    form = form + theta_p[p].scale(e)
            if not form.is_zero():
                forms[("zero", (i, j))] = form
    for m in range(1, l + 1):
        form = DifferentialForm.zero(chart_, 1)
        for k in range(1, l + 1):
            fv = F.get((k, m))
            if fv is not None and not fv.is_zero():
                form = form - omega_s[k].scale(fv)
        if not form.is_zero():
            forms[("up1", m)] = form
    return forms


class _EngineReads:
    """Raw curvature reads of one engine run (sparse polynomial dicts)."""

    def __init__(self) -> None:
        self.P: Dict[PKey, Polynomial] = {}
        self.Q: Dict[QKey, Polynomial] = {}
        self.R: Dict[RKey, Polynomial] = {}
        self.S: Dict[SKey, Polynomial] = {}
        self.T: Dict[SKey, Polynomial] = {}


def _expand_poly_matrix(ga: GradedAlgebra,
                        entries: Dict[Tuple[int, int], Polynomial]
                        ) -> Dict[BasisKey, Polynomial]:
    """Expand a matrix of polynomials over the odd basis, verifying the
    reconstruction exactly (membership in the algebra)."""
    coeffs: Dict[BasisKey, Polynomial] = {}
    for key, pos in ga.odd_readoff.items():
        v = entries.get(pos)
        if v is not None and not v.is_zero():
            coeffs[key] = v
    recon: Dict[Tuple[int, int], Polynomial] = {}
    for key, c in coeffs.items():
        for pos, n in ga.odd_mat[key].items():
            _accumulate(recon, pos, c.scale(n))
    cleaned = {pos: v for pos, v in entries.items() if not v.is_zero()}
    if recon != cleaned:
        raise AssertionError(
            "curvature matrix does not lie in the graded algebra")
    return coeffs


def _curvature_values(M: Dict[Tuple[int, int], DifferentialForm],
                      args: List[Tuple[VectorField, VectorField]]
                      ) -> List[Dict[Tuple[int, int], Polynomial]]:
    """The nonzero values of the curvature matrix dM - M wedge M on each
    argument pair.  The 2-forms are built one matrix row at a time and
    evaluated at once, so only one row of them is alive: all of them
    together are the largest transient of an analysis.  Every form is
    evaluated on all pairs through one PairMinors table, which builds the
    pairs' minors once for the whole run."""
    rows: Dict[int, List[Tuple[int, DifferentialForm]]] = {}
    for (r, c), form in M.items():
        rows.setdefault(r, []).append((c, form))
    values: List[Dict[Tuple[int, int], Polynomial]] = [{} for _ in args]
    minors = PairMinors(args[0][0].chart, args)
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
            for i, val in minors.values(form).items():
                values[i][(r, c)] = val
    return values


def _curvature_reads(frame: Frame, A: Dict[AKey, Polynomial],
                     C: Dict[CKey, Polynomial], E: Dict[EKey, Polynomial],
                     F: Dict[FKey, Polynomial]) -> _EngineReads:
    """Run the matrix curvature engine and read all homogeneity-(0..2)
    components; homogeneity-0 components and single-target reads on two
    single arguments must vanish exactly."""
    l = frame.l
    ga = algebra(l)
    pairs = _pairs(l)
    coframe = dual_coframe(frame)
    forms = _connection_forms(frame, coframe, A, C, E, F)

    # assemble the matrix of 1-forms
    M: Dict[Tuple[int, int], DifferentialForm] = {}
    for key, form in forms.items():
        for pos, n in ga.odd_mat[key].items():
            add = form.scale(n)
            old = M.get(pos)
            M[pos] = add if old is None else old + add
    M = {pos: f for pos, f in M.items() if not f.is_zero()}

    # the dual frame of the connection coframe
    W_s = {i: frame.field(("s", i)) for i in range(1, l + 1)}
    W_p: Dict[Pair, VectorField] = {}
    for p in pairs:
        w = frame.field(("p", p))
        for m in range(1, l + 1):
            c = C.get((m, p))
            if c is not None and not c.is_zero():
                w = w - W_s[m].scale(c)
        W_p[p] = w

    ss = [(r, s) for r in range(1, l + 1) for s in range(r + 1, l + 1)]
    sp = [(r, p) for r in range(1, l + 1) for p in pairs]
    pp = [(pairs[pi], pairs[qi]) for pi in range(len(pairs))
          for qi in range(pi + 1, len(pairs))]
    values = _curvature_values(
        M, [(W_s[r], W_s[s]) for r, s in ss]
        + [(W_s[r], W_p[p]) for r, p in sp]
        + [(W_p[p], W_p[q]) for p, q in pp])
    # one read per argument pair, in the order ss, sp, pp; zip takes the
    # pair first, so each loop below takes exactly its own reads
    reads = (_expand_poly_matrix(ga, entries) for entries in values)

    out = _EngineReads()
    for (r, s), comps in zip(ss, reads):
        for key, poly in comps.items():
            kind = key[0]
            if kind == "lo2":
                raise AssertionError(
                    "homogeneity-0 curvature component is nonzero")
            if kind == "lo1":
                out.Q[(key[1], (r, s))] = poly
            elif kind == "zero":
                out.T[(key[1][0], key[1][1], (r, s))] = poly
    for (r, p), comps in zip(sp, reads):
        for key, poly in comps.items():
            kind = key[0]
            if kind == "lo2":
                out.P[(key[1], r, p)] = poly
            elif kind == "lo1":
                out.S[(key[1], r, p)] = poly
    for (pkl, prs), comps in zip(pp, reads):
        for key, poly in comps.items():
            if key[0] == "lo2":
                out.R[(key[1], pkl, prs)] = poly
    if out.Q:
        raise AssertionError(
            "single-target homogeneity-1 curvature reads are nonzero")
    return out


# --------------------------------------------------------------------------
# degree-2 normalization
# --------------------------------------------------------------------------

def solve_degree2(frame: Frame, f: StructureFunctions,
                  A: Dict[AKey, Polynomial], C: Dict[CKey, Polynomial]
                  ) -> Tuple[Dict[EKey, Polynomial], Dict[FKey, Polynomial],
                             Dict[RKey, Polynomial], Dict[SKey, Polynomial],
                             Dict[SKey, Polynomial]]:
    """Determine the homogeneity-2 coefficients fixed by the codifferential
    normalization, and the resulting curvature tensors."""
    l = frame.l
    if l < 4:
        raise UnsupportedError(
            "degree-2 normalization requires rank at least 4")
    chart_ = frame.chart
    zero_poly = Polynomial.zero(chart_)
    reads = _curvature_reads(frame, A, C, {}, {})

    # cross-check: the engine's homogeneity-1 read must equal the
    # probe-table evaluation used by the degree-1 solve
    expected_P = _apply_degree1_probes(f, A)
    if reads.P != expected_P:
        raise AssertionError(
            "engine homogeneity-1 read disagrees with the probe table")

    baseline = _hom2_chain(l, reads.R, reads.S, reads.T)
    d_base = codifferential(baseline)
    unknowns, row_keys, system = _system(l, 2)
    rhs = []
    for rk in row_keys:
        v = d_base.terms.get(rk)
        rhs.append(-v if v is not None else zero_poly)
    xs = system.solve(rhs)

    E: Dict[EKey, Polynomial] = {}
    F: Dict[FKey, Polynomial] = {}
    for (kind, idx), x in zip(unknowns, xs):
        if x.is_zero():
            continue
        if kind == "E":
            E[idx] = x
        else:
            i, j = idx
            F[(i, j)] = x
            if i != j:
                F[(j, i)] = x

    R = dict(reads.R)
    S = dict(reads.S)
    T = dict(reads.T)
    _, probes = _degree2_probes(l)
    for (kind, idx), x, probe in zip(unknowns, xs, probes):
        if x.is_zero():
            continue
        for (slots, target), c in probe.terms.items():
            k0, k1 = slots
            if target[0] == "lo2":
                key = (target[1], k0[1], k1[1])
                table = R
            elif target[0] == "lo1":
                key = (target[1], k0[1], k1[1])
                table = S
            else:
                key = (target[1][0], target[1][1], (k0[1], k1[1]))
                table = T
            _accumulate(table, key, x.scale(c))

    final = _hom2_chain(l, R, S, T)
    if not codifferential(final).is_zero():
        raise AssertionError(
            "normalized homogeneity-2 curvature is not codifferential-free")
    return E, F, R, S, T


# --------------------------------------------------------------------------
# verdicts and orchestration
# --------------------------------------------------------------------------

def flatness_test(P: Dict[PKey, Polynomial]) -> bool:
    """True iff every entry of the fundamental invariant is zero."""
    return all(poly.is_zero() for poly in P.values())


def curvature_chain(report: CurvatureReport) -> Chain:
    """The degree-<=2 truncation of the curvature as a polynomial chain."""
    if any(not poly.is_zero() for poly in report.Q.values()):
        raise AssertionError("curvature report carries a nonzero Q block")
    l = report.l
    h1 = _hom1_chain(l, report.P, {})
    h2 = _hom2_chain(l, report.R, report.S, report.T)
    return h1 + h2


def extension_normality_report(report: CurvatureReport) -> Dict[str, object]:
    """The obstruction verdict for extending to the even-side geometry at
    the computed order."""
    ok = report.kappa11_deg2_zero
    return {"kappa11_deg2_zero": ok,
            "verdict": VERDICT_NORMAL if ok else VERDICT_OBSTRUCTED}


def analyze(fields: Sequence[VectorField],
            point: Optional[Dict[int, ExactScalar]] = None
            ) -> AnalysisReport:
    """Full pipeline: frame, structure functions, both normalization
    degrees, curvature tensors, and verdicts."""
    frame = build_frame(fields, point)
    f = structure_functions(frame)
    A, C, P = solve_degree1(f)
    E, F, R, S, T = solve_degree2(frame, f, A, C)
    flat = flatness_test(P)
    t_zero = all(poly.is_zero() for poly in T.values())
    kappa11 = t_zero  # Q vanishes identically (asserted by the engine)
    connection = ConnectionData(frame.l, A, C, E, F)
    curvature = CurvatureReport(frame.l, P, {}, R, S, T, flat, kappa11,
                                kappa11)
    verdict = VERDICT_NORMAL if kappa11 else VERDICT_OBSTRUCTED
    _share_equal_values([table for _, table in f.blocks()]
                        + [A, C, E, F, P, R, S, T])
    return AnalysisReport(frame.l, True, f, connection, curvature, verdict)


def _share_equal_values(tables: List[Dict[Tuple, Polynomial]]) -> None:
    """Make equal polynomials across a report's tables one object, with
    equal coefficients one object too.  On random rank-4 frames about half
    of a report's polynomials and most of its coefficients repeat, so a
    report kept alive (a batch over many frames) is about 28% smaller."""
    polys: Dict[frozenset, Polynomial] = {}
    scalars: Dict[ExactScalar, ExactScalar] = {}
    for table in tables:
        for key, poly in table.items():
            k = frozenset(poly.terms.items())
            shared = polys.get(k)
            if shared is None:
                shared = polys[k] = Polynomial(
                    poly.chart, {e: scalars.setdefault(c, c)
                                 for e, c in poly.terms.items()})
            table[key] = shared


# --------------------------------------------------------------------------
# JSON serialization of analysis reports
# --------------------------------------------------------------------------

def _fmt_idx(part) -> str:
    if isinstance(part, tuple):
        return f"[{part[0]},{part[1]}]"
    return str(part)


def _fmt_key(parts) -> str:
    return ",".join(_fmt_idx(p) for p in parts)


def _parse_key(text: str) -> Tuple[object, ...]:
    parts: List[object] = []
    i = 0
    while i < len(text):
        if text[i] == "[":
            j = text.index("]", i)
            a, b = text[i + 1:j].split(",")
            parts.append((int(a), int(b)))
            i = j + 1
            if i < len(text) and text[i] == ",":
                i += 1
        else:
            j = text.find(",", i)
            if j == -1:
                j = len(text)
            parts.append(int(text[i:j]))
            i = j + 1
    return tuple(parts)


def _key_order(parts) -> Tuple:
    return tuple((0, p, 0) if isinstance(p, int) else (1, p[0], p[1])
                 for p in parts)


def _tensor_to_json(table: Dict) -> Dict[str, str]:
    out = {}
    for key in sorted(table.keys(), key=_key_order):
        poly = table[key]
        if not poly.is_zero():
            out[_fmt_key(key)] = poly.to_expr()
    return out


def _structure_to_json(f: StructureFunctions) -> Dict[str, str]:
    merged: Dict[Tuple, Polynomial] = {}
    for _, block in f.blocks():
        for key, poly in block.items():
            merged[key] = poly
    return _tensor_to_json(merged)


def report_to_json(report: AnalysisReport) -> Dict[str, object]:
    c = report.connection
    k = report.curvature
    return {
        "l": report.l,
        "nondegenerate": report.nondegenerate,
        "structure_functions": _structure_to_json(report.f),
        "A": _tensor_to_json(c.A),
        "C": _tensor_to_json(c.C),
        "E": _tensor_to_json(c.E),
        "F": _tensor_to_json(c.F),
        "P": _tensor_to_json(k.P),
        "R": _tensor_to_json(k.R),
        "S": _tensor_to_json(k.S),
        "T": _tensor_to_json(k.T),
        "flat": k.flat,
        "kappa11_deg2_zero": k.kappa11_deg2_zero,
        "extension_verdict": report.extension_verdict,
    }


def report_from_json(data: Dict[str, object]) -> AnalysisReport:
    """Rebuild a full report (exact polynomials included) from its JSON
    form; the inverse of report_to_json up to sparse-zero cleanup."""
    from .parsing import parse_expression

    l = int(data["l"])
    chart_ = chart(l)

    def tensor(name: str) -> Dict[Tuple, Polynomial]:
        out = {}
        for key_text, expr in data[name].items():
            out[_parse_key(key_text)] = parse_expression(expr, chart_)
        return out

    f = StructureFunctions(l, chart_)
    for key_text, expr in data["structure_functions"].items():
        key = _parse_key(key_text)
        poly = parse_expression(expr, chart_)
        target, left, right = key
        if isinstance(left, int):
            table = f.ss_sp if isinstance(target, int) else f.pp_sp
        else:
            table = f.ss_pp if isinstance(target, int) else f.pp_pp
        table[key] = poly

    connection = ConnectionData(l, tensor("A"), tensor("C"), tensor("E"),
                                tensor("F"))
    flat = bool(data["flat"])
    kappa11 = bool(data["kappa11_deg2_zero"])
    curvature = CurvatureReport(l, tensor("P"), {}, tensor("R"), tensor("S"),
                                tensor("T"), flat, kappa11, kappa11)
    return AnalysisReport(l, bool(data["nondegenerate"]), f, connection,
                          curvature, str(data["extension_verdict"]))
