"""Canonical connection normalization through homogeneity two.

Given exact structure functions of a rank-l free-distribution frame, this
module determines the unique connection coefficients fixed by the trace
normalizations, evaluates the curvature of the resulting matrix-valued
connection form, and reports the invariant tensors.

The curvature engine evaluates the structure equation on frame pairs in
basis coefficients: the connection's value on each frame field is read off
the coefficients because the coframe is dual to the frame, and the
curvature on each frame pair comes from those values, their derivatives
along the frame, the frame brackets that the structure functions give and
the algebra's bracket tables, on the basis keys that can reach homogeneity
at most 2 only.  Its homogeneity-(1, 2) part is read as one 2-chain on the
dual frame of the connection coframe.  Both normalization degrees solve on
that chain the same way.  Each unknown changes the connection by a signed unit
1-chain (``_units``), so it changes the curvature by the Lie algebra
differential of that chain (Cap & Slovak, Parabolic Geometries I, 3.1).
The codifferential of the chain is the right-hand side of a linear system
whose columns are the codifferentials of those differentials.  These are
g_0-equivariant (Cap & Slovak 3.1-3.3), so the system splits into one block
per torus weight, factored when a right-hand side is first nonzero there
(``_block``); the chain plus the differential of the solved 1-chain is the
normalized curvature.

The curvature tensors P, Q (homogeneity 1) and R, S, T (homogeneity 2)
are the parts of that chain.  One key rule (``_chain`` and its inverse
``_tensors``) maps them: the slot kinds and target kind of a term name
its tensor, and its tensor key is the target index followed by the slot
indices.

Index conventions for the stored tensors (all dicts are sparse; a missing
key means the zero polynomial; pair indices are stored sorted):

  A[(i, j, k)]          first lower index j contracts the single coframe
  C[(i, (j, k))]        pair-coframe correction, antisymmetric in (j, k)
  E[(i, j, (k, m))]     pair-coframe part of the grade-0 connection block
  F[(i, j)]             symmetric grade-(+1) coefficient block
  P[((i, j), r, (s, t))], Q[(i, (r, s))], R[((i, j), (k, m), (r, s))],
  S[(i, j, (k, m))], T[(i, j, (k, m))]   curvature tensors; for R the two
  argument pairs satisfy (k, m) < (r, s) lexicographically.  Q is always
  empty: the engine refuses a nonzero one.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (BasisKey, Chain, GradedAlgebra, ODD, TermKey, _apply,
                      _codifferential_term, _differential_term, algebra,
                      codifferential, differential)
from .cohomology import _int_scalar, _term_keys, _weight_blocks
from .errors import UnsupportedError
from .geometry import (Frame, FrameKey, StructureFunctions, VectorField,
                       build_frame, structure_functions)
from .linalg import FactoredSystem
from .polynomials import Polynomial, accumulate, add_product, chart
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
# the normalization unknowns and their unit 1-chains
# --------------------------------------------------------------------------

Unit = Tuple[Tuple[TermKey, int], ...]


@lru_cache(maxsize=None)
def _units(l: int, degree: int) -> Tuple[Tuple, Tuple[Unit, ...]]:
    """The unknowns of one normalization degree, each with its signed unit
    1-chain as ((slots, target), sign) items.  A unit change of the unknown
    changes the connection by that 1-chain, so the curvature by its
    differential: degree 1 has the A coefficients (i, j, k) with their
    induced pair-coframe correction C^i_{jk}, degree 2 the E coefficients
    (i, j, p) and the symmetric F coefficients (i, j), i <= j."""
    span = range(1, l + 1)
    units: List[Unit] = []
    if degree == 1:
        unknowns = tuple((i, j, k) for i in span for j in span for k in span)
        for i, j, k in unknowns:
            unit = [(((("up1", j),), ("zero", (i, k))), -1)]
            if j != k:
                unit.append((((("up2", (min(j, k), max(j, k))),), ("lo1", i)),
                             -1 if j < k else 1))
            units.append(tuple(unit))
    else:
        unknowns = tuple([("E", (i, j, p)) for i in span for j in span
                          for p in algebra(l).pair_indices]
                         + [("F", (i, j)) for i in span
                            for j in range(i, l + 1)])
        for kind, idx in unknowns:
            if kind == "E":
                unit = [(((("up2", idx[2]),), ("zero", idx[:2])), -1)]
            else:
                i, j = idx
                unit = [(((("up1", j),), ("up1", i)), 1)]
                if i != j:
                    unit.append((((("up1", i),), ("up1", j)), 1))
            units.append(tuple(unit))
    return unknowns, tuple(units)


# --------------------------------------------------------------------------
# the curvature as one 2-chain, and the one rule naming its tensors
# --------------------------------------------------------------------------

# (slot kinds, target kind) -> tensor name, for every part of homogeneity 1
# (P, Q) and 2 (R, S, T).  A tensor key is the target index (a grade-0
# target's (i, j) spread into two entries) followed by the two slot
# indices, where two single slots (r, s) make one pair entry.
_TENSORS = {(("up1", "up2"), "lo2"): "P", (("up1", "up1"), "lo1"): "Q",
            (("up2", "up2"), "lo2"): "R", (("up1", "up2"), "lo1"): "S",
            (("up1", "up1"), "zero"): "T"}
_KINDS = {name: kinds for kinds, name in _TENSORS.items()}


def _chain(l: int, tables: Dict[str, Dict[Tuple, Polynomial]]) -> Chain:
    """The 2-chain of the named tensors; their keys give canonical slots."""
    terms: Dict[TermKey, Polynomial] = {}
    for name, table in tables.items():
        (k0, k1), tkind = _KINDS[name]
        for key, poly in table.items():
            target, rest = ((key[:2], key[2:]) if tkind == "zero"
                            else (key[0], key[1:]))
            a, b = rest[0] if k0 == k1 == "up1" else rest
            terms[(((k0, a), (k1, b)), (tkind, target))] = poly
    return Chain(ODD, l, 2, terms)


def _tensors(chain: Chain) -> Dict[str, Dict[Tuple, Polynomial]]:
    """The inverse of _chain, with every tensor of the table present."""
    out: Dict[str, Dict[Tuple, Polynomial]] = {name: {} for name in _KINDS}
    for ((s0, s1), (tkind, target)), poly in chain.terms.items():
        head = target if tkind == "zero" else (target,)
        tail = (((s0[1], s1[1]),) if s0[0] == s1[0] == "up1"
                else (s0[1], s1[1]))
        out[_TENSORS[((s0[0], s1[0]), tkind)]][head + tail] = poly
    return out


# --------------------------------------------------------------------------
# factored normalization blocks (constant per rank and weight) and the solve
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _weights(l: int, degree: int):
    """The row keys of one degree (the 1-chain term keys of that
    homogeneity), and per torus weight its row and unknown indices."""
    row_keys = _term_keys(algebra(l), 1, degree)
    return row_keys, _weight_blocks(l, row_keys), _weight_blocks(
        l, [unit[0][0] for unit in _units(l, degree)[1]])


@lru_cache(maxsize=None)
def _block(l: int, degree: int, w: Tuple[int, ...]):
    """The factored normalization system of one degree at torus weight w:
    per row key of weight w, the codifferential of the differential of
    each unknown's unit of weight w (by its index among all unknowns),
    composed in integers; at degree 1 the trace row k joins w = e_k."""
    unknowns, units = _units(l, degree)
    row_keys, rows_at, unknowns_at = _weights(l, degree)
    keys = [row_keys[n] for n in rows_at.get(w, ())]
    block = unknowns_at.get(w, [])
    ga = algebra(l)
    index = {rk: n for n, rk in enumerate(keys)}
    rows: List[Dict[int, ExactScalar]] = [{} for _ in keys]
    for u in block:
        column = _apply(_codifferential_term, ga, ODD,
                        _apply(_differential_term, ga, ODD, units[u]).items())
        for tk, v in column.items():
            n = index.get(tk)
            if n is not None:
                rows[n][u] = _int_scalar(v)
    if degree == 1 and sum(map(abs, w)) == sum(w) == 1:   # w = e_k
        rows.append({u: ExactScalar.one() for u in block
                     if unknowns[u][0] == unknowns[u][1]})
    return keys, FactoredSystem(rows, block)


def _solve(chain: Chain, degree: int) -> List[Polynomial]:
    """The unknowns x of one degree that make _respond(chain, degree, x)
    codifferential-free on the row keys (and, at degree 1, trace-free),
    solved only at the weights where the chain's codifferential is not 0."""
    l = chain.l
    d = codifferential(chain).terms
    zero = Polynomial.zero(chart(l))
    xs = [zero] * len(_units(l, degree)[0])
    try:
        for w in _weight_blocks(l, d):
            row_keys, system = _block(l, degree, w)
            rhs = [-d[rk] if rk in d else zero for rk in row_keys]
            rhs += [zero] * (len(system.rows) - len(rhs))   # a trace row
            for u, x in zip(system.unknowns, system.solve(rhs)):
                xs[u] = x
    except ValueError as exc:
        raise AssertionError(
            f"degree-{degree} normalization system: {exc}") from exc
    return xs


def _respond(chain: Chain, degree: int, xs: Sequence[Polynomial]) -> Chain:
    """chain + differential(X), X the polynomial 1-chain sum x_u unit_u
    over the unknowns of one degree."""
    _, units = _units(chain.l, degree)
    terms: Dict[TermKey, Polynomial] = {}
    for x, unit in zip(xs, units):
        if not x.is_zero():
            accumulate(terms, unit, x)
    return chain + differential(Chain(ODD, chain.l, 1, terms))


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
    zero_poly = Polynomial.zero(f.chart)
    f_chain = _chain(l, {"P": f.pp_sp})
    xs = _solve(f_chain, 1)
    tensors = _tensors(_respond(f_chain, 1, xs))
    if tensors["Q"]:
        raise AssertionError(
            "single-target homogeneity-1 component failed to cancel")
    unknowns, _ = _units(l, 1)
    A = {u: x for u, x in zip(unknowns, xs) if not x.is_zero()}
    C: Dict[CKey, Polynomial] = {}
    for i in range(1, l + 1):
        for p in algebra(l).pair_indices:
            j, k = p
            c = A.get((i, j, k), zero_poly) - A.get((i, k, j), zero_poly)
            if not c.is_zero():
                C[(i, p)] = c
    return A, C, tensors["P"]


# --------------------------------------------------------------------------
# the curvature engine
# --------------------------------------------------------------------------

def _curvature_reads(frame: Frame, f: StructureFunctions,
                     A: Dict[AKey, Polynomial], C: Dict[CKey, Polynomial]
                     ) -> Chain:
    """Evaluate the curvature K = dM - M^M of the connection on the frame
    pairs by the structure equation, on basis coefficients, and read its
    homogeneity-(1, 2) components as one 2-chain; homogeneity-0 components
    and single-target reads on two single arguments must vanish exactly.

    The coframe is dual to the frame F, so M_u = M(F_u) = sum_key
    on[key][u] key, and [F_u, F_v] = -sum_t f^t_uv F_t, so for u < v in
    frame order K_uv = F_u(M_v) - F_v(M_u) + sum_t f^t_uv M_t - [M_u, M_v].
    Every M_u lies in grades <= 0, so fields of grades g_u, g_v (1 single,
    2 pair) need only the keys of grade <= 2 - g_u - g_v.  The dual frame
    of the connection coframe is W_up1 i = F_s_i and W_up2 p = F_p -
    sum_m C^m_p F_s_m, and K is tensorial, so its values on W pairs are
    sums of products of those coefficients with the K_uv."""
    l = frame.l
    ga = algebra(l)
    chart_ = frame.chart
    keys = frame.keys()
    one = Polynomial.const(chart_, 1)
    frame_key = {key[1]: key for key in keys}  # single index or pair
    grade = {key: GradedAlgebra.grade(key) for key in ga.odd_keys}
    order = {key: n for n, key in enumerate(ga.odd_keys)}
    brackets = ga.sides[ODD].table

    # each connection 1-form on each frame field
    on: Dict[BasisKey, Dict[FrameKey, Polynomial]] = {
        ("lo1", i): {("s", i): one} for i in range(1, l + 1)}
    for (i, p), c in C.items():
        on[("lo1", i)][("p", p)] = c
    on.update({("lo2", p): {("p", p): one} for p in ga.pair_indices})
    for (i, k, j), a in A.items():
        accumulate(on.setdefault(("zero", (i, j)), {}),
                   on[("lo1", k)].items(), a)
    # M_u by basis key, each coefficient with its nonzero partials
    M: Dict[FrameKey, Dict[BasisKey, Tuple]] = {u: {} for u in keys}
    for key, values in on.items():
        for u, c in values.items():
            used = sorted({d for e in c.terms for d, k in enumerate(e) if k})
            M[u][key] = c.terms, [(d, c.partial_derivative(d).terms)
                                  for d in used]

    # the bracket coefficients f^t_uv of the frame pairs u < v
    sf: Dict[Tuple[FrameKey, FrameKey], List] = {
        (("s", i), ("s", j)): [(("p", (i, j)), one)]
        for i, j in ga.pair_indices}
    for _, block in f.blocks():
        for (t, a, b), c in block.items():
            sf.setdefault((frame_key[a], frame_key[b]), []).append(
                (frame_key[t], c))
    # each field's nonzero components, with both signs
    comps = {u: {d: c.terms for d, c in enumerate(frame.field(u).components)
                 if c} for u in keys}
    negcomps = {u: {d: (-c).terms for d, c in
                    enumerate(frame.field(u).components) if c} for u in keys}
    scaled: Dict[Tuple, Dict] = {}   # -b M_u[key] for a bracket entry b

    K: Dict[Tuple[FrameKey, FrameKey], Dict[BasisKey, Polynomial]] = {}
    for n, u in enumerate(keys):
        for v in keys[n + 1:]:
            # 2 - g_u - g_v is 0, -1 or -2 as two, one or no field is single
            cap = (u[0] == "s") + (v[0] == "s") - 2
            acc: Dict[BasisKey, Dict] = {}
            for fx, y in ((comps[u], v), (negcomps[v], u)):
                for key, (_, parts) in M[y].items():
                    if grade[key] <= cap:
                        out = acc.setdefault(key, {})
                        for d, dp in parts:
                            if d in fx:
                                add_product(out, fx[d], dp)
            for t, c in sf.get((u, v), ()):
                for key, (q, _) in M[t].items():
                    if grade[key] <= cap:
                        add_product(acc.setdefault(key, {}), c.terms, q)
            for k1, (q1, _) in M[u].items():
                for k2, (q2, _) in M[v].items():
                    if grade[k1] + grade[k2] <= cap:
                        for key, b in brackets.get((k1, k2), ()):
                            if (u, k1, b) not in scaled:
                                scaled[(u, k1, b)] = {e: c * -b for e, c
                                                      in q1.items()}
                            add_product(acc.setdefault(key, {}),
                                        scaled[(u, k1, b)], q2)
            K[(u, v)] = {key: val for key, out in acc.items()
                         if (val := Polynomial(chart_, out))}

    W: Dict[BasisKey, List[Tuple[FrameKey, object]]] = {
        key: [(("s" if key[0] == "up1" else "p", key[1]), 1)]
        for key in ga.positive_keys}
    for (m, p), c in C.items():
        W[("up2", p)].append((("s", m), -c))
    terms: Dict[TermKey, Polynomial] = {}
    for slots in combinations(ga.positive_keys, 2):
        cap = 2 - grade[slots[0]] - grade[slots[1]]
        entries: Dict[BasisKey, Polynomial] = {}
        for u, cu in W[slots[0]]:
            for v, cv in W[slots[1]]:
                if u != v:
                    pair, c = (((u, v), cu * cv) if (u, v) in K
                               else ((v, u), -(cu * cv)))
                    accumulate(entries, [(key, val) for key, val
                                         in K[pair].items()
                                         if grade[key] <= cap], c)
        for key in sorted(entries, key=order.__getitem__):
            if grade[key] == cap - 2:
                raise AssertionError(
                    "homogeneity-0 curvature component is nonzero")
            terms[(slots, key)] = entries[key]
    reads = Chain(ODD, l, 2, terms)
    if _tensors(reads)["Q"]:
        raise AssertionError(
            "single-target homogeneity-1 curvature reads are nonzero")
    return reads


# --------------------------------------------------------------------------
# degree-2 normalization
# --------------------------------------------------------------------------

def solve_degree2(frame: Frame, f: StructureFunctions,
                  A: Dict[AKey, Polynomial], C: Dict[CKey, Polynomial],
                  P: Optional[Dict[PKey, Polynomial]] = None
                  ) -> Tuple[Dict[EKey, Polynomial], Dict[FKey, Polynomial],
                             Dict[RKey, Polynomial], Dict[SKey, Polynomial],
                             Dict[SKey, Polynomial]]:
    """Determine the homogeneity-2 coefficients fixed by the codifferential
    normalization, and the resulting curvature tensors.  P is the tensor
    solve_degree1(f) returned with A and C (computed again when omitted)."""
    l = frame.l
    if l < 4:
        raise UnsupportedError(
            "degree-2 normalization requires rank at least 4")
    reads = _curvature_reads(frame, f, A, C)

    # cross-check: the engine's homogeneity-1 read must equal the P (its
    # Q part is empty) that the degree-1 solve computed from f
    if P is None:
        P = solve_degree1(f)[2]
    if reads.homogeneous_part(1) != _chain(l, {"P": P}):
        raise AssertionError(
            "engine homogeneity-1 read disagrees with the degree-1 response")

    baseline = reads.homogeneous_part(2)
    xs = _solve(baseline, 2)
    unknowns, _ = _units(l, 2)
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

    final = _respond(baseline, 2, xs)
    if not codifferential(final).is_zero():
        raise AssertionError(
            "normalized homogeneity-2 curvature is not codifferential-free")
    tensors = _tensors(final)
    return E, F, tensors["R"], tensors["S"], tensors["T"]


# --------------------------------------------------------------------------
# verdicts and orchestration
# --------------------------------------------------------------------------

def flatness_test(P: Dict[PKey, Polynomial]) -> bool:
    """True iff every entry of the fundamental invariant is zero."""
    return all(poly.is_zero() for poly in P.values())


def curvature_chain(report: CurvatureReport) -> Chain:
    """The degree-<=2 truncation of the curvature as a polynomial chain."""
    return _chain(report.l, {"P": report.P, "Q": report.Q, "R": report.R,
                             "S": report.S, "T": report.T})


def extension_normality_report(report: CurvatureReport) -> Dict[str, object]:
    """The obstruction verdict for extending to the even-side geometry at
    the computed order."""
    ok = report.kappa11_deg2_zero
    return {"kappa11_deg2_zero": ok,
            "verdict": VERDICT_NORMAL if ok else VERDICT_OBSTRUCTED}


def analyze(fields: Sequence[VectorField]) -> AnalysisReport:
    """Full pipeline: frame, structure functions, both normalization
    degrees, curvature tensors, and verdicts."""
    frame = build_frame(fields)
    f = structure_functions(frame)
    A, C, P = solve_degree1(f)
    flat = flatness_test(P)
    # the lowest nonzero component is harmonic (Bianchi), and no harmonic
    # 2-cochain has homogeneity 2, so P = 0 forces R = S = T = 0
    if not flat and not differential(_chain(frame.l, {"P": P})).is_zero():
        raise AssertionError(
            "Bianchi check: the differential of the lowest nonzero "
            "curvature component is not zero")
    E, F, R, S, T = solve_degree2(frame, f, A, C, P)
    if flat and (R or S or T):
        raise AssertionError("flat check: P is zero but R, S or T is not")
    # Q vanishes identically (asserted by the engine)
    kappa11 = all(poly.is_zero() for poly in T.values())
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

def _fmt_key(parts) -> str:
    """Indices and [j,k] pairs, comma-joined."""
    return json.dumps(parts, separators=(",", ":"))[1:-1]


def _parse_key(text: str) -> Tuple[object, ...]:
    """The inverse of _fmt_key."""
    return tuple(tuple(p) if isinstance(p, list) else p
                 for p in json.loads(f"[{text}]"))


def _key_order(parts) -> Tuple:
    return tuple((0, p, 0) if isinstance(p, int) else (1, p[0], p[1])
                 for p in parts)


def _tensor_to_json(table: Dict) -> Dict[str, str]:
    return {_fmt_key(key): table[key].to_expr()
            for key in sorted(table, key=_key_order)
            if not table[key].is_zero()}


def _structure_to_json(f: StructureFunctions) -> Dict[str, str]:
    return _tensor_to_json({key: poly for _, block in f.blocks()
                            for key, poly in block.items()})


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
