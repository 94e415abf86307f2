"""Polynomial vector fields, differential forms, frames, and coframes.

A rank-l frame consists of the l given fields plus the pairwise fields
obtained from negated Lie brackets; together they must span the tangent
space with constant determinant (unimodularity), which keeps the dual
coframe polynomial.  One exact polynomial inverse of the frame matrix both
certifies that and gives the dual coframe.  Structure functions are the
coefficients of each coframe differential in the basis of coframe wedge
products, read off the interior products of the differentials with the
frame fields.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (DegenerateFrameError, FreeDistError,
                     NotFreeDistributionError, UnsupportedFrameError)
from .linalg import _determinant, invert_scalar_matrix, poly_inverse
from .polynomials import Chart, Exponents, Polynomial, accumulate, add_product
from .scalars import ExactScalar

FrameKey = Tuple[str, object]  # ('s', i) or ('p', (j, k)) with j < k


class VectorField:
    """A polynomial vector field on a chart, stored componentwise."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence[Polynomial]):
        if len(components) != chart.ncoords:
            raise ValueError("component count does not match the chart")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "components", tuple(components))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("VectorField is immutable")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, VectorField) and self.chart == other.chart
                and self.components == other.components)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover
        parts = [f"({c.to_expr()})*D{self.chart.name(d)}"
                 for d, c in enumerate(self.components) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Commutator [v, w] with components v(w^c) - w(v^c), both directional
    derivatives summed into one term dict per component."""
    if v.chart != w.chart:
        raise ValueError("mismatched charts in Lie bracket")
    v_terms = [p.terms for p in v.components]
    minus_w = [(-p).terms for p in w.components]
    comps = []
    for vc, wc in zip(v.components, w.components):
        out: Dict[Exponents, ExactScalar] = {}
        _add_derivative(out, v_terms, wc)
        _add_derivative(out, minus_w, vc)
        comps.append(Polynomial(v.chart, out))
    return VectorField(v.chart, comps)


def _variables(p: Polynomial) -> List[int]:
    """The coordinates p involves, ascending."""
    return sorted({d for e in p.terms for d, k in enumerate(e) if k})


def _add_derivative(out: Dict[Exponents, ExactScalar],
                    field: Sequence[Dict[Exponents, ExactScalar]],
                    p: Polynomial) -> None:
    """Add the derivative of p along the field whose component term dicts
    are ``field`` into ``out``, coordinate by coordinate."""
    for d in _variables(p):
        if field[d]:
            add_product(out, field[d], p.partial_derivative(d).terms)


class DifferentialForm:
    """A polynomial differential form of degree 1 or 2.

    Degree-1 terms are keyed by ``(c,)`` and degree-2 terms by ``(d, c)``
    with ``d < c``, coordinate indices into the chart.
    """

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int,
                 terms: Dict[Tuple[int, ...], Polynomial]):
        if degree not in (1, 2):
            raise ValueError("only degree-1 and degree-2 forms are supported")
        clean = {k: v for k, v in terms.items() if not v.is_zero()}
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("DifferentialForm is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def d(self) -> "DifferentialForm":
        """Exterior derivative of a degree-1 form."""
        if self.degree != 1:
            raise ValueError("exterior derivative implemented for degree 1")
        pairs = []
        for (c,), g in self.terms.items():
            for dd in _variables(g):
                if dd != c:
                    dg = g.partial_derivative(dd)
                    pairs.append(((dd, c), dg) if dd < c else ((c, dd), -dg))
        terms: Dict[Tuple[int, ...], Polynomial] = {}
        accumulate(terms, pairs)
        return DifferentialForm(self.chart, 2, terms)

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        if self.degree != 1 or other.degree != 1:
            raise ValueError("wedge implemented for two degree-1 forms")
        if self.chart != other.chart:
            raise ValueError("mismatched charts in wedge product")
        pairs = [((a, b), ga * gb) if a < b else ((b, a), -(ga * gb))
                 for (a,), ga in self.terms.items()
                 for (b,), gb in other.terms.items() if a != b]
        terms: Dict[Tuple[int, ...], Polynomial] = {}
        accumulate(terms, pairs)
        return DifferentialForm(self.chart, 2, terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DifferentialForm)
                and self.chart == other.chart and self.degree == other.degree
                and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]


def frame_keys(l: int) -> List[FrameKey]:
    """Canonical frame ordering: singles 1..l, then pairs in lex order."""
    keys: List[FrameKey] = [("s", i) for i in range(1, l + 1)]
    keys.extend(("p", (j, k)) for j in range(1, l + 1)
                for k in range(j + 1, l + 1))
    return keys


class Frame:
    """The l given fields plus their derived pair fields."""

    def __init__(self, chart: Chart, l: int, singles: List[VectorField],
                 pairs: Dict[Tuple[int, int], VectorField],
                 det: ExactScalar):
        self.chart = chart
        self.l = l
        self.singles = singles
        self.pairs = pairs
        self.det = det
        self._coframe: Optional["Coframe"] = None

    def keys(self) -> List[FrameKey]:
        return frame_keys(self.l)

    def field(self, key: FrameKey) -> VectorField:
        if key[0] == "s":
            return self.singles[key[1] - 1]
        return self.pairs[key[1]]


class Coframe:
    """1-forms dual to a frame: one per single index, one per pair."""

    def __init__(self, l: int, cosingles: List[DifferentialForm],
                 copairs: Dict[Tuple[int, int], DifferentialForm]):
        self.l = l
        self.cosingles = cosingles
        self.copairs = copairs

    def form(self, key: FrameKey) -> DifferentialForm:
        if key[0] == "s":
            return self.cosingles[key[1] - 1]
        return self.copairs[key[1]]


def _jacobian(chart: Chart, cols: Sequence[VectorField]
              ) -> List[List[Polynomial]]:
    """The frame matrix: column a holds the components of field a."""
    n = chart.ncoords
    return [[cols[a].components[c] for a in range(n)] for c in range(n)]


def _assemble(fields: Sequence[VectorField]
              ) -> Tuple[Chart, int, List[VectorField],
                         Dict[Tuple[int, int], VectorField],
                         List[List[Polynomial]]]:
    chart = fields[0].chart
    l = chart.l
    if len(fields) != l:
        raise ValueError(f"expected {l} fields for this chart, "
                         f"got {len(fields)}")
    for f in fields:
        if f.chart != chart:
            raise ValueError("all frame fields must share one chart")
    singles = list(fields)
    pairs: Dict[Tuple[int, int], VectorField] = {}
    for j in range(1, l + 1):
        for k in range(j + 1, l + 1):
            # the negated bracket [X_j, X_k] is [X_k, X_j]
            pairs[(j, k)] = lie_bracket(singles[k - 1], singles[j - 1])
    cols = [singles[key[1] - 1] if key[0] == "s" else pairs[key[1]]
            for key in frame_keys(l)]
    return chart, l, singles, pairs, _jacobian(chart, cols)


def _coframe_from_inverse(chart: Chart, l: int,
                          inverse: List[List[Polynomial]]) -> Coframe:
    """The coframe whose coefficient rows are the rows of ``inverse``."""
    coforms = [DifferentialForm(chart, 1, {(c,): p for c, p in enumerate(row)})
               for row in inverse]
    copairs = {key[1]: coforms[a] for a, key in enumerate(frame_keys(l))
               if key[0] == "p"}
    return Coframe(l, coforms[:l], copairs)


def build_frame(fields: Sequence[VectorField]) -> Frame:
    """Assemble the full frame, checking spanning and unimodularity.

    Raises DegenerateFrameError if the full frame fails to span at the
    origin, then UnsupportedFrameError if its determinant is not a nonzero
    constant.  The certificate of unimodularity is the exact polynomial
    inverse of the frame matrix, which the returned frame keeps as its dual
    coframe.
    """
    frame = _certified_frame(fields)
    if isinstance(frame, FreeDistError):
        # Raised here, once _certified_frame has returned, so that the
        # rejection's traceback keeps neither the Jacobian nor its inverse
        # alive.
        raise frame
    return frame


def _certified_frame(fields: Sequence[VectorField]
                     ) -> Union[Frame, FreeDistError]:
    """build_frame's work: the Frame, or the rejection to raise.

    A polynomial matrix has a polynomial inverse iff its determinant is a
    nonzero constant.  After the spanning check at the origin, a
    determinant that differs between the origin and the all-ones point
    refutes that cheaply; otherwise poly_inverse either returns the inverse
    (the certificate, kept as the frame's coframe) or passes its degree
    bound (the refutation).  The matrix at the origin holds each entry's
    constant term, and at the all-ones point each entry's coefficient sum.
    """
    chart, l, singles, pairs, jac = _assemble(fields)
    zero, zeros = ExactScalar.zero(), (0,) * chart.ncoords
    # the inverse at the origin is the Newton start
    det, start = invert_scalar_matrix(
        [[e.terms.get(zeros, zero) for e in row] for row in jac])
    if not det:
        return DegenerateFrameError(
            "frame and its pair fields fail to span the tangent space at "
            "the base point")
    inverse = None
    if _determinant([[sum(e.terms.values(), zero) for e in row]
                     for row in jac])[0] == det:
        try:
            inverse = poly_inverse(jac, start)
        except ValueError:
            pass
    if inverse is None:
        return UnsupportedFrameError(
            "frame determinant is not constant; only unimodular frames "
            "are supported")
    frame = Frame(chart, l, singles, pairs, det)
    frame._coframe = _coframe_from_inverse(chart, l, inverse)
    return frame


def check_nondegenerate(frame_or_fields) -> bool:
    """True iff the full frame matrix is unimodular (invertible everywhere).

    Accepts a built Frame or a raw sequence of l vector fields; raw fields
    go through build_frame's certificate at the origin.
    """
    if isinstance(frame_or_fields, Frame):
        return bool(frame_or_fields.det)
    try:
        return isinstance(_certified_frame(frame_or_fields), Frame)
    except ValueError:
        return False


def dual_coframe(frame: Frame) -> Coframe:
    """The coframe dual to the full frame, with polynomial coefficients.

    The coefficient matrix is the inverse X of the frame matrix J, Newton
    lifted by poly_inverse, which returns only once X*J = I holds exactly:
    that is the duality identity (value delta on every frame pair).
    build_frame stores it on the frame it returns; a frame built by hand
    has it computed here, and cached.
    """
    if frame._coframe is not None:
        return frame._coframe
    jac = _jacobian(frame.chart, [frame.field(key) for key in frame.keys()])
    try:
        inverse = poly_inverse(jac)
    except ValueError as exc:
        # A frame built by hand skips build_frame's certificate.
        raise AssertionError(f"dual_coframe: {exc}") from None
    frame._coframe = _coframe_from_inverse(frame.chart, frame.l, inverse)
    return frame._coframe


class StructureFunctions:
    """Coefficients of the coframe differentials over coframe wedge pairs.

    Blocks (1-based indices; pair indices (j, k) with j < k):
      ss_sp[(r, i, (j,k))]         : single target, (single, pair) arguments
      ss_pp[(r, (i,j), (k,l))]     : single target, (pair, pair) arguments
      pp_sp[((r,s), i, (j,k))]     : pair target, (single, pair) arguments
      pp_pp[((r,s), (i,j), (k,l))] : pair target, (pair, pair) arguments
    Pair-pair argument keys are stored with (i,j) < (k,l) lexicographically;
    the swapped order (k,l), (i,j) holds the negative value, because
    dtheta^t(F_u, F_v) = -dtheta^t(F_v, F_u).  A key not stored is zero.
    """

    def __init__(self, l: int, chart: Chart):
        self.l = l
        self.chart = chart
        self.ss_sp: Dict[Tuple[int, int, Tuple[int, int]], Polynomial] = {}
        self.ss_pp: Dict[Tuple[int, Tuple[int, int], Tuple[int, int]],
                         Polynomial] = {}
        self.pp_sp: Dict[Tuple[Tuple[int, int], int, Tuple[int, int]],
                         Polynomial] = {}
        self.pp_pp: Dict[Tuple[Tuple[int, int], Tuple[int, int],
                               Tuple[int, int]], Polynomial] = {}

    def is_zero(self) -> bool:
        return not (self.ss_sp or self.ss_pp or self.pp_sp or self.pp_pp)

    def blocks(self):
        return (("ss_sp", self.ss_sp), ("ss_pp", self.ss_pp),
                ("pp_sp", self.pp_sp), ("pp_pp", self.pp_pp))


def structure_functions(frame: Frame) -> StructureFunctions:
    """Expand each coframe differential over coframe wedge products.

    f^t_uv = dtheta^t(F_u, F_v) is read off the interior product
    iota_{F_u} dtheta^t, built once per target and frame field: a term
    g dx_d^dx_e contributes g*u_d dx_e - g*u_e dx_d.  Pairing that 1-form
    with each later F_v gives the values.  Verifies the expansion exactly
    as coordinate 2-forms (each wedge theta_u^theta_v is built once, when a
    first target needs it) and checks that each pair coframe differential
    carries exactly its own single wedge pair with unit coefficient in the
    single-single block (raising NotFreeDistributionError otherwise).
    """
    chart = frame.chart
    coframe = dual_coframe(frame)
    keys = frame.keys()
    comps = [[p.terms for p in frame.field(key).components] for key in keys]
    minus = [[{e: -c for e, c in t.items()} for t in f] for f in comps]
    support = [[(c, t) for c, t in enumerate(f) if t] for f in comps]
    wedges: Dict[Tuple[int, int], DifferentialForm] = {}
    sf = StructureFunctions(frame.l, chart)
    zero, one = Polynomial.zero(chart), Polynomial.const(chart, 1)
    # blocks by target kind and first argument kind: singles come first,
    # so a single first argument pairs with a pair here
    tables = {("s", "s"): sf.ss_sp, ("s", "p"): sf.ss_pp,
              ("p", "s"): sf.pp_sp, ("p", "p"): sf.pp_pp}
    for tkey in keys:
        dtheta = coframe.form(tkey).d()
        recon: Dict[Tuple[int, ...], Polynomial] = {}
        for ui, (ukey, u, minus_u) in enumerate(zip(keys, comps, minus)):
            iota: Dict[int, Dict[Exponents, ExactScalar]] = {}
            for (d, e), g in dtheta.terms.items():
                if u[d]:
                    add_product(iota.setdefault(e, {}), g.terms, u[d])
                if u[e]:
                    add_product(iota.setdefault(d, {}), g.terms, minus_u[e])
            # an empty interior product reads zero on every later field,
            # which only a pair target (i, j) under s_i must still refuse
            if not iota and not (tkey[0] == "p" and ukey == ("s", tkey[1][0])):
                continue
            for vi in range(ui + 1, len(keys)):
                vkey = keys[vi]
                out: Dict[Exponents, ExactScalar] = {}
                for c, terms in support[vi]:
                    if c in iota:
                        add_product(out, iota[c], terms)
                coeff = Polynomial(chart, out) if out else zero
                if vkey[0] == "p":
                    if coeff:
                        tables[(tkey[0], ukey[0])][
                            (tkey[1], ukey[1], vkey[1])] = coeff
                elif tkey[0] == "s" and coeff:
                    raise AssertionError(
                        "single coframe differential has a single-single "
                        "component")
                elif coeff != (one if tkey[1] == (ukey[1], vkey[1])
                               else zero):
                    raise NotFreeDistributionError(
                        "pair coframe differentials do not reproduce "
                        "the single wedge pairs; the distribution is "
                        "not free of the stated rank")
                if coeff:
                    wedge = wedges.get((ui, vi))
                    if wedge is None:
                        wedge = wedges[(ui, vi)] = coframe.form(ukey).wedge(
                            coframe.form(vkey))
                    accumulate(recon, wedge.terms.items(), coeff)
        if recon != dtheta.terms:
            raise AssertionError(
                "structure-function expansion failed to reproduce the "
                "coframe differential")
    return sf
