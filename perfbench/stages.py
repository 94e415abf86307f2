"""The benchmark's calls into freedist: seeded inputs, the staged
reproductions of ``analyze`` and ``harmonic_space``, the layer probe and
the scalar/polynomial microbenchmarks.

Only public names of the package are called, so every span recorded here
sits at a module boundary.  Run as a script this file is the benchmark's
worker process (``perfbench/run.py`` starts it; it needs ``src`` on
``PYTHONPATH``):

    python3 perfbench/stages.py setup <workload> <seed>
    python3 perfbench/stages.py analyze <frame-file> <spans-out>
    python3 perfbench/stages.py probe <seed> <spans-out>
"""

import time

_T0 = time.perf_counter()  # before the package import, for the import span
# CPU seconds before the package import, for set-up samples: CPU time
# leaves out the pauses in which run.py reads its host-speed gauge
_C0 = time.process_time()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import chain, product  # noqa: E402
from pathlib import Path  # noqa: E402

from freedist.algebra import (ALGEBRA_CHECKS, ODD, Chain,  # noqa: E402
                              GradedAlgebra, algebra, codifferential,
                              differential)
from freedist.cohomology import harmonic_space  # noqa: E402
from freedist.errors import (DegenerateFrameError, FreeDistError,  # noqa: E402
                             ParseError, UnsupportedFrameError)
from freedist.geometry import (build_frame, dual_coframe,  # noqa: E402
                               structure_functions)
from freedist.linalg import kernel_of_columns  # noqa: E402
from freedist.normalization import (AnalysisReport,  # noqa: E402
                                    ConnectionData, CurvatureReport,
                                    VERDICT_NORMAL, VERDICT_OBSTRUCTED,
                                    analyze, curvature_chain, flatness_test,
                                    report_from_json, report_to_json,
                                    solve_degree1, solve_degree2)
from freedist.parsing import parse_frame_file  # noqa: E402
from freedist.polynomials import Polynomial, chart  # noqa: E402
from freedist.scalars import ExactScalar  # noqa: E402
from freedist.spinorial import (SkewMatrix, null_cone_member,  # noqa: E402
                                pfaffian, skew_to_tangent, tangent_to_skew)

_T_IMPORTED = time.perf_counter()

BENCH = Path(__file__).resolve().parent
FRAMES = BENCH / "frames"
EXPECTED = BENCH / "expected"

# Rejections build_frame is documented to raise for a candidate frame.
REJECTIONS = (DegenerateFrameError, UnsupportedFrameError)
SPINOR_RANK = 7
# Perturbation shapes of one random-frames pass, as the factor count of
# each added monomial.  The acceptance criterion's recipe draws one to
# three monomials of one to three factors, uniformly; a pass holds its
# shapes in those proportions (weights 9, 3 and 1 for one, two and three
# monomials), restricted to at most MAX_FACTORS factors in all, and takes
# one accepted frame of each.  A fixed mix keeps a pass's cost from
# depending on which shapes the seed happens to draw.
MAX_FACTORS = 4
# Heavier perturbations make the coframe cost range from 0.2 s to 10 s per
# frame, so one rare draw would decide a pass's time.
SHAPES = tuple(shape for n, weight in ((1, 9), (2, 3), (3, 1))
               for shape in product(range(1, 4), repeat=n)
               if sum(shape) <= MAX_FACTORS for _ in range(weight))
SPINOR_OPS = 800


class Tracer:
    """Spans (name, start, end, parent, attributes) kept in memory, plus
    named counters; written out once, when the run ends."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._seen = set()

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "pid": os.getpid(), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def first(self, key):
        """True the first time ``key`` is seen in this process: the call it
        labels pays the package's per-rank cache builds."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def _pairs(l):
    return [(j, k) for j in range(1, l + 1) for k in range(j + 1, l + 1)]


def _flat_terms(l):
    """Per-field term lists of the flat model in the frame-file grammar."""
    return [[f"Dx{i}"] + [f"- x{p}*Dy[{i},{p}]" for p in range(i + 1, l + 1)]
            for i in range(1, l + 1)]


def frame_text(l, terms):
    return f"l: {l}\n" + "".join(f"X{i + 1}: {' '.join(t)}\n"
                                 for i, t in enumerate(terms))


def pass_candidates(seed, npass, l=4):
    """The candidate streams of one random-frames pass: one per entry of
    SHAPES, in a seeded order, each an endless seeded stream of frames with
    that perturbation shape."""
    slots = list(range(len(SHAPES)))
    random.Random(f"{seed}/{npass}").shuffle(slots)
    return [_shape_stream(random.Random(f"{seed}/{npass}/{slot}"),
                          SHAPES[slot], l) for slot in slots]


def _shape_stream(rng, shape, l):
    """Candidate frame files: the flat model plus one monomial in a random
    pair direction of a random field per entry of ``shape``, each with that
    many random coordinate factors and a coefficient from the recipe of
    the random-frame acceptance criterion."""
    pairs = _pairs(l)
    while True:
        terms = _flat_terms(l)
        for nfactors in shape:
            fi = rng.randrange(l)
            j, k = pairs[rng.randrange(len(pairs))]
            factors = []
            for _ in range(nfactors):
                if rng.random() < 0.5:
                    factors.append(f"x{rng.randint(1, l)}")
                else:
                    a, b = pairs[rng.randrange(len(pairs))]
                    factors.append(f"y[{a},{b}]")
            coef = rng.choice([1, -1, 2, -2, Fraction(1, 2)])
            sign = "-" if coef < 0 else "+"
            terms[fi].append(f"{sign} {abs(coef)}*{'*'.join(factors)}"
                             f"*Dy[{j},{k}]")
        yield frame_text(l, terms)


def spinor_corpus(seed, n=SPINOR_OPS, l=SPINOR_RANK):
    """Seeded rank-l tangent vectors with sqrt2-bearing coefficients.

    Three in four are sparse random vectors; every fourth is decomposable
    (built from a rank-2 skew matrix), so it lies on the null cone.  The
    dense decomposable ones cost about eight times as much, and keeping
    them a quarter puts the median call among the sparse ones."""
    rng = random.Random(seed)
    keys = list(range(1, l + 1)) + _pairs(l)
    out = []
    for i in range(n):
        if i % 4 != 3:
            v = {key: ExactScalar(Fraction(rng.randint(-6, 6),
                                           rng.randint(1, 3)),
                                  rng.randint(-2, 2))
                 for key in rng.sample(keys, rng.randint(4, 10))}
            out.append(({k: c for k, c in v.items() if c}, None))
        else:
            a = [rng.randint(-3, 3) for _ in range(l + 1)]
            b = [rng.randint(-3, 3) for _ in range(l + 1)]
            rows = [[ExactScalar.of(a[r] * b[c] - a[c] * b[r])
                     for c in range(l + 1)] for r in range(l + 1)]
            out.append((skew_to_tangent(SkewMatrix(rows), l), True))
    return out


def setup_random_frames(tr=None):
    """Warm the rank-4 systems with one analysis of the flat model."""
    warm = frame_text(4, _flat_terms(4))
    if tr is None:
        analyze_text(warm)
    else:
        staged_analyze(tr, warm)


def analyze_text(text):
    """What a library user runs: parse, ``analyze``, ``report_to_json``;
    returns (report JSON data, report)."""
    _, fields = parse_frame_file(text)
    report = analyze(fields)
    return report_to_json(report), report


def report_invariants(data, report):
    """Exact invariants of one accepted report: the JSON form rebuilds a
    report that serializes to the same bytes, the codifferential kills each
    homogeneous part of the curvature chain, and sum_i A^i_{i,k} = 0."""
    text = json.dumps(data)
    if json.dumps(report_to_json(report_from_json(data))) != text:
        return False
    curv = curvature_chain(report.curvature)
    for h in {curv.homogeneity(key) for key in curv.terms}:
        if not codifferential(curv.homogeneous_part(h)).is_zero():
            return False
    A = report.connection.A
    zero = Polynomial.zero(chart(report.l))
    return all(sum((A.get((i, i, k), zero) for i in range(1, report.l + 1)),
                   zero).is_zero() for k in range(1, report.l + 1))


# --------------------------------------------------------------------------
# staged analyze
# --------------------------------------------------------------------------

def _count_sqrt2(tr, scalars):
    """Count nonzero coefficients, and those with a sqrt2 part."""
    for c in scalars:
        if c:
            tr.count("sqrt2.coeffs", 1)
            tr.count("sqrt2.with_sqrt2", c.b != 0)


def _coeffs(polys):
    return (c for p in polys for c in p.terms.values())


def _report_polys(report):
    c, k = report.connection, report.curvature
    for table in (c.A, c.C, c.E, c.F, k.P, k.R, k.S, k.T):
        yield from table.values()
    for _, block in report.f.blocks():
        yield from block.values()


def staged_analyze(tr, text):
    """``parse_frame_file`` then ``analyze`` rebuilt from its public stages,
    one span each; returns (report JSON data, report).  Raises what the
    stages raise (ParseError, the frame rejections)."""
    with tr.span("parsing.parse_frame_file"):
        l, fields = parse_frame_file(text)
    _count_sqrt2(tr, _coeffs(p for f in fields for p in f.components))
    with tr.span("geometry.build_frame", rank=l):
        frame = build_frame(fields)
    jac = sum(len(p.terms) for key in frame.keys()
              for p in frame.field(key).components)
    with tr.span("geometry.dual_coframe", rank=l, jacobian_terms=jac) as a:
        coframe = dual_coframe(frame)
    a["coframe_terms"] = sum(len(p.terms) for key in frame.keys()
                             for p in coframe.form(key).terms.values())
    with tr.span("geometry.structure_functions", rank=l):
        f = structure_functions(frame)
    with tr.span("normalization.solve_degree1", rank=l,
                 cold=tr.first(("solve_degree1", l))):
        A, C, P = solve_degree1(f)
    with tr.span("normalization.solve_degree2", rank=l,
                 cold=tr.first(("solve_degree2", l))):
        E, F, R, S, T = solve_degree2(frame, f, A, C)
    # the verdict assembly of analyze(), line for line
    flat = flatness_test(P)
    kappa11 = all(poly.is_zero() for poly in T.values())
    connection = ConnectionData(frame.l, A, C, E, F)
    curvature = CurvatureReport(frame.l, P, {}, R, S, T, flat, kappa11,
                                kappa11)
    verdict = VERDICT_NORMAL if kappa11 else VERDICT_OBSTRUCTED
    report = AnalysisReport(frame.l, True, f, connection, curvature, verdict)
    with tr.span("normalization.report_to_json", rank=l) as a:
        data = report_to_json(report)
    a["report_nonzeros"] = sum(len(v) for v in data.values()
                               if isinstance(v, dict))
    _count_sqrt2(tr, _coeffs(_report_polys(report)))
    return data, report


# --------------------------------------------------------------------------
# staged harmonic_space
# --------------------------------------------------------------------------

def _term_keys(ga, k, h):
    """Degree-k term keys of homogeneity h in canonical slot order, as
    harmonic_space enumerates them."""
    pos = ga.positive_keys
    if k == 1:
        slot_tuples = [(s,) for s in pos]
    else:
        slot_tuples = [(pos[a], pos[b]) for a in range(len(pos))
                       for b in range(a + 1, len(pos))]
    return [(slots, target) for slots in slot_tuples
            for target in ga.odd_keys
            if sum(GradedAlgebra.grade(s) for s in slots)
            + GradedAlgebra.grade(target) == h]


def staged_harmonic(tr, l, k, h):
    """``harmonic_space(l, k, h)`` rebuilt from ``differential``,
    ``codifferential`` and ``kernel_of_columns``; returns the dimension."""
    ga = algebra(l)
    keys = _term_keys(ga, k, h)
    one = ExactScalar.one()
    units = [Chain(ODD, l, k, {tk: one}) for tk in keys]
    with tr.span("algebra.differential", calls=len(units)):
        ds = [differential(u) for u in units]
    with tr.span("algebra.codifferential", calls=len(units)):
        cds = [codifferential(u) for u in units]
    columns = []
    for d, cd in zip(ds, cds):
        col = {("d", key): v for key, v in d.terms.items()}
        col.update({("cd", key): v for key, v in cd.terms.items()})
        columns.append(col)
    nonzeros = sum(len(col) for col in columns)
    with tr.span("linalg.kernel_of_columns", columns=len(columns),
                 nonzeros=nonzeros) as a:
        vecs = kernel_of_columns(columns)
    a["kernel_dim"] = len(vecs)
    basis = [Chain(ODD, l, k, {tk: c for tk, c in zip(keys, vec) if c})
             for vec in vecs]
    _count_sqrt2(tr, (c for col in columns for c in col.values()))
    _count_sqrt2(tr, (c for ch in basis for c in ch.terms.values()))
    with tr.span("algebra.differential", calls=len(basis)):
        closed = all(differential(ch).is_zero() for ch in basis)
    with tr.span("algebra.codifferential", calls=len(basis)):
        coclosed = all(codifferential(ch).is_zero() for ch in basis)
    homogeneous = all(ch.homogeneity(tk) == h
                      for ch in basis for tk in ch.terms)
    if not (closed and coclosed and homogeneous):
        raise RuntimeError(f"reproduced harmonic basis ({l},{k},{h}) fails "
                           "its closedness or homogeneity check")
    return len(basis)


# --------------------------------------------------------------------------
# spinor calls
# --------------------------------------------------------------------------

def spinor_op(v, l=SPINOR_RANK):
    m = tangent_to_skew(v, l)
    return m, pfaffian(m), null_cone_member(v, l)


def traced_spinor_op(tr, v, l=SPINOR_RANK):
    with tr.span("spinorial.tangent_to_skew"):
        m = tangent_to_skew(v, l)
    with tr.span("spinorial.pfaffian"):
        pf = pfaffian(m)
    with tr.span("spinorial.null_cone_member"):
        nc = null_cone_member(v, l)
    _count_sqrt2(tr, chain(v.values(), *m.entries, [pf]))
    return m, pf, nc


def spinor_ok(v, expect_cone, result, l=SPINOR_RANK):
    """Exact checks of one spinor call: the skew matrix maps back to v, the
    cone verdict agrees with the Pfaffian, and decomposable vectors lie on
    the cone."""
    m, pf, nc = result
    return (skew_to_tangent(m, l) == v and nc == pf.is_zero()
            and (expect_cone is None or nc is expect_cone))


# --------------------------------------------------------------------------
# microbenchmarks and the layer probe
# --------------------------------------------------------------------------

def _per_op_ns(fn, pairs, repeats=7):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x, y in pairs:
            fn(x, y)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(pairs) * 1e9


def microbench(seed):
    """Per-operation times on a fixed seeded operand corpus.  The scalar
    corpus has a rational-only half and a sqrt2-bearing half."""
    rng = random.Random(seed)

    def rat():
        return Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))

    rational = [(ExactScalar(rat()), ExactScalar(rat())) for _ in range(2000)]
    mixed = [(ExactScalar(rat(), rat()), ExactScalar(rat(), rat()))
             for _ in range(2000)]
    ch = chart(4)

    def poly():
        terms = {}
        for _ in range(rng.randint(3, 6)):
            e = [0] * ch.ncoords
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(ch.ncoords)] += 1
            terms[tuple(e)] = ExactScalar(rat(), rng.choice([0, 0, 1]))
        return Polynomial(ch, terms)

    polys = [(poly(), poly()) for _ in range(300)]
    mul = ExactScalar.__mul__
    add = ExactScalar.__add__
    return {
        "scalars.mul_rational_ns": _per_op_ns(mul, rational),
        "scalars.mul_sqrt2_ns": _per_op_ns(mul, mixed),
        "scalars.add_ns": _per_op_ns(add, rational + mixed),
        "polynomials.mul_us": _per_op_ns(Polynomial.__mul__, polys,
                                         repeats=5) / 1e3,
    }


def probe(seed, tr):
    """A small fixed traced pass through every layer, run in a fresh
    process so that its cold calls are cold in every workload.  Returns
    the number of failed checks."""
    failed = 0
    with tr.span("algebra.algebra", l=4, cold=tr.first(("algebra", 4))):
        ga = algebra(4)
    streams = pass_candidates(seed, 0)
    accepted = rejected = 0
    while accepted < 2 or rejected < 1:
        text = next(streams[accepted])
        try:
            data, _ = staged_analyze(tr, text)
        except REJECTIONS:
            rejected += 1
            continue
        accepted += 1
        failed += json.dumps(analyze_text(text)[0]) != json.dumps(data)
    name = ("flat_l5", "armstrong_l5")[seed % 2]
    data, _ = staged_analyze(tr, (FRAMES / f"{name}.frame").read_text())
    golden = json.loads((EXPECTED / "cli-goldens.json").read_text())[name]
    failed += json.dumps(data, indent=2) + "\n" != golden["stdout"]
    for check, fn in ALGEBRA_CHECKS:
        with tr.span(f"algebra.check.{check}", l=4):
            failed += fn(ga) is not True
    failed += staged_harmonic(tr, 4, 2, 1) != harmonic_space(4, 2, 1).dimension
    for v, cone in spinor_corpus(seed, 200):
        failed += not spinor_ok(v, cone, traced_spinor_op(tr, v))
    tr.counters.update(microbench(seed))
    return failed


# --------------------------------------------------------------------------
# worker entry point
# --------------------------------------------------------------------------

def _cli_analyze(path, out):
    """Print what ``freedist analyze <path>`` prints, through the staged
    pipeline, and return the CLI's exit code."""
    tr = Tracer()
    tr.spans.append({"id": 0, "pid": os.getpid(), "name": "cli.import",
                     "parent": None, "attrs": {}, "start": _T0,
                     "end": _T_IMPORTED})
    code = 0
    try:
        data, _ = staged_analyze(tr, Path(path).read_text(encoding="utf-8"))
        print(json.dumps(data, indent=2))
    except ParseError as exc:
        print(f"{path}:{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        code = 1
    except FreeDistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    tr.dump(out)
    return code


def main(argv):
    mode = argv[0]
    if mode == "setup":
        workload, seed = argv[1], int(argv[2])
        if workload == "cli-goldens":
            import freedist.cli  # noqa: F401
        elif workload == "random-frames":
            setup_random_frames()
        else:
            algebra(5)
            spinor_corpus(seed)
        print(time.process_time() - _C0)
        return 0
    if mode == "analyze":
        return _cli_analyze(argv[1], argv[2])
    if mode == "probe":
        tr = Tracer()
        tr.counters["probe.failed"] = probe(int(argv[1]), tr)
        tr.dump(argv[2])
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
