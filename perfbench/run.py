"""freedist benchmark: one workload per invocation, run from the root of a
source checkout.

    python3 perfbench/run.py --workload cli-goldens --seed 1 --seconds 10 --trace 0

Workloads (perfbench/README.md says why each exists):

  cli-goldens         cold ``freedist analyze <file>`` processes on the
                      shipped frames, output compared with recorded goldens
  random-frames       warm ``analyze`` + ``report_to_json`` on a seeded
                      mix of rank-4 candidate frames
  algebra-cohomology  ``algebra_battery(5)``, ``harmonic_space(5, 2, h)``
                      for h = 1..3, and seeded rank-7 spinor calls

Each workload runs fixed passes, repeated until ``--seconds`` have been
measured (at least one pass).  Times are scaled to a nominal host speed
by a gauge kernel, timed between operations done in this process (see
Gauge) and inside the run of a child process (see gauged_child).  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
runs the same passes with a span around every public call, then the layer
probe, and reports the per-layer metrics; the spans are written to
``perfbench/.work/``.  The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected"
FRAMES = BENCH / "frames"
STAGES = str(BENCH / "stages.py")
PY = sys.executable
ENV = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 120
PERCENTILES = (75, 80, 90, 95, 99)
# Gauge kernel seconds on the nominal host that reported times refer to.
GAUGE_NOMINAL_S = 0.012
# Shortest reach of the gauge readings that scale an operation.
GAUGE_WINDOW_S = 1.5
# CLI calls per pass of each frame but the rank-5 and rank-6 ones, whose
# calls take seconds: enough calls that the median call is steady.
CLI_REPEAT = 3
# Spinor calls timed between two gauge readings.
SPINOR_GROUP = 25
# A gauged child process runs SAMPLE_EVERY_S, or SAMPLE_AGE_SHARE of its
# age if longer, between two gauge samples.
SAMPLE_EVERY_S = 0.05
SAMPLE_AGE_SHARE = 0.03


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def gauge_kernel():
    """Fixed stdlib-only work of the kind the package does: Fraction
    arithmetic and dict traffic under tuple keys."""
    acc = {}
    x = Fraction(3, 7)
    for i in range(1500):
        key = (i % 17, i % 5)
        acc[key] = (acc.get(key, 0) + x * Fraction(i % 11 + 1, i % 13 + 2)
                    + Fraction(1, i % 7 + 1))
    return acc


class Gauge:
    """Host-speed gauge.  Other tenants of a shared host slow this process
    by 15-35%, in swings from seconds to minutes long.  The gauge kernel is
    timed between operations; each operation's seconds are scaled by the
    nominal kernel time over the mean of the readings taken within its own
    duration, or GAUGE_WINDOW_S if longer, of it.  That removes most of the
    drift from the reported figures; a reading is a short sample, so the
    window keeps one fast swing from deciding an operation's scale.

    A child process is gauged from inside its run instead (see
    gauged_child): readings taken only around a 30 s child do not see the
    speed it ran at."""

    def __init__(self):
        self.readings = []      # (perf_counter at the end, kernel seconds)
        self.read()

    def read(self):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            gauge_kernel()
            times.append(time.perf_counter() - t0)
        self.readings.append((time.perf_counter(), statistics.median(times)))

    @staticmethod
    def sample():
        """Seconds of one kernel run, for a gauged child."""
        t0 = time.perf_counter()
        gauge_kernel()
        return time.perf_counter() - t0

    def scale(self, t0, t1):
        """Factor for seconds measured between t0 and t1."""
        w = max(GAUGE_WINDOW_S, t1 - t0)
        return GAUGE_NOMINAL_S / statistics.mean(
            v for t, v in self.readings if t0 - w <= t <= t1 + w)


def tail(samples):
    """(p, value): the highest of PERCENTILES with at least ten samples
    beyond it; with fewer than forty samples, the slowest one."""
    xs = sorted(samples)
    best = (100, xs[-1])
    for p in PERCENTILES:
        if len(xs) * (100 - p) / 100 >= 10:
            best = (p, xs[int(len(xs) * p / 100)])
    return best


def child(args):
    """Run one child process to completion; returns (seconds, result)."""
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, env=ENV, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def gauged_child(args):
    """Run one child process to completion, gauged from inside its run.

    The child shares this process's vCPU.  It is stopped now and then (see
    SAMPLE_EVERY_S) while the gauge kernel is timed, then continued; one
    sample is also taken before it starts.  Returns (CPU seconds of the
    child, which leave out the stops, scale factor GAUGE_NOMINAL_S over the
    mean sample weighted by the seconds each one follows, result)."""
    weights, samples = [SAMPLE_EVERY_S], [Gauge.sample()]
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.Popen(args, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    start = time.perf_counter()
    try:
        while True:
            age = time.perf_counter() - start
            wait = max(SAMPLE_EVERY_S, SAMPLE_AGE_SHARE * age)
            try:
                out, err = proc.communicate(timeout=wait)
                break
            except subprocess.TimeoutExpired:
                if age > CHILD_TIMEOUT_S:
                    raise
            proc.send_signal(signal.SIGSTOP)
            if proc.returncode is not None:     # reaped: it had exited
                continue
            # until it has stopped (or exited, which is left to communicate)
            os.waitid(os.P_PID, proc.pid,
                      os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            weights.append(wait)
            samples.append(Gauge.sample())
            proc.send_signal(signal.SIGCONT)
    finally:
        if proc.returncode is None:
            proc.send_signal(signal.SIGCONT)
            proc.kill()
            proc.wait()
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    result = subprocess.CompletedProcess(args, proc.returncode, out, err)
    mean = sum(w * x for w, x in zip(weights, samples)) / sum(weights)
    return cpu, GAUGE_NOMINAL_S / mean, result


def worker(*args):
    """Run perfbench/stages.py in a fresh interpreter; fail loudly."""
    _, proc = child([PY, STAGES, *map(str, args)])
    if proc.returncode != 0:
        raise RuntimeError(f"stages.py {args[0]} failed: "
                           f"{proc.stderr.decode()}")
    return proc


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Run:
    """What one workload run measured and checked.

    Operations are recorded with ``op`` as they end, with the gauge read
    (``mark``) between them; ``end_pass`` scales the pass's operations by
    the gauge, and a pass's wall time is the sum of its scaled
    operations.  A gauged child's operation comes already scaled."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.gauge = Gauge()
        self.setup_s = None
        self.passes = []        # scaled seconds of each pass
        self.latencies = []     # per pass, scaled seconds of timed ops
        self.tagged = {}        # tag -> scaled seconds of tagged ops
        self.op_count = 0       # every operation ...
        self.op_time = 0.0      # ... and its scaled seconds
        self.attempted = 0
        self.failed = 0
        self.figures = {}       # workload-specific figures, printed only
        self.spans = []
        self.counters = {}
        self._ops = []          # (start, end, latency, tag, seconds) ops

    def more(self):
        return not self.passes or sum(self.passes) < self.seconds

    def op(self, t0, latency=True, tag=None, seconds=None):
        """Record an operation that started at t0 and has just ended.  Its
        seconds are scaled by the readings around it, unless ``seconds``
        gives them (a child process's)."""
        self._ops.append((t0, time.perf_counter(), latency, tag, seconds))

    def mark(self):
        self.gauge.read()

    def end_pass(self):
        self.gauge.read()
        wall = 0.0
        latencies = []
        for t0, t1, latency, tag, seconds in self._ops:
            dt = seconds if seconds is not None \
                else (t1 - t0) * self.gauge.scale(t0, t1)
            wall += dt
            self.op_count += 1
            self.op_time += dt
            if latency:
                latencies.append(dt)
            if tag is not None:
                self.tagged.setdefault(tag, []).append(dt)
        self._ops = []
        self.passes.append(wall)
        self.latencies.append(latencies)

    def per_pass(self, stat):
        """Median over passes of a statistic of each pass's latencies."""
        return statistics.median(map(stat, self.latencies))

    def setup_samples(self, workload, seed, n):
        """Median of n set-ups, each in a fresh gauged interpreter, timed
        in CPU seconds inside it from before the package import and
        scaled by the child's gauge samples."""
        samples = []
        for _ in range(n):
            _, scale, proc = gauged_child([PY, STAGES, "setup", workload,
                                           str(seed)])
            if proc.returncode != 0:
                raise RuntimeError(f"stages.py setup failed: "
                                   f"{proc.stderr.decode()}")
            samples.append(float(proc.stdout.split()[-1]) * scale)
        self.setup_s = statistics.median(samples)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"MISMATCH {what}")

    def absorb(self, dump):
        """Add a worker's span file to this run's trace."""
        self.spans.extend(dump["spans"])
        for name, n in dump["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + n

    def end_to_end(self):
        self.figures["op_tail_percentile"] = (
            tail(self.latencies[0])[0],
            f"of {len(self.latencies[0])} timed operations per pass")
        return {
            "setup_s": (self.setup_s, "s"),
            "wall_s": (statistics.median(self.passes), "s"),
            "peak_rss_mb": (max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
                / 1024, "MB"),
            "op_p50_s": (self.per_pass(statistics.median), "s"),
            "op_tail_s": (self.per_pass(lambda xs: tail(xs)[1]), "s"),
            "ops_per_s": (sum(map(len, self.latencies))
                          / sum(map(sum, self.latencies)), "1/s"),
        }


# --------------------------------------------------------------------------
# cli-goldens
# --------------------------------------------------------------------------

def cli_goldens(run, seed, trace):
    expected = json.loads((EXPECTED / "cli-goldens.json").read_text())
    order = [name for name in sorted(expected)
             for _ in range(1 if name.endswith(("_l5", "_l6"))
                            else CLI_REPEAT)]
    random.Random(seed).shuffle(order)
    paths = {}
    for name in expected:
        paths[name] = WORK / f"{name}.frame"
        paths[name].write_text(f"# perfbench seed {seed}\n"
                               + (FRAMES / f"{name}.frame").read_text())
    if not trace:
        run.setup_samples("cli-goldens", seed, 7)
    while run.more():
        for name in order:
            t0 = time.perf_counter()
            if trace:
                # raw seconds: stopping the worker would stretch its spans
                out = WORK / f"spans-{name}.json"
                seconds, proc = child([PY, STAGES, "analyze",
                                       str(paths[name]), str(out)])
            else:
                cpu, scale, proc = gauged_child(
                    [PY, "-m", "freedist.cli", "analyze", str(paths[name])])
                seconds = cpu * scale
            run.op(t0, tag=name, seconds=seconds)
            if trace:
                run.absorb(json.loads(out.read_text()))
            want = expected[name]
            run.check(proc.returncode == want["exit"]
                      and proc.stdout.decode() == want["stdout"],
                      f"{name}: exit {proc.returncode}")
        run.end_pass()

    def median_of(pred):
        return statistics.median(t for name in expected
                                 if pred(name, expected[name]["exit"])
                                 for t in run.tagged[name])

    for l in (4, 5, 6):
        run.figures[f"cli_analyze_l{l}_s"] = (median_of(
            lambda name, code: code == 0 and name.endswith(f"_l{l}")), "s")
    run.figures["cli_reject_s"] = (median_of(lambda _, code: code != 0), "s")


# --------------------------------------------------------------------------
# random-frames
# --------------------------------------------------------------------------

def frame_outcomes(results):
    """Digest of the ordered accept/reject outcomes and report JSON."""
    h = hashlib.sha256()
    for _, error, data, _ in results:
        h.update((json.dumps(data) if error is None
                  else f"reject {type(error).__name__}").encode() + b"\n")
    return h.hexdigest()


def frames_pass(run, streams, analyze_one):
    """From each candidate stream, candidates until one is accepted; each
    result is (text, error, report JSON data, report)."""
    from stages import REJECTIONS
    results = []
    for stream in streams:
        while True:
            text = next(stream)
            t0 = time.perf_counter()
            try:
                data, report = analyze_one(text)
            except Exception as exc:  # every outcome is recorded and checked
                run.op(t0, latency=False)
                results.append((text, exc, None, None))
                if not isinstance(exc, REJECTIONS):
                    break
            else:
                run.op(t0)
                results.append((text, None, data, report))
                break
        run.mark()
    run.end_pass()
    return results


def random_frames(run, seed, trace):
    import stages
    tr = stages.Tracer() if trace else None
    if not trace:
        run.setup_samples("random-frames", seed, 5)
    stages.setup_random_frames(tr)
    npass = 0
    while run.more():
        streams = stages.pass_candidates(seed, npass)
        if trace:
            results = frames_pass(
                run, streams, lambda text: stages.staged_analyze(tr, text))
        else:
            results = frames_pass(run, streams, stages.analyze_text)
        for text, error, data, report in results:
            if error is not None:
                run.check(isinstance(error, stages.REJECTIONS),
                          f"candidate raised {error!r}")
                continue
            ok = stages.report_invariants(data, report)
            if trace:
                ok = ok and (json.dumps(stages.analyze_text(text)[0])
                             == json.dumps(data))
            run.check(ok, f"report of candidate\n{text}")
        if npass == 0 and seed == DEFAULT_SEED:
            want = json.loads((EXPECTED / "random-frames.json").read_text())
            run.check(frame_outcomes(results) == want["digest"],
                      "random-frames outcome digest at the default seed")
        npass += 1
    if tr is not None:
        run.absorb({"spans": tr.spans, "counters": tr.counters})
    run.figures["candidates_per_s"] = (run.op_count / run.op_time, "1/s")
    run.figures["frame_p50_s"] = (run.per_pass(statistics.median), "s")
    run.figures["frame_tail_s"] = (
        run.per_pass(lambda xs: tail(xs)[1]),
        f"s (p{tail(run.latencies[0])[0]} of {len(stages.SHAPES)} "
        "frames per pass)")
    run.figures["accepted"] = (sum(map(len, run.latencies)),
                               f"of {run.op_count} candidates")


# --------------------------------------------------------------------------
# algebra-cohomology
# --------------------------------------------------------------------------

def algebra_cohomology(run, seed, trace):
    import stages
    from freedist.algebra import ALGEBRA_CHECKS, algebra
    from freedist.cohomology import harmonic_space

    expected = json.loads((EXPECTED / "algebra-cohomology.json").read_text())
    tr = stages.Tracer() if trace else None
    if trace:
        with tr.span("algebra.algebra", l=5, cold=tr.first(("algebra", 5))):
            ga = algebra(5)
    else:
        run.setup_samples("algebra-cohomology", seed, 7)
        ga = algebra(5)
    corpus = stages.spinor_corpus(seed)
    while run.more():
        # the battery as algebra_battery(5) runs it, one check at a time so
        # that the gauge is read between checks
        results = []
        for name, fn in ALGEBRA_CHECKS:
            t0 = time.perf_counter()
            if trace:
                with tr.span(f"algebra.check.{name}", l=5):
                    results.append((name, fn(ga)))
            else:
                results.append((name, fn(ga)))
            run.op(t0, latency=False, tag="battery")
            run.mark()
        run.check(results == [(n, True) for n in expected["checks"]],
                  f"algebra battery at l=5: {results}")
        for h, want in expected["harmonic_l5_k2"].items():
            t0 = time.perf_counter()
            if trace:
                dim = stages.staged_harmonic(tr, 5, 2, int(h))
            else:
                dim = harmonic_space(5, 2, int(h)).dimension
            run.op(t0, latency=False, tag="cohomology")
            run.mark()
            run.check(dim == want, f"harmonic_space(5, 2, {h}) = {dim}")
            if trace:
                run.check(dim == harmonic_space(5, 2, int(h)).dimension,
                          f"reproduced harmonic_space(5, 2, {h})")
        outs = []
        for i, (v, _) in enumerate(corpus, 1):
            t0 = time.perf_counter()
            if trace:
                outs.append(stages.traced_spinor_op(tr, v))
            else:
                outs.append(stages.spinor_op(v))
            run.op(t0)
            if i % SPINOR_GROUP == 0:
                run.mark()
        run.end_pass()
        for (v, cone), out in zip(corpus, outs):
            run.check(stages.spinor_ok(v, cone, out), f"spinor call on {v}")
    if tr is not None:
        run.absorb({"spans": tr.spans, "counters": tr.counters})
    npass = len(run.passes)
    run.figures["battery_l5_s"] = (sum(run.tagged["battery"]) / npass, "s")
    run.figures["cohomology_l5_k2_s"] = (
        sum(run.tagged["cohomology"]) / npass, "s")
    run.figures["spinor_ops_per_s"] = (
        sum(map(len, run.latencies)) / sum(map(sum, run.latencies)), "1/s")


WORKLOADS = {
    "cli-goldens": cli_goldens,
    "random-frames": random_frames,
    "algebra-cohomology": algebra_cohomology,
}


# --------------------------------------------------------------------------
# per-layer metrics of a traced run
# --------------------------------------------------------------------------

def per_layer(run, workload, seed):
    """Layer metrics over the workload's own spans plus the layer probe's.

    The probe is a small fixed pass through every layer in a fresh
    process, so each layer has a reading in every workload; a layer the
    workload does not reach reads the probe's share alone.  Span times are
    raw seconds; trace.wall_s is scaled like wall_s, so trace.wall_s minus
    an untraced run's wall_s is the tracing overhead."""
    own_spans = len(run.spans)
    own_counts = dict(run.counters)
    out = WORK / "spans-probe.json"
    worker("probe", seed, out)
    probe = json.loads(out.read_text())
    run.check(probe["counters"].pop("probe.failed") == 0, "layer probe")
    run.absorb(probe)
    imports = [child([PY, "-c", "import freedist"])[0] for _ in range(3)]
    (WORK / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps({"workload": workload, "seed": seed,
                    "spans": run.spans, "counters": run.counters}))

    def durations(name, **want):
        return [s["end"] - s["start"] for s in run.spans
                if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in want.items())]

    def total(name, **want):
        return sum(durations(name, **want))

    def median(name, **want):
        return statistics.median(durations(name, **want))

    def attr_sum(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in run.spans
                   if s["name"] == name)

    builds = [s for s in run.spans if s["name"] == "geometry.build_frame"]
    rejected = sum("error" in s["attrs"] for s in builds)
    m = {
        "trace.wall_s": (statistics.median(run.passes), "s"),
        "trace.spans": (own_spans, "count"),
        "cli.import_s": (statistics.median(imports), "s"),
        "parsing.parse_frame_file.s": (total("parsing.parse_frame_file"), "s"),
        "geometry.build_frame.s": (total("geometry.build_frame"), "s"),
        "geometry.build_frame.reject_s": (sum(
            s["end"] - s["start"] for s in builds if "error" in s["attrs"]),
            "s"),
        "geometry.build_frame.accept_ratio": (
            (len(builds) - rejected) / len(builds), "share"),
        "geometry.dual_coframe.s": (total("geometry.dual_coframe"), "s"),
        "geometry.dual_coframe.l4_s": (
            median("geometry.dual_coframe", rank=4), "s"),
        "geometry.dual_coframe.l5_s": (
            median("geometry.dual_coframe", rank=5), "s"),
        "geometry.structure_functions.s": (
            total("geometry.structure_functions"), "s"),
    }
    for stage in ("solve_degree1", "solve_degree2"):
        for kind, cold in (("cold", True), ("warm", False)):
            m[f"normalization.{stage}.{kind}_s"] = (
                median(f"normalization.{stage}", cold=cold), "s")
    m["normalization.report_to_json.s"] = (
        total("normalization.report_to_json"), "s")
    m["algebra.algebra.cold_s"] = (median("algebra.algebra", cold=True), "s")
    checks = json.loads((EXPECTED / "algebra-cohomology.json").read_text())
    for name in checks["checks"]:
        m[f"algebra.check.{name}.s"] = (total(f"algebra.check.{name}"), "s")
    m["algebra.differential.s"] = (total("algebra.differential"), "s")
    m["algebra.codifferential.s"] = (total("algebra.codifferential"), "s")
    m["linalg.kernel_of_columns.s"] = (total("linalg.kernel_of_columns"), "s")
    for attr in ("columns", "nonzeros", "kernel_dim"):
        m[f"linalg.kernel_of_columns.{attr}"] = (
            attr_sum("linalg.kernel_of_columns", attr), "count")
    m["spinorial.pfaffian.s"] = (total("spinorial.pfaffian"), "s")
    for name, unit in (("scalars.mul_rational_ns", "ns"),
                       ("scalars.mul_sqrt2_ns", "ns"),
                       ("scalars.add_ns", "ns"),
                       ("polynomials.mul_us", "us")):
        m[name] = (probe["counters"][name], unit)
    m["scalars.sqrt2_share"] = (
        own_counts.get("sqrt2.with_sqrt2", 0)
        / max(1, own_counts.get("sqrt2.coeffs", 0)), "share")
    m["terms.jacobian"] = (
        attr_sum("geometry.dual_coframe", "jacobian_terms"), "count")
    m["terms.coframe"] = (
        attr_sum("geometry.dual_coframe", "coframe_terms"), "count")
    m["terms.report_nonzeros"] = (
        attr_sum("normalization.report_to_json", "report_nonzeros"), "count")
    l6 = durations("geometry.dual_coframe", rank=6)
    if l6:
        run.figures["geometry.dual_coframe.l6_s"] = (statistics.median(l6),
                                                     "s")
    return m


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "freedist" / "__init__.py").is_file():
        print(f"error: no freedist sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0" \
            or os.environ.get("PYTHONPATH") != str(SRC):
        os.execve(PY, [PY, str(Path(__file__).resolve()),
                       *sys.argv[1:]], ENV)
    # One vCPU for this process and every child it starts: the gauge then
    # reads the processor the timed work runs on, and nothing migrates
    # between vCPUs of different speed mid-operation.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    run = Run(args.seconds)
    WORKLOADS[args.workload](run, args.seed, args.trace)
    if args.trace:
        metrics = per_layer(run, args.workload, args.seed)
    else:
        metrics = run.end_to_end()
    print(f"env: python {sys.version.split()[0]}, nproc "
          f"{os.cpu_count()}, cpu {cpu_model()}, "
          f"PYTHONHASHSEED=0, workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, gauge median "
          f"{statistics.median(v for _, v in run.gauge.readings) * 1e3:.2f} ms "
          f"(nominal {GAUGE_NOMINAL_S * 1e3:.1f} ms)")
    for name, (value, unit) in {**run.figures, **metrics}.items():
        print(f"{name} = {value} {unit}")
    print(f"error_rate = {run.failed / max(1, run.attempted)} "
          f"({run.failed} of {run.attempted} checks)")
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
