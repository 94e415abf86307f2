"""Command-line interface: exit codes, output formats, and guards."""

import ast
import contextlib
import glob
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freedist.cli as cli_module
import freedist.normalization as normalization_module
import freedist.spinorial as spinorial_module
from conftest import data_path, frame_texts
from freedist.cli import (ALGEBRA_CHECK_MAX_L, ALGEBRA_CHECK_MIN_L,
                          COHOMOLOGY_MAX_H_VALUES, COHOMOLOGY_MAX_L,
                          COHOMOLOGY_MIN_L, SPINOR_MAX_L, SPINOR_MIN_L,
                          _parse_h_range, main)
from freedist.parsing import MAX_DIGITS, MAX_L
from freedist.polynomials import Polynomial

JSON_KEY_ORDER = ["l", "nondegenerate", "structure_functions", "A", "C", "E",
                  "F", "P", "R", "S", "T", "flat", "kappa11_deg2_zero",
                  "extension_verdict"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_flat(capsys):
    code, out, err = run(capsys, "analyze", data_path("flat_l4.frame"))
    assert code == 0
    data = json.loads(out)
    assert list(data.keys()) == JSON_KEY_ORDER
    assert data["l"] == 4
    assert data["flat"] is True
    assert data["extension_verdict"] == "NormalAtComputedOrder"
    assert data["structure_functions"] == {}


def test_analyze_json_armstrong(capsys):
    code, out, _ = run(capsys, "analyze", data_path("armstrong_l4.frame"),
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["flat"] is False
    assert data["P"] == {"[3,4],1,[1,2]": "1"}
    assert data["structure_functions"] == {"[3,4],1,[1,2]": "1"}
    assert data["kappa11_deg2_zero"] is True


def test_analyze_text_format(capsys):
    code, out, _ = run(capsys, "analyze", data_path("armstrong_l4.frame"),
                       "--format", "text")
    assert code == 0
    assert "l = 4" in out
    assert "flat = False" in out
    assert "P: 1 nonzero" in out
    assert "[3,4],1,[1,2] = 1" in out


def test_analyze_parse_error_exit_1(capsys):
    path = data_path("bad_syntax.frame")
    code, out, err = run(capsys, "analyze", path)
    assert code == 1
    assert out == ""
    assert re.match(rf"^{re.escape(path)}:3:\d+: ", err)


def test_analyze_degenerate_exit_2(capsys):
    code, _, err = run(capsys, "analyze", data_path("integrable_l4.frame"))
    assert code == 2
    assert err.startswith("error: ")


def test_analyze_nonunimodular_exit_2(capsys):
    code, _, err = run(capsys, "analyze",
                       data_path("nonunimodular_l4.frame"))
    assert code == 2
    assert "error: " in err


def test_analyze_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/file.frame")
    assert code == 2
    assert err.startswith("error: ")


def test_analyze_non_utf8_exit_1(capsys, tmp_path):
    path = tmp_path / "latin1.frame"
    path.write_bytes(b"l: 4\nX1: \xe9\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"{path}: ") and "not valid UTF-8" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def flat_frame_text(l):
    lines = [f"l: {l}"]
    for i in range(1, l + 1):
        terms = [f"Dx{i}"] + [f"- x{p}*Dy[{i},{p}]" for p in range(i + 1,
                                                                   l + 1)]
        lines.append(f"X{i}: " + " ".join(terms))
    return "\n".join(lines) + "\n"


def test_analyze_rank_guard(capsys, monkeypatch, tmp_path):
    def no_analysis(fields):
        raise AssertionError("analyze ran past the rank guard")

    monkeypatch.setattr(cli_module, "analyze", no_analysis)
    for l, text in ((MAX_L + 1, flat_frame_text(MAX_L + 1)),
                    (10 ** 9, "l: 1000000000\n")):
        path = tmp_path / f"rank{l}.frame"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: rank l={l} ")
        assert "(resource guard)" in err and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "l: " + "9" * 5000 + "\n",
    "l: 2\nX1: x1^" + "9" * 5000 + "*Dx1\nX2: Dx2\n"],
    ids=["rank", "exponent"])
def test_analyze_digit_runs_past_int_limit(capsys, tmp_path, text):
    path = tmp_path / "long.frame"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: number of 5000 digits is longer than "
                          f"{MAX_DIGITS}")
    assert "Traceback" not in err and err.count("\n") == 1


@given(st.one_of(st.binary(max_size=80),
                 frame_texts().map(lambda text: text.encode("utf-8"))))
@settings(deadline=None, max_examples=150)
def test_analyze_fuzz_exit_codes(data):
    """Any bytes in: a documented exit code out, and at most one stderr
    line, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.frame")
        with open(path, "wb") as fh:
            fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["analyze", path])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") == (1 if code else 0)


def test_analyze_verbose_goes_to_stderr(capsys):
    code, out, err = run(capsys, "-v", "analyze", data_path("flat_l4.frame"))
    assert code == 0
    assert "frame parsed" in err
    json.loads(out)  # stdout stays pure JSON


@pytest.mark.parametrize("argv", [
    ("analyze", "{path}", "--verbose"),
    ("analyze", "-v", "{path}", "--format", "text"),
    ("--verbose", "analyze", "{path}", "-v")])
def test_analyze_verbose_after_the_subcommand(capsys, argv):
    path = data_path("armstrong_l4.frame")
    argv = [a.format(path=path) for a in argv]
    quiet = [a for a in argv if a not in ("-v", "--verbose")]
    code, plain, err = run(capsys, *quiet)
    assert code == 0 and err == ""
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == plain  # stdout is byte-identical with and without
    assert "frame parsed" in err


def test_algebra_check_pass_lines(capsys):
    code, out, _ = run(capsys, "algebra-check", "--l", "3")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert all(ln.endswith(": PASS") for ln in lines)
    names = [ln.split(":")[0] for ln in lines]
    assert "killing-pairing-values" in names
    assert "operator-closed-forms" in names


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


def test_package_has_no_bare_asserts():
    """Invariant checks must raise explicitly: ``python -O`` strips
    ``assert`` statements."""
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "freedist", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def run_fresh(*argv, flags=()):
    """The CLI in a fresh process, with interpreter flags such as -O;
    stdout and stderr as bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, "-m", "freedist.cli", *argv], env=env,
        capture_output=True, timeout=300)


def run_optimized(*argv):
    return run_fresh(*argv, flags=("-O",))


def test_algebra_check_under_optimize_flag():
    proc = run_optimized("algebra-check", "--l", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode("utf-8").count(": PASS") == 10


def assert_algebra_check_golden(l):
    """The battery's report at rank l, in a fresh process: stdout byte for
    byte as recorded in tests/data, and exit code 0 (all ten PASS)."""
    proc = run_fresh("algebra-check", "--l", str(l))
    with open(data_path(f"algebra_check_l{l}.out"), "rb") as fh:
        assert proc.stdout == fh.read()
    assert proc.returncode == 0 and proc.stderr == b""


def test_algebra_check_l5_matches_its_golden():
    assert_algebra_check_golden(5)


def test_algebra_check_l6_matches_its_golden():
    assert_algebra_check_golden(6)


@pytest.mark.parametrize("l, name", [(13, "spinor_l13"),
                                     (7, "spinor_l7_decomposable")])
def test_spinor_matches_its_golden(l, name):
    """``spinor`` on a recorded vector, in a fresh process: stdout byte for
    byte as recorded in tests/data, and exit code 0.  The rank-13 vector
    fills all 91 keys with fractions (denominators up to 7) and sqrt2
    parts; the rank-7 one is decomposable, so it lies on the cone."""
    with open(data_path(f"{name}_vector.json"), encoding="utf-8") as fh:
        vector = fh.read()
    proc = run_fresh("spinor", "--l", str(l), "--vector", vector)
    with open(data_path(f"{name}.out"), "rb") as fh:
        assert proc.stdout == fh.read()
    assert proc.returncode == 0 and proc.stderr == b""


with open(data_path("analyze_goldens.json"), encoding="utf-8") as _fh:
    ANALYZE_GOLDENS = json.load(_fh)
GOLDEN_FRAMES = sorted(os.path.basename(p)
                       for p in glob.glob(data_path("*.frame")))


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", GOLDEN_FRAMES)
def test_analyze_matches_its_golden(capsys, monkeypatch, name, fmt):
    """Every frame in tests/data, analyzed in each format from inside
    tests/data (so messages name the bare file): stdout, stderr and exit
    code exactly as recorded in analyze_goldens.json."""
    monkeypatch.chdir(data_path(""))
    code, out, err = run(capsys, "analyze", name, "--format", fmt)
    want = ANALYZE_GOLDENS[name][fmt]
    assert out.encode("utf-8") == want["stdout"].encode("utf-8")
    assert err.encode("utf-8") == want["stderr"].encode("utf-8")
    assert code == want["exit_code"]


def test_analyze_under_optimize_flag(capsys):
    """analyze passes the invariant raises of GradedAlgebra and expand_int
    under -O too, with the same stdout and exit code."""
    path = data_path("armstrong_l4.frame")
    code, out, _ = run(capsys, "analyze", path)
    proc = run_optimized("analyze", path)
    assert (proc.returncode, proc.stdout) == (code, out.encode("utf-8"))
    assert code == 0


def test_algebra_check_guard(capsys):
    code, _, err = run(capsys, "algebra-check", "--l",
                       str(ALGEBRA_CHECK_MIN_L - 1))
    assert code == 2 and "error: " in err
    code, _, err = run(capsys, "algebra-check", "--l",
                       str(ALGEBRA_CHECK_MAX_L + 1))
    assert code == 2 and "error: " in err


def test_cohomology_range(capsys):
    code, out, _ = run(capsys, "cohomology", "--l", "3", "--k", "2",
                       "--h", "2..3")
    assert code == 0
    data = json.loads(out)
    assert data == {"l": 3, "k": 2, "dimensions": {"2": 0, "3": 27}}


def test_cohomology_single_h(capsys):
    code, out, _ = run(capsys, "cohomology", "--l", "3", "--k", "1",
                       "--h", "0")
    assert code == 0
    assert json.loads(out)["dimensions"] == {"0": 0}


def test_cohomology_guards(capsys):
    code, _, err = run(capsys, "cohomology", "--l",
                       str(COHOMOLOGY_MAX_L + 1), "--k", "2", "--h", "1")
    assert code == 2 and "error: " in err
    code, _, err = run(capsys, "cohomology", "--l",
                       str(COHOMOLOGY_MIN_L - 1), "--k", "2", "--h", "1")
    assert code == 2 and "error: " in err
    code, _, err = run(capsys, "cohomology", "--l", "3", "--k", "2",
                       "--h", "5..1")
    assert code == 2 and "error: " in err
    code, _, err = run(capsys, "cohomology", "--l", "3", "--k", "2",
                       "--h", "a..b")
    assert code == 2 and "error: " in err


def test_cohomology_range_width_guard(capsys):
    assert _parse_h_range(f"0..{COHOMOLOGY_MAX_H_VALUES - 1}") \
        == list(range(COHOMOLOGY_MAX_H_VALUES))
    for text in (f"0..{COHOMOLOGY_MAX_H_VALUES}", "0..10000000000000000000000",
                 "-1000000000..1000000000"):
        code, out, err = run(capsys, "cohomology", "--l", "3", "--k", "1",
                             f"--h={text}")
        assert code == 2 and out == ""
        assert err.startswith("error: homogeneity range ")
        assert "Traceback" not in err


@pytest.mark.parametrize("text", ["1_0..1_1", "\u0663", "+1..2"])
def test_cohomology_range_takes_ascii_integers_only(capsys, text):
    """Underscore separators, non-ASCII digits and a '+' sign, all of which
    int() reads, are refused with the invalid-range line."""
    code, out, err = run(capsys, "cohomology", "--l", "3", "--k", "1",
                         f"--h={text}")
    assert (code, out) == (2, "")
    assert err == (f"error: invalid homogeneity range {text!r}; "
                   "expected A..B with integers\n")


def test_cohomology_range_negative_and_spaced_bounds(capsys):
    code, out, _ = run(capsys, "cohomology", "--l", "3", "--k", "1",
                       "--h=-1..1")
    assert code == 0
    assert json.loads(out)["dimensions"] == {"-1": 6, "0": 0, "1": 0}
    assert _parse_h_range(" -1 .. 2 ") == [-1, 0, 1, 2]


def test_internal_invariant_failure_exit_3(capsys, monkeypatch):
    def broken(l):
        raise AssertionError("GradedAlgebra: stage failed on purpose")

    monkeypatch.setattr(cli_module, "algebra_battery", broken)
    code, out, err = run(capsys, "algebra-check", "--l", "3")
    assert code == 3 and out == ""
    assert err == "internal error: GradedAlgebra: stage failed on purpose\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("degree, unknown, message", [
    (1, (2, 1, 3), "inconsistent linear system"),
    (2, ("F", (1, 2)), "linear system does not determine unknowns [97]")])
def test_normalization_system_failure_exit_3(capsys, flip_unit_sign, degree,
                                             unknown, message):
    """A flipped unit sign breaks a normalization system: the solve's
    ValueError is reported as one internal-error line naming the degree."""
    flip_unit_sign(4, degree, unknown, 0)
    code, out, err = run(capsys, "analyze", data_path("obstructed_l4.frame"))
    assert code == 3 and out == ""
    assert err == (f"internal error: degree-{degree} normalization system: "
                   f"{message}\n")


def test_bianchi_check_failure_exit_3(capsys, monkeypatch):
    """One P entry of obstructed_l4 negated after the degree-1 solve leaves
    P not closed: analyze's Bianchi check reports one internal-error line.
    (When P = 0 the flat check replaces it; see the next test.)"""
    solve = normalization_module.solve_degree1

    def negated(f):
        A, C, P = solve(f)
        key = ((3, 4), 1, (2, 3))
        return A, C, {**P, key: -P[key]}

    monkeypatch.setattr(normalization_module, "solve_degree1", negated)
    code, out, err = run(capsys, "analyze", data_path("obstructed_l4.frame"))
    assert code == 3 and out == ""
    assert err == ("internal error: Bianchi check: the differential of the "
                   "lowest nonzero curvature component is not zero\n")


# the flat model with X1 += x2*X3: nonzero structure functions, P = 0
GAUGE_CHANGED_FLAT_L4 = """l: 4
X1: Dx1 - x2*Dy[1,2] - x3*Dy[1,3] - x4*Dy[1,4] + x2*Dx3 - x2*x4*Dy[3,4]
X2: Dx2 - x3*Dy[2,3] - x4*Dy[2,4]
X3: Dx3 - x4*Dy[3,4]
X4: Dx4
"""


def test_flat_check_failure_exit_3(capsys, monkeypatch, tmp_path):
    """An S entry injected after the degree-2 solve of a gauge-changed flat
    frame breaks P = 0 => R = S = T = 0: one internal-error line names the
    flat check."""
    path = tmp_path / "gauge_flat_l4.frame"
    path.write_text(GAUGE_CHANGED_FLAT_L4, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(path))
    data = json.loads(out)
    assert code == 0 and data["flat"] and data["structure_functions"]
    assert not (data["R"] or data["S"] or data["T"])
    solve = normalization_module.solve_degree2

    def injected(*args):
        E, F, R, S, T = solve(*args)
        one = Polynomial.const(args[0].chart, 1)
        return E, F, R, {**S, (1, 2, (3, 4)): one}, T

    monkeypatch.setattr(normalization_module, "solve_degree2", injected)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and out == ""
    assert err == ("internal error: flat check: P is zero but R, S or T is "
                   "not\n")


def test_spinor_command(capsys):
    code, out, _ = run(capsys, "spinor", "--l", "3", "--vector",
                       '{"v": {"1": "1", "[2,3]": "1"}}')
    assert code == 0
    data = json.loads(out)
    assert data["l"] == 3
    assert data["pfaffian"] == "1/2*sqrt2"
    assert data["null_cone_member"] is False
    assert len(data["skew_matrix"]) == 4
    assert data["skew_matrix"][0][1] == "1/2*sqrt2"


def test_spinor_numeric_values(capsys):
    code, out, _ = run(capsys, "spinor", "--l", "3", "--vector",
                       '{"v": {"[1,2]": 2}}')
    assert code == 0
    data = json.loads(out)
    assert data["pfaffian"] == "0"
    assert data["null_cone_member"] is True


@pytest.mark.parametrize("l, vector, code", [
    (3, {"1": "1", "[2,3]": "1"}, 0), (3, {"[1,2]": 2}, 0),
    (5, {"1": 1, "[2,3]": 1, "[4,5]": 1}, 0), (5, {"[1,2]": 1}, 0),
    (4, {"1": "1"}, 2)])
def test_spinor_expands_the_pfaffian_once(capsys, monkeypatch, l, vector,
                                          code):
    """One Pfaffian expansion per command: the null-cone verdict is read
    off the printed Pfaffian, not expanded again."""
    calls = []

    def counted(m):
        calls.append(m.size)
        return pfaffian(m)

    pfaffian = spinorial_module.pfaffian
    monkeypatch.setattr(cli_module, "pfaffian", counted)
    monkeypatch.setattr(spinorial_module, "pfaffian", counted)
    got, out, _ = run(capsys, "spinor", "--l", str(l), "--vector",
                      json.dumps({"v": vector}))
    assert got == code and calls == [l + 1]
    if code == 0:
        data = json.loads(out)
        assert data["null_cone_member"] is (data["pfaffian"] == "0")


def test_spinor_bad_json_exit_1(capsys):
    code, _, err = run(capsys, "spinor", "--l", "3", "--vector", "{nope")
    assert code == 1
    assert re.match(r"^vector:\d+:\d+: ", err)


def test_spinor_deeply_nested_json_exit_1(capsys):
    code, out, err = run(capsys, "spinor", "--l", "3", "--vector",
                         "[" * 100000)
    assert code == 1 and out == ""
    assert err.startswith("vector:1:1: invalid JSON vector: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_spinor_json_integer_past_int_limit_exit_1(capsys):
    code, out, err = run(capsys, "spinor", "--l", "3", "--vector",
                         '{"v": {"1": ' + "9" * 5000 + "}}")
    assert code == 1 and out == ""
    assert err.startswith("vector:1:1: invalid JSON vector: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_spinor_wrong_shape_exit_1(capsys):
    code, _, err = run(capsys, "spinor", "--l", "3", "--vector",
                       '{"w": {}}')
    assert code == 1
    assert '{"v": {...}}' in err


@pytest.mark.parametrize("key", ["9", "0", "x", "[2,1]", "[1,6]", "[1,x]",
                                 "[1,2,3]", "[1,2"])
def test_spinor_bad_key_exit_1(capsys, key):
    code, out, err = run(capsys, "spinor", "--l", "5", "--vector",
                         json.dumps({"v": {key: "1"}}))
    assert code == 1
    assert out == ""
    assert err.startswith(f"vector:1:1: invalid key {key!r} for l=5")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key", ["+1", "1_0", "[1,1_0]", "[+1,2]",
                                 "[1,2,3]", "[1]", "[a,b]",
                                 pytest.param("1" * 1001, id="1001-digits")])
def test_spinor_malformed_key_exit_1(capsys, key):
    """An index is decimal digits only: int() would also read a sign or
    an underscore ('1_0' as 10, a valid index at l = 13)."""
    code, out, err = run(capsys, "spinor", "--l", "13", "--vector",
                         json.dumps({"v": {key: "1"}}))
    assert code == 1 and out == ""
    assert err == (f"vector:1:1: invalid key {key!r} for l=13: expected an "
                   "index i or a pair [j,k]\n")


def test_spinor_non_integer_value_exit_1(capsys):
    code, _, err = run(capsys, "spinor", "--l", "5", "--vector",
                       '{"v": {"1": 1.5}}')
    assert code == 1
    assert err.startswith("vector:1:1: ")


@pytest.mark.parametrize("literal", ["true", "false"])
def test_spinor_boolean_value_exit_1(capsys, literal):
    """A JSON boolean is not read as the integer 1 or 0."""
    code, out, err = run(capsys, "spinor", "--l", "3", "--vector",
                         '{"v": {"1": ' + literal + "}}")
    assert code == 1 and out == ""
    assert err == ("vector:1:1: value of '1' must be an integer or a string "
                   "expression\n")


@pytest.mark.parametrize("vector, message", [
    ('{"v": {"1": "1", " 1": "2"}}',
     "duplicate key ' 1': an earlier entry names the same tangent key"),
    ('{"v": {"[1,2]": "1", "[ 1,2]": "2"}}',
     "duplicate key '[ 1,2]': an earlier entry names the same tangent key"),
    ('{"v": {"[2,3]": "1", "[2,3]": "2"}}', "duplicate key '[2,3]'"),
    ('{"v": {}, "v": {"1": "1"}}', "duplicate key 'v'")],
    ids=["spaced-single", "spaced-pair", "literal-repeat", "outer-repeat"])
def test_spinor_duplicate_key_exit_1(capsys, vector, message):
    """Two entries naming one tangent key, spelt apart or repeated
    literally, are refused instead of keeping the last one."""
    code, out, err = run(capsys, "spinor", "--l", "3", "--vector", vector)
    assert code == 1 and out == ""
    assert err == f"vector:1:1: {message}\n"


def test_spinor_even_rank_exit_2(capsys):
    code, _, err = run(capsys, "spinor", "--l", "4", "--vector",
                       '{"v": {"1": "1"}}')
    assert code == 2
    assert "error: " in err


@pytest.mark.parametrize("l", [SPINOR_MIN_L - 2, SPINOR_MAX_L + 2])
def test_spinor_rank_guard(capsys, monkeypatch, l):
    def no_pfaffian(m):
        raise AssertionError("spinor ran past the rank guard")

    monkeypatch.setattr(cli_module, "pfaffian", no_pfaffian)
    code, out, err = run(capsys, "spinor", "--l", str(l), "--vector",
                         '{"v": {}}')
    assert code == 2 and out == ""
    assert err == (f"error: spinor supports {SPINOR_MIN_L} <= l <= "
                   f"{SPINOR_MAX_L} (resource guard); got l={l}\n")


def test_inclusions(capsys):
    code, out, _ = run(capsys, "inclusions")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert rows[1]["model"] == "Q5"


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
