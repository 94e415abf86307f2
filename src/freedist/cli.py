"""Command-line interface: analysis, self-checks, harmonic dimensions,
Pfaffian cone queries, and the inclusions table.

Exit codes: 0 success (and all checks passing), 1 for input syntax errors
(with file, line, and column), 2 for frames or parameters outside the
supported domain (degenerate or non-free frames, resource-guard refusals),
3 for a failed internal invariant (an ``AssertionError`` raised by the
library, reported as one ``internal error: <message>`` line).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from .algebra import algebra_battery
from .cohomology import harmonic_space
from .errors import FreeDistError, ParseError, UnsupportedError
from .normalization import analyze, report_to_json
from .parsing import MAX_DIGITS, parse_frame_file, parse_scalar
from .scalars import ExactScalar
from .spinorial import (SpinorIdentification, TangentKey, list_inclusions,
                        pfaffian, tangent_to_skew)

# Resource guards (configuration, not mathematical limits): the graded
# battery, harmonic scans and frame analysis grow quickly with rank, so the
# CLI refuses ranks whose exact runs would be disproportionate.  The frame
# parser refuses ranks above parsing.MAX_L for ``analyze``.
ALGEBRA_CHECK_MIN_L = 3
ALGEBRA_CHECK_MAX_L = 6
COHOMOLOGY_MIN_L = 3
COHOMOLOGY_MAX_L = 5
COHOMOLOGY_MAX_H_VALUES = 64   # homogeneities in one --h range
SPINOR_MIN_L = 1
SPINOR_MAX_L = 13   # a dense Pfaffian: ~3.5x per step of 2, ~3 ms at 13


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freedist",
        description="Exact invariants of generic rank-l free distributions")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print progress to stderr")
    # The flag is also accepted after the subcommand; SUPPRESS keeps an
    # absent subcommand flag from resetting one given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true",
                        default=argparse.SUPPRESS,
                        help="print progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="full curvature analysis of a frame file")
    p.add_argument("path", help="frame file (l: header, then X1..Xl lines)")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("algebra-check", parents=[common],
                       help="run the graded-algebra invariant battery")
    p.add_argument("--l", type=int, required=True)

    p = sub.add_parser("cohomology", parents=[common],
                       help="harmonic cochain dimensions over a range")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, choices=(1, 2), required=True)
    p.add_argument("--h", required=True, metavar="A..B",
                   help="inclusive homogeneity range, e.g. 0..3")

    p = sub.add_parser("spinor", parents=[common],
                       help="skew matrix, Pfaffian, and cone membership")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--vector", required=True,
                   help='JSON {"v": {"1": "...", "[2,3]": "..."}}')

    sub.add_parser("inclusions", parents=[common],
                   help="print the inclusions table")
    return parser


def _parse_h_range(text: str) -> List[int]:
    if ".." in text:
        a_text, b_text = text.split("..", 1)
    else:
        a_text = b_text = text
    bounds = [t.strip().removeprefix("-") for t in (a_text, b_text)]
    try:   # int() would also read '+1', '1_0' and non-ASCII digits
        if not all(t.isascii() and t.isdigit() for t in bounds):
            raise ValueError(text)
        a, b = int(a_text), int(b_text)
    except ValueError:
        raise UnsupportedError(f"invalid homogeneity range {text!r}; "
                               "expected A..B with integers")
    if b < a:
        raise UnsupportedError(f"empty homogeneity range {text!r}")
    if b - a >= COHOMOLOGY_MAX_H_VALUES:
        raise UnsupportedError(
            f"homogeneity range {text!r} has {b - a + 1} values; at most "
            f"{COHOMOLOGY_MAX_H_VALUES} are supported (resource guard)")
    return list(range(a, b + 1))


def _unique_keys(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    """A JSON object as a dict, refusing a key that repeats literally (a
    plain dict would keep the last value silently)."""
    out: Dict[str, object] = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"duplicate key {key!r}", 1, 1)
        out[key] = value
    return out


def _tangent_key(text: str) -> Optional[TangentKey]:
    """The key spelt ``i`` or ``[j,k]``, each index a run of decimal digits
    (at most MAX_DIGITS) after strip(); None for any other spelling."""
    text = text.strip()
    pair = text[:1] == "[" and text[-1:] == "]"
    parts = [t.strip() for t in text[1:-1].split(",")] if pair else [text]
    if len(parts) != 1 + pair or not all(
            t.isdecimal() and len(t) <= MAX_DIGITS for t in parts):
        return None
    indices = [int(t) for t in parts]
    return (indices[0], indices[1]) if pair else indices[0]


def _parse_vector_json(text: str, l: int) -> Dict[TangentKey, ExactScalar]:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON vector: {exc.msg}", exc.lineno,
                         exc.colno)
    except ValueError:  # an integer longer than int() accepts
        raise ParseError("invalid JSON vector: integer with too many digits",
                         1, 1)
    except RecursionError:
        raise ParseError("invalid JSON vector: nested too deeply", 1, 1)
    if not isinstance(data, dict) or "v" not in data \
            or not isinstance(data["v"], dict):
        raise ParseError('vector JSON must be {"v": {...}}', 1, 1)
    ident = SpinorIdentification(l)
    out: Dict[TangentKey, ExactScalar] = {}
    for key_text, raw in data["v"].items():
        key = _tangent_key(key_text)
        try:
            if key is None:
                raise ValueError("expected an index i or a pair [j,k]")
            ident.basis_image(key)
        except ValueError as exc:
            raise ParseError(f"invalid key {key_text!r} for l={l}: {exc}",
                             1, 1)
        if key in out:
            raise ParseError(f"duplicate key {key_text!r}: an earlier entry "
                             "names the same tangent key", 1, 1)
        if isinstance(raw, str):
            value = parse_scalar(raw)
        elif type(raw) is int:   # JSON true and false are bools, not ints
            value = ExactScalar.of(raw)
        else:
            raise ParseError(f"value of {key_text!r} must be an integer or "
                             "a string expression", 1, 1)
        out[key] = value
    return out


def _report_text(data: Dict[str, object]) -> str:
    lines = [f"l = {data['l']}",
             f"nondegenerate = {data['nondegenerate']}",
             f"flat = {data['flat']}",
             f"kappa11_deg2_zero = {data['kappa11_deg2_zero']}",
             f"extension_verdict = {data['extension_verdict']}"]
    for name in ("structure_functions", "A", "C", "E", "F", "P", "R", "S",
                 "T"):
        table = data[name]
        lines.append(f"{name}: {len(table)} nonzero")
        for key, expr in table.items():
            lines.append(f"  {key} = {expr}")
    return "\n".join(lines)


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        print(f"{args.path}: not valid UTF-8 ({exc.reason} at byte "
              f"{exc.start})", file=sys.stderr)
        return 1
    try:
        _, fields = parse_frame_file(text)
    except ParseError as exc:
        print(f"{args.path}:{exc.line}:{exc.col}: {exc.message}",
              file=sys.stderr)
        return 1
    if args.verbose:
        print("frame parsed; running analysis", file=sys.stderr)
    report = analyze(fields)
    data = report_to_json(report)
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        print(_report_text(data))
    return 0


def _cmd_algebra_check(args: argparse.Namespace) -> int:
    l = args.l
    if not ALGEBRA_CHECK_MIN_L <= l <= ALGEBRA_CHECK_MAX_L:
        raise UnsupportedError(
            f"algebra-check supports {ALGEBRA_CHECK_MIN_L} <= l <= "
            f"{ALGEBRA_CHECK_MAX_L} (resource guard); got l={l}")
    results = algebra_battery(l)
    ok = True
    for name, passed in results:
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return 0 if ok else 2


def _cmd_cohomology(args: argparse.Namespace) -> int:
    l = args.l
    if not COHOMOLOGY_MIN_L <= l <= COHOMOLOGY_MAX_L:
        raise UnsupportedError(
            f"cohomology supports {COHOMOLOGY_MIN_L} <= l <= "
            f"{COHOMOLOGY_MAX_L} (resource guard); got l={l}")
    hs = _parse_h_range(args.h)
    dims = {}
    for h in hs:
        if args.verbose:
            print(f"computing homogeneity {h}", file=sys.stderr)
        dims[str(h)] = harmonic_space(l, args.k, h).dimension
    print(json.dumps({"l": l, "k": args.k, "dimensions": dims}, indent=2))
    return 0


def _cmd_spinor(args: argparse.Namespace) -> int:
    if not SPINOR_MIN_L <= args.l <= SPINOR_MAX_L:
        raise UnsupportedError(
            f"spinor supports {SPINOR_MIN_L} <= l <= {SPINOR_MAX_L} "
            f"(resource guard); got l={args.l}")
    try:
        v = _parse_vector_json(args.vector, args.l)
    except ParseError as exc:
        print(f"vector:{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        return 1
    m = tangent_to_skew(v, args.l)
    pf = pfaffian(m)
    data = {
        "l": args.l,
        "skew_matrix": [[e.to_expr() for e in row] for row in m.entries],
        "pfaffian": pf.to_expr(),
        "null_cone_member": pf.is_zero(),
    }
    print(json.dumps(data, indent=2))
    return 0


def _cmd_inclusions(_args: argparse.Namespace) -> int:
    print(json.dumps(list_inclusions(), indent=2))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "algebra-check": _cmd_algebra_check,
    "cohomology": _cmd_cohomology,
    "spinor": _cmd_spinor,
    "inclusions": _cmd_inclusions,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        return 1
    except FreeDistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc.strerror or exc}: {exc.filename or ''}",
              file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
