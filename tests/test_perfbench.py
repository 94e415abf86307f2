"""Smoke test of the benchmark's layer probe: it calls the package's public
scalar and polynomial API (``ExactScalar(Fraction, Fraction)``, ``.b``,
``Polynomial.terms``), so a library change that breaks those uses shows up
here rather than only in a traced benchmark run."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_layer_probe_runs_without_failed_checks(tmp_path):
    out = tmp_path / "probe.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "stages.py"), "probe", "1",
         str(out)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    counters = record["counters"]
    assert counters["probe.failed"] == 0
    # ``.b`` tells the sqrt2-bearing coefficients from the rational ones
    assert 0 < counters["sqrt2.with_sqrt2"] < counters["sqrt2.coeffs"]
    assert record["spans"]
