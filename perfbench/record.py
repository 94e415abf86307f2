"""Record the expected outputs the benchmark compares against, from the
source tree it runs in:

    python3 perfbench/record.py

Writes perfbench/expected/: the stdout and exit code of
``freedist analyze <file>`` for every frame in perfbench/frames/, the digest
of the random-frames outcomes at the default seed, and the algebra battery
names with the rank-5 harmonic dimensions.  Rerun it only when the expected
outputs are meant to change.
"""

import json
import os
import sys

import run


def main():
    if os.environ.get("PYTHONHASHSEED") != "0" \
            or os.environ.get("PYTHONPATH") != str(run.SRC):
        os.execve(run.PY, [run.PY, os.path.abspath(__file__)], run.ENV)
    import stages
    from freedist.algebra import ALGEBRA_CHECKS
    from freedist.cohomology import harmonic_space

    cli = {}
    for path in sorted(run.FRAMES.glob("*.frame")):
        _, proc = run.child([run.PY, "-m", "freedist.cli", "analyze",
                             str(path)])
        cli[path.stem] = {"exit": proc.returncode,
                          "stdout": proc.stdout.decode()}

    stages.setup_random_frames()
    results = run.frames_pass(run.Run(0),
                              stages.pass_candidates(run.DEFAULT_SEED, 0),
                              stages.analyze_text)
    frames = {"seed": run.DEFAULT_SEED,
              "candidates": len(results),
              "accepted": sum(error is None for _, error, _, _ in results),
              "digest": run.frame_outcomes(results)}
    algebra = {"checks": [name for name, _ in ALGEBRA_CHECKS],
               "harmonic_l5_k2": {str(h): harmonic_space(5, 2, h).dimension
                                  for h in (1, 2, 3)}}
    for name, data in (("cli-goldens", cli), ("random-frames", frames),
                       ("algebra-cohomology", algebra)):
        (run.EXPECTED / f"{name}.json").write_text(
            json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
