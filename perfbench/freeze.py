"""Regenerate the frozen reference data in perfbench/reference/.

For each algebra of the eval parts this builds the unit ball with
the library's default BuildParams, serializes it, draws a fixed pool of
point pairs and records their distances.  The eval parts load these
balls instead of building them, and check the timed output against the
recorded distances.  Run from the repository root:

    python3 perfbench/freeze.py

Re-freezing is a deliberate act: it replaces the values the benchmark
checks against, so do it only when the library's answer is meant to
change, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from nilmetric import AlgebraView, HomogeneousDistance, ball_to_json, build_ball  # noqa: E402

import inputs  # noqa: E402

POOL = 256
POOL_SEED = 1901_02559

EVAL_ALGEBRAS = ("heisenberg", "engel", "free23", "filiform-7")


def freeze(name: str) -> dict:
    make, _ = inputs.ALGEBRAS[name]
    g, A = make()
    ball = build_ball(g, A)
    d = HomogeneousDistance(AlgebraView.of(g), A, ball)
    rng = np.random.default_rng([POOL_SEED, EVAL_ALGEBRAS.index(name)])
    P, Q = inputs.pair_batch(rng, g.dim, POOL)
    return {
        "algebra": name,
        "A": A.tolist(),
        "ball": ball_to_json(ball),
        "P": P.tolist(),
        "Q": Q.tolist(),
        "d": d.pair(P, Q).tolist(),
    }


def main() -> int:
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    for name in EVAL_ALGEBRAS:
        with open(out / f"{name}.json", "w") as fh:
            json.dump(freeze(name), fh)
            fh.write("\n")
        print(f"froze {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
