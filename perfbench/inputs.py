"""Inputs of the benchmark, all generated here from the workload seed.

The library only ever receives what these functions return.  Every input
records why it was chosen, so a reader can tell which layer it is meant
to load.

Algebras
--------
* heisenberg / standard (catalog): step 2, one capped weight-2 layer.
  The cheapest group law; the gauge dominates `pair`.
* engel / weights-1123 (catalog): step 3, recursion depth 2.
* free23: the free nilpotent algebra of rank 2 and step 3 with weights
  1, 1, 2, 3, 3 (the same algebra as `tests/test_metric.py`).  Step 3
  with a two-dimensional top layer, so the cap is not one-dimensional.
* filiform-n: [e1, ei] = e(i+1), A = diag(1, 1, 2, ..., n-1).  At n = 7
  the step is 6, the largest the BCH table supports, and the group law
  (40 Dynkin words) dominates `pair`.
"""

from __future__ import annotations

import numpy as np

from nilmetric import catalog_entry
from nilmetric.algebra import LieAlgebra

# sizes of one round; fixed so that rounds repeat exactly
BATCH_ROWS = 20_000  # rows per batched `pair` call
SINGLE_PAIRS = 30  # single-pair d(p, q) calls per algebra and round
REFERENCE_ROWS = 64  # frozen-reference rows mixed into every batch
SYMMETRY_ROWS = 512  # batch rows re-evaluated as d(q, p)
CLI_PAIRS = 20_000  # pairs in the CLI `eval` file
SWEEP_DIRECTIONS = 64  # rows per decade of the scale sweep
SWEEP_EXPONENTS = tuple(range(-150, 151, 10))  # s = 10^e, one call each
# The known defect of the gauge (ROADMAP item 2), as (low, high) for
# checks.scale_sweep.  Its bracket search stops halving at 1e-90, so a
# call whose smallest value is below about 2e-90 may come back wrong;
# it raises OverflowError once the bracket passes 1e90, so a call whose
# largest value is above about 5e89 may raise.  Each threshold has a
# factor 2 of margin.  Every other wrong or failed row is gated.
SWEEP_KNOWN_DEFECT = (4e-90, 2.5e89)


def free23() -> tuple[LieAlgebra, np.ndarray]:
    """Free nilpotent Lie algebra of rank 2 and step 3 with its standard
    derivation: [e1, e2] = e3, [e1, e3] = e4, [e2, e3] = e5."""
    g = LieAlgebra(
        5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}, name="free23"
    )
    return g, np.diag([1.0, 1.0, 2.0, 3.0, 3.0])


def filiform(n: int) -> tuple[LieAlgebra, np.ndarray]:
    """Model filiform algebra of dimension n (step n - 1):
    [e1, ei] = e(i+1) for 2 <= i < n, with A = diag(1, 1, 2, ..., n-1)."""
    if n < 3:
        raise ValueError("filiform algebras start at dimension 3")
    g = LieAlgebra(
        n, {(0, i): {i + 1: 1} for i in range(1, n - 1)}, name=f"filiform-{n}"
    )
    return g, np.diag([1.0] + [float(i) for i in range(1, n)])


def catalog_case(name: str, derivation: str) -> tuple[LieAlgebra, np.ndarray]:
    entry = catalog_entry(name)
    return entry.algebra, np.asarray(entry.derivations[derivation], dtype=float)


# name -> (constructor, Hausdorff dimension the classifier must report)
ALGEBRAS = {
    "heisenberg": (lambda: catalog_case("heisenberg", "standard"), 4.0),
    "engel": (lambda: catalog_case("engel", "weights-1123"), 7.0),
    "free23": (free23, 10.0),
    "filiform-7": (lambda: filiform(7), 22.0),
}


def pair_batch(rng: np.random.Generator, dim: int, rows: int) -> tuple:
    """Random point pairs, standard normal coordinates: unit-scale points
    whose distances spread over about two decades."""
    return rng.normal(size=(rows, dim)), rng.normal(size=(rows, dim))


def mixed_batch(rng: np.random.Generator, dim: int, reference: dict) -> dict:
    """One timed batch: BATCH_ROWS pairs, of which REFERENCE_ROWS are drawn
    from the frozen reference pool (so the timed output itself is checked
    against frozen values) and the rest are fresh random pairs."""
    P, Q = pair_batch(rng, dim, BATCH_ROWS)
    pool_P = np.asarray(reference["P"], dtype=float)
    pool_Q = np.asarray(reference["Q"], dtype=float)
    pick = rng.choice(pool_P.shape[0], size=REFERENCE_ROWS, replace=False)
    where = rng.choice(BATCH_ROWS, size=REFERENCE_ROWS, replace=False)
    P[where], Q[where] = pool_P[pick], pool_Q[pick]
    expected = np.asarray(reference["d"], dtype=float)[pick]
    return {
        "P": P,
        "Q": Q,
        "ref_rows": where,
        "ref_values": expected,
        "single_rows": rng.choice(BATCH_ROWS, size=SINGLE_PAIRS, replace=False),
        "symmetry_rows": rng.choice(BATCH_ROWS, size=SYMMETRY_ROWS, replace=False),
    }


def sweep_directions(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Directions u for the scale sweep N(s^A u) = s N(u)."""
    return rng.normal(size=(SWEEP_DIRECTIONS, dim))
