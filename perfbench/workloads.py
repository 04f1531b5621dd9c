"""The two workloads and the four parts they are made of.

Each workload has the same life cycle, driven by run.py:

* `setup(seed)`: the library work done before the first timed call
  (building algebras, loading or building balls and distances).  This
  is what `setup_s` times, in fresh processes.
* `prepare(seed, work_dir)`: generate the inputs from the seed.  Harness
  work, not timed.
* `round()`: one round of closed-loop calls (one caller; each call
  starts after the previous one returns).  Every round does the same
  calls on the same inputs, so rounds can be compared and counted.
* `check(seed)`: correctness checks on the last round's outputs, outside
  the timed region.
* `report()`: the named end-to-end figures of this workload.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from nilmetric import (
    AlgebraView,
    BuildRejected,
    HomogeneousDistance,
    NumericFailure,
    abelian,
    ball_from_json,
    ball_to_json,
    box_ball,
    build_distance,
    classify_derivation,
    lambda_pow,
)
from nilmetric import decompose, metric
from nilmetric.group import GroupOps

import checks
import inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# exceptions by which the library reports a failed call; anything else
# is a fault of the benchmark and stops the run
LIBRARY_FAILURES = (ArithmeticError, NumericFailure, BuildRejected)


def timing_summary(samples, scale: float = 1.0) -> dict:
    """Median and the highest percentile with at least ten samples
    beyond it, with the sample count (values multiplied by scale)."""
    x = np.asarray(samples, dtype=float) * scale
    out = {"n": int(x.size), "p50": float(np.median(x)) if x.size else None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if x.size * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = float(np.percentile(x, p))
            break
    return out


class EvalWorkload:
    """Distances from serialized balls: batched `pair`, single-pair
    `d(p, q)`, and optionally the CLI `eval` and the scale sweep."""

    def __init__(self, name: str, algebras: tuple, *, cli: bool, sweep: bool):
        self.name = name
        self.names = algebras
        self.with_cli = cli
        self.with_sweep = sweep

    def setup(self, seed: int) -> None:
        self.cases = []
        for name in self.names:
            g, A = inputs.ALGEBRAS[name][0]()
            with open(HERE / "reference" / f"{name}.json") as fh:
                ref = json.load(fh)
            ball = ball_from_json(ref["ball"])
            d = HomogeneousDistance(AlgebraView.of(g), A, ball)
            self.cases.append({"name": name, "g": g, "A": A, "d": d, "ref": ref})

    def prepare(self, seed: int, work_dir: Path) -> None:
        for k, case in enumerate(self.cases):
            rng = np.random.default_rng([seed, k])
            case["batch"] = inputs.mixed_batch(rng, case["g"].dim, case["ref"])
            case["batch_s"], case["single_s"] = [], []
            case["output"], case["rounds_identical"] = None, True
        self.cli_s = []
        self.attempted = self.failed = 0
        if self.with_cli:
            heis = self._case("heisenberg")
            rng = np.random.default_rng([seed, len(self.cases)])
            P, Q = inputs.pair_batch(rng, 3, inputs.CLI_PAIRS)
            self.cli_pairs = (P, Q)
            ball_file, pairs_file = work_dir / "ball.json", work_dir / "pairs.json"
            self.cli_out = work_dir / "out.csv"
            with open(ball_file, "w") as fh:
                json.dump({"ball": heis["ref"]["ball"]}, fh)
            with open(pairs_file, "w") as fh:
                json.dump([[p, q] for p, q in zip(P.tolist(), Q.tolist())], fh)
            self.cli_cmd = [
                sys.executable, "-m", "nilmetric.cli", "eval",
                "--catalog", "heisenberg", "--derivation", "standard",
                "--ball-file", str(ball_file), "--pairs", str(pairs_file),
                "--out", str(self.cli_out),
            ]
            self.cli_env = dict(os.environ, PYTHONPATH=str(SRC))
            self.cli_codes = []
        if self.with_sweep:
            self.sweep_U = inputs.sweep_directions(np.random.default_rng([seed, 99]), 3)

    def _case(self, name: str) -> dict:
        return next(c for c in self.cases if c["name"] == name)

    def round(self) -> None:
        for case in self.cases:
            d, b = case["d"], case["batch"]
            P, Q = b["P"], b["Q"]
            self.attempted += P.shape[0]
            t = time.perf_counter()
            try:
                out = d.pair(P, Q)
            except LIBRARY_FAILURES:
                out = None
                self.failed += P.shape[0]
            case["batch_s"].append(time.perf_counter() - t)
            # keep only the last output, so memory does not grow with rounds
            prev = case["output"]
            if prev is not None and not np.array_equal(out, prev):
                case["rounds_identical"] = False
            case["output"] = out
            singles = []
            for i in b["single_rows"]:
                self.attempted += 1
                t = time.perf_counter()
                try:
                    v = d(P[i], Q[i])
                except LIBRARY_FAILURES:
                    v = math.nan
                    self.failed += 1
                case["single_s"].append(time.perf_counter() - t)
                singles.append(v)
            case["singles"] = singles
        if self.with_cli:
            self.attempted += inputs.CLI_PAIRS
            t = time.perf_counter()
            code = subprocess.run(self.cli_cmd, env=self.cli_env, stdout=subprocess.DEVNULL).returncode
            self.cli_s.append(time.perf_counter() - t)
            self.cli_codes.append(code)
            if code != 0:
                self.failed += inputs.CLI_PAIRS

    def check(self, seed: int) -> list:
        out = []
        for case in self.cases:
            d, b, name = case["d"], case["batch"], case["name"]
            got = case["output"]
            if got is None:
                out.append(checks.Check(f"{name}.pair", False, {"raised": True}))
                continue
            out.append(checks.Check(f"{name}.rounds_identical", case["rounds_identical"]))
            out.append(checks.close(f"{name}.reference", got[b["ref_rows"]], b["ref_values"], checks.REFERENCE_RTOL))
            out.append(checks.close(f"{name}.single_vs_batch", case["singles"], got[b["single_rows"]], checks.SINGLE_RTOL))
            rows = b["symmetry_rows"]
            out.append(checks.close(f"{name}.symmetry", d.pair(b["Q"][rows], b["P"][rows]), got[rows], checks.SYMMETRY_RTOL))
        if self.with_cli:
            out.append(self._check_cli())
        if self.with_sweep:
            d = self._case("heisenberg")["d"]
            with np.errstate(all="ignore"):
                self.sweep = checks.scale_sweep(
                    d.point, self.sweep_U, np.diag(d.A), inputs.SWEEP_EXPONENTS,
                    inputs.SWEEP_KNOWN_DEFECT, LIBRARY_FAILURES,
                )
            out.append(checks.Check(
                "heisenberg.scale_sweep", self.sweep.unexpected_bad == 0,
                {"known_defect": inputs.SWEEP_KNOWN_DEFECT, "unexpected_bad_rows": self.sweep.unexpected_bad},
            ))
        return out

    def _check_cli(self) -> checks.Check:
        if any(self.cli_codes):
            return checks.Check("cli.eval", False, {"exit_codes": sorted(set(self.cli_codes))})
        with open(self.cli_out) as fh:
            lines = fh.read().split()
        got = np.array([float(line.split(",")[1]) for line in lines[1:]])
        P, Q = self.cli_pairs
        want = self._case("heisenberg")["d"].pair(P, Q)
        if got.shape != want.shape:
            return checks.Check("cli.eval", False, {"rows": int(got.size), "expected_rows": int(want.size)})
        return checks.close("cli.eval", got, want, checks.CLI_RTOL)

    def report(self) -> dict:
        rep = {"batch_rows": inputs.BATCH_ROWS, "pair_rows_per_s": {}, "pair_batch_ms": {}, "pair1_ms": {}}
        single_all = []
        for case in self.cases:
            bs = np.asarray(case["batch_s"])
            rep["pair_rows_per_s"][case["name"]] = {
                "value": inputs.BATCH_ROWS / float(np.median(bs)), "unit": "1/s", "n": int(bs.size),
            }
            rep["pair_batch_ms"][case["name"]] = dict(timing_summary(bs, 1e3), unit="ms")
            rep["pair1_ms"][case["name"]] = dict(timing_summary(case["single_s"], 1e3), unit="ms")
            single_all += case["single_s"]
        rep["pair1_ms"]["all"] = dict(timing_summary(single_all, 1e3), unit="ms")
        if self.with_cli:
            rep["cli_eval_s"] = dict(timing_summary(self.cli_s), unit="s", pairs=inputs.CLI_PAIRS)
        return rep


def _diag_power(weights: np.ndarray, lam: np.ndarray, X: np.ndarray) -> np.ndarray:
    """lam^A x for diagonal A (weights = its diagonal), row by row."""
    return X * lam[:, None] ** weights[None, :]


def _axis_extent(ball, dim: int) -> np.ndarray:
    """sup{r : r e_i in B} per axis, by doubling then bisection."""
    radii = np.empty(dim)
    for i in range(dim):
        e = np.zeros((1, dim))
        e[0, i] = 1.0
        hi = 1.0
        for _ in range(200):
            if not ball.contains(hi * e)[0]:
                break
            hi *= 2.0
        else:
            raise RuntimeError(f"ball is unbounded along axis {i}")
        lo = 0.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if ball.contains(mid * e)[0] else (lo, mid)
        radii[i] = hi
    return radii


def convexity_spot_check(ball, g, A, rng, samples: int, margin: float = 1e-9) -> checks.Check:
    """(lam^A x) * ((1 - lam)^A y) stays in B for sampled x, y in B and
    lam in (0, 1); A must be diagonal.  Samples by rejection from a box
    half again as wide as the axis extents."""
    if np.count_nonzero(A - np.diag(np.diag(A))):
        raise ValueError("the spot check computes lam^A for diagonal A only")
    dim = g.dim
    radii = 1.5 * _axis_extent(ball, dim)
    inside = []
    for _ in range(1000):
        if sum(x.shape[0] for x in inside) >= 2 * samples:
            break
        X = rng.uniform(-1.0, 1.0, size=(8 * samples, dim)) * radii
        inside.append(X[ball.contains(X)])
    else:
        raise RuntimeError(f"rejection sampling of the {g.name} ball stalled")
    pts = np.vstack(inside)[: 2 * samples]
    X, Y = pts[:samples], pts[samples:]
    lam = rng.uniform(1e-6, 1 - 1e-6, size=samples)
    w = np.diag(A)
    Z = GroupOps.for_algebra(g).product(_diag_power(w, lam, X), _diag_power(w, 1 - lam, Y))
    bad = int(np.sum(~ball.contains(Z, slack=margin)))
    return checks.Check(f"{g.name}.convexity_spot", bad == 0, {"samples": samples, "violations": bad})


class BuildWorkload:
    """`build_ball` from algebra and derivation, with the library's
    default BuildParams, as a caller of build_ball(g, A) gets it."""

    name = "build"
    names = ("heisenberg", "engel", "free23", "filiform-7")
    spot_samples = 2000

    def setup(self, seed: int) -> None:
        self.cases = [(name, *inputs.ALGEBRAS[name][0]()) for name in self.names]

    def prepare(self, seed: int, work_dir: Path) -> None:
        self.build_s = {name: [] for name in self.names}
        self.balls = dict.fromkeys(self.names)
        self.rounds_identical = dict.fromkeys(self.names, True)
        self.attempted = self.failed = 0

    def round(self) -> None:
        for name, g, A in self.cases:
            self.attempted += 1
            t = time.perf_counter()
            try:
                ball = metric.build_ball(g, A)
            except LIBRARY_FAILURES:
                ball = None
                self.failed += 1
            self.build_s[name].append(time.perf_counter() - t)
            prev = self.balls[name]
            if prev is not None and (ball is None or ball_to_json(ball) != ball_to_json(prev)):
                self.rounds_identical[name] = False
            self.balls[name] = ball

    def check(self, seed: int) -> list:
        out = []
        rng = np.random.default_rng([seed, 7])
        for name, g, A in self.cases:
            ball = self.balls[name]
            if ball is None:
                out.append(checks.Check(f"{name}.build", False, {"raised": True}))
                continue
            verdict = classify_derivation(g, A)
            want_q = inputs.ALGEBRAS[name][1]
            out.append(checks.Check(
                f"{name}.verdict", verdict.answer and abs(verdict.hausdorff_dim - want_q) < 1e-9,
                {"answer": verdict.answer, "Q": verdict.hausdorff_dim, "expected_Q": want_q},
            ))
            obj = ball_to_json(ball)
            out.append(checks.Check(f"{name}.rounds_identical", self.rounds_identical[name]))
            again = ball_from_json(json.loads(json.dumps(obj)))
            X = rng.normal(size=(4000, g.dim))
            out.append(checks.Check(
                f"{name}.json_roundtrip",
                ball_to_json(again) == obj and np.array_equal(again.excess(X), ball.excess(X)),
            ))
            ex, ex_neg = ball.excess(X), ball.excess(-X)
            sym = float(np.max(np.abs(ex - ex_neg) / (1.0 + np.abs(ex))))
            out.append(checks.Check(f"{name}.symmetric", sym <= 1e-9, {"worst": sym}))
            U = rng.normal(size=(256, g.dim))
            U *= 1e-6 / np.linalg.norm(U, axis=1, keepdims=True)
            out.append(checks.Check(
                f"{name}.identity_interior",
                bool(ball.contains(np.zeros((1, g.dim)))[0] and ball.contains(U).all()),
            ))
            out.append(convexity_spot_check(ball, g, A, rng, self.spot_samples))
        return out

    def report(self) -> dict:
        per = {name: dict(timing_summary(s), unit="s") for name, s in self.build_s.items()}
        rounds = [sum(v) for v in zip(*self.build_s.values())]
        return {"build_s": dict(timing_summary(rounds), unit="s"), "build_ball_s": per}


SPIRAL = np.array([[2.0, -1.0], [1.0, 2.0]])


class RealifyWorkload:
    """The criterion-10 pipeline on the r2-box spiral (a PolyBall whose
    closure sample is a torus grid), and heisenberg `double` with a built
    distance (a LayeredBall whose closure is the trivial orbit)."""

    name = "realify"
    check_samples = 500
    bilipschitz_samples = 400

    def setup(self, seed: int) -> None:
        r2 = abelian(2)
        d_box = HomogeneousDistance(AlgebraView.of(r2), SPIRAL, box_ball(2))
        g, A = inputs.ALGEBRAS["heisenberg"][0]()
        d_h = build_distance(g, A)
        # (name, algebra, distance, dilation, factor, mu_grid)
        self.cases = [
            ("r2-box", r2, d_box, lambda_pow(SPIRAL, math.e), math.e, 32),
            ("heisenberg-double", g, d_h, np.diag([2.0, 2.0, 4.0]), 2.0, 48),
        ]

    def prepare(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.realify_s = {c[0]: [] for c in self.cases}
        self.results = {}
        self.attempted = self.failed = 0

    def round(self) -> None:
        for name, g, d, delta, lam, mu_grid in self.cases:
            self.attempted += 1
            t = time.perf_counter()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # the torus fallback warns
                    res = decompose.realify(
                        g, d, delta, lam, check_samples=self.check_samples,
                        mu_grid=mu_grid, seed=self.seed,
                    )
            except LIBRARY_FAILURES:
                res = None
                self.failed += 1
            self.realify_s[name].append(time.perf_counter() - t)
            self.results[name] = res

    def check(self, seed: int) -> list:
        out = []
        rng = np.random.default_rng([seed, 11])
        for name, g, d, delta, lam, mu_grid in self.cases:
            res = self.results[name]
            if res is None:
                out.append(checks.Check(f"{name}.realify", False, {"raised": True}))
                continue
            eig_min = float(np.linalg.eigvals(res.A).real.min())
            out.append(checks.Check(f"{name}.spectrum_ge_1", eig_min >= 1 - 1e-8, {"eig_min": eig_min}))
            out.append(checks.Check(
                f"{name}.dilation_residual",
                res.dilation_residual <= res.invariance_defect + 1e-9,
                {"residual": res.dilation_residual, "grid_error": res.invariance_defect},
            ))
            L1, L2 = res.bilipschitz
            X = rng.normal(size=(self.bilipschitz_samples, g.dim)) * 2.0
            Y = rng.normal(size=(self.bilipschitz_samples, g.dim)) * 2.0
            v1, v2 = d.pair_chunked(X, Y), res.distance.pair_chunked(X, Y)
            ok = bool(np.all(v2 <= L2 * v1 * (1 + 1e-9)) and np.all(v1 <= L1 * v2 * (1 + 1e-9)))
            out.append(checks.Check(
                f"{name}.bilipschitz", ok and res.bilipschitz_info["validated"], {"L1": L1, "L2": L2},
            ))
        return out

    def report(self) -> dict:
        rounds = [sum(v) for v in zip(*self.realify_s.values())]
        return {
            "realify_s": dict(timing_summary(rounds), unit="s"),
            "realify_case_s": {k: dict(timing_summary(v), unit="s") for k, v in self.realify_s.items()},
            "closure": {k: (r.closure_info if r is not None else None) for k, r in self.results.items()},
            "check_samples": self.check_samples,
        }


class Composite:
    """Parts run back to back as one round.

    The machine this benchmark was defined on changes speed by about a
    third over tens of seconds, so a run must be long to be steady, and
    the run budget allows two long workloads rather than four short ones.
    Each composite pairs parts that load the same layers."""

    trace_rounds = 1

    def __init__(self, name: str, parts: tuple):
        self.name = name
        self.parts = parts
        self.has_cli = any(getattr(p, "with_cli", False) for p in parts)
        self.sweep = None

    def setup(self, seed: int) -> None:
        for p in self.parts:
            p.setup(seed)

    def prepare(self, seed: int, work_dir: Path) -> None:
        for p in self.parts:
            p.prepare(seed, work_dir)

    def round(self) -> None:
        for p in self.parts:
            p.round()

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.parts)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.parts)

    def check(self, seed: int) -> list:
        out = []
        for p in self.parts:
            for c in p.check(seed):
                c.name = f"{p.name}/{c.name}"
                out.append(c)
            self.sweep = getattr(p, "sweep", None) or self.sweep
        return out

    def report(self) -> dict:
        return {p.name: p.report() for p in self.parts}


def make(name: str) -> Composite:
    """`gauge-bound`: the gauge takes most of the time and the group law
    little (eval on step 2-3 algebras, CLI, realify).  `product-bound`:
    the group law and the build stages take most of the time and the
    gauge little (eval on filiform-7, build_ball)."""
    if name == "gauge-bound":
        return Composite(name, (
            EvalWorkload("eval-low-step", ("heisenberg", "engel", "free23"), cli=True, sweep=True),
            RealifyWorkload(),
        ))
    if name == "product-bound":
        return Composite(name, (
            EvalWorkload("eval-step6", ("filiform-7",), cli=False, sweep=False),
            BuildWorkload(),
        ))
    raise ValueError(f"unknown workload {name!r}")
