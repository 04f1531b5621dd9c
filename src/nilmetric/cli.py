"""Command line front end.

Commands: classify | build | eval | verify | decompose | render | catalog.
Inputs are algebra JSON files (see `algebra.algebra_from_json`) carrying
an optional "derivation" or "automorphism" matrix, or entries of the
built-in catalog.  Results go to stdout as JSON, tables to CSV and
spheres to SVG via --out paths.

Exit codes: 0 = yes/success, 1 = no/violations found, 2 = usage error,
3 = numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

import numpy as np

from .algebra import algebra_from_json, matrix_from_json
from .catalog import CATALOG, catalog_entry, validate_catalog
from .exact import to_float
from .metric import (
    AlgebraView,
    BuildParams,
    BuildRejected,
    HomogeneousDistance,
    NumericFailure,
    ball_from_json,
    box_ball,
    box_ball_certificate,
    build_ball,
    sphere_polyline,
    verify_A_convexity,
    verify_axioms,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}")
    except json.JSONDecodeError as err:
        raise UsageError(
            f"malformed JSON in {path} at line {err.lineno}, column {err.colno}: "
            f"{err.msg}"
        )


def _resolve_problem(args):
    """Return (algebra, operator matrix or None, lam or None, ball_tag)."""
    if args.catalog:
        entry = catalog_entry(args.catalog)
        g = entry.algebra
        op, lam = None, None
        if getattr(args, "derivation", None):
            try:
                op = entry.derivations[args.derivation]
            except KeyError:
                raise UsageError(
                    f"catalog {entry.name} has no derivation "
                    f"{args.derivation!r}; known: {sorted(entry.derivations)}"
                )
        elif getattr(args, "automorphism", None):
            try:
                op, lam = entry.automorphisms[args.automorphism]
            except KeyError:
                raise UsageError(
                    f"catalog {entry.name} has no automorphism "
                    f"{args.automorphism!r}; known: {sorted(entry.automorphisms)}"
                )
        if getattr(args, "lam", None) is not None:
            lam = args.lam
        return g, op, lam, entry.ball
    if not args.input:
        raise UsageError("provide --input FILE or --catalog NAME")
    obj = _load_json(args.input)
    try:
        g = algebra_from_json(obj)
    except ValueError as err:
        raise UsageError(str(err))
    op, lam = None, None
    if "derivation" in obj:
        op = to_float(matrix_from_json(obj["derivation"]))
    elif "automorphism" in obj:
        op = to_float(matrix_from_json(obj["automorphism"]))
        lam = obj.get("lambda")
    if getattr(args, "lam", None) is not None:
        lam = args.lam
    return g, op, lam, None


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_classify(args) -> int:
    from .grading import classify_automorphism, classify_derivation

    g, op, lam, _ = _resolve_problem(args)
    if op is None:
        raise UsageError("classify needs a derivation or automorphism")
    if lam is not None:
        verdict = classify_automorphism(g, op, lam)
    else:
        verdict = classify_derivation(g, op)
    _emit(verdict.to_json(), args.out)
    return EXIT_YES if verdict.answer else EXIT_NO


def _built_distance(args, g, op, ball_tag):
    view = AlgebraView.of(g)
    if getattr(args, "ball_file", None):
        obj = _load_json(args.ball_file)
        if "distance" in obj:  # output of the build command
            obj = obj["distance"]["ball"]
        elif "ball" in obj:
            obj = obj["ball"]
        ball = ball_from_json(obj)
    elif ball_tag == "box":
        ball = box_ball(g.dim)
    else:
        params = BuildParams(seed=args.seed)
        ball = build_ball(g, op, params=params)
    return HomogeneousDistance(view, to_float(op), ball)


def cmd_build(args) -> int:
    g, op, lam, ball_tag = _resolve_problem(args)
    if op is None:
        raise UsageError("build needs a derivation")
    d = _built_distance(args, g, op, ball_tag)
    _emit({"algebra": g.name, "distance": d.to_json()}, args.out)
    return EXIT_YES


_NUMBER_OR_BLANK = b"0123456789.eE-+ \t\n\r"


def _float_of_int(text: str) -> float:
    if text == "-0":  # JSON reads the integer -0 as +0, float() as -0.0
        raise ValueError(text)
    return float(text)


def _parse_pairs(data: bytes, dim: int) -> np.ndarray | None:
    """The (N, 2, dim) array of a pairs file with N >= 1 pairs of strict
    JSON numbers, all finite, parsed as one flat list; None for any other
    file.

    The file must be the skeleton [[...],[...]],... once its number
    characters and blanks are deleted.  With its brackets deleted, it is a
    list of 2 N dim comma-separated slots, which `json` reads only if each
    slot holds one number of JSON's grammar.  The integer -0 is left to the
    `json` path, which reads it as +0.
    """
    pair = b"[[" + b"," * (dim - 1) + b"],[" + b"," * (dim - 1) + b"]]"
    skeleton = data.translate(None, _NUMBER_OR_BLANK)
    n = len(skeleton) // (len(pair) + 1)
    if n == 0 or skeleton != b"[" + (pair + b",") * (n - 1) + pair + b"]":
        return None
    try:
        flat = json.loads(b"[" + data.translate(None, b"[]") + b"]", parse_int=_float_of_int)
    except ValueError:
        return None
    values = np.array(flat, dtype=float)
    if not np.all(np.isfinite(values)):
        return None
    return values.reshape(n, 2, dim)


def _read_pairs(path: str, dim: int) -> np.ndarray:
    """The (N, 2, dim) array of finite floats in a pairs file.  Files the
    flat parse declines are read as nested JSON, so that each usage error
    keeps its message."""
    try:
        with open(path, "rb") as fh:
            PQ = _parse_pairs(fh.read(), dim)
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}")
    if PQ is not None:
        return PQ
    want = f"a JSON array of [p, q] pairs of {dim}-vectors, shape (N, 2, {dim})"
    non_finite = f"pairs file {path} has a non-finite entry; every coordinate must be a finite float"
    try:
        PQ = np.asarray(_load_json(path), dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise UsageError(non_finite)
    except (TypeError, ValueError):
        raise UsageError(f"pairs file must be {want}")
    if PQ.shape == (0,):  # no pairs
        PQ = PQ.reshape(0, 2, dim)
    if PQ.shape[1:] != (2, dim):
        raise UsageError(f"pairs file must be {want}; got shape {PQ.shape}")
    if not np.all(np.isfinite(PQ)):
        raise UsageError(non_finite)
    return PQ


def cmd_eval(args) -> int:
    g, op, lam, ball_tag = _resolve_problem(args)
    if op is None:
        raise UsageError("eval needs a derivation")
    PQ = _read_pairs(args.pairs, g.dim)
    d = _built_distance(args, g, op, ball_tag)
    vals = d.pair(PQ[:, 0], PQ[:, 1])
    rows = chain.from_iterable(zip(range(len(vals)), vals.tolist()))
    text = "index,distance\n" + "%d,%.12g\n" * len(vals) % tuple(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def cmd_verify(args) -> int:
    g, op, lam, ball_tag = _resolve_problem(args)
    if op is None:
        raise UsageError("verify needs a derivation")
    d = _built_distance(args, g, op, ball_tag)
    view = d.view
    n = view.dim
    ax = verify_axioms(d, view, d.A, samples=args.samples, seed=args.seed)
    cv = verify_A_convexity(
        d.ball, view, d.A, samples=args.samples, seed=args.seed, margin=args.margin
    )
    report = {
        "axioms": {
            "samples": ax.samples,
            "symmetry": ax.symmetry,
            "positivity_min": ax.positivity_min,
            "triangle_excess": ax.triangle_excess,
            "left_invariance": ax.left_invariance,
            "homogeneity": ax.homogeneity,
            "ok": ax.ok,
        },
        "convexity": {
            "samples": cv.samples,
            "violations": cv.violations,
            "worst_excess": cv.worst_excess,
            "ok": cv.ok,
            # each witness (x, y, lam) has (lam^A x) * ((1-lam)^A y) outside the ball
            "witnesses": [
                {"x": w[:n].tolist(), "y": w[n:2 * n].tolist(), "lambda": float(w[-1])}
                for w in cv.witnesses[:3]
            ],
        },
    }
    ok = ax.ok and cv.ok
    if ball_tag == "box":
        cert = box_ball_certificate()
        report["box_certificate"] = cert
        ok = ok and cert["ok"]
    _emit(report, args.out)
    return EXIT_YES if ok else EXIT_NO


def cmd_decompose(args) -> int:
    from .decompose import decompose_automorphism

    g, op, lam, _ = _resolve_problem(args)
    if op is None:
        raise UsageError("decompose needs an automorphism")
    if lam is None:
        raise UsageError("decompose needs --lambda (the dilation factor)")
    dec = decompose_automorphism(g, op, lam)
    _emit(dec.to_json(), args.out)
    return EXIT_YES


def _svg_polyline(pts: np.ndarray) -> str:
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = 0.05 * float((hi - lo).max() or 1.0)
    x0, y0 = lo[0] - pad, lo[1] - pad
    w, h = hi[0] - lo[0] + 2 * pad, hi[1] - lo[1] + 2 * pad
    coords = " ".join(f"{p[0]:.6g},{-p[1]:.6g}" for p in np.vstack([pts, pts[:1]]))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.6g} {-(y0 + h):.6g} {w:.6g} {h:.6g}">'
        f'<polyline points="{coords}" fill="none" stroke="black" '
        f'stroke-width="{0.01 * max(w, h):.6g}"/></svg>\n'
    )


def cmd_render(args) -> int:
    g, op, lam, ball_tag = _resolve_problem(args)
    if op is None:
        raise UsageError("render needs a derivation")
    if g.dim == 2:
        plane = (0, 1)
    elif g.dim == 3:
        names = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}
        if args.slice not in names:
            raise UsageError("for dimension 3 pass --slice xy|xz|yz")
        plane = names[args.slice]
    else:
        raise UsageError(f"render supports dimension 2 or 3, not {g.dim}")
    d = _built_distance(args, g, op, ball_tag)
    angles, pts, resid = sphere_polyline(d, resolution=args.resolution, plane=plane)
    pts2 = pts[:, list(plane)]
    lines = ["angle,x,y,gauge_residual"]
    lines += [
        f"{a:.12g},{p[0]:.12g},{p[1]:.12g},{r:.6g}"
        for a, p, r in zip(angles, pts2, resid)
    ]
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(_svg_polyline(pts2))
    return EXIT_YES


def cmd_catalog(args) -> int:
    if args.check:
        failures = validate_catalog()
        _emit({"entries": sorted(CATALOG), "failures": failures}, args.out)
        return EXIT_YES if not failures else EXIT_NO
    listing = {}
    for name, entry in sorted(CATALOG.items()):
        listing[name] = {
            "dimension": entry.algebra.dim,
            "nilpotency_step": entry.algebra.nilpotency_step(),
            "derivations": sorted(entry.derivations),
            "automorphisms": sorted(entry.automorphisms),
            "ball": entry.ball,
            "notes": entry.notes,
        }
    _emit(listing, args.out)
    return EXIT_YES


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilmetric",
        description="homogeneous distances and dilations on nilpotent Lie groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_op=True):
        p.add_argument("--input", help="algebra JSON file")
        p.add_argument("--catalog", help="built-in catalog entry name")
        if needs_op:
            p.add_argument("--derivation", help="named catalog derivation")
            p.add_argument("--automorphism", help="named catalog automorphism")
        p.add_argument("--lambda", dest="lam", type=float, help="dilation factor")
        p.add_argument("--out", help="write the result here instead of stdout")
        p.add_argument("--seed", type=int, default=12345)

    p = sub.add_parser("classify", help="decide whether a homogeneous distance exists")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("build", help="construct the unit ball and serialize it")
    common(p)
    p.add_argument("--ball-file", help="reuse a serialized ball instead of building")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", help="evaluate the distance on point pairs")
    common(p)
    p.add_argument("--pairs", required=True, help="JSON array of [p, q] pairs")
    p.add_argument("--ball-file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the axiom and convexity harness")
    common(p)
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--margin", type=float, default=1e-9)
    p.add_argument("--ball-file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="split an automorphism as K * lambda^A")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("render", help="sample the unit sphere to CSV/SVG")
    common(p)
    p.add_argument("--resolution", type=int, default=360)
    p.add_argument("--slice", default="xy", help="coordinate plane for dimension 3")
    p.add_argument("--svg", help="also write an SVG polyline here")
    p.add_argument("--ball-file")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("catalog", help="list or re-validate the example catalog")
    p.add_argument("--check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BuildRejected as err:
        print(f"rejected: {err}", file=sys.stderr)
        return EXIT_NO
    except (NumericFailure, OverflowError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
