import importlib
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import nilmetric
from nilmetric import cli
from nilmetric.algebra import heisenberg
from nilmetric.cli import main
from nilmetric.metric import AlgebraView, BuildParams, DilationAction, ball_to_json, build_ball


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_classify_yes_exit_zero(capsys):
    rc, out, _ = run(capsys, "classify", "--catalog", "heisenberg", "--derivation", "standard")
    assert rc == 0
    obj = json.loads(out)
    assert obj["answer"] == "yes" and obj["Q"] == 4.0


def test_classify_no_exit_one(capsys):
    rc, out, _ = run(capsys, "classify", "--catalog", "r2", "--derivation", "shear-weight1")
    assert rc == 1
    assert json.loads(out)["answer"] == "no"


def test_classify_rototranslation_no(capsys):
    rc, out, _ = run(
        capsys, "classify", "--catalog", "rototranslation", "--derivation", "diag110"
    )
    assert rc == 1


def test_classify_automorphism_entry(capsys):
    rc, out, _ = run(capsys, "classify", "--catalog", "r2", "--automorphism", "half-shear")
    assert rc == 1
    rc, out, _ = run(capsys, "classify", "--catalog", "r2", "--automorphism", "conformal")
    assert rc == 0


def test_usage_errors(capsys):
    rc, _, err = run(capsys, "classify")
    assert rc == 2
    rc, _, err = run(capsys, "classify", "--catalog", "nope", "--derivation", "x")
    assert rc == 2


def test_malformed_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2,, }')
    rc, _, err = run(capsys, "classify", "--input", str(bad))
    assert rc == 2
    assert "line" in err and "column" in err


def test_classify_from_file(tmp_path, capsys):
    obj = {
        "name": "heis",
        "dimension": 3,
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "1"}]}],
        "derivation": [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    }
    f = tmp_path / "h.json"
    f.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, "classify", "--input", str(f))
    assert rc == 0
    assert json.loads(out)["Q"] == 4.0


def test_build_and_eval_roundtrip(tmp_path, capsys):
    ball_path = tmp_path / "ball.json"
    rc, out, _ = run(
        capsys, "build", "--catalog", "heisenberg", "--derivation", "standard",
        "--out", str(ball_path),
    )
    assert rc == 0
    saved = json.loads(ball_path.read_text())
    assert saved["distance"]["ball"]["type"] == "layered"

    pairs = [
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        [[0.5, -0.25, 1.0], [0.5, -0.25, 1.0]],
        [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
    ]
    pf = tmp_path / "pairs.json"
    pf.write_text(json.dumps(pairs))
    rc, out, _ = run(
        capsys, "eval", "--catalog", "heisenberg", "--derivation", "standard",
        "--pairs", str(pf),
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,distance"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals[0] > 0
    assert vals[1] == 0.0
    # homogeneity: d(0, delta_2 x) = 2 d(0, x) for x on the first layer
    assert vals[2] == pytest.approx(2 * vals[0], rel=1e-6)


def test_eval_deterministic(tmp_path, capsys):
    pairs = [[[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]]
    pf = tmp_path / "pairs.json"
    pf.write_text(json.dumps(pairs))
    outs = []
    for _ in range(2):
        rc, out, _ = run(
            capsys, "eval", "--catalog", "heisenberg", "--derivation", "standard",
            "--pairs", str(pf), "--seed", "7",
        )
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_eval_of_no_pairs_writes_the_header(tmp_path, capsys):
    pf = tmp_path / "pairs.json"
    pf.write_text("[]")
    rc, out, _ = run(capsys, "eval", "--catalog", "heisenberg", "--derivation", "standard", "--pairs", str(pf))
    assert rc == 0 and out == "index,distance\n"


@pytest.mark.parametrize(
    "pairs, shape",
    [
        ([[[0.0, 0.0], [1.0, 0.0]]], "(1, 2, 2)"),  # points of the wrong dimension
        ([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]], "(1, 3, 3)"),  # a third point
    ],
)
def test_eval_refuses_pairs_of_the_wrong_shape(tmp_path, capsys, pairs, shape):
    pf = tmp_path / "pairs.json"
    pf.write_text(json.dumps(pairs))
    rc, out, err = run(capsys, "eval", "--catalog", "heisenberg", "--derivation", "standard", "--pairs", str(pf))
    assert rc == 2 and out == ""
    assert "shape (N, 2, 3)" in err and f"got shape {shape}" in err


def test_build_rejected_exit_one(capsys):
    rc, _, err = run(capsys, "build", "--catalog", "r2", "--derivation", "shear-weight1")
    assert rc == 1
    assert "no homogeneous distance" in err


def test_verify_box_certificate(capsys):
    rc, out, _ = run(
        capsys, "verify", "--catalog", "r2-box", "--derivation", "spiral",
        "--samples", "20000",
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["box_certificate"]["ok"]
    assert rep["convexity"]["violations"] == 0
    assert rep["axioms"]["ok"]


def test_verify_rejects_a_sample_count_below_one(capsys):
    rc, _, err = run(
        capsys, "verify", "--catalog", "heisenberg", "--derivation", "standard",
        "--samples", "0",
    )
    assert rc == 2 and "--samples" in err


def test_verify_euclidean(capsys):
    rc, out, _ = run(
        capsys, "verify", "--catalog", "r2", "--derivation", "double",
        "--samples", "5000",
    )
    assert rc == 0


def test_decompose_command(capsys):
    rc, out, _ = run(capsys, "decompose", "--catalog", "r2", "--automorphism", "conformal")
    assert rc == 0
    obj = json.loads(out)
    assert np.allclose(obj["A"], np.eye(2), atol=1e-10)
    assert max(obj["residuals"].values()) < 1e-9


def test_decompose_needs_lambda(tmp_path, capsys):
    obj = {
        "name": "r2",
        "dimension": 2,
        "brackets": [],
        "automorphism": [[2, 0], [0, 4]],
    }
    f = tmp_path / "a.json"
    f.write_text(json.dumps(obj))
    rc, _, err = run(capsys, "decompose", "--input", str(f))
    assert rc == 2 and "lambda" in err
    rc, out, _ = run(capsys, "decompose", "--input", str(f), "--lambda", "2.0")
    assert rc == 0


def test_render_circle(tmp_path, capsys):
    csv_path = tmp_path / "s.csv"
    svg_path = tmp_path / "s.svg"
    rc, _, _ = run(
        capsys, "render", "--catalog", "r2", "--derivation", "double",
        "--resolution", "64", "--out", str(csv_path), "--svg", str(svg_path),
    )
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "angle,x,y,gauge_residual"
    assert len(lines) == 65
    for line in lines[1:]:
        a, x, y, r = (float(v) for v in line.split(","))
        assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-9)
        assert r < 1e-9
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_render_box_square(capsys):
    rc, out, _ = run(
        capsys, "render", "--catalog", "r2-box", "--derivation", "spiral",
        "--resolution", "8",
    )
    assert rc == 0
    lines = out.strip().splitlines()[1:]
    pts = np.array([[float(v) for v in line.split(",")[1:3]] for line in lines])
    assert np.allclose(np.abs(pts[1]), [1.0, 1.0], atol=1e-9)  # square corner


def test_render_rejects_high_dimension(capsys):
    rc, _, err = run(capsys, "render", "--catalog", "engel", "--derivation", "weights-1123")
    assert rc == 2


def test_render_deterministic(capsys):
    args = ("render", "--catalog", "r2", "--derivation", "double", "--resolution", "32")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_catalog_listing_and_check(capsys):
    rc, out, _ = run(capsys, "catalog")
    assert rc == 0
    listing = json.loads(out)
    assert "heisenberg" in listing and "engel" in listing
    rc, out, _ = run(capsys, "catalog", "--check")
    assert rc == 0
    assert json.loads(out)["failures"] == []


def test_eval_reuses_built_ball(tmp_path, capsys):
    ball_path = tmp_path / "ball.json"
    rc, _, _ = run(
        capsys, "build", "--catalog", "heisenberg", "--derivation", "standard",
        "--out", str(ball_path),
    )
    assert rc == 0
    pairs = [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]]
    pf = tmp_path / "pairs.json"
    pf.write_text(json.dumps(pairs))
    rc, out1, _ = run(
        capsys, "eval", "--catalog", "heisenberg", "--derivation", "standard",
        "--pairs", str(pf), "--ball-file", str(ball_path),
    )
    assert rc == 0
    rc, out2, _ = run(
        capsys, "eval", "--catalog", "heisenberg", "--derivation", "standard",
        "--pairs", str(pf),
    )
    assert out1 == out2


def test_verify_reports_convexity_witnesses(tmp_path, capsys):
    g, A = heisenberg(), np.diag([1.0, 1.0, 2.0])
    ball = build_ball(g, A, params=BuildParams(convexity_samples=2000, cap_samples=2000))
    thin = ball.with_cap(ball.cap / 100)
    bf = tmp_path / "thin.json"
    bf.write_text(json.dumps({"ball": ball_to_json(thin)}))
    rc, out, _ = run(
        capsys, "verify", "--catalog", "heisenberg", "--derivation", "standard",
        "--ball-file", str(bf), "--samples", "2000",
    )
    assert rc == 1
    cv = json.loads(out)["convexity"]
    assert cv["violations"] > 0 and len(cv["witnesses"]) == min(3, cv["violations"])
    act, ops = DilationAction(A), AlgebraView.of(g).ops()
    for w in cv["witnesses"]:
        x, y, lam = np.array([w["x"]]), np.array([w["y"]]), w["lambda"]
        assert thin.contains(x)[0] and thin.contains(y)[0]
        z = ops.product(act.apply(lam, x), act.apply(1.0 - lam, y))
        assert not thin.contains(z, slack=1e-9)[0]


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # an eval launch loads neither scipy, nor the classifier and realify
    # modules, nor the build (`metric`)
    ball = build_ball(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    bf, pf = tmp_path / "ball.json", tmp_path / "pairs.json"
    bf.write_text(json.dumps({"ball": ball_to_json(ball)}))
    pf.write_text(json.dumps([[[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]]))
    src = str(Path(nilmetric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["eval", "--catalog", "heisenberg", "--derivation", "standard", "--ball-file", str(bf), "--pairs", str(pf)]
    code = (
        "import sys\n"
        "def unwanted():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                  or m in ('nilmetric.decompose', 'nilmetric.grading', 'nilmetric.metric'))\n"
        "import nilmetric\n"
        "print(sorted(m for m in sys.modules if m.startswith('nilmetric.')), file=sys.stderr)\n"
        "import nilmetric.cli\n"
        "print(unwanted(), file=sys.stderr)\n"
        f"rc = nilmetric.cli.main({argv!r})\n"
        "print(rc, unwanted(), file=sys.stderr)\n"
        "print(nilmetric.decompose.__name__, file=sys.stderr)\n"  # a submodule is still an attribute
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stderr.splitlines() == ["[]", "[]", "0 []", "nilmetric.decompose"]
    assert out.stdout.startswith("index,distance\n0,")


def test_package_names_resolve_on_first_access():
    star = {}
    exec("from nilmetric import *", star)
    assert sorted(k for k in star if not k.startswith("__")) == sorted(nilmetric.__all__)
    for name in nilmetric.__all__:
        home = importlib.import_module(f"nilmetric.{nilmetric._HOME[name]}")
        assert star[name] is getattr(home, name), name
        assert getattr(star[name], "__module__", home.__name__) == home.__name__, name
    assert set(nilmetric.__all__) <= set(dir(nilmetric))
    with pytest.raises(AttributeError):
        nilmetric.no_such_name
    with pytest.raises(ImportError):
        exec("from nilmetric import no_such_name", {})
    # the benchmark's tracer and workloads import submodules this way
    from nilmetric import decompose, grading, group, metric

    for name, mod in zip(("decompose", "grading", "group", "metric"), (decompose, grading, group, metric)):
        assert isinstance(mod, types.ModuleType) and mod is sys.modules[f"nilmetric.{name}"]
        assert getattr(nilmetric, name) is mod


@pytest.fixture(scope="module")
def heisenberg_ball_file(tmp_path_factory):
    ball = build_ball(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    path = tmp_path_factory.mktemp("ball") / "ball.json"
    path.write_text(json.dumps({"ball": ball_to_json(ball)}))
    return path


_REPRS = json.dumps(np.random.default_rng(17).normal(size=(5, 2, 3)).tolist())
_PAIR = "[[0.5, -1.25, 2.0], [1.0, 0.0, -3.0]]"


@pytest.mark.parametrize(
    "text, rc, fast",
    [
        ("[[[+1,0,0],[1,0,0]]]", 2, False),
        ("[[[.5,0,0],[1,0,0]]]", 2, False),
        ("[[[-.5,0,0],[1,0,0]]]", 2, False),
        ("[[[1.,0,0],[1,0,0]]]", 2, False),
        ("[[[1.e5,0,0],[1,0,0]]]", 2, False),
        ("[[[01,0,0],[1,0,0]]]", 2, False),
        ("[[[-01,0,0],[1,0,0]]]", 2, False),
        ("[[[1 2,0,0],[1,0,0]]]", 2, False),  # two numbers in one slot
        ("[[[1 2,,0],[1,0,0]]]", 2, False),  # ... and as many numbers as slots
        ("[[[1,,3],[1,0,0]]]", 2, False),
        (f"[{_PAIR},]", 2, False),
        ("[[[1,0,0,],[1,0,0]]]", 2, False),
        ("[[[NaN,0,0],[1,0,0]]]", 2, False),
        ("[[[1,0,0],[-Infinity,0,0]]]", 2, False),
        ("[[[1e400,0,0],[1,0,0]]]", 2, False),
        (f"[[[1{'0' * 400},0,0],[1,0,0]]]", 2, False),
        ("[[1,0,0],[1,0,0]]", 2, False),  # wrong nesting depth
        ("[[[1,0],[1,0]]]", 2, False),  # wrong dimension
        ("[[[1,0,0],[1,0,0],[0,0,1]]]", 2, False),  # a third point
        ("[[[1,2,3],[4,5,6]],[[7,8,9,1],[2,3]]]", 2, False),  # ragged, with as many numbers as slots
        ("[]", 0, False),
        (f"\n[\n\t{_PAIR},\r\n\t[[1, 2, 3],\t[4,5,6]] ]\n", 0, True),
        ("[[[1E5,1e-05,-2.5E-3],[1e+2,0,-0.0]]]", 0, True),
        ("[[[-0,0,1],[1,0,0]]]", 0, False),  # JSON reads the integer -0 as +0
        (_REPRS, 0, True),  # 17-digit float reprs
    ],
)
def test_pairs_file_parse_matches_json(tmp_path, capsys, monkeypatch, heisenberg_ball_file, text, rc, fast):
    pf = tmp_path / "pairs.json"
    pf.write_text(text)
    parsed = cli._parse_pairs(pf.read_bytes(), 3)
    assert (parsed is not None) == fast
    if fast:
        want = np.asarray(json.loads(text), dtype=float)
        assert parsed.shape == want.shape and np.array_equal(parsed.view(np.uint64), want.view(np.uint64))
    args = ("eval", "--catalog", "heisenberg", "--derivation", "standard",
            "--ball-file", str(heisenberg_ball_file), "--pairs", str(pf))
    got = run(capsys, *args)
    # the reference: every file through json
    monkeypatch.setattr(cli, "_parse_pairs", lambda data, dim: None)
    assert got == run(capsys, *args)
    assert got[0] == rc


@pytest.mark.parametrize("entry", ["1e400", "-1" + "0" * 400])
def test_eval_refuses_non_finite_pairs(tmp_path, capsys, heisenberg_ball_file, entry):
    pf = tmp_path / "pairs.json"
    pf.write_text(f"[[[0, 0, 0], [{entry}, 0, 0]]]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(
            capsys, "eval", "--catalog", "heisenberg", "--derivation", "standard",
            "--ball-file", str(heisenberg_ball_file), "--pairs", str(pf),
        )
    assert rc == 2 and out == ""
    assert err == f"error: pairs file {pf} has a non-finite entry; every coordinate must be a finite float\n"
