"""The benchmark's tracer (perfbench/tracing.py) rebinds each traced name in
its owner's namespace; a name that moves away must fail here, not in a
traced benchmark run."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from nilmetric import decompose, metric
from nilmetric.algebra import abelian, heisenberg
from nilmetric.spectral import lambda_pow


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_target_and_restores_it():
    tracing = _tracing()
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracing._TARGETS}
    spiral = np.array([[2.0, -1.0], [1.0, 2.0]])
    r2 = abelian(2)
    d_box = metric.HomogeneousDistance(metric.AlgebraView.of(r2), spiral, metric.box_ball(2))
    with tracing.Tracer() as tracer:
        decompose.realify(r2, d_box, lambda_pow(spiral, math.e), math.e, check_samples=200, mu_grid=32)
    assert {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracing._TARGETS} == before
    layers = tracing.reduce(tracer.spans, 1)
    assert layers["decompose.closure_mats"] == 64 and layers["decompose.closure_torus"] == 1


def test_tracer_sees_the_build_layers():
    # the build's stages are module-level names of `metric` that the
    # tracer rebinds; a stage called from another module would read 0
    tracing = _tracing()
    with tracing.Tracer() as tracer:
        metric.build_ball(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    layers = tracing.reduce(tracer.spans, 1)
    names = [s.name for s in tracer.spans]
    assert layers["metric.convexity_calls"] == 1
    assert names.count("metric.tuned_norm") >= 1 and names.count("metric.sample_in_ball") >= 1
    assert layers["metric.cap_doublings"] == 0
