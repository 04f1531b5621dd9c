"""nilmetric: homogeneous distances and dilations on nilpotent Lie groups.

The library works in exponential coordinates of the first kind: a simply
connected nilpotent group is identified with its Lie algebra, products
are truncated Baker-Campbell-Hausdorff series (exact at finite step),
and one-parameter dilation groups are matrix exponentials of
derivations.  On top of that it decides when dilation-homogeneous
left-invariant distances exist, constructs their unit balls by a
recursive layered construction, evaluates the distances numerically in
batches, and splits dilating automorphisms into a compact part times a
real-spectrum one-parameter part.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562), so a command
line launch compiles only the modules its command uses.
"""

import importlib

__version__ = "0.1.0"

# home module of each public name
_EXPORTS = {
    "algebra": (
        "CheckResult",
        "LieAlgebra",
        "abelian",
        "algebra_from_json",
        "algebra_to_json",
        "check_automorphism",
        "check_derivation",
        "engel",
        "heisenberg",
        "induced_on_quotient",
        "is_ideal",
        "quotient",
        "rototranslation",
    ),
    "ball": (
        "Ball",
        "BuildRejected",
        "LayeredBall",
        "NormBall",
        "NumericFailure",
        "PolyBall",
        "ball_from_json",
        "ball_to_json",
        "box_ball",
        "dilate_ball",
    ),
    "catalog": ("CATALOG", "catalog_entry", "validate_catalog"),
    "decompose": (
        "DilationDecomposition",
        "RealifyResult",
        "add_compact_part",
        "compact_closure_samples",
        "decompose_automorphism",
        "realify",
    ),
    "distance": (
        "GaugeRecord",
        "HomogeneousDistance",
        "averaged_distance",
        "bilipschitz_constants",
        "box_ball_certificate",
        "sphere_polyline",
        "verify_axioms",
    ),
    "grading": (
        "ExistenceVerdict",
        "Grading",
        "Layer",
        "classify_automorphism",
        "classify_derivation",
        "grading_from_automorphism",
        "grading_from_derivation",
        "hausdorff_dimension",
        "split_derivation",
    ),
    "group": ("AlgebraView", "GroupOps", "bch_coefficients", "bch_product", "dilate", "inverse"),
    "metric": ("BuildParams", "build_ball", "build_distance", "tuned_norm", "verify_A_convexity"),
    "spectral": (
        "DilationAction",
        "EigenCluster",
        "SpectralData",
        "SpectralError",
        "generalized_eigenspaces",
        "lambda_pow",
        "lambda_pow_exact",
        "log_unipotent",
        "spectral_map",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # `nilmetric.metric` after a bare `import nilmetric`
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
