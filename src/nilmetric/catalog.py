"""Built-in example catalog: algebras with named derivations and
automorphisms, plus expected classifier results used as a regression
gate.  Each algebra passes the Jacobi check once, when it is built;
loading an entry re-validates its operators (Leibniz / morphism
identity, where expected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    LieAlgebra,
    abelian,
    check_automorphism,
    check_derivation,
    engel,
    heisenberg,
    rototranslation,
)

__all__ = ["CatalogEntry", "CATALOG", "catalog_entry", "validate_catalog"]


def _rot(t: float) -> np.ndarray:
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


@dataclass(eq=False)
class CatalogEntry:
    name: str
    algebra: LieAlgebra
    derivations: dict[str, np.ndarray] = field(default_factory=dict)
    automorphisms: dict[str, tuple[np.ndarray, float]] = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    ball: str | None = None  # optional stock ball ("box")
    notes: str = ""

    def validate(self) -> None:
        for name, A in self.derivations.items():
            want = self.expected.get("derivation_valid", {}).get(name, True)
            got = bool(check_derivation(self.algebra, A))
            if got != want:
                raise ValueError(
                    f"catalog {self.name}: derivation {name!r} validity "
                    f"changed (expected {want})"
                )
        for name, (phi, _lam) in self.automorphisms.items():
            if not check_automorphism(self.algebra, phi):
                raise ValueError(
                    f"catalog {self.name}: {name!r} is not an automorphism"
                )


def _build_catalog() -> dict[str, CatalogEntry]:
    entries = {}

    h = heisenberg()
    entries["heisenberg"] = CatalogEntry(
        name="heisenberg",
        algebra=h,
        derivations={
            "standard": np.diag([1.0, 1.0, 2.0]),
            "rotating": np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
        },
        automorphisms={"double": (np.diag([2.0, 2.0, 4.0]), 2.0)},
        expected={
            "classify": {"standard": True, "rotating": True},
            "Q": {"standard": 4.0},
        },
    )

    r2 = abelian(2)
    entries["r2"] = CatalogEntry(
        name="r2",
        algebra=r2,
        derivations={
            "shear-weight1": np.array([[1.0, 1.0], [0.0, 1.0]]),
            "shear-weight1.5": np.array([[1.5, 1.0], [0.0, 1.5]]),
            "spiral": np.array([[2.0, -1.0], [1.0, 2.0]]),
            "spiral-weight1": np.array([[1.0, -1.0], [1.0, 1.0]]),
            "diag-0.5-2": np.diag([0.5, 2.0]),
            "double": 2.0 * np.eye(2),
        },
        automorphisms={
            "diag24": (np.diag([2.0, 4.0]), 2.0),
            "conformal": (2.0 * _rot(math.pi / 4), 2.0),
            "half-shear": (
                np.array([[0.5, 0.5 * math.log(0.5)], [0.0, 0.5]]),
                0.5,
            ),
        },
        expected={
            "classify": {
                "shear-weight1": False,
                "shear-weight1.5": True,
                "spiral": True,
                "spiral-weight1": True,
                "diag-0.5-2": False,
                "double": True,
            },
            "classify_automorphism": {
                "diag24": True,
                "conformal": True,
                "half-shear": False,
            },
        },
    )

    entries["r2-box"] = CatalogEntry(
        name="r2-box",
        algebra=abelian(2),
        derivations={"spiral": np.array([[2.0, -1.0], [1.0, 2.0]])},
        expected={"classify": {"spiral": True}},
        ball="box",
        notes="sup-norm square as the unit ball of the spiral-homogeneous distance",
    )

    e = engel()
    entries["engel"] = CatalogEntry(
        name="engel",
        algebra=e,
        derivations={"weights-1123": np.diag([1.0, 1.0, 2.0, 3.0])},
        automorphisms={"double": (np.diag([2.0, 2.0, 4.0, 8.0]), 2.0)},
        expected={
            "classify": {"weights-1123": True},
            "Q": {"weights-1123": 7.0},
        },
    )

    r = rototranslation()
    entries["rototranslation"] = CatalogEntry(
        name="rototranslation",
        algebra=r,
        derivations={"diag110": np.diag([1.0, 1.0, 0.0])},
        expected={"classify": {"diag110": False}},
        notes="not nilpotent; linear scalings are dilations of the Euclidean "
        "distance here but they are not group automorphisms",
    )

    entries["abelian-r3"] = CatalogEntry(
        name="abelian-r3",
        algebra=abelian(3),
        derivations={"identity": np.eye(3)},
        expected={"classify": {"identity": True}, "Q": {"identity": 3.0}},
    )

    return entries


CATALOG = _build_catalog()


def catalog_entry(name: str) -> CatalogEntry:
    try:
        entry = CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown catalog entry {name!r}; known: {known}") from None
    entry.validate()
    return entry


def validate_catalog() -> list[str]:
    """Recompute every expected block; returns failure messages (empty = pass)."""
    from .grading import classify_automorphism, classify_derivation

    failures = []
    for entry in CATALOG.values():
        try:
            entry.validate()
        except ValueError as err:
            failures.append(str(err))
            continue
        for op, want in entry.expected.get("classify", {}).items():
            v = classify_derivation(entry.algebra, entry.derivations[op])
            if v.answer != want:
                failures.append(
                    f"{entry.name}/{op}: classifier said {v.answer}, expected {want}"
                )
        for op, want in entry.expected.get("classify_automorphism", {}).items():
            phi, lam = entry.automorphisms[op]
            v = classify_automorphism(entry.algebra, phi, lam)
            if v.answer != want:
                failures.append(
                    f"{entry.name}/{op}: automorphism classifier said "
                    f"{v.answer}, expected {want}"
                )
        for op, want in entry.expected.get("Q", {}).items():
            v = classify_derivation(entry.algebra, entry.derivations[op])
            if abs(v.hausdorff_dim - want) > 1e-9:
                failures.append(
                    f"{entry.name}/{op}: Q = {v.hausdorff_dim}, expected {want}"
                )
    return failures
