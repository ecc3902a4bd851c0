"""Built-in scenario catalog.

The concrete minimal polynomials stand in for unnamed fields; only the
dimensions matter for the classification results.  Scenarios are built
fresh on every call so callers can never alias mutable state.
"""

from __future__ import annotations

from .exactalg import Polynomial
from .species import (
    SpeciesScenario,
    left_regular_bimodule,
    number_field,
    rationals,
    right_regular_bimodule,
    scalar_bimodule,
)

SQRT2 = Polynomial([-2, 0, 1])        # t^2 - 2
CUBIC = Polynomial([-1, -1, 0, 1])    # t^3 - t - 1


def _elliptic_star(name: str, count: int) -> SpeciesScenario:
    q = rationals()
    ys = [(f"a{i + 1}", rationals()) for i in range(count)]
    bims = {("u", yid): scalar_bimodule(q, h, 1) for yid, h in ys}
    return SpeciesScenario(name, [("u", q)], ys, bims)


def _build_a2() -> SpeciesScenario:
    return _elliptic_star("a2", 1)


def _build_a3() -> SpeciesScenario:
    return _elliptic_star("a3", 2)


def _build_d4_elliptic() -> SpeciesScenario:
    return _elliptic_star("d4_elliptic", 3)


def _build_c2() -> SpeciesScenario:
    q = rationals()
    d2 = number_field(SQRT2)
    return SpeciesScenario("c2", [("u", q)], [("a1", d2)],
                           {("u", "a1"): right_regular_bimodule(q, d2)})


def _build_b2_dual() -> SpeciesScenario:
    # base field a quadratic extension, one elliptic curve with D = Q
    k = number_field(SQRT2)
    d = rationals()
    return SpeciesScenario("b2_dual", [("u", k)], [("a1", d)],
                           {("u", "a1"): left_regular_bimodule(k, d)})


def _build_c3_surface() -> SpeciesScenario:
    q = rationals()
    e = rationals()
    d2 = number_field(SQRT2)
    return SpeciesScenario(
        "c3_surface", [("u", q)], [("a1", e), ("a2", d2)],
        {("u", "a1"): scalar_bimodule(q, e, 1),
         ("u", "a2"): right_regular_bimodule(q, d2)})


def _build_g2_threefold() -> SpeciesScenario:
    q = rationals()
    d1 = number_field(CUBIC)
    return SpeciesScenario("g2_threefold", [("u", q)], [("a1", d1)],
                           {("u", "a1"): right_regular_bimodule(q, d1)})


def _build_two_surfaces() -> SpeciesScenario:
    q = rationals()
    ys = [("a1", rationals()), ("a2", rationals())]
    bims = {("u", yid): scalar_bimodule(q, h, 2) for yid, h in ys}
    return SpeciesScenario("two_surfaces", [("u", q)], ys, bims)


def _build_product_no_coupling() -> SpeciesScenario:
    q = rationals()
    d2 = number_field(SQRT2)
    return SpeciesScenario("product_no_coupling",
                           [("u", q)], [("a1", rationals()), ("a2", d2)], {})


_BUILDERS = {
    "a2": _build_a2,
    "a3": _build_a3,
    "b2_dual": _build_b2_dual,
    "c2": _build_c2,
    "c3_surface": _build_c3_surface,
    "d4_elliptic": _build_d4_elliptic,
    "g2_threefold": _build_g2_threefold,
    "two_surfaces": _build_two_surfaces,
    "product_no_coupling": _build_product_no_coupling,
}

CATALOG_IDS = sorted(_BUILDERS)

FINITE_TYPE_IDS = ["a2", "a3", "b2_dual", "c2", "c3_surface", "d4_elliptic", "g2_threefold"]


def catalog_scenario(name: str) -> SpeciesScenario:
    return _BUILDERS[name]()
