"""Seeded random generators for scenarios, objects and morphisms.

Every randomized sweep in the package takes an explicit generator (or
seed), so runs are reproducible; nothing here draws from global state.
"""

from __future__ import annotations

import random

from .exactalg import Polynomial, _combine_terms
from .extcat import (
    TripleMorphism,
    TripleObject,
    abelian_ops,
    canonical_space,
    hom,
    _build_fspaces,
    _check_ids,
    _combine_morphisms,
    _hom_terms,
)
from .species import (
    SpeciesScenario,
    number_field,
    rationals,
    scalar_bimodule,
    tensor_bimodule,
)

_FIELDS = [
    lambda: rationals(),
    lambda: number_field(Polynomial([-2, 0, 1])),   # t^2 - 2
    lambda: number_field(Polynomial([1, 0, 1])),    # t^2 + 1
    lambda: number_field(Polynomial([-1, 1, 1])),   # t^2 + t - 1
]


def random_scenario(rng: random.Random) -> SpeciesScenario:
    """A small species with one or two vertices per side."""
    nx = rng.randrange(1, 3)
    ny = rng.randrange(1, 3)
    xs = [(f"x{i}", _FIELDS[rng.randrange(len(_FIELDS))]()) for i in range(nx)]
    ys = [(f"y{j}", _FIELDS[rng.randrange(len(_FIELDS))]()) for j in range(ny)]
    bims = {}
    for xid, xh in xs:
        for yid, yh in ys:
            draw = rng.random()
            if draw < 0.25:
                continue
            if xh.dim == 1 and yh.dim == 1:
                bims[(xid, yid)] = scalar_bimodule(xh, yh, rng.randrange(1, 3))
            else:
                bims[(xid, yid)] = tensor_bimodule(xh, yh, copies=1)
    return SpeciesScenario(f"random-{rng.randrange(10**6)}", xs, ys, bims)


def random_object(scenario: SpeciesScenario, rng: random.Random, max_mult: int = 2) -> TripleObject:
    """Canonical components with random multiplicities and equivariant eta."""
    mult = {v: rng.randrange(0, max_mult + 1) for v in scenario.vertex_order()}
    return random_object_with(scenario, mult, rng)


def random_object_with(scenario: SpeciesScenario, mult: dict[str, int],
                       rng: random.Random, eta_bound: int = 2) -> TripleObject:
    """Canonical components of multiplicities mult and random equivariant eta.

    A key of mult that is not a vertex is an error.
    """
    _check_ids(scenario, mult)
    parts = {v: canonical_space(scenario.algebra(v), mult.get(v, 0)) for v in scenario.vertex_order()}
    fsp = _build_fspaces(scenario, parts)
    eta = {}
    for x in scenario.x_ids:
        terms, den = _hom_terms(scenario.algebra(x).spec, fsp[x], parts[x])
        coeffs = [rng.randrange(-eta_bound, eta_bound + 1) for _ in terms]
        eta[x] = _combine_terms(terms, coeffs, den, parts[x].dim, fsp[x].dim)
    return TripleObject._with_fspaces(scenario, parts, eta, fsp)


def random_morphism(a: TripleObject, b: TripleObject, rng: random.Random) -> TripleMorphism:
    basis = hom(a, b)
    coeffs = [rng.randrange(-2, 3) for _ in basis]
    return _combine_morphisms(a, b, basis, coeffs)


def random_short_exact(scenario: SpeciesScenario, rng: random.Random):
    """0 -> ker f -> B -> im f -> 0 for a random f: B -> C, with every multiplicity of B and C at most 1."""
    b = random_object(scenario, rng, max_mult=1)
    c = random_object(scenario, rng, max_mult=1)
    f = random_morphism(b, c, rng)
    ops = abelian_ops(f)
    return ops.kernel_inclusion, ops.image_projection
