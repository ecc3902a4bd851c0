"""Representation-type classification and construction of indecomposables.

A scenario is of finite representation type exactly when its valued graph
is a Dynkin diagram; indecomposables are then indexed by positive roots,
read as multiplicity vectors over the vertex division algebras.  The roots
are the scenario's own (`SpeciesScenario.roots`, enumerated once and held
there).  Objects are built by sampling equivariant structure maps with small
integer coordinates and certified by `extcat.certified_by_rigidity`, the
rigidity certificate `decompose` also uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .extcat import TripleObject, certified_by_rigidity, ext1
from .samples import random_object_with
from .species import (
    ScenarioError,
    SpeciesScenario,
    cartan_matrix,
    dynkin_name,
    is_finite_type,
    valued_graph,
)

FINITE = "finite"
INFINITE = "infinite"

_SAMPLES = 32  # samples `construct_indecomposable` draws before it gives up

class ConstructionError(RuntimeError):
    def __init__(self, message: str, attempts: list[str]):
        super().__init__(message)
        self.attempts = attempts


@dataclass
class Classification:
    verdict: str
    diagram: str
    case: str
    conditions: list[dict]

    @property
    def finite(self) -> bool:
        return self.verdict == FINITE


def classify(s: SpeciesScenario) -> Classification:
    """Finite-type verdict, diagram name and (when applicable) the special case.

    Case reporting applies only to the shape with a single x-vertex carrying
    Q that meets every y-vertex, of which there is at least one: the case is
    then the diagram's name when the type is finite.  M_i is free over D_i,
    so its label is (g_i, g_i / [D_i : Q]), and finite type leaves A2, C2,
    G2, A3, C3 and D4.
    """
    g = valued_graph(s)
    rd = cartan_matrix(g)
    finite = is_finite_type(rd)
    name = dynkin_name(g)
    if finite != (name != "not-dynkin"):
        raise ScenarioError("finite-type test and diagram naming disagree")  # unreachable
    conditions: list[dict] = []
    case = "none"
    base_is_q = len(s.x_vertices) == 1 and s.x_vertices[0][1].dim == 1
    if base_is_q:
        x = s.x_ids[0]
        n = s.algebra(x).dim
        for y in s.y_ids:
            bm = s.bimodules.get((x, y))
            if bm is None:
                continue
            g_i = bm.dim // n
            n_i = s.algebra(y).dim
            label = next((dab, dba) for a, b, dab, dba in g.edges if b == y)
            expected = (g_i, g_i * n // n_i) if (g_i * n) % n_i == 0 else None
            conditions.append({
                "vertex": y, "g": g_i, "n_i": n_i, "n": n,
                "label": label, "label_matches_formula": label == expected,
            })
        if finite and s.y_ids and len(conditions) == len(s.y_ids):
            case = name
    return Classification(FINITE if finite else INFINITE, name, case, conditions)


def indecomposable_vectors(s: SpeciesScenario) -> tuple[tuple[int, ...], ...]:
    """Dimension vectors of the indecomposables: the positive roots s holds; `ScenarioError` in infinite type."""
    if s.roots is None:
        raise ScenarioError("positive root enumeration requires finite type")
    return s.roots


def construct_indecomposable(s: SpeciesScenario, root: tuple[int, ...], seed: int) -> TripleObject:
    """An indecomposable object with the given dimension vector, certified by rigidity.

    Structure maps are sampled from the seeded generator with small integer
    coordinates, and the first that `certified_by_rigidity` proves is
    returned: in finite type a rigid object whose vector is a positive root
    is that root's indecomposable.  The certificate remembers it in the
    scenario's node memo, so `decompose` answers it, or a sum's piece with
    its data, with no elimination.  `ConstructionError` carries each
    rejection's dim Ext^1.
    """
    if tuple(root) not in indecomposable_vectors(s):
        raise ScenarioError(f"{root} is not a positive root of scenario {s.name!r}")
    mult = dict(zip(s.vertex_order(), root))
    rng = random.Random(seed)
    attempts: list[str] = []
    for attempt in range(_SAMPLES):
        z = random_object_with(s, mult, rng, eta_bound=3)
        if certified_by_rigidity(z):
            return z
        attempts.append(f"attempt {attempt}: dim Ext^1(z, z) = {ext1(z, z).dim}")  # the slot the certificate left
    raise ConstructionError(
        f"no rigid object with vector {root} found in {_SAMPLES} samples", attempts)


@dataclass
class RootEntry:
    root: tuple[int, ...]
    object: TripleObject
    certified: bool


@dataclass
class RootObjectTable:
    scenario: SpeciesScenario
    entries: list[RootEntry] = field(default_factory=list)

    def dimension_vectors(self) -> list[tuple[int, ...]]:
        return [e.root for e in self.entries]


def build_root_table(s: SpeciesScenario, seed: int) -> RootObjectTable:
    """One certified indecomposable per positive root."""
    table = RootObjectTable(s)
    for i, root in enumerate(indecomposable_vectors(s)):
        obj = construct_indecomposable(s, root, seed + 1000 * i)
        if obj.dimension_vector() != root:
            raise ScenarioError("root table entry has the wrong dimension vector")
        table.entries.append(RootEntry(root, obj, True))
    return table
