"""Executable invariant suites over a scenario.

Each suite runs seeded random sweeps of one family of statements the
machinery is supposed to satisfy, and reports pass counts plus dumps of
any counterexamples (shrunk by summand substitution where possible).
`_sweep` runs the loop of every suite; a suite gives its draw, its test
and its failure dump, and its test reads engine names as module globals.
These back the `check` command and the acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .extcat import (
    InternalConsistencyError,
    TripleMorphism,
    TripleObject,
    decompose,
    direct_sum,
    direct_sum_many,
    ext1,
    euler_form,
    hom,
    hom_space_dims,
    identity_morphism,
    is_projective,
    is_universal,
    projective_resolution,
    torsion_pair,
    universal_extension_of,
    verify_short_exact,
    x_only,
    y_only,
    zero_morphism,
    _total_matrix,
)
from .samples import random_object, random_short_exact
from .species import SpeciesScenario, ring_center, ringel_form


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _dump_object(z: TripleObject) -> dict:
    return {
        "scenario": z.scenario.name,
        "dims": list(z.dimension_vector()),
        "eta": {x: [[str(e) for e in row] for row in z.eta[x].to_fractions()]
                for x in z.scenario.x_ids},
    }


def _shrink(z: TripleObject, still_fails) -> TripleObject:
    """Replace a failing object by a failing proper summand while possible."""
    for _ in range(8):
        try:
            dec = decompose(z)
        except Exception:
            return z
        if len(dec.summands) <= 1:
            return z
        for sm in dec.summands:
            if sm.object.total_dim() < z.total_dim() and still_fails(sm.object):
                z = sm.object
                break
        else:
            return z
    return z


def _sweep(name: str, samples: int, draw, test, dump) -> SuiteResult:
    """The loop of every suite: draw a sample's objects, run the test on them,
    and count a pass or record the failure with dump's entries."""
    res = SuiteResult(name)
    for i in range(samples):
        objs = draw()
        try:
            test(*objs)
            res.passed += 1
        except InternalConsistencyError as ex:
            res.failures.append({"sample": i, "error": str(ex), **dump(*objs)})
    return res


def _dump_one(z: TripleObject) -> dict:
    return {"object": _dump_object(z)}


def suite_five_term(s: SpeciesScenario, rng: random.Random, samples: int) -> SuiteResult:
    """`euler_form` against the Ringel form of the dimension vectors; no Ext^1 class is read (ROADMAP item 22)."""
    def test(a, b):
        euler, want = euler_form(a, b), ringel_form(s, a.dimension_vector(), b.dimension_vector())
        if euler != want:
            raise InternalConsistencyError(f"Euler form {euler} != Ringel form {want}")

    return _sweep("five-term-euler", samples, lambda: (random_object(s, rng), random_object(s, rng)), test,
                  lambda a, b: {"left": _dump_object(a), "right": _dump_object(b)})


def suite_heredity(s: SpeciesScenario, rng: random.Random, samples: int) -> SuiteResult:
    """Length-1 resolutions with projective terms, and Ext^1 from each term into two random probes zero."""
    def test(z):
        r = projective_resolution(z)
        r.verify()
        for p in (r.p1, r.p0):
            if not is_projective(p):
                raise InternalConsistencyError("projective term fails the mono criterion")
            for _ in range(2):
                probe = random_object(s, rng, max_mult=1)
                if ext1(p, probe).dim != 0:
                    raise InternalConsistencyError("ext out of a projective is nonzero")

    return _sweep("heredity-resolution", samples, lambda: (random_object(s, rng),), test,
                  lambda z: _dump_one(_shrink(z, lambda w: not _resolution_ok(w))))


def _resolution_ok(z: TripleObject) -> bool:
    try:
        projective_resolution(z).verify()
        return True
    except InternalConsistencyError:
        return False


def suite_torsion_pair(s: SpeciesScenario, rng: random.Random, samples: int) -> SuiteResult:
    """Hom vanishing across the pair; exact canonical and random short exact sequences."""
    def test(z):
        tx, ty = x_only(z), y_only(z)
        if hom(tx, ty):
            raise InternalConsistencyError("hom from the x side to the y side is nonzero")
        if ext1(tx, ty).dim != 0:
            raise InternalConsistencyError("ext from the x side to the y side is nonzero")
        inc, proj = torsion_pair(z)
        if not verify_short_exact(inc, proj):
            raise InternalConsistencyError("canonical torsion sequence is not exact")
        a_inc, a_proj = random_short_exact(s, rng)
        if not verify_short_exact(a_inc, a_proj):
            raise InternalConsistencyError("random short exact sequence failed")

    return _sweep("torsion-pair", samples, lambda: (random_object(s, rng),), test, _dump_one)


def suite_universality(s: SpeciesScenario, rng: random.Random, samples: int) -> SuiteResult:
    """The three characterizations never disagree; true on universal objects."""
    def test(z):
        is_universal(z)
        ey = universal_extension_of(z)
        if not is_universal(ey).verdict:
            raise InternalConsistencyError("universal extension not recognized")

    return _sweep("universality", samples, lambda: (random_object(s, rng, max_mult=1),), test, _dump_one)


def suite_adjunction(s: SpeciesScenario, rng: random.Random, samples: int) -> SuiteResult:
    """dim hom(E(Y), z) equals dim of the equivariant maps on the y parts."""
    def test(src, z):
        ey = universal_extension_of(src)
        lhs = len(hom(ey, z))
        _, sv, _ = hom_space_dims(src, z)
        if lhs != sv:
            raise InternalConsistencyError(f"adjunction broken: {lhs} != {sv}")

    return _sweep("adjunction", samples,
                  lambda: (random_object(s, rng, max_mult=1), random_object(s, rng, max_mult=1)), test,
                  lambda src, z: {"y-source": _dump_object(src), "target": _dump_object(z)})


def suite_additivity(s: SpeciesScenario, rng: random.Random, samples: int) -> SuiteResult:
    """hom and ext1 are additive on direct sums in each argument."""
    def test(a, b, c):
        total, _, _ = direct_sum(a, b)
        if len(hom(total, c)) != len(hom(a, c)) + len(hom(b, c)):
            raise InternalConsistencyError("hom not additive in the first argument")
        if ext1(total, c).dim != ext1(a, c).dim + ext1(b, c).dim:
            raise InternalConsistencyError("ext1 not additive in the first argument")
        if ext1(c, total).dim != ext1(c, a).dim + ext1(c, b).dim:
            raise InternalConsistencyError("ext1 not additive in the second argument")

    return _sweep("additivity", samples, lambda: tuple(random_object(s, rng, max_mult=1) for _ in range(3)), test,
                  lambda a, b, c: {"summands": [_dump_object(a), _dump_object(b)], "probe": _dump_object(c)})


def suite_decompose(s: SpeciesScenario, rng: random.Random, samples: int) -> SuiteResult:
    """Split idempotents recompose to the identity and dimensions add up."""
    def test(z):
        dec = decompose(z)
        total = sum(sm.object.total_dim() for sm in dec.summands)
        if total != z.total_dim():
            raise InternalConsistencyError("summand dimensions do not add up")
        acc = zero_morphism(z, z)
        for sm in dec.summands:
            e = sm.inclusion.compose(sm.projection)
            if not (e.compose(e) - e).is_zero():
                raise InternalConsistencyError("split idempotent is not idempotent")
            if not (sm.projection.compose(sm.inclusion)
                    - identity_morphism(sm.object)).is_zero():
                raise InternalConsistencyError("projection does not retract the inclusion")
            acc = acc + e
        if not (acc - identity_morphism(z)).is_zero():
            raise InternalConsistencyError("idempotents do not sum to the identity")
        if dec.summands:
            rebuilt, _, projs = direct_sum_many([sm.object for sm in dec.summands])
            glue = None
            for sm, pr in zip(dec.summands, projs):
                part = sm.inclusion.compose(pr)
                glue = part if glue is None else glue + part
            mat = _total_matrix(glue)
            if mat.rank() != z.total_dim():
                raise InternalConsistencyError("summands do not reassemble to the object")

    return _sweep("decompose-recompose", samples, lambda: (random_object(s, rng, max_mult=1),), test, _dump_one)


def suite_center_action(s: SpeciesScenario, rng: random.Random, samples: int) -> SuiteResult:
    """Ring-center elements act as central endomorphisms on every object."""
    center = ring_center(s)

    def test(z):
        endos = hom(z, z)
        for el in center.elements:
            zf = TripleMorphism(z, z, {w: vs.act(el[w]) for w, vs in z.parts.items()})
            err = zf.check()
            if err is not None:
                raise InternalConsistencyError(f"center element is not an endomorphism: {err}")
            for f in endos:
                if not (zf.compose(f) - f.compose(zf)).is_zero():
                    raise InternalConsistencyError("center element fails to commute")

    return _sweep("center-action", samples, lambda: (random_object(s, rng, max_mult=1),), test, _dump_one)


SUITES = [
    ("five-term-euler", suite_five_term, 1.0),
    ("heredity-resolution", suite_heredity, 0.5),
    ("torsion-pair", suite_torsion_pair, 0.5),
    ("universality", suite_universality, 0.25),
    ("adjunction", suite_adjunction, 0.5),
    ("additivity", suite_additivity, 0.25),
    ("decompose-recompose", suite_decompose, 0.25),
    ("center-action", suite_center_action, 0.25),
]


def run_all(s: SpeciesScenario, seed: int, samples: int) -> list[SuiteResult]:
    """Run every suite with a per-suite derived seed; sample counts scale down
    for the heavier sweeps."""
    out = []
    for k, (name, suite, weight) in enumerate(SUITES):
        rng = random.Random(f"{seed}:{k}")
        out.append(suite(s, rng, max(1, int(samples * weight))))
    return out
