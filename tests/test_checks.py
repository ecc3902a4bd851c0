"""The invariant suites' failure path: a broken engine name makes each suite
record the failing sample with its counterexample dump, and `isocat check`
exit 1."""

import random

import pytest

import isocat.checks as checks
from isocat.catalog import catalog_scenario
from isocat.cli import main
from isocat.extcat import InternalConsistencyError

# suite, the engine name it reads once per sample, the dump keys after
# "sample" and "error"
FAILURE_CASES = [
    ("five-term-euler", "euler_form", ["left", "right"]),
    ("heredity-resolution", "projective_resolution", ["object"]),
    ("torsion-pair", "torsion_pair", ["object"]),
    ("universality", "universal_extension_of", ["object"]),
    ("adjunction", "universal_extension_of", ["y-source", "target"]),
    ("additivity", "direct_sum", ["summands", "probe"]),
    ("decompose-recompose", "decompose", ["object"]),
    ("center-action", "hom", ["object"]),
]


def fail_on_call(monkeypatch, name, which):
    """Make `checks.<name>` raise on its which-th call (from 1) and work otherwise."""
    engine, calls = getattr(checks, name), []

    def broken(*args, **kwargs):
        calls.append(1)
        if len(calls) == which:
            raise InternalConsistencyError(f"{name} broken on call {which}")
        return engine(*args, **kwargs)

    monkeypatch.setattr(checks, name, broken)


def test_failure_cases_cover_every_suite():
    assert [case[0] for case in FAILURE_CASES] == [name for name, _, _ in checks.SUITES]


@pytest.mark.parametrize("suite_name, engine, keys", FAILURE_CASES, ids=[c[0] for c in FAILURE_CASES])
def test_a_failing_sample_is_recorded_with_its_dump(monkeypatch, suite_name, engine, keys):
    s = catalog_scenario("a2")
    suite = {name: fn for name, fn, _ in checks.SUITES}[suite_name]
    fail_on_call(monkeypatch, engine, 2)
    res = suite(s, random.Random(f"failure:{suite_name}"), 3)
    assert res.name == suite_name
    assert res.passed == 2 and not res.ok and len(res.failures) == 1
    failure = res.failures[0]
    assert list(failure) == ["sample", "error", *keys]
    assert failure["sample"] == 1 and failure["error"] == f"{engine} broken on call 2"
    dumps = [failure[k] for k in keys]
    dumps = [d for dump in dumps for d in (dump if isinstance(dump, list) else [dump])]
    assert all(d["scenario"] == "a2" and set(d) == {"scenario", "dims", "eta"} for d in dumps)


def test_check_exits_1_and_prints_the_dump(monkeypatch, capsys):
    fail_on_call(monkeypatch, "euler_form", 2)
    assert main(["check", "--scenario", "catalog:a2", "--seed", "1", "--samples", "3"]) == 1
    out = capsys.readouterr().out
    assert "counterexample dump:" in out and '"sample": 1' in out
