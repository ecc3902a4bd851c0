"""The traced benchmark pass wraps names it looks up in isocat by string.

A rename in `src/isocat` would only surface when that pass runs; this test
resolves every (module, attribute) pair of `bench/spans.TARGETS`, plus the
module state the tracer reads, against the installed package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for _, modname, attr in targets:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{modname}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{attr} is not callable"


def test_tracer_module_state_resolves():
    from isocat import checks, exactalg, extcat
    assert isinstance(extcat._HOM_CACHE, dict)
    assert all(callable(suite) for _, suite, _ in checks.SUITES)
    assert callable(exactalg.RatMatrix.__init__)
