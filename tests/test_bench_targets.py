"""The traced benchmark pass wraps names it looks up in isocat by string.

A rename in `src/isocat` would only surface when that pass runs; this test
resolves every (module, attribute) pair of `bench/spans.TARGETS`, plus the
module state the tracer reads, against the installed package.  The same
holds for every pass and the names the bench imports or rebinds.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


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


def bench_isocat_imports() -> list[tuple[str, str]]:
    """(module, name) of every `from isocat... import name` in `bench/*.py`, at any depth."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "isocat":
                found += [(node.module, alias.name) for alias in node.names]
    return found


def test_every_name_the_bench_imports_from_isocat_resolves():
    # a rename in `src/isocat` would fail every bench run; it fails here first
    imports = bench_isocat_imports()
    assert ("isocat.extcat", "euler_form") in imports and ("isocat", "checks") in imports
    for modname, name in imports:
        owner = importlib.import_module(modname)
        assert hasattr(owner, name) or importlib.util.find_spec(f"{modname}.{name}"), \
            f"{modname}.{name} does not resolve"


def test_the_checks_attributes_the_bench_rebinds_resolve():
    # workloads.py rebinds checks.ring_center and checks.decompose and reads
    # checks.SUITES; a rebinding of a name checks no longer has would be silently dropped
    tree = ast.parse((BENCH / "workloads.py").read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "checks"}
    assert {"ring_center", "decompose", "SUITES"} <= used
    from isocat import checks
    for name in used:
        assert hasattr(checks, name), f"isocat.checks.{name} does not resolve"
    assert callable(checks.ring_center) and callable(checks.decompose) and checks.SUITES
