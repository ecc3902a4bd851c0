"""`src/isocat` imports nothing but the standard library and isocat itself."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "isocat"


def foreign_imports(source: str, name: str = "<src>") -> list[str]:
    """The absolute imports of a module that are neither isocat nor in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return [m for m in found if m.split(".")[0] != "isocat" and m.split(".")[0] not in sys.stdlib_module_names]


def test_the_import_scan_sees_absolute_imports_only():
    snippet = ("import numpy.linalg\nfrom sympy import Matrix\nimport json, os.path\n"
               "from . import exactalg\nfrom .extcat import hom\nfrom isocat.species import rationals\n"
               "def f():\n    import scipy\n")
    assert foreign_imports(snippet) == ["numpy.linalg", "sympy", "scipy"]


def test_src_imports_only_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10 and SRC / "extcat.py" in modules
    bad = {p.name: foreign_imports(p.read_text(), str(p)) for p in modules}
    assert not {k: v for k, v in bad.items() if v}
