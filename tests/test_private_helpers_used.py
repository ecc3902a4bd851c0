"""Every private function or method in `src/isocat` is referenced somewhere else in `src/isocat`."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "isocat"


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """'module:name' of each private def (one leading underscore) that no other code names.

    A reference is a name, an attribute or an imported name anywhere in the
    sources, outside the def's own body, so a helper that only calls itself
    counts as unused.
    """
    defs, refs = [], []
    for module, source in sources.items():
        tree = ast.parse(source, module)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defs.append((module, node))
            elif isinstance(node, ast.Name):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
            elif isinstance(node, ast.alias):
                refs.append((node.name, node))
    unused = []
    for module, fn in defs:
        inside = {id(n) for n in ast.walk(fn)}
        if not any(name == fn.name and id(node) not in inside for name, node in refs):
            unused.append(f"{module}:{fn.name}")
    return unused


def test_the_scan_finds_helpers_without_a_caller():
    sources = {
        "a": "def _used():\n    pass\n\ndef _orphan():\n    return _orphan()\n\n"
             "class C:\n    def _method(self):\n        return self._other()\n    def _other(self):\n        pass\n",
        "b": "from .a import _used\n\ndef __dunder__():\n    pass\n",
    }
    assert unreferenced_private(sources) == ["a:_orphan", "a:_method"]


def test_every_private_helper_in_src_has_a_caller():
    sources = {p.name: p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert len(sources) >= 10 and "extcat.py" in sources
    assert unreferenced_private(sources) == []
