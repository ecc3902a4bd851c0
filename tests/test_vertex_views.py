"""Code in `src/isocat` reads an object's spaces from `parts` and a morphism's maps from `maps`.

`TripleObject.x`/`.y` and `TripleMorphism.u`/`.v`, one side each, are views
for outside callers; code that read them would split the one space or map
per vertex and then merge the sides back.
"""

import ast
import pathlib
import random

from isocat.catalog import CATALOG_IDS, catalog_scenario
from isocat.extcat import hom, identity_morphism
from isocat.samples import random_object

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "isocat"

VIEWS = {"x", "y", "u", "v"}


def view_uses(source: str, name: str = "<src>") -> list[str]:
    """'line: .attr' for each attribute read or write of a view name; a `x = property(...)` definition is none."""
    tree = ast.parse(source, name)
    return sorted(f"{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in VIEWS)


def test_the_view_scan_sees_reads_and_writes_but_not_the_definitions():
    snippet = ("class T:\n    x = property(lambda self: {})\n    u = property(lambda self: {})\n"
               "def f(z, m, x):\n    z.y = {}\n    return z.x, m.u[x], {**z.v, **z.parts}, x\n")
    assert view_uses(snippet) == ["5: .y", "6: .u", "6: .v", "6: .x"]


def test_src_reads_no_per_side_view():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10 and SRC / "extcat.py" in modules
    assert "u = property(" in (SRC / "extcat.py").read_text()
    found = {p.name: view_uses(p.read_text(), str(p)) for p in modules}
    assert not {k: v for k, v in found.items() if v}


def test_views_are_fresh_per_side_splits_of_parts_and_maps():
    for name in CATALOG_IDS:
        s = catalog_scenario(name)
        z = random_object(s, random.Random(name), max_mult=1)
        assert list(z.parts) == s.vertex_order()
        assert z.x == {x: z.parts[x] for x in s.x_ids} and z.y == {y: z.parts[y] for y in s.y_ids}
        assert z.x is not z.x and z.y is not z.y
        z.x.clear(), z.y.clear()  # a view is a copy: clearing one leaves the object whole
        assert list(z.parts) == s.vertex_order()
        for m in [identity_morphism(z), *hom(z, z)]:
            assert list(m.maps) == s.vertex_order()
            assert m.u == {x: m.maps[x] for x in s.x_ids} and m.v == {y: m.maps[y] for y in s.y_ids}
            assert m.u is not m.u and m.v is not m.v
