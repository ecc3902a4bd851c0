"""`src/isocat` draws randomness only from explicit `random.Random` generators, never from global state."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "isocat"


def global_draws(source: str, name: str = "<src>") -> list[str]:
    """The uses of the random module other than `random.Random`, whose draws share global state."""
    tree = ast.parse(source, name)
    modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "random"}
    found = [f"from random import {alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "random" and node.level == 0
             for alias in node.names if alias.name != "Random"]
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr != "Random"]
    return sorted(found)


def test_the_random_scan_sees_module_level_draws():
    snippet = ("import random\nimport random as rnd\nfrom random import Random, shuffle\n"
               "rng = random.Random(1)\nother = Random(2)\n"
               "def f(r: random.Random) -> int:\n    return random.randrange(3) + rnd.random()\n"
               "random.seed(0)\nrng.shuffle([1, 2])\n")
    assert global_draws(snippet) == ["from random import shuffle", "random.randrange",
                                     "random.seed", "rnd.random"]


def test_src_draws_only_from_seeded_generators():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10 and SRC / "samples.py" in modules
    assert "random.Random" in (SRC / "samples.py").read_text()
    bad = {p.name: global_draws(p.read_text(), str(p)) for p in modules}
    assert not {k: v for k, v in bad.items() if v}
