"""A ratchet on module-level mutable state in `src/isocat`.

Every `global` statement is reported, and so is every write from inside a
function to a name bound at module level that no local of the function
(or of a function around it) shadows.  A write is an item or attribute
assignment or deletion, or a call to a mutating method.  The allowlist
names what is left; emptying it is the goal.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "isocat"

MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop", "popitem", "clear",
            "remove", "add", "discard"}

ALLOWED = {
    "extcat._HOM_CACHE: item assignment",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound_names(node: ast.AST) -> set[str]:
    """Names node binds in its own scope: stores, imports and defs, not those inside nested functions."""
    names = set()
    todo = list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del)):
            names.add(n.id)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in n.names)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            names.add(n.name)
        elif isinstance(n, ast.arg):
            names.add(n.arg)
        if isinstance(n, (*_FUNCTIONS, ast.ClassDef)):
            if not isinstance(n, ast.Lambda):
                names.add(n.name)
            if isinstance(n, _FUNCTIONS):
                todo.extend(n.args.defaults + n.args.kw_defaults)  # evaluated in this scope
                continue
        todo.extend(ast.iter_child_nodes(n))
    return names - {None}


def _root(node: ast.AST):
    """The name a chain of subscripts and attributes starts from, or None."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _targets(node: ast.AST):
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def module_state_writes(source: str, module: str = "<src>") -> set[str]:
    """'module.name: kind' for every `global` and every in-function write to module-level state."""
    tree = ast.parse(source, module)
    module_names = _bound_names(tree)
    found = set()

    def visit(node: ast.AST, shadowed: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = shadowed
            if isinstance(child, _FUNCTIONS):
                declared = {name for n in ast.walk(child) if isinstance(n, ast.Global) for name in n.names}
                inner = (shadowed or set()) | (_bound_names(child) - declared)
            elif shadowed is not None:  # inside a function
                writes = []
                if isinstance(child, ast.Global):
                    found.update(f"{module}.{name}: global" for name in child.names)
                elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                    verb = "deletion" if isinstance(child, ast.Delete) else "assignment"
                    targets = child.targets if hasattr(child, "targets") else [child.target]
                    for t in (t for tt in targets for t in _targets(tt)):
                        if isinstance(t, (ast.Subscript, ast.Attribute)):
                            kind = "item" if isinstance(t, ast.Subscript) else "attribute"
                            writes.append((t, f"{kind} {verb}"))
                elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                      and child.func.attr in MUTATORS):
                    writes.append((child.func.value, f"{child.func.attr}()"))
                for target, kind in writes:
                    name = _root(target)
                    if name in module_names and name not in shadowed:
                        found.add(f"{module}.{name}: {kind}")
            visit(child, inner)

    # module-level code is not inside a function: `None` until a def is entered
    visit(tree, None)
    return found


def test_the_state_scan_flags_writes_to_module_names_only():
    snippet = (
        "import os\n"
        "_SLOT = None\n_CACHE = {}\n_SEEN = []\n_LOG = []\nTOP = {}\nTOP['k'] = 1\n"
        "def put(k):\n    global _SLOT\n    _SLOT = k\n    _CACHE[k] = 1\n"
        "def note(x):\n    _SEEN.append(x)\n    del _CACHE[x]\n"
        "def shadow(_LOG):\n    _LOG.append(1)\n    _LOG[0] = 2\n"
        "def local():\n    _SEEN = []\n    _SEEN.append(1)\n    def inner():\n        _SEEN.clear()\n"
        "def env():\n    os.environ.update({})\n"
        "class C:\n    def m(self):\n        self.x = 1\n        self._memo[1] = 2\n"
    )
    assert module_state_writes(snippet, "m") == {
        "m._SLOT: global", "m._CACHE: item assignment", "m._SEEN: append()",
        "m._CACHE: item deletion", "m.os: update()",
    }


def test_module_level_state_stays_on_the_allowlist():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10 and SRC / "extcat.py" in modules
    found = set().union(*(module_state_writes(p.read_text(), p.stem) for p in modules))
    assert found == ALLOWED
