"""JSON file formats: scenarios, objects, matrices and reports.

All rationals travel as strings ("p/q" or "p"); floats are rejected.
Matrices are row-major grids.  Action lists carry one matrix per algebra
basis element.  The column order of every eta matrix is the slot order of
the tensor space: y-vertices in scenario declaration order, and per
bimodule the slots m_i (x) f_c with i outermost (greedy right basis of the
bimodule), then c (the basis the y component is written in).  This is the
order the library computes with, so serialized objects round-trip
bit-exactly.  Files written before this order was adopted used slots
m_i (x) (e_b . v_j), ordered (i, j, b), over a greedy algebra basis v_j of
the y component.  Such a file reads with the same results when its y
components are canonical, unless a y algebra is non-commutative and its
e_0 is not the unit.
"""

from __future__ import annotations

import json
from fractions import Fraction
from .catalog import catalog_scenario
from .exactalg import Polynomial, RatMatrix
from .extcat import TripleError, TripleObject, VertexSpace, _eta_error, _space_error
from .species import (
    Bimodule,
    DivisionAlgebraHandle,
    SpeciesScenario,
    number_field,
    rationals,
)

SCENARIO_SCHEMA = "isocat/scenario-v1"
OBJECT_SCHEMA = "isocat/object-v1"
MATRIX_SCHEMA = "isocat/matrix-v1"
REPORT_SCHEMA = "isocat/report-v1"


# Largest vertex or bimodule dim a document may declare, and largest scenario vertex
# count: the loaders build dense matrices of that dim (an identity where actions are
# implied) and classification costs a power of the count, so both are checked first.
MAX_DIM = 1024
MAX_VERTICES = 64


class FormatError(ValueError):
    pass


def rational_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_from_json(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise FormatError(f"rationals must be strings or integers, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as ex:
            raise FormatError(f"bad rational literal {value!r}: {ex}")
    raise FormatError(f"bad rational literal {value!r}")


def matrix_to_json(m: RatMatrix) -> list[list[str]]:
    return [[rational_to_str(e) for e in row] for row in m.to_fractions()]


def matrix_from_json(grid, rows: int | None = None, cols: int | None = None) -> RatMatrix:
    if not isinstance(grid, list) or any(not isinstance(r, list) for r in grid):
        raise FormatError("matrix must be a list of rows")
    parsed = [[rational_from_json(e) for e in row] for row in grid]
    if rows is not None and len(parsed) != rows:
        raise FormatError(f"matrix has {len(parsed)} rows, expected {rows}")
    if parsed:
        width = len(parsed[0])
        if any(len(r) != width for r in parsed):
            raise FormatError("matrix rows have inconsistent lengths")
    else:
        width = 0 if cols is None else cols
    if cols is not None and width != cols:
        raise FormatError(f"matrix has {width} columns, expected {cols}")
    if not parsed:
        return RatMatrix.zeros(0, width)
    return RatMatrix.from_rows(parsed)


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

def _algebra_to_json(h: DivisionAlgebraHandle) -> dict:
    if h.dim == 1:
        return {"kind": "Q"}
    if h.minpoly is None:
        raise FormatError("only Q and number fields are serializable")
    return {"kind": "number_field",
            "minpoly": [rational_to_str(c) for c in h.minpoly.coeffs]}


def _json_list(doc: dict, key: str, default=None) -> list:
    """doc[key], which must be a list; default if the key is absent."""
    value = doc.get(key, default)
    if not isinstance(value, list):
        raise FormatError(f"{key!r} must be a list")
    return value


def _algebra_from_json(doc) -> DivisionAlgebraHandle:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("algebra must be an object with a 'kind'")
    if doc["kind"] == "Q":
        return rationals()
    if doc["kind"] == "number_field":
        coeffs = [rational_from_json(c) for c in _json_list(doc, "minpoly", [])]
        if len(coeffs) < 2:
            raise FormatError("number_field needs a minpoly of degree >= 1")
        return number_field(Polynomial(coeffs))
    raise FormatError(f"unknown algebra kind {doc['kind']!r}")


def scenario_to_json(s: SpeciesScenario) -> dict:
    bims = []
    for (x, y), bm in sorted(s.bimodules.items()):
        entry = {"x": x, "y": y, "dim": bm.dim}
        scalar = (bm.left_alg.dim == 1 and bm.right_alg.dim == 1
                  and bm.left_action[0] == RatMatrix.identity(bm.dim)
                  and bm.right_action[0] == RatMatrix.identity(bm.dim))
        if not scalar:
            entry["left_action"] = [matrix_to_json(m) for m in bm.left_action]
            entry["right_action"] = [matrix_to_json(m) for m in bm.right_action]
        bims.append(entry)
    return {
        "schema": SCENARIO_SCHEMA,
        "name": s.name,
        "x_vertices": [{"id": v, "algebra": _algebra_to_json(h)} for v, h in s.x_vertices],
        "y_vertices": [{"id": v, "algebra": _algebra_to_json(h)} for v, h in s.y_vertices],
        "bimodules": bims,
    }


def scenario_from_json(doc) -> SpeciesScenario:
    if not isinstance(doc, dict) or doc.get("schema") != SCENARIO_SCHEMA:
        raise FormatError(f"expected a {SCENARIO_SCHEMA} document")
    xv, yv = _json_list(doc, "x_vertices"), _json_list(doc, "y_vertices")
    if len(xv) + len(yv) > MAX_VERTICES:  # before any vertex algebra is certified
        raise FormatError(f"scenario has {len(xv) + len(yv)} vertices (at most {MAX_VERTICES})")
    for v in xv + yv:
        if not isinstance(v, dict) or not isinstance(v.get("id"), str):
            raise FormatError(f"bad vertex entry {v!r}: an object with a string 'id'")
    xs, ys = ([(v["id"], _algebra_from_json(v.get("algebra"))) for v in side] for side in (xv, yv))
    xmap, ymap = dict(xs), dict(ys)
    bims = {}
    for entry in _json_list(doc, "bimodules", []):
        if not isinstance(entry, dict):
            raise FormatError(f"bad bimodule entry {entry!r}: not an object")
        x, y, dim = entry.get("x"), entry.get("y"), entry.get("dim")
        if not (isinstance(x, str) and isinstance(y, str) and x in xmap and y in ymap):
            raise FormatError(f"bimodule ({x!r}, {y!r}) references unknown vertices")
        if not isinstance(dim, int) or not 0 <= dim <= MAX_DIM:
            raise FormatError(f"bimodule ({x!r}, {y!r}) has a bad dimension (an int from 0 to {MAX_DIM})")
        if "left_action" in entry or "right_action" in entry:
            left = [matrix_from_json(m, dim, dim) for m in _json_list(entry, "left_action")]
            right = [matrix_from_json(m, dim, dim) for m in _json_list(entry, "right_action")]
        else:
            if xmap[x].dim != 1 or ymap[y].dim != 1:
                raise FormatError(
                    f"bimodule ({x!r}, {y!r}): actions may only be omitted over Q on both sides")
            left = [RatMatrix.identity(dim)]
            right = [RatMatrix.identity(dim)]
        bims[(x, y)] = Bimodule(xmap[x], ymap[y], dim, left, right)
    return SpeciesScenario(doc.get("name", "unnamed"), xs, ys, bims)


# ----------------------------------------------------------------------
# objects
# ----------------------------------------------------------------------

def object_to_json(z: TripleObject) -> dict:
    def side(ids, parts):
        return {v: {"dim": parts[v].dim,
                    "action": [matrix_to_json(m) for m in parts[v].action]}
                for v in ids}

    return {
        "schema": OBJECT_SCHEMA,
        "scenario": z.scenario.name,
        "x": side(z.scenario.x_ids, z.x),
        "y": side(z.scenario.y_ids, z.y),
        "eta": {x: matrix_to_json(z.eta[x]) for x in z.scenario.x_ids},
    }


def object_from_json(doc, scenario: SpeciesScenario) -> TripleObject:
    if not isinstance(doc, dict) or doc.get("schema") != OBJECT_SCHEMA:
        raise FormatError(f"expected a {OBJECT_SCHEMA} document")
    if doc.get("scenario") not in (None, scenario.name):
        raise FormatError(f"object belongs to scenario {doc.get('scenario')!r}, "
                          f"not {scenario.name!r}")

    for name in ("x", "y", "eta"):
        if not isinstance(doc.get(name, {}), dict):
            raise FormatError(f"{name!r} must be an object keyed by vertex id")

    def side(ids, section):
        out = {}
        for v in ids:
            if v not in section:
                raise FormatError(f"missing component at vertex {v!r}")
            entry = section[v]
            if not isinstance(entry, dict) or not isinstance(entry.get("action", []), list):
                raise FormatError(f"component at vertex {v!r} must be an object with an action list")
            dim = entry.get("dim")
            if not isinstance(dim, int) or not 0 <= dim <= MAX_DIM:
                raise FormatError(f"bad dimension at vertex {v!r} (an int from 0 to {MAX_DIM})")
            action = [matrix_from_json(m, dim, dim) for m in entry.get("action", [])]
            n = scenario.algebra(v).dim
            if len(action) != n:
                if dim == 0:
                    action = [RatMatrix.zeros(0, 0)] * n
                elif n == 1 and not action:
                    action = [RatMatrix.identity(dim)]
                else:
                    raise FormatError(f"vertex {v!r} needs {n} action matrices")
            out[v] = VertexSpace(dim, action)
            err = _space_error(scenario.algebra(v).spec, out[v])  # before F(Y) is built
            if err is not None:
                raise FormatError(f"component at vertex {v!r}: {err}")
        return out

    x_parts = side(scenario.x_ids, doc.get("x", {}))
    y_parts = side(scenario.y_ids, doc.get("y", {}))
    from .extcat import _f_layout
    fdims = {x: f.dim for x, f in _f_layout(scenario, y_parts).items()}
    eta = {}
    for v in scenario.x_ids:
        grid = doc.get("eta", {}).get(v)
        if grid is None:
            raise FormatError(f"missing eta at vertex {v!r}")
        # an empty grid cannot carry its column count; rebuild it at the
        # tensor dimension the scenario dictates
        eta[v] = matrix_from_json(grid, rows=x_parts[v].dim,
                                  cols=fdims[v] if not grid else None)
    z = TripleObject(scenario, x_parts, y_parts, eta, check=False)  # components checked in side()
    err = _eta_error(z)
    if err is not None:
        raise TripleError(err)
    return z


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------

def _read_json(path: str):
    """The JSON document in a file; an unreadable file or invalid JSON is a FormatError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as ex:
        raise FormatError(f"cannot read {path}: {ex}")
    except json.JSONDecodeError as ex:
        raise FormatError(f"{path}: not valid JSON: {ex}")


def load_scenario(ref: str) -> SpeciesScenario:
    """Load from "catalog:ID" or from a JSON file path."""
    if ref.startswith("catalog:"):
        name = ref.split(":", 1)[1]
        try:
            return catalog_scenario(name)
        except KeyError as ex:
            raise FormatError(str(ex))
    return scenario_from_json(_read_json(ref))


def load_object(path: str, scenario: SpeciesScenario) -> TripleObject:
    return object_from_json(_read_json(path), scenario)


def load_matrix(path: str) -> RatMatrix:
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("schema") != MATRIX_SCHEMA:
        raise FormatError(f"expected a {MATRIX_SCHEMA} document")
    grid = doc.get("matrix", [])
    if isinstance(grid, list) and len(grid) > MAX_DIM:
        raise FormatError(f"operator matrix has {len(grid)} rows, more than {MAX_DIM}")
    m = matrix_from_json(grid)
    if m.rows != m.cols:
        raise FormatError("operator matrix must be square")
    return m
