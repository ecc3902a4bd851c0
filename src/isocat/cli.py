"""The `isocat` command line: batch access to every operation.

Exit codes: 0 success (and finite type), 1 invariant-suite failure, a
failed internal consistency check or any other internal error, 2 input or
validation error, 3 infinite representation type.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import run_all
from .exactalg import AlgebraError
from .extcat import (
    InternalConsistencyError,
    TripleError,
    decompose,
    ext1,
    hom,
    hom_space_dims,
    is_projective,
    projective_resolution,
)
from .fileio import (
    FormatError,
    MAX_DIM,
    MAX_SAMPLES,
    REPORT_SCHEMA,
    load_matrix,
    load_object,
    load_scenario,
    matrix_to_json,
    rational_to_str,
)
from .reptype import ConstructionError, build_root_table, classify, indecomposable_vectors
from .species import ScenarioError, ring_center, ringel_form
from .wittmod import VModule, WittError, WittPartition, realize_partition, witt_partition

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_INFINITE = 3

_INPUT_ERRORS = (FormatError, ScenarioError, TripleError, AlgebraError, WittError)


def _emit(report: dict, fmt: str, lines) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_classify(args) -> int:
    s = load_scenario(args.scenario)
    c = classify(s)
    report = {"schema": REPORT_SCHEMA, "command": "classify", "scenario": s.name,
              "verdict": c.verdict, "diagram": c.diagram, "case": c.case,
              "labels": [{"vertex": cond["vertex"], "g": cond["g"], "n_i": cond["n_i"],
                          "n": cond["n"], "label": list(cond["label"])}
                         for cond in c.conditions]}
    lines = [f"scenario {s.name}: {c.verdict} representation type",
             f"diagram: {c.diagram}", f"case: {c.case}"]
    for cond in c.conditions:
        lines.append(f"  vertex {cond['vertex']}: g={cond['g']} [D:Q]={cond['n_i']} "
                     f"label={cond['label']}")
    _emit(report, args.format, lines)
    return EXIT_OK if c.finite else EXIT_INFINITE


def cmd_ext(args) -> int:
    s = load_scenario(args.scenario)
    objs = args.object or []
    if len(objs) != 2:
        raise FormatError("ext needs exactly two --object files")
    a = load_object(objs[0], s)
    b = load_object(objs[1], s)
    h, e, (su, sv, sf) = len(hom(a, b)), ext1(a, b).dim, hom_space_dims(a, b)
    euler_ok = h - e == ringel_form(s, a.dimension_vector(), b.dimension_vector())
    report = {"schema": REPORT_SCHEMA, "command": "ext", "scenario": s.name,
              "hom": h, "ext1": e, "euler": h - e,
              "component_dims": {"hom_x": su, "hom_y": sv, "hom_f": sf},
              "euler_identity_holds": euler_ok}
    _emit(report, args.format, [
        f"dim hom = {h}", f"dim ext1 = {e}", f"euler form = {h - e}",
        f"five-term identity: {'ok' if euler_ok else 'VIOLATED'}"])
    return EXIT_OK if euler_ok else EXIT_CHECK_FAILED


def _finite_scenario(args, note: str = ""):
    """args' scenario if it is of finite type; else None, with the infinite-type report written."""
    s = load_scenario(args.scenario)
    c = classify(s)
    if c.finite:
        return s
    _emit({"schema": REPORT_SCHEMA, "command": args.command, "scenario": s.name, "verdict": c.verdict},
          args.format, [f"scenario {s.name} has infinite representation type{note}"])
    return None


def cmd_roots(args) -> int:
    s = _finite_scenario(args, "; no root list")
    if s is None:
        return EXIT_INFINITE
    roots = indecomposable_vectors(s)
    report = {"schema": REPORT_SCHEMA, "command": "roots", "scenario": s.name,
              "vertex_order": s.vertex_order(), "count": len(roots),
              "roots": [list(r) for r in roots]}
    lines = [f"{len(roots)} positive roots (order: {', '.join(s.vertex_order())})"]
    lines += ["  " + str(tuple(r)) for r in roots]
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_indec(args) -> int:
    if args.seed is None:
        raise FormatError("indec requires --seed")
    s = _finite_scenario(args)
    if s is None:
        return EXIT_INFINITE
    table = build_root_table(s, args.seed)
    report = {"schema": REPORT_SCHEMA, "command": "indec", "scenario": s.name,
              "vertex_order": s.vertex_order(),
              "entries": [{"root": list(e.root), "certified": e.certified,
                           "total_dim": e.object.total_dim()}
                          for e in table.entries]}
    lines = [f"{len(table.entries)} indecomposables (order: {', '.join(s.vertex_order())})"]
    lines += [f"  root {tuple(e.root)}: total Q-dimension {e.object.total_dim()}, "
              f"{'certified' if e.certified else 'uncertified'}"
              for e in table.entries]
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_resolve(args) -> int:
    s = load_scenario(args.scenario)
    if not args.object:
        raise FormatError("resolve requires --object")
    z = load_object(args.object[0], s)
    res = projective_resolution(z)
    res.verify()
    report = {"schema": REPORT_SCHEMA, "command": "resolve", "scenario": s.name,
              "object_dims": list(z.dimension_vector()),
              "p1_dims": list(res.p1.dimension_vector()),
              "p0_dims": list(res.p0.dimension_vector()),
              "p1_projective": is_projective(res.p1),
              "p0_projective": is_projective(res.p0),
              "exact": True}
    _emit(report, args.format, [
        f"object dims {z.dimension_vector()}",
        f"0 -> P1 {res.p1.dimension_vector()} -> P0 {res.p0.dimension_vector()} -> Z -> 0",
        "both terms projective; sequence exact"])
    return EXIT_OK


def cmd_center(args) -> int:
    s = load_scenario(args.scenario)
    center = ring_center(s)
    elems = [{v: [rational_to_str(c) for c in el[v]] for v in s.vertex_order()}
             for el in center.elements]
    report = {"schema": REPORT_SCHEMA, "command": "center", "scenario": s.name,
              "dim": center.dim, "elements": elems}
    lines = [f"center dimension {center.dim}"]
    for k, el in enumerate(center.elements):
        parts = ", ".join(f"{v}: ({', '.join(rational_to_str(c) for c in el[v])})"
                          for v in s.vertex_order())
        lines.append(f"  z{k}: {parts}")
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_decompose(args) -> int:
    s = load_scenario(args.scenario)
    if not args.object:
        raise FormatError("decompose requires --object")
    z = load_object(args.object[0], s)
    dec = decompose(z)
    report = {"schema": REPORT_SCHEMA, "command": "decompose", "scenario": s.name,
              "flag": dec.flag,
              "summands": [list(sm.object.dimension_vector()) for sm in dec.summands]}
    lines = [f"{len(dec.summands)} summands ({dec.flag})"]
    lines += [f"  {tuple(sm.object.dimension_vector())}" for sm in dec.summands]
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_witt(args) -> int:
    if args.partition:
        try:
            parts = tuple(int(p) for p in args.partition.replace(",", " ").split())
        except ValueError:
            raise FormatError(f"bad partition literal {args.partition!r:.40}")
        size = sum(parts)
        if size > MAX_DIM:  # a sum of 4300-digit parts may have more digits than str() converts
            size = size if size < 10 ** 40 else "more than 10^40"
            raise FormatError(f"partition of {size} is over the size cap {MAX_DIM}")
        p = WittPartition(parts)
        m = realize_partition(p)
        back = witt_partition(m)
        report = {"schema": REPORT_SCHEMA, "command": "witt",
                  "partition": list(p.parts), "dim": p.size,
                  "operator": matrix_to_json(m.v_op),
                  "roundtrip_ok": back == p}
        _emit(report, args.format,
              [f"partition {p.parts} realized on dimension {p.size}",
               f"roundtrip: {'ok' if back == p else 'FAILED'}"])
        return EXIT_OK
    if not args.op:
        raise FormatError("witt requires --op FILE or --partition LIST")
    mat = load_matrix(args.op)
    m = VModule(mat.rows, mat)
    p = witt_partition(m)
    report = {"schema": REPORT_SCHEMA, "command": "witt",
              "dim": m.dim, "partition": list(p.parts)}
    _emit(report, args.format, [f"partition: {p.parts}"])
    return EXIT_OK


def cmd_check(args) -> int:
    if args.seed is None:
        raise FormatError("check requires --seed")
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise FormatError(f"check requires --samples from 1 to {MAX_SAMPLES}")
    s = load_scenario(args.scenario)
    results = run_all(s, args.seed, args.samples)
    ok = all(r.ok for r in results)
    report = {"schema": REPORT_SCHEMA, "command": "check", "scenario": s.name,
              "seed": args.seed, "samples": args.samples, "ok": ok,
              "suites": [{"name": r.name, "passed": r.passed,
                          "failures": r.failures} for r in results]}
    lines = [f"invariant suites on {s.name} (seed {args.seed}):"]
    for r in results:
        status = "ok" if r.ok else f"{len(r.failures)} FAILURES"
        lines.append(f"  {r.name:24s} passed {r.passed:5d}  {status}")
    if not ok:
        lines.append("counterexample dump:")
        for r in results:
            for f in r.failures[:1]:
                lines.append("  " + json.dumps(f))
    _emit(report, args.format, lines)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isocat",
        description="Exact computations in triple categories over a Q-species")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "classify": cmd_classify, "ext": cmd_ext, "roots": cmd_roots,
        "indec": cmd_indec, "resolve": cmd_resolve, "center": cmd_center,
        "decompose": cmd_decompose, "witt": cmd_witt, "check": cmd_check,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        if name != "witt":
            p.add_argument("--scenario", required=True,
                           help="path to a scenario file, or catalog:ID")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if name in ("ext", "resolve", "decompose"):
            p.add_argument("--object", action="append",
                           help="path to an object file (repeatable)")
        if name in ("indec", "check"):
            p.add_argument("--seed", type=int, default=None)
        if name == "check":
            p.add_argument("--samples", type=int, default=100)
        if name == "witt":
            p.add_argument("--op", help="path to an operator matrix file")
            p.add_argument("--partition", help="comma-separated positive parts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except ConstructionError as ex:
        print(f"error: {ex}", file=sys.stderr)
        for line in ex.attempts[-4:]:
            print("  " + line, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except InternalConsistencyError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except Exception as ex:  # a fault of the program: one line, no traceback
        print(f"error: internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
