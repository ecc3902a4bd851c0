"""Round-trip and exit-code tests for the file formats and the CLI."""

import copy
import json
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isocat.catalog import CATALOG_IDS, catalog_scenario
from isocat.cli import _INPUT_ERRORS, main
from isocat.extcat import simple_x_object, simple_y_object, universal_extension_of
from isocat.fileio import (
    MAX_DIM,
    MAX_VERTICES,
    MATRIX_SCHEMA,
    FormatError,
    load_matrix,
    load_scenario,
    object_from_json,
    object_to_json,
    scenario_from_json,
    scenario_to_json,
)
from isocat.samples import random_object


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------

def test_scenario_roundtrip_catalog():
    for name in CATALOG_IDS:
        s = catalog_scenario(name)
        doc = scenario_to_json(s)
        again = scenario_from_json(json.loads(json.dumps(doc)))
        assert scenario_to_json(again) == doc
        assert again.x_ids == s.x_ids and again.y_ids == s.y_ids
        for key, bm in s.bimodules.items():
            bm2 = again.bimodules[key]
            assert bm2.dim == bm.dim
            assert bm2.left_action == bm.left_action
            assert bm2.right_action == bm.right_action


def test_object_roundtrip_bit_exact():
    rng = random.Random(5)
    for name in ("d4_elliptic", "c2", "g2_threefold", "b2_dual"):
        s = catalog_scenario(name)
        z = random_object(s, rng)
        doc = object_to_json(z)
        again = object_from_json(json.loads(json.dumps(doc)), s)
        assert again.data_key() == z.data_key()
        assert object_to_json(again) == doc


def test_rationals_serialized_as_strings():
    s = catalog_scenario("c2")
    doc = scenario_to_json(s)
    blob = json.dumps(doc)
    assert "." not in blob.replace("isocat/scenario-v1", "")  # no floats anywhere


def test_object_rejects_wrong_scenario():
    s = catalog_scenario("c2")
    z = simple_x_object(s, "u")
    doc = object_to_json(z)
    with pytest.raises(FormatError):
        object_from_json(doc, catalog_scenario("a2"))


def test_load_scenario_catalog_and_unknown():
    assert load_scenario("catalog:a2").name == "a2"
    with pytest.raises(FormatError):
        load_scenario("catalog:nope")


# ----------------------------------------------------------------------
# CLI exit codes and reports
# ----------------------------------------------------------------------

def test_cli_classify_exit_codes(capsys):
    assert main(["classify", "--scenario", "catalog:d4_elliptic"]) == 0
    assert main(["classify", "--scenario", "catalog:two_surfaces"]) == 3
    out = capsys.readouterr().out
    assert "D4" in out and "infinite" in out


def test_cli_classify_json(capsys):
    assert main(["classify", "--scenario", "catalog:g2_threefold", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "isocat/report-v1"
    assert doc["diagram"] == "G2" and doc["case"] == "G2"


def test_cli_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["classify", "--scenario", str(bad)]) == 2


def test_cli_tampered_scenario_fails_validation(tmp_path):
    doc = scenario_to_json(catalog_scenario("c2"))
    doc["y_vertices"][0]["algebra"]["minpoly"] = ["-1", "0", "1"]  # t^2 - 1 splits
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--scenario", str(path)]) == 2


def test_cli_uncertifiable_minpoly_exits_2(tmp_path, capsys):
    doc = scenario_to_json(catalog_scenario("c2"))
    doc["y_vertices"][0]["algebra"]["minpoly"] = ["1000000000007", "0", "0", "0", "0", "0", "1"]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "could not be certified" in err
    assert err.count("\n") == 1


def test_cli_tampered_bimodule_actions(tmp_path):
    doc = scenario_to_json(catalog_scenario("c2"))
    entry = doc["bimodules"][0]
    entry["left_action"] = [[["2", "0"], ["0", "2"]]]  # not unital
    entry["right_action"] = [[["1", "0"], ["0", "1"]], [["0", "2"], ["1", "0"]]]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--scenario", str(path)]) == 2


def test_cli_rejects_an_over_cap_bimodule_dim(tmp_path, capsys):
    # scalar actions are implied over Q, so an uncapped dim would allocate a
    # 10**9 x 10**9 identity before any other check
    doc = scenario_to_json(catalog_scenario("a2"))
    doc["bimodules"][0]["dim"] = 10 ** 9
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"from 0 to {MAX_DIM}" in err


def test_cli_rejects_an_over_cap_object_dim(tmp_path, capsys):
    # a Q vertex without actions gets an identity of its dim
    doc = object_to_json(simple_y_object(catalog_scenario("a2"), "a1"))
    doc["y"]["a1"] = {"dim": 10 ** 9}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["decompose", "--scenario", "catalog:a2", "--object", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"from 0 to {MAX_DIM}" in err
    doc["y"]["a1"] = {"dim": MAX_DIM}
    with pytest.raises(FormatError, match="eta"):  # the cap itself is accepted
        object_from_json({**doc, "eta": {}}, catalog_scenario("a2"))


@pytest.mark.parametrize("patch", [{"x": {"u": 5}}, {"eta": [1]}],
                         ids=["vertex-entry-not-an-object", "eta-not-an-object"])
def test_cli_rejects_a_malformed_object_file(tmp_path, capsys, patch):
    doc = {**object_to_json(simple_y_object(catalog_scenario("a2"), "a1")), **patch}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["decompose", "--scenario", "catalog:a2", "--object", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_object_loader_checks_each_component_once(tmp_path, capsys, monkeypatch):
    # the loader checks every component itself, then builds the object without
    # repeating those checks; eta equivariance is still checked, and exits 2
    import isocat.extcat as extcat
    import isocat.fileio as fileio

    s = catalog_scenario("b2_dual")
    doc = object_to_json(random_object(s, random.Random(7), max_mult=2))
    checked = []
    real = fileio._space_error

    def counted(alg, vs):
        checked.append(1)
        return real(alg, vs)

    def no_second_check(*args):
        raise AssertionError("the components were checked twice")

    monkeypatch.setattr(fileio, "_space_error", counted)
    monkeypatch.setattr(extcat, "_components_error", no_second_check)
    object_from_json(doc, s)
    assert len(checked) == len(s.x_ids) + len(s.y_ids)
    # over Q(sqrt 2), eta = diag(1, 2) is not a right multiplication
    bad = {**doc, "x": {"u": {"dim": 2, "action": [[["1", "0"], ["0", "1"]], [["0", "2"], ["1", "0"]]]}},
           "y": {"a1": {"dim": 1}}, "eta": {"u": [["1", "0"], ["0", "2"]]}}
    path = tmp_path / "not-equivariant.json"
    path.write_text(json.dumps(bad))
    assert main(["decompose", "--scenario", "catalog:b2_dual", "--object", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not equivariant" in err


def _hostile_c2(edit):
    doc = scenario_to_json(catalog_scenario("c2"))
    edit(doc)
    return doc


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(bimodules=5),
    lambda doc: doc["bimodules"][0].pop("left_action"),
    lambda doc: doc["bimodules"][0].update(left_action=5),
    lambda doc: doc["x_vertices"][0].update(id=["u"]),
    lambda doc: doc["bimodules"][0].update(x=["u"]),
], ids=["bimodules-not-a-list", "right-action-only", "left-action-not-a-list",
        "vertex-id-a-list", "bimodule-x-a-list"])
def test_cli_rejects_a_hostile_scenario_file(tmp_path, capsys, edit):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(_hostile_c2(edit)))
    assert main(["roots", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# one field of a valid document replaced by a value of another JSON type;
# ints stay small, so a drawn dim or size stays at most 8
_HOSTILE = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8),
    st.sampled_from(["", "u", "a1", "Q", "number_field", "1/0", "-1/2", "x"]),
    st.lists(st.integers(-2, 8), max_size=3),
    st.lists(st.lists(st.sampled_from(["0", "1", 1]), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["kind", "id", "dim", "u", "a1"]), st.integers(0, 3), max_size=2),
)


def _paths(node, path=()):
    """Every path into a JSON document, through the first and last item of each list."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = [(i, node[i]) for i in sorted({0, len(node) - 1}) if node]
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(data, doc):
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(_HOSTILE)
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _load_matrix_doc(doc):
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(doc, fh)
        fh.flush()
        return load_matrix(fh.name)


_FUZZ_SCENARIOS = [catalog_scenario(name) for name in ("a2", "c2", "b2_dual")]
_FUZZ_DOCS = (
    [(scenario_from_json, scenario_to_json(s)) for s in _FUZZ_SCENARIOS]
    + [(lambda doc, s=s: object_from_json(doc, s), object_to_json(z))
       for s in _FUZZ_SCENARIOS
       for z in (random_object(s, random.Random(4), max_mult=1),
                 universal_extension_of(simple_y_object(s, s.y_ids[0])))]
    + [(_load_matrix_doc, {"schema": MATRIX_SCHEMA, "matrix": [["0", "1"], ["0", "0"]]})]
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_json_loaders_raise_only_input_errors(data):
    loader, doc = data.draw(st.sampled_from(_FUZZ_DOCS))
    try:
        loader(_replaced(data, doc))
    except _INPUT_ERRORS:
        pass


def _write_object(tmp_path, name, z):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(object_to_json(z)))
    return str(path)


def test_cli_ext_simple_on_simple(tmp_path, capsys):
    s = catalog_scenario("c2")
    a = _write_object(tmp_path, "ysimple", simple_y_object(s, "a1"))
    b = _write_object(tmp_path, "xsimple", simple_x_object(s, "u"))
    assert main(["ext", "--scenario", "catalog:c2", "--object", a, "--object", b,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hom"] == 0
    assert doc["ext1"] == 2  # the bimodule's Q-dimension
    assert doc["euler_identity_holds"]


def test_cli_ext_self_hom_positive(tmp_path, capsys):
    s = catalog_scenario("a2")
    a = _write_object(tmp_path, "self", simple_y_object(s, "a1"))
    assert main(["ext", "--scenario", "catalog:a2", "--object", a, "--object", a,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hom"] >= 1


def test_cli_ext_projective_source(tmp_path, capsys):
    s = catalog_scenario("a2")
    ey = universal_extension_of(simple_y_object(s, "a1"))
    a = _write_object(tmp_path, "ey", ey)
    rng = random.Random(8)
    b = _write_object(tmp_path, "probe", random_object(s, rng))
    assert main(["ext", "--scenario", "catalog:a2", "--object", a, "--object", b,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ext1"] == 0


def test_cli_ext_scenario_mismatch(tmp_path):
    s = catalog_scenario("c2")
    a = _write_object(tmp_path, "obj", simple_x_object(s, "u"))
    assert main(["ext", "--scenario", "catalog:a2", "--object", a, "--object", a]) == 2


def test_cli_roots_infinite(capsys):
    assert main(["roots", "--scenario", "catalog:two_surfaces"]) == 3


def test_cli_roots_counts(capsys):
    assert main(["roots", "--scenario", "catalog:g2_threefold", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 6


def test_cli_root_enumeration_cap_exits_2(monkeypatch, capsys):
    import isocat.species as species
    monkeypatch.setattr(species, "_ROOT_ENUM_CAP", 3)
    assert main(["roots", "--scenario", "catalog:d4_elliptic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _chain_doc(n):
    """An A_n chain over Q, alternating x- and y-vertices."""
    ids = [f"x{i // 2}" if i % 2 == 0 else f"y{i // 2}" for i in range(n)]
    edges = [sorted(pair) for pair in zip(ids, ids[1:])]  # "x.." sorts before "y.."
    return {"schema": "isocat/scenario-v1", "name": f"a{n}",
            "x_vertices": [{"id": v, "algebra": {"kind": "Q"}} for v in ids if v[0] == "x"],
            "y_vertices": [{"id": v, "algebra": {"kind": "Q"}} for v in ids if v[0] == "y"],
            "bimodules": [{"x": x, "y": y, "dim": 1} for x, y in edges]}


def test_cli_rejects_a_scenario_over_the_vertex_cap(tmp_path, monkeypatch, capsys):
    import isocat.reptype as reptype
    import isocat.species as species
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_chain_doc(MAX_VERTICES)))
    assert main(["classify", "--scenario", str(path)]) == 0  # the cap itself is accepted
    capsys.readouterr()

    def refused(_root_datum):
        raise AssertionError("an over-cap scenario reached classification")

    for module in (species, reptype):
        monkeypatch.setattr(module, "is_finite_type", refused)
    path.write_text(json.dumps(_chain_doc(MAX_VERTICES + 1)))
    assert main(["roots", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"at most {MAX_VERTICES}" in err


def test_cli_indec_requires_seed(capsys):
    assert main(["indec", "--scenario", "catalog:a2"]) == 2
    assert main(["indec", "--scenario", "catalog:a2", "--seed", "3"]) == 0


def test_cli_indec_infinite_type():
    assert main(["indec", "--scenario", "catalog:two_surfaces", "--seed", "1"]) == 3


def test_cli_resolve_and_decompose(tmp_path, capsys):
    s = catalog_scenario("d4_elliptic")
    from isocat.reptype import highest_root_d4
    z = highest_root_d4(s)
    path = _write_object(tmp_path, "hr", z)
    assert main(["resolve", "--scenario", "catalog:d4_elliptic", "--object", path,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p1_projective"] and doc["p0_projective"] and doc["exact"]
    assert main(["decompose", "--scenario", "catalog:d4_elliptic", "--object", path,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["flag"] == "certified"
    assert doc["summands"] == [[2, 1, 1, 1]]


def test_cli_center(capsys):
    assert main(["center", "--scenario", "catalog:product_no_coupling",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 4


def test_cli_witt_partition_and_operator(tmp_path, capsys):
    assert main(["witt", "--partition", "3,2,1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["partition"] == [3, 2, 1] and doc["roundtrip_ok"]
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"schema": "isocat/matrix-v1",
                              "matrix": doc["operator"]}))
    assert main(["witt", "--op", str(op), "--format", "json"]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["partition"] == [3, 2, 1]


def test_cli_witt_rejects_non_nilpotent(tmp_path):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"schema": "isocat/matrix-v1",
                              "matrix": [["1", "0"], ["0", "1"]]}))
    assert main(["witt", "--op", str(op)]) == 2


def test_cli_witt_caps_the_partition_size(capsys):
    # a partition of 100000 would ask for a grid of 10^10 entries
    assert main(["witt", "--partition", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(MAX_DIM) in captured.err
    assert main(["witt", "--partition", f"{MAX_DIM},1"]) == 2
    assert "partition of 1025" in capsys.readouterr().err


def test_cli_witt_caps_the_operator_rows_before_parsing_entries(tmp_path, capsys):
    # the entries are not rationals: the row count is refused before any is read
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"schema": "isocat/matrix-v1",
                              "matrix": [["x"] for _ in range(MAX_DIM + 1)]}))
    assert main(["witt", "--op", str(op)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{MAX_DIM + 1} rows" in err


def test_cli_check_passes(capsys):
    assert main(["check", "--scenario", "catalog:c3_surface", "--seed", "1",
                 "--samples", "8", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and all(s["passed"] > 0 for s in doc["suites"])


def test_cli_check_requires_seed():
    assert main(["check", "--scenario", "catalog:a2"]) == 2


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_cli_check_rejects_nonpositive_samples(samples, capsys):
    assert main(["check", "--scenario", "catalog:a2", "--seed", "1", "--samples", samples]) == 2
    assert "--samples" in capsys.readouterr().err


def test_cli_internal_inconsistency_exits_1(monkeypatch, capsys):
    import isocat.cli as cli
    from isocat.extcat import InternalConsistencyError

    def broken(_scenario):
        raise InternalConsistencyError("five-term sequence violated")

    monkeypatch.setattr(cli, "classify", broken)
    assert main(["classify", "--scenario", "catalog:a2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: five-term sequence violated\n"
