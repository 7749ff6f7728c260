import copy
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from so3alg.cli import (
    CELL_FIXTURES,
    IMAGE_FIXTURES,
    MAX_SUMMANDS,
    _fixture_doc,
    dihedral_from_json,
    dihedral_to_json,
    evaluate_burnside,
    fixture_verify,
    frac_parse,
    frac_str,
    main,
    space_from_json,
    toral_from_json,
    toral_to_json,
)
from so3alg.dihedral import QWComplex, direct_sum_dihedral, functor_const, functor_i_k
from so3alg.errors import ParseError
from so3alg.linalg import Q
from so3alg.toral import (
    QWSpace,
    direct_sum_objects,
    make_EFbar_plus,
    make_alpha,
    sigma_H,
    sigma_T,
    sigma_T_minus,
    sigma_one,
    sphere,
    suspend_object,
)
from so3alg import burnside


def write_object(tmp_path, name, obj):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(toral_to_json(obj)))
    return str(path)


def toral_samples():
    return [
        sigma_one(),
        sigma_H(3),
        sphere(),
        sigma_T_minus(),
        sigma_T(),
        make_alpha(2, 3),
        make_EFbar_plus(2),
        suspend_object(direct_sum_objects(sphere(), sigma_H(4)), -1),
    ]


# -- serialization round trips -------------------------------------------------


def test_fraction_codec():
    assert frac_str(Q(3, 6)) == "1/2"
    assert frac_str(Q(-4, 2)) == "-2"
    assert frac_parse("7/3") == Q(7, 3)
    with pytest.raises(ParseError):
        frac_parse("1/0")
    with pytest.raises(ParseError):
        frac_parse("x")


def test_toral_round_trip():
    for x in toral_samples():
        doc = toral_to_json(x)
        assert toral_from_json(doc) == x
        # byte-deterministic serialization
        again = json.dumps(toral_to_json(toral_from_json(doc)), sort_keys=True)
        assert again == json.dumps(doc, sort_keys=True)


def test_dihedral_round_trip():
    x = direct_sum_dihedral(
        functor_i_k(QWComplex(QWSpace({0: (1, 1)})), 4),
        functor_const(QWComplex(QWSpace({1: (2, 0)}))),
    )
    doc = dihedral_to_json(x)
    assert dihedral_from_json(doc) == x


def test_bad_documents_raise_parse_errors():
    with pytest.raises(ParseError):
        toral_from_json({"side": "SO3"})
    with pytest.raises(ParseError):
        toral_from_json(
            {"side": "SO3", "M": {"explicit": {}, "tail": {"ring": "nope", "summands": []}},
             "V": {"dims": {}}}
        )
    with pytest.raises(ParseError):
        dihedral_from_json({"M_inf": {"dims": {}}})
    # containers of the wrong JSON type
    cell = _fixture_doc("cell-C2")
    for path, value in [
        (("beta",), []),
        (("M", "explicit"), []),
        (("diff",), []),
        (("diff",), {"V": []}),
        (("diff",), {"M": []}),
        (("beta", "tail"), []),
    ]:
        with pytest.raises(ParseError):
            toral_from_json(replaced(cell, path, value))
    germ = dihedral_to_json(functor_const(QWComplex(QWSpace({1: (2, 0)}))))
    for path, value in [(("germ",), []), (("germ",), {"tail": []})]:
        with pytest.raises(ParseError):
            dihedral_from_json(replaced(germ, path, value))


def replaced(doc, path, value):
    """A deep copy of a JSON document with the node at path set to value."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {dict: "object", list: "array", str: "string", type(None): "null"}[type(value)]


def node_paths(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
FIXTURE_NAMES = [name for name, _ in CELL_FIXTURES] + list(IMAGE_FIXTURES)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_codec_fuzz_ends_with_an_exit_code(tmp_path, data):
    """One node of a frozen fixture document replaced by a JSON value of
    another type: star-check ends with exit 0, 2, 3 or 4, never a traceback."""
    doc = _fixture_doc(data.draw(st.sampled_from(FIXTURE_NAMES)))
    path = data.draw(st.sampled_from(list(node_paths(doc))[1:]))
    kind = json_type(node_at(doc, path))
    value = data.draw(JSON_VALUES.filter(lambda v: json_type(v) != kind))
    target = tmp_path / "fuzzed.json"
    target.write_text(json.dumps(replaced(doc, path, value)))
    assert main(["star-check", str(target)]) in (0, 2, 3, 4)

# -- burnside expressions ----------------------------------------------------------


def test_burnside_partition_of_unity():
    total = evaluate_burnside("e_T + e_D + e_E", "SO3")
    assert total == burnside.unit("SO3")
    assert evaluate_burnside("e_T * e_D", "SO3") == burnside.zero("SO3")


def test_burnside_unknown_name():
    with pytest.raises(ParseError):
        evaluate_burnside("e_T + bogus", "SO3")


# -- fixtures --------------------------------------------------------------------


def test_fixture_verify_passes():
    report = fixture_verify()
    assert all(r["status"] == "PASS" for r in report["results"])
    assert len(report["results"]) == 14


# -- the command line itself --------------------------------------------------------


def test_star_check_verb(tmp_path, capsys):
    path = write_object(tmp_path, "sphere", sphere())
    assert main(["star-check", path]) == 0
    assert "PASS" in capsys.readouterr().out


def test_hom_verb_with_window_and_report(tmp_path, capsys):
    path = write_object(tmp_path, "sphere", sphere())
    out = tmp_path / "report.json"
    assert main(["hom", "--window=-2:2", "--out", str(out), path, path]) == 0
    report = json.loads(out.read_text())
    assert report["dims"]["0"] == 1
    assert report["dims"]["1"] == 0


def test_reports_are_byte_identical(tmp_path):
    path = write_object(tmp_path, "sigma_T", sigma_T())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["resolve", path, "--out", str(out1)]) == 0
    assert main(["resolve", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_a_second_call_inherits_no_option_from_the_first(tmp_path, capsys):
    """main reuses one parser: a call without --window or --out must report
    what the same call reports in a fresh interpreter."""
    path = write_object(tmp_path, "sphere", sphere())
    out = tmp_path / "report.json"
    assert main(["hom", "--window=-1:1", "--out", str(out), path, path]) == 0
    first = out.read_bytes()
    capsys.readouterr()
    assert main(["hom", path, path]) == 0
    second = capsys.readouterr().out
    assert out.read_bytes() == first
    src = Path(sys.modules["so3alg"].__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    alone = subprocess.run(
        [sys.executable, "-m", "so3alg.cli", "hom", path, path],
        capture_output=True, env=env, check=True,
    )
    assert second.encode() == alone.stdout


def test_split_and_homology_verbs(tmp_path):
    path = write_object(tmp_path, "mix", direct_sum_objects(sphere(), sigma_H(3)))
    out = tmp_path / "split.json"
    assert main(["split", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    even = toral_from_json(report["even"])
    odd = toral_from_json(report["odd"])
    original = toral_from_json(json.loads((tmp_path / "mix.json").read_text()))
    assert direct_sum_objects(even, odd) == original
    assert main(["homology", path]) == 0


def test_cover_verb(tmp_path):
    path = write_object(tmp_path, "sphere", sphere())
    out = tmp_path / "covers.json"
    assert main(["cover", path, "--slot", "tail", "--degree", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["results"] and all(r["valid"] for r in report["results"])


def test_bracket_and_ext_verbs(tmp_path):
    a = write_object(tmp_path, "a", sigma_one())
    b = write_object(tmp_path, "b", sphere())
    assert main(["ext", "--window=-1:1", a, b]) == 0
    assert main(["bracket", "--window=0:0", b, b]) == 0


def test_restrict_verb(tmp_path):
    elem = burnside.idempotent("SO3", "T") + burnside.idempotent("SO3", "D4")
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(burnside.to_json(elem)))
    out = tmp_path / "restricted.json"
    assert main(["restrict", str(path), "--out", str(out)]) == 0
    got = burnside.from_json(json.loads(out.read_text())["element"])
    assert got == burnside.restrict_to_O2(elem)


def test_fixtures_and_selftest_verbs(tmp_path):
    out = tmp_path / "fx.json"
    assert main(["fixtures", "--out", str(out)]) == 0
    assert main(["selftest"]) == 0


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["star-check", str(bad)]) == 2


def test_bad_window_exits_2(tmp_path):
    path = write_object(tmp_path, "sphere", sphere())
    assert main(["hom", "--window=oops", path, path]) == 2
    assert main(["hom", "--window=3:1", path, path]) == 2


def test_oversized_window_exits_2_at_once(tmp_path):
    path = write_object(tmp_path, "sphere", sphere())
    start = time.perf_counter()
    assert main(["hom", path, path, "--window=-100000:100000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert main(["hom", path, path, "--window=0:256"]) == 2
    assert main(["hom", path, path, "--window=0:255"]) == 0


def test_oversized_torsion_length_exits_2_at_once(tmp_path):
    doc = _fixture_doc("cell-C2")
    for s in doc["M"]["explicit"]["2"]["summands"]:
        s["len"] = 10**7
    path = tmp_path / "long-C2.json"
    path.write_text(json.dumps(doc))
    for verb in ("resolve", "star-check", "homology"):
        start = time.perf_counter()
        assert main([verb, str(path)]) == 2
        assert time.perf_counter() - start < 1.0


def test_oversized_summand_shift_exits_2_at_once(tmp_path):
    def shifted(shift):
        doc = _fixture_doc("cell-C2")
        for s in doc["M"]["explicit"]["2"]["summands"]:
            s["shift"] = shift
        path = tmp_path / f"shifted-C2-{shift}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    far = shifted(10**7)
    for argv in (["resolve", far], ["hom", far, far]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
    assert main(["star-check", shifted(-257)]) == 2
    assert main(["star-check", shifted(256)]) == 0
    assert main(["star-check", shifted(-256)]) == 0


def test_negative_dimension_exits_2(tmp_path):
    doc = _fixture_doc("cell-C2")
    doc["V"] = {"dims": {"0": [-3, 0]}}
    path = tmp_path / "negative-C2.json"
    path.write_text(json.dumps(doc))
    for verb in ("resolve", "star-check"):
        assert main([verb, str(path)]) == 2
    for bad in ({"dims": {"1": [0, -1]}}, {"dims": []}):
        with pytest.raises(ParseError):
            space_from_json(bad)


def test_oversized_module_or_space_exits_2_at_once(tmp_path):
    def written(name, summands=None, vdims=None):
        doc = _fixture_doc("cell-C2")
        slot = doc["M"]["explicit"]["2"]
        slot["summands"] = slot["summands"] * (summands // 2) if summands else slot["summands"]
        if vdims is not None:
            doc["V"] = {"dims": {"0": vdims}}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    over = [written("many", summands=MAX_SUMMANDS + 2), written("wide", vdims=[MAX_SUMMANDS, 1])]
    for path in over:
        for argv in (["resolve", path], ["hom", path, path]):
            start = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - start < 1.0
    assert main(["star-check", written("at-limit", summands=MAX_SUMMANDS)]) == 0


def test_star_failure_exits_3(tmp_path):
    # a free module with zero structure map cannot become an isomorphism
    # after inverting the Euler class
    from so3alg.graded import FREE, POLY_C, GradedModule, Summand
    from so3alg.toral import SlotFamily, ToralObject

    bad = ToralObject(
        "SO3",
        SlotFamily("SO3", {}, GradedModule(POLY_C, [Summand(FREE, 0, 1)])),
        QWSpace.zero(),
        {},
    )
    path = tmp_path / "bad_star.json"
    path.write_text(json.dumps(toral_to_json(bad)))
    assert main(["star-check", str(path)]) == 3
