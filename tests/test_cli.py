import copy
import json
import os
import random
import re
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
    vmap_to_json,
)
from so3alg.dihedral import QWComplex, direct_sum_dihedral, functor_const, functor_i_k
from so3alg.errors import ParseError
from so3alg.linalg import Q, QMatrix
from so3alg.toral import (
    QWSpace,
    VMap,
    direct_sum_objects,
    make_EFbar_plus,
    make_eV,
    make_alpha,
    sigma_H,
    sigma_T,
    sigma_T_minus,
    sigma_one,
    sphere,
    suspend_object,
)
import so3alg
from so3alg import burnside, toral


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
    assert frac_parse(-4) == Q(-4) and frac_parse("0.5") == Q(1, 2)


@pytest.mark.parametrize("value", [True, False, 0.1, 2.0, None, [1], {"p": 1}])
def test_a_coefficient_is_an_int_or_a_rational_literal(tmp_path, capsys, value):
    # true used to read as 1 and 0.1 as 3602879701896397/36028797018963968
    with pytest.raises(ParseError, match="bad rational literal"):
        frac_parse(value)
    toral_doc, germ_doc = _toral_and_germ_docs()
    for decode, encode, doc, path in [
        (toral_from_json, toral_to_json, toral_doc, ("beta", "5", "entries", 0, "coef")),
        (dihedral_from_json, dihedral_to_json, germ_doc, ("germ", "5", "blocks", 0, "mat", 0, 0)),
    ]:
        assert encode(decode(replaced(doc, path, -3))) == encode(decode(replaced(doc, path, "-3")))
        with pytest.raises(ParseError, match="bad rational literal"):
            decode(replaced(doc, path, value))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(replaced(toral_doc, ("beta", "5", "entries", 0, "coef"), value)))
    assert main(["star-check", str(bad)]) == 2
    assert "bad rational literal" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"group": "SO3", "dihedral": {"5": "1", "05": "2"}},
    {"group": "SO3", "tail": True},
    {"group": "SO3", "toral": 0.5},
    {"group": "SO3", "dihedral": [1]},
    {"group": "SO3", "exceptional": ["A4"]},
])
def test_restrict_refuses_a_burnside_document_outside_the_literal_rules(tmp_path, capsys, doc):
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(doc))
    assert main(["restrict", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


def test_burnside_subtraction(capsys):
    zero = burnside.zero("SO3")
    assert evaluate_burnside("e_T - e_T", "SO3") == zero
    assert evaluate_burnside("1 - e_T - e_D - e_E", "SO3") == zero
    assert evaluate_burnside("e_T-e_D*e_D", "SO3") == evaluate_burnside("e_T", "SO3") + (
        burnside.idempotent("SO3", "D").scale(-1)
    )
    assert main(["burnside", "e_T", "-", "e_T"]) == 0
    assert json.loads(capsys.readouterr().out) == burnside.to_json(zero)
    assert main(["burnside", "e_T", "-"]) == 2
    assert main(["burnside", "-", "e_T"]) == 2


def test_burnside_unknown_name():
    with pytest.raises(ParseError):
        evaluate_burnside("e_T + bogus", "SO3")


@pytest.mark.parametrize("expr, message", [
    ("e_D2nx", "bad dihedral index 'x' in 'e_D2nx'"),
    ("e_D2n", "'e_D2n' lacks the dihedral index n"),
    ("e_D2n-1", "'e_D2n' lacks the dihedral index n"),
    ("e_T e_D", "expected an operator at 'e_D'"),
    ("e_T * * e_D", "expected an element name at '*'"),
    ("* e_T", "expected an element name at '*'"),
    ("e_T *", "expected an element name at the end"),
    ("e_T + - e_D", "expected an element name at '-'"),
    ("", "expected an element name at the end"),
])
def test_malformed_burnside_expressions_exit_2(expr, message, capsys):
    # e_D2nx used to end in a traceback, and juxtaposed names and stray
    # operators used to be read as products
    assert main(["burnside", expr]) == 2
    assert message in capsys.readouterr().err
    if expr:
        assert main(["burnside", *expr.split()]) == 2


def _oracle_burnside_atom(name, group):
    if name == "0":
        return burnside.zero(group)
    if name == "1":
        return burnside.unit(group)
    which = name[2:]
    if which == "E":
        total = burnside.zero(group)
        for cls in burnside.EXCEPTIONAL_SO3:
            total = total + burnside.idempotent(group, cls)
        return total
    if which.startswith("D2n"):
        return burnside.idempotent(group, "D2n", int(which[3:]))
    return burnside.idempotent(group, which)


def oracle_evaluate_burnside(expr, group):
    """The evaluator before names and operators had to alternate: terms
    split at + and -, every other token but * a factor."""
    tokens = expr.replace("+", " + ").replace("-", " - ").replace("*", " * ").split()
    terms, current, sign = [], [], 1
    for tok in tokens:
        if tok in ("+", "-"):
            terms.append((sign, current))
            current, sign = [], 1 if tok == "+" else -1
        elif tok != "*":
            current.append(tok)
    terms.append((sign, current))
    total = burnside.zero(group)
    for sgn, factors in terms:
        acc = _oracle_burnside_atom(factors[0], group)
        for f in factors[1:]:
            acc = acc * _oracle_burnside_atom(f, group)
        total = total + (acc if sgn == 1 else acc.scale(-1))
    return total


def test_burnside_sums_of_products_match_the_old_evaluator(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    for group, names in workloads.BURNSIDE_NAMES.items():
        for a in names:
            for b in names:
                for c in names:
                    for expr in (f"{a} * {b} + {c}", f"{a}*{b}-{c}"):
                        want = oracle_evaluate_burnside(expr, group)
                        assert evaluate_burnside(expr, group) == want, expr
        rng = random.Random(f"burnside/{group}")
        for _ in range(300):
            expr = workloads.burnside_expression(rng, group)
            assert evaluate_burnside(expr, group) == oracle_evaluate_burnside(expr, group), expr


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


def test_a_bad_differential_is_refused_by_every_verb_that_reads_the_object(tmp_path, capsys):
    # e(V) with dV the identity from degree 2 to 1 and from 1 to 0, so d
    # squared is not zero, and dM zero: the object refuses it where it is
    # built, so no verb reads it (only homology refused it before)
    v = QWSpace({0: (1, 0), 1: (1, 0), 2: (1, 0)})
    doc = toral_to_json(make_eV(v))
    dv = VMap(v, v, -1, {(1, 1): QMatrix.identity(1), (2, 1): QMatrix.identity(1)})
    doc["diff"] = {"M": {}, "V": vmap_to_json(dv)}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (["star-check", path], ["resolve", path], ["split", path],
                 ["ext", path, path], ["hom", path, path], ["homology", path]):
        assert main([str(a) for a in argv]) == 3, argv
        assert "d squared is not zero on V" in capsys.readouterr().err


def _acyclic_e_v(tmp_path) -> str:
    """The path of e(V) with dV the identity from degree 1 to 0 and dM its
    Laurent model at each slot: an acyclic object, whose homology is zero."""
    v = QWSpace({0: (1, 0), 1: (1, 0)})
    x = make_eV(v)
    dv = VMap(v, v, -1, {(1, 1): QMatrix.identity(1)})
    dM = {key: toral.laurent_model_map(dv, x.slot_is_torus(key)) for key in x.keys()}
    return write_object(tmp_path, "acyclic", toral.ToralObject(x.side, x.M, v, x.beta, dM, dv))


@pytest.mark.parametrize("verb", ["split", "hom", "ext", "resolve"])
def test_a_plain_verb_refuses_an_object_with_a_differential(tmp_path, capsys, verb):
    # these verbs read the underlying object alone; they exited 0 on it
    # before, with answers for e(V) without its differential
    path = _acyclic_e_v(tmp_path)
    files = [path, path, "--window=0:0"] if verb in ("hom", "ext") else [path]
    assert main([verb, *files]) == 2
    err = capsys.readouterr().err
    assert "without a differential" in err and "homology" in err and "bracket" in err


def test_homology_and_bracket_answer_for_an_object_with_a_differential(tmp_path):
    path, out = _acyclic_e_v(tmp_path), tmp_path / "out.json"
    assert main(["homology", path, "--out", str(out)]) == 0
    assert toral_from_json(json.loads(out.read_text())["object"]).is_zero()
    assert main(["bracket", path, path, "--window=0:0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["dims"] == {"0": {"hom": 0, "ext": 0}}


def test_decoding_an_object_builds_it_once(monkeypatch):
    # beta's codomain at each slot is read off V and the slot key, with no
    # throwaway object built to ask for it
    built = []
    init = toral.ToralObject.__init__

    def counted(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(toral.ToralObject, "__init__", counted)
    data = Path(so3alg.__file__).resolve().parent / "data"
    for path in sorted(data.glob("*.json")):
        built.clear()
        toral_from_json(json.loads(path.read_text()))
        assert len(built) == 1, path.name


@pytest.mark.parametrize("degree", ["-30", "-80"])
def test_cover_reaches_deep_degrees(tmp_path, capsys, degree):
    # the span's window is padded by twice the Euler power m0 it needs, and a
    # negative m0 pulled its bottom above the covered degree (a KeyError,
    # exit 1, before)
    data = Path(so3alg.__file__).resolve().parent / "data"
    out, covered = tmp_path / "covers.json", 0
    for name in ("cell-torus.json", "image-torus-quotient.json"):
        for slot in ("tail", "1", "5"):
            argv = ["cover", str(data / name), "--slot", slot, "--degree", degree]
            assert main(argv + ["--out", str(out)]) == 0, argv
            results = json.loads(out.read_text())["results"]
            assert all(r["valid"] is True for r in results)
            covered += len(results)
    capsys.readouterr()
    assert covered, covered


def test_cover_verb(tmp_path):
    path = write_object(tmp_path, "sphere", sphere())
    out = tmp_path / "covers.json"
    assert main(["cover", path, "--slot", "tail", "--degree", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["results"] and all(r["valid"] for r in report["results"])


def test_cover_reports_validity_checked_once_per_cover(tmp_path, monkeypatch, capsys):
    # wide_sphere_cover raises unless its morphism is valid, so the verb
    # reports validity without checking again: on every fixture, slot and
    # degree -4..4 each cover runs is_valid once, and each valid one is
    # reported valid
    checks = []
    is_valid = toral.ToralMorphism.is_valid

    def counted(self):
        checks.append(is_valid(self))
        return checks[-1]

    monkeypatch.setattr(toral.ToralMorphism, "is_valid", counted)
    data = Path(so3alg.__file__).resolve().parent / "data"
    out, runs, covers = tmp_path / "covers.json", 0, 0
    for path in sorted(data.glob("*.json")):
        x = toral_from_json(json.loads(path.read_text()))
        for key in x.keys():
            for g in range(-4, 5):
                before = len(checks)
                argv = ["cover", str(path), "--slot", str(key), "--degree", str(g)]
                assert main(argv + ["--out", str(out)]) == 0
                runs += 1
                results = json.loads(out.read_text())["results"]
                covers += len(results)
                assert checks[before:] == [True] * len(results)
                assert all(r["valid"] is True for r in results)
    capsys.readouterr()
    assert runs == 252 and covers


def _listing_a_tail_copy(doc, k):
    """The document with slot k listed as a copy of the tail."""
    doc = copy.deepcopy(doc)
    doc["M"]["explicit"][str(k)] = doc["M"]["tail"]
    doc["beta"][str(k)] = doc["beta"]["tail"]
    if "diff" in doc:
        doc["diff"]["M"][str(k)] = doc["diff"]["M"]["tail"]
    return doc


def test_cover_at_an_unlisted_slot_reads_the_tail(tmp_path, capsys):
    # an index >= 1 that the object does not list reads the tail: its cover
    # report is the report of the object that lists the index as a copy of
    # the tail (a KeyError, exit 1, before)
    data = Path(so3alg.__file__).resolve().parent / "data"
    listed, a, b = tmp_path / "listed.json", tmp_path / "a.json", tmp_path / "b.json"
    covered = 0
    for path in sorted(data.glob("*.json")):
        doc = json.loads(path.read_text())
        for k in (7, 11):
            assert str(k) not in doc["M"]["explicit"]
            listed.write_text(json.dumps(_listing_a_tail_copy(doc, k)))
            for g in range(-4, 5):
                argv = ["--slot", str(k), "--degree", str(g)]
                assert main(["cover", str(path), *argv, "--out", str(a)]) == 0
                assert main(["cover", str(listed), *argv, "--out", str(b)]) == 0
                assert a.read_bytes() == b.read_bytes(), (path.name, k, g)
                covered += len(json.loads(a.read_text())["results"])
    capsys.readouterr()
    assert covered >= 20, covered


def test_cover_below_slot_one_exits_2(capsys):
    path = str(Path(so3alg.__file__).resolve().parent / "data" / "cell-torus.json")
    # degree 5 has no element to cover, and the index is refused all the same
    for slot in ("0", "-3"):
        for g in ("0", "5"):
            assert main(["cover", path, f"--slot={slot}", "--degree", g]) == 2
    assert "bad slot index" in capsys.readouterr().err


def _with_entry_at(doc, path, key):
    """A copy of doc whose map dict at path also holds key: the tail's map
    (a structure map with coefficient 7 instead)."""
    doc = copy.deepcopy(doc)
    maps = node_at(doc, path)
    extra = copy.deepcopy(maps["tail"])
    for e in extra.get("entries", []):
        e["coef"] = "7"
    maps[key] = extra
    return doc


def test_decoders_refuse_a_map_at_a_slot_the_object_does_not_list(tmp_path, capsys):
    # such a map used to be dropped, the slot reading the tail's map instead
    x = sphere()
    zero_d = {"M": {"tail": {"degree": -1, "entries": []}}, "V": {"degree": -1, "blocks": []}}
    cases = [
        (toral_from_json, toral_to_json(x), ("beta",)),
        (toral_from_json, {**toral_to_json(x), "diff": zero_d}, ("diff", "M")),
    ]
    m = direct_sum_dihedral(
        functor_i_k(QWComplex(QWSpace({0: (1, 1), 1: (1, 0)}), None), 4),
        functor_const(QWComplex(QWSpace({0: (1, 0)}))),
    )
    cases += [
        (dihedral_from_json, dihedral_to_json(m), ("germ",)),
        (dihedral_from_json, {**dihedral_to_json(m), "diff": {"slots": {"tail": {"degree": -1}}}},
         ("diff", "slots")),
    ]
    for decode, doc, path in cases:
        assert decode(_with_entry_at(doc, path, "tail")) is not None
        with pytest.raises(ParseError, match="'5'"):
            decode(_with_entry_at(doc, path, "5"))
    # on the SO3 side slot 1 is always listed, whether the document lists it or not
    doc = toral_to_json(x)
    del doc["M"]["explicit"]["1"]
    doc["beta"]["1"] = {"degree": 0, "entries": []}
    assert toral_from_json(doc).M[1].is_zero()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_with_entry_at(toral_to_json(x), ("beta",), "5")))
    assert main(["star-check", str(bad)]) == 2
    assert "'5'" in capsys.readouterr().err


def _renamed_key(doc, path, old, new):
    """A copy of doc whose dict at path holds its old entry under new too."""
    doc = copy.deepcopy(doc)
    node = node_at(doc, path)
    node[new] = copy.deepcopy(node[old])
    return doc


def _toral_and_germ_docs():
    toral_doc = toral_to_json(direct_sum_objects(sphere(), sigma_H(5)))
    germ_doc = dihedral_to_json(direct_sum_dihedral(
        functor_i_k(QWComplex(QWSpace({0: (1, 1), 1: (1, 0)}), None), 5),
        functor_const(QWComplex(QWSpace({0: (1, 0)}))),
    ))
    germ_doc["diff"] = {"inf": {"degree": -1, "blocks": []},
                        "slots": {"5": {"degree": -1, "blocks": []}}}
    return toral_doc, germ_doc


def test_decoders_refuse_a_key_that_is_not_its_integers_decimal(tmp_path, capsys):
    # "05" and " 5" used to read as slot 5, the last entry silently winning,
    # and "00" as degree 0
    toral_doc, germ_doc = _toral_and_germ_docs()
    cases = [(toral_from_json, toral_doc, path) for path in (("M", "explicit"), ("beta",))]
    cases += [(dihedral_from_json, germ_doc, path)
              for path in (("slots", "explicit"), ("germ",), ("diff", "slots"))]
    for decode, doc, path in cases:
        assert decode(_renamed_key(doc, path, "5", "5")) is not None
        for spelling in ("05", " 5", "5 ", "+5", "5_0"):
            with pytest.raises(ParseError, match=re.escape(repr(spelling))):
                decode(_renamed_key(doc, path, "5", spelling))
    space = {"dims": {"0": [1, 0], "00": [2, 0]}}
    with pytest.raises(ParseError, match="'00'"):
        space_from_json(space)
    with pytest.raises(ParseError, match="'-0'"):
        space_from_json({"dims": {"-0": [1, 0]}})
    assert space_from_json({"dims": {"-1": [1, 0], "0": [0, 2]}}).dims == {-1: (1, 0), 0: (0, 2)}
    # a pair of dimensions, no more and no less
    for pm in ([1], [1, 0, 5]):
        with pytest.raises(ParseError, match="bad space document"):
            space_from_json({"dims": {"0": pm}})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_renamed_key(toral_doc, ("beta",), "5", "05")))
    assert main(["star-check", str(bad)]) == 2
    assert "'05'" in capsys.readouterr().err
    assert main(["cover", str(bad), "--slot=05", "--degree", "0"]) == 2


def test_decoders_refuse_a_repeated_map_entry_or_block():
    toral_doc, germ_doc = _toral_and_germ_docs()
    doc = copy.deepcopy(toral_doc)
    entries = doc["beta"]["5"]["entries"]
    entries.append({**entries[0], "coef": "9"})
    with pytest.raises(ParseError, match=r"\(0, 0\) given twice"):
        toral_from_json(doc)
    doc = copy.deepcopy(germ_doc)
    blocks = doc["germ"]["tail"]["blocks"]
    blocks.append({**blocks[0], "mat": [["2"]]})
    with pytest.raises(ParseError, match=r"\(0, 1\) given twice"):
        dihedral_from_json(doc)


@pytest.mark.parametrize("value", [1.9, 1.0, True, False, "2", None])
def test_decoders_refuse_an_integer_field_that_is_not_a_json_integer(value):
    # 1.9, true and "2" used to be read as 1, 1 and 2
    toral_doc, germ_doc = _toral_and_germ_docs()
    cases = [
        (toral_from_json, toral_doc, path, field)
        for path, field in [
            (("M", "tail", "summands", 0, "shift"), "summand shift"),
            (("M", "explicit", "5", "summands", 0, "sign"), "summand sign"),
            (("M", "explicit", "5", "summands", 1, "len"), "summand len"),
            (("beta", "5", "entries", 0, "row"), "map entry row"),
            (("beta", "5", "entries", 0, "col"), "map entry col"),
            (("beta", "tail", "degree"), "map degree"),
            (("V", "dims", "0", 0), "dims at 0"),
        ]
    ]
    cases += [
        (dihedral_from_json, germ_doc, path, field)
        for path, field in [
            (("M_inf", "dims", "0", 1), "dims at 0"),
            (("germ", "tail", "degree"), "V-map degree"),
            (("germ", "5", "blocks", 0, "deg"), "block deg"),
            (("germ", "5", "blocks", 0, "sign"), "block sign"),
        ]
    ]
    for decode, doc, path, field in cases:
        assert decode(doc) is not None
        with pytest.raises(ParseError, match=f"{field} must be a JSON integer"):
            decode(replaced(doc, path, value))


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


# a sample command line per verb, without --window
VERB_ARGS = {
    "star-check": ["x.json"], "homology": ["x.json"], "hom": ["x.json", "y.json"],
    "ext": ["x.json", "y.json"], "bracket": ["x.json", "y.json"], "resolve": ["x.json"],
    "cover": ["x.json", "--slot", "1", "--degree", "0"], "split": ["x.json"],
    "burnside": ["e_T"], "restrict": ["e.json"], "fixtures": [], "selftest": [],
}


def test_window_is_an_option_only_of_the_verbs_that_read_it(capsys):
    from so3alg.cli import _VERBS, build_parser

    assert set(VERB_ARGS) == set(_VERBS)
    windowed = []
    for verb, rest in VERB_ARGS.items():
        try:
            args = build_parser().parse_args([verb, *rest, "--window=0:1"])
        except SystemExit as exc:
            assert exc.code == 2
            assert "unrecognized arguments: --window=0:1" in capsys.readouterr().err
        else:
            assert args.window == "0:1"
            windowed.append(verb)
    assert sorted(windowed) == ["bracket", "ext", "hom", "homology", "resolve"]


def test_resolve_and_homology_take_a_window(tmp_path):
    path = write_object(tmp_path, "sphere", sphere())
    assert main(["resolve", "--window=-3:3", path]) == 0
    assert main(["homology", "--window=-3:3", path]) == 0
    with pytest.raises(SystemExit):
        main(["split", "--window=-3:3", path])


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
