"""Command-line front end: JSON object files in, deterministic reports out.

Verbs map one-to-one onto module operation families.  Exit codes: 0 on
success, 2 for parse or schema problems, 3 for violated structural
invariants, 4 for a fixture mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from importlib import resources

from . import burnside
from .errors import (
    EngineError,
    FixtureMismatch,
    ParseError,
    SchemaError,
)
from .graded import (
    FREE,
    LAURENT,
    LAURENT_C,
    LAURENT_D,
    POLY_C,
    POLY_D,
    TORSION,
    GradedModule,
    ModuleMap,
    Summand,
)
from .linalg import Q, QMatrix
from .toral import (
    TAIL,
    QWSpace,
    SlotFamily,
    ToralMorphism,
    ToralObject,
    VMap,
    adams_bracket,
    check_star,
    ext_A,
    functor_F_twisted,
    hom_A,
    homology_dA,
    injective_resolution,
    parity_split,
    sigma_H,
    sigma_T,
    sigma_one,
    sphere,
    unit_of_adjunction,
    unit_of_twisted_adjunction,
    wide_sphere_cover,
)
from .dihedral import DihedralObject, GermSequence

# -- rationals and matrices ----------------------------------------------------


def frac_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_parse(s) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ParseError(f"bad rational literal {s!r}")


def _object(doc, what: str) -> dict:
    """doc, if it is a JSON object; a ParseError otherwise."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc


def matrix_to_json(m: QMatrix) -> list:
    return [[frac_str(x) for x in m.row(i)] for i in range(m.rows)]


def matrix_from_json(doc, rows: int, cols: int) -> QMatrix:
    data = [[frac_parse(x) for x in row] for row in doc]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ParseError("matrix has the wrong shape")
    return QMatrix(rows, cols, data)


# -- graded modules and maps ------------------------------------------------------

_RING_NAMES = {
    "PolyC": POLY_C,
    "PolyD": POLY_D,
    "LaurentC": LAURENT_C,
    "LaurentD": LAURENT_D,
}
_KIND_NAMES = {"Free": FREE, "Torsion": TORSION, "Laurent": LAURENT}

# Input budgets: every verb walks a window at least as wide as --window, as
# the span of each torsion summand and as the largest summand shift, so wider
# input is refused as it is read.  Resolutions and hom spaces grow much
# faster than linearly in the number of summands of a module and in the
# dimension of V (engine resolve of one slot of n torsion summands took
# 0.09 s, 1.5 s and 36 s at n = 16, 32 and 64 on a two-core Xeon), so both
# are bounded by MAX_SUMMANDS.
MAX_WINDOW_DEGREES = 256
MAX_TORSION_LENGTH = 64  # spans 256 degrees over Q[d]
MAX_SUMMANDS = 16


def _name_of(table: dict, value) -> str:
    return next(k for k, v in table.items() if v == value)


def module_to_json(m: GradedModule) -> dict:
    out = []
    for s in m.summands:
        doc = {"kind": _name_of(_KIND_NAMES, s.kind), "shift": s.shift, "sign": s.sign}
        if s.kind == TORSION:
            doc["len"] = s.length
        out.append(doc)
    return {"ring": _name_of(_RING_NAMES, m.ring), "summands": out}


def module_from_json(doc: dict) -> GradedModule:
    try:
        ring = _RING_NAMES[doc["ring"]]
        summands = [
            Summand(
                _KIND_NAMES[s["kind"]],
                int(s["shift"]),
                int(s["sign"]),
                int(s.get("len", 0)),
            )
            for s in doc["summands"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad module document: {exc}")
    if any(s.length > MAX_TORSION_LENGTH for s in summands):
        raise ParseError(f"torsion length above the limit of {MAX_TORSION_LENGTH}")
    if any(abs(s.shift) > MAX_WINDOW_DEGREES for s in summands):
        raise ParseError(f"summand shift above the limit of {MAX_WINDOW_DEGREES}")
    if len(summands) > MAX_SUMMANDS:
        raise ParseError(f"{len(summands)} summands, above the limit of {MAX_SUMMANDS}")
    return GradedModule(ring, summands)


def map_to_json(m: ModuleMap) -> dict:
    entries = [
        {"row": i, "col": j, "coef": frac_str(c)}
        for (i, j), c in sorted(m.entries.items())
    ]
    return {"degree": m.degree, "entries": entries}


def map_from_json(doc: dict, domain: GradedModule, codomain: GradedModule) -> ModuleMap:
    doc = _object(doc, "a map")
    try:
        entries = {
            (int(e["row"]), int(e["col"])): frac_parse(e["coef"])
            for e in doc.get("entries", [])
        }
        degree = int(doc.get("degree", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad map document: {exc}")
    rows, cols = len(codomain.summands), len(domain.summands)
    if any(not (0 <= i < rows and 0 <= j < cols) for i, j in entries):
        raise ParseError(f"map entry outside the {rows} x {cols} summands")
    return ModuleMap(domain, codomain, degree, entries)


# -- graded involution spaces --------------------------------------------------------


def space_to_json(v: QWSpace) -> dict:
    return {"dims": {str(g): list(pm) for g, pm in sorted(v.dims.items())}}


def space_from_json(doc: dict) -> QWSpace:
    try:
        dims = {int(g): (int(pm[0]), int(pm[1])) for g, pm in doc["dims"].items()}
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise ParseError(f"bad space document: {exc}")
    if any(p < 0 or m < 0 for p, m in dims.values()):
        raise ParseError("negative dimension in a space document")
    total = sum(p + m for p, m in dims.values())
    if total > MAX_SUMMANDS:
        raise ParseError(f"space of dimension {total}, above the limit of {MAX_SUMMANDS}")
    return QWSpace(dims)


def vmap_to_json(m: VMap) -> dict:
    blocks = [
        {"deg": g, "sign": s, "mat": matrix_to_json(mat)}
        for (g, s), mat in sorted(m.blocks.items())
    ]
    return {"degree": m.degree, "blocks": blocks}


def vmap_from_json(doc: dict, domain: QWSpace, codomain: QWSpace) -> VMap:
    doc = _object(doc, "a V-map")
    try:
        degree = int(doc.get("degree", 0))
        blocks = {}
        for b in doc.get("blocks", []):
            g, s = int(b["deg"]), int(b["sign"])
            if s not in (1, -1):
                raise ParseError(f"bad block sign {s}")
            blocks[(g, s)] = matrix_from_json(
                b["mat"], codomain.dim(g + degree, s), domain.dim(g, s)
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad V-map document: {exc}")
    return VMap(domain, codomain, degree, blocks)


# -- toral objects --------------------------------------------------------------------


def toral_to_json(x: ToralObject) -> dict:
    doc = {
        "side": x.side,
        "M": {
            "explicit": {str(k): module_to_json(m) for k, m in x.M.explicit.items()},
            "tail": module_to_json(x.M.tail),
        },
        "V": space_to_json(x.V),
        "beta": {str(k): map_to_json(x.beta[k]) for k in x.keys()},
    }
    if x.has_differential():
        doc["diff"] = {
            "M": {str(k): map_to_json(x.dM[k]) for k in x.keys()},
            "V": vmap_to_json(x.dV),
        }
    return doc


def _slot_key(raw: str):
    if raw == TAIL:
        return TAIL
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"bad slot key {raw!r}")


def toral_from_json(doc: dict) -> ToralObject:
    try:
        side = doc["side"]
        explicit = {
            int(k): module_from_json(m)
            for k, m in _object(doc["M"]["explicit"], "M.explicit").items()
        }
        tail = module_from_json(doc["M"]["tail"])
        vspace = space_from_json(doc["V"])
        beta_doc = _object(doc.get("beta", {}), "beta")
        diff_doc = doc.get("diff")
        if diff_doc is not None:
            diff_doc = _object(diff_doc, "diff")
            dm_doc = _object(diff_doc.get("M", {}), "diff.M")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad object document: {exc}")
    fam = SlotFamily(side, explicit, tail)
    probe = ToralObject(side, fam, vspace, {})
    beta = {
        _slot_key(k): map_from_json(b, fam.slot(_slot_key(k)), probe.beta_codomain(_slot_key(k)))
        for k, b in beta_doc.items()
    }
    dM = dV = None
    if diff_doc is not None:
        dM = {
            _slot_key(k): map_from_json(d, fam.slot(_slot_key(k)), fam.slot(_slot_key(k)))
            for k, d in dm_doc.items()
        }
        for k in fam.keys():
            dM.setdefault(k, ModuleMap.zero(fam.slot(k), fam.slot(k), -1))
        dV = vmap_from_json(diff_doc.get("V", {"degree": -1}), vspace, vspace)
    return ToralObject(side, fam, vspace, beta, dM, dV)


# -- dihedral objects -----------------------------------------------------------------


def dihedral_to_json(x: DihedralObject) -> dict:
    doc = {
        "M_inf": space_to_json(x.m_inf),
        "slots": {
            "explicit": {str(k): space_to_json(s) for k, s in x.slots.explicit.items()},
            "tail": space_to_json(x.slots.tail),
        },
        "germ": {str(k): vmap_to_json(x.germ[k]) for k in x.keys()},
    }
    if not x.d_inf.is_zero() or any(not d.is_zero() for d in x.d_slots.values()):
        doc["diff"] = {
            "inf": vmap_to_json(x.d_inf),
            "slots": {str(k): vmap_to_json(x.d_slots[k]) for k in x.keys()},
        }
    return doc


def dihedral_from_json(doc: dict) -> DihedralObject:
    try:
        m_inf = space_from_json(doc["M_inf"])
        explicit = {
            int(k): space_from_json(s)
            for k, s in _object(doc["slots"]["explicit"], "slots.explicit").items()
        }
        tail = space_from_json(doc["slots"]["tail"])
        germ_doc = _object(doc.get("germ", {}), "germ")
        diff_doc = doc.get("diff")
        if diff_doc is not None:
            diff_doc = _object(diff_doc, "diff")
            ds_doc = _object(diff_doc.get("slots", {}), "diff.slots")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad germ-object document: {exc}")
    slots = GermSequence(explicit, tail)
    germ = {
        _slot_key(k): vmap_from_json(g, m_inf, slots.slot(_slot_key(k)))
        for k, g in germ_doc.items()
    }
    d_inf = d_slots = None
    if diff_doc is not None:
        d_inf = vmap_from_json(diff_doc.get("inf", {"degree": -1}), m_inf, m_inf)
        d_slots = {
            _slot_key(k): vmap_from_json(d, slots.slot(_slot_key(k)), slots.slot(_slot_key(k)))
            for k, d in ds_doc.items()
        }
    return DihedralObject(m_inf, slots, germ, d_inf, d_slots)


# -- file loading ----------------------------------------------------------------------


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


def load_toral(path: str) -> ToralObject:
    doc = load_document(path)
    if "side" not in doc:
        raise ParseError(f"{path}: not a toral object file")
    return toral_from_json(doc)


def load_burnside(path: str) -> burnside.BurnsideElement:
    doc = load_document(path)
    if "group" not in doc:
        raise ParseError(f"{path}: not a Burnside element file")
    return burnside.from_json(doc)


# -- fixtures --------------------------------------------------------------------------


def _fixture_doc(name: str) -> dict:
    ref = resources.files("so3alg.data").joinpath(f"{name}.json")
    try:
        return json.loads(ref.read_text())
    except FileNotFoundError:
        raise ParseError(f"missing fixture data file {name}.json")


CELL_FIXTURES = (
    ("cell-trivial", lambda: functor_F_twisted(sigma_one())),
    ("cell-C2", lambda: functor_F_twisted(sigma_H(2))),
    ("cell-C3", lambda: functor_F_twisted(sigma_H(3))),
    ("cell-C4", lambda: functor_F_twisted(sigma_H(4))),
    ("cell-C5", lambda: functor_F_twisted(sigma_H(5))),
    ("cell-C6", lambda: functor_F_twisted(sigma_H(6))),
    ("cell-torus", lambda: functor_F_twisted(sigma_T())),
)

IMAGE_FIXTURES = (
    "image-free-sphere",
    "image-torus-quotient",
    "image-C2",
    "image-C3",
    "image-C4",
    "image-C5",
    "image-C6",
)


def _first_degree_difference(a: ToralObject, b: ToralObject, window=(-12, 12)):
    keys = sorted(set(a.M.explicit) | set(b.M.explicit)) + [TAIL]
    for g in range(window[0], window[1] + 1):
        for key in keys:
            if a.M.slot(key).dim(g) != b.M.slot(key).dim(g):
                return g
        if a.V.dim(g) != b.V.dim(g):
            return g
    return None


def fixture_verify() -> dict:
    """Recompute the cell images and compare against the frozen objects;
    check the stored derived images for internal consistency."""
    results = []
    for name, recipe in CELL_FIXTURES:
        expected = toral_from_json(_fixture_doc(name))
        got = recipe().normalized()
        if got != expected.normalized():
            g = _first_degree_difference(got, expected)
            raise FixtureMismatch(f"{name} diverges first at degree {g}")
        results.append({"fixture": name, "status": "PASS"})
    for name in IMAGE_FIXTURES:
        stored = toral_from_json(_fixture_doc(name))
        if not check_star(stored):
            raise FixtureMismatch(f"{name} fails the localization condition")
        even, odd = parity_split(stored)
        for g in range(-12, 13):
            total = sum(m.dim(g) for m in stored.all_modules())
            split = sum(m.dim(g) for m in even.all_modules()) + sum(
                m.dim(g) for m in odd.all_modules()
            )
            if total != split:
                raise FixtureMismatch(f"{name} parity split loses degree {g}")
        results.append({"fixture": name, "status": "PASS"})
    return {"verb": "fixtures", "results": results}


# -- burnside expressions ----------------------------------------------------------


def _burnside_atom(name: str, group: str) -> burnside.BurnsideElement:
    if name == "0":
        return burnside.zero(group)
    if name == "1":
        return burnside.unit(group)
    if not name.startswith("e_"):
        raise ParseError(f"unknown element {name!r}")
    which = name[2:]
    if which == "E":
        if group != "SO3":
            raise SchemaError("the exceptional part lives on the SO3 side")
        total = burnside.zero(group)
        for cls in burnside.EXCEPTIONAL_SO3:
            total = total + burnside.idempotent(group, cls)
        return total
    if which.startswith("D2n"):
        n = int(which[3:] or 0)
        return burnside.idempotent(group, "D2n", n)
    return burnside.idempotent(group, which)


def evaluate_burnside(expr: str, group: str) -> burnside.BurnsideElement:
    """Evaluate +, - and * over named idempotents, left to right with the
    usual precedence."""
    tokens = expr.replace("+", " + ").replace("*", " * ").split()
    # reattach unary minus-free subtraction: split terms on standalone +/-
    terms, current, sign = [], [], 1
    for tok in tokens:
        if tok == "+":
            terms.append((sign, current))
            current, sign = [], 1
        elif tok == "*":
            continue
        else:
            current.append(tok)
    terms.append((sign, current))
    total = burnside.zero(group)
    for sgn, factors in terms:
        if not factors:
            raise ParseError(f"empty term in {expr!r}")
        acc = _burnside_atom(factors[0], group)
        for f in factors[1:]:
            acc = acc * _burnside_atom(f, group)
        total = total + (acc if sgn == 1 else acc.scale(-1))
    return total


# -- verbs ---------------------------------------------------------------------------


def _window(opt: str | None, default=(-12, 12)):
    if opt is None:
        return default
    try:
        lo, hi = opt.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ParseError(f"bad window {opt!r}; expected lo:hi")
    if lo > hi:
        raise ParseError(f"empty window {opt!r}")
    if hi - lo + 1 > MAX_WINDOW_DEGREES:
        raise ParseError(f"window {opt!r} spans more than {MAX_WINDOW_DEGREES} degrees")
    return (lo, hi)


def _describe(x: ToralObject) -> str:
    slots = ", ".join(
        f"slot {k}: {len(x.M.slot(k).summands)} summands" for k in sorted(x.M.explicit)
    )
    tail = f"tail: {len(x.M.tail.summands)} summands"
    v = f"V: {sum(p + m for p, m in x.V.dims.values())} generators"
    return "; ".join(s for s in (slots, tail, v) if s)


def cmd_star_check(args) -> tuple[dict, int]:
    results, ok = [], True
    for path in args.files:
        x = load_toral(path)
        passed = check_star(x)
        ok = ok and passed
        results.append({"file": path, "status": "PASS" if passed else "FAIL"})
        print(f"{path}: {'PASS' if passed else 'FAIL'}")
    return {"verb": "star-check", "results": results}, (0 if ok else 3)


def cmd_homology(args) -> tuple[dict, int]:
    x = load_toral(args.files[0])
    h = homology_dA(x, _window(args.window) if args.window else None)
    print(f"homology: {_describe(h)}")
    return {"verb": "homology", "object": toral_to_json(h)}, 0


def cmd_hom(args) -> tuple[dict, int]:
    x, y = load_toral(args.files[0]), load_toral(args.files[1])
    lo, hi = _window(args.window)
    dims = hom_A(x, y, range(lo, hi + 1))
    for t in sorted(dims):
        print(f"degree {t}: dim {dims[t]}")
    return {"verb": "hom", "dims": {str(t): d for t, d in dims.items()}}, 0


def _hom_ext_report(verb, compute, args) -> tuple[dict, int]:
    """Print and report a degreewise (hom, ext) table of two object files."""
    x, y = load_toral(args.files[0]), load_toral(args.files[1])
    lo, hi = _window(args.window)
    table = compute(x, y, range(lo, hi + 1), (lo, hi))
    for t in sorted(table):
        print(f"degree {t}: hom {table[t][0]}, ext {table[t][1]}")
    return {
        "verb": verb,
        "dims": {str(t): {"hom": h, "ext": e} for t, (h, e) in table.items()},
    }, 0


def cmd_ext(args) -> tuple[dict, int]:
    return _hom_ext_report("ext", ext_A, args)


def cmd_bracket(args) -> tuple[dict, int]:
    return _hom_ext_report("bracket", adams_bracket, args)


def cmd_resolve(args) -> tuple[dict, int]:
    x = load_toral(args.files[0])
    # injective_resolution raises InvariantError unless the resolution is
    # exact on the window, so a returned one is exact
    res = injective_resolution(x, _window(args.window))
    print(f"stage 0: {_describe(res.Y0)}")
    print(f"stage 1: {_describe(res.Y1)}")
    print("exact: yes")
    doc = {
        "verb": "resolve",
        "stage0": toral_to_json(res.Y0),
        "stage1": toral_to_json(res.Y1),
        "exact": True,
    }
    return doc, 0


def cmd_cover(args) -> tuple[dict, int]:
    x = load_toral(args.files[0])
    key = _slot_key(args.slot)
    g = args.degree
    m = x.M.slot(key)
    results = []
    for pos, (i, b) in enumerate(m.basis(g)):
        vector = [Q(0)] * m.dim(g)
        vector[pos] = Q(1)
        P, mor = wide_sphere_cover(x, key, g, vector)
        results.append(
            {
                "element": {"summand": i, "power": b},
                "sphere": toral_to_json(P),
                "valid": mor.is_valid(),
            }
        )
    print(f"covered {len(results)} basis elements at slot {args.slot}, degree {g}")
    return {"verb": "cover", "results": results}, 0


def cmd_split(args) -> tuple[dict, int]:
    x = load_toral(args.files[0])
    even, odd = parity_split(x)
    print(f"even: {_describe(even)}")
    print(f"odd: {_describe(odd)}")
    return {
        "verb": "split",
        "even": toral_to_json(even),
        "odd": toral_to_json(odd),
    }, 0


def cmd_burnside(args) -> tuple[dict, int]:
    elem = evaluate_burnside(" ".join(args.files), args.group)
    doc = burnside.to_json(elem)
    print(json.dumps(doc, sort_keys=True))
    return {"verb": "burnside", "element": doc}, 0


def cmd_restrict(args) -> tuple[dict, int]:
    elem = load_burnside(args.files[0])
    out = burnside.to_json(burnside.restrict_to_O2(elem))
    print(json.dumps(out, sort_keys=True))
    return {"verb": "restrict", "element": out}, 0


def cmd_fixtures(args) -> tuple[dict, int]:
    report = fixture_verify()
    for r in report["results"]:
        print(f"fixture {r['fixture']}: {r['status']}")
    return report, 0


def cmd_selftest(args) -> tuple[dict, int]:
    checks = []

    def record(name, ok):
        checks.append({"check": name, "status": "PASS" if ok else "FAIL"})
        print(f"{name}: {'PASS' if ok else 'FAIL'}")

    one = burnside.unit("SO3")
    e_t = burnside.idempotent("SO3", "T")
    e_d = burnside.idempotent("SO3", "D")
    e_e = evaluate_burnside("e_E", "SO3")
    record("burnside partition of unity", e_t + e_d + e_e == one)
    zero = burnside.zero("SO3")
    record("burnside orthogonality", e_t * e_d == zero and e_t * e_e == zero)
    gens = [sigma_one(), sigma_H(2), sigma_H(3), sphere(), sigma_T()]
    record("star condition on generators", all(check_star(x) for x in gens))
    record(
        "plain unit is the identity",
        all(unit_of_adjunction(x) == ToralMorphism.identity(x) for x in gens),
    )
    record(
        "twisted unit is the identity",
        all(unit_of_twisted_adjunction(x) == ToralMorphism.identity(x) for x in gens),
    )
    record(
        "resolutions are exact",
        all(injective_resolution(x).check_exact() for x in gens),
    )
    fixture_verify()
    record("fixtures", True)
    ok = all(c["status"] == "PASS" for c in checks)
    return {"verb": "selftest", "results": checks}, (0 if ok else 3)


_VERBS = {
    "star-check": (cmd_star_check, "+", "check the localization condition"),
    "homology": (cmd_homology, 1, "homology of a differential object"),
    "hom": (cmd_hom, 2, "morphism-space dimensions per degree"),
    "ext": (cmd_ext, 2, "hom and ext dimensions per degree"),
    "bracket": (cmd_bracket, 2, "morphism-group dimensions via the short exact sequence"),
    "resolve": (cmd_resolve, 1, "two-stage injective resolution"),
    "cover": (cmd_cover, 1, "wide-sphere covers of basis elements"),
    "split": (cmd_split, 1, "even/odd parity splitting"),
    "burnside": (cmd_burnside, "+", "evaluate an idempotent expression"),
    "restrict": (cmd_restrict, 1, "restrict a Burnside element to the O2 side"),
    "fixtures": (cmd_fixtures, 0, "verify the frozen cell and image objects"),
    "selftest": (cmd_selftest, 0, "quick end-to-end verification"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="engine")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_fn, nargs, help_text) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--window", help="degree window lo:hi")
        p.add_argument("--out", help="write the machine report to this path")
        if verb == "cover":
            p.add_argument("--slot", required=True, help="slot key (an integer or 'tail')")
            p.add_argument("--degree", type=int, required=True)
        if verb == "burnside":
            p.add_argument("--group", default="SO3", choices=["SO3", "O2"])
        if nargs == "+":
            p.add_argument("files", nargs="+")
        elif nargs:
            p.add_argument("files", nargs=nargs if isinstance(nargs, str) else nargs)
        else:
            p.add_argument("files", nargs="*")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    fn = _VERBS[args.verb][0]
    try:
        report, code = fn(args)
    except FixtureMismatch as exc:
        print(f"fixture mismatch: {exc}", file=sys.stderr)
        return 4
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2))
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
