"""Import layering of the engine, read from the source with ``ast``.

``exceptional`` is a leaf over the linear algebra: it may import only from
``linalg`` and ``errors`` inside the package, and so may ``qw``, the graded
Q[W]-spaces the toral and dihedral models share.  ``dihedral`` imports
neither ``toral`` nor ``graded`` (a fresh import loads neither), and each
name that moved from ``toral`` into ``qw`` is still bound there, as the same
object.  Homology helpers are shared
through the public ``linalg.chain_homology``, so no module imports a private
homology helper from another module, and only ``exceptional.homology_W``
and ``qw.qw_homology`` call it: it assumes d squared is zero, which their
complexes were checked for where they entered.  Only the weak-equivalence
predicates ``dihedral.is_weak_equivalence`` and ``exceptional.is_weq`` call
``linalg.is_quasi_isomorphism``, and neither reads a homology routine.  How a rational matrix is stored (ints
over one denominator) is decided in ``linalg`` alone: no other module touches
a matrix's storage or reads a denominator, except the CLI's rational codec.
Every ``GradedModule`` carries its basis cache: outside ``__init__``, modules
are made only by ``GradedModule._canonical``, which only
``graded.indexed_module`` calls: the canonical order of tagged summands has
one owner, and no module outside ``graded`` imports its private sort key or
normalization.  A ``GroupComplex`` skips the
checks of ``__init__`` only through ``GroupComplex._assembled``, which only
the total complex of tensor and hom and ``homology_W`` call; a
``DihedralObject``, ``QWComplex`` or ``ToralObject`` only through its
``_assembled``, which only the listed constructions from checked parts call;
a ``DihedralMorphism`` skips its germ square, and a ``VMap`` its block
shapes, only in the listed constructions that hold them by construction:
the checked ``VMap(...)`` is called by the JSON decoder alone, and
``dihedral`` assembles no ``block_matrix`` (``qw.block_vmap`` does).
``graded.homology_realized`` assumes d squared is zero, as its docstring
says, so only ``toral.homology_dA`` calls it, on slot differentials that
``ToralObject.__init__`` checked.  In ``dihedral`` and
``exceptional`` only an ``__init__`` calls ``check_differential``, so use
sites do not re-check what entered checked.  Every name imported into a module
is read there, every local a function assigns is read in that function, and
every parameter of a module-level private function is read in it.  Block matrices are assembled by ``linalg.block_matrix`` and
``QMatrix.kron``: no other module allocates a rational zero grid
``[[Q(0)] * n for ...]`` to place entries in by hand.  In ``toral`` only
``_transport`` (its per-slot step ``transported``) and the constructions that
change a slot's ring re-index beta (``_reindex_entries``), and every call of
``_transport`` passes the differential on (dV) or sits in a function that
refuses an object with a differential first (``_refuse_differential``).  The tail of a
slot-indexed datum is read by the container ``qw.Slots`` alone: no function
of ``qw``, ``toral``, ``dihedral`` or ``cli`` outside it falls back to ``d[TAIL]``,
compares a key with ``TAIL``, pops ``TAIL`` or builds a key union with
``TAIL``, and no ``SlotFamily`` is built by splitting slots at ``TAIL``.
``toral.injective_resolution``, its per-slot ``stage`` and every ``toral``
function or method they reach read none of the window walks
(``cokernel_of_map``, ``window_subquotient``, ``canonical_from_window``,
``kernel_of_map``).
Only ``cli.write_report`` opens a file for writing, and no call passes
``indent=`` to ``json.dumps``: report text is built by ``cli.report_text``.
No module but ``linalg`` names its forward-only elimination
(``_forward_rank``): every other module ranks through ``QMatrix.rank``.
``toral.HomSpace`` reads its equations off the structure maps' entries, and
``toral.ext_A`` ranks post-composition off the resolution's projections:
no method of ``HomSpace``, nor ``ext_A``, nor any function they call (but
the resolution's own construction) builds a ``ModuleMap`` or
``ToralMorphism`` or composes a map.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import so3alg

PACKAGE = Path(so3alg.__file__).resolve().parent


def _package_imports(module: str):
    """(imported module, imported names) for every import of an so3alg
    module in the source of ``module``, at any depth of the file."""
    return _imports_in(ast.parse((PACKAGE / f"{module}.py").read_text()))


def _imports_in(tree):
    """(imported module, imported names) for every import of an so3alg
    module in a tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                target = node.module or ""
            elif node.level == 0 and (node.module or "").startswith("so3alg."):
                target = node.module[len("so3alg."):]
            else:
                continue
            out.append((target, [a.name for a in node.names]))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("so3alg."):
                    out.append((a.name[len("so3alg."):], []))
    return out


def _name_uses(tree, name: str):
    """The enclosing function of every use of ``name``, bare or as an
    attribute (a call, or a reference passed on); imports are not uses."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            out.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


# ``linalg.chain_homology`` assumes d squared is zero; these callers pass it
# only complexes whose constructors or entry checks verified that
HOMOLOGY_CALLERS = {("exceptional", "homology_W"), ("qw", "qw_homology")}


def test_chain_homology_is_called_only_on_checked_complexes():
    uses = {
        (module, func) for module in _modules() for func in _name_uses(_tree(module), "chain_homology")
    }
    assert uses == HOMOLOGY_CALLERS


def test_homology_caller_scan_sees_a_planted_use():
    source = (
        "from .linalg import chain_homology\n"
        "def cone_homology(dims, mats):\n"
        "    return linalg.chain_homology(dims, mats), list(map(chain_homology, mats))\n"
        "def fine(x):\n"
        "    return x.homology()\n"
    )
    assert _name_uses(ast.parse(source), "chain_homology") == ["cone_homology", "cone_homology"]


# a quasi-isomorphism is decided by ``linalg.is_quasi_isomorphism`` alone,
# from the ranks of a mapping cone; the two weak-equivalence predicates call
# it and build no homology representatives or induced maps
QUASI_ISOMORPHISM_CALLERS = {("dihedral", "is_weak_equivalence"), ("exceptional", "is_weq")}
HOMOLOGY_TOOLS = {"qw_homology", "chain_homology", "homology_Ch", "homology_W", "_induced_block"}


def _tools_read(tree, funcs):
    """(function, name) for every read of a homology tool inside one of the
    module-level functions funcs, nested functions included."""
    return [
        (node.name, name)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in funcs
        for inner in ast.walk(node)
        for name in [getattr(inner, "id", None) or getattr(inner, "attr", None)]
        if isinstance(inner, (ast.Name, ast.Attribute)) and name in HOMOLOGY_TOOLS
    ]


def test_only_the_weak_equivalence_predicates_decide_a_quasi_isomorphism():
    uses = {
        (module, func)
        for module in _modules()
        for func in _name_uses(_tree(module), "is_quasi_isomorphism")
    }
    assert uses == QUASI_ISOMORPHISM_CALLERS
    predicates = {func for _module, func in QUASI_ISOMORPHISM_CALLERS}
    for module, _func in QUASI_ISOMORPHISM_CALLERS:
        assert _tools_read(_tree(module), predicates) == [], module


def test_quasi_isomorphism_scan_sees_a_planted_violation():
    source = (
        "from .linalg import chain_homology, is_quasi_isomorphism\n"
        "def is_weq(f):\n"
        "    def level(x):\n"
        "        return linalg.chain_homology(x.dims, x.diffs)\n"
        "    return is_quasi_isomorphism(f) and level(f.x)\n"
        "def is_weak_equivalence(f):\n"
        "    return _induced_block(f) and qw_homology(f.x)\n"
        "def homology_W(x):\n"
        "    return is_quasi_isomorphism(x) and chain_homology(x)\n"
    )
    tree = ast.parse(source)
    assert _name_uses(tree, "is_quasi_isomorphism") == ["is_weq", "homology_W"]
    assert _tools_read(tree, {"is_weq", "is_weak_equivalence"}) == [
        ("is_weq", "chain_homology"),
        ("is_weak_equivalence", "_induced_block"),
        ("is_weak_equivalence", "qw_homology"),
    ]


def test_exceptional_imports_only_linalg_and_errors():
    targets = {target for target, _ in _package_imports("exceptional")}
    assert targets <= {"linalg", "errors"}, targets


def _import_targets(tree) -> set:
    """The so3alg modules a tree imports from, at any depth: ``from .m
    import x``, ``from so3alg.m import x``, ``import so3alg.m``, and the
    modules named by ``from . import m`` or ``from so3alg import m``."""
    out = set()
    for target, names in _imports_in(tree):
        out |= set(names) if target == "" else {target}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "so3alg":
            out |= {a.name for a in node.names}
    return out


def test_qw_imports_only_linalg_and_errors():
    assert _import_targets(_tree("qw")) == {"linalg", "errors"}


def test_dihedral_imports_neither_toral_nor_graded():
    # the dihedral model reaches the Q[W]-spaces through qw alone
    assert _import_targets(_tree("dihedral")) & {"toral", "graded"} == set()
    assert "qw" in _import_targets(_tree("dihedral"))


def test_import_scan_sees_planted_imports():
    source = (
        "from .qw import VMap\n"
        "from . import graded\n"
        "def f():\n"
        "    from so3alg.toral import Slots\n"
        "    import so3alg.cli\n"
        "    from so3alg import burnside\n"
        "    import json\n"
        "    return Slots, graded, so3alg, burnside, json\n"
    )
    assert _import_targets(ast.parse(source)) == {"qw", "graded", "toral", "cli", "burnside"}


def test_a_fresh_import_of_dihedral_loads_neither_toral_nor_graded():
    src = str(PACKAGE.parent)
    probe = "import sys, so3alg.dihedral; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert {"so3alg.dihedral", "so3alg.qw", "so3alg.linalg"} <= loaded
    assert not loaded & {"so3alg.toral", "so3alg.graded"}


# the names that moved from toral into qw, still bound in toral
MOVED_TO_QW = ["TAIL", "QWSpace", "qw_sum", "VMap", "vmap_sum", "qw_homology", "Slots"]


def _rebound(a, b, names) -> list:
    """The names that are not one and the same object in a and in b."""
    return [n for n in names if getattr(a, n, None) is not getattr(b, n, a)]


def test_each_moved_name_is_the_same_object_in_toral_and_qw():
    from so3alg import qw, toral

    assert _rebound(toral, qw, MOVED_TO_QW) == []
    assert set(MOVED_TO_QW) <= set(toral.__all__)


def test_rebound_scan_sees_a_planted_copy():
    from types import SimpleNamespace

    from so3alg import qw

    copy = SimpleNamespace(**{n: getattr(qw, n) for n in MOVED_TO_QW})
    copy.VMap = type("VMap", (qw.VMap,), {})
    del copy.Slots
    assert _rebound(copy, qw, MOVED_TO_QW) == ["VMap", "Slots"]


# the private halves of the canonical order, which ``graded.indexed_module``
# and ``GradedModule.__init__`` own
CANONICAL_ORDER_PRIVATES = {"_sort_key", "_normalize_summand"}


def _canonical_order_imports(module: str, tree):
    """(module, imported module, name) for every import of a private half of
    the canonical order into a module other than graded."""
    return [
        (module, target, name)
        for target, names in _imports_in(tree)
        for name in names
        if name in CANONICAL_ORDER_PRIVATES and module != "graded"
    ]


def test_no_module_outside_graded_imports_the_canonical_order():
    found = [
        hit for module in _modules() for hit in _canonical_order_imports(module, _tree(module))
    ]
    assert found == []


def test_canonical_order_import_scan_sees_a_planted_import():
    source = (
        "from .graded import GradedModule, _sort_key\n"
        "def f(ring, tagged):\n"
        "    from so3alg.graded import _normalize_summand\n"
        "    return _normalize_summand, _sort_key\n"
    )
    tree = ast.parse(source)
    assert _canonical_order_imports("toral", tree) == [
        ("toral", "graded", "_sort_key"), ("toral", "graded", "_normalize_summand"),
    ]
    assert _canonical_order_imports("graded", tree) == []


def test_only_indexed_module_makes_a_module_unsorted():
    # GradedModule._canonical trusts its summands to be in canonical order;
    # indexed_module alone sorts them so.  linalg, the layer below graded,
    # has a QMatrix._canonical of its own
    uses = {
        (module, func)
        for module in _modules()
        if module != "linalg"
        for func in _name_uses(_tree(module), "_canonical")
    }
    assert uses == {("graded", "indexed_module")}


def test_canonical_constructor_scan_sees_a_planted_use():
    source = (
        "def localize(m):\n"
        "    return GradedModule._canonical(m.ring, m.summands)\n"
        "def fixed_points(m):\n"
        "    build = GradedModule._canonical\n"
        "    return build(m.ring, ())\n"
        "def indexed_module(ring, tagged):\n"
        "    return GradedModule._canonical(ring, tagged)\n"
    )
    assert _name_uses(ast.parse(source), "_canonical") == [
        "localize", "fixed_points", "indexed_module",
    ]


# ``graded.homology_realized`` assumes d squared is zero, and its one caller,
# ``toral.homology_dA`` (its per-slot step ``slot_homology``), passes it slot
# differentials that ``ToralObject.__init__`` checked
REALIZED_HOMOLOGY_CALLERS = {("toral", "slot_homology")}
D_SQUARED_PRECONDITION = "d squared must be zero"


def _docstring_of(tree, name: str) -> str:
    """The docstring of the module-level function ``name`` in a tree."""
    func = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    )
    return ast.get_docstring(func) or ""


def test_homology_realized_is_called_only_on_checked_differentials():
    uses = {
        (module, func)
        for module in _modules()
        for func in _name_uses(_tree(module), "homology_realized")
    }
    assert uses == REALIZED_HOMOLOGY_CALLERS
    # both homology routines state what they assume
    for module, func in (("linalg", "chain_homology"), ("graded", "homology_realized")):
        assert D_SQUARED_PRECONDITION in " ".join(_docstring_of(_tree(module), func).split())


def test_homology_realized_scan_sees_a_planted_call_and_a_missing_precondition():
    source = (
        "from .graded import homology_realized\n"
        "def homology_dA(x):\n"
        "    def slot_homology(key):\n"
        "        return homology_realized(x.M[key], x.dM[key])\n"
        "    return slot_homology\n"
        "def cone_homology(m, d):\n"
        "    return graded.homology_realized(m, d)\n"
        "def homology_realized(m, d):\n"
        '    """Homology with representatives."""\n'
    )
    tree = ast.parse(source)
    assert _name_uses(tree, "homology_realized") == ["slot_homology", "cone_homology"]
    assert D_SQUARED_PRECONDITION not in _docstring_of(tree, "homology_realized")


def test_no_private_homology_helper_crosses_modules():
    crossings = [
        (path.stem, target, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for target, names in _package_imports(path.stem)
        for name in names
        if name.startswith("_") and "homology" in name
    ]
    assert crossings == []


def _attribute_reads(tree, attrs):
    """(enclosing function, attribute) for every use (read or write) of one
    of attrs in a module's tree; the function is None at module level."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            out.append((func, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


# where a module other than linalg may take a rational apart
DENOMINATOR_READERS = {("cli", "frac_str")}


def test_only_linalg_takes_rationals_apart():
    reads = {
        (path.stem, func)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "linalg"
        for func, _ in _attribute_reads(_tree(path.stem), {"denominator", "as_integer_ratio"})
    }
    assert reads <= DENOMINATOR_READERS, reads - DENOMINATOR_READERS


def _new_calls(tree, cls: str):
    """The enclosing function of every ``X.__new__(...)`` call in a module's
    tree whose receiver or first argument names ``cls``."""
    out = []

    def names(node):
        return isinstance(node, ast.Name) and node.id == cls

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
            and (names(node.func.value) or (node.args and names(node.args[0])))
        ):
            out.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_graded_modules_bypass_init_only_through_the_one_constructor():
    # every GradedModule carries a basis cache; __init__ and
    # GradedModule._canonical are the only places that make one
    calls = {
        (path.stem, func)
        for path in sorted(PACKAGE.glob("*.py"))
        for func in _new_calls(_tree(path.stem), "GradedModule")
    }
    assert calls == {("graded", "_canonical")}


# the classes with a trusted constructor ``_assembled``
TRUSTED_CLASSES = {
    "GroupComplex", "DihedralObject", "QWComplex", "ToralObject", "DihedralMorphism", "VMap",
}


def _trusted_uses(tree, cls: str):
    """(``cls.__new__`` calls, uses of ``cls._assembled``): the enclosing
    function of each.  An ``_assembled`` read through anything but the name
    of another trusted class (an instance, ``type(x)``) counts for every
    class."""
    out = []
    others = TRUSTED_CLASSES - {cls}

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr == "_assembled":
            receiver = node.value
            if not (isinstance(receiver, ast.Name) and receiver.id in others):
                out.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sorted(_new_calls(tree, cls)), sorted(out)


def _trusted_uses_by_module(cls: str):
    uses = {module: _trusted_uses(_tree(module), cls) for module in _modules()}
    return {m: u for m, u in uses.items() if u != ([], [])}


def test_only_tensor_hom_and_homology_skip_the_complex_checks():
    # GroupComplex.__init__ checks data from outside; GroupComplex._assembled
    # takes complexes this package builds from checked parts, unchecked, and
    # only the total complex and homology may use it
    assert _trusted_uses_by_module("GroupComplex") == {
        "exceptional": (["_assembled"], ["_total_complex", "homology_W"]),
    }


# the constructions that build a dihedral object or a Q[W]-complex from
# checked parts, and so may skip the checks of ``__init__``
TRUSTED_DIHEDRAL = [
    "cone", "direct_sum_dihedral", "functor_const", "functor_i_k",
    "homology_Ch", "normalized", "suspend_dihedral", "zero_dihedral",
]
TRUSTED_QW_COMPLEX = ["_germ_fixed_points_of_normal", "level", "level_inf"]


def test_only_derived_constructions_skip_the_dihedral_checks():
    assert _trusted_uses_by_module("DihedralObject") == {
        "dihedral": (["_assembled"], TRUSTED_DIHEDRAL),
    }
    assert _trusted_uses_by_module("QWComplex") == {
        "dihedral": (["_assembled"], TRUSTED_QW_COMPLEX),
    }


# the constructions that rebuild a toral object from a checked one, and so
# may skip the checks of ``ToralObject.__init__``: the slot-by-slot rebuild
# and the re-listing of slots
TRUSTED_TORAL = ["_transport", "_with_slots"]


def test_only_rebuilds_of_checked_objects_skip_the_toral_checks():
    assert _trusted_uses_by_module("ToralObject") == {
        "toral": (["_assembled"], TRUSTED_TORAL),
    }


# the morphisms whose germ square commutes by construction: identities,
# composites of morphisms, and the units and counits of the adjunctions
TRUSTED_DIHEDRAL_MORPHISM = ["compose", "counit_const", "counit_i_p", "identity", "unit_p_i"]


def test_only_morphisms_that_commute_by_construction_skip_the_germ_square():
    assert _trusted_uses_by_module("DihedralMorphism") == {
        "dihedral": (["_assembled"], TRUSTED_DIHEDRAL_MORPHISM),
    }


# the V-maps whose blocks have their type's shapes by construction: products,
# sums and rescalings of checked maps, their shifts and twists, identities and
# zeros, fixed parts, the one block assembler (behind block-diagonal sums,
# cone differentials, the germ fixed points' maps and the counit) and the
# germ maps of homology; ``toral`` builds every V-map through these
TRUSTED_VMAP_QW = [
    "__add__", "block_vmap", "compose", "fixed", "identity", "scale", "suspend", "twist", "zero",
]
TRUSTED_VMAP_DIHEDRAL = ["level"]


def test_only_shaped_constructions_skip_the_vmap_shape_check():
    assert _trusted_uses_by_module("VMap") == {
        "qw": (["_assembled"], TRUSTED_VMAP_QW),
        "dihedral": ([], TRUSTED_VMAP_DIHEDRAL),
    }


def _calls_of(tree, name: str):
    """The enclosing function of every call of ``name``, bare or as an
    attribute (``qw.VMap(...)``)."""
    return [
        func for func, node in _enclosed(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == name
            or isinstance(node.func, ast.Attribute) and node.func.attr == name
        )
    ]


def _enclosed(tree):
    """(enclosing function, node) for every node of a tree; None at module
    level."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        out.append((func, node))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


# V-maps from outside enter through the JSON decoder; every V-map the package
# builds itself goes through ``VMap._assembled``
CHECKED_VMAP_CALLERS = [("cli", "vmap_from_json")]


def test_only_the_decoder_builds_a_checked_vmap():
    calls = [(module, func) for module in _modules() for func in _calls_of(_tree(module), "VMap")]
    assert calls == CHECKED_VMAP_CALLERS


def test_checked_vmap_scan_sees_a_planted_call():
    source = (
        "def level(h, space, blocks):\n"
        "    return VMap(h, space, 0, blocks), qw.VMap(h, h, 0, {})\n"
        "def fine(h):\n"
        "    return VMap._assembled(h, h, 0, {}), VMap.zero(h, h), isinstance(h, VMap)\n"
    )
    assert _calls_of(ast.parse(source), "VMap") == ["level", "level"]


def test_dihedral_assembles_no_block_matrix():
    # dihedral's V-maps are assembled by qw.block_vmap, which owns the call
    tree = _tree("dihedral")
    assert _name_uses(tree, "block_matrix") == []
    assert [names for _target, names in _imports_in(tree) if "block_matrix" in names] == []
    assert _name_uses(_tree("qw"), "block_matrix") == ["block_vmap"]


def test_block_matrix_scan_sees_a_planted_assembly():
    source = (
        "from .linalg import block_matrix\n"
        "def _cone_diff(sa, sb, parts):\n"
        "    return linalg.block_matrix([sa], [sb], parts), block_matrix([sa], [sb], parts)\n"
    )
    tree = ast.parse(source)
    assert _name_uses(tree, "block_matrix") == ["_cone_diff", "_cone_diff"]
    assert [names for _target, names in _imports_in(tree) if "block_matrix" in names] == [["block_matrix"]]


def test_morphism_and_vmap_trusted_scans_see_a_planted_bypass():
    source = (
        "def identity(x):\n"
        "    return DihedralMorphism._assembled(x, x, 0, VMap._assembled(x, x, 0, {}), {})\n"
        "def sneak(x, f):\n"
        "    g = DihedralMorphism.__new__(DihedralMorphism)\n"
        "    return g, object.__new__(VMap), f._assembled(x)\n"
        "def rescale(f):\n"
        "    return VMap._assembled(f.domain, f.codomain, f.degree, {})\n"
    )
    tree = ast.parse(source)
    assert _trusted_uses(tree, "DihedralMorphism") == (["sneak"], ["identity", "sneak"])
    assert _trusted_uses(tree, "VMap") == (["sneak"], ["identity", "rescale", "sneak"])
    assert _trusted_uses(tree, "ToralObject") == ([], ["sneak"])


def test_toral_trusted_scan_sees_a_planted_bypass():
    source = (
        "def homology_dA(x):\n"
        "    return ToralObject._assembled(x.side, x.M, x.V, x.beta)\n"
        "def sneak(side):\n"
        "    return ToralObject.__new__(ToralObject), DihedralObject._assembled(side)\n"
    )
    assert _trusted_uses(ast.parse(source), "ToralObject") == (["sneak"], ["homology_dA"])


def test_trusted_complex_scan_sees_a_planted_bypass():
    source = (
        "class GroupComplex:\n"
        "    @staticmethod\n"
        "    def _assembled(algebra, modules):\n"
        "        return GroupComplex.__new__(GroupComplex)\n"
        "def sneak(algebra):\n"
        "    x = object.__new__(GroupComplex)\n"
        "    return x, GroupComplex._assembled(algebra, {})\n"
        "def other(m, P):\n"
        "    return DihedralObject._assembled(m), type(m)._assembled(m), P._assembled(m)\n"
    )
    tree = ast.parse(source)
    assert _trusted_uses(tree, "GroupComplex") == (
        ["_assembled", "sneak"], ["other", "other", "sneak"],
    )
    assert _trusted_uses(tree, "DihedralObject") == ([], ["other", "other", "other"])


def _check_differential_calls(tree):
    """The enclosing function of every call of a ``check_differential``
    method in a module's tree."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "check_differential"
        ):
            out.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_complexes_are_checked_only_by_their_constructors():
    # d squared and the germ are checked where data enters, so no derived
    # construction or predicate checks them again
    calls = {
        module: sorted(set(_check_differential_calls(_tree(module))))
        for module in ("dihedral", "exceptional")
    }
    assert calls == {"dihedral": ["__init__"], "exceptional": ["__init__"]}


def test_check_differential_scan_sees_a_planted_recheck():
    source = (
        "class C:\n"
        "    def __init__(self):\n"
        "        self.check_differential()\n"
        "def homology(x):\n"
        "    x.check_differential()\n"
        "    return [y.check_differential() for y in x.parts]\n"
    )
    assert _check_differential_calls(ast.parse(source)) == ["__init__", "homology", "homology"]


def _tree(module: str):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _modules():
    return [path.stem for path in sorted(PACKAGE.glob("*.py"))]


def _unread_imports(tree):
    """Names bound by an import in a module's tree and never read: not
    loaded as a name, and not listed in ``__all__``."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in read]


def test_every_imported_name_is_read():
    unread = {module: _unread_imports(_tree(module)) for module in _modules()}
    assert {m: names for m, names in unread.items() if names} == {}


def test_unread_import_scan_sees_an_unread_name():
    source = "from __future__ import annotations\nimport json\nfrom .linalg import Q, QMatrix\nx = Q(1)\n"
    assert _unread_imports(ast.parse(source)) == ["json", "QMatrix"]
    assert _unread_imports(ast.parse("from .linalg import Q\n__all__ = ['Q']\n")) == []


def _own_nodes(func):
    """The nodes of a function's body, not descending into nested
    functions, lambdas or classes: those have their own locals."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(tree):
    """(function, name) for every local a function assigns and never reads.

    A local is read when it is loaded anywhere in the function, nested
    functions included.  Names starting with ``_`` are exempt, and so are
    names the function declares global or nonlocal.
    """
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, declared = set(), set()
        for node in _own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                stored.add(node.name)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = {
            node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        out += [
            (func.name, name) for name in sorted(stored - read - declared)
            if not name.startswith("_")
        ]
    return out


def test_every_assigned_local_is_read():
    unread = {module: _unread_locals(_tree(module)) for module in _modules()}
    assert {m: names for m, names in unread.items() if names} == {}


def test_unread_local_scan_sees_an_unread_local():
    source = (
        "def f(xs):\n"
        "    total, _skip = 0, 1\n"
        "    for i, x in enumerate(xs):\n"
        "        total = x\n"
        "    def g():\n"
        "        y = [z for z in xs]\n"
        "        return total\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as e:\n"
        "        pass\n"
        "    return g\n"
    )
    assert sorted(_unread_locals(ast.parse(source))) == [("f", "e"), ("f", "i"), ("g", "y")]
    assert _unread_locals(ast.parse("def f():\n    global n\n    n = 1\n")) == []


def _unread_parameters(tree):
    """(function, parameter) for every parameter of a module-level private
    function (``_name``, not a dunder) that the function never reads, nested
    functions included.  Parameters starting with ``_`` are exempt."""
    out = []
    for func in tree.body:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not func.name.startswith("_") or func.name.startswith("__"):
            continue
        a = func.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {
            node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        out += [(func.name, p) for p in params if p not in read and not p.startswith("_")]
    return out


def test_every_private_function_reads_its_parameters():
    unread = {module: _unread_parameters(_tree(module)) for module in _modules()}
    assert {m: names for m, names in unread.items() if names} == {}


def test_unread_parameter_scan_sees_an_unread_parameter():
    source = (
        "def _f(a, b, *rest, c=1, _d=2, **kw):\n"
        "    def g():\n"
        "        return a\n"
        "    return g, kw\n"
        "def public(x):\n"
        "    return 0\n"
        "class C:\n"
        "    def _m(self, y):\n"
        "        return self\n"
    )
    assert _unread_parameters(ast.parse(source)) == [("_f", "b"), ("_f", "c"), ("_f", "rest")]


def _is_rational_zero(node) -> bool:
    """``Q(0)``, ``Fraction(0)`` or the name ``_ZERO``."""
    if isinstance(node, ast.Name):
        return node.id == "_ZERO"
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("Q", "Fraction")
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == 0
    )


def _zero_grids(tree):
    """Line of every comprehension whose element is ``[zero] * n``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ListComp)
        and isinstance(node.elt, ast.BinOp)
        and isinstance(node.elt.op, ast.Mult)
        and isinstance(node.elt.left, ast.List)
        and len(node.elt.left.elts) == 1
        and _is_rational_zero(node.elt.left.elts[0])
    ]


def test_only_linalg_allocates_zero_grids():
    grids = {
        module: _zero_grids(_tree(module)) for module in _modules() if module != "linalg"
    }
    assert {m: lines for m, lines in grids.items() if lines} == {}


def test_zero_grid_scan_sees_a_hand_placed_grid():
    assert _zero_grids(ast.parse("m = [[Q(0)] * c for _ in range(r)]\n")) == [1]
    assert _zero_grids(ast.parse("m = [[_ZERO] * c for _ in range(r)]\n")) == [1]
    assert _zero_grids(ast.parse("maps = [[0] * n for m in modules]\n")) == []
    # the Fraction oracles of the linear algebra tests place entries in such
    # grids; linalg places ints, which the scan does not count
    assert _zero_grids(ast.parse((Path(__file__).parent / "test_linalg.py").read_text()))


# a QMatrix's storage, ints over one denominator, and ``data``, the name of
# the Fraction rows that storage replaced
MATRIX_STORAGE = {"data", "ints", "den"}


def test_only_linalg_touches_matrix_storage():
    touches = {
        module: sorted({func or "<module>" for func, _ in _attribute_reads(_tree(module), MATRIX_STORAGE)})
        for module in _modules()
        if module != "linalg"
    }
    assert {m: funcs for m, funcs in touches.items() if funcs} == {}


def test_storage_scan_sees_a_planted_write_and_read():
    source = "def f(m, x):\n    m.data[0][1] = x\n    return m.ints[0][0] * m.den\n"
    assert sorted(_attribute_reads(ast.parse(source), MATRIX_STORAGE)) == [
        ("f", "data"), ("f", "den"), ("f", "ints"),
    ]
    assert _attribute_reads(_tree("linalg"), MATRIX_STORAGE)


# the forward-only elimination behind ``QMatrix.rank``; a rank elsewhere goes
# through that method, which the benchmark's tracer sees as ``linalg.rank``
FORWARD_RANK = "_forward_rank"


def _forward_rank_names(tree):
    """Where a tree names the forward-only elimination: the enclosing function
    of each use, bare, as an attribute or as a string ("<module>" at module
    level), and "<import>" for each import of it."""
    uses = [func or "<module>" for func in _name_uses(tree, FORWARD_RANK)]
    uses += [
        "<string>" for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == FORWARD_RANK
    ]
    return uses + ["<import>" for _, names in _imports_in(tree) if FORWARD_RANK in names]


def test_only_linalg_names_the_forward_only_elimination():
    names = {module: _forward_rank_names(_tree(module)) for module in _modules() if module != "linalg"}
    assert {m: uses for m, uses in names.items() if uses} == {}
    assert _forward_rank_names(_tree("linalg"))


def test_forward_rank_scan_sees_a_planted_use():
    source = (
        "from .linalg import _forward_rank\n"
        "from so3alg import linalg\n"
        "def quick_rank(m):\n"
        "    return linalg._forward_rank(m.ints, m.cols)\n"
        "def sneaky_rank(m):\n"
        "    return getattr(linalg, '_forward_rank')(m.ints, m.cols)\n"
        "def fine(m):\n"
        "    return m.rank()\n"
    )
    assert _forward_rank_names(ast.parse(source)) == ["quick_rank", "<string>", "<import>"]


# a hom space reads its equations off the structure maps' entries and Ext
# ranks post-composition off the resolution's projections: no method of
# ``toral.HomSpace``, nor ``toral.ext_A``, nor any module-level function they
# call by its bare name constructs a ``ModuleMap`` or ``ToralMorphism`` or
# composes a map; the scan does not enter the resolution's construction,
# whose maps ``ext_A`` reads
MAP_SCAN_STOPS = {"injective_resolution"}


def _map_builders(tree):
    """(function, "ModuleMap", "ToralMorphism" or "compose") for every mention
    of the two classes and every use of ``.compose`` in the methods of
    ``HomSpace``, in ``ext_A`` and in the module-level functions they reach by
    bare-name calls, outside ``MAP_SCAN_STOPS``."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "HomSpace")
    todo = [m for m in cls.body if isinstance(m, ast.FunctionDef)] + [defs["ext_A"]]
    seen, out = set(), set()
    while todo:
        func = todo.pop()
        if id(func) in seen:
            continue
        seen.add(id(func))
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
                node.func.id in defs.keys() - MAP_SCAN_STOPS
            ):
                todo.append(defs[node.func.id])
            name = getattr(node, "id", None) if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("ModuleMap", "ToralMorphism") or (isinstance(node, ast.Attribute) and name == "compose"):
                out.add((func.name, name))
    return sorted(out)


def test_hom_spaces_build_and_compose_no_maps():
    assert _map_builders(_tree("toral")) == []


def test_hom_space_map_scan_sees_a_planted_map():
    source = (
        "def _unit(dom, cod, t, e):\n"
        "    return ModuleMap(dom, cod, t, {e: 1})\n"
        "def _rows(terms):\n"
        "    return [graded.ModuleMap.zero(a, b) for a, b in terms]\n"
        "def _unread(x):\n"
        "    return ModuleMap.identity(x)\n"
        "def injective_resolution(y):\n"
        "    return ToralMorphism(y, y, 0, {}, None)\n"
        "def _basis_morphism(h, k):\n"
        "    return ToralMorphism(h.x, h.y, h.degree, {}, None)\n"
        "class HomSpace:\n"
        "    def __init__(self, x, y, t):\n"
        "        self.terms = [x.beta[1].compose(_unit(x, y, t, (0, 0)))]\n"
        "    def dim(self):\n"
        "        return len(_rows(self.terms))\n"
        "def ext_A(x, y, degrees):\n"
        "    res = injective_resolution(y)\n"
        "    h = HomSpace(x, res.Y0, 0)\n"
        "    return [res.quot[1].compose(_basis_morphism(h, k).alpha[1]) for k in degrees]\n"
    )
    assert _map_builders(ast.parse(source)) == [
        ("__init__", "compose"), ("_basis_morphism", "ToralMorphism"), ("_rows", "ModuleMap"),
        ("_unit", "ModuleMap"), ("ext_A", "compose"),
    ]


def _callers(tree, name: str):
    """The enclosing function of every call of the bare name ``name``."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name:
            out.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sorted(set(out))


# the constructions that change the ring of a slot, and so move beta between
# models of V by hand; every other rebuild goes through ``_transport``, whose
# per-slot step is ``transported``
REINDEXERS = ["_localized_beta", "functor_F", "functor_R", "transported"]


def test_only_transport_and_the_ring_changes_reindex_beta():
    assert _callers(_tree("toral"), "_reindex_entries") == REINDEXERS


def test_reindex_scan_sees_a_planted_call():
    source = (
        "def suspend_object(x, k):\n"
        "    def build(key):\n"
        "        return _reindex_entries(x.beta[key].entries, tags, pos)\n"
        "    return build\n"
        "def _transport(side, v, parts):\n"
        "    return toral._reindex_entries({}, [], {})\n"
    )
    assert _callers(ast.parse(source), "_reindex_entries") == ["build"]


# a resolution reads coker beta off the free summands and ker beta off the
# canonical form: ``injective_resolution``, its ``stage`` and every ``toral``
# function or method they reach walk no window
WINDOW_WALKS = {"cokernel_of_map", "window_subquotient", "canonical_from_window", "kernel_of_map"}


def _reached(tree, root: str):
    """The module-level functions and methods of a tree that ``root``
    reaches: every one whose name a reached one reads, as a bare name or an
    attribute (so a method is reached through any object); reading a class
    reaches all its methods, and a nested function belongs to its parent."""
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, ast.ClassDef):
            methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
            defs.setdefault(node.name, []).extend(methods)
            for n in methods:
                defs.setdefault(n.name, []).append(n)
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for func in defs[name]:
            todo += [
                read for inner in ast.walk(func)
                for read in [getattr(inner, "id", None) or getattr(inner, "attr", None)]
                if isinstance(inner, (ast.Name, ast.Attribute)) and read in defs
            ]
    return [func for name in sorted(seen) for func in defs[name]]


def _window_walks(tree, root: str):
    """(function, walk) for every read of a window walk in a function that
    ``root`` reaches."""
    return sorted({
        (func.name, name)
        for func in _reached(tree, root)
        for inner in ast.walk(func)
        for name in [getattr(inner, "id", None) or getattr(inner, "attr", None)]
        if isinstance(inner, (ast.Name, ast.Attribute)) and name in WINDOW_WALKS
    })


def test_injective_resolution_walks_no_window():
    reached = {func.name for func in _reached(_tree("toral"), "injective_resolution")}
    assert {"injective_resolution", "check_exact", "check_star", "make_fN"} <= reached
    assert _window_walks(_tree("toral"), "injective_resolution") == []


def test_window_walk_scan_sees_a_planted_walk():
    source = (
        "from .graded import cokernel_of_map, kernel_of_map\n"
        "def _quotient(b, win):\n"
        "    return cokernel_of_map(b, win)\n"
        "class Resolution:\n"
        "    def check(self):\n"
        "        return graded.canonical_from_window(self.wm)\n"
        "def injective_resolution(x, window):\n"
        "    def stage(key):\n"
        "        return graded.window_subquotient(x.M[key], window)\n"
        "    return Resolution(_quotient(stage(1), window)).check()\n"
        "def wide_sphere_cover(x):\n"
        "    return kernel_of_map(x.beta[1], (0, 0))\n"
    )
    assert _window_walks(ast.parse(source), "injective_resolution") == [
        ("_quotient", "cokernel_of_map"),
        ("check", "canonical_from_window"),
        ("injective_resolution", "window_subquotient"),
    ]


def _refuses_first(func) -> bool:
    """Whether the first statement of func, past its docstring, is a call of
    ``_refuse_differential``."""
    body = func.body[1:] if ast.get_docstring(func) is not None else func.body
    first = body[0] if body else None
    return (
        isinstance(first, ast.Expr) and isinstance(first.value, ast.Call)
        and isinstance(first.value.func, ast.Name) and first.value.func.id == "_refuse_differential"
    )


def _transports_dropping_a_differential(tree):
    """The enclosing function of every use of ``_transport`` that is not a
    call passing dV, the differential of the new V, positionally or by name,
    from a function that refuses an object with a differential first; a use
    that is not a call is listed too."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_transport":
            passes = len(node.args) >= 4 or any(k.arg == "dV" for k in node.keywords)
            if not (passes or (func is not None and _refuses_first(func))):
                out.append(func.name if func else None)
            children = node.args + [k.value for k in node.keywords]
        else:
            if isinstance(node, ast.Name) and node.id == "_transport":
                out.append(func.name if func else None)
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, func)

    visit(tree, None)
    return out


def test_every_transport_keeps_or_refuses_the_differential():
    # parity_split refuses an object with a differential; suspension, the
    # twist and the direct sum carry it to the new object
    tree = _tree("toral")
    assert _transports_dropping_a_differential(tree) == []
    assert "parity_split" in _callers(tree, "_transport")
    assert _refuses_first(next(n for n in tree.body if getattr(n, "name", None) == "parity_split"))


def test_transport_scan_sees_a_planted_violation():
    source = (
        "def parity_split(x):\n"
        "    _refuse_differential('the parity split', x)\n"
        "    return _transport(x.side, x.V, [])\n"
        "def suspend_object(x, k):\n"
        "    return _transport(x.side, x.V.suspend(k), [], x.dV.suspend(k))\n"
        "def twist_object(y):\n"
        "    return _transport('O2', y.V.twist(), parts, dV=None)\n"
        "def functor_F(x):\n"
        "    y = _transport(x.side, x.V, [])\n"
        "    _refuse_differential('F', x)\n"
        "    return y\n"
        "def direct_sum_objects(a, b):\n"
        "    return _transport(a.side, v, [(a, _transport, _unchanged)])\n"
    )
    assert _transports_dropping_a_differential(ast.parse(source)) == [
        "functor_F", "direct_sum_objects", "direct_sum_objects",
    ]


def _is_tail(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "TAIL"


def _hand_split_tails(tree):
    """Every function that calls ``SlotFamily(...)`` and
    splits slots at the tail on its own: compares a key with TAIL, pops
    TAIL, or hands SlotFamily an argument that reads ``[TAIL]``."""
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        families = [
            node for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "SlotFamily"
        ]
        if not families:
            continue
        splits = any(
            isinstance(node, ast.Compare) and any(map(_is_tail, [node.left, *node.comparators]))
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop" and any(map(_is_tail, node.args))
            for node in ast.walk(func)
        ) or any(
            isinstance(node, ast.Subscript) and _is_tail(node.slice)
            for call in families for arg in call.args for node in ast.walk(arg)
        )
        if splits:
            out.append(func.name)
    return sorted(out)


def test_slot_families_are_split_at_the_tail_in_one_place():
    # a SlotFamily is built from listed modules and a tail, never by
    # splitting a dict of slots at TAIL: that is the container's to do
    assert {module: _hand_split_tails(_tree(module)) for module in TAIL_MODULES} == {
        module: [] for module in TAIL_MODULES
    }


def test_hand_split_scan_sees_a_planted_split():
    source = (
        "def resolve(side, I):\n"
        "    return SlotFamily(side, {k: v for k, v in I.items() if k != TAIL}, I[TAIL])\n"
        "def suspend(side, slots):\n"
        "    tail = slots.pop(TAIL)\n"
        "    return SlotFamily(side, slots, tail)\n"
        "def homology(side, x):\n"
        "    explicit = {}\n"
        "    for key in x.keys():\n"
        "        if key == TAIL:\n"
        "            tail = x.M.tail\n"
        "        else:\n"
        "            explicit[key] = x.M.slot(key)\n"
        "    return SlotFamily(side, explicit, tail)\n"
        "def passed(side, slots):\n"
        "    return SlotFamily(side, slots, slots_tail[TAIL])\n"
        "def fine(side, tail):\n"
        "    return SlotFamily(side, {}, tail), {TAIL: tail}, beta[TAIL]\n"
        "def _slot_family(side, slots):\n"
        "    explicit = dict(slots)\n"
        "    tail = explicit.pop(TAIL)\n"
        "    return SlotFamily(side, explicit, tail)\n"
    )
    # no function is exempt, a split helper included
    assert _hand_split_tails(ast.parse(source)) == [
        "_slot_family", "homology", "passed", "resolve", "suspend",
    ]


# the modules that index data by slot, and the class that reads their tails
TAIL_MODULES = ("qw", "toral", "dihedral", "cli")
TAIL_CONTAINER = "Slots"
# parsing a key from text compares it with the tail's name and reads nothing
TAIL_PARSERS = [("cli", "_slot_key", "compare")]


def _holds_tail(node) -> bool:
    return isinstance(node, (ast.Set, ast.List, ast.Tuple)) and any(map(_is_tail, node.elts))


def _tail_rule(node):
    """The tail read that node is, or None: a ``d.get(key, d[TAIL])``
    fallback, a comparison with TAIL (or membership in a literal holding
    it), a ``pop(TAIL)``, or a key union
    ``... | {TAIL}`` or ``... + [TAIL]``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        args = node.args
        if node.func.attr == "get" and len(args) == 2 and isinstance(args[1], ast.Subscript) \
                and _is_tail(args[1].slice):
            return "fallback"
        if node.func.attr == "pop" and any(map(_is_tail, args)):
            return "pop"
    if isinstance(node, ast.Compare) and any(
        _is_tail(side) or _holds_tail(side) for side in [node.left, *node.comparators]
    ):
        return "compare"
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.Add)) \
            and (_holds_tail(node.left) or _holds_tail(node.right)):
        return "union"
    return None


def _tail_reads(tree):
    """(function, rule) for every tail read in a module's tree outside the
    container class; the function is None at module level."""
    out = []

    def visit(node, func):
        if isinstance(node, ast.ClassDef) and node.name == TAIL_CONTAINER:
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        rule = _tail_rule(node)
        if rule is not None:
            out.append((func, rule))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sorted(out, key=str)


def test_only_the_slot_container_reads_the_tail():
    reads = [
        (module, func, rule)
        for module in TAIL_MODULES
        for func, rule in _tail_reads(_tree(module))
    ]
    assert reads == TAIL_PARSERS
    # the container does read the tail, so the scan has something to skip
    container = next(
        node for node in ast.walk(_tree("qw"))
        if isinstance(node, ast.ClassDef) and node.name == TAIL_CONTAINER
    )
    assert {_tail_rule(node) for node in ast.walk(container)} >= {"compare", "union"}


def test_tail_scan_sees_a_planted_fallback():
    source = (
        "class ToralObject:\n"
        "    def beta_at(self, key):\n"
        "        return self.beta.get(key, self.beta[TAIL])\n"
        "def fine(d, key):\n"
        "    return d.get(key, d[key]), d.get(key), d[TAIL]\n"
    )
    assert _tail_reads(ast.parse(source)) == [("beta_at", "fallback")]


def test_tail_scan_sees_a_planted_comparison():
    source = (
        "def _proof_cover(x, key):\n"
        "    pinned = x.M.explicit if key == TAIL else {}\n"
        "    return [k for k in x.keys() if TAIL != k or k in (TAIL,)]\n"
        "def fine(x, key):\n"
        "    return key == 1, key in x.keys()\n"
    )
    assert _tail_reads(ast.parse(source)) == [
        ("_proof_cover", "compare"), ("_proof_cover", "compare"), ("_proof_cover", "compare"),
    ]


def test_tail_scan_sees_a_planted_pop():
    source = (
        "def homology_Ch(m, slots):\n"
        "    tail = slots.pop(TAIL)\n"
        "    return tail, slots.pop(3), slots.pop(TAIL, None)\n"
    )
    assert _tail_reads(ast.parse(source)) == [("homology_Ch", "pop"), ("homology_Ch", "pop")]


def test_tail_scan_sees_a_planted_key_union():
    source = (
        "def compose(a, b):\n"
        "    keys = set(a.explicit) | set(b.explicit) | {TAIL}\n"
        "    return keys, sorted(set(a.explicit) | set(b.explicit)) + [TAIL]\n"
        "def fine(a, b):\n"
        "    return set(a.explicit) | set(b.explicit), [1] + [2], {TAIL: a}\n"
        "class Slots:\n"
        "    def keys(self):\n"
        "        return sorted(self.explicit) + [TAIL] if self != TAIL else self.pop(TAIL)\n"
    )
    assert _tail_reads(ast.parse(source)) == [("compose", "union"), ("compose", "union")]


# the one function of the package that writes a file: the --out report
FILE_WRITERS = [("cli", "write_report")]
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _opens_for_writing(call) -> bool:
    """Whether a call opens a file for writing: ``open``/``x.open`` with a
    mode that writes (or one the scan cannot read), ``os.open`` with a flag
    that writes, or ``x.write_text``/``x.write_bytes``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return isinstance(func, ast.Attribute)
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os":
        return any(
            isinstance(node, ast.Attribute) and node.attr in _WRITE_FLAGS
            or isinstance(node, ast.Name) and node.id in _WRITE_FLAGS
            for arg in call.args[1:] + [k.value for k in call.keywords]
            for node in ast.walk(arg)
        )
    # open(path, mode) and Path.open(mode): the mode is the last positional
    # argument or the keyword
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    modes += call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    return any(
        not (isinstance(m, ast.Constant) and isinstance(m.value, str))
        or set(m.value) & set("wax+")
        for m in modes
    )


def _file_writes_and_indents(tree):
    """(enclosing function, what) for every call in a module's tree that
    opens a file for writing ("write") or passes ``indent=`` to a
    ``json.dumps``/``json.dump`` ("indent")."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            if _opens_for_writing(node):
                out.append((func, "write"))
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
            if name in ("dumps", "dump") and any(k.arg == "indent" for k in node.keywords):
                out.append((func, "indent"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_only_the_report_writer_writes_a_file_and_nothing_indents_json():
    # reports go through cli.report_text and cli.write_report; json.dumps
    # with indent= is the tests' oracle for that text, not a second writer
    found = [
        (module, func, what)
        for module in _modules()
        for func, what in _file_writes_and_indents(_tree(module))
    ]
    assert found == [(module, func, "write") for module, func in FILE_WRITERS]


def test_file_write_scan_sees_planted_writes_and_indents():
    source = (
        "def load(path):\n"
        "    return open(path), open(path, 'rb'), path.open(), os.open(path, os.O_RDONLY)\n"
        "def save(path, text, mode):\n"
        "    open(path, 'w').write(text)\n"
        "    open(path, mode=mode)\n"
        "    io.open(path, 'a')\n"
        "    path.open('r+')\n"
        "    os.open(path, os.O_WRONLY | os.O_CREAT)\n"
        "    path.write_text(text)\n"
        "    return json.dumps(text, indent=2), json.dumps(text, sort_keys=True)\n"
    )
    assert _file_writes_and_indents(ast.parse(source)) == [("save", "write")] * 6 + [
        ("save", "indent")
    ]
