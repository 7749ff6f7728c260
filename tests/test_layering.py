"""Import layering of the engine, read from the source with ``ast``.

``exceptional`` is a leaf over the linear algebra: it may import only from
``linalg`` and ``errors`` inside the package.  Homology helpers are shared
through the public ``linalg.chain_homology``, so no module imports a private
homology helper from another module.  How a rational matrix is stored (ints
over one denominator) is decided in ``linalg`` alone: no other module touches
a matrix's storage or reads a denominator, except the CLI's rational codec.
Every ``GradedModule`` carries its basis cache: outside ``__init__``, modules
are made only by ``GradedModule._canonical``.  A ``GroupComplex`` skips the
checks of ``__init__`` only through ``GroupComplex._assembled``, which only
the total complex of tensor and hom and ``homology_W`` call; a
``DihedralObject`` or ``QWComplex`` only through its ``_assembled``, which only
the listed constructions from checked parts call.  In ``dihedral`` and
``exceptional`` only an ``__init__`` calls ``check_differential``, so use
sites do not re-check what entered checked.  Every name imported into a module
is read there, every local a function assigns is read in that function, and
every parameter of a module-level private function is read in it.  Block matrices are assembled by ``linalg.block_matrix`` and
``QMatrix.kron``: no other module allocates a rational zero grid
``[[Q(0)] * n for ...]`` to place entries in by hand.  In ``toral`` only
``_transport`` (its per-slot step ``transported``) and the constructions that
change a slot's ring re-index beta (``_reindex_entries``).  The tail of a
slot-indexed datum is read by the container ``toral.Slots`` alone: no function
of ``toral``, ``dihedral`` or ``cli`` outside it falls back to ``d[TAIL]``,
compares a key with ``TAIL``, pops ``TAIL`` or builds a key union with
``TAIL``, and no ``SlotFamily`` is built by splitting slots at ``TAIL``.
"""

import ast
from pathlib import Path

import so3alg

PACKAGE = Path(so3alg.__file__).resolve().parent


def _package_imports(module: str):
    """(imported module, imported names) for every import of an so3alg
    module in the source of ``module``, at any depth of the file."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
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


def test_exceptional_imports_only_linalg_and_errors():
    targets = {target for target, _ in _package_imports("exceptional")}
    assert targets <= {"linalg", "errors"}, targets


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
TRUSTED_CLASSES = {"GroupComplex", "DihedralObject", "QWComplex"}


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
TRUSTED_QW_COMPLEX = ["germ_fixed_points", "level", "level_inf"]


def test_only_derived_constructions_skip_the_dihedral_checks():
    assert _trusted_uses_by_module("DihedralObject") == {
        "dihedral": (["_assembled"], TRUSTED_DIHEDRAL),
    }
    assert _trusted_uses_by_module("QWComplex") == {
        "dihedral": (["_assembled"], TRUSTED_QW_COMPLEX),
    }


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
TAIL_MODULES = ("toral", "dihedral", "cli")
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
        node for node in ast.walk(_tree("toral"))
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
