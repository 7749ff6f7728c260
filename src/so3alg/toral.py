"""The algebraic model attached to the maximal torus.

Objects are pairs (M, V) with a structure map beta from an indexed module
family M into the Laurent extension tensored with a graded involution space
V, subject to the condition that beta becomes an isomorphism after inverting
the Euler classes ("the star condition").  The family M has one slot per
index n >= 1 plus a tail template standing for all cofinal slots; on the
rotation-group side slot 1 is a module over Q[d] without involution, and the
structure map there lands in the W-fixed points of the Laurent module, which
is a module over Q[d, d^{-1}].

Which of the two Laurent models of V a structure map lands in is decided in
one place, ``laurent_model(v, torus)`` with ``torus = x.slot_is_torus(key)``;
each space builds each model once and keeps it.

This module implements the adjunction between the two sides (base change
against fixed points), twisted variants, the basic objects e(V) and f(N),
the standard generators, degreewise hom and Ext via injective resolutions of
length one, homology of differentials, smashing with torsion families, and
wide-sphere covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EngineError,
    InvariantError,
    NotADifferential,
    NotTorsion,
    SchemaError,
    StarConditionError,
)
from .graded import (
    FREE,
    LAURENT,
    LAURENT_C,
    POLY_C,
    POLY_D,
    TORSION,
    GradedModule,
    ModuleMap,
    Summand,
    auto_window,
    base_change_d_to_c,
    base_change_map,
    cokernel_of_map,
    direct_sum,
    fixed_points_c_to_d,
    fixed_points_map,
    homology_realized,
    kernel_of_map,
    localize_map,
    sign_of,
    window_subquotient,
    _sort_key,
    _normalize_summand,
)
from .linalg import Q, QMatrix, block_matrix, chain_homology

TAIL = "tail"

# -- graded involution spaces in eigen form ----------------------------------


class QWSpace:
    """A graded Q[W]-space in canonical eigen form: (plus, minus) per degree.

    The basis in each degree is ordered: sign-+ vectors first.  A space keeps
    its two Laurent models once built (see ``laurent_model``).
    """

    __slots__ = ("dims", "_models")

    def __init__(self, dims: dict[int, tuple[int, int]]):
        self.dims = {g: (p, m) for g, (p, m) in dims.items() if p or m}
        self._models = {}

    @staticmethod
    def zero() -> "QWSpace":
        return QWSpace({})

    def __eq__(self, other):
        return isinstance(other, QWSpace) and self.dims == other.dims

    def __hash__(self):
        return hash(tuple(sorted(self.dims.items())))

    def __repr__(self):
        return f"QWSpace({self.dims})"

    def is_zero(self):
        return not self.dims

    def dim(self, g, sign=None):
        p, m = self.dims.get(g, (0, 0))
        if sign is None:
            return p + m
        return p if sign == 1 else m

    def degrees(self):
        return sorted(self.dims, reverse=True)

    def suspend(self, k):
        return QWSpace({g + k: pm for g, pm in self.dims.items()})

    def twist(self):
        return QWSpace({g: (m, p) for g, (p, m) in self.dims.items()})

    def vectors(self):
        """All (degree, sign, index) basis labels in canonical order."""
        out = []
        for g in self.degrees():
            p, m = self.dims[g]
            out.extend((g, 1, i) for i in range(p))
            out.extend((g, -1, i) for i in range(m))
        return out

    def parity_part(self, parity):
        return QWSpace({g: pm for g, pm in self.dims.items() if g % 2 == parity})


def qw_sum(a: QWSpace, b: QWSpace) -> QWSpace:
    out = {}
    for g in set(a.dims) | set(b.dims):
        pa, ma = a.dims.get(g, (0, 0))
        pb, mb = b.dims.get(g, (0, 0))
        out[g] = (pa + pb, ma + mb)
    return QWSpace(out)


class VMap:
    """A degree-t equivariant map between QWSpaces: blocks per (degree, sign)."""

    __slots__ = ("domain", "codomain", "degree", "blocks")

    def __init__(self, domain: QWSpace, codomain: QWSpace, degree: int, blocks):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        clean = {}
        for (g, s), mat in blocks.items():
            want = (codomain.dim(g + degree, s), domain.dim(g, s))
            if (mat.rows, mat.cols) != want:
                raise SchemaError(f"V-map block {(g, s)} has wrong shape")
            if not mat.is_zero():
                clean[(g, s)] = mat
        self.blocks = clean

    @staticmethod
    def zero(domain, codomain, degree=0):
        return VMap(domain, codomain, degree, {})

    @staticmethod
    def identity(v: QWSpace):
        blocks = {}
        for g, (p, m) in v.dims.items():
            if p:
                blocks[(g, 1)] = QMatrix.identity(p)
            if m:
                blocks[(g, -1)] = QMatrix.identity(m)
        return VMap(v, v, 0, blocks)

    def block(self, g, s):
        mat = self.blocks.get((g, s))
        if mat is None:
            return QMatrix(self.codomain.dim(g + self.degree, s), self.domain.dim(g, s))
        return mat

    def __eq__(self, other):
        return (
            isinstance(other, VMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.degree == other.degree
            and self.blocks == other.blocks
        )

    def is_zero(self):
        return not self.blocks

    def compose(self, other: "VMap") -> "VMap":
        if other.codomain != self.domain:
            raise SchemaError("V-map composition mismatch")
        blocks = {}
        for g in other.domain.dims:
            for s in (1, -1):
                # a missing block is zero, and so is any product with it
                right = other.blocks.get((g, s))
                left = self.blocks.get((g + other.degree, s))
                if right is not None and left is not None:
                    blocks[(g, s)] = left @ right
        return VMap(other.domain, self.codomain, self.degree + other.degree, blocks)

    def __add__(self, other):
        blocks = {}
        for key in set(self.blocks) | set(other.blocks):
            blocks[key] = self.block(*key) + other.block(*key)
        return VMap(self.domain, self.codomain, self.degree, blocks)

    def scale(self, k):
        return VMap(
            self.domain, self.codomain, self.degree,
            {key: mat.scale(k) for key, mat in self.blocks.items()},
        )

    def suspend(self, k):
        return VMap(
            self.domain.suspend(k), self.codomain.suspend(k), self.degree,
            {(g + k, s): mat for (g, s), mat in self.blocks.items()},
        )

    def twist(self):
        return VMap(
            self.domain.twist(), self.codomain.twist(), self.degree,
            {(g, -s): mat for (g, s), mat in self.blocks.items()},
        )


def vmap_sum(dom: QWSpace, cod: QWSpace, maps) -> VMap:
    """Block-diagonal sum of maps whose domains and codomains add up."""
    degree = maps[0].degree
    blocks = {}
    for g in dom.dims:
        for s in (1, -1):
            parts = {(i, i): f.blocks[(g, s)] for i, f in enumerate(maps) if (g, s) in f.blocks}
            if parts:
                blocks[(g, s)] = block_matrix(
                    [f.codomain.dim(g + degree, s) for f in maps],
                    [f.domain.dim(g, s) for f in maps],
                    parts,
                )
    return VMap(dom, cod, degree, blocks)


# -- Laurent models of V -----------------------------------------------------


def _module_with_index(ring, tagged):
    """Build a module from (summand, tag) pairs; returns (module, tags, pos).

    tags is a tuple aligned with the module's summand order; pos maps
    tag -> index.
    """
    norm = [(_normalize_summand(ring, s), tag) for s, tag in tagged]
    order = sorted(range(len(norm)), key=lambda k: (_sort_key(norm[k][0]), k))
    m = GradedModule._canonical(ring, (norm[k][0] for k in order))
    tags = tuple(norm[k][1] for k in order)
    pos = {tag: i for i, tag in enumerate(tags)}
    return m, tags, pos


def laurent_model(v: QWSpace, torus: bool):
    """The Laurent model of V that structure maps land in: (module, tags, pos).

    Away from the torus slot it is the Laurent extension of V, a Q[c]-module
    with one Laurent summand per basis vector.  At the torus slot it is the
    W-fixed points of that extension, over Q[d, d^{-1}]: a sign-+ vector in
    degree k contributes a Laurent summand with shift k (even powers of c), a
    sign-- vector one with shift k - 2 (odd powers).  Each summand is tagged
    with its basis vector (degree, sign, index); pos maps tag -> index.

    Each model is built once per space and kept on it; callers must not
    change what is returned.
    """
    model = v._models.get(torus)
    if model is None:
        if torus:
            tagged = [
                (Summand(LAURENT, g if s == 1 else g - 2, 1), (g, s, i))
                for (g, s, i) in v.vectors()
            ]
        else:
            tagged = [(Summand(LAURENT, g, s), (g, s, i)) for (g, s, i) in v.vectors()]
        model = _module_with_index(POLY_D if torus else POLY_C, tagged)
        v._models[torus] = model
    return model


def laurent_model_map(phi: VMap, torus: bool) -> ModuleMap:
    """A V-map transported to the Laurent models of its domain and codomain."""
    dom, _, pos_d = laurent_model(phi.domain, torus)
    cod, _, pos_c = laurent_model(phi.codomain, torus)
    ent = {}
    for (g, s), mat in phi.blocks.items():
        for iy, ix, coef in mat.entries():
            ent[(pos_c[(g + phi.degree, s, iy)], pos_d[(g, s, ix)])] = coef
    return ModuleMap(dom, cod, phi.degree, ent)


def _reindex_entries(entries, row_tags, pos, cols=None) -> dict:
    """Structure-map entries re-indexed into another model of V.

    An entry (i, j) moves to row pos[row_tags[i]] and column cols[j]; it is
    dropped when j is not in cols, and cols None keeps the columns.
    """
    out = {}
    for (i, j), coef in entries.items():
        if cols is not None:
            if j not in cols:
                continue
            j = cols[j]
        r = pos.get(row_tags[i])
        if r is None:
            raise InvariantError(f"structure map reaches {row_tags[i]}, outside the new space")
        out[(r, j)] = coef
    return out


# -- slot families and objects ------------------------------------------------


class SlotFamily:
    """Finitely many explicit slots plus a tail template.

    Slot keys are integers >= 1; on the SO3 side slot 1 is always explicit
    and is a module over Q[d] (or its Laurent ring) without involution.
    """

    __slots__ = ("side", "explicit", "tail")

    def __init__(self, side: str, explicit: dict, tail: GradedModule):
        if side not in ("SO3", "O2"):
            raise SchemaError(f"unknown side {side!r}")
        if tail.ring.var != "c":
            raise SchemaError("tail must be a Q[c]-module")
        explicit = dict(explicit)
        if side == "SO3" and 1 not in explicit:
            explicit[1] = GradedModule.zero(POLY_D)
        for n, m in explicit.items():
            if not (isinstance(n, int) and n >= 1):
                raise SchemaError(f"bad slot index {n!r}")
            want_d = side == "SO3" and n == 1
            if (m.ring.var == "d") != want_d:
                raise SchemaError(f"slot {n} is over the wrong ring")
            if want_d and any(s.sign != 1 for s in m.summands):
                raise InvariantError("the torus slot carries no involution")
        self.side = side
        self.explicit = explicit
        self.tail = tail

    def slot(self, key):
        if key == TAIL:
            return self.tail
        return self.explicit.get(key, self.tail)

    def keys(self):
        return sorted(self.explicit) + [TAIL]

    def __eq__(self, other):
        return (
            isinstance(other, SlotFamily)
            and self.side == other.side
            and self.explicit == other.explicit
            and self.tail == other.tail
        )

    def is_torsion(self):
        return self.tail.is_torsion() and all(
            m.is_torsion() for m in self.explicit.values()
        )

    def is_zero(self):
        return self.tail.is_zero() and all(m.is_zero() for m in self.explicit.values())


class ToralObject:
    """An object (beta: M -> Laurent x V) of the toral model."""

    __slots__ = ("side", "M", "V", "beta", "dM", "dV")

    def __init__(self, side, M: SlotFamily, V: QWSpace, beta: dict, dM=None, dV=None):
        if M.side != side:
            raise SchemaError("slot family side mismatch")
        self.side = side
        self.M = M
        self.V = V
        self.beta = {}
        for key in M.keys():
            b = beta.get(key)
            cod = self.beta_codomain(key)
            if b is None:
                b = ModuleMap.zero(M.slot(key), cod, 0)
            if b.domain != M.slot(key) or b.codomain != cod or b.degree != 0:
                raise SchemaError(f"structure map at slot {key!r} has wrong type")
            self.beta[key] = b
        self.dM = dM
        self.dV = dV
        if (dM is None) != (dV is None):
            raise SchemaError("differential must cover both M and V")
        if dM is not None:
            for key in M.keys():
                d = dM.get(key)
                if d is None or d.domain != M.slot(key) or d.codomain != M.slot(key) or d.degree != -1:
                    raise SchemaError(f"differential at slot {key!r} has wrong type")
            if dV.domain != V or dV.codomain != V or dV.degree != -1:
                raise SchemaError("V differential has wrong type")

    def slot_is_torus(self, key):
        return self.side == "SO3" and key == 1

    def beta_codomain(self, key):
        return laurent_model(self.V, self.slot_is_torus(key))[0]

    def keys(self):
        return self.M.keys()

    def has_differential(self):
        return self.dM is not None

    def differential(self, key):
        if self.dM is not None:
            return self.dM[key]
        m = self.M.slot(key)
        return ModuleMap.zero(m, m, -1)

    def normalized(self) -> "ToralObject":
        """Drop explicit slots that duplicate the tail template."""
        explicit = dict(self.M.explicit)
        beta = dict(self.beta)
        for n in list(explicit):
            if self.slot_is_torus(n):
                continue
            if explicit[n] == self.M.tail and beta[n] == beta[TAIL] and (
                self.dM is None or self.dM[n] == self.dM[TAIL]
            ):
                del explicit[n]
                del beta[n]
        fam = SlotFamily(self.side, explicit, self.M.tail)
        dM = None
        if self.dM is not None:
            dM = {k: self.dM[k] if k in self.dM else self.dM[TAIL] for k in fam.keys()}
        return ToralObject(self.side, fam, self.V, beta, dM, self.dV)

    def __eq__(self, other):
        if not isinstance(other, ToralObject):
            return False
        a, b = self.normalized(), other.normalized()
        return (
            a.side == b.side
            and a.M == b.M
            and a.V == b.V
            and a.beta == b.beta
            and a.dM == b.dM
            and a.dV == b.dV
        )

    def __repr__(self):
        return f"ToralObject({self.side}, slots {sorted(self.M.explicit)}, V {self.V.dims})"

    def is_zero(self):
        return self.M.is_zero() and self.V.is_zero()

    def all_modules(self):
        return list(self.M.explicit.values()) + [self.M.tail]


def zero_object(side="SO3") -> ToralObject:
    return ToralObject(
        side,
        SlotFamily(side, {}, GradedModule.zero(POLY_C)),
        QWSpace.zero(),
        {},
    )


# -- morphisms -----------------------------------------------------------------


class ToralMorphism:
    """A degree-t morphism: per-slot maps, one tail template, and a V-map."""

    __slots__ = ("x", "y", "degree", "alpha", "phi")

    def __init__(self, x: ToralObject, y: ToralObject, degree: int, alpha: dict, phi: VMap):
        self.x = x
        self.y = y
        self.degree = degree
        keys = set(x.M.explicit) | set(y.M.explicit) | {TAIL}
        self.alpha = {}
        for key in keys:
            a = alpha.get(key)
            if a is None:
                a = ModuleMap.zero(x.M.slot(key), y.M.slot(key), degree)
            if (
                a.domain != x.M.slot(key)
                or a.codomain != y.M.slot(key)
                or a.degree != degree
            ):
                raise SchemaError(f"morphism component at slot {key!r} has wrong type")
            self.alpha[key] = a
        if phi.domain != x.V or phi.codomain != y.V or phi.degree != degree:
            raise SchemaError("morphism V-component has wrong type")
        self.phi = phi

    def component(self, key):
        a = self.alpha.get(key)
        if a is not None:
            return a
        return self.alpha[TAIL]

    @staticmethod
    def identity(x: ToralObject) -> "ToralMorphism":
        alpha = {key: ModuleMap.identity(x.M.slot(key)) for key in x.keys()}
        return ToralMorphism(x, x, 0, alpha, VMap.identity(x.V))

    def compose(self, other: "ToralMorphism") -> "ToralMorphism":
        """self after other."""
        if other.y is not self.x and other.y != self.x:
            raise SchemaError("morphism composition mismatch")
        keys = set(other.x.M.explicit) | set(self.y.M.explicit) | set(self.x.M.explicit) | {TAIL}
        alpha = {}
        for key in keys:
            alpha[key] = self.component(key).compose(other.component(key))
        return ToralMorphism(
            other.x, self.y, self.degree + other.degree, alpha, self.phi.compose(other.phi)
        )

    def __eq__(self, other):
        if not isinstance(other, ToralMorphism):
            return False
        if (self.x, self.y, self.degree) != (other.x, other.y, other.degree):
            return False
        keys = set(self.alpha) | set(other.alpha)
        return all(self.component(k) == other.component(k) for k in keys) and self.phi == other.phi

    def _keys(self):
        # a fixed order: the checks below stop at the first failing slot
        return sorted(set(self.x.M.explicit) | set(self.y.M.explicit)) + [TAIL]

    def is_valid(self) -> bool:
        """The defining square commutes at every slot."""
        x, y = self.x, self.y
        for key in self._keys():
            l_phi = laurent_model_map(self.phi, x.slot_is_torus(key))
            lhs = y.beta[key] if key in y.beta else y.beta[TAIL]
            lhs = lhs.compose(self.component(key))
            rhs = l_phi.compose(x.beta[key] if key in x.beta else x.beta[TAIL])
            if lhs != rhs:
                return False
        return True

    def is_chain_map(self) -> bool:
        x, y = self.x, self.y
        for key in self._keys():
            if y.differential(key).compose(self.component(key)) != self.component(key).compose(
                x.differential(key)
            ):
                return False
        return True


# -- the star condition ---------------------------------------------------------


def _localized_beta(x: ToralObject, key) -> ModuleMap:
    """beta at a slot, localized; the torus slot is base-changed to Q[c] first.

    On the torus slot a Q[d]-summand of shift k (even powers of c) becomes a
    Laurent summand over Q[c] with the same shift; a d^a entry becomes a
    c^{2a} entry with the same coefficient, so coefficients transport as is.
    """
    b = x.beta[key]
    if not x.slot_is_torus(key):
        return localize_map(b)
    tagged = []
    for i, s in enumerate(b.domain.summands):
        if s.kind == TORSION:
            continue  # torsion dies after inverting d
        tagged.append((Summand(LAURENT, s.shift, 1), i))
    ldom, _, pos = _module_with_index(LAURENT_C, tagged)
    lcod, _, vpos = laurent_model(x.V, False)
    fdtags = laurent_model(x.V, True)[1]
    return ModuleMap(ldom, lcod, 0, _reindex_entries(b.entries, fdtags, vpos, pos))


def check_star(x: ToralObject, strict: bool = False) -> bool:
    """Does beta become a degreewise isomorphism after inverting Euler classes?

    Everything in sight is 2-periodic after localization, so checking two
    consecutive degrees per slot suffices; a wider sample is checked anyway.
    """
    for key in x.keys():
        lmap = _localized_beta(x, key)
        for g in (-2, -1, 0, 1, 2, 3):
            mat = lmap.evaluate(g)
            if mat.rows != mat.cols or not mat.is_invertible():
                if strict:
                    raise StarConditionError(
                        f"slot {key!r} fails the star condition in degree {g}"
                    )
                return False
    return True


# -- coordinate helpers for Laurent models -----------------------------------


def _base_exponents(module: GradedModule, tags) -> list[int]:
    """c-exponent of each summand generator as an element c^j (x) v_tag.

    For a Q[c] Laurent model, basis element (i, a) is c^(a + base[i]) (x) v;
    for the fixed-point model over Q[d] it is c^(2a + base[i]) (x) v.
    """
    base = []
    for i, s in enumerate(module.summands):
        g, sign, _ = tags[i]
        if module.ring.var == "c":
            base.append((g - s.shift) // 2)
        else:
            e = 0 if sign == 1 else 1
            base.append((g - 2 * e - s.shift) // 2 + e)
    return base


def _expand_terms(module: GradedModule, tags, degree: int, vec):
    """Decompose a degreewise vector as a list of (tag, c-exponent, coef)."""
    base = _base_exponents(module, tags)
    out = []
    for col, (i, a) in enumerate(module.basis(degree)):
        if vec[col] == 0:
            continue
        j = (2 * a if module.ring.var == "d" else a) + base[i]
        out.append((tags[i], j, vec[col]))
    return out


def _collect_terms(module: GradedModule, pos, degree: int, terms):
    """Inverse of _expand_terms for a target model with positions pos."""
    vec = [Q(0)] * module.dim(degree)
    basis = module.basis(degree)
    index = {key: r for r, key in enumerate(basis)}
    for tag, j, coef in terms:
        i = pos[tag]
        s = module.summands[i]
        g = tag[0]
        if module.ring.var == "c":
            a = j - (g - s.shift) // 2
        else:
            e = 0 if tag[1] == 1 else 1
            j0 = (g - 2 * e - s.shift) // 2 + e
            a = (j - j0) // 2
        r = index.get((i, a))
        if r is None:
            raise InvariantError("term escapes the model in this degree")
        vec[r] = vec[r] + coef
    return vec


def _apply_action(m: GradedModule, degree: int, k: int, vec):
    """Multiply a degreewise vector by the ring generator k times."""
    v = list(vec)
    for step in range(k):
        v = m.action_matrix(degree - step * m.ring.step).apply(v)
    return v


def _mult_euler(m: GradedModule, degree: int, cexp: int, vec):
    """Multiply by the c-power cexp (d^(cexp/2) on a Q[d]-module)."""
    if m.ring.var == "d":
        if cexp % 2:
            raise SchemaError("odd Euler power on the torus slot")
        return _apply_action(m, degree, cexp // 2, vec)
    return _apply_action(m, degree, cexp, vec)


def _vector_entries(m: GradedModule, degree: int, vec) -> dict[int, Fraction]:
    """Summand-indexed entries of a degreewise vector (one power per summand)."""
    ent = {}
    for col, (i, _a) in enumerate(m.basis(degree)):
        if vec[col] != 0:
            ent[i] = vec[col]
    return ent


# -- object constructions -----------------------------------------------------


def suspend_object(x: ToralObject, k: int) -> ToralObject:
    """The k-fold suspension.

    Suspending a slot module normalizes its Laurent shifts, which may
    re-order its summands; beta and the differential follow them.
    """
    v = x.V.suspend(k)
    slots, beta = {}, {}
    dM = None if x.dM is None else {}
    for key in x.keys():
        m, idx = _with_index(
            x.M.slot(key), lambda s: Summand(s.kind, s.shift + k, s.sign, s.length)
        )
        torus = x.slot_is_torus(key)
        cod, _, pos = laurent_model(v, torus)
        tags = [(g + k, s, i) for g, s, i in laurent_model(x.V, torus)[1]]
        slots[key] = m
        beta[key] = ModuleMap(m, cod, 0, _reindex_entries(x.beta[key].entries, tags, pos, idx))
        if dM is not None:
            dM[key] = _reindex_map(x.dM[key], m, m, idx, idx)
    tail = slots.pop(TAIL)
    dV = None if dM is None else x.dV.suspend(k)
    return ToralObject(x.side, SlotFamily(x.side, slots, tail), v, beta, dM, dV)


def direct_sum_objects(a: ToralObject, b: ToralObject) -> ToralObject:
    if a.side != b.side:
        raise SchemaError("direct sum across sides")
    side = a.side
    v = qw_sum(a.V, b.V)
    keys = sorted(set(a.M.explicit) | set(b.M.explicit))
    explicit = {}
    beta = {}

    def build(key):
        msum, maps = direct_sum([a.M.slot(key), b.M.slot(key)])
        torus = a.slot_is_torus(key)
        cod, _, pos = laurent_model(v, torus)
        ent = {}
        for part, obj in enumerate((a, b)):
            # b's vectors follow a's in each (degree, sign) block of the sum
            tags = [
                (g, s, part * a.V.dim(g, s) + i) for g, s, i in laurent_model(obj.V, torus)[1]
            ]
            bmap = obj.beta[key] if key in obj.beta else obj.beta[TAIL]
            ent.update(_reindex_entries(bmap.entries, tags, pos, dict(enumerate(maps[part]))))
        return msum, ModuleMap(msum, cod, 0, ent), maps

    for key in keys:
        msum, bmap, _ = build(key)
        explicit[key] = msum
        beta[key] = bmap
    tail, tail_b, _ = build(TAIL)
    fam = SlotFamily(side, explicit, tail)
    beta[TAIL] = tail_b
    dM = None
    dV = None
    if a.dM is not None or b.dM is not None:
        dM = {}
        for key in fam.keys():
            msum, _, maps = build(key)
            ent = {}
            for part, obj in enumerate((a, b)):
                d = obj.differential(key)
                for (i, j), coef in d.entries.items():
                    ent[(maps[part][i], maps[part][j])] = coef
            dM[key] = ModuleMap(msum, msum, -1, ent)
        dV = vmap_sum(v, v, [
            obj.dV if obj.dV is not None else VMap.zero(obj.V, obj.V, -1) for obj in (a, b)
        ])
    return ToralObject(side, fam, v, beta, dM, dV)


def make_eV(V: QWSpace, side: str = "SO3") -> ToralObject:
    """The basic object with M the full Laurent family of V."""
    lmod = laurent_model(V, False)[0]
    beta = {TAIL: ModuleMap.identity(lmod)}
    explicit = {}
    if side == "SO3":
        explicit[1] = laurent_model(V, True)[0]
        beta[1] = ModuleMap.identity(explicit[1])
    return ToralObject(side, SlotFamily(side, explicit, lmod), V, beta)


def make_fN(fam: SlotFamily) -> ToralObject:
    """The basic object with V = 0 supported on a torsion family."""
    if not fam.is_torsion():
        raise NotTorsion("f expects a torsion family")
    return ToralObject(fam.side, fam, QWSpace.zero(), {})


# -- the adjunction between the two sides -------------------------------------


def functor_F(x: ToralObject) -> ToralObject:
    """Base change at the torus slot: from the SO3 side to the O2 side."""
    if x.side != "SO3":
        raise SchemaError("F consumes objects on the SO3 side")
    new1, src = base_change_d_to_c(x.M.slot(1))
    lmod, _, lpos = laurent_model(x.V, False)
    back = {orig: k for k, orig in enumerate(src)}
    ent = _reindex_entries(x.beta[1].entries, laurent_model(x.V, True)[1], lpos, back)
    explicit = {n: m for n, m in x.M.explicit.items() if n != 1}
    explicit[1] = new1
    beta = {key: x.beta[key] for key in x.keys() if key != 1}
    beta[1] = ModuleMap(new1, lmod, 0, ent)
    return ToralObject("O2", SlotFamily("O2", explicit, x.M.tail), x.V, beta)


def functor_R(y: ToralObject) -> ToralObject:
    """W-fixed points at slot 1: from the O2 side to the SO3 side."""
    if y.side != "O2":
        raise SchemaError("R consumes objects on the O2 side")
    fixed, _ = fixed_points_c_to_d(y.M.slot(1))
    ltags = laurent_model(y.V, False)[1]
    fmod, _, fpos = laurent_model(y.V, True)
    b1 = y.beta[1] if 1 in y.beta else y.beta[TAIL]
    # re-index the codomain from fixed(Laurent V) to the fixed-point model
    _, creal = fixed_points_c_to_d(b1.codomain)
    tags = [ltags[orig] for orig, _e in creal]
    ent = _reindex_entries(fixed_points_map(b1).entries, tags, fpos)
    explicit = {n: m for n, m in y.M.explicit.items() if n != 1}
    explicit[1] = fixed
    beta = {key: y.beta[key] for key in y.keys() if key != 1}
    beta[1] = ModuleMap(fixed, fmod, 0, ent)
    return ToralObject("SO3", SlotFamily("SO3", explicit, y.M.tail), y.V, beta)


def unit_of_adjunction(x: ToralObject) -> ToralMorphism:
    """x -> R(F(x)) on the SO3 side; away from the torus slot it is identity."""
    rfx = functor_R(functor_F(x))
    m1 = x.M.slot(1)
    bc, src = base_change_d_to_c(m1)
    _, real = fixed_points_c_to_d(bc)
    target_of = {orig: k for k, (orig, _e) in enumerate(real)}
    ent = {}
    for j in range(len(m1.summands)):
        ent[(target_of[src.index(j)], j)] = Q(1)
    alpha = {key: ModuleMap.identity(x.M.slot(key)) for key in x.keys() if key != 1}
    alpha[1] = ModuleMap(m1, rfx.M.slot(1), 0, ent)
    keys = set(rfx.M.explicit) | set(x.M.explicit)
    for key in keys:
        if key != 1 and key not in alpha:
            alpha[key] = ModuleMap.identity(x.M.slot(key))
    return ToralMorphism(x, rfx, 0, alpha, VMap.identity(x.V))


def counit_of_adjunction(y: ToralObject) -> ToralMorphism:
    """F(R(y)) -> y on the O2 side: evaluation of fixed points."""
    fry = functor_F(functor_R(y))
    m1 = y.M.slot(1)
    fixed, real = fixed_points_c_to_d(m1)
    _, src = base_change_d_to_c(fixed)
    ent = {}
    for k, (orig, _e) in enumerate(real):
        ent[(orig, src.index(k))] = Q(1)
    alpha = {key: ModuleMap.identity(y.M.slot(key)) for key in y.keys() if key != 1}
    alpha[1] = ModuleMap(fry.M.slot(1), m1, 0, ent)
    keys = set(fry.M.explicit) | set(y.M.explicit)
    for key in keys:
        if key != 1 and key not in alpha:
            alpha[key] = ModuleMap.identity(y.M.slot(key))
    return ToralMorphism(fry, y, 0, alpha, VMap.identity(y.V))


def map_F(m: ToralMorphism) -> ToralMorphism:
    fx, fy = functor_F(m.x), functor_F(m.y)
    alpha = {key: a for key, a in m.alpha.items() if key != 1}
    alpha[1] = base_change_map(m.component(1))
    return ToralMorphism(fx, fy, m.degree, alpha, m.phi)


def map_R(m: ToralMorphism) -> ToralMorphism:
    rx, ry = functor_R(m.x), functor_R(m.y)
    alpha = {key: a for key, a in m.alpha.items() if key != 1}
    alpha[1] = fixed_points_map(m.component(1) if 1 in m.alpha else m.component(TAIL))
    return ToralMorphism(rx, ry, m.degree, alpha, m.phi)


def _with_index(m: GradedModule, change):
    """The module whose summands are change(s) for the summands s of m, with
    the induced re-indexing: summand j of m becomes summand pos[j]."""
    new, _tags, pos = _module_with_index(m.ring, [(change(s), j) for j, s in enumerate(m.summands)])
    return new, pos


def _twist_with_index(m: GradedModule):
    """The sign-twist of a module, with the induced summand re-indexing."""
    return _with_index(m, lambda s: Summand(s.kind, s.shift, -s.sign, s.length))


def _reindex_map(f: ModuleMap, dom: GradedModule, cod: GradedModule, idx_d, idx_c) -> ModuleMap:
    """f between the re-indexed modules: entry (i, j) moves to (idx_c[i], idx_d[j])."""
    return ModuleMap(dom, cod, f.degree, {(idx_c[i], idx_d[j]): c for (i, j), c in f.entries.items()})


def twist_object(y: ToralObject) -> ToralObject:
    """Tensoring with the sign representation; defined on the O2 side."""
    if y.side != "O2":
        raise SchemaError("the twist lives on the O2 side")
    v = y.V.twist()
    explicit, beta, dm = {}, {}, {}
    for key in y.keys():
        m, idx = _twist_with_index(y.M.slot(key))
        torus = y.slot_is_torus(key)
        cod, _, pos = laurent_model(v, torus)
        tags = [(g, -s, i) for g, s, i in laurent_model(y.V, torus)[1]]
        bmap = ModuleMap(m, cod, 0, _reindex_entries(y.beta[key].entries, tags, pos, idx))
        if y.has_differential():
            dm[key] = _reindex_map(y.dM[key], m, m, idx, idx)
        if key == TAIL:
            tail, tail_beta = m, bmap
        else:
            explicit[key], beta[key] = m, bmap
    beta[TAIL] = tail_beta
    dv = y.dV.twist() if y.has_differential() else None
    return ToralObject(
        "O2", SlotFamily("O2", explicit, tail), v, beta,
        dm if y.has_differential() else None, dv,
    )


def twist_morphism(m: ToralMorphism) -> ToralMorphism:
    tx, ty = twist_object(m.x), twist_object(m.y)
    alpha = {}
    for key in set(m.alpha):
        _, idx_x = _twist_with_index(m.x.M.slot(key))
        _, idx_y = _twist_with_index(m.y.M.slot(key))
        alpha[key] = _reindex_map(m.component(key), tx.M.slot(key), ty.M.slot(key), idx_x, idx_y)
    return ToralMorphism(tx, ty, m.degree, alpha, m.phi.twist())


def functor_F_twisted(x: ToralObject) -> ToralObject:
    """Base change followed by the sign twist."""
    return twist_object(functor_F(x))


def functor_R_twisted(y: ToralObject) -> ToralObject:
    """The sign twist followed by fixed points at slot 1."""
    return functor_R(twist_object(y))


def map_F_twisted(m: ToralMorphism) -> ToralMorphism:
    return twist_morphism(map_F(m))


def map_R_twisted(m: ToralMorphism) -> ToralMorphism:
    return map_R(twist_morphism(m))


def unit_of_twisted_adjunction(x: ToralObject) -> ToralMorphism:
    """x -> R~(F~(x)); the twist cancels, so this is the plain unit."""
    return unit_of_adjunction(x)


def counit_of_twisted_adjunction(y: ToralObject) -> ToralMorphism:
    """F~(R~(y)) -> y, by twisting the plain counit of the twisted object."""
    return twist_morphism(counit_of_adjunction(twist_object(y)))


# -- standard generators -------------------------------------------------------


def sigma_one() -> ToralObject:
    """The isotropy generator at the torus slot."""
    fam = SlotFamily(
        "SO3",
        {1: GradedModule(POLY_D, [Summand(TORSION, 0, 1, 1)])},
        GradedModule.zero(POLY_C),
    )
    return make_fN(fam)


def sigma_H(n: int) -> ToralObject:
    """The isotropy generator at a single dihedral slot."""
    if n < 2:
        raise SchemaError("dihedral slots start at 2 on the SO3 side")
    mod = GradedModule(
        POLY_C, [Summand(TORSION, 0, 1, 1), Summand(TORSION, 0, -1, 1)]
    )
    fam = SlotFamily("SO3", {n: mod}, GradedModule.zero(POLY_C))
    return make_fN(fam)


def sphere() -> ToralObject:
    """The zero sphere: rank one with trivial involution at every slot."""
    v = QWSpace({0: (1, 0)})
    tail = GradedModule(POLY_C, [Summand(FREE, 0, 1)])
    slot1 = GradedModule(POLY_D, [Summand(FREE, 0, 1)])
    lmod, _, lpos = laurent_model(v, False)
    fmod, _, fpos = laurent_model(v, True)
    beta = {
        TAIL: ModuleMap(tail, lmod, 0, {(lpos[(0, 1, 0)], 0): Q(1)}),
        1: ModuleMap(slot1, fmod, 0, {(fpos[(0, 1, 0)], 0): Q(1)}),
    }
    return ToralObject("SO3", SlotFamily("SO3", {1: slot1}, tail), v, beta)


def sigma_T_minus() -> ToralObject:
    """The sign part of the torus generator.

    At the torus slot the divisible model of a degree-0 sign vector lives in
    degrees 2 mod 4; the polynomial part starts one step above degree 0, so
    the slot module is free on a degree-2 generator.
    """
    v = QWSpace({0: (0, 1)})
    tail = GradedModule(POLY_C, [Summand(FREE, 0, -1)])
    slot1 = GradedModule(POLY_D, [Summand(FREE, 2, 1)])
    lmod, _, lpos = laurent_model(v, False)
    fmod, _, fpos = laurent_model(v, True)
    beta = {
        TAIL: ModuleMap(tail, lmod, 0, {(lpos[(0, -1, 0)], 0): Q(1)}),
        1: ModuleMap(slot1, fmod, 0, {(fpos[(0, -1, 0)], 0): Q(1)}),
    }
    return ToralObject("SO3", SlotFamily("SO3", {1: slot1}, tail), v, beta)


def sigma_T() -> ToralObject:
    """The torus generator: the regular involution module over the family."""
    return direct_sum_objects(sphere(), sigma_T_minus())


def make_alpha(n: int, length: int) -> ToralObject:
    """A truncated polynomial stage at a single dihedral slot."""
    if n < 2 or length < 1:
        raise SchemaError("a truncation stage needs a slot >= 2 and length >= 1")
    mod = GradedModule(POLY_C, [Summand(TORSION, 0, 1, length)])
    return make_fN(SlotFamily("SO3", {n: mod}, GradedModule.zero(POLY_C)))


def make_EFbar_plus(k: int) -> ToralObject:
    """Stage k of the isotropy-separation tower: a finite torsion family."""
    if k < 1:
        raise SchemaError("stages start at 1")
    explicit = {1: GradedModule(POLY_D, [Summand(TORSION, 4 * k - 2, 1, k)])}
    for n in range(2, k + 1):
        explicit[n] = GradedModule(
            POLY_C, [Summand(TORSION, 2 * k - 2, (-1) ** k, k)]
        )
    return make_fN(SlotFamily("SO3", explicit, GradedModule.zero(POLY_C)))


# -- smashing with a torsion family --------------------------------------------


def _tensor_modules(a: GradedModule, b: GradedModule) -> GradedModule:
    """Tensor product over the ground ring, with b a torsion module."""
    if a.ring != b.ring:
        raise SchemaError("tensor over mixed rings")
    out = []
    for s in a.summands:
        for t in b.summands:
            if t.kind != TORSION:
                raise NotTorsion("smashing needs a torsion family")
            if s.kind == LAURENT:
                continue  # a divisible module kills bounded torsion
            length = t.length if s.kind == FREE else min(s.length, t.length)
            out.append(Summand(TORSION, s.shift + t.shift, s.sign * t.sign, length))
    return GradedModule(a.ring, out)


def smash_with_torsion(x: ToralObject, fam: SlotFamily) -> ToralObject:
    """Smash an object with a torsion family; the result is a torsion object."""
    if not fam.is_torsion():
        raise NotTorsion("smashing needs a torsion family")
    if fam.side != x.side:
        raise SchemaError("smash across sides")
    keys = set(x.M.explicit) | set(fam.explicit)
    explicit = {n: _tensor_modules(x.M.slot(n), fam.slot(n)) for n in keys}
    tail = _tensor_modules(x.M.tail, fam.tail)
    return make_fN(SlotFamily(x.side, explicit, tail))


# -- parity ---------------------------------------------------------------------


def parity_split(x: ToralObject) -> tuple[ToralObject, ToralObject]:
    """Split an object into its even and odd parts; degree-0 maps preserve them."""
    parts = []
    for parity in (0, 1):
        explicit = {}
        beta = {}
        v = x.V.parity_part(parity)
        for key in x.keys():
            m = x.M.slot(key)
            keep = [i for i, s in enumerate(m.summands) if s.shift % 2 == parity]
            sub, maps = direct_sum(
                [GradedModule(m.ring, [m.summands[i]]) for i in keep]
            ) if keep else (GradedModule.zero(m.ring), [])
            reindex = {keep[k]: maps[k][0] for k in range(len(keep))}
            torus = x.slot_is_torus(key)
            cod, _, pos = laurent_model(v, torus)
            tags = laurent_model(x.V, torus)[1]
            bmap = ModuleMap(sub, cod, 0, _reindex_entries(x.beta[key].entries, tags, pos, reindex))
            if key == TAIL:
                tail = sub
                tail_beta = bmap
            else:
                explicit[key] = sub
                beta[key] = bmap
        fam = SlotFamily(x.side, explicit, tail)
        beta[TAIL] = tail_beta
        parts.append(ToralObject(x.side, fam, v, beta))
    return parts[0], parts[1]


# -- the graded hom space as an exact linear system ----------------------------


def _entry_allowed(dom: GradedModule, cod: GradedModule, degree: int, i: int, j: int):
    try:
        probe = ModuleMap(dom, cod, degree, {(i, j): Q(1)})
    except EngineError:
        return False
    return bool(probe.entries)


class HomSpace:
    """All degree-t morphisms x -> y, solved as one exact linear system.

    Unknowns are the allowed monomial entries of the slot components plus the
    blocks of the V-component; the defining squares give the constraints.
    """

    def __init__(self, x: ToralObject, y: ToralObject, degree: int):
        if x.side != y.side:
            raise SchemaError("hom across sides")
        self.x, self.y, self.degree = x, y, degree
        self.keys = sorted(set(x.M.explicit) | set(y.M.explicit)) + [TAIL]
        self.unknowns = []
        self.index = {}
        for key in self.keys:
            dom, cod = x.M.slot(key), y.M.slot(key)
            for i in range(len(cod.summands)):
                for j in range(len(dom.summands)):
                    if _entry_allowed(dom, cod, degree, i, j):
                        self._add(("a", key, i, j))
        for g in sorted(x.V.dims):
            for s in (1, -1):
                for ix in range(x.V.dim(g, s)):
                    for iy in range(y.V.dim(g + degree, s)):
                        self._add(("v", g, s, iy, ix))
        rows = self._equations()
        n = len(self.unknowns)
        mat = QMatrix(len(rows), n, [[row.get(u, Q(0)) for u in range(n)] for row in rows])
        self.basis_mat = mat.kernel_basis() if n else QMatrix(0, 0)

    def _add(self, u):
        self.index[u] = len(self.unknowns)
        self.unknowns.append(u)

    def _slot_beta(self, obj, key):
        return obj.beta[key] if key in obj.beta else obj.beta[TAIL]

    def _equations(self):
        x, y, t = self.x, self.y, self.degree
        rows = []
        for key in self.keys:
            dom, cod = x.M.slot(key), y.M.slot(key)
            bx, by = self._slot_beta(x, key), self._slot_beta(y, key)
            torus = x.slot_is_torus(key)
            lx_pos, ly_pos = laurent_model(x.V, torus)[2], laurent_model(y.V, torus)[2]
            lx_mod, ly_mod = bx.codomain, by.codomain
            lo, hi = auto_window(
                (min(0, t) - 4, max(0, t) + 4), [dom, cod, lx_mod, ly_mod]
            )
            step = dom.ring.step
            lstep = lx_mod.ring.step
            for g in range(lo, hi + 1):
                src_b = dom.basis(g)
                out_b = ly_mod.basis(g + t)
                if not src_b or not out_b:
                    continue
                mid_b = cod.basis(g + t)
                mid_pos = {k: r for r, k in enumerate(mid_b)}
                out_pos = {k: r for r, k in enumerate(out_b)}
                lx_b = lx_mod.basis(g)
                # entries are read once per degree: columns of by, rows of bx
                by_mat = by.evaluate(g + t)
                by_cols = [by_mat.col(j) for j in range(by_mat.cols)]
                bx_mat = bx.evaluate(g)
                bx_rows = [bx_mat.row(i) for i in range(bx_mat.rows)]
                eq = [
                    [dict() for _ in range(len(src_b))] for _ in range(len(out_b))
                ]
                for u, label in enumerate(self.unknowns):
                    if label[0] == "a":
                        _, k2, i, j = label
                        if k2 != key:
                            continue
                        a = (cod.summands[i].shift - dom.summands[j].shift - t) // step
                        for c, (jj, b) in enumerate(src_b):
                            if jj != j:
                                continue
                            r_mid = mid_pos.get((i, b + a))
                            if r_mid is None:
                                continue
                            for r, coef in enumerate(by_cols[r_mid]):
                                if coef:
                                    eq[r][c][u] = eq[r][c].get(u, Q(0)) + coef
                    else:
                        _, gv, s, iy, ix = label
                        jl = lx_pos[(gv, s, ix)]
                        il = ly_pos[(gv + t, s, iy)]
                        p = (
                            ly_mod.summands[il].shift
                            - lx_mod.summands[jl].shift
                            - t
                        ) // lstep
                        for cl, (jjl, bl) in enumerate(lx_b):
                            if jjl != jl:
                                continue
                            r = out_pos.get((il, bl + p))
                            if r is None:
                                continue
                            for c, coef in enumerate(bx_rows[cl]):
                                if coef:
                                    eq[r][c][u] = eq[r][c].get(u, Q(0)) - coef
                for r in range(len(out_b)):
                    for c in range(len(src_b)):
                        if eq[r][c]:
                            rows.append(eq[r][c])
        return rows

    @property
    def dim(self) -> int:
        return self.basis_mat.cols

    def from_vector(self, vec) -> ToralMorphism:
        """Build the morphism with the given unknown values."""
        x, y, t = self.x, self.y, self.degree
        ent_by_key = {key: {} for key in self.keys}
        block_ents = {}
        for u, label in enumerate(self.unknowns):
            val = vec[u]
            if val == 0:
                continue
            if label[0] == "a":
                _, key, i, j = label
                ent_by_key[key][(i, j)] = val
            else:
                _, g, s, iy, ix = label
                block_ents.setdefault((g, s), {})[(iy, ix)] = val
        blocks = {
            (g, s): QMatrix.from_entries(y.V.dim(g + t, s), x.V.dim(g, s), ent)
            for (g, s), ent in block_ents.items()
        }
        alpha = {
            key: ModuleMap(x.M.slot(key), y.M.slot(key), t, ent)
            for key, ent in ent_by_key.items()
        }
        return ToralMorphism(x, y, t, alpha, VMap(x.V, y.V, t, blocks))

    def basis_morphism(self, k: int) -> ToralMorphism:
        return self.from_vector(self.basis_mat.col(k))

    def vector_of(self, m: ToralMorphism):
        """Unknown-space vector of a morphism (must lie in the hom space)."""
        vec = [Q(0)] * len(self.unknowns)
        for key in self.keys:
            for (i, j), coef in m.component(key).entries.items():
                u = self.index.get(("a", key, i, j))
                if u is None:
                    raise InvariantError("morphism entry outside the hom space")
                vec[u] = coef
        for (g, s), mat in m.phi.blocks.items():
            for iy, ix, coef in mat.entries():
                u = self.index.get(("v", g, s, iy, ix))
                if u is None:
                    raise InvariantError("V-entry outside the hom space")
                vec[u] = coef
        return vec

    def coords_of(self, m: ToralMorphism):
        sol = self.basis_mat.solve(self.vector_of(m))
        if sol is None:
            raise InvariantError("morphism does not satisfy the hom constraints")
        return sol


def hom_A(x: ToralObject, y: ToralObject, degrees) -> dict[int, int]:
    return {t: HomSpace(x, y, t).dim for t in degrees}


# -- injective resolutions and Ext ----------------------------------------------


@dataclass
class InjectiveResolution:
    x: ToralObject
    Y0: ToralObject
    include: ToralMorphism
    Y1: ToralObject
    quot: dict  # slot key of x -> the projection of the Y0 slot onto the Y1 slot (a WindowMap)
    window: tuple[int, int]

    def quot_of(self, key):
        return self.quot.get(key, self.quot[TAIL])

    def check_exact(self) -> bool:
        """Degreewise exactness 0 -> x -> Y0 -> Y1 -> 0 on the window."""
        lo, hi = self.window
        for key in self.x.keys():
            q = self.quot_of(key)
            inc = self.include.component(key)
            for g in range(lo, hi + 1):
                a = inc.evaluate(g)
                b = q.evaluate(g)
                ra, rb = a.rank(), b.rank()
                if ra != a.cols:
                    return False
                if not (b @ a).is_zero():
                    return False
                if ra + rb != a.rows:
                    return False
                if rb != b.rows:
                    return False
        return True


def _solve_extension(m: GradedModule, incl: ModuleMap, emb: ModuleMap, window):
    """Find psi: m -> emb.codomain with psi o incl == emb, if one exists."""
    cod = emb.codomain
    unknowns = [
        (i, j)
        for i in range(len(cod.summands))
        for j in range(len(m.summands))
        if _entry_allowed(m, cod, 0, i, j)
    ]
    step = m.ring.step
    rows, rhs = [], []
    lo, hi = window
    for g in range(lo, hi + 1):
        src_b = m.basis(g)
        out_b = cod.basis(g)
        tm_b = incl.domain.basis(g)
        if not tm_b or not out_b:
            continue
        out_pos = {k: r for r, k in enumerate(out_b)}
        inc_mat = incl.evaluate(g)
        emb_mat = emb.evaluate(g)
        for r in range(len(out_b)):
            for c in range(len(tm_b)):
                row = {}
                for u, (i, j) in enumerate(unknowns):
                    a = (cod.summands[i].shift - m.summands[j].shift) // step
                    for cm, (jj, b) in enumerate(src_b):
                        if jj != j:
                            continue
                        if out_pos.get((i, b + a)) == r:
                            coef = inc_mat[cm, c]
                            if coef:
                                row[u] = row.get(u, Q(0)) + coef
                target = emb_mat[r, c]
                if row or target:
                    rows.append(row)
                    rhs.append(target)
    n = len(unknowns)
    mat = QMatrix(len(rows), n, [[row.get(u, Q(0)) for u in range(n)] for row in rows])
    sol = mat.solve(rhs)
    if sol is None:
        return None
    ent = {unknowns[u]: sol[u] for u in range(n) if sol[u] != 0}
    return ModuleMap(m, cod, 0, ent)


def injective_resolution(x: ToralObject, window=(-12, 12)) -> InjectiveResolution:
    """A length-one resolution 0 -> x -> e(V) + f(I) -> f(J) -> 0."""
    check_star(x, strict=True)
    side = x.side
    I_slots, psi = {}, {}
    for key in x.keys():
        m = x.M.slot(key)
        b = x.beta[key]
        win = auto_window(window, [m, b.codomain])
        TM, incl = kernel_of_map(b, win)
        if not TM.is_torsion():
            raise StarConditionError("kernel of the structure map is not torsion")
        ring = m.ring
        solved = None
        pad = m.max_torsion() + TM.max_torsion() + 1
        while solved is None and pad <= m.max_torsion() + TM.max_torsion() + 6:
            tagged = []
            for k, s in enumerate(TM.summands):
                sign = s.sign * (-1) ** pad if ring.flip else s.sign
                tagged.append(
                    (Summand(TORSION, s.shift + ring.step * pad, sign, s.length + pad), k)
                )
            imod, _, pos = _module_with_index(ring, tagged)
            emb = ModuleMap(
                TM, imod, 0, {(pos[k], k): Q(1) for k in range(len(TM.summands))}
            )
            solved = _solve_extension(m, incl, emb, auto_window(win, [imod]))
            if solved is None:
                pad += 1
        if solved is None:
            raise InvariantError("no injective extension found")
        I_slots[key] = imod
        psi[key] = solved
    f_part = make_fN(
        SlotFamily(side, {k: v for k, v in I_slots.items() if k != TAIL}, I_slots[TAIL])
    )
    e_part = make_eV(x.V, side)
    Y0 = direct_sum_objects(e_part, f_part)
    alpha = {}
    for key in x.keys():
        e_slot = e_part.M.slot(key)
        _, maps = direct_sum([e_slot, I_slots[key]])
        ent = {}
        for (i, j), coef in x.beta[key].entries.items():
            ent[(maps[0][i], j)] = coef
        for (i, j), coef in psi[key].entries.items():
            ent[(maps[1][i], j)] = coef
        alpha[key] = ModuleMap(x.M.slot(key), Y0.M.slot(key), 0, ent)
    include = ToralMorphism(x, Y0, 0, alpha, VMap.identity(x.V))
    if not include.is_valid():
        raise InvariantError("resolution inclusion is not a morphism")
    J_slots, quot = {}, {}
    for key in x.keys():
        win = auto_window(window, [x.M.slot(key), Y0.M.slot(key)])
        J, pr = cokernel_of_map(include.component(key), win)
        J_slots[key] = J
        quot[key] = pr
    Y1 = make_fN(
        SlotFamily(side, {k: v for k, v in J_slots.items() if k != TAIL}, J_slots[TAIL])
    )
    res = InjectiveResolution(x, Y0, include, Y1, quot, window)
    if not res.check_exact():
        raise InvariantError("resolution is not exact on the window")
    return res


def ext_A(
    x: ToralObject, y: ToralObject, degrees, window=(-12, 12)
) -> dict[int, tuple[int, int]]:
    """Degreewise hom and Ext of x against y via a length-one resolution."""
    res = injective_resolution(y, window)
    out = {}
    for t in degrees:
        h0 = HomSpace(x, res.Y0, t)
        h1 = HomSpace(x, res.Y1, t)
        cols = []
        for k in range(h0.dim):
            m = h0.basis_morphism(k)
            alpha = {}
            for key in h1.keys:
                alpha[key] = res.quot_of(key).compose_module_map(m.component(key))
            comp = ToralMorphism(
                x, res.Y1, t, alpha, VMap.zero(x.V, res.Y1.V, t)
            )
            cols.append(h1.coords_of(comp))
        post = QMatrix.from_columns(h1.dim, cols)
        rank = post.rank()
        out[t] = (h0.dim - rank, h1.dim - rank)
    return out


# -- homology of a differential --------------------------------------------------


def homology_dA(x: ToralObject, window=None) -> ToralObject:
    """Homology of an object with differential, as a plain object."""
    if not x.has_differential():
        return x
    if not x.dV.compose(x.dV).is_zero():
        raise NotADifferential("d squared is not zero on V")
    # the structure map must be a chain map
    for key in x.keys():
        ld = laurent_model_map(x.dV, x.slot_is_torus(key))
        if x.beta[key].compose(x.dM[key]) != ld.compose(x.beta[key]):
            raise NotADifferential("structure map is not a chain map")
    vdims, vmats = {}, {}
    for s in (1, -1):
        dims = {g: x.V.dim(g, s) for g in x.V.degrees()}
        for g in list(dims):
            dims.setdefault(g - 1, x.V.dim(g - 1, s))
        mats = {g: mat for (g, t), mat in x.dV.blocks.items() if t == s}
        vdims[s], vmats[s] = dims, mats
    hv_data = {s: chain_homology(vdims[s], vmats[s]) for s in (1, -1)}
    hv = QWSpace(
        {
            g: (hv_data[1][0].get(g, 0), hv_data[-1][0].get(g, 0))
            for g in set(hv_data[1][0]) | set(hv_data[-1][0])
        }
    )
    explicit, beta = {}, {}
    for key in x.keys():
        m = x.M.slot(key)
        win = auto_window(window or (0, 0), [m, x.beta[key].codomain])
        H, realized = homology_realized(m, x.dM[key], win)
        torus = x.slot_is_torus(key)
        lmod, ltags, _ = laurent_model(x.V, torus)
        hmod, _, hpos = laurent_model(hv, torus)
        ent = {}
        for k, r in enumerate(realized):
            g = r.degree
            img = x.beta[key].evaluate(g).apply(r.vector)
            terms = _expand_terms(lmod, ltags, g, img)
            new_terms = []
            for (gv, sv, iv), j, coef in terms:
                proj = hv_data[sv][2][gv]
                vec = QMatrix.from_entries(x.V.dim(gv, sv), 1, {(iv, 0): coef})
                for h_idx, c2 in enumerate(proj(vec).col(0)):
                    if c2 != 0:
                        new_terms.append(((gv, sv, h_idx), j, c2))
            out_vec = _collect_terms(hmod, hpos, g, new_terms)
            for col, (i, _a) in enumerate(hmod.basis(g)):
                if out_vec[col] != 0:
                    ent[(i, k)] = ent.get((i, k), Q(0)) + out_vec[col]
        bmap = ModuleMap(H, hmod, 0, ent)
        if key == TAIL:
            tail, tail_beta = H, bmap
        else:
            explicit[key] = H
            beta[key] = bmap
    beta[TAIL] = tail_beta
    return ToralObject(x.side, SlotFamily(x.side, explicit, tail), hv, beta)


def adams_bracket(x: ToralObject, y: ToralObject, degrees, window=(-12, 12)):
    """Degreewise morphism-group dimensions: hom of the homologies plus the
    Ext correction of the suspension."""
    hx = homology_dA(x)
    hy = homology_dA(y)
    hom_part = hom_A(hx, hy, degrees)
    ext_part = ext_A(suspend_object(hx, 1), hy, degrees, window)
    return {t: (hom_part[t], ext_part[t][1]) for t in degrees}


# -- wide spheres ------------------------------------------------------------------


def _euler_element(x: ToralObject, key, tag, E: int):
    """Coordinates of c^E (x) t_tag in the Laurent model at a slot."""
    mod, _, pos = laurent_model(x.V, x.slot_is_torus(key))
    deg = tag[0] - 2 * E
    return deg, _collect_terms(mod, pos, deg, [(tag, E, Q(1))])


def _preimage_exponent(x: ToralObject, tag):
    """Smallest c-power of a basic Laurent element hit by beta at every slot.

    Returns (E, preimages) with preimages[key] the chosen slotwise vector.
    """
    e = 0 if tag[1] == 1 else 1
    big = 0
    for m in x.all_modules():
        big = max(big, m.max_shift() + m.ring.step * (m.max_torsion() + 2))
    cap = abs(tag[0]) + 2 * big + 40
    E = e
    while E <= cap:
        pre = {}
        for key in x.keys():
            deg, target = _euler_element(x, key, tag, E)
            sol = x.beta[key].evaluate(deg).solve(target)
            if sol is None:
                pre = None
                break
            pre[key] = sol
        if pre is not None:
            return E, pre
        E += 2
    raise StarConditionError("no Euler power of the element is hit by beta")


def _polynomial_span(L: GradedModule, gens, window):
    """Polynomial span of homogeneous elements of L, reconstructed on a window.

    gens is a list of (degree, vector).  Returns (S, realized, spans): S is
    the span in canonical form, realized[k] the generator of its summand k
    as a vector of L, and spans[g] = (labels, mat) for every degree g that a
    spanning vector reaches, where the columns of mat are the spanning
    vectors at g and labels[j] is the (generator index, power) of column j.
    """
    lo, hi = window
    step = L.ring.step
    spans = {}
    for g in range(hi, lo - 1, -1):
        vecs, labels = [], []
        for r, (dg, base) in enumerate(gens):
            diff = dg - g
            if diff >= 0 and diff % step == 0:
                vecs.append(_apply_action(L, dg, diff // step, base))
                labels.append((r, diff // step))
        if vecs:
            spans[g] = (labels, QMatrix.from_columns(L.dim(g), vecs))
    S, realized, _ = window_subquotient(L, window, {g: mat for g, (_, mat) in spans.items()}, {})
    return S, realized, spans


def wide_sphere_cover(x: ToralObject, key, degree: int, vector):
    """A wide sphere P with a morphism P -> x hitting the given element.

    The element is a degreewise vector in the slot module at the given slot;
    it must be sign-pure.  Returns (P, morphism).
    """
    check_star(x, strict=True)
    m_slot = x.M.slot(key)
    vector = [Fraction(v) for v in vector]
    if len(vector) != m_slot.dim(degree):
        raise SchemaError("element vector has the wrong length")
    torus = x.slot_is_torus(key)
    s_n = 1 if torus else sign_of(m_slot, degree, vector)
    if s_n is None:
        raise SchemaError("wide-sphere covers need a sign-pure element")
    w = x.beta[key].evaluate(degree).apply(vector)
    if all(c == 0 for c in w):
        return _rank_one_cover(x, key, degree, vector, s_n)
    return _proof_cover(x, key, degree, vector, s_n, w)


def _rank_one_cover(x, key, degree, vector, s_n):
    """A global rank-one wide sphere covering a torsion element."""
    side = x.side
    j = 0 if s_n == 1 else 1
    g_t = degree + 2 * j
    T = QWSpace({g_t: (1, 0)})
    tag = (g_t, 1, 0)
    tail = GradedModule(POLY_C, [Summand(FREE, degree, s_n)])
    lmod, _, lpos = laurent_model(T, False)
    beta = {TAIL: ModuleMap(tail, lmod, 0, {(lpos[tag], 0): Q(1)})}
    explicit = {}
    if side == "SO3":
        slot1 = GradedModule(POLY_D, [Summand(FREE, degree - 2 * j, 1)])
        fmod, _, fpos = laurent_model(T, True)
        explicit[1] = slot1
        beta[1] = ModuleMap(slot1, fmod, 0, {(fpos[tag], 0): Q(1)})
    P = ToralObject(side, SlotFamily(side, explicit, tail), T, beta)
    dom = P.M.slot(key)
    ent = {}
    for col, (i, _a) in enumerate(x.M.slot(key).basis(degree)):
        if vector[col] != 0:
            ent[(i, 0)] = vector[col]
    alpha = {key: ModuleMap(dom, x.M.slot(key), 0, ent)}
    m = ToralMorphism(P, x, 0, alpha, VMap.zero(T, x.V, 0))
    _verify_cover(P, m, x, key, degree, vector, hit_vec=None)
    return P, m


def _proof_cover(x, key, degree, vector, s_n, w):
    side = x.side
    m_slot = x.M.slot(key)
    L, ltags, _ = laurent_model(x.V, x.slot_is_torus(key))
    terms = _expand_terms(L, ltags, degree, w)
    tags = x.V.vectors()
    minexp = {}
    for tag, j, _coef in terms:
        minexp[tag] = min(minexp.get(tag, j), j)
    E, pre = {}, {}
    for tag in tags:
        E[tag], pre[tag] = _preimage_exponent(x, tag)
    h = 0
    A = {}
    while h <= m_slot.max_torsion() + L.max_torsion() + 12:
        A = {tag: E[tag] + 2 * h for tag in tags}
        m0 = max(A[tag] - minexp[tag] for tag in minexp)
        lhs = _mult_euler(m_slot, degree, m0, vector)
        rhs = [Q(0)] * len(lhs)
        for tag, j, coef in terms:
            contrib = _mult_euler(
                m_slot, tag[0] - 2 * E[tag], j + m0 - E[tag], pre[tag][key]
            )
            rhs = [a + coef * b for a, b in zip(rhs, contrib)]
        if lhs == rhs:
            break
        h += 1
    else:
        raise InvariantError("no Euler power clears the covering relation")
    # the generators of S at the covered slot, with their intended images
    gens = [(degree, w)]
    imgs = [(degree, vector)]
    for tag in tags:
        dg, base = _euler_element(x, key, tag, A[tag])
        gens.append((dg, base))
        imgs.append(
            (dg, _mult_euler(m_slot, tag[0] - 2 * E[tag], A[tag] - E[tag], pre[tag][key]))
        )
    hi = max(dg for dg, _ in gens) + m_slot.ring.step
    m0 = max(A[tag] - minexp[tag] for tag in minexp)
    pad = 2 * m0 + m_slot.ring.step * (m_slot.max_torsion() + 6) + 16
    lo = min(dg for dg, _ in gens) - pad
    S_slot, realized, spans = _polynomial_span(L, gens, (lo, hi))
    # consistency: every relation among the spanning vectors maps to zero
    img_cols = {}
    for g, (labels, span_mat) in spans.items():
        cols = [
            _apply_action(m_slot, imgs[r][0], k, imgs[r][1]) for r, k in labels
        ]
        img_mat = QMatrix.from_columns(m_slot.dim(g), cols)
        img_cols[g] = (span_mat, img_mat)
        ker = span_mat.kernel_basis()
        if not (img_mat @ ker).is_zero():
            raise InvariantError("covering images do not respect the relations")
    # slot components of beta_P and of the morphism at the covered slot
    beta_ent, alpha_ent = {}, {}
    for ks, r in enumerate(realized):
        g = r.degree
        for i, coef in _vector_entries(L, g, r.vector).items():
            beta_ent[(i, ks)] = coef
        span_mat, img_mat = img_cols[g]
        lam = span_mat.solve(r.vector)
        if lam is None:
            raise InvariantError("canonical generator escapes the span")
        target = img_mat.apply(lam)
        for i, coef in _vector_entries(m_slot, g, target).items():
            alpha_ent[(i, ks)] = coef
    # the other slots: free on the Euler generators
    tagged = [
        (Summand(FREE, tag[0] - 2 * A[tag], 1), tag) for tag in tags
    ]
    S_other, _, spos = _module_with_index(POLY_C, tagged)
    lmod_c, _, lpos_c = laurent_model(x.V, False)
    free_beta = ModuleMap(
        S_other, lmod_c, 0, {(lpos_c[tag], spos[tag]): Q(1) for tag in tags}
    )
    explicit, beta = {}, {}
    if side == "SO3":
        tagged_d = [
            (Summand(FREE, tag[0] - 2 * A[tag], 1), tag) for tag in tags
        ]
        S_one, _, spos_d = _module_with_index(POLY_D, tagged_d)
        fmod, _, fpos = laurent_model(x.V, True)
        explicit[1] = S_one
        beta[1] = ModuleMap(
            S_one, fmod, 0, {(fpos[tag], spos_d[tag]): Q(1) for tag in tags}
        )
    else:
        spos_d = spos
    span_beta = ModuleMap(S_slot, L, 0, beta_ent)
    if key == TAIL:
        tail_mod = S_slot
        beta[TAIL] = span_beta
        for k2 in x.M.explicit:
            if x.slot_is_torus(k2):
                continue
            explicit[k2] = S_other
            beta[k2] = free_beta
    else:
        tail_mod = S_other
        beta[TAIL] = free_beta
        explicit[key] = S_slot
        beta[key] = span_beta
    P = ToralObject(side, SlotFamily(side, explicit, tail_mod), x.V, beta)
    alpha = {key: ModuleMap(S_slot, m_slot, 0, alpha_ent)}
    for key2 in set(x.M.explicit) | set(P.M.explicit) | {TAIL}:
        if key2 == key:
            continue
        dom = P.M.slot(key2)
        pos2 = spos_d if x.slot_is_torus(key2) else spos
        m2 = x.M.slot(key2)
        ent = {}
        for tag in tags:
            img = _mult_euler(
                m2, tag[0] - 2 * E[tag], A[tag] - E[tag], pre[tag][key2 if key2 in pre[tag] else TAIL]
            )
            for i, coef in _vector_entries(m2, tag[0] - 2 * A[tag], img).items():
                ent[(i, pos2[tag])] = coef
        alpha[key2] = ModuleMap(dom, m2, 0, ent)
    m = ToralMorphism(P, x, 0, alpha, VMap.identity(x.V))
    hit_vec = None
    span_mat, img_mat = img_cols[degree]
    lam = span_mat.solve(list(w))
    if lam is not None:
        hit_vec = img_mat.apply(lam)
    _verify_cover(P, m, x, key, degree, vector, hit_vec)
    return P, m


def _verify_cover(P, m, x, key, degree, vector, hit_vec):
    if not m.is_valid():
        raise InvariantError("cover is not a morphism")
    check_star(P, strict=True)
    # the element must be in the image of the slot component
    mat = m.component(key).evaluate(degree)
    aug = mat.solve(list(vector))
    if aug is None:
        raise InvariantError("cover misses the element")
    if hit_vec is not None and hit_vec != list(vector):
        raise InvariantError("distinguished generator does not hit the element")
