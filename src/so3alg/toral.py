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
wide-sphere covers.  The hom spaces are linear systems with one equation
per entry of a composed map, not per basis element on a window of degrees.
A resolution's first stage solves nothing: the kernel of the structure map
is the torsion summands of a slot, and their extension into f(I) is the
coordinate embedding into padded copies.

Suspension, the sign twist, the parity split and the direct sum share one
re-indexing routine, ``_transport``; only the functors that change a slot's
ring move beta between models of V by hand.

Every per-slot datum of both models (slot modules and spaces, beta, the slot
differentials, germ maps, morphism components, a resolution's quotient
maps) is held by one container, ``Slots``: explicit values per slot key plus
one tail, which every unlisted key and ``TAIL`` read.  It alone reads the
tail, unions key sets, fills missing maps with zero and drops the listed
copies of the tail (``Slots.normal_forms``).
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
    degree_runs,
    direct_sum,
    fixed_points_c_to_d,
    fixed_points_map,
    homology_realized,
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


def qw_homology(space: QWSpace, d: VMap):
    """Homology of a complex of Q[W]-spaces, one ``chain_homology`` per sign:
    (H, data), with data[s] the (hdims, reps, projs) of the sign-s part on the
    degrees of the space and their neighbours."""
    degs = set(space.dims)
    degs |= {g - 1 for g in degs} | {g + 1 for g in degs}
    out, data = {}, {}
    for s in (1, -1):
        dims = {g: space.dim(g, s) for g in degs}
        mats = {g: mat for (g, t), mat in d.blocks.items() if t == s}
        data[s] = chain_homology(dims, mats)
        for g, h in data[s][0].items():
            if h:
                p, m = out.get(g, (0, 0))
                out[g] = (p + h, m) if s == 1 else (p, m + h)
    return QWSpace(out), data


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


class Slots:
    """Values at finitely many listed slot keys, plus one tail value.

    Both models index their data so: the toral one by the cyclic slots
    n >= 1, the dihedral one by the slots k > 2.  This class is the one place
    that reads the tail: ``s[key]`` is the listed value, and the tail at
    every key that is not listed and at TAIL, which is not an index and is
    never listed.  Two instances are equal when they read equal values at
    every key, so listing a copy of the tail changes nothing.
    """

    __slots__ = ("explicit", "tail")

    def __init__(self, explicit: dict, tail):
        self.explicit = dict(explicit)
        self.tail = tail

    @staticmethod
    def keys_of(parts) -> list:
        """The keys that one of parts lists, in order, then TAIL."""
        return sorted({k for p in parts for k in p.explicit}) + [TAIL]

    @staticmethod
    def over(parts, value) -> "Slots":
        """value(key) at each key of ``keys_of(parts)``."""
        listed = sorted({k for p in parts for k in p.explicit})
        return Slots({k: value(k) for k in listed}, value(TAIL))

    @staticmethod
    def fill(parts, given, typ, zero, what: str | None) -> "Slots":
        """One map at each key of ``keys_of(parts)``, of type typ(key) =
        (domain, codomain, degree): given's there, or ``zero(*typ(key))``
        where given, a dict, has none.  A dict's other keys are dropped.
        Each given map is checked against its type, named what; with what
        None, given is trusted, and a container is taken as it is."""
        if not isinstance(given, Slots):
            read = given.get
        elif what is None:
            return given
        else:
            read = given.__getitem__

        def value(key):
            f = read(key)
            if f is None:
                return zero(*typ(key))
            if what is not None and (f.domain, f.codomain, f.degree) != typ(key):
                raise SchemaError(f"{what} at slot {key!r} has wrong type")
            return f

        return Slots.over(parts, value)

    def _copy(self, explicit: dict, tail) -> "Slots":
        """Slots of the same kind with other values."""
        return Slots(explicit, tail)

    @staticmethod
    def normal_forms(*parts) -> list:
        """parts without the listed keys at which each of them holds a copy
        of its tail."""
        keep = {k for p in parts for k, v in p.explicit.items() if v != p.tail}
        return [p._copy({k: v for k, v in p.explicit.items() if k in keep}, p.tail) for p in parts]

    def with_value(self, key, value, keep=()) -> "Slots":
        """A copy that reads value at key.  At TAIL it becomes the tail, and
        the keys in keep are listed with the old tail, so they still read it."""
        explicit = dict(self.explicit)
        if key == TAIL:
            explicit.update((k, self.tail) for k in keep if k not in explicit)
            return self._copy(explicit, value)
        explicit[key] = value
        return self._copy(explicit, self.tail)

    def listing(self, key) -> "Slots":
        """A copy that lists key with the value it reads there."""
        return self.with_value(key, self[key])

    def __getitem__(self, key):
        return self.explicit.get(key, self.tail)

    def keys(self) -> list:
        return sorted(self.explicit) + [TAIL]

    def __iter__(self):
        return iter(self.keys())

    def items(self) -> list:
        return [(k, self[k]) for k in self.keys()]

    def values(self) -> list:
        return [*self.explicit.values(), self.tail]

    def map(self, f) -> "Slots":
        return Slots({k: f(v) for k, v in self.explicit.items()}, f(self.tail))

    def unzip(self) -> list:
        """One Slots per position of the tuples held."""
        return [
            Slots({k: v[i] for k, v in self.explicit.items()}, self.tail[i])
            for i in range(len(self.tail))
        ]

    def __eq__(self, other):
        return isinstance(other, Slots) and all(
            self[k] == other[k] for k in Slots.keys_of([self, other])
        )


class SlotFamily(Slots):
    """The slot modules of a toral object: slot keys are integers >= 1.

    On the SO3 side slot 1 is always explicit and is a module over Q[d] (or
    its Laurent ring) without involution.
    """

    __slots__ = ("side",)

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
        super().__init__(explicit, tail)
        self.side = side

    def _copy(self, explicit, tail) -> "SlotFamily":
        return SlotFamily(self.side, explicit, tail)

    def is_torsion(self):
        return all(m.is_torsion() for m in self.values())

    def is_zero(self):
        return all(m.is_zero() for m in self.values())


class ToralObject:
    """An object (beta: M -> Laurent x V) of the toral model.

    Without a differential, dM and dV are None and every slot differential
    is zero (``slot_differentials``).
    """

    __slots__ = ("side", "M", "V", "beta", "dM", "dV")

    def __init__(self, side, M: SlotFamily, V: QWSpace, beta, dM=None, dV=None):
        if M.side != side:
            raise SchemaError("slot family side mismatch")
        self.side = side
        self.M = M
        self.V = V
        self.beta = Slots.fill(
            [M], beta, lambda key: (M[key], self.beta_codomain(key), 0), ModuleMap.zero,
            "structure map",
        )
        if (dM is None) != (dV is None):
            raise SchemaError("differential must cover both M and V")
        self.dM = self.dV = None
        if dV is not None:
            self.dM = Slots.fill(
                [M], dM, lambda key: (M[key], M[key], -1), ModuleMap.zero, "differential"
            )
            if dV.domain != V or dV.codomain != V or dV.degree != -1:
                raise SchemaError("V differential has wrong type")
            self.dV = dV

    def slot_is_torus(self, key):
        return self.side == "SO3" and key == 1

    def beta_codomain(self, key):
        return laurent_model(self.V, self.slot_is_torus(key))[0]

    def keys(self):
        return self.M.keys()

    def has_differential(self):
        return self.dV is not None

    def slot_differentials(self) -> Slots:
        """dM, or zero maps without a differential."""
        if self.dM is not None:
            return self.dM
        return self.M.map(lambda m: ModuleMap.zero(m, m, -1))

    def _slotted(self) -> list:
        return [self.M, self.beta] + ([self.dM] if self.has_differential() else [])

    def _with_slots(self, M, beta, dM=None) -> "ToralObject":
        return ToralObject(self.side, M, self.V, beta, dM, self.dV)

    def normalized(self) -> "ToralObject":
        """Drop explicit slots that duplicate the tail template."""
        return self._with_slots(*Slots.normal_forms(*self._slotted()))

    def listing(self, key) -> "ToralObject":
        """The same object with key listed."""
        return self._with_slots(*(p.listing(key) for p in self._slotted()))

    def __eq__(self, other):
        return isinstance(other, ToralObject) and (
            self.side, self.M, self.V, self.beta, self.dM, self.dV
        ) == (other.side, other.M, other.V, other.beta, other.dM, other.dV)

    def __repr__(self):
        return f"ToralObject({self.side}, slots {sorted(self.M.explicit)}, V {self.V.dims})"

    def is_zero(self):
        return self.M.is_zero() and self.V.is_zero()

    def all_modules(self):
        return self.M.values()


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

    def __init__(self, x: ToralObject, y: ToralObject, degree: int, alpha, phi: VMap):
        self.x = x
        self.y = y
        self.degree = degree
        self.alpha = Slots.fill(
            [x.M, y.M], alpha, lambda key: (x.M[key], y.M[key], degree), ModuleMap.zero,
            "morphism component",
        )
        if phi.domain != x.V or phi.codomain != y.V or phi.degree != degree:
            raise SchemaError("morphism V-component has wrong type")
        self.phi = phi

    @staticmethod
    def identity(x: ToralObject) -> "ToralMorphism":
        return ToralMorphism(x, x, 0, x.M.map(ModuleMap.identity), VMap.identity(x.V))

    def compose(self, other: "ToralMorphism") -> "ToralMorphism":
        """self after other."""
        if other.y is not self.x and other.y != self.x:
            raise SchemaError("morphism composition mismatch")
        alpha = Slots.over(
            [other.x.M, self.y.M], lambda key: self.alpha[key].compose(other.alpha[key])
        )
        return ToralMorphism(
            other.x, self.y, self.degree + other.degree, alpha, self.phi.compose(other.phi)
        )

    def __eq__(self, other):
        return isinstance(other, ToralMorphism) and (
            self.x, self.y, self.degree, self.alpha, self.phi
        ) == (other.x, other.y, other.degree, other.alpha, other.phi)

    def is_valid(self) -> bool:
        """The defining square commutes at every slot."""
        x, y = self.x, self.y
        # the keys in order: the check stops at the first failing slot
        for key, a in self.alpha.items():
            l_phi = laurent_model_map(self.phi, x.slot_is_torus(key))
            if y.beta[key].compose(a) != l_phi.compose(x.beta[key]):
                return False
        return True

    def is_chain_map(self) -> bool:
        dx, dy = self.x.slot_differentials(), self.y.slot_differentials()
        return all(dy[key].compose(a) == a.compose(dx[key]) for key, a in self.alpha.items())


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


def _unchanged(z):
    return z


def _transport(side: str, v: QWSpace, parts, dV=None) -> ToralObject:
    """The object over v rebuilt slot by slot from parts.

    Each part is (object, change, retag): change(s) is the new summand for a
    summand s of one of the object's slots, or None to drop it, and retag
    maps a basis tag of the object's V to its tag in v.  Every slot is built
    by ``_module_with_index``, so its summands sort stably across the parts,
    and beta is re-indexed to follow them; so are the slot differentials
    when dV, the differential of v, is given.
    """

    def transported(key):
        # (module, beta, differential) at one slot
        rings = {x.M[key].ring for x, _, _ in parts}
        if len(rings) != 1:
            raise SchemaError("direct sum over mixed rings")
        tagged = [
            (change(s), (p, j))
            for p, (x, change, _) in enumerate(parts)
            for j, s in enumerate(x.M[key].summands)
        ]
        m, _, pos = _module_with_index(rings.pop(), [(s, t) for s, t in tagged if s is not None])
        torus = parts[0][0].slot_is_torus(key)
        cod, _, vpos = laurent_model(v, torus)
        ent, dent = {}, {}
        for p, (x, _, retag) in enumerate(parts):
            cols = {j: i for (q, j), i in pos.items() if q == p}
            vtags = [retag(t) for t in laurent_model(x.V, torus)[1]]
            ent.update(_reindex_entries(x.beta[key].entries, vtags, vpos, cols))
            if dV is not None and x.has_differential():
                mtags = [(p, i) for i in range(len(x.M[key].summands))]
                dent.update(_reindex_entries(x.dM[key].entries, mtags, pos, cols))
        return m, ModuleMap(m, cod, 0, ent), None if dV is None else ModuleMap(m, m, -1, dent)

    slots, beta, dM = Slots.over([x.M for x, _, _ in parts], transported).unzip()
    M = SlotFamily(side, slots.explicit, slots.tail)
    return ToralObject(side, M, v, beta, None if dV is None else dM, dV)


def suspend_object(x: ToralObject, k: int) -> ToralObject:
    """The k-fold suspension.

    Suspending a slot module normalizes its Laurent shifts, which may
    re-order its summands; beta and the differential follow them.
    """
    return _transport(
        x.side, x.V.suspend(k),
        [(x, lambda s: Summand(s.kind, s.shift + k, s.sign, s.length),
          lambda t: (t[0] + k, t[1], t[2]))],
        None if x.dV is None else x.dV.suspend(k),
    )


def direct_sum_objects(a: ToralObject, b: ToralObject) -> ToralObject:
    """a + b; b's vectors follow a's in each (degree, sign) block of V."""
    if a.side != b.side:
        raise SchemaError("direct sum across sides")
    v = qw_sum(a.V, b.V)
    dV = None
    if a.has_differential() or b.has_differential():
        dV = vmap_sum(v, v, [
            obj.dV if obj.dV is not None else VMap.zero(obj.V, obj.V, -1) for obj in (a, b)
        ])
    return _transport(a.side, v, [
        (a, _unchanged, _unchanged),
        (b, _unchanged, lambda t: (t[0], t[1], a.V.dim(t[0], t[1]) + t[2])),
    ], dV)


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
    new1, src = base_change_d_to_c(x.M[1])
    lmod, _, lpos = laurent_model(x.V, False)
    back = {orig: k for k, orig in enumerate(src)}
    ent = _reindex_entries(x.beta[1].entries, laurent_model(x.V, True)[1], lpos, back)
    M = SlotFamily("O2", {**x.M.explicit, 1: new1}, x.M.tail)
    return ToralObject("O2", M, x.V, x.beta.with_value(1, ModuleMap(new1, lmod, 0, ent)))


def functor_R(y: ToralObject) -> ToralObject:
    """W-fixed points at slot 1: from the O2 side to the SO3 side."""
    if y.side != "O2":
        raise SchemaError("R consumes objects on the O2 side")
    fixed, _ = fixed_points_c_to_d(y.M[1])
    ltags = laurent_model(y.V, False)[1]
    fmod, _, fpos = laurent_model(y.V, True)
    b1 = y.beta[1]
    # re-index the codomain from fixed(Laurent V) to the fixed-point model
    _, creal = fixed_points_c_to_d(b1.codomain)
    tags = [ltags[orig] for orig, _e in creal]
    ent = _reindex_entries(fixed_points_map(b1).entries, tags, fpos)
    M = SlotFamily("SO3", {**y.M.explicit, 1: fixed}, y.M.tail)
    return ToralObject("SO3", M, y.V, y.beta.with_value(1, ModuleMap(fixed, fmod, 0, ent)))


def unit_of_adjunction(x: ToralObject) -> ToralMorphism:
    """x -> R(F(x)) on the SO3 side; away from the torus slot it is identity."""
    rfx = functor_R(functor_F(x))
    m1 = x.M[1]
    bc, src = base_change_d_to_c(m1)
    _, real = fixed_points_c_to_d(bc)
    target_of = {orig: k for k, (orig, _e) in enumerate(real)}
    ent = {}
    for j in range(len(m1.summands)):
        ent[(target_of[src.index(j)], j)] = Q(1)
    alpha = x.M.map(ModuleMap.identity).with_value(1, ModuleMap(m1, rfx.M[1], 0, ent))
    return ToralMorphism(x, rfx, 0, alpha, VMap.identity(x.V))


def counit_of_adjunction(y: ToralObject) -> ToralMorphism:
    """F(R(y)) -> y on the O2 side: evaluation of fixed points."""
    fry = functor_F(functor_R(y))
    m1 = y.M[1]
    fixed, real = fixed_points_c_to_d(m1)
    _, src = base_change_d_to_c(fixed)
    ent = {}
    for k, (orig, _e) in enumerate(real):
        ent[(orig, src.index(k))] = Q(1)
    alpha = y.M.map(ModuleMap.identity).with_value(1, ModuleMap(fry.M[1], m1, 0, ent))
    return ToralMorphism(fry, y, 0, alpha, VMap.identity(y.V))


def map_F(m: ToralMorphism) -> ToralMorphism:
    fx, fy = functor_F(m.x), functor_F(m.y)
    alpha = m.alpha.with_value(1, base_change_map(m.alpha[1]))
    return ToralMorphism(fx, fy, m.degree, alpha, m.phi)


def map_R(m: ToralMorphism) -> ToralMorphism:
    rx, ry = functor_R(m.x), functor_R(m.y)
    alpha = m.alpha.with_value(1, fixed_points_map(m.alpha[1]))
    return ToralMorphism(rx, ry, m.degree, alpha, m.phi)


def _twisted(s: Summand) -> Summand:
    return Summand(s.kind, s.shift, -s.sign, s.length)


def twist_object(y: ToralObject) -> ToralObject:
    """Tensoring with the sign representation; defined on the O2 side."""
    if y.side != "O2":
        raise SchemaError("the twist lives on the O2 side")
    return _transport(
        "O2", y.V.twist(), [(y, _twisted, lambda t: (t[0], -t[1], t[2]))],
        y.dV.twist() if y.has_differential() else None,
    )


def twist_morphism(m: ToralMorphism) -> ToralMorphism:
    tx, ty = twist_object(m.x), twist_object(m.y)

    def index(mod):
        # where the twisted slot of tx or ty puts each summand of mod
        return _module_with_index(mod.ring, [(_twisted(s), j) for j, s in enumerate(mod.summands)])[2]

    def twisted(key):
        ix, iy = index(m.x.M[key]), index(m.y.M[key])
        return ModuleMap(
            tx.M[key], ty.M[key], m.degree,
            {(iy[i], ix[j]): c for (i, j), c in m.alpha[key].entries.items()},
        )

    alpha = Slots.over([m.x.M, m.y.M], twisted)
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
    slots = Slots.over([x.M, fam], lambda n: _tensor_modules(x.M[n], fam[n]))
    return make_fN(SlotFamily(x.side, slots.explicit, slots.tail))


# -- parity ---------------------------------------------------------------------


def parity_split(x: ToralObject) -> tuple[ToralObject, ToralObject]:
    """Split an object into its even and odd parts; degree-0 maps preserve them."""
    even, odd = (
        _transport(x.side, x.V.parity_part(parity), [
            (x, lambda s, parity=parity: s if s.shift % 2 == parity else None, _unchanged),
        ])
        for parity in (0, 1)
    )
    return even, odd


# -- the graded hom space as an exact linear system ----------------------------


def _entry_allowed(dom: GradedModule, cod: GradedModule, degree: int, i: int, j: int):
    """The map with the single entry (i, j) = 1, or None where no such
    monomial map exists or it lands past a torsion cut-off."""
    try:
        unit = ModuleMap(dom, cod, degree, {(i, j): Q(1)})
    except EngineError:
        return None
    return unit if unit.entries else None


def _entry_rows(n: int, terms):
    """The rows of sum_u v_u * term_u == 0 over the n unknowns, one per map
    entry.

    terms are (unknown index, map) pairs of maps with one domain and
    codomain.  Every ModuleMap entry is a monomial and ModuleMap drops the
    entries past a torsion cut-off, so a map into a Laurent or torsion
    module is zero exactly when each entry is.
    """
    eqs = {}
    for u, term in terms:
        for e, coef in term.entries.items():
            eqs.setdefault(e, {})[u] = coef
    return [[eq.get(u, Q(0)) for u in range(n)] for eq in eqs.values()]


class HomSpace:
    """All degree-t morphisms x -> y, solved as one exact linear system.

    Unknowns are the allowed monomial entries of the slot components plus the
    blocks of the V-component; the defining squares give the constraints.
    """

    def __init__(self, x: ToralObject, y: ToralObject, degree: int):
        if x.side != y.side:
            raise SchemaError("hom across sides")
        self.x, self.y, self.degree = x, y, degree
        self.keys = Slots.keys_of([x.M, y.M])
        self.unknowns = []
        self.index = {}
        units = {}
        for key in self.keys:
            dom, cod = x.M[key], y.M[key]
            for i in range(len(cod.summands)):
                for j in range(len(dom.summands)):
                    unit = _entry_allowed(dom, cod, degree, i, j)
                    if unit is not None:
                        units[len(self.unknowns)] = unit
                        self._add(("a", key, i, j))
        for g in sorted(x.V.dims):
            for s in (1, -1):
                for ix in range(x.V.dim(g, s)):
                    for iy in range(y.V.dim(g + degree, s)):
                        self._add(("v", g, s, iy, ix))
        rows = self._equations(units)
        n = len(self.unknowns)
        mat = QMatrix(len(rows), n, rows)
        self.basis_mat = mat.kernel_basis() if n else QMatrix(0, 0)

    def _add(self, u):
        self.index[u] = len(self.unknowns)
        self.unknowns.append(u)

    def _equations(self, units):
        """Rows of by o a == l o bx at every slot, one per entry of the
        composed maps: a slot unknown contributes by o unit, a V unknown
        minus its single-entry map of Laurent models after bx."""
        x, y, t = self.x, self.y, self.degree
        n = len(self.unknowns)
        rows = []
        for key in self.keys:
            bx, by = x.beta[key], y.beta[key]
            torus = x.slot_is_torus(key)
            lx_pos, ly_pos = laurent_model(x.V, torus)[2], laurent_model(y.V, torus)[2]
            terms = []
            for u, label in enumerate(self.unknowns):
                if label[0] == "a":
                    if label[1] == key:
                        terms.append((u, by.compose(units[u])))
                else:
                    _, g, s, iy, ix = label
                    entry = (ly_pos[(g + t, s, iy)], lx_pos[(g, s, ix)])
                    l_unit = ModuleMap(bx.codomain, by.codomain, t, {entry: Q(-1)})
                    terms.append((u, l_unit.compose(bx)))
            rows += _entry_rows(n, terms)
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
            key: ModuleMap(x.M[key], y.M[key], t, ent)
            for key, ent in ent_by_key.items()
        }
        return ToralMorphism(x, y, t, alpha, VMap(x.V, y.V, t, blocks))

    def basis_morphism(self, k: int) -> ToralMorphism:
        return self.from_vector(self.basis_mat.col(k))

    def vector_of(self, m: ToralMorphism):
        """Unknown-space vector of a morphism (must lie in the hom space)."""
        vec = [Q(0)] * len(self.unknowns)
        for key in self.keys:
            for (i, j), coef in m.alpha[key].entries.items():
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
    quot: Slots  # the projection of each Y0 slot onto the Y1 slot (a WindowMap)
    window: tuple[int, int]

    def check_exact(self) -> bool:
        """Degreewise exactness 0 -> x -> Y0 -> Y1 -> 0 on the window.

        Both maps repeat along each run of degrees on which the summands of
        the three slots stay alive, so one degree per run is ranked."""
        for key in self.x.keys():
            q = self.quot[key]
            inc = self.include.alpha[key]
            placed = [(inc.domain, 0), (inc.codomain, 0), (q.codomain, 0)]
            for g in degree_runs(self.window, inc.domain.ring.step, placed):
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


def injective_resolution(x: ToralObject, window=(-12, 12)) -> InjectiveResolution:
    """A length-one resolution 0 -> x -> e(V) + f(I) -> f(J) -> 0.

    beta kills the torsion summands of a slot (no monomial map leads from a
    torsion summand into a Laurent one), and by the strict star check it is
    injective on the rest, so ker beta is the torsion summands, a direct
    summand of the slot.  I lengthens each of them upward by
    pad = 2 * max_torsion + 1 steps, keeping its bottom class, and the
    extension psi into f(I) is their coordinate embedding: entry 1 (the
    power c^pad) from each torsion summand to its copy, zero elsewhere.  The
    inclusion (beta into e(V), psi into f(I), the identity on V) is a
    morphism by construction and not checked: e(V) has the identity
    structure map (``make_eV``) and f(I) has V = 0.  Exactness is checked
    on the window.
    """
    check_star(x, strict=True)
    side = x.side

    def padded_torsion(key):
        # (the I slot, psi at the slot)
        m = x.M[key]
        ring = m.ring
        pad = 2 * m.max_torsion() + 1
        sign = (-1) ** pad if ring.flip else 1
        tagged = [
            (Summand(TORSION, s.shift + ring.step * pad, s.sign * sign, s.length + pad), j)
            for j, s in enumerate(m.summands)
            if s.kind == TORSION
        ]
        imod, tags, _ = _module_with_index(ring, tagged)
        return imod, ModuleMap(m, imod, 0, {(i, j): Q(1) for i, j in enumerate(tags)})

    I_slots, psi = Slots.over([x.M], padded_torsion).unzip()
    f_part = make_fN(SlotFamily(side, I_slots.explicit, I_slots.tail))
    e_part = make_eV(x.V, side)
    Y0 = direct_sum_objects(e_part, f_part)

    def inclusion(key):
        _, maps = direct_sum([e_part.M[key], I_slots[key]])
        ent = {}
        for (i, j), coef in x.beta[key].entries.items():
            ent[(maps[0][i], j)] = coef
        for (i, j), coef in psi[key].entries.items():
            ent[(maps[1][i], j)] = coef
        return ModuleMap(x.M[key], Y0.M[key], 0, ent)

    include = ToralMorphism(x, Y0, 0, Slots.over([x.M], inclusion), VMap.identity(x.V))

    def cokernel(key):
        win = auto_window(window, [x.M[key], Y0.M[key]])
        return cokernel_of_map(include.alpha[key], win)

    J_slots, quot = Slots.over([x.M], cokernel).unzip()
    Y1 = make_fN(SlotFamily(side, J_slots.explicit, J_slots.tail))
    res = InjectiveResolution(x, Y0, include, Y1, quot, window)
    if not res.check_exact():
        raise InvariantError("resolution is not exact on the window")
    return res


def ext_A(
    x: ToralObject, y: ToralObject, degrees, window=(-12, 12)
) -> dict[int, tuple[int, int]]:
    """Degreewise hom and Ext of x against y via a length-one resolution.

    The resolution's window is widened to reach every generator of x and its
    image in each degree, where the quotient maps are composed with Hom(x, Y0).
    """
    degrees = list(degrees)
    shifts = [s.shift for m in x.all_modules() for s in m.summands]
    reach = shifts + [g + t for g in shifts for t in degrees]
    res = injective_resolution(y, (min([window[0], *reach]), max([window[1], *reach])))
    out = {}
    for t in degrees:
        h0 = HomSpace(x, res.Y0, t)
        h1 = HomSpace(x, res.Y1, t)
        cols = []
        for k in range(h0.dim):
            m = h0.basis_morphism(k)
            alpha = {key: res.quot[key].compose_module_map(m.alpha[key]) for key in h1.keys}
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
    hv, hv_data = qw_homology(x.V, x.dV)

    def slot_homology(key):
        # (the homology module, its structure map)
        m = x.M[key]
        win = auto_window(window or (0, 0), [m, x.beta[key].codomain])
        H, realized = homology_realized(m, x.dM[key], win)
        torus = x.slot_is_torus(key)
        lmod, ltags, _ = laurent_model(x.V, torus)
        hmod, _, hpos = laurent_model(hv, torus)
        ent = {}
        for k, r in enumerate(realized):
            g = r.degree
            img = x.beta[key].evaluate(g).apply(r.vector)
            # the image is a cycle of V at each (degree, sign, c-power), not
            # term by term: project the terms of one such part together
            parts = {}
            for (gv, sv, iv), j, coef in _expand_terms(lmod, ltags, g, img):
                parts.setdefault((gv, sv, j), {})[(iv, 0)] = coef
            new_terms = []
            for (gv, sv, j), part in parts.items():
                vec = QMatrix.from_entries(x.V.dim(gv, sv), 1, part)
                for h_idx, c2 in enumerate(hv_data[sv][2][gv](vec).col(0)):
                    if c2 != 0:
                        new_terms.append(((gv, sv, h_idx), j, c2))
            out_vec = _collect_terms(hmod, hpos, g, new_terms)
            for col, (i, _a) in enumerate(hmod.basis(g)):
                if out_vec[col] != 0:
                    ent[(i, k)] = ent.get((i, k), Q(0)) + out_vec[col]
        return H, ModuleMap(H, hmod, 0, ent)

    slots, beta = Slots.over([x.M], slot_homology).unzip()
    return ToralObject(x.side, SlotFamily(x.side, slots.explicit, slots.tail), hv, beta)


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
    degrees = range(hi, lo - 1, -1)
    for g in degrees:
        vecs, labels = [], []
        for r, (dg, base) in enumerate(gens):
            diff = dg - g
            if diff >= 0 and diff % step == 0:
                vecs.append(_apply_action(L, dg, diff // step, base))
                labels.append((r, diff // step))
        if vecs:
            spans[g] = (labels, QMatrix.from_columns(L.dim(g), vecs))
    cycles = {g: mat for g, (_, mat) in spans.items()}
    # the spanning powers change from degree to degree: one run per degree
    S, realized, _ = window_subquotient(L, window, dict.fromkeys(degrees, 1), cycles, {})
    return S, realized, spans


def wide_sphere_cover(x: ToralObject, key, degree: int, vector):
    """A wide sphere P with a morphism P -> x hitting the given element.

    The element is a degreewise vector in the slot module at the given slot;
    it must be sign-pure.  Returns (P, morphism).  A slot that x does not
    list is listed first, as the copy of the tail it reads, so the cover's
    component there is kept.
    """
    check_star(x, strict=True)
    x = x.listing(key)
    m_slot = x.M[key]
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
    return _proof_cover(x, key, degree, vector, w)


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
    ent = {}
    for col, (i, _a) in enumerate(x.M[key].basis(degree)):
        if vector[col] != 0:
            ent[(i, 0)] = vector[col]
    alpha = {key: ModuleMap(P.M[key], x.M[key], 0, ent)}
    m = ToralMorphism(P, x, 0, alpha, VMap.zero(T, x.V, 0))
    _verify_cover(P, m, key, degree, vector, hit_vec=None)
    return P, m


def _proof_cover(x, key, degree, vector, w):
    side = x.side
    m_slot = x.M[key]
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
    # P is free on the Euler generators at every slot but the covered one;
    # when that is the tail, x's explicit slots are listed to stay free
    slots, beta = Slots({}, S_other), Slots({}, free_beta)
    spos_d = spos
    if side == "SO3":
        S_one, _, spos_d = _module_with_index(POLY_D, tagged)
        fmod, _, fpos = laurent_model(x.V, True)
        slots = slots.with_value(1, S_one)
        beta = beta.with_value(1, ModuleMap(
            S_one, fmod, 0, {(fpos[tag], spos_d[tag]): Q(1) for tag in tags}
        ))
    slots = slots.with_value(key, S_slot, x.M.explicit)
    beta = beta.with_value(key, ModuleMap(S_slot, L, 0, beta_ent), x.M.explicit)
    P = ToralObject(side, SlotFamily(side, slots.explicit, slots.tail), x.V, beta)

    def component(key2):
        if key2 == key:
            return ModuleMap(S_slot, m_slot, 0, alpha_ent)
        pos2 = spos_d if x.slot_is_torus(key2) else spos
        m2 = x.M[key2]
        ent = {}
        for tag in tags:
            img = _mult_euler(
                m2, tag[0] - 2 * E[tag], A[tag] - E[tag], pre[tag][key2]
            )
            for i, coef in _vector_entries(m2, tag[0] - 2 * A[tag], img).items():
                ent[(i, pos2[tag])] = coef
        return ModuleMap(P.M[key2], m2, 0, ent)

    m = ToralMorphism(P, x, 0, Slots.over([x.M, P.M], component), VMap.identity(x.V))
    hit_vec = None
    span_mat, img_mat = img_cols[degree]
    lam = span_mat.solve(list(w))
    if lam is not None:
        hit_vec = img_mat.apply(lam)
    _verify_cover(P, m, key, degree, vector, hit_vec)
    return P, m


def _verify_cover(P, m, key, degree, vector, hit_vec):
    if not m.is_valid():
        raise InvariantError("cover is not a morphism")
    check_star(P, strict=True)
    # the element must be in the image of the slot component
    mat = m.alpha[key].evaluate(degree)
    aug = mat.solve(list(vector))
    if aug is None:
        raise InvariantError("cover misses the element")
    if hit_vec is not None and hit_vec != list(vector):
        raise InvariantError("distinguished generator does not hit the element")
