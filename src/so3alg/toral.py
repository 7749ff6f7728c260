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
one place, ``laurent_model(v, torus)`` with ``torus = is_torus_slot(side,
key)``; each space builds each model once and keeps it.

This module implements the adjunction between the two sides (base change
against fixed points), twisted variants, the basic objects e(V) and f(N),
the standard generators, degreewise hom and Ext via injective resolutions of
length one, homology of differentials, smashing with torsion families, and
wide-sphere covers.  The hom spaces are linear systems with one equation
per entry of a composite map, not per basis element on a window of degrees,
read off the entries of the structure maps.  A dimension is a rank, and so
is Ext's, read off the columns of the resolution's projections.
A resolution solves nothing and walks no window: the kernel of the
structure map is the torsion summands of a slot, their extension into f(I)
is the coordinate embedding into padded copies, and the cokernel of the
structure map is one torsion summand (Q[c]^∨, cut at the window's top) above
each free summand, projected onto by the inverse of the localized structure
map, one inverse per residue class.

Every slot built here from tagged summands comes from
``graded.indexed_module``.  Suspension, the sign twist, the parity split and
the direct sum share one re-indexing routine, ``_transport``; only the
functors that change a slot's ring move beta between models of V by hand.

The spaces V, their maps and homology, and the slot container ``Slots``,
which every per-slot datum is held by, are the layer ``qw`` that the
dihedral model shares; their names stay bound here too.

Hom, Ext, resolutions, the parity split and the functors F and R read the
underlying object of A alone, so they refuse an object with a differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
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
    WindowMap,
    auto_window,
    base_change_d_to_c,
    base_change_map,
    cokernel_of_map,
    degree_runs,
    fixed_points_c_to_d,
    fixed_points_map,
    homology_realized,
    indexed_module,
    localize_map,
    sign_of,
    vector_entries,
    window_subquotient,
    _entry_rule,
    _refusal,
)
from .linalg import Q, QMatrix
from .qw import TAIL, QWSpace, Slots, VMap, qw_homology, qw_sum, vmap_sum

__all__ = [
    "TAIL", "QWSpace", "qw_sum", "VMap", "vmap_sum", "qw_homology", "laurent_model",
    "laurent_model_map", "Slots", "is_torus_slot", "SlotFamily", "ToralObject",
    "zero_object", "ToralMorphism", "check_star", "suspend_object",
    "direct_sum_objects", "make_eV", "make_fN", "functor_F", "functor_R",
    "unit_of_adjunction", "counit_of_adjunction", "map_F", "map_R", "twist_object",
    "twist_morphism", "functor_F_twisted", "functor_R_twisted", "map_F_twisted",
    "map_R_twisted", "unit_of_twisted_adjunction", "counit_of_twisted_adjunction",
    "sigma_one", "sigma_H", "sphere", "sigma_T_minus", "sigma_T", "make_alpha",
    "make_EFbar_plus", "smash_with_torsion", "parity_split", "HomSpace", "hom_A",
    "InjectiveResolution", "injective_resolution", "ext_A", "homology_dA",
    "adams_bracket", "wide_sphere_cover",
    # a re-export, read by nothing here: the benchmark's tracer patches the
    # name where it is bound (perfbench/test_perfbench.py::
    # test_tracer_reaches_names_bound_by_from_imports), until the engine
    # owns its counters (ROADMAP item 7)
    "cokernel_of_map",
]

# -- Laurent models of V -----------------------------------------------------


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
        model = indexed_module(POLY_D if torus else POLY_C, tagged)
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


def _check_slot_index(n):
    if not (isinstance(n, int) and n >= 1):
        raise SchemaError(f"bad slot index {n!r}")


def is_torus_slot(side: str, key) -> bool:
    """Slot 1 on the SO3 side is the torus slot: a module over Q[d] without
    involution, whose structure map lands in the fixed-point model of V."""
    return side == "SO3" and key == 1


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
            _check_slot_index(n)
            want_d = is_torus_slot(side, n)
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
    is zero (``slot_differentials``).  ``__init__`` checks data from outside,
    a differential included (d squared zero, beta a chain map), and
    ``_assembled`` stores an object rebuilt here from checked ones.
    """

    __slots__ = ("side", "M", "V", "beta", "dM", "dV")

    def __init__(self, side, M: SlotFamily, V: QWSpace, beta, dM=None, dV=None):
        if M.side != side:
            raise SchemaError("slot family side mismatch")
        if (dM is None) != (dV is None):
            raise SchemaError("differential must cover both M and V")
        if dV is not None and (dV.domain != V or dV.codomain != V or dV.degree != -1):
            raise SchemaError("V differential has wrong type")
        self._store(side, M, V, beta, dM, dV, checked=True)
        if dV is None:
            return
        if not dV.compose(dV).is_zero():
            raise NotADifferential("d squared is not zero on V")
        for key in self.keys():
            ld = laurent_model_map(dV, self.slot_is_torus(key))
            if self.beta[key].compose(self.dM[key]) != ld.compose(self.beta[key]):
                raise NotADifferential("structure map is not a chain map")
        if any(not d.compose(d).is_zero() for d in self.dM.values()):
            raise NotADifferential("d squared is not zero")

    @staticmethod
    def _assembled(side, M: SlotFamily, V: QWSpace, beta: Slots, dM=None, dV=None):
        """An object rebuilt here from a checked one, not checked again; it is
        stored as by ``__init__``, so it equals the checked one on its data."""
        x = ToralObject.__new__(ToralObject)
        x._store(side, M, V, beta, dM, dV, checked=False)
        return x

    def _store(self, side, M, V, beta, dM, dV, checked):
        """A missing map is zero.  Checked, each map is checked against its
        type and a key M does not list is refused; else containers are kept."""
        self.side, self.M, self.V, self.dV = side, M, V, dV
        self.beta = Slots.fill(
            [M], beta, lambda key: (M[key], self.beta_codomain(key), 0), ModuleMap.zero,
            "structure map" if checked else None,
        )
        self.dM = None if dV is None else Slots.fill(
            [M], dM, lambda key: (M[key], M[key], -1), ModuleMap.zero,
            "differential" if checked else None,
        )

    def slot_is_torus(self, key):
        return is_torus_slot(self.side, key)

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
        return ToralObject._assembled(self.side, M, self.V, beta, dM, self.dV)

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


def _refuse_differential(what: str, *objects: ToralObject):
    """what reads the underlying object of A alone, and would drop dM and dV."""
    if any(x.has_differential() for x in objects):
        raise SchemaError(f"{what} takes objects without a differential; see homology and bracket")


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
            "morphism component", _check_slot_index,
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
            [other.alpha, self.alpha], lambda key: self.alpha[key].compose(other.alpha[key])
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
    ldom, _, pos = indexed_module(LAURENT_C, tagged)
    lcod, _, vpos = laurent_model(x.V, False)
    fdtags = laurent_model(x.V, True)[1]
    return ModuleMap(ldom, lcod, 0, _reindex_entries(b.entries, fdtags, vpos, pos))


def check_star(x: ToralObject, strict: bool = False) -> bool:
    """Does beta become a degreewise isomorphism after inverting Euler classes?

    The localized map is one of Laurent modules over Q[c], whose matrices in
    degrees g and g + 2 are the same, so the degrees -2 and -1 decide every
    degree of a slot.
    """
    for key in x.keys():
        lmap = _localized_beta(x, key)
        for g in (-2, -1):
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


# -- object constructions -----------------------------------------------------


def _unchanged(z):
    return z


def _transport(side: str, v: QWSpace, parts, dV=None) -> ToralObject:
    """The object over v rebuilt slot by slot from parts.

    Each part is (object, change, retag): change(s) is the new summand for a
    summand s of one of the object's slots, or None to drop it, and retag
    maps a basis tag of the object's V to its tag in v.  Every slot is built
    by ``indexed_module``, so its summands sort stably across the parts,
    and beta is re-indexed to follow them; so are the slot differentials
    when dV, the differential of v, is given.  The parts were checked where
    they entered, so the result is assembled unchecked.
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
        m, _, pos = indexed_module(rings.pop(), [(s, t) for s, t in tagged if s is not None])
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
    return ToralObject._assembled(side, M, v, beta, dM, dV)


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
    _refuse_differential("F", x)
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
    _refuse_differential("R", y)
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
        return indexed_module(mod.ring, [(_twisted(s), j) for j, s in enumerate(mod.summands)])[2]

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
    _refuse_differential("the parity split", x)
    even, odd = (
        _transport(x.side, x.V.parity_part(parity), [
            (x, lambda s, parity=parity: s if s.shift % 2 == parity else None, _unchanged),
        ])
        for parity in (0, 1)
    )
    return even, odd


# -- the graded hom space as an exact linear system ----------------------------


def _entry_allowed(dom: GradedModule, cod: GradedModule, degree: int, i: int, j: int):
    """The generator power of the single entry (i, j) of a degree-``degree``
    map, or None where no such monomial map exists or it lands past a
    torsion cut-off; read off ``graded._entry_rule`` without building a map
    or an error."""
    a = _entry_rule(dom, cod, degree, i, j)
    return None if a is None or isinstance(a, str) else a


def _by_column(entries) -> dict:
    """A map's entries grouped by column: j -> [(i, coef), ...]."""
    out = {}
    for (i, j), coef in entries.items():
        out.setdefault(j, []).append((i, coef))
    return out


def _by_row(entries) -> dict:
    """A map's entries grouped by row: i -> [(j, coef), ...]."""
    out = {}
    for (i, j), coef in entries.items():
        out.setdefault(i, []).append((j, coef))
    return out


class HomSpace:
    """All degree-t morphisms x -> y, as one exact linear system.

    The unknowns are the allowed monomial entries of the slot components,
    slot by slot, then the entries of the blocks of the V-component.  The
    constraints are the squares by o a == l o bx, one equation per entry
    (r, j) of a composite at a slot, read straight off the entries of the
    structure maps: the slot unknown a_ij has by's entries in column i in the
    equations (r, j), and a V unknown minus bx's entries in the row of its
    Laurent summand.  No map is built or composed: both sides land in a
    Laurent model of V, where no entry is cut off and each entry is one
    monomial, so a composite vanishes exactly when each of its entries does.

    ``dim`` is the number of unknowns minus the rank of the system, by
    forward elimination alone, and a system with no equations (f(J) and
    every object with V = 0 give none) runs no elimination.  No kernel
    basis is reduced: ``ext_A`` stacks its own rows under the system
    ``_system`` and ranks again.
    """

    def __init__(self, x: ToralObject, y: ToralObject, degree: int):
        if x.side != y.side:
            raise SchemaError("hom across sides")
        _refuse_differential("hom", x, y)
        self.x, self.y, self.degree = x, y, degree
        self.keys = Slots.keys_of([x.M, y.M])
        self.unknowns = []
        rows, entries = {}, {}
        for key in self.keys:
            dom, cod = x.M[key], y.M[key]
            by = _by_column(y.beta[key].entries)
            for i in range(len(cod.summands)):
                for j in range(len(dom.summands)):
                    if _entry_allowed(dom, cod, degree, i, j) is not None:
                        u = len(self.unknowns)
                        self.unknowns.append(("a", key, i, j))
                        for r, coef in by.get(i, ()):
                            entries[rows.setdefault((key, r, j), len(rows)), u] = coef
        v_labels = [
            ("v", g, s, iy, ix)
            for g in sorted(x.V.dims)
            for s in (1, -1)
            for ix in range(x.V.dim(g, s))
            for iy in range(y.V.dim(g + degree, s))
        ]
        first_v = len(self.unknowns)
        self.unknowns += v_labels
        for key in self.keys if v_labels else ():
            bx = _by_row(x.beta[key].entries)
            torus = x.slot_is_torus(key)
            lx_pos, ly_pos = laurent_model(x.V, torus)[2], laurent_model(y.V, torus)[2]
            for u, (_, g, s, iy, ix) in enumerate(v_labels, first_v):
                r = ly_pos[(g + degree, s, iy)]
                for j, coef in bx.get(lx_pos[(g, s, ix)], ()):
                    entries[rows.setdefault((key, r, j), len(rows)), u] = -coef
        self._system = QMatrix.from_entries(len(rows), len(self.unknowns), entries)
        self.dim = len(self.unknowns) - (self._system.rank() if rows else 0)


def hom_A(x: ToralObject, y: ToralObject, degrees) -> dict[int, int]:
    return {t: HomSpace(x, y, t).dim for t in degrees}


# -- injective resolutions and Ext ----------------------------------------------


@dataclass
class InjectiveResolution:
    x: ToralObject
    Y0: ToralObject
    include: ToralMorphism
    Y1: ToralObject
    # the projection of each Y0 slot onto the Y1 slot: a WindowMap with one
    # matrix per run of the window, read off beta's inverse on each residue
    # class and the I summands' top classes; a module map, so ext_A reads a
    # composite's entries off its columns at the generators' degrees
    quot: Slots
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
    structure map and f(I) has V = 0.  Each Y0 slot, the Laurent model of V
    plus the I slot, is one ``indexed_module`` call, whose positions place
    both Y0's structure map and the two blocks of the inclusion.

    The inclusion is block-diagonal at each slot, so J is coker beta on the
    non-torsion summands N plus coker psi.  coker psi is read off: each I
    summand leaves its top pad classes, a torsion summand of length pad, and
    projects onto it by 1 on the powers below pad.  coker beta is read off
    too, and no window is walked: beta localizes to an isomorphism, so it is
    L^{-1}N/N = L^{-1}F/F, one copy of Q[c]^∨ above each free summand
    (shift s, sign sigma).  Only the window's top truncates that copy: it
    ends at the highest degree top <= the widened window's top that is
    congruent to s, so it has length (top - s) / step and sign
    sigma * (-1)^length over Q[c], sigma over Q[d].  Its class at degree t
    is c^((s - t) / step) times the free generator.  So the projection at t
    is the rows of A^{-1} that belong to free summands of shift below t,
    where A is beta on the non-torsion summands of t's residue class,
    localized: square and invertible by the strict star check, and
    inverted once per class.  The matrices repeat with period step, so the
    projection is a module map.  Exactness is checked on the window.
    """
    _refuse_differential("an injective resolution", x)
    check_star(x, strict=True)
    side = x.side

    def stage(key):
        # (the inclusion, the Y0 slot and its structure map, the J slot and
        # the projection onto it) at the slot
        m, b = x.M[key], x.beta[key]
        ring, step, emod = m.ring, m.ring.step, b.codomain
        pad = 2 * m.max_torsion() + 1
        sign = (-1) ** pad if ring.flip else 1
        imod, itags, _ = indexed_module(ring, [
            (Summand(TORSION, s.shift + step * pad, s.sign * sign, s.length + pad), j)
            for j, s in enumerate(m.summands)
            if s.kind == TORSION
        ])
        y0, _, pos = indexed_module(
            ring,
            [(s, (0, i)) for i, s in enumerate(emod.summands)]
            + [(s, (1, i)) for i, s in enumerate(imod.summands)],
        )
        y0_beta = ModuleMap(
            y0, emod, 0, {(i, pos[(0, i)]): Q(1) for i in range(len(emod.summands))}
        )
        ent = {(pos[(0, i)], j): coef for (i, j), coef in b.entries.items()}
        ent.update({(pos[(1, i)], j): Q(1) for i, j in enumerate(itags)})
        win = auto_window(window, [m, y0])
        # coker beta on the non-torsion summands is L^{-1}F/F: above each free
        # summand one torsion summand, cut off at the window top of its class
        above = []
        for j, s in enumerate(m.summands):
            if s.kind == FREE:
                top = win[1] - (win[1] - s.shift) % step
                n = (top - s.shift) // step
                if n > 0:
                    sgn = s.sign * (-1) ** n if ring.flip else s.sign
                    above.append((Summand(TORSION, top, sgn, n), (0, j)))
        J, jtags, _ = indexed_module(
            ring,
            above + [(Summand(TORSION, s.shift, s.sign, pad), (1, i))
                     for i, s in enumerate(imod.summands)],
        )
        # inv[j][i]: entry (j, i) of the inverse of beta on the non-torsion
        # summands of one residue class, localized, which the strict star
        # check makes square and invertible; one inverse per class
        inv = {}
        for r in sorted({m.summands[j].shift % step for _, (_, j) in above}):
            nj = [j for j, s in enumerate(m.summands) if s.kind != TORSION and s.shift % step == r]
            ei = [i for i, s in enumerate(emod.summands) if s.shift % step == r]
            at_n, at_e = {j: k for k, j in enumerate(nj)}, {i: k for k, i in enumerate(ei)}
            a_r = QMatrix.from_entries(len(ei), len(nj), {
                (at_e[i], at_n[j]): coef for (i, j), coef in b.entries.items() if j in at_n
            })
            for k, c, coef in a_r.inverse().entries():
                inv.setdefault(nj[k], {})[ei[c]] = coef
        # one projection matrix per run: a J row over free summand j reads row
        # j of the inverse, a J row over an I summand its power there
        mats = {}
        for t, n in degree_runs(win, step, [(y0, 0), (J, 0), (m, 0)]).items():
            rows = J.basis(t)
            if not rows:
                continue
            cols = y0.basis(t)
            col = {e: c for c, e in enumerate(cols)}
            proj = {}
            for r, (k, a) in enumerate(rows):
                part, j = jtags[k]
                if part:
                    proj[(r, col[(pos[(1, j)], a)])] = Q(1)
                else:
                    for i, coef in inv[j].items():
                        proj[(r, col[(pos[(0, i)], emod.power_at(i, t))])] = coef
            mat = QMatrix.from_entries(len(rows), len(cols), proj)
            for k in range(n):
                mats[t - k * step] = mat
        return ModuleMap(m, y0, 0, ent), y0, y0_beta, J, WindowMap(y0, J, 0, win, mats)

    alpha, y0_slots, y0_beta, J_slots, quot = Slots.over([x.M], stage).unzip()
    Y0 = ToralObject(side, SlotFamily(side, y0_slots.explicit, y0_slots.tail), x.V, y0_beta)
    include = ToralMorphism(x, Y0, 0, alpha, VMap.identity(x.V))
    Y1 = make_fN(SlotFamily(side, J_slots.explicit, J_slots.tail))
    res = InjectiveResolution(x, Y0, include, Y1, quot, window)
    if not res.check_exact():
        raise InvariantError("resolution is not exact on the window")
    return res


def _post_composition(h0: HomSpace, quot: Slots) -> tuple[dict, dict]:
    """Post-composition with the projections onto Y1, one row {unknown:
    coef} over Hom(x, Y0) per composite entry (key, r, j): (the rows the
    entry rule allows, the refused ones with the rule's reason).

    A composite is a module map, so its entry (r, j) is the coordinate on J
    summand r of the image of x_j's generator: a_ij puts there the column of
    the projection at that degree, at Y0's basis element of summand i.  The
    V unknowns come last and put nothing: Y1 has V = 0.
    """
    t = h0.degree
    allowed, refused = {}, {}
    for u, label in enumerate(h0.unknowns):
        if label[0] != "a":
            break
        _, key, i, j = label
        dom, q = h0.x.M[key], quot[key]
        g = dom.summands[j].shift + t
        column = q.evaluate(g).col(q.domain.basis(g).index((i, q.domain.power_at(i, g))))
        for (r, _), coef in zip(q.codomain.basis(g), column):
            if coef:
                # r is alive at g, so the rule gives its power or a refusal
                rule = _entry_rule(dom, q.codomain, t, r, j)
                if isinstance(rule, str):
                    refused.setdefault((key, r, j), (rule, {}))[1][u] = coef
                else:
                    allowed.setdefault((key, r, j), {})[u] = coef
    return allowed, refused


def ext_A(
    x: ToralObject, y: ToralObject, degrees, window=(-12, 12)
) -> dict[int, tuple[int, int]]:
    """Degreewise hom and Ext of x against y via a length-one resolution.

    The resolution's window is widened to reach every generator of x and its
    image in each degree.  Hom and Ext are the kernel and cokernel of
    post-composition Hom(x, Y0) -> Hom(x, Y1), so only its rank is needed:
    rank [E0; C] - rank E0, with E0 the equations of Hom(x, Y0) and C the
    rows of post-composition over its unknowns.  Hom(x, Y1) has no
    equations (Y1 has V = 0), so its unknowns are its coordinates.  A
    composite entry that no map may carry (a Laurent summand of x into a
    torsion summand of J) is refused where some morphism x -> Y0 reaches
    it, and dropped where none does.
    """
    _refuse_differential("ext", x, y)
    degrees = list(degrees)
    shifts = [s.shift for m in x.all_modules() for s in m.summands]
    reach = shifts + [g + t for g in shifts for t in degrees]
    res = injective_resolution(y, (min([window[0], *reach]), max([window[1], *reach])))
    out = {}
    for t in degrees:
        h0, h1 = HomSpace(x, res.Y0, t), HomSpace(x, res.Y1, t)
        e0, rank0 = h0._system, len(h0.unknowns) - h0.dim

        def gain(rows):
            # rank [E0; rows] - rank E0
            ent = {(r, c): coef for r, c, coef in e0.entries()}
            for k, row in enumerate(rows, e0.rows):
                ent.update({(k, u): coef for u, coef in row.items()})
            return QMatrix.from_entries(e0.rows + len(rows), e0.cols, ent).rank() - rank0

        allowed, refused = _post_composition(h0, res.quot) if h0.dim else ({}, {})
        if refused and gain([row for _, row in refused.values()]):
            # some morphism reaches a refused entry, so some entry alone is
            # reached: refuse the first such
            for (_, r, j), (reason, row) in refused.items():
                if gain([row]):
                    raise _refusal(reason, r, j, t)
        rank = gain(list(allowed.values())) if allowed else 0
        out[t] = (h0.dim - rank, h1.dim - rank)
    return out


# -- homology of a differential --------------------------------------------------


def homology_dA(x: ToralObject, window=None) -> ToralObject:
    """Homology of an object with differential, as a plain object; its
    differential was checked where the object was built."""
    if not x.has_differential():
        return x
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
            for i, coef in vector_entries(hmod, g, out_vec).items():
                ent[(i, k)] = coef
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
    ent = {(i, 0): coef for i, coef in vector_entries(x.M[key], degree, vector).items()}
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
    # the window must reach the covered degree, so a negative m0 adds no pad
    m0 = max(A[tag] - minexp[tag] for tag in minexp)
    pad = 2 * max(m0, 0) + m_slot.ring.step * (m_slot.max_torsion() + 6) + 16
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
        for i, coef in vector_entries(L, g, r.vector).items():
            beta_ent[(i, ks)] = coef
        span_mat, img_mat = img_cols[g]
        lam = span_mat.solve(r.vector)
        if lam is None:
            raise InvariantError("canonical generator escapes the span")
        target = img_mat.apply(lam)
        for i, coef in vector_entries(m_slot, g, target).items():
            alpha_ent[(i, ks)] = coef
    # the other slots: free on the Euler generators
    tagged = [
        (Summand(FREE, tag[0] - 2 * A[tag], 1), tag) for tag in tags
    ]
    S_other, _, spos = indexed_module(POLY_C, tagged)
    lmod_c, _, lpos_c = laurent_model(x.V, False)
    free_beta = ModuleMap(
        S_other, lmod_c, 0, {(lpos_c[tag], spos[tag]): Q(1) for tag in tags}
    )
    # P is free on the Euler generators at every slot but the covered one;
    # when that is the tail, x's explicit slots are listed to stay free
    slots, beta = Slots({}, S_other), Slots({}, free_beta)
    spos_d = spos
    if side == "SO3":
        S_one, _, spos_d = indexed_module(POLY_D, tagged)
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
            for i, coef in vector_entries(m2, tag[0] - 2 * A[tag], img).items():
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
