"""Germ-module objects over the dihedral family.

An object holds a plain graded Q-space at infinity, one graded Q[W]-space
per index k > 2 (finitely many explicit, the rest following one tail
template), and a germ map from infinity into the tail of the sequence.
The spaces and maps are ``qw``'s graded Q[W]-spaces, shared with the toral
model (this module imports neither ``toral`` nor ``graded``); each V-map
built here is a ``qw.block_vmap`` or a fixed part.  The spaces, germ maps,
slot differentials and morphism components are each held by ``qw.Slots``,
the one container that reads an unlisted slot's tail; this module adds only
its index rule, k > 2 (``_check_index``).
Morphisms carry one map per slot and are constrained only through the
germ, that is, at the tail template.  The module provides the three
adjoint pairs around the slot projections and the constant functor,
levelwise homology, and the weak-equivalence and fibration predicates
of the projective structure.

Each law is checked once, where data enters: ``DihedralObject.__init__``
checks the types, the trivial action at infinity, d² = 0 at infinity and at
every slot and the germ as a chain map at the tail; ``QWComplex.__init__``
checks d² = 0; ``DihedralMorphism.__init__`` checks the component types and
that the germ square commutes at the tail.  The constructions here build
their results with ``_assembled``, unchecked, as they are objects or
morphisms when their parts are: levels, fixed parts, normal forms, sums and
suspensions of complexes are complexes, the slot and constant functors add
a zero or identity germ, homology has zero differentials, the cone of a
degree-0 chain map is one, and identities, composites and the units and
counits of the slot and constant adjunctions commute with the germs.  Being
a chain map is not a law of a morphism (an object meets the germ's
differential only at the tail, so even the counit of the constant
adjunction need not be one): ``cone`` tests its argument, except an
identity, which is a chain map and a weak equivalence by theorem, as
``is_weak_equivalence`` answers it without a rank.  So ``homology_Ch`` and
``is_weak_equivalence`` trust their input; a call of ``homology_Ch``
computes the homology of each distinct pair of level objects once and keeps
none, builds bases only for the sign-+ parts in the degrees of a germ
block, and ``is_weak_equivalence`` computes none.
"""

from __future__ import annotations

from .errors import (
    BadIndex,
    InvariantError,
    NotADifferential,
    NotAMorphism,
    SchemaError,
)
from .linalg import Q, QMatrix, is_quasi_isomorphism
from .qw import TAIL, QWSpace, Slots, VMap, block_vmap, qw_homology, qw_sum, vmap_sum


# -- chain complexes of Q[W]-spaces -------------------------------------------


class QWComplex:
    """A bounded chain complex of Q[W]-spaces: a space and a differential."""

    __slots__ = ("space", "d")

    def __init__(self, space: QWSpace, d: VMap | None = None):
        self._store(space, d)
        if self.d.domain != space or self.d.codomain != space or self.d.degree != -1:
            raise SchemaError("differential has the wrong type")
        self.check_differential()

    @staticmethod
    def _assembled(space: QWSpace, d: VMap) -> "QWComplex":
        """A complex made of levels of checked objects, not checked again."""
        c = QWComplex.__new__(QWComplex)
        c._store(space, d)
        return c

    def _store(self, space, d):
        self.space = space
        self.d = VMap.zero(space, space, -1) if d is None else d

    def is_zero(self) -> bool:
        return self.space.is_zero()

    def check_differential(self):
        if not self.d.compose(self.d).is_zero():
            raise NotADifferential("d squared is not zero")

    def __eq__(self, other):
        return (
            isinstance(other, QWComplex)
            and self.space == other.space
            and self.d == other.d
        )

    def homology(self) -> "QWComplex":
        return QWComplex(qw_homology(self.space, self.d)[0])


# -- objects ---------------------------------------------------------------------


class DihedralObject:
    """A germ-module object, levelwise a chain complex."""

    __slots__ = ("m_inf", "slots", "germ", "d_inf", "d_slots")

    def __init__(self, m_inf: QWSpace, slots: Slots, germ,
                 d_inf: VMap | None = None, d_slots=None):
        for k in slots.explicit:
            _check_index(k)
        if m_inf.fixed() != m_inf:
            raise InvariantError("the action at infinity must be trivial")
        self._store(m_inf, slots, germ, d_inf, d_slots, checked=True)
        if (self.d_inf.domain, self.d_inf.codomain, self.d_inf.degree) != (m_inf, m_inf, -1):
            raise SchemaError("differential at infinity has wrong type")
        self.check_differential()

    @staticmethod
    def _assembled(m_inf: QWSpace, slots: Slots, germ,
                   d_inf: VMap | None = None, d_slots=None):
        """An object built here from checked parts, not checked again; it is
        stored as by ``__init__``, so it equals the checked one on its data."""
        x = DihedralObject.__new__(DihedralObject)
        x._store(m_inf, slots, germ, d_inf, d_slots, checked=False)
        return x

    def _store(self, m_inf, slots, germ, d_inf, d_slots, checked):
        """A missing germ map or differential is zero; a key that slots do not
        list is refused.  Unless checked, containers are taken as built: over
        the keys of slots, and a dict's other keys are dropped."""
        self.m_inf = m_inf
        self.slots = slots
        self.d_inf = VMap.zero(m_inf, m_inf, -1) if d_inf is None else d_inf
        self.germ = Slots.fill(
            [slots], germ, lambda key: (m_inf, slots[key], 0), VMap.zero,
            "germ map" if checked else None,
        )
        self.d_slots = Slots.fill(
            [slots], {} if d_slots is None else d_slots,
            lambda key: (slots[key], slots[key], -1), VMap.zero,
            "differential" if checked else None,
        )

    def keys(self):
        return self.slots.keys()

    def slot(self, key) -> QWSpace:
        return self.slots[key]

    def d_slot(self, key) -> VMap:
        return self.d_slots[key]

    def level(self, key) -> QWComplex:
        return QWComplex._assembled(self.slot(key), self.d_slot(key))

    def level_inf(self) -> QWComplex:
        return QWComplex._assembled(self.m_inf, self.d_inf)

    def is_zero(self) -> bool:
        return self.m_inf.is_zero() and all(m.is_zero() for m in self.slots.values())

    def normalized(self) -> "DihedralObject":
        """Drop explicit slots that duplicate the tail template."""
        slots, germ, d_slots = Slots.normal_forms(self.slots, self.germ, self.d_slots)
        return DihedralObject._assembled(self.m_inf, slots, germ, self.d_inf, d_slots)

    def __eq__(self, other):
        return isinstance(other, DihedralObject) and (
            self.m_inf, self.slots, self.germ, self.d_inf, self.d_slots
        ) == (other.m_inf, other.slots, other.germ, other.d_inf, other.d_slots)

    def check_differential(self):
        """d squared vanishes levelwise; the germ map is a chain map.

        The germ only remembers the tail of a sequence, so commutation with
        the differential is a condition at the tail template alone.
        """
        if not self.d_inf.compose(self.d_inf).is_zero():
            raise NotADifferential("d squared is not zero at infinity")
        for key in self.keys():
            d = self.d_slot(key)
            if not d.compose(d).is_zero():
                raise NotADifferential(f"d squared is not zero at slot {key!r}")
        d = self.d_slots[TAIL]
        if d.compose(self.germ[TAIL]) != self.germ[TAIL].compose(self.d_inf):
            raise NotADifferential("germ map is not a chain map")


def zero_dihedral() -> DihedralObject:
    return DihedralObject._assembled(QWSpace.zero(), Slots({}, QWSpace.zero()), {})


# -- morphisms --------------------------------------------------------------------


class DihedralMorphism:
    """A degree-t map: one component per slot, constrained through the germ
    (the square with the germs commutes at the tail)."""

    __slots__ = ("x", "y", "degree", "f_inf", "f_slots")

    def __init__(self, x: DihedralObject, y: DihedralObject, degree: int,
                 f_inf: VMap, f_slots: dict):
        if f_inf.domain != x.m_inf or f_inf.codomain != y.m_inf or f_inf.degree != degree:
            raise SchemaError("component at infinity has wrong type")
        self._store(x, y, degree, f_inf, f_slots, checked=True)
        if not self.is_valid():
            raise NotAMorphism("the germ square does not commute at the tail")

    @staticmethod
    def _assembled(x: DihedralObject, y: DihedralObject, degree: int,
                   f_inf: VMap, f_slots) -> "DihedralMorphism":
        """A morphism built here whose germ square commutes by construction,
        not checked again; it is stored as by ``__init__``."""
        f = DihedralMorphism.__new__(DihedralMorphism)
        f._store(x, y, degree, f_inf, f_slots, checked=False)
        return f

    def _store(self, x, y, degree, f_inf, f_slots, checked):
        """A missing component is zero; unless checked, a component is taken
        as built and a Slots container as it is."""
        self.x, self.y, self.degree, self.f_inf = x, y, degree, f_inf
        self.f_slots = Slots.fill(
            [x.slots, y.slots], f_slots, lambda key: (x.slot(key), y.slot(key), degree),
            VMap.zero, "component" if checked else None, _check_index,
        )

    @staticmethod
    def identity(x: DihedralObject) -> "DihedralMorphism":
        return DihedralMorphism._assembled(
            x, x, 0, VMap.identity(x.m_inf), x.slots.map(VMap.identity),
        )

    def compose(self, other: "DihedralMorphism") -> "DihedralMorphism":
        """self after other."""
        if other.y is not self.x and other.y != self.x:
            raise SchemaError("composition mismatch")
        return DihedralMorphism._assembled(
            other.x, self.y, self.degree + other.degree,
            self.f_inf.compose(other.f_inf),
            Slots.over(
                [other.f_slots, self.f_slots],
                lambda k: self.f_slots[k].compose(other.f_slots[k]),
            ),
        )

    def __eq__(self, other):
        return isinstance(other, DihedralMorphism) and (
            self.x, self.y, self.degree, self.f_inf, self.f_slots
        ) == (other.x, other.y, other.degree, other.f_inf, other.f_slots)

    def is_valid(self) -> bool:
        """The defining square commutes at the tail template."""
        lhs = self.f_slots[TAIL].compose(self.x.germ[TAIL])
        rhs = self.y.germ[TAIL].compose(self.f_inf)
        return lhs == rhs

    def is_identity(self) -> bool:
        """The identity of its object, component by component: a chain map
        and an isomorphism by theorem."""
        return (
            self.degree == 0
            and self.x is self.y
            and self.f_inf.is_identity()
            and all(comp.is_identity() for comp in self.f_slots.values())
        )

    def is_chain_map(self) -> bool:
        if self.y.d_inf.compose(self.f_inf) != self.f_inf.compose(self.x.d_inf):
            return False
        return all(
            self.y.d_slot(key).compose(f) == f.compose(self.x.d_slot(key))
            for key, f in self.f_slots.items()
        )


# -- the functors -----------------------------------------------------------------


def _check_index(k: int):
    if not (isinstance(k, int) and k > 2):
        raise BadIndex(f"slot index {k!r}: indices start at 3")


def functor_i_k(x: QWComplex, k: int) -> DihedralObject:
    """Inclusion at one slot: zero at infinity and everywhere else."""
    _check_index(k)
    return DihedralObject._assembled(
        QWSpace.zero(),
        Slots({k: x.space}, QWSpace.zero()),
        {},
        None,
        {k: x.d},
    )


def functor_p_k(m: DihedralObject, k: int) -> QWComplex:
    """The slot projection."""
    _check_index(k)
    return m.level(k)


def functor_const(a: QWComplex) -> DihedralObject:
    """The constant object: the same complex at infinity and at every slot."""
    if a.space.fixed() != a.space:
        raise SchemaError("the constant functor consumes trivial-action complexes")
    return DihedralObject._assembled(
        a.space,
        Slots({}, a.space),
        {TAIL: VMap.identity(a.space)},
        a.d,
        {TAIL: a.d},
    )


def germ_fixed_points(m: DihedralObject) -> QWComplex:
    """Right adjoint of the constant functor.

    A map out of a trivial-action complex is a map into the infinity level
    together with one fixed-vector correction per explicit slot; the tail
    component is forced through the germ.  The value is therefore the
    infinity level extended by the fixed part of each explicit slot of the
    normal form.
    """
    return _germ_fixed_points_of_normal(m.normalized())


def _germ_fixed_points_of_normal(n: DihedralObject) -> QWComplex:
    """``germ_fixed_points`` of an object already in normal form."""
    # a slot differential is equivariant, so it restricts to the fixed part
    diffs = [n.d_inf] + [n.d_slot(k).fixed() for k in sorted(n.slots.explicit)]
    total = qw_sum(*(d.domain for d in diffs))
    return QWComplex._assembled(total, vmap_sum(total, total, diffs))


def map_germ_fixed_points(f: DihedralMorphism) -> VMap:
    """The induced map on germ fixed points.

    Defined whenever the corrections of the source land in explicit slots
    of the target; in particular on the counit of the adjunction.
    """
    nx, ny = f.x.normalized(), f.y.normalized()
    x_keys, y_keys = sorted(nx.slots.explicit), sorted(ny.slots.explicit)
    # the infinity coordinates: f at infinity, and the deviation of f at each
    # explicit target slot, applied to the template value of the source
    # coordinates at infinity
    pieces = {(0, 0): (f.f_inf, 0)} | {
        (i, 0): (f.f_slots[k].compose(nx.germ[k]) + f.y.germ[k].compose(f.f_inf).scale(-1), 0)
        for i, k in enumerate(y_keys, 1)
    }
    # the correction coordinates
    for j, k in enumerate(x_keys, 1):
        comp = f.f_slots[k].fixed()
        if not comp.is_zero():
            if k not in y_keys:
                raise InvariantError("correction escapes the explicit slots of the target")
            pieces[(1 + y_keys.index(k), j)] = (comp, 0)
    # the coordinates of the germ fixed points of x and of y
    doms = [nx.m_inf] + [nx.slot(k).fixed() for k in x_keys]
    cods = [ny.m_inf] + [ny.slot(k).fixed() for k in y_keys]
    return block_vmap(qw_sum(*doms), qw_sum(*cods), f.degree, doms, cods, pieces)


# -- the three adjunctions ----------------------------------------------------------


def unit_i_p(x: QWComplex, k: int) -> VMap:
    """X -> p_k(i_k(X)) is the identity."""
    _check_index(k)
    return VMap.identity(x.space)


def counit_i_p(m: DihedralObject, k: int) -> DihedralMorphism:
    """i_k(p_k(M)) -> M: the identity at slot k, zero elsewhere."""
    src = functor_i_k(m.level(k), k)
    return DihedralMorphism._assembled(
        src, m, 0, VMap.zero(src.m_inf, m.m_inf, 0),
        {k: VMap.identity(m.slot(k))},
    )


def unit_p_i(m: DihedralObject, k: int) -> DihedralMorphism:
    """M -> i_k(p_k(M)): the identity at slot k, zero elsewhere."""
    dst = functor_i_k(m.level(k), k)
    return DihedralMorphism._assembled(
        m, dst, 0, VMap.zero(m.m_inf, dst.m_inf, 0),
        {k: VMap.identity(m.slot(k))},
    )


def counit_p_i(x: QWComplex, k: int) -> VMap:
    """p_k(i_k(X)) -> X is the identity."""
    _check_index(k)
    return VMap.identity(x.space)


def unit_const(a: QWComplex) -> VMap:
    """A -> germ_fixed_points(c(A)) is the identity."""
    target = germ_fixed_points(functor_const(a))
    if target.space != a.space:
        raise InvariantError("constant object has a non-trivial fixed germ")
    return VMap.identity(a.space)


def counit_const(m: DihedralObject) -> DihedralMorphism:
    """c(germ_fixed_points(M)) -> M: evaluate the germ and the corrections."""
    n = m.normalized()
    gm = _germ_fixed_points_of_normal(n)
    keys = sorted(n.slots.explicit)
    # the coordinates of gm: infinity, then the fixed part of each explicit slot
    coords = [n.m_inf] + [n.slot(k).fixed() for k in keys]
    proj = block_vmap(gm.space, n.m_inf, 0, coords, [n.m_inf], {(0, 0): (VMap.identity(n.m_inf), 0)})
    f_slots = {TAIL: n.germ[TAIL].compose(proj)}
    for i, k in enumerate(keys, 1):
        # the germ on the infinity coordinates plus the slot's own correction,
        # the inclusion of its fixed part
        f_slots[k] = block_vmap(gm.space, n.slot(k), 0, coords, [n.slot(k)], {
            (0, 0): (n.germ[k], 0), (0, i): (VMap.identity(coords[i]), 0),
        })
    return DihedralMorphism._assembled(functor_const(gm), n, 0, proj, f_slots)


# -- homology and the projective structure --------------------------------------------


def homology_Ch(m: DihedralObject) -> DihedralObject:
    """Levelwise homology, with the induced germ map; m holds its levels, so
    no id is reused and each distinct pair (space, d) is computed once."""
    memo = {}

    def homology(space, d):
        key = (id(space), id(d))
        if key not in memo:
            memo[key] = qw_homology(space, d)
        return memo[key]

    h_inf, hinf_data = homology(m.m_inf, m.d_inf)
    reps = hinf_data[1][1]

    def level(key):
        # (the homology at the slot, the induced germ map: the germ has
        # degree 0, and the action at infinity is trivial)
        space, data = homology(m.slot(key), m.d_slot(key))
        projs = data[1][2]
        blocks = {
            (g, 1): projs[g](m.germ[key].block(g, 1) @ reps[g])
            for g in h_inf.dims if h_inf.dim(g, 1) and space.dim(g, 1)
        }
        return space, VMap._assembled(h_inf, space, 0, blocks)

    slots, germ = Slots.over([m.slots], level).unzip()
    return DihedralObject._assembled(h_inf, slots, germ)


def _levels(f: DihedralMorphism):
    """((space, d) of the source, (space, d) of the target, component) at
    infinity, at each explicit slot and at the tail, in a fixed order: the
    predicates stop at the first failing level."""
    x, y = f.x, f.y
    return [((x.m_inf, x.d_inf), (y.m_inf, y.d_inf), f.f_inf)] + [
        ((x.slot(k), x.d_slot(k)), (y.slot(k), y.d_slot(k)), comp)
        for k, comp in f.f_slots.items()
    ]


def is_weak_equivalence(f: DihedralMorphism) -> bool:
    """An identity, which is an isomorphism and so a weak equivalence by
    axiom, or a chain map that is a quasi-isomorphism on each sign part at
    infinity, at every explicit slot, and at the tail."""
    return f.is_identity() or f.is_chain_map() and all(
        is_quasi_isomorphism(sx.part(s), dx.part(s), sy.part(s), dy.part(s), comp.part(s), f.degree)
        for (sx, dx), (sy, dy), comp in _levels(f)
        for s in (1, -1)
    )


def is_fibration(f: DihedralMorphism) -> bool:
    """Levelwise surjective at infinity, every explicit slot, and the tail."""
    for _lx, (sy, _dy), comp in _levels(f):
        for g, (p, mi) in sy.dims.items():
            for s, want in ((1, p), (-1, mi)):
                if want and comp.block(g - f.degree, s).rank() != want:
                    return False
    return True


# -- generators and small constructions ------------------------------------------------


def make_generator_dihedral(tag) -> DihedralObject:
    """The projective generators: a regular-module slot or the constants."""
    if tag == "const":
        return functor_const(QWComplex(QWSpace({0: (1, 0)})))
    _check_index(tag)
    return functor_i_k(QWComplex(QWSpace({0: (1, 1)})), tag)


def _summed_levels(a: DihedralObject, b: DihedralObject, diff):
    """The space at infinity of a + b, and its slot spaces, germ maps and
    slot differentials: the spaces and germ maps are the sums of a's and
    b's, and diff(key, space) is the differential on the slot's space."""
    m_inf = qw_sum(a.m_inf, b.m_inf)

    def level(key):
        space = qw_sum(a.slot(key), b.slot(key))
        return space, vmap_sum(m_inf, space, [a.germ[key], b.germ[key]]), diff(key, space)

    return (m_inf, *Slots.over([a.slots, b.slots], level).unzip())


def direct_sum_dihedral(a: DihedralObject, b: DihedralObject) -> DihedralObject:
    m_inf, slots, germ, d_slots = _summed_levels(
        a, b, lambda key, space: vmap_sum(space, space, [a.d_slot(key), b.d_slot(key)])
    )
    d_inf = vmap_sum(m_inf, m_inf, [a.d_inf, b.d_inf])
    return DihedralObject._assembled(m_inf, slots, germ, d_inf, d_slots)


def suspend_dihedral(m: DihedralObject, k: int) -> DihedralObject:
    return DihedralObject._assembled(
        m.m_inf.suspend(k), m.slots.map(lambda s: s.suspend(k)),
        m.germ.map(lambda g: g.suspend(k)),
        m.d_inf.suspend(k), m.d_slots.map(lambda d: d.suspend(k)),
    )


def cone(f: DihedralMorphism) -> DihedralObject:
    """The mapping cone of a degree-0 chain map: an identity is one, and any
    other morphism is tested."""
    if f.degree != 0 or not (f.is_identity() or f.is_chain_map()):
        raise SchemaError("cones need degree-0 chain maps")
    sx = suspend_dihedral(f.x, 1)
    m_inf, slots, germ, d_slots = _summed_levels(sx, f.y, lambda key, space: _cone_diff(
        space, sx.slot(key), f.y.slot(key), sx.d_slot(key), f.y.d_slot(key), f.f_slots[key]
    ))
    d_inf = _cone_diff(m_inf, sx.m_inf, f.y.m_inf, sx.d_inf, f.y.d_inf, f.f_inf)
    return DihedralObject._assembled(m_inf, slots, germ, d_inf, d_slots)


def _cone_diff(dom: QWSpace, sa: QWSpace, sb: QWSpace, da: VMap, db: VMap, comp: VMap) -> VMap:
    """The differential [[-da, 0], [comp, db]] on dom = sa + sb; comp has
    degree 0, so out of the suspension sa it lowers the degree by one."""
    return block_vmap(dom, dom, -1, [sa, sb], [sa, sb],
                      {(0, 0): (da.scale(-1), 0), (1, 0): (comp, -1), (1, 1): (db, 0)})


# -- graded morphism dimensions ----------------------------------------------------


def hom_dihedral(x: DihedralObject, y: DihedralObject, degrees) -> dict[int, int]:
    """Degreewise dimension of the graded morphism space.

    Unknowns: the map at infinity, one map per explicit slot of either
    normal form, and the tail template; the only linear constraint ties the
    tail template to the map at infinity through the germ.
    """
    x, y = x.normalized(), y.normalized()
    out = {}
    keys = Slots.keys_of([x.slots, y.slots])
    for t in degrees:
        unknowns = []
        index = {}

        def add(u):
            index[u] = len(unknowns)
            unknowns.append(u)

        for g, (p, _m) in sorted(x.m_inf.dims.items()):
            for iy in range(y.m_inf.dim(g + t, 1)):
                for ix in range(p):
                    add(("inf", g, iy, ix))
        for key in keys:
            dom, cod = x.slot(key), y.slot(key)
            for g in dom.dims:
                for s in (1, -1):
                    for iy in range(cod.dim(g + t, s)):
                        for ix in range(dom.dim(g, s)):
                            add((key, g, s, iy, ix))
        rows = []
        gx, gy = x.germ[TAIL], y.germ[TAIL]
        for g, (p, _m) in sorted(x.m_inf.dims.items()):
            bx = gx.block(g, 1)
            by = gy.block(g + t, 1)
            for r in range(y.slots.tail.dim(g + t, 1)):
                for jx in range(p):
                    row = {}
                    for mid in range(x.slots.tail.dim(g, 1)):
                        coef = bx[mid, jx]
                        if coef:
                            u = index.get((TAIL, g, 1, r, mid))
                            if u is not None:
                                row[u] = row.get(u, Q(0)) + coef
                    for mid in range(y.m_inf.dim(g + t, 1)):
                        coef = by[r, mid]
                        if coef:
                            u = index[("inf", g, mid, jx)]
                            row[u] = row.get(u, Q(0)) - coef
                    if row:
                        rows.append(row)
        n = len(unknowns)
        if not n:
            out[t] = 0
            continue
        mat = QMatrix(
            len(rows), n, [[row.get(u, Q(0)) for u in range(n)] for row in rows]
        )
        out[t] = n - mat.rank()
    return out
