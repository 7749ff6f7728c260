"""The germ fixed points, their induced maps and the counit of the constant
adjunction as ``dihedral`` built them by hand, before its V-maps went through
``qw.block_vmap`` and the fixed parts ``QWSpace.fixed`` and ``VMap.fixed``:
kept verbatim, apart from their names, as the oracles of those routes.

Each hand loop places the sign-+ blocks of its maps per degree with
``linalg.block_matrix`` and builds the checked ``VMap(...)``.
"""

from so3alg.dihedral import DihedralMorphism, DihedralObject, QWComplex, functor_const
from so3alg.errors import InvariantError
from so3alg.linalg import QMatrix, block_matrix
from so3alg.qw import TAIL, QWSpace, VMap, qw_sum, vmap_sum


def hand_germ_fixed_points(m: DihedralObject) -> QWComplex:
    """Right adjoint of the constant functor.

    A map out of a trivial-action complex is a map into the infinity level
    together with one fixed-vector correction per explicit slot; the tail
    component is forced through the germ.  The value is therefore the
    infinity level extended by the fixed part of each explicit slot of the
    normal form.
    """
    n = m.normalized()
    total, diffs = n.m_inf, [n.d_inf]
    for k in sorted(n.slots.explicit):
        fixed = QWSpace({g: (p, 0) for g, (p, _m) in n.slot(k).dims.items()})
        # the slot differential is equivariant, so it restricts to the
        # fixed part: its (g, +) blocks
        d = n.d_slot(k)
        blocks = {(g, 1): mat for (g, s), mat in d.blocks.items() if s == 1}
        diffs.append(VMap(fixed, fixed, -1, blocks))
        total = qw_sum(total, fixed)
    return QWComplex._assembled(total, vmap_sum(total, total, diffs))


def hand_map_germ_fixed_points(f: DihedralMorphism) -> VMap:
    """The induced map on germ fixed points.

    Defined whenever the corrections of the source land in explicit slots
    of the target; in particular on the counit of the adjunction.
    """
    nx, ny = f.x.normalized(), f.y.normalized()
    gx, gy = hand_germ_fixed_points(f.x), hand_germ_fixed_points(f.y)
    x_keys = sorted(nx.slots.explicit)
    y_keys = sorted(ny.slots.explicit)
    y_index = {k: 1 + i for i, k in enumerate(y_keys)}
    # the deviation of f at each explicit target slot, applied to the
    # template value of the source coordinates at infinity
    devs = [
        f.f_slots[k].compose(nx.germ[k]) + f.y.germ[k].compose(f.f_inf).scale(-1)
        for k in y_keys
    ]
    blocks = {}
    for g in gx.space.dims:
        t = g + f.degree
        rows = [ny.m_inf.dim(t, 1)] + [ny.slot(k).dim(t, 1) for k in y_keys]
        cols = [nx.m_inf.dim(g, 1)] + [nx.slot(k).dim(g, 1) for k in x_keys]
        parts = {}
        # the infinity coordinates
        for i, h in enumerate([f.f_inf] + devs):
            b = h.blocks.get((g, 1))
            if b is not None:
                parts[(i, 0)] = b
        # the correction coordinates
        for j, k in enumerate(x_keys, 1):
            b = f.f_slots[k].blocks.get((g, 1))
            if b is None:
                continue
            if k not in y_index:
                raise InvariantError("correction escapes the explicit slots of the target")
            parts[(y_index[k], j)] = b
        if parts:
            blocks[(g, 1)] = block_matrix(rows, cols, parts)
    return VMap(gx.space, gy.space, f.degree, blocks)


def hand_counit_const(m: DihedralObject) -> DihedralMorphism:
    """c(germ_fixed_points(M)) -> M: evaluate the germ and the corrections."""
    n = m.normalized()
    gm = hand_germ_fixed_points(m)
    src = functor_const(gm)
    keys = sorted(n.slots.explicit)
    # the coordinates of gm in each degree: infinity, then each explicit slot
    cols = {g: [n.m_inf.dim(g, 1)] + [n.slot(k).dim(g, 1) for k in keys] for g in gm.space.dims}
    # projection to the infinity coordinates
    proj = VMap(gm.space, n.m_inf, 0, {
        (g, 1): block_matrix(c[:1], c, {(0, 0): QMatrix.identity(c[0])})
        for g, c in cols.items() if c[0]
    })
    f_slots = {TAIL: n.germ[TAIL].compose(proj)}
    for i, k in enumerate(keys, 1):
        # the germ on the infinity coordinates plus the slot's own correction
        germ = n.germ[k]
        blocks = {}
        for g, c in cols.items():
            parts = {(0, i): QMatrix.identity(c[i])} if c[i] else {}
            b = germ.blocks.get((g, 1))
            if b is not None:
                parts[(0, 0)] = b
            if parts:
                blocks[(g, 1)] = block_matrix([n.slot(k).dim(g, 1)], c, parts)
        f_slots[k] = VMap(gm.space, n.slot(k), 0, blocks)
    return DihedralMorphism._assembled(src, n, 0, proj, f_slots)
