import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import so3alg

from so3alg.dihedral import (
    TAIL,
    DihedralMorphism,
    DihedralObject,
    QWComplex,
    cone,
    counit_const,
    counit_i_p,
    counit_p_i,
    direct_sum_dihedral,
    functor_const,
    functor_i_k,
    functor_p_k,
    germ_fixed_points,
    hom_dihedral,
    homology_Ch,
    is_fibration,
    is_weak_equivalence,
    make_generator_dihedral,
    map_germ_fixed_points,
    suspend_dihedral,
    unit_const,
    unit_i_p,
    unit_p_i,
    zero_dihedral,
)
from so3alg.cli import dihedral_from_json, dihedral_to_json, vmap_to_json
from so3alg.errors import BadIndex, InvariantError, NotADifferential, SchemaError
from so3alg.linalg import Q, QMatrix, block_matrix
from so3alg import errors, linalg, qw
from so3alg.qw import QWSpace, Slots, VMap
from dihedral_oracles import hand_counit_const, hand_germ_fixed_points, hand_map_germ_fixed_points
from elimination_spy import SubquotientSpy
from weq_oracles import both_oracles, perturbed_identity, random_chain_map


def rand_space(rng, degrees=range(-1, 3), maxdim=2):
    return QWSpace(
        {g: (rng.randint(0, maxdim), rng.randint(0, maxdim)) for g in degrees}
    )


def rand_map(rng, dom, cod, degree=0):
    blocks = {}
    for g in dom.dims:
        for s in (1, -1):
            r, c = cod.dim(g + degree, s), dom.dim(g, s)
            if r and c:
                blocks[(g, s)] = QMatrix(
                    r, c,
                    [[F(rng.randint(-2, 2)) for _ in range(c)] for _ in range(r)],
                )
    return VMap(dom, cod, degree, blocks)


def rand_object(rng, keys=None):
    """A random germ object without differential, listing keys (by default
    up to two of the slots 3-6)."""
    m_inf = QWSpace({g: (rng.randint(0, 2), 0) for g in range(0, 3)})
    tail = rand_space(rng)
    if keys is None:
        keys = rng.sample([3, 4, 5, 6], rng.randint(0, 2))
    explicit = {k: rand_space(rng) for k in keys}
    germ = {TAIL: rand_map(rng, m_inf, tail)}
    for k in explicit:
        germ[k] = rand_map(rng, m_inf, explicit[k])
    return DihedralObject(m_inf, Slots(explicit, tail), germ)


def rand_complex(rng, degrees=range(0, 4), maxdim=2):
    """A random bounded complex with d squared genuinely zero."""
    space = rand_space(rng, degrees, maxdim)
    blocks = {}
    prev_kernel = {}
    for g in sorted(space.dims):
        for s in (1, -1):
            rows, cols = space.dim(g - 1, s), space.dim(g, s)
            if not (rows and cols):
                prev_kernel[s] = None
                continue
            mat = QMatrix(
                rows, cols,
                [[F(rng.randint(-1, 1)) for _ in range(cols)] for _ in range(rows)],
            )
            K = prev_kernel.get(s)
            if K is not None:
                # force the image into the kernel of the lower map
                coef = QMatrix(
                    K.cols, cols,
                    [[F(rng.randint(-1, 1)) for _ in range(cols)] for _ in range(K.cols)],
                )
                mat = K @ coef
            if not mat.is_zero():
                blocks[(g, s)] = mat
            prev_kernel[s] = mat.kernel_basis()
        for s in (1, -1):
            if space.dim(g, s) and (g - 1, s) not in [
                key for key in blocks
            ]:
                pass
    # recompute kernels in one clean pass to be safe
    d = VMap(space, space, -1, blocks)
    assert d.compose(d).is_zero()
    return QWComplex(space, d)


def rand_chain_object(rng):
    """A random differential object: sums of slot complexes and constants."""
    out = zero_dihedral()
    for k in rng.sample([3, 4, 5], rng.randint(1, 2)):
        out = direct_sum_dihedral(out, functor_i_k(rand_complex(rng), k))
    trivial = QWComplex(
        QWSpace({g: (rng.randint(0, 2), 0) for g in range(0, 3)})
    )
    out = direct_sum_dihedral(out, functor_const(trivial))
    return out


def homology_dims_oracle(c: QWComplex):
    """Dense Gaussian oracle: nullity minus rank, per degree and sign."""
    out = {}
    degs = set(c.space.dims) | {g + 1 for g in c.space.dims}
    for g in degs:
        p = m = 0
        for s in (1, -1):
            n = c.space.dim(g, s)
            down = c.d.block(g, s)
            up = c.d.block(g + 1, s)
            h = (n - down.rank()) - up.rank()
            if s == 1:
                p = h
            else:
                m = h
        if p or m:
            out[g] = (p, m)
    return out


# -- functors ------------------------------------------------------------------


def test_slot_functors_compose_as_expected():
    x = QWComplex(QWSpace({0: (1, 1), 1: (2, 0)}))
    assert functor_p_k(functor_i_k(x, 4), 4) == x
    assert functor_p_k(functor_i_k(x, 4), 5).is_zero()
    a = QWComplex(QWSpace({0: (2, 0), 1: (1, 0)}))
    assert functor_p_k(functor_const(a), 7) == a


def test_indices_start_at_three():
    x = QWComplex(QWSpace({0: (1, 0)}))
    for bad in (0, 1, 2, -3):
        with pytest.raises(BadIndex):
            functor_i_k(x, bad)
        with pytest.raises(BadIndex):
            make_generator_dihedral(bad)
    with pytest.raises(SchemaError):
        functor_const(QWComplex(QWSpace({0: (1, 1)})))


def test_generators():
    g = make_generator_dihedral(3)
    assert g.slot(3).dims == {0: (1, 1)}
    assert g.m_inf.is_zero() and g.slots.tail.is_zero()
    c = make_generator_dihedral("const")
    assert c.m_inf.dims == {0: (1, 0)} and c.slots.tail.dims == {0: (1, 0)}


# -- the germ fixed points -----------------------------------------------------


def test_fixed_points_of_a_constant_object():
    a = QWComplex(QWSpace({0: (2, 0), 2: (1, 0)}))
    assert germ_fixed_points(functor_const(a)) == a


def test_fixed_points_of_a_slot_object_is_the_fixed_part():
    x = QWComplex(QWSpace({0: (1, 2), 1: (2, 0)}))
    assert germ_fixed_points(functor_i_k(x, 3)).space.dims == {0: (1, 0), 1: (2, 0)}


def test_padding_with_tail_copies_is_a_no_op():
    rng = random.Random(11)
    for _ in range(20):
        m = rand_object(rng)
        free = max({3, 4, 5, 6, 7} - set(m.slots.explicit))
        explicit = dict(m.slots.explicit)
        explicit[free] = m.slots.tail
        germ = dict(m.germ)
        germ[free] = m.germ[TAIL]
        padded = DihedralObject(m.m_inf, Slots(explicit, m.slots.tail), germ)
        assert padded == m
        assert germ_fixed_points(padded) == germ_fixed_points(m)


# -- the three adjunctions -------------------------------------------------------


def test_slot_adjunction_units_and_counits():
    rng = random.Random(5)
    x = QWComplex(QWSpace({0: (1, 1), 2: (0, 2)}))
    for _ in range(20):
        m = rand_object(rng)
        k = rng.choice([3, 4, 5])
        eps = counit_i_p(m, k)
        assert eps.is_valid()
        eta = unit_p_i(m, k)
        assert eta.is_valid()
        # triangle identities for (i_k, p_k)
        assert counit_i_p(functor_i_k(x, k), k).f_slots[k] == unit_i_p(x, k)
        assert eps.f_slots[k].compose(unit_i_p(functor_p_k(m, k), k)) == VMap.identity(m.slot(k))
        # triangle identities for (p_k, i_k)
        assert counit_p_i(functor_p_k(m, k), k).compose(
            unit_p_i(m, k).f_slots[k]
        ) == VMap.identity(m.slot(k))
        assert counit_p_i(x, k).compose(
            unit_p_i(functor_i_k(x, k), k).f_slots[k]
        ) == VMap.identity(x.space)


def test_constant_adjunction_dimensions_and_triangles():
    rng = random.Random(9)
    cq = make_generator_dihedral("const")
    for _ in range(25):
        m = rand_object(rng)
        gfp = germ_fixed_points(m)
        for t in (0, 1):
            assert hom_dihedral(cq, m, [t])[t] == gfp.space.dim(t, 1)
        eps = counit_const(m)
        assert eps.is_valid()
        # triangle: fixed points of the counit against the unit
        assert map_germ_fixed_points(eps) == VMap.identity(gfp.space)
    a = QWComplex(QWSpace({0: (2, 0), 1: (1, 0)}))
    assert unit_const(a) == VMap.identity(a.space)
    # the other triangle: counit on a constant object is the identity
    eps = counit_const(functor_const(a))
    assert eps.f_inf == VMap.identity(a.space)
    assert eps.f_slots[TAIL] == VMap.identity(a.space)


# -- morphism spaces ---------------------------------------------------------------


def test_hom_out_of_a_slot_generator_reads_the_slot():
    rng = random.Random(21)
    for _ in range(10):
        m = rand_object(rng)
        g3 = make_generator_dihedral(3)
        want = m.slot(3).dim(0, 1) + m.slot(3).dim(0, -1)
        assert hom_dihedral(g3, m, [0])[0] == want


def test_hom_out_of_generators_is_additive():
    rng = random.Random(23)
    a, b = rand_object(rng), rand_object(rng)
    both = direct_sum_dihedral(a, b)
    for g in (make_generator_dihedral(4), make_generator_dihedral("const")):
        for t in (0, 1):
            assert (
                hom_dihedral(g, both, [t])[t]
                == hom_dihedral(g, a, [t])[t] + hom_dihedral(g, b, [t])[t]
            )


# -- homology ------------------------------------------------------------------------


def test_homology_of_zero_differential_is_the_object():
    rng = random.Random(31)
    m = rand_object(rng)
    assert homology_Ch(m) == m


def test_cone_of_identity_is_acyclic():
    for g in (make_generator_dihedral(3), make_generator_dihedral("const")):
        assert homology_Ch(cone(DihedralMorphism.identity(g))).is_zero()


def test_a_cone_assembles_each_differential_once(monkeypatch):
    # the sum of levels adds the germ maps only; the differentials of the
    # cone are [[-dx, 0], [f, dy]], built once per level by _cone_diff
    import so3alg.dihedral as dihedral

    sums, diffs = [], []
    real_sum, real_diff = dihedral.vmap_sum, dihedral._cone_diff
    monkeypatch.setattr(dihedral, "vmap_sum", lambda *a: sums.append(a) or real_sum(*a))
    monkeypatch.setattr(dihedral, "_cone_diff", lambda *a: diffs.append(a) or real_diff(*a))
    rng = random.Random(91)
    for _ in range(6):
        x = rand_chain_object(rng)
        sums.clear(), diffs.clear()
        c = cone(DihedralMorphism.identity(x))
        assert len(sums) == len(c.keys())
        assert len(diffs) == len(c.keys()) + 1


def test_levelwise_homology_matches_dense_oracle():
    rng = random.Random(41)
    for _ in range(30):
        m = rand_chain_object(rng)
        h = homology_Ch(m)
        for key in m.keys():
            assert h.slot(key).dims == homology_dims_oracle(m.level(key))
        assert h.m_inf.dims == homology_dims_oracle(m.level_inf())


def test_homology_where_infinity_and_a_slot_share_no_degree():
    # H at infinity lives in degree 0, where the slot has no space and no
    # neighbouring degree: the germ's homology block there is empty
    m = DihedralObject(QWSpace({0: (1, 0)}), Slots({}, QWSpace({5: (1, 0)})), {})
    h = homology_Ch(m)
    for key in m.keys():
        assert h.slot(key).dims == homology_dims_oracle(m.level(key))
    assert h.m_inf.dims == homology_dims_oracle(m.level_inf())
    assert h.germ[TAIL].is_zero()


def test_homology_commutes_with_slot_projections():
    rng = random.Random(43)
    for _ in range(10):
        m = rand_chain_object(rng)
        for k in (3, 4, 5, 7):
            assert functor_p_k(homology_Ch(m), k) == functor_p_k(m, k).homology()


def test_homology_rejects_a_non_differential():
    # a non-differential never becomes an object: the constructor refuses it
    v = QWSpace({0: (1, 0), 1: (1, 0), 2: (1, 0)})
    d = VMap(v, v, -1, {
        (1, 1): QMatrix(1, 1, [[F(1)]]),
        (2, 1): QMatrix(1, 1, [[F(1)]]),
    })
    bad = functor_const(QWComplex(v))
    with pytest.raises(NotADifferential):
        DihedralObject(bad.m_inf, bad.slots, bad.germ, d, {TAIL: d})
    # a germ map that is not a chain map
    worse = functor_const(QWComplex(QWSpace({0: (1, 0), 1: (1, 0)})))
    dv = VMap(worse.m_inf, worse.m_inf, -1, {(1, 1): QMatrix(1, 1, [[F(1)]])})
    with pytest.raises(NotADifferential):
        DihedralObject(worse.m_inf, worse.slots, worse.germ, dv, None)


# -- the projective structure -------------------------------------------------------


def test_identity_is_weak_equivalence_and_fibration():
    rng = random.Random(51)
    for _ in range(5):
        m = rand_chain_object(rng)
        one = DihedralMorphism.identity(m)
        assert is_weak_equivalence(one)
        assert is_fibration(one)


def test_zero_to_constants_is_not_a_fibration():
    cq = make_generator_dihedral("const")
    z = DihedralMorphism(
        zero_dihedral(), cq, 0, VMap.zero(QWSpace.zero(), cq.m_inf, 0), {}
    )
    assert not is_fibration(z)
    assert not is_weak_equivalence(z)


def test_inclusion_against_an_acyclic_cone_summand_is_a_weak_equivalence():
    rng = random.Random(61)
    for _ in range(5):
        m = rand_chain_object(rng)
        acyclic = cone(DihedralMorphism.identity(make_generator_dihedral(3)))
        big = direct_sum_dihedral(m, acyclic)
        f_slots = {}
        for key in big.keys():
            dom, cod = m.slot(key), big.slot(key)
            blocks = {}
            for g in dom.dims:
                for s in (1, -1):
                    r, c = cod.dim(g, s), dom.dim(g, s)
                    if c:
                        mat = [[Q(0)] * c for _ in range(r)]
                        for j in range(c):
                            mat[j][j] = Q(1)
                        blocks[(g, s)] = QMatrix(r, c, mat)
            f_slots[key] = VMap(dom, cod, 0, blocks)
        blocks = {}
        for g in m.m_inf.dims:
            r, c = big.m_inf.dim(g, 1), m.m_inf.dim(g, 1)
            if c:
                mat = [[Q(0)] * c for _ in range(r)]
                for j in range(c):
                    mat[j][j] = Q(1)
                blocks[(g, 1)] = QMatrix(r, c, mat)
        f = DihedralMorphism(
            m, big, 0, VMap(m.m_inf, big.m_inf, 0, blocks), f_slots
        )
        assert f.is_valid() and f.is_chain_map()
        assert is_weak_equivalence(f)
        assert not is_fibration(f) or acyclic.is_zero()


@pytest.mark.parametrize("t", [-1, 0, 1])
def test_a_zero_map_into_the_constants_is_not_a_weak_equivalence(t):
    # the homology of the constants is Q in degree 0, and a map out of zero
    # misses it in every degree; for t = +-1 the walk over H(x) and H(y)
    # compared H(y) at 0 + t only, and the map passed
    cq = make_generator_dihedral("const")
    z = DihedralMorphism(zero_dihedral(), cq, t, VMap.zero(QWSpace.zero(), cq.m_inf, t), {})
    assert z.is_chain_map()
    assert not is_weak_equivalence(z)


def test_a_map_that_is_not_a_chain_map_is_not_a_weak_equivalence():
    # on the acyclic 0 -> Q -> Q -> 0 at slot 3, the identity in degree 1 and
    # zero in degree 0 pass the cone's rank test, which presumes a chain map
    space = QWSpace({0: (1, 0), 1: (1, 0)})
    a = functor_i_k(QWComplex(space, VMap(space, space, -1, {(1, 1): QMatrix.identity(1)})), 3)
    half = VMap(space, space, 0, {(1, 1): QMatrix.identity(1)})
    f = DihedralMorphism(a, a, 0, VMap.zero(a.m_inf, a.m_inf, 0), {3: half})
    assert not f.is_chain_map()
    assert linalg.is_quasi_isomorphism(*_sign_complex(space, a.d_slot(3), 1), *_sign_complex(
        space, a.d_slot(3), 1), _sign_blocks(half, 1), 0)
    assert not is_weak_equivalence(f)


def _sign_complex(space: QWSpace, d: VMap, s):
    """The sign-s part of a level, as ``linalg.is_quasi_isomorphism`` reads it."""
    return {g: space.dim(g, s) for g in space.dims}, _sign_blocks(d, s)


def _sign_blocks(f: VMap, s):
    return {g: mat for (g, u), mat in f.blocks.items() if u == s}


def _level_complexes(x: DihedralObject, keys):
    """(key, space, d) at infinity and at each key."""
    return [("inf", x.m_inf, x.d_inf)] + [(k, x.slot(k), x.d_slot(k)) for k in keys]


def levelwise_parts(x, y, t, level_map) -> dict:
    """The degree-t components x -> y, by level ("inf" and each slot key),
    whose sign-s blocks are level_map(key, s, source complex, target complex)."""
    keys = Slots.keys_of([x.slots, y.slots])
    parts = {}
    for (key, sx, dx), (_, sy, dy) in zip(_level_complexes(x, keys), _level_complexes(y, keys)):
        blocks = {
            (g, s): mat
            for s in (1, -1)
            for g, mat in level_map(key, s, _sign_complex(sx, dx, s), _sign_complex(sy, dy, s)).items()
        }
        parts[key] = VMap(sx, sy, t, blocks)
    return parts


def levelwise_map(x, y, t, level_map) -> DihedralMorphism:
    """The degree-t morphism x -> y with the components of levelwise_parts;
    level_map must make the germ square commute."""
    parts = levelwise_parts(x, y, t, level_map)
    return DihedralMorphism(x, y, t, parts.pop("inf"), parts)


def _sign_part(f: VMap, s) -> VMap:
    return VMap(f.domain, f.codomain, f.degree, {k: m for k, m in f.blocks.items() if k[1] == s})


def through_infinity(x, y, t, level_map, ends, a) -> DihedralMorphism:
    """A degree-t morphism x -> y whose germ square commutes: level_map's
    blocks at each explicit slot and on the sign-- part of the tail, which
    the germ of x misses; at infinity and on the sign-+ part of the tail,
    which the germs couple, the blocks of ends (one that commutes with the
    germs: the identity or zero) plus a after germ_x and germ_y after a, for
    a degree-t map a from the tail of x to y at infinity.  The germs are
    chain maps, so this is a chain map when level_map, ends and a are."""
    parts = levelwise_parts(x, y, t, level_map)
    base = levelwise_parts(x, y, t, ends)
    gx, gy = x.germ[TAIL], y.germ[TAIL]
    parts.pop("inf")
    parts[TAIL] = _sign_part(base[TAIL], 1) + _sign_part(parts[TAIL], -1) + gy.compose(a)
    return DihedralMorphism(x, y, t, base["inf"] + a.compose(gx), parts)


def weak_equivalence_oracle(f: DihedralMorphism) -> bool:
    """Both oracles at every level and sign of f, at infinity and at each
    key that f or one of its objects lists."""
    keys = Slots.keys_of([f.x.slots, f.y.slots, f.f_slots])
    comps = [f.f_inf] + [f.f_slots[k] for k in keys]
    return all(
        both_oracles(*_sign_complex(sx, dx, s), *_sign_complex(sy, dy, s), _sign_blocks(c, s), f.degree)
        for (_, sx, dx), (_, sy, dy), c in zip(_level_complexes(f.x, keys), _level_complexes(f.y, keys), comps)
        for s in (1, -1)
    )


def _summand_blocks(a: DihedralObject, total: DihedralObject, include):
    """level_map of the inclusion of a into a sum total = a + b (include) or
    of the projection of total onto a, both moved by the map's degree:
    identity blocks on a's part, which comes first in each degree and sign."""

    def level_map(key, s, _cx, _cy):
        space, whole = (a.m_inf, total.m_inf) if key == "inf" else (a.slot(key), total.slot(key))
        out = {}
        for g in space.dims:
            n = space.dim(g, s)
            if n:
                rest = whole.dim(g, s) - n
                sizes = ([n, rest], [n]) if include else ([n], [n, rest])
                out[g] = block_matrix(*sizes, {(0, 0): QMatrix.identity(n)})
        return out

    return level_map


def _identity_blocks(key, s, cx, cy):
    return {g: QMatrix.identity(n) for g, n in cx[0].items() if n}


@pytest.mark.parametrize("t", [-1, 0, 1])
def test_weak_equivalences_agree_with_both_oracles(t):
    # identities, zero maps, the inclusion and projection of an acyclic cone
    # summand, random chain maps and maps homotopic to the identity at each
    # level, and the identity on x plus zero on a summand with homology,
    # whose two ends have equal homology
    rng = random.Random(2110 + t)
    answers = []
    for trial in range(6):
        x = rand_chain_object(rng) if trial % 4 else rand_object(rng)
        y = rand_chain_object(rng)
        acyclic = cone(DihedralMorphism.identity(rand_chain_object(rng)))
        big = direct_sum_dihedral(x, acyclic)
        w = make_generator_dihedral(rng.choice(["const", 3, 4]))
        xw = direct_sum_dihedral(x, w)
        include, project = _summand_blocks(x, big, True), _summand_blocks(x, big, False)
        into_xw, onto_x = _summand_blocks(x, xw, True), _summand_blocks(x, xw, False)

        def random_map(key, s, cx, cy):
            return random_chain_map(rng, cx, cy, t)

        def random_ends(source, target):
            # a random chain map from the tail of source to target at infinity
            cx = _sign_complex(source.slots.tail, source.d_slot(TAIL), 1)
            cy = _sign_complex(target.m_inf, target.d_inf, 1)
            blocks = {(g, 1): mat for g, mat in random_chain_map(rng, cx, cy, t).items()}
            return VMap(source.slots.tail, target.m_inf, t, blocks)

        def null_ends(source, target):
            # d h + h d for a random h of degree t + 1: null-homotopic, so
            # the identity plus it, after or before the germs, is homotopic
            # to the identity at infinity and at the tail
            h = rand_map(rng, source.slots.tail, target.m_inf, t + 1)
            return target.d_inf.compose(h) + h.compose(source.d_slot(TAIL))

        def kill_w(key, s, cx, cy):
            inc, proj = into_xw(key, s, cx, cy), onto_x(key, s, cx, cy)
            return {g: inc[g] @ proj[g] for g in inc}

        def zero(*_):
            return {}

        def random_through_infinity(source, target):
            target = suspend_dihedral(target, t)
            return through_infinity(source, target, t, random_map, zero, random_ends(source, target))

        big_t = suspend_dihedral(big, t)
        maps = [
            levelwise_map(x, suspend_dihedral(x, t), t, _identity_blocks),
            levelwise_map(x, suspend_dihedral(y, t), t, zero),
            levelwise_map(x, suspend_dihedral(big, t), t, include),
            levelwise_map(big, suspend_dihedral(x, t), t, project),
            random_through_infinity(x, y),
            random_through_infinity(x, x),
            random_through_infinity(big, big),
            through_infinity(big, big_t, t, lambda k, s, cx, cy: perturbed_identity(rng, cx),
                             _identity_blocks, null_ends(big, big_t)),
            levelwise_map(acyclic, suspend_dihedral(y, t), t, zero),
            levelwise_map(acyclic, suspend_dihedral(w, t), t, zero),
            levelwise_map(xw, suspend_dihedral(xw, t), t, kill_w),
        ]
        for f in maps:
            assert f.is_chain_map()
            got = is_weak_equivalence(f)
            assert got == weak_equivalence_oracle(f), (trial, f.x, f.y)
            answers.append(got)
    assert answers.count(True) >= 16 and answers.count(False) >= 16, answers.count(True)


def test_suspension_shifts_homology():
    rng = random.Random(71)
    m = rand_chain_object(rng)
    h = homology_Ch(m)
    hs = homology_Ch(suspend_dihedral(m, 2))
    assert hs == suspend_dihedral(h, 2)


WEAK_EQUIVALENCE_WORK = """
import json
from so3alg.dihedral import (
    DihedralMorphism, QWComplex, direct_sum_dihedral, functor_const, functor_i_k,
    is_fibration, is_weak_equivalence,
)
from so3alg import linalg
from so3alg.linalg import QMatrix
from so3alg.qw import QWSpace, VMap

x = functor_const(QWComplex(QWSpace({0: (1, 0), 1: (2, 0), 2: (1, 0)})))
for k in (3, 5):
    x = direct_sum_dihedral(x, functor_i_k(QWComplex(QWSpace({0: (1, 1), 1: (2, 1)})), k))
# the identity except at slot 5, where it is zero: only slot 5 fails
f = DihedralMorphism(x, x, 0, VMap.identity(x.m_inf),
                     {key: VMap.identity(x.slot(key)) for key in x.keys() if key != 5})
# eliminations run: rrefs, and the forward-only ones behind QMatrix.rank
calls = ranks = 0
rref, forward_rank = QMatrix.rref, linalg._forward_rank

def counted(self):
    global calls
    calls += 1
    return rref(self)

def counted_rank(rows, ncols):
    global ranks
    ranks += 1
    return forward_rank(rows, ncols)

QMatrix.rref = counted
linalg._forward_rank = counted_rank
out = []
for predicate in (is_weak_equivalence, is_fibration):
    calls = ranks = 0
    out.append([predicate(f), calls, ranks])
print(json.dumps(out))
"""


def test_weak_equivalence_work_does_not_follow_the_hash_seed():
    src = str(Path(so3alg.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", WEAK_EQUIVALENCE_WORK],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        outs.append(json.loads(done.stdout))
    assert outs[0] == outs[1]
    assert [result for result, _calls, _ranks in outs[0]] == [False, False]
    # both predicates rank, so the counts compared above are not vacuous
    assert all(ranks for _result, _calls, ranks in outs[0]), outs[0]


# -- objects built from checked parts ------------------------------------------------


def is_square_zero(space: QWSpace, d: VMap) -> bool:
    """Dense test of d squared, block by block."""
    return all(
        (d.block(g - 1, s) @ d.block(g, s)).is_zero()
        for g in space.dims for s in (1, -1)
    )


def full_check(m: DihedralObject) -> bool:
    """Test-only check of every law, on dense blocks: d squared vanishes at
    infinity and at every level, and the germ is a chain map at the tail."""
    levels = [(m.m_inf, m.d_inf)] + [(m.slot(k), m.d_slot(k)) for k in m.keys()]
    if not all(is_square_zero(space, d) for space, d in levels):
        return False
    germ, d = m.germ[TAIL], m.d_slots[TAIL]
    return all(
        d.block(g, s) @ germ.block(g, s) == germ.block(g - 1, s) @ m.d_inf.block(g, s)
        for g in m.m_inf.dims for s in (1, -1)
    )


def summand_map(x, y, part, c, project=False):
    """c times the inclusion of x (part 0) or y (part 1) into their sum, or
    c times the projection onto it: a degree-0 chain map."""
    z = direct_sum_dihedral(x, y)
    a = (x, y)[part]

    def component(sa, sx, sy, sz):
        blocks = {}
        for g in sa.dims:
            for s in (1, -1):
                n = sa.dim(g, s)
                if n:
                    inc = block_matrix(
                        [sx.dim(g, s), sy.dim(g, s)], [n],
                        {(part, 0): QMatrix.identity(n).scale(Q(c))},
                    )
                    blocks[(g, s)] = inc.transpose() if project else inc
        return VMap(sz, sa, 0, blocks) if project else VMap(sa, sz, 0, blocks)

    f_inf = component(a.m_inf, x.m_inf, y.m_inf, z.m_inf)
    f_slots = {
        k: component(a.slot(k), x.slot(k), y.slot(k), z.slot(k)) for k in z.keys()
    }
    if project:
        return DihedralMorphism(z, a, 0, f_inf, f_slots)
    return DihedralMorphism(a, z, 0, f_inf, f_slots)


def padded(m: DihedralObject) -> DihedralObject:
    """m with an extra explicit slot that copies the tail."""
    free = max({3, 4, 5, 6, 7} - set(m.slots.explicit))
    explicit = dict(m.slots.explicit)
    explicit[free] = m.slots.tail
    germ, d_slots = dict(m.germ), dict(m.d_slots)
    germ[free], d_slots[free] = m.germ[TAIL], m.d_slots[TAIL]
    return DihedralObject(m.m_inf, Slots(explicit, m.slots.tail), germ, m.d_inf, d_slots)


def plus_part(c: QWComplex) -> QWComplex:
    """The sign-+ part of a complex: a trivial-action complex."""
    space = QWSpace({g: (p, 0) for g, (p, _m) in c.space.dims.items()})
    blocks = {(g, s): mat for (g, s), mat in c.d.blocks.items() if s == 1}
    return QWComplex(space, VMap(space, space, -1, blocks))


def test_constructions_from_checked_parts_are_objects():
    rng = random.Random(81)
    for trial in range(12):
        # a constant part with a differential, so the germ meets it
        x = direct_sum_dihedral(rand_chain_object(rng), functor_const(plus_part(rand_complex(rng))))
        y = rand_chain_object(rng)
        c = rng.choice((1, -1, 2, Q(1, 2)))
        built = [
            direct_sum_dihedral(x, y),
            suspend_dihedral(x, rng.choice((1, -2, 3))),
            cone(DihedralMorphism.identity(x)),
            cone(summand_map(x, y, trial % 2, c)),
            cone(summand_map(x, y, trial % 2, c, project=True)),
            cone(counit_const(x)),
            homology_Ch(x),
            padded(x).normalized(),
            zero_dihedral(),
            make_generator_dihedral(3),
            make_generator_dihedral("const"),
        ]
        for m in built:
            assert full_check(m)
            checked = DihedralObject(m.m_inf, m.slots, m.germ, m.d_inf, m.d_slots)
            assert checked == m
            assert (checked.m_inf, checked.slots, checked.germ, checked.d_inf, checked.d_slots) == (
                m.m_inf, m.slots, m.germ, m.d_inf, m.d_slots,
            )
            for level in [m.level_inf(), germ_fixed_points(m)] + [m.level(k) for k in m.keys()]:
                assert is_square_zero(level.space, level.d)
                assert QWComplex(level.space, level.d) == level


def test_the_full_check_sees_a_bad_germ_and_a_bad_differential():
    x = functor_const(QWComplex(QWSpace({0: (1, 0), 1: (1, 0)})))
    d = VMap(x.m_inf, x.m_inf, -1, {(1, 1): QMatrix.identity(1)})
    # trusted on purpose: the constructor would refuse both
    assert not full_check(DihedralObject._assembled(x.m_inf, x.slots, x.germ, d, None))
    v = QWSpace({0: (1, 0), 1: (1, 0), 2: (1, 0)})
    dd = VMap(v, v, -1, {(1, 1): QMatrix.identity(1), (2, 1): QMatrix.identity(1)})
    slot = Slots({4: v}, QWSpace.zero())
    assert not full_check(DihedralObject._assembled(QWSpace.zero(), slot, {}, None, {4: dd}))


def test_the_decoder_refuses_a_non_differential_and_a_non_chain_germ():
    v = QWSpace({0: (1, 0), 1: (1, 0), 2: (1, 0)})
    d = VMap(v, v, -1, {(1, 1): QMatrix.identity(1), (2, 1): QMatrix.identity(1)})
    doc = dihedral_to_json(functor_const(QWComplex(v)))
    doc["diff"] = {"inf": vmap_to_json(d), "slots": {"tail": vmap_to_json(d)}}
    with pytest.raises(NotADifferential, match="d squared"):
        dihedral_from_json(json.loads(json.dumps(doc)))
    w = QWSpace({0: (1, 0), 1: (1, 0)})
    dw = VMap(w, w, -1, {(1, 1): QMatrix.identity(1)})
    doc = dihedral_to_json(functor_const(QWComplex(w)))
    # the differential at infinity only: the identity germ is not a chain map
    doc["diff"] = {"inf": vmap_to_json(dw), "slots": {}}
    with pytest.raises(NotADifferential, match="germ map is not a chain map"):
        dihedral_from_json(json.loads(json.dumps(doc)))
    # with the same differential at the tail it is an object
    doc["diff"]["slots"] = {"tail": vmap_to_json(dw)}
    assert dihedral_from_json(json.loads(json.dumps(doc))) == functor_const(QWComplex(w, dw))


# -- the slot container against the reads it replaced ---------------------------
#
# Before ``Slots``, a germ object stored its germ maps and differentials as
# dicts with the tail under TAIL, and ``GermSequence``, ``germ_of``,
# ``d_slot`` and ``component`` each read an unlisted slot by hand.  Those reads
# are kept here as oracles, applied to the stored values.


def stored_dict(slots):
    return {**slots.explicit, TAIL: slots.tail}


def oracle_read(d, key):
    return d.get(key, d[TAIL])


def oracle_normal_form(m):
    """``DihedralObject.normalized``, as the fields it stored."""
    explicit = dict(m.slots.explicit)
    germ, d_slots = stored_dict(m.germ), stored_dict(m.d_slots)
    for k in list(explicit):
        if explicit[k] == m.slots.tail and germ[k] == germ[TAIL] and d_slots[k] == d_slots[TAIL]:
            del explicit[k], germ[k], d_slots[k]
    return (m.m_inf, explicit, m.slots.tail, germ, m.d_inf, d_slots)


def oracle_morphism_eq(a, b):
    """``DihedralMorphism.__eq__``."""
    if (a.x, a.y, a.degree) != (b.x, b.y, b.degree):
        return False
    da, db = stored_dict(a.f_slots), stored_dict(b.f_slots)
    return a.f_inf == b.f_inf and all(
        oracle_read(da, k) == oracle_read(db, k) for k in set(da) | set(db)
    )


def _read_keys(*sequences):
    listed = sorted(set().union(*(s.explicit for s in sequences)))
    return listed + [TAIL] + [k for k in (8, 9, 10) if k not in listed][:2]


def _workload_chain_objects():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads  # the benchmark's seeded germ objects

    rng = random.Random("dihedral-cones/oracle")
    return [workloads.chain_object(rng, 1 + i % 2)[1] for i in range(8)]


def test_germ_object_reads_match_the_fallbacks_they_replaced():
    rng = random.Random(61)
    base = [rand_object(rng) for _ in range(12)] + [rand_chain_object(rng) for _ in range(12)]
    base += _workload_chain_objects()
    objects = base + [padded(m) for m in base[::2]]
    assert sum(any(not d.is_zero() for d in m.d_slots.values()) for m in objects) >= 10
    for m in objects:
        assert m.germ.explicit.keys() == m.d_slots.explicit.keys() == m.slots.explicit.keys()
        for key in _read_keys(m.slots):
            slot = m.slots.tail if key == TAIL else m.slots.explicit.get(key, m.slots.tail)
            assert m.slot(key) is slot
            assert m.germ[key] is oracle_read(stored_dict(m.germ), key)
            assert m.d_slot(key) is oracle_read(stored_dict(m.d_slots), key)
        n = m.normalized()
        assert (n.m_inf, n.slots.explicit, n.slots.tail, stored_dict(n.germ), n.d_inf,
                stored_dict(n.d_slots)) == oracle_normal_form(m)
    forms = [oracle_normal_form(m) for m in objects]
    equal = 0
    for i, a in enumerate(objects):
        for j, b in enumerate(objects):
            assert (a == b) == (forms[i] == forms[j])
            equal += i != j and a == b
    assert equal >= 10, equal
    morphisms = []
    for m in objects:
        ident = DihedralMorphism.identity(m)
        k = min({3, 4, 5, 6} - set(m.slots.explicit) or {3})
        morphisms += [ident, ident.compose(ident), counit_i_p(m, k), unit_p_i(m, k)]
        if all(mi == 0 for _p, mi in m.m_inf.dims.values()):
            morphisms.append(counit_const(m))
    for f in morphisms:
        union = set(f.x.slots.explicit) | set(f.y.slots.explicit) | {TAIL}
        assert set(f.f_slots.explicit) | {TAIL} == union
        for key in _read_keys(f.x.slots, f.y.slots):
            assert f.f_slots[key] is oracle_read(stored_dict(f.f_slots), key)
    same = 0
    for a in morphisms:
        for b in morphisms[::9]:
            assert (a == b) == oracle_morphism_eq(a, b)
            same += a is not b and a == b
    assert same >= 5, same


def _level_pairs(x: DihedralObject) -> set:
    """The distinct (space, d) pairs of objects among the levels of x."""
    return {(id(x.m_inf), id(x.d_inf))} | {(id(x.slot(k)), id(x.d_slot(k))) for k in x.keys()}


def unshared(x: DihedralObject) -> DihedralObject:
    """x with each level's space and differential an equal copy of its own,
    so no two levels share a pair of objects."""
    return DihedralObject._assembled(
        copy.copy(x.m_inf), x.slots.map(copy.copy), x.germ, copy.copy(x.d_inf),
        x.d_slots.map(copy.copy),
    )


def test_each_level_homology_is_computed_once_per_call(monkeypatch):
    # the constant functor's levels at infinity and at the tail are the same
    # objects; nothing is kept from one call to the next, and a weak
    # equivalence ranks mapping cones and computes no homology at all
    import so3alg.dihedral as dihedral

    rng = random.Random(131)
    objects = [make_generator_dihedral("const"), make_generator_dihedral(3)]
    objects += [rand_object(rng) for _ in range(4)] + [rand_chain_object(rng) for _ in range(6)]
    objects += _workload_chain_objects()
    objects += [padded(m) for m in objects[::3]]
    calls, chains = [], []
    real, real_chain = dihedral.qw_homology, qw.chain_homology
    monkeypatch.setattr(
        dihedral, "qw_homology", lambda space, d: calls.append((id(space), id(d))) or real(space, d)
    )
    monkeypatch.setattr(qw, "chain_homology", lambda *a: chains.append(1) or real_chain(*a))
    shared = 0
    for x in objects:
        levels = _level_pairs(x)
        shared += len(levels) < 1 + len(x.keys())
        # without the sharing: one qw_homology per level asked for
        calls.clear()
        expected = homology_Ch(unshared(x))
        assert len(calls) == 1 + len(x.keys())
        for _ in range(2):
            calls.clear()
            assert homology_Ch(x) == expected
            assert sorted(calls) == sorted(levels)
            calls.clear()
            chains.clear()
            assert is_weak_equivalence(DihedralMorphism.identity(x))
            assert calls == [] and chains == []
    assert shared >= 4, shared


def test_homology_builds_bases_only_for_the_germ_blocks(monkeypatch):
    # homology_Ch reads the sign -1 parts' dimensions alone, so it runs no
    # subquotient elimination there; on the sign +1 part it runs at most one
    # per (level, degree) whose germ block it builds, while reading it:
    # representatives at infinity, projections at the slot
    import so3alg.dihedral as dihedral

    rng = random.Random(2201)
    objects = [make_generator_dihedral("const"), make_generator_dihedral(3)]
    objects += _workload_chain_objects() + [rand_chain_object(rng) for _ in range(6)]
    objects += [cone(DihedralMorphism.identity(x)) for x in objects]
    spy = SubquotientSpy(monkeypatch)
    state = {}
    real_qw, real_part = dihedral.qw_homology, QWSpace.part

    def level_homology(space, d):
        state["pair"] = (id(space), id(d))
        return real_qw(space, d)

    def part(space, sign):
        # qw_homology asks for a sign part's dimensions right before its
        # chain_homology call
        state["sign"] = sign
        return real_part(space, sign)

    monkeypatch.setattr(dihedral, "qw_homology", level_homology)
    monkeypatch.setattr(QWSpace, "part", part)
    monkeypatch.setattr(qw, "chain_homology", spy.wrap(qw.chain_homology, lambda: (state["pair"], state["sign"])))
    minus_boundaries = built = 0
    for m in objects:
        spy.records.clear()
        h = homology_Ch(m)
        # the (level, degree) pairs whose germ block homology_Ch builds
        plus_inf = {g for g in h.m_inf.dims if h.m_inf.dim(g, 1)}
        allowed = {(id(m.m_inf), id(m.d_inf)): {g for g in plus_inf if any(h.slot(k).dim(g, 1) for k in m.keys())}}
        for k in m.keys():
            allowed.setdefault((id(m.slot(k)), id(m.d_slot(k))), set()).update(
                g for g in plus_inf if h.slot(k).dim(g, 1)
            )
        levels = [m.d_inf] + [m.d_slot(k) for k in m.keys()]
        minus_boundaries += sum(1 for d in levels for (_, s), b in d.blocks.items() if s == -1 and not b.is_zero())
        assert [r for r in spy.records if r[0][1] == -1] == [], m
        assert len(spy.records) == len(set(spy.records))
        for (pair, _), g in spy.records:
            assert g in allowed[pair], (pair, g)
        built += len(spy.records)
    assert minus_boundaries >= 10 and built >= 10, (minus_boundaries, built)


def test_maps_of_the_wrong_type_are_refused_at_their_slot():
    m = direct_sum_dihedral(
        functor_i_k(QWComplex(QWSpace({0: (1, 1)})), 4), functor_const(QWComplex(QWSpace({0: (1, 0)})))
    )
    with pytest.raises(SchemaError, match="germ map at slot 4"):
        DihedralObject(m.m_inf, m.slots, {4: m.germ[TAIL]})
    with pytest.raises(SchemaError, match="differential at slot 'tail'"):
        DihedralObject(m.m_inf, m.slots, m.germ, None, {TAIL: VMap.identity(m.slot(TAIL))})
    with pytest.raises(SchemaError, match="component at slot 4"):
        DihedralMorphism(m, m, 0, VMap.identity(m.m_inf), {4: VMap.identity(m.slot(TAIL))})


# -- composition keeps every component --------------------------------------------


def test_a_composite_keeps_a_component_only_the_middle_object_lists():
    a = QWComplex(QWSpace({0: (1, 0)}))
    v = a.space
    x = functor_const(a)
    mid = direct_sum_dihedral(x, functor_i_k(a, 4))
    # slot 4 of mid is x's copy of a, then functor_i_k's: f is twice the
    # inclusion of the first there, g the projection onto it
    w = mid.slot(4)
    f = DihedralMorphism(x, mid, 0, VMap.identity(v), {
        TAIL: VMap.identity(v), 4: VMap(v, w, 0, {(0, 1): QMatrix.from_rows([[2], [0]])}),
    })
    g = DihedralMorphism(mid, x, 0, VMap.identity(v), {
        TAIL: VMap.identity(v), 4: VMap(w, v, 0, {(0, 1): QMatrix.from_rows([[1, 0]])}),
    })
    gf = g.compose(f)
    assert gf.f_slots[4] == g.f_slots[4].compose(f.f_slots[4])
    assert gf.f_slots[4] == VMap(v, v, 0, {(0, 1): QMatrix.from_rows([[2]])})
    assert gf.f_slots[TAIL] == gf.f_slots[5] == VMap.identity(v)
    assert gf != DihedralMorphism.identity(x)


def rand_morphism(rng, x, y, keys=()):
    """A random degree-0 morphism x -> y with a component at every key x or
    y lists, at each of keys and at the tail.  Its square commutes: for a
    random a from the tail of x to y at infinity, the component at infinity
    is a after germ_x, and the tail's is germ_y after a plus a random map on
    the sign-- part, which germ_x misses."""
    listed = sorted(set(x.slots.explicit) | set(y.slots.explicit) | set(keys))
    comps = {k: rand_map(rng, x.slot(k), y.slot(k)) for k in listed}
    a = rand_map(rng, x.slots.tail, y.m_inf)
    minus = _sign_part(rand_map(rng, x.slots.tail, y.slots.tail), -1)
    comps[TAIL] = y.germ[TAIL].compose(a) + minus
    return DihedralMorphism(x, y, 0, a.compose(x.germ[TAIL]), comps)


@pytest.mark.parametrize("seed", range(8))
def test_composition_is_associative_and_componentwise(seed):
    rng = random.Random(1950 + seed)
    # the ends list slots 3 and 4 at most, the middle objects 5-7, and each
    # morphism may list one more slot that neither of its objects lists
    w, z = (rand_object(rng, rng.sample([3, 4], rng.randint(0, 1))) for _ in range(2))
    x, y = (rand_object(rng, rng.sample([5, 6, 7], rng.randint(1, 2))) for _ in range(2))
    f, g, h = (
        rand_morphism(rng, s, t, rng.sample([8, 9], rng.randint(0, 1)))
        for s, t in ((w, x), (x, y), (y, z))
    )
    left, right = h.compose(g).compose(f), h.compose(g.compose(f))
    assert left == right
    listed = sorted(set().union(*(m.f_slots.explicit for m in (f, g, h))))
    unlisted = [k for k in range(10, 20) if k not in listed][:2]
    for key in listed + [TAIL] + unlisted:
        want = h.f_slots[key].compose(g.f_slots[key]).compose(f.f_slots[key])
        assert left.f_slots[key] == right.f_slots[key] == want, key
    assert left.f_inf == h.f_inf.compose(g.f_inf).compose(f.f_inf)


def test_an_object_refuses_maps_at_slots_it_does_not_list():
    v = QWSpace({0: (1, 0), 1: (1, 0), 2: (1, 0)})
    x = functor_const(QWComplex(v))
    one = QMatrix.from_rows([[1]])
    # d squared is not zero: slot 5 is not listed, so it would be checked nowhere
    bad = VMap(v, v, -1, {(1, 1): one, (2, 1): one})
    with pytest.raises(SchemaError, match="differential at slot 5, which the slots do not list"):
        DihedralObject(x.m_inf, x.slots, x.germ, x.d_inf, {TAIL: x.d_slot(TAIL), 5: bad})
    for key in (1, 2, 5):
        with pytest.raises(SchemaError, match=f"germ map at slot {key}, which"):
            DihedralObject(x.m_inf, x.slots, {TAIL: x.germ[TAIL], key: x.germ[TAIL]})


def test_the_differential_at_infinity_is_refused_into_another_space():
    # d_inf must be an endomorphism of m_inf: one into a larger space is
    # refused with the type error, before d squared is composed
    v = QWSpace({0: (1, 0), 1: (1, 0)})
    x = functor_const(QWComplex(v))
    larger = QWSpace({0: (2, 0), 1: (1, 0)})
    into = VMap(v, larger, -1, {(1, 1): QMatrix.from_rows([[1], [0]])})
    with pytest.raises(SchemaError, match="differential at infinity has wrong type"):
        DihedralObject(v, x.slots, x.germ, into, x.d_slots)
    for d_inf in (VMap.zero(larger, v, -1), VMap.zero(v, v, 0)):
        with pytest.raises(SchemaError, match="differential at infinity has wrong type"):
            DihedralObject(v, x.slots, x.germ, d_inf, x.d_slots)


def _refused_or(fn, f):
    """fn(f), or the message of the InvariantError it raises."""
    try:
        return fn(f)
    except InvariantError as exc:
        return ("refused", str(exc))


@pytest.mark.parametrize("seed", range(3))
def test_germ_fixed_points_and_the_counit_equal_their_hand_loops(seed):
    # the fixed parts and block_vmap build what the hand loops built, value
    # for value, and refuse what they refused
    rng = random.Random(2850 + seed)
    objects = [rand_object(rng) for _ in range(3)] + [rand_chain_object(rng) for _ in range(3)]
    objects += [
        direct_sum_dihedral(rand_chain_object(rng), functor_const(plus_part(rand_complex(rng))))
        for _ in range(3)
    ]
    objects += _workload_chain_objects()[2 * seed: 2 * seed + 3]
    objects += [padded(m) for m in objects[::3]]
    kinds = {"value": 0, "refused": 0}
    for x in objects:
        assert germ_fixed_points(x) == hand_germ_fixed_points(x)
        eps = counit_const(x)
        assert eps == hand_counit_const(x)
        y = rng.choice(objects)
        c = rng.choice((1, -1, 2, Q(1, 2)))
        inc, proj = summand_map(x, y, 1, c), summand_map(x, y, 1, c, project=True)
        morphisms = [eps, DihedralMorphism.identity(x), summand_map(x, y, 0, c), inc, proj, proj.compose(inc)]
        for f in morphisms:
            got = _refused_or(map_germ_fixed_points, f)
            assert got == _refused_or(hand_map_germ_fixed_points, f)
            kinds["refused" if isinstance(got, tuple) else "value"] += 1
    assert kinds["value"] >= 40 and kinds["refused"] >= 3, kinds


def test_the_counit_normalizes_its_argument_once(monkeypatch):
    # counit_const reads the germ fixed points off the normal form it holds
    calls = []
    normalized = DihedralObject.normalized
    monkeypatch.setattr(DihedralObject, "normalized", lambda m: calls.append(m) or normalized(m))
    objects = _workload_chain_objects()
    objects += [padded(m) for m in objects]
    for x in objects:
        calls.clear()
        counit_const(x)
        assert calls == [x]


def test_a_morphism_component_must_sit_at_a_slot_index():
    v = QWSpace({0: (1, 0)})
    x = functor_const(QWComplex(v))
    for key in (1, 2, "5"):
        with pytest.raises(BadIndex):
            DihedralMorphism(x, x, 0, VMap.identity(v), {TAIL: VMap.identity(v), key: VMap.zero(v, v)})
    f = DihedralMorphism(x, x, 0, VMap.identity(v), {TAIL: VMap.identity(v), 7: VMap.zero(v, v)})
    assert list(f.f_slots.explicit) == [7] and f.f_slots[7] == VMap.zero(v, v)


# -- morphisms checked on entry ---------------------------------------------------------


def _exit_code(exc) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads  # the CLI's mapping of errors onto exit codes

    return workloads.exit_code_of(exc)


def test_a_morphism_whose_germ_square_does_not_commute_is_refused():
    # on the constants Q the germ is the identity, so the components at
    # infinity and at the tail must agree
    x = make_generator_dihedral("const")
    v = x.m_inf
    with pytest.raises(errors.NotAMorphism, match="germ square") as err:
        DihedralMorphism(x, x, 0, VMap.identity(v), {TAIL: VMap.zero(v, v)})
    assert _exit_code(err.value) == 3
    with pytest.raises(errors.NotAMorphism):
        DihedralMorphism(x, x, 0, VMap.identity(v), {TAIL: VMap.identity(v).scale(2)})
    # seeded: a random morphism whose square commutes is taken, and the
    # same morphism with its component at infinity moved where the germ of
    # the target sees it is refused
    rng = random.Random(2710)
    refused = 0
    for _ in range(12):
        x, y = rand_object(rng), rand_chain_object(rng)
        f = rand_morphism(rng, x, y)
        assert f.is_valid()
        bump = rand_map(rng, x.m_inf, y.m_inf)
        if y.germ[TAIL].compose(bump).is_zero():
            continue
        with pytest.raises(errors.NotAMorphism):
            DihedralMorphism(x, y, 0, f.f_inf + bump, f.f_slots)
        refused += 1
    assert refused >= 6, refused


def test_trusted_morphisms_pass_the_slow_checks():
    # identity, compose, counit_const, counit_i_p and unit_p_i skip the
    # germ square on entry; each commutes by construction, and identities
    # and composites of chain maps are chain maps
    rng = random.Random(2720)
    chain_composites = 0
    for trial in range(10):
        m = rand_chain_object(rng)
        if trial % 2:
            m = direct_sum_dihedral(m, functor_const(plus_part(rand_complex(rng))))
        y = rand_chain_object(rng)
        k = rng.choice([3, 4, 5, 6])
        ident = DihedralMorphism.identity(m)
        inc, proj = summand_map(m, y, 0, 2), summand_map(m, y, 0, 1, project=True)
        eps_i, eta_p = counit_i_p(m, k), unit_p_i(m, k)
        chain_maps = [
            ident, ident.compose(ident), proj.compose(inc), inc.compose(ident),
            proj.compose(inc.compose(ident)), eps_i.compose(eta_p),
        ]
        for f in chain_maps + [eps_i, eta_p, counit_const(m)]:
            assert f.is_valid()
        for f in chain_maps:
            assert f.is_chain_map()
            chain_composites += not f.is_identity()
        assert ident.is_identity() and ident.compose(ident).is_identity()
    assert chain_composites >= 40, chain_composites


def _isolated_block(x: DihedralObject):
    """(key, (g, s)) of a nonzero block of the identity at a slot key whose
    differential neither leaves nor enters that degree and sign, so that
    changing the block keeps a chain map; key 7, which x does not list,
    reads the tail, and a component there does not meet the germ."""
    for key in sorted(x.slots.explicit) + [7]:
        d = x.d_slot(key)
        for g, s in sorted(VMap.identity(x.slot(key)).blocks):
            if (g, s) not in d.blocks and (g + 1, s) not in d.blocks:
                return key, (g, s)
    return None


def _identity_but(x: DihedralObject, key, block, mat) -> DihedralMorphism:
    """The identity of x with its block at (key, block) replaced by mat, or
    dropped where mat is None."""
    blocks = dict(VMap.identity(x.slot(key)).blocks)
    if mat is None:
        del blocks[block]
    else:
        blocks[block] = mat
    comps = {k: VMap.identity(x.slot(k)) for k in x.keys()}
    comps[key] = VMap(x.slot(key), x.slot(key), 0, blocks)
    return DihedralMorphism(x, x, 0, VMap.identity(x.m_inf), comps)


def test_the_identity_is_a_weak_equivalence_without_ranks(monkeypatch):
    # the identity rule answers without a rank; look-alikes, each a chain
    # map that is not the identity of its object, take the rank path and
    # agree with both oracles
    import so3alg.dihedral as dihedral

    calls = []
    real = dihedral.is_quasi_isomorphism
    monkeypatch.setattr(dihedral, "is_quasi_isomorphism", lambda *a: calls.append(1) or real(*a))
    rng = random.Random(2730)
    kinds = {}
    for trial in range(12):
        x = rand_chain_object(rng) if trial % 3 else rand_object(rng)
        ident = DihedralMorphism.identity(x)
        calls.clear()
        assert is_weak_equivalence(ident) and calls == []
        assert weak_equivalence_oracle(ident)
        twin = DihedralObject(x.m_inf, x.slots, x.germ, x.d_inf, x.d_slots)
        assert twin == x and twin is not x
        lookalikes = {
            "into an equal copy": DihedralMorphism(
                x, twin, 0, VMap.identity(x.m_inf), {k: VMap.identity(x.slot(k)) for k in x.keys()},
            ),
            "degree 1": levelwise_map(x, suspend_dihedral(x, 1), 1, _identity_blocks),
            "degree -1": levelwise_map(x, suspend_dihedral(x, -1), -1, _identity_blocks),
        }
        found = _isolated_block(x)
        if found is not None:
            key, (g, s) = found
            n = x.slot(key).dim(g, s)
            lookalikes["a block scaled by 2"] = _identity_but(x, key, (g, s), QMatrix.identity(n).scale(2))
            lookalikes["a block missing"] = _identity_but(x, key, (g, s), None)
        for kind, f in lookalikes.items():
            assert not f.is_identity() and f.is_valid() and f.is_chain_map(), kind
            calls.clear()
            got = is_weak_equivalence(f)
            assert calls, kind
            assert got == weak_equivalence_oracle(f), kind
            kinds.setdefault(kind, set()).add(got)
    assert kinds == {
        "into an equal copy": {True}, "degree 1": {True}, "degree -1": {True},
        "a block scaled by 2": {True}, "a block missing": {False},
    }


def _vmap_storage(f: VMap):
    """Everything a V-map holds: its type, and each block, the matrix object
    itself and a deep copy of its storage."""
    return (
        dict(f.domain.dims), dict(f.codomain.dims), f.degree,
        {key: (id(m), m.rows, m.cols, m.den, copy.deepcopy(m.ints)) for key, m in f.blocks.items()},
    )


def _held_maps(*items):
    """Every V-map the given objects and morphisms hold."""
    out = []
    for item in items:
        if isinstance(item, DihedralObject):
            out += [item.d_inf, *item.germ.values(), *item.d_slots.values()]
        else:
            out += [item.f_inf, *item.f_slots.values()]
    return out


@pytest.mark.parametrize("seed", range(3))
def test_no_dihedral_construction_changes_an_input_or_a_shared_identity(seed):
    # trusted constructions may return an input's blocks, or a shared
    # identity, inside their results: nothing may write into them
    rng = random.Random(2740 + seed)
    x = direct_sum_dihedral(rand_chain_object(rng), functor_const(plus_part(rand_complex(rng))))
    y = rand_chain_object(rng)
    ident = DihedralMorphism.identity(x)
    inc, proj = summand_map(x, y, 0, 2), summand_map(x, y, 0, 1, project=True)
    inputs = _held_maps(x, y, ident, inc, proj)
    identities = [QMatrix.identity(k) for k in range(6)]
    saved = [_vmap_storage(f) for f in inputs]
    saved_identities = [copy.deepcopy(m.ints) for m in identities]
    eps = counit_const(x)
    results = [
        cone(ident), cone(inc), ident.compose(ident), proj.compose(inc), inc.compose(ident),
        direct_sum_dihedral(x, y), homology_Ch(x), homology_Ch(cone(inc)), eps,
        germ_fixed_points(x), map_germ_fixed_points(eps),
        is_weak_equivalence(ident), is_weak_equivalence(inc), is_weak_equivalence(eps),
        is_weak_equivalence(proj.compose(inc)),
    ]
    assert results  # kept alive while the inputs are compared
    assert [_vmap_storage(f) for f in inputs] == saved
    assert [m.ints for m in identities] == saved_identities
    for k, m in enumerate(identities):
        assert QMatrix.identity(k) is m and m.is_identity()


def test_the_dihedral_sharing_guard_sees_a_planted_write(monkeypatch):
    # a compose that puts an equal copy in place of each block of its right
    # factor changes no value, but writes into an input's blocks
    real = VMap.compose

    def rewriting_compose(self, other):
        for key, mat in list(other.blocks.items()):
            other.blocks[key] = copy.copy(mat)
        return real(self, other)

    monkeypatch.setattr(VMap, "compose", rewriting_compose)
    with pytest.raises(AssertionError):
        test_no_dihedral_construction_changes_an_input_or_a_shared_identity(0)
