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
from so3alg.errors import BadIndex, NotADifferential, SchemaError
from so3alg.linalg import Q, QMatrix, block_matrix
from so3alg.toral import QWSpace, Slots, VMap


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


def rand_object(rng):
    """A random germ object without differential."""
    m_inf = QWSpace({g: (rng.randint(0, 2), 0) for g in range(0, 3)})
    tail = rand_space(rng)
    explicit = {
        k: rand_space(rng) for k in rng.sample([3, 4, 5, 6], rng.randint(0, 2))
    }
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
from so3alg.linalg import QMatrix
from so3alg.toral import QWSpace, VMap

x = functor_const(QWComplex(QWSpace({0: (1, 0), 1: (2, 0), 2: (1, 0)})))
for k in (3, 5):
    x = direct_sum_dihedral(x, functor_i_k(QWComplex(QWSpace({0: (1, 1), 1: (2, 1)})), k))
# the identity except at slot 5, where it is zero: only slot 5 fails
f = DihedralMorphism(x, x, 0, VMap.identity(x.m_inf),
                     {key: VMap.identity(x.slot(key)) for key in x.keys() if key != 5})
calls = 0
rref = QMatrix.rref

def counted(self):
    global calls
    calls += 1
    return rref(self)

QMatrix.rref = counted
out = []
for predicate in (is_weak_equivalence, is_fibration):
    calls = 0
    out.append([predicate(f), calls])
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
    assert [result for result, _calls in outs[0]] == [False, False]


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


def test_each_level_homology_is_computed_once_per_call(monkeypatch):
    # the identity's source and target levels are the same objects, and so
    # are the constant functor's levels at infinity and at the tail; nothing
    # is kept from one call to the next
    import so3alg.dihedral as dihedral

    rng = random.Random(131)
    objects = [make_generator_dihedral("const"), make_generator_dihedral(3)]
    objects += [rand_object(rng) for _ in range(4)] + [rand_chain_object(rng) for _ in range(6)]
    objects += _workload_chain_objects()
    objects += [padded(m) for m in objects[::3]]
    # without the sharing: one qw_homology per level asked for
    monkeypatch.setattr(dihedral, "_level_homology", lambda: dihedral.qw_homology)
    unshared = [homology_Ch(x) for x in objects]
    monkeypatch.undo()
    calls = []
    real = dihedral.qw_homology
    monkeypatch.setattr(
        dihedral, "qw_homology", lambda space, d: calls.append((id(space), id(d))) or real(space, d)
    )
    shared = 0
    for x, expected in zip(objects, unshared):
        levels = _level_pairs(x)
        shared += len(levels) < 1 + len(x.keys())
        for run, result in [
            (lambda: is_weak_equivalence(DihedralMorphism.identity(x)), True),
            (lambda: homology_Ch(x), expected),
        ]:
            for _ in range(2):
                calls.clear()
                assert run() == result
                assert sorted(calls) == sorted(levels)
    assert shared >= 4, shared


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
