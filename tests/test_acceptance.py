"""End-to-end acceptance gate: one check per criterion, one line each."""

import random
from fractions import Fraction as F

import pytest

from so3alg import burnside
from so3alg.dihedral import (
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
    homology_Ch,
    map_germ_fixed_points,
    unit_const,
    unit_i_p,
    unit_p_i,
    zero_dihedral,
)
from so3alg.errors import EngineError, NotADifferential
from so3alg.exceptional import (
    EXCEPTIONAL_CLASSES,
    GroupComplex,
    homology_W,
    tensor_diagonal,
    weyl_group_of,
)
from so3alg.graded import (
    FREE,
    POLY_C,
    POLY_D,
    TORSION,
    GradedModule,
    ModuleMap,
    Summand,
)
from so3alg.linalg import Q, QMatrix
from so3alg.toral import (
    TAIL,
    QWSpace,
    SlotFamily,
    Slots,
    ToralMorphism,
    ToralObject,
    VMap,
    adams_bracket,
    check_star,
    counit_of_adjunction,
    counit_of_twisted_adjunction,
    direct_sum_objects,
    ext_A,
    functor_F,
    functor_F_twisted,
    functor_R,
    functor_R_twisted,
    hom_A,
    homology_dA,
    injective_resolution,
    laurent_model,
    make_eV,
    make_fN,
    map_F,
    map_F_twisted,
    map_R,
    map_R_twisted,
    parity_split,
    sigma_H,
    sigma_T,
    sigma_T_minus,
    sigma_one,
    sphere,
    suspend_object,
    unit_of_adjunction,
    unit_of_twisted_adjunction,
    wide_sphere_cover,
)


def report(n, name):
    print(f"[criterion {n}] {name}: PASS")


# -- random object factories ---------------------------------------------------


def rand_qw(rng, maxdim=2, degrees=(-2, 3)):
    dims = {}
    for g in range(degrees[0], degrees[1]):
        if rng.random() < 0.5:
            dims[g] = (rng.randint(0, maxdim), rng.randint(0, maxdim))
    return QWSpace(dims)


def rand_torsion_module(rng, ring, sign_free=True, count=None):
    summands = []
    for _ in range(count if count is not None else rng.randint(1, 3)):
        sign = rng.choice((1, -1)) if sign_free else 1
        summands.append(
            Summand(TORSION, rng.randint(-6, 6), sign, rng.randint(1, 3))
        )
    return GradedModule(ring, summands)


def rand_torsion_family(rng):
    explicit = {}
    for n in rng.sample(range(2, 7), rng.randint(1, 3)):
        explicit[n] = rand_torsion_module(rng, POLY_C)
    if rng.random() < 0.4:
        explicit[1] = rand_torsion_module(rng, POLY_D, sign_free=False)
    return SlotFamily("SO3", explicit, GradedModule.zero(POLY_C))


def rand_star_object(rng):
    """A random object satisfying the localization condition, built from
    injective envelopes, torsion families, and suspended generators."""
    parts = []
    if rng.random() < 0.6:
        parts.append(make_fN(rand_torsion_family(rng)))
    if rng.random() < 0.6:
        v = rand_qw(rng)
        if not v.is_zero():
            parts.append(make_eV(v))
    named = [sigma_one, lambda: sigma_H(rng.randint(2, 6)), sphere, sigma_T_minus]
    for make in rng.sample(named, rng.randint(0, 2)):
        parts.append(suspend_object(make(), rng.randint(-3, 3)))
    if not parts:
        parts = [sphere()]
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum_objects(out, p)
    return out


def rand_germ_object(rng):
    m_inf = QWSpace({g: (rng.randint(0, 2), 0) for g in range(0, 3)})
    tail = rand_qw(rng)
    explicit = {
        k: rand_qw(rng) for k in rng.sample([3, 4, 5, 6], rng.randint(0, 2))
    }
    germ = {TAIL: rand_vmap(rng, m_inf, tail)}
    for k in explicit:
        germ[k] = rand_vmap(rng, m_inf, explicit[k])
    return DihedralObject(m_inf, Slots(explicit, tail), germ)


def rand_vmap(rng, dom, cod, degree=0):
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


def rand_qw_complex(rng, degrees=range(0, 4)):
    space = QWSpace(
        {g: (rng.randint(0, 2), rng.randint(0, 2)) for g in degrees}
    )
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
                coef = QMatrix(
                    K.cols, cols,
                    [[F(rng.randint(-1, 1)) for _ in range(cols)] for _ in range(K.cols)],
                )
                mat = K @ coef
            if not mat.is_zero():
                blocks[(g, s)] = mat
            prev_kernel[s] = mat.kernel_basis()
    d = VMap(space, space, -1, blocks)
    assert d.compose(d).is_zero()
    return QWComplex(space, d)


def rand_chain_object(rng):
    out = zero_dihedral()
    for k in rng.sample([3, 4, 5], rng.randint(1, 2)):
        out = direct_sum_dihedral(out, functor_i_k(rand_qw_complex(rng), k))
    trivial = QWComplex(QWSpace({g: (rng.randint(0, 2), 0) for g in range(0, 3)}))
    return direct_sum_dihedral(out, functor_const(trivial))


def regular_rep(alg):
    acts = {}
    for e in range(alg.order):
        acts[e] = QMatrix.from_entries(alg.order, alg.order, {(alg.mult(e, b), b): Q(1) for b in range(alg.order)})
    return (alg.order, acts)


def right_translation(alg, a):
    return QMatrix.from_entries(alg.order, alg.order, {(alg.mult(b, a), b): Q(1) for b in range(alg.order)})


def rand_group_complex(rng, alg):
    d = QMatrix(alg.order, alg.order)
    for a in range(alg.order):
        c = Q(rng.randint(-2, 2))
        if c:
            d = d + right_translation(alg, a).scale(c)
    return GroupComplex(
        alg, {0: regular_rep(alg), 1: regular_rep(alg)}, {1: d}
    )


def group_homology_oracle(x):
    out = {}
    for g in x.modules:
        nullity = x.dim(g) - x.diff(g).rank()
        out[g] = nullity - x.diff(g + 1).rank()
    return {g: d for g, d in out.items() if d}


def qw_homology_oracle(c: QWComplex):
    dims = {}
    degs = set(c.space.dims)
    for g in degs:
        for s in (1, -1):
            n = c.space.dim(g, s)
            down = c.d.block(g, s)
            up = c.d.block(g + 1, s)
            h = (n - down.rank()) - up.rank()
            if h:
                p, m = dims.get(g, (0, 0))
                dims[g] = (p + h, 0) if s == 1 else (p, m + h)
    return dims


# -- criterion 1: burnside identities ----------------------------------------------


def test_criterion_1_burnside_identities():
    one = burnside.unit("SO3")
    zero = burnside.zero("SO3")
    e_t = burnside.idempotent("SO3", "T")
    e_d = burnside.idempotent("SO3", "D")
    e_e = zero
    for cls in burnside.EXCEPTIONAL_SO3:
        e_e = e_e + burnside.idempotent("SO3", cls)
    assert e_t + e_d + e_e == one
    assert e_t * e_d == zero and e_t * e_e == zero and e_d * e_e == zero
    parts = burnside.split_exceptional(e_e)
    total = zero
    for name in burnside.EXCEPTIONAL_SO3:
        total = total + parts[name]
    assert total == e_e
    e_t_tilde = burnside.idempotent("O2", "T")
    e_d_tilde = burnside.unit("O2") - e_t_tilde
    i_e_t = burnside.restrict_to_O2(e_t)
    i_e_d = burnside.restrict_to_O2(e_d)
    assert e_t_tilde * i_e_t == e_t_tilde
    assert i_e_d * e_d_tilde == i_e_d
    assert i_e_t != e_t_tilde  # the order-2 dihedral class sees the discrepancy
    report(1, "burnside identities")


# -- criterion 2: cell-image fixtures ------------------------------------------------


def test_criterion_2_cell_image_fixtures():
    # F~(sigma_1): a length-2 torsion tower at the trivial-subgroup slot,
    # generated in degree 0 with the sign action on top
    want_1 = ToralObject(
        "O2",
        SlotFamily(
            "O2",
            {1: GradedModule(POLY_C, [Summand(TORSION, 0, -1, 2)])},
            GradedModule.zero(POLY_C),
        ),
        QWSpace.zero(),
        {},
    )
    assert functor_F_twisted(sigma_one()) == want_1

    # F~(sigma_H): the regular involution line pair at the single slot
    for n in range(2, 7):
        want_h = ToralObject(
            "O2",
            SlotFamily(
                "O2",
                {n: GradedModule(
                    POLY_C,
                    [Summand(TORSION, 0, 1, 1), Summand(TORSION, 0, -1, 1)],
                )},
                GradedModule.zero(POLY_C),
            ),
            QWSpace.zero(),
            {},
        )
        assert functor_F_twisted(sigma_H(n)) == want_h

    # F~(sigma_T): free rank two at every slot mapping onto the localized
    # rank-(1,1) space, with the degree-2 sign generator at the trivial slot
    v = QWSpace({0: (1, 1)})
    lmod, _tags, lpos = laurent_model(v, False)
    slot1 = GradedModule(POLY_C, [Summand(FREE, 2, -1), Summand(FREE, 0, -1)])
    tail = GradedModule(POLY_C, [Summand(FREE, 0, 1), Summand(FREE, 0, -1)])
    beta = {
        1: ModuleMap(slot1, lmod, 0, {
            (lpos[(0, 1, 0)], 0): Q(1),
            (lpos[(0, -1, 0)], 1): Q(1),
        }),
        TAIL: ModuleMap(tail, lmod, 0, {
            (lpos[(0, 1, 0)], 0): Q(1),
            (lpos[(0, -1, 0)], 1): Q(1),
        }),
    }
    want_t = ToralObject("O2", SlotFamily("O2", {1: slot1}, tail), v, beta)
    assert functor_F_twisted(sigma_T()) == want_t
    report(2, "cell-image fixtures")


# -- criterion 3: adjunction suite ----------------------------------------------------


def test_criterion_3_adjunction_suite():
    rng = random.Random(31)
    for trial in range(100):
        x = rand_star_object(rng)
        assert unit_of_adjunction(x) == ToralMorphism.identity(x)
        assert unit_of_twisted_adjunction(x) == ToralMorphism.identity(x)
        fx = functor_F(x)
        tri = counit_of_adjunction(fx).compose(map_F(unit_of_adjunction(x)))
        assert tri == ToralMorphism.identity(fx)
        ftx = functor_F_twisted(x)
        tri = counit_of_twisted_adjunction(ftx).compose(
            map_F_twisted(unit_of_twisted_adjunction(x))
        )
        assert tri == ToralMorphism.identity(ftx)
        rfx = functor_R(fx)
        tri = map_R(counit_of_adjunction(fx)).compose(unit_of_adjunction(rfx))
        assert tri == ToralMorphism.identity(rfx)
        rftx = functor_R_twisted(ftx)
        tri = map_R_twisted(counit_of_twisted_adjunction(ftx)).compose(
            unit_of_twisted_adjunction(rftx)
        )
        assert tri == ToralMorphism.identity(rftx)

    for trial in range(100):
        m = rand_germ_object(rng)
        k = rng.choice([3, 4, 5])
        x = QWComplex(rand_qw(rng))
        # triangle identities for (i_k, p_k)
        assert counit_i_p(functor_i_k(x, k), k).f_slots[k] == unit_i_p(x, k)
        assert counit_i_p(m, k).f_slots[k].compose(
            unit_i_p(functor_p_k(m, k), k)
        ) == VMap.identity(m.slot(k))
        # triangle identities for (p_k, i_k)
        assert counit_p_i(functor_p_k(m, k), k).compose(
            unit_p_i(m, k).f_slots[k]
        ) == VMap.identity(m.slot(k))
        assert counit_p_i(x, k).compose(
            unit_p_i(functor_i_k(x, k), k).f_slots[k]
        ) == VMap.identity(x.space)
        # triangle identities for the constant/fixed-point pair
        a = QWComplex(QWSpace({g: (rng.randint(0, 2), 0) for g in range(2)}))
        assert unit_const(a) == VMap.identity(a.space)
        eps_const = counit_const(functor_const(a))
        assert eps_const.f_inf == VMap.identity(a.space)
        eps = counit_const(m)
        assert eps.is_valid()
        assert map_germ_fixed_points(eps) == VMap.identity(
            germ_fixed_points(m).space
        )
    report(3, "adjunction suite")


# -- criterion 4: abelian structure ---------------------------------------------------


def legal_entry_count(dom, cod, t):
    total = 0
    for j in range(len(dom.summands)):
        for i in range(len(cod.summands)):
            try:
                m = ModuleMap(dom, cod, t, {(i, j): Q(1)})
            except EngineError:
                continue
            total += len(m.entries)
    return total


def test_criterion_4_abelian_structure():
    rng = random.Random(41)
    for trial in range(100):
        x = rand_star_object(rng)
        res = injective_resolution(x)
        assert res.check_exact()
        if trial % 4 == 0:
            even, odd = parity_split(x)
            for part, parity in ((even, 0), (odd, 1)):
                if part.is_zero():
                    continue
                pres = injective_resolution(part)
                for stage in (pres.Y0, pres.Y1):
                    for m in stage.all_modules():
                        assert all(s.shift % 2 == parity for s in m.summands)
                    assert all(g % 2 == parity for g in stage.V.dims)
            # hom and ext vanish across parities in even degrees
            if not even.is_zero() and not odd.is_zero():
                for t in (0, 2):
                    assert hom_A(even, odd, [t])[t] == 0
                    assert hom_A(odd, even, [t])[t] == 0
                    assert ext_A(even, odd, [t])[t] == (0, 0)
        # ext against an injective envelope always vanishes
        if trial % 5 == 0:
            v = rand_qw(rng)
            ev = make_eV(v)
            t = rng.randint(-2, 2)
            hom_dim, ext_dim = ext_A(x, ev, [t])[t]
            assert ext_dim == 0
            # right-adjoint dimension formula for e(V)
            want = sum(
                x.V.dim(g, s) * v.dim(g + t, s)
                for g in x.V.dims
                for s in (1, -1)
            )
            assert hom_dim == want
            # right-adjoint dimension formula for f(N)
            fam = rand_torsion_family(rng)
            fn = make_fN(fam)
            keys = sorted(set(x.M.explicit) | set(fam.explicit)) + [TAIL]
            want = sum(
                legal_entry_count(x.M[k], fam[k], t) for k in keys
            )
            assert hom_A(x, fn, [t])[t] == want
    report(4, "abelian structure suite")


# -- criterion 5: wide spheres --------------------------------------------------------


def sign_pure_vector(rng, m, g):
    basis = m.basis(g)
    groups = {1: [], -1: []}
    for pos, (i, b) in enumerate(basis):
        groups[m.basis_sign(i, b)].append(pos)
    sides = [s for s in (1, -1) if groups[s]]
    if not sides:
        return None
    s = rng.choice(sides)
    vec = [Q(0)] * len(basis)
    for pos in groups[s]:
        vec[pos] = Q(rng.randint(-2, 2))
    if all(v == 0 for v in vec):
        vec[groups[s][0]] = Q(1)
    return vec


def rand_small_star_object(rng):
    parts = []
    roll = rng.random()
    if roll < 0.4:
        explicit = {
            n: rand_torsion_module(rng, POLY_C, count=rng.randint(1, 2))
            for n in rng.sample(range(2, 7), rng.randint(1, 2))
        }
        parts.append(make_fN(SlotFamily("SO3", explicit, GradedModule.zero(POLY_C))))
    elif roll < 0.8:
        v = rand_qw(rng, maxdim=1, degrees=(-1, 2))
        if not v.is_zero():
            parts.append(make_eV(v))
    named = [sigma_one, lambda: sigma_H(rng.randint(2, 6)), sphere, sigma_T_minus]
    parts.append(suspend_object(rng.choice(named)(), rng.randint(-2, 2)))
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum_objects(out, p)
    return out


def test_criterion_5_wide_sphere_suite():
    rng = random.Random(51)
    for trial in range(50):
        x = rand_small_star_object(rng)
        spots = [
            (key, g)
            for key in x.keys()
            for g in range(-8, 9)
            if x.M[key].dim(g)
        ]
        for key, g in rng.sample(spots, min(3, len(spots))):
            vec = sign_pure_vector(rng, x.M[key], g)
            P, mor = wide_sphere_cover(x, key, g, vec)
            assert check_star(P)
            assert mor.is_valid()
            # the element lies in the image of the slot component
            assert mor.alpha[key].evaluate(g).solve(list(vec)) is not None
        if trial % 10 == 0:
            # assembling covers of every summand generator is surjective
            morphisms = []
            for key in x.keys():
                m = x.M[key]
                for i, s in enumerate(m.summands):
                    # cover each summand at its generator; for a Laurent
                    # piece use a basis element at the top of the window
                    # instead, since the Euler variables act downward
                    if s.kind == "laurent":
                        found = None
                        for g in range(11, -9, -1):
                            pairs = [pc for pc in m.basis(g) if pc[0] == i]
                            if pairs:
                                found = (g, pairs[0])
                                break
                        if found is None:
                            continue
                        g, pair = found
                    else:
                        g, pair = s.shift, (i, 0)
                    basis = m.basis(g)
                    vec = [Q(0)] * len(basis)
                    vec[basis.index(pair)] = Q(1)
                    morphisms.append(wide_sphere_cover(x, key, g, vec)[1])
            for key in x.keys():
                m = x.M[key]
                for g in range(-8, 9):
                    dim = m.dim(g)
                    if not dim:
                        continue
                    cols = []
                    for mor in morphisms:
                        mat = mor.alpha[key].evaluate(g)
                        for j in range(mat.cols):
                            cols.append(mat.col(j))
                    combined = QMatrix(
                        dim, len(cols),
                        [[cols[j][i] for j in range(len(cols))] for i in range(dim)],
                    )
                    assert combined.rank() == dim
    report(5, "wide-sphere suite")


# -- criterion 6: homology suites -----------------------------------------------------


def _incl_first(dom, total, g_shift=0):
    blocks = {}
    for g in dom.dims:
        for s in (1, -1):
            r, c = total.dim(g, s), dom.dim(g, s)
            if r and c:
                blocks[(g, s)] = QMatrix.from_entries(r, c, {(i, i): Q(1) for i in range(c)})
    return VMap(dom, total, 0, blocks)


def test_criterion_6_homology_suites():
    rng = random.Random(61)
    # negative tests: bad differentials are rejected
    bad_mod = GradedModule(
        POLY_C,
        [Summand(TORSION, 0, 1, 2), Summand(TORSION, -1, 1, 2), Summand(TORSION, -2, 1, 2)],
    )
    fam = SlotFamily("SO3", {2: bad_mod}, GradedModule.zero(POLY_C))
    base = make_fN(fam)
    bad_d = {k: ModuleMap.zero(base.M[k], base.M[k], -1) for k in base.keys()}
    i0 = bad_mod.summands.index(Summand(TORSION, 0, 1, 2))
    i1 = bad_mod.summands.index(Summand(TORSION, -1, 1, 2))
    i2 = bad_mod.summands.index(Summand(TORSION, -2, 1, 2))
    bad_d[2] = ModuleMap(bad_mod, bad_mod, -1, {(i1, i0): Q(1), (i2, i1): Q(1)})
    bad = ToralObject("SO3", fam, QWSpace.zero(), {}, bad_d, VMap.zero(QWSpace.zero(), QWSpace.zero(), -1))
    with pytest.raises(NotADifferential):
        homology_dA(bad)
    with pytest.raises(NotADifferential):
        sp = QWSpace({0: (1, 0), 1: (1, 0), 2: (1, 0)})
        d = VMap(sp, sp, -1, {(1, 1): QMatrix.identity(1), (2, 1): QMatrix.identity(1)})
        QWComplex(sp, d).check_differential()
    with pytest.raises(NotADifferential):
        alg = weyl_group_of("SO3")
        one = {0: QMatrix.identity(1)}
        GroupComplex(
            alg,
            {g: (1, one) for g in (0, 1, 2)},
            {1: QMatrix.identity(1), 2: QMatrix.identity(1)},
        ).check_differential()

    # mapping cones: the long-exact-sequence alternating-sum identity
    for trial in range(20):
        x = rand_chain_object(rng)
        y = rand_chain_object(rng)
        total = direct_sum_dihedral(x, y)
        zero_map = DihedralMorphism(
            x, y, 0,
            VMap.zero(x.m_inf, y.m_inf),
            {k: VMap.zero(x.slot(k) if k in x.slots.explicit or k == TAIL else x.slots.tail, y.slots.tail)
             for k in [TAIL]},
        )
        cz = cone(zero_map)
        ident = DihedralMorphism.identity(x)
        ci = cone(ident)
        for probe, src, dst in ((cz, x, y), (ci, x, x)):
            hc = homology_Ch(probe)
            hx = homology_Ch(src)
            hy = homology_Ch(dst)
            for level in ["inf"] + sorted(set(hc.slots.explicit) | set(hx.slots.explicit) | set(hy.slots.explicit)) + [TAIL]:
                def dims_of(obj, g):
                    if level == "inf":
                        return sum(obj.m_inf.dims.get(g, (0, 0)))
                    return sum(obj.slot(level).dims.get(g, (0, 0)))
                alt = 0
                for g in range(-6, 8):
                    alt += (-1) ** (g % 2) * (dims_of(hx, g) - dims_of(hy, g) + dims_of(hc, g))
                assert alt == 0
        assert homology_Ch(ci).m_inf.is_zero()

    # dihedral levelwise homology against the dense oracle
    for trial in range(100):
        x = rand_chain_object(rng)
        h = homology_Ch(x)
        for key in x.keys():
            want = qw_homology_oracle(QWComplex(x.slot(key), x.d_slot(key)))
            assert {g: pm for g, pm in h.slot(key).dims.items() if pm != (0, 0)} == want
        want_inf = qw_homology_oracle(QWComplex(x.m_inf, x.d_inf))
        assert {g: pm for g, pm in h.m_inf.dims.items() if pm != (0, 0)} == want_inf

    # exceptional levelwise homology against the dense oracle
    for trial in range(100):
        alg = weyl_group_of(rng.choice(EXCEPTIONAL_CLASSES))
        x = rand_group_complex(rng, alg)
        h = homology_W(x)
        assert {g: h.dim(g) for g in h.degrees()} == group_homology_oracle(x)

    # Künneth over Q
    for trial in range(50):
        alg = weyl_group_of(rng.choice(EXCEPTIONAL_CLASSES))
        x = rand_group_complex(rng, alg)
        y = rand_group_complex(rng, alg)
        hx, hy = group_homology_oracle(x), group_homology_oracle(y)
        want = {}
        for p, a in hx.items():
            for q, b in hy.items():
                want[p + q] = want.get(p + q, 0) + a * b
        got = group_homology_oracle(tensor_diagonal(x, y))
        assert got == {g: d for g, d in want.items() if d}
    report(6, "homology suites")


# -- criterion 7: the Weyl table ------------------------------------------------------


def test_criterion_7_weyl_table():
    orders = [weyl_group_of(c).order for c in ("SO3", "Sigma4", "A4", "A5", "D4")]
    assert orders == [1, 1, 2, 1, 6]
    w = weyl_group_of("D4")
    element_orders = sorted(w.element_order(a) for a in range(6))
    assert element_orders == [1, 2, 2, 2, 3, 3]
    assert any(w.mult(a, b) != w.mult(b, a) for a in range(6) for b in range(6))
    report(7, "Weyl table")


# -- criterion 8: generator sanity ----------------------------------------------------


def truncated_generators():
    return [sigma_one()] + [sigma_H(n) for n in range(2, 7)] + [
        sphere(),
        sigma_T_minus(),
    ]


def rand_differential_object(rng):
    """A torsion-family object with differential: a sum of acyclic disks
    and plain summands with zero differential."""
    explicit, entries = {}, {}
    nonzero_homology = False
    for n in rng.sample(range(1, 7), rng.randint(1, 3)):
        ring = POLY_D if n == 1 else POLY_C
        summands = []
        shifts = rng.sample(range(-4, 5), 4)
        dm_pairs = []
        if rng.random() < 0.7:
            # an acyclic disk: a shifted copy mapping isomorphically down
            s = shifts.pop()
            sign = 1 if n == 1 else rng.choice((1, -1))
            length = rng.randint(1, 2)
            summands.append(Summand(TORSION, s + 1, sign, length))
            summands.append(Summand(TORSION, s, sign, length))
            dm_pairs.append((Summand(TORSION, s, sign, length),
                             Summand(TORSION, s + 1, sign, length)))
        if rng.random() < 0.5:
            s = shifts.pop()
            sign = 1 if n == 1 else rng.choice((1, -1))
            summands.append(Summand(TORSION, s, sign, rng.randint(1, 2)))
            nonzero_homology = True
        if not summands:
            continue
        mod = GradedModule(ring, summands)
        explicit[n] = mod
        ent = {}
        for dst, src in dm_pairs:
            i = mod.summands.index(dst)
            j = mod.summands.index(src)
            ent[(i, j)] = Q(1)
        entries[n] = ent
    if not explicit:
        explicit = {2: GradedModule(POLY_C, [Summand(TORSION, 0, 1, 1)])}
        entries[2] = {}
        nonzero_homology = True
    fam = SlotFamily("SO3", explicit, GradedModule.zero(POLY_C))
    dM = {}
    for k in fam.keys():
        mod = fam[k]
        dM[k] = ModuleMap(mod, mod, -1, entries.get(k, {}))
    x = ToralObject(
        "SO3", fam, QWSpace.zero(), {}, dM,
        VMap.zero(QWSpace.zero(), QWSpace.zero(), -1),
    )
    return x, nonzero_homology


def test_criterion_8_generator_sanity():
    rng = random.Random(81)
    window = (-12, 12)
    degrees = range(window[0], window[1] + 1)
    gens = truncated_generators()
    for trial in range(25):
        x, expect_nonzero = rand_differential_object(rng)
        h = homology_dA(x)
        h_zero = all(m.is_zero() for m in h.all_modules()) and h.V.is_zero()
        assert h_zero != expect_nonzero
        bracket_nonzero = False
        for sigma in gens:
            table = adams_bracket(sigma, x, degrees, window)
            if any(v != (0, 0) for v in table.values()):
                bracket_nonzero = True
                break
        assert bracket_nonzero == (not h_zero)
    report(8, "generator sanity")
