import random
from itertools import permutations

import pytest

from so3alg.errors import (
    AlgebraMismatch,
    BadClass,
    InvariantError,
    NotADifferential,
    SchemaError,
    WrongAlgebraForClass,
)
from so3alg.exceptional import (
    EXCEPTIONAL_CLASSES,
    ExceptionalProduct,
    FiniteGroupAlg,
    GroupChainMap,
    GroupComplex,
    homology_W,
    internal_hom_conj,
    is_fib,
    is_weq,
    order_two_group,
    product_assemble,
    product_is_weq,
    tensor_diagonal,
    trivial_group,
    unit_complex,
    weyl_group_of,
    zero_complex,
)
from so3alg.linalg import Q, QMatrix, chain_homology


def regular_rep(alg):
    acts = {}
    for e in range(alg.order):
        acts[e] = QMatrix.from_entries(alg.order, alg.order, {(alg.mult(e, b), b): Q(1) for b in range(alg.order)})
    return (alg.order, acts)


def right_translation(alg, a):
    return QMatrix.from_entries(alg.order, alg.order, {(alg.mult(b, a), b): Q(1) for b in range(alg.order)})


def random_equivariant(alg, rng):
    """A random combination of right translations; always equivariant for
    the regular representation."""
    m = QMatrix(alg.order, alg.order)
    for a in range(alg.order):
        c = Q(rng.randint(-2, 2))
        if c:
            m = m + right_translation(alg, a).scale(c)
    return m


def small_rep(alg):
    """A faithful representation of minimal dimension, extended from
    matrices on a generating pair by multiplying out words."""
    if alg.order == 1:
        return (1, {0: QMatrix.identity(1)})
    if alg.order == 2:
        return (1, {0: QMatrix.identity(1), 1: QMatrix(1, 1, [[Q(-1)]])})
    r = next(a for a in range(alg.order) if alg.element_order(a) == 3)
    s = next(a for a in range(alg.order) if alg.element_order(a) == 2)
    gen_mats = {
        r: QMatrix(2, 2, [[Q(0), Q(-1)], [Q(1), Q(-1)]]),
        s: QMatrix(2, 2, [[Q(0), Q(1)], [Q(1), Q(0)]]),
    }
    mats = {alg.identity: QMatrix.identity(2)}
    frontier = [alg.identity]
    while frontier:
        x = frontier.pop()
        for g, mg in gen_mats.items():
            y = alg.mult(g, x)
            if y not in mats:
                mats[y] = mg @ mats[x]
                frontier.append(y)
    return (2, mats)


def small_two_step(alg, rng):
    dim, mats = small_rep(alg)
    d = QMatrix.identity(dim).scale(Q(rng.randint(-2, 2)))
    return GroupComplex(alg, {0: (dim, mats), 1: (dim, mats)}, {1: d})


def small_three_step(alg):
    dim, mats = small_rep(alg)
    mods = {g: (dim, mats) for g in (0, 1, 2)}
    return GroupComplex(alg, mods, {1: QMatrix.identity(dim)})


def two_step_complex(alg, rng):
    return GroupComplex(
        alg,
        {0: regular_rep(alg), 1: regular_rep(alg)},
        {1: random_equivariant(alg, rng)},
    )


def norm_complex(alg):
    """Degrees 0..2 with d1 the norm and d2 = 1 - a translation."""
    n = alg.order
    norm = QMatrix(n, n)
    for a in range(n):
        norm = norm + right_translation(alg, a)
    d2 = QMatrix.identity(n) - right_translation(alg, (1 if n > 1 else 0))
    return GroupComplex(
        alg,
        {0: regular_rep(alg), 1: regular_rep(alg), 2: regular_rep(alg)},
        {1: norm, 2: d2},
    )


def homology_dims_oracle(x):
    out = {}
    degs = set(x.modules)
    for g in degs:
        n = x.dim(g)
        nullity = n - x.diff(g).rank()
        out[g] = nullity - x.diff(g + 1).rank()
    return {g: d for g, d in out.items() if d}


# -- group structure ------------------------------------------------------------


def test_weyl_orders():
    assert [weyl_group_of(c).order for c in EXCEPTIONAL_CLASSES] == [1, 1, 2, 1, 6]


def test_weyl_of_unknown_class():
    with pytest.raises(BadClass):
        weyl_group_of("C7")


def test_order_six_weyl_group_structure():
    w = weyl_group_of("D4")
    orders = sorted(w.element_order(a) for a in range(w.order))
    assert orders == [1, 2, 2, 2, 3, 3]
    # nonabelian
    assert any(
        w.mult(a, b) != w.mult(b, a) for a in range(6) for b in range(6)
    )


def test_bad_multiplication_tables_rejected():
    with pytest.raises(InvariantError):
        FiniteGroupAlg([[0, 1], [1, 1]])  # no inverse for 1
    with pytest.raises(InvariantError):
        FiniteGroupAlg([[1, 0], [0, 1]], identity=0)  # identity fails


def relabelled(table, identity, order):
    """The same group with element i renamed order[i]."""
    n = len(table)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[order[a]][order[b]] = order[table[a][b]]
    return out, order[identity]


def hand_written_groups():
    """C4, V4 and S3, relabelled so that the identity is not element 0."""
    c4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    v4 = [[a ^ b for b in range(4)] for a in range(4)]
    perms = list(permutations(range(3)))
    s3 = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return [
        FiniteGroupAlg(*relabelled(c4, 0, [2, 0, 3, 1])),
        FiniteGroupAlg(*relabelled(v4, 0, [3, 1, 0, 2])),
        FiniteGroupAlg(*relabelled(s3, 0, [4, 0, 5, 2, 1, 3])),
    ]


def test_generators_and_walk_cover_each_group():
    hand = hand_written_groups()
    assert [(alg.order, alg.identity) for alg in hand] == [(4, 2), (4, 3), (6, 4)]
    assert sorted(hand[2].element_order(a) for a in range(6)) == [1, 2, 2, 2, 3, 3]
    groups = [weyl_group_of(c) for c in EXCEPTIONAL_CLASSES] + hand
    for alg in groups:
        # the generators' closure under left multiplication, found afresh
        seen, frontier = {alg.identity}, [alg.identity]
        while frontier:
            x = frontier.pop(0)
            for s in alg.generators:
                if alg.mult(s, x) not in seen:
                    seen.add(alg.mult(s, x))
                    frontier.append(alg.mult(s, x))
        assert seen == set(range(alg.order))
        # the walk lists each other element once, as a generator times an
        # element it reached earlier
        order = [e for e, _s, _a in alg.walk]
        assert sorted(order) == [e for e in range(alg.order) if e != alg.identity]
        earlier = {alg.identity}
        for e, s, a in alg.walk:
            assert s in alg.generators
            assert alg.mult(s, a) == e
            assert a in earlier
            earlier.add(e)
        # a generator is reached from the identity
        assert [(e, s) for e, s, a in alg.walk if a == alg.identity] == [
            (s, s) for s in alg.generators
        ]


# -- complexes and validation ----------------------------------------------------


def test_non_representation_rejected():
    alg = order_two_group()
    bad = {0: QMatrix.identity(2), 1: QMatrix(2, 2, [[Q(1), Q(1)], [Q(0), Q(1)]])}
    with pytest.raises(InvariantError):
        GroupComplex(alg, {0: (2, bad)})


def test_non_equivariant_differential_rejected():
    alg = order_two_group()
    swap = QMatrix(2, 2, [[Q(0), Q(1)], [Q(1), Q(0)]])
    mods = {
        0: (2, {0: QMatrix.identity(2), 1: swap}),
        1: (2, {0: QMatrix.identity(2), 1: QMatrix.identity(2)}),
    }
    bad = QMatrix(2, 2, [[Q(1), Q(0)], [Q(0), Q(0)]])
    with pytest.raises(InvariantError):
        GroupComplex(alg, mods, {1: bad})


# non-unimodular changes of basis: conjugating by them gives actions with
# non-integral entries, so the checks must scale by the right denominators
P = QMatrix.from_rows([[2, 1], [0, 3]])
R = QMatrix.from_rows([[1, 1], [1, 3]])


def conjugated(rep, p):
    dim, mats = rep
    pinv = p.inverse()
    return dim, {e: p @ m @ pinv for e, m in mats.items()}


def test_rational_actions_are_checked_exactly():
    alg = weyl_group_of("D4")
    dim, acts = conjugated(small_rep(alg), P)
    assert any(x.denominator > 1 for m in acts.values() for i in range(m.rows) for x in m.row(i))
    GroupComplex(alg, {0: (dim, acts)})
    with pytest.raises(InvariantError, match="identity must act as the identity"):
        GroupComplex(alg, {0: (dim, {**acts, alg.identity: QMatrix.identity(2).scale(Q(1, 2))})})
    e = next(a for a in range(alg.order) if a != alg.identity)
    for bad in (acts[e].scale(2), acts[e].scale(Q(1, 2)), acts[e] + QMatrix.identity(2).scale(Q(1, 3))):
        with pytest.raises(InvariantError, match="not a representation"):
            GroupComplex(alg, {0: (dim, {**acts, e: bad})})
    # rho(1) = 1/2 squares to 1/4: its integral form squares to the integral
    # form of the identity, so only the denominators tell them apart
    half = {0: QMatrix.identity(1), 1: QMatrix(1, 1, [[Q(1, 2)]])}
    with pytest.raises(InvariantError, match="not a representation"):
        GroupComplex(order_two_group(), {0: (1, half)})


def test_rational_differentials_and_chain_maps_are_checked_exactly():
    alg = weyl_group_of("D4")
    rp, rr = conjugated(small_rep(alg), P), conjugated(small_rep(alg), R)
    intertwiner = R @ P.inverse()
    skewed = R @ QMatrix.diagonal([1, 2]) @ P.inverse()
    x = GroupComplex(alg, {0: rr, 1: rp}, {1: intertwiner.scale(Q(1, 3))})
    with pytest.raises(InvariantError, match="differential is not equivariant"):
        GroupComplex(alg, {0: rr, 1: rp}, {1: skewed})
    y = GroupComplex(alg, {0: rr, 1: rr}, {1: QMatrix.identity(2).scale(Q(1, 2))})
    f = GroupChainMap(x, y, {0: QMatrix.identity(2).scale(3), 1: intertwiner.scale(2)})
    assert f.is_chain_map()
    # equivariant in each degree but off by a scalar in degree 0
    g = GroupChainMap(x, y, {0: QMatrix.identity(2).scale(Q(3, 2)), 1: intertwiner.scale(2)})
    assert not g.is_chain_map()
    with pytest.raises(InvariantError, match="chain map is not equivariant"):
        GroupChainMap(x, y, {0: QMatrix.identity(2), 1: skewed})


def test_d_squared_checked():
    # a non-differential never becomes a complex: the constructor refuses it
    alg = trivial_group()
    one = {0: QMatrix.identity(1)}
    with pytest.raises(NotADifferential, match="d squared is not zero at degree 2"):
        GroupComplex(
            alg,
            {g: (1, one) for g in (0, 1, 2)},
            {1: QMatrix.identity(1), 2: QMatrix.identity(1)},
        )


def test_an_action_lacking_a_group_element_is_a_schema_error():
    alg = weyl_group_of("D4")
    one = QMatrix.identity(1)
    with pytest.raises(SchemaError, match="action at degree 0 lacks group element 2"):
        GroupComplex(alg, {0: (1, {0: one, 1: one})})
    with pytest.raises(SchemaError, match="action at degree 3 lacks group element 5"):
        GroupComplex(alg, {3: (1, (one,) * 5)})
    # a module of dimension zero carries no action to check
    assert GroupComplex(alg, {0: (0, {})}) == zero_complex(alg)


def test_each_generator_is_checked_against_differentials_and_chain_maps():
    # the standard representation of the order-six group: a matrix that
    # commutes with one generator's action but not with the other's
    alg = weyl_group_of("D4")
    assert len(alg.generators) == 2
    rep = small_rep(alg)
    mats = rep[1]
    for s, t in (alg.generators, alg.generators[::-1]):
        d = mats[s]
        assert mats[s] @ d == d @ mats[s] and mats[t] @ d != d @ mats[t]
        with pytest.raises(InvariantError, match="differential is not equivariant"):
            GroupComplex(alg, {0: rep, 1: rep}, {1: d})
        x = GroupComplex(alg, {0: rep})
        with pytest.raises(InvariantError, match="chain map is not equivariant"):
            GroupChainMap(x, x, {0: d})


# -- tensor -----------------------------------------------------------------------


def test_unit_laws():
    rng = random.Random(1)
    for cls in EXCEPTIONAL_CLASSES:
        alg = weyl_group_of(cls)
        x = two_step_complex(alg, rng)
        u = unit_complex(alg)
        assert tensor_diagonal(u, x) == x
        assert tensor_diagonal(x, u).modules == x.modules


def test_tensor_across_algebras_rejected():
    with pytest.raises(AlgebraMismatch):
        tensor_diagonal(unit_complex(trivial_group()), unit_complex(order_two_group()))
    with pytest.raises(AlgebraMismatch):
        internal_hom_conj(unit_complex(trivial_group()), unit_complex(order_two_group()))


def test_tensor_symmetric_dims_and_koszul():
    rng = random.Random(2)
    for cls in ("A4", "D4"):
        alg = weyl_group_of(cls)
        x = two_step_complex(alg, rng)
        y = norm_complex(alg)
        t = tensor_diagonal(x, y)
        s = tensor_diagonal(y, x)
        t.check_differential()
        s.check_differential()
        assert {g: t.dim(g) for g in t.degrees()} == {g: s.dim(g) for g in s.degrees()}
        assert homology_dims_oracle(t) == homology_dims_oracle(s)


def test_kunneth_over_q():
    rng = random.Random(3)
    for trial in range(50):
        alg = weyl_group_of(rng.choice(EXCEPTIONAL_CLASSES))
        x = two_step_complex(alg, rng)
        y = two_step_complex(alg, rng)
        hx = homology_dims_oracle(x)
        hy = homology_dims_oracle(y)
        want = {}
        for p, a in hx.items():
            for q, b in hy.items():
                want[p + q] = want.get(p + q, 0) + a * b
        got = homology_dims_oracle(tensor_diagonal(x, y))
        assert got == {g: d for g, d in want.items() if d}


# -- internal hom -----------------------------------------------------------------


def equivariant_map_dim(x, y, g):
    """Dimension of equivariant degree-preserving maps shifted by g."""
    alg = x.algebra
    total = 0
    for p in x.degrees():
        m, n = y.dim(p + g), x.dim(p)
        if not (m and n):
            continue
        rows = []
        for e in range(alg.order):
            a, b = y.action(p + g, e), x.action(p, e)
            # a F = F b as linear conditions on the mn entries of F
            for i in range(m):
                for j in range(n):
                    row = [Q(0)] * (m * n)
                    for k in range(m):
                        row[k * n + j] += a[i, k]
                    for l in range(n):
                        row[i * n + l] -= b[l, j]
                    rows.append(row)
        mat = QMatrix(len(rows), m * n, rows)
        total += m * n - mat.rank()
    return total


def test_hom_fixed_points_are_equivariant_maps():
    rng = random.Random(4)
    for cls in ("SO3", "A4", "D4"):
        alg = weyl_group_of(cls)
        x = two_step_complex(alg, rng)
        y = norm_complex(alg)
        h = internal_hom_conj(x, y)
        for g in h.degrees():
            n = h.dim(g)
            avg = QMatrix(n, n)
            for e in range(alg.order):
                avg = avg + h.action(g, e)
            assert avg.rank() == equivariant_map_dim(x, y, g)


def test_hom_differential_squares_to_zero():
    rng = random.Random(5)
    alg = weyl_group_of("D4")
    x = norm_complex(alg)
    y = two_step_complex(alg, rng)
    for a, b in ((x, x), (x, y), (y, x)):
        h = internal_hom_conj(a, b)
        h.check_differential()


def test_hom_tensor_adjunction_dims():
    rng = random.Random(6)
    for cls in EXCEPTIONAL_CLASSES:
        alg = weyl_group_of(cls)
        x = small_two_step(alg, rng)
        y = small_two_step(alg, rng)
        z = small_three_step(alg)
        lhs = internal_hom_conj(tensor_diagonal(x, y), z)
        rhs = internal_hom_conj(x, internal_hom_conj(y, z))
        assert {g: lhs.dim(g) for g in lhs.degrees()} == {
            g: rhs.dim(g) for g in rhs.degrees()
        }
        assert homology_dims_oracle(lhs) == homology_dims_oracle(rhs)


# -- homology and the projective structure ------------------------------------------


def test_homology_matches_oracle():
    rng = random.Random(7)
    for trial in range(30):
        alg = weyl_group_of(rng.choice(EXCEPTIONAL_CLASSES))
        x = two_step_complex(alg, rng)
        h = homology_W(x)
        assert {g: h.dim(g) for g in h.degrees()} == homology_dims_oracle(x)
        # the induced action is a representation: the full checks below test it
        hh = homology_W(norm_complex(alg))
        assert {g: hh.dim(g) for g in hh.degrees()} == homology_dims_oracle(
            norm_complex(alg)
        )


# -- the full checks, as an oracle for the complexes built without them -------------


def full_check(x):
    """Every invariant on every element, not only the generators: shapes,
    the identity, rho(a)rho(b) = rho(ab) for every ordered pair, every
    element commuting with every differential, and d squared zero."""
    alg = x.algebra
    for g, (dim, rho) in x.modules.items():
        assert dim and len(rho) == alg.order
        assert all((m.rows, m.cols) == (dim, dim) for m in rho)
        assert rho[alg.identity].is_identity()
        for a in range(alg.order):
            for b in range(alg.order):
                assert rho[a] @ rho[b] == rho[alg.mult(a, b)], (g, a, b)
    for g, d in x.diffs.items():
        assert not d.is_zero() and (d.rows, d.cols) == (x.dim(g - 1), x.dim(g))
        for e in range(alg.order):
            assert x.action(g - 1, e) @ d == d @ x.action(g, e), (g, e)
    x.check_differential()


def all_element_homology(x):
    """The homology's modules with every element's action induced through
    the representing cycles and the projection, none from products."""
    degs = set(x.modules)
    degs |= {g - 1 for g in degs} | {g + 1 for g in degs}
    hdims, reps, projs = chain_homology({g: x.dim(g) for g in degs}, x.diffs)
    return {
        g: (h, tuple(projs[g](x.action(g, e) @ reps[g]) for e in range(x.algebra.order)))
        for g, h in hdims.items()
        if h
    }


def shifted(x, k):
    return GroupComplex(
        x.algebra,
        {g + k: m for g, m in x.modules.items()},
        {g + k: d for g, d in x.diffs.items()},
    )


def seeded_complex(alg, rng, regular):
    """A complex with a nonzero differential, shifted to start in -2..1 so
    that odd degrees and Koszul signs occur.  Its modules are the regular
    representation (if regular) or the smallest faithful one, the latter
    possibly in two rational bases with a non-scalar intertwiner.  The norm
    complex and the three-step one have homology."""
    if regular:
        x = norm_complex(alg) if rng.randrange(2) else two_step_complex(alg, rng)
        while not x.diffs:
            x = two_step_complex(alg, rng)
    else:
        kind = rng.randrange(3)
        if kind == 0 and alg.order == 6:
            rp, rr = conjugated(small_rep(alg), P), conjugated(small_rep(alg), R)
            c = Q(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            x = GroupComplex(alg, {0: rr, 1: rp}, {1: (R @ P.inverse()).scale(c)})
        elif kind == 1:
            x = small_three_step(alg)
        else:
            x = small_two_step(alg, rng)
            while not x.diffs:
                x = small_two_step(alg, rng)
    return shifted(x, rng.randint(-2, 1))


def test_built_complexes_pass_the_full_checks():
    # tensor, hom and homology build their results without checks; each must
    # pass every check on every element, equal the checked complex on the
    # same data, and (for homology) carry the all-element induced action
    rng = random.Random(11)
    signed = levels = 0
    for cls in EXCEPTIONAL_CLASSES:
        alg = weyl_group_of(cls)
        for trial in range(24 if alg.order == 6 else 8):
            x = seeded_complex(alg, rng, regular=trial % 2 == 0)
            y = seeded_complex(alg, rng, regular=False)
            for a, b in ((x, y), (y, x)):
                # a Koszul sign on a nonzero piece: a tensor d(b) at odd p,
                # and pre-composition with d(a) in odd degree of the hom
                signed += any(p % 2 for p in a.modules) and bool(b.diffs)
                signed += any((q - k + 1) % 2 for k in a.diffs for q in b.modules)
                for c in (tensor_diagonal(a, b), internal_hom_conj(a, b)):
                    assert c.diffs
                    full_check(c)
                    assert c == GroupComplex(alg, c.modules, c.diffs)
                    h = homology_W(c)
                    full_check(h)
                    assert h == GroupComplex(alg, h.modules)
                    assert h.modules == all_element_homology(c)
                    if alg.order == 6:
                        levels += len(h.modules)
    assert signed >= 200
    assert levels >= 20


def test_homology_of_zero_differential_is_the_complex():
    alg = weyl_group_of("A4")
    x = GroupComplex(alg, {0: regular_rep(alg), 3: regular_rep(alg)})
    assert homology_W(x) == x


def test_identity_is_weq_and_fib():
    alg = weyl_group_of("D4")
    x = norm_complex(alg)
    f = GroupChainMap.identity(x)
    assert is_weq(f)
    assert is_fib(f)


def test_zero_map_to_nontrivial_target_is_neither():
    alg = order_two_group()
    x = zero_complex(alg)
    y = unit_complex(alg)
    f = GroupChainMap(x, y, {})
    assert not is_weq(f)
    assert not is_fib(f)


def test_projection_off_acyclic_summand_is_weq_and_fib():
    alg = order_two_group()
    u = unit_complex(alg)
    # u (+) (acyclic disk) -> u
    two = QMatrix.identity(2)
    mods = {
        0: (2, {0: two, 1: two}),
        1: (1, {0: QMatrix.identity(1), 1: QMatrix.identity(1)}),
    }
    d = QMatrix(2, 1, [[Q(0)], [Q(1)]])
    x = GroupComplex(alg, mods, {1: d})
    proj = GroupChainMap(x, u, {0: QMatrix(1, 2, [[Q(1), Q(0)]])})
    assert proj.is_chain_map()
    assert is_weq(proj)
    assert is_fib(proj)
    # the inclusion the other way is a weak equivalence but not a fibration
    inc = GroupChainMap(u, x, {0: QMatrix(2, 1, [[Q(1)], [Q(0)]])})
    assert is_weq(inc)
    assert not is_fib(inc)


# -- the five-factor product --------------------------------------------------------


def test_product_assembly_and_errors():
    comps = {c: unit_complex(weyl_group_of(c)) for c in EXCEPTIONAL_CLASSES}
    p = product_assemble(comps)
    assert not p.is_zero()
    assert p.component("D4").algebra.order == 6
    with pytest.raises(BadClass):
        p.component("C3")
    with pytest.raises(BadClass):
        product_assemble({"SO3": unit_complex(trivial_group())})
    bad = dict(comps)
    bad["D4"] = unit_complex(trivial_group())
    with pytest.raises(WrongAlgebraForClass):
        product_assemble(bad)


def test_product_weq_is_componentwise():
    comps = {c: unit_complex(weyl_group_of(c)) for c in EXCEPTIONAL_CLASSES}
    maps = {c: GroupChainMap.identity(m) for c, m in comps.items()}
    assert product_is_weq(maps)
    maps["A4"] = GroupChainMap(
        zero_complex(order_two_group()), unit_complex(order_two_group()), {}
    )
    assert not product_is_weq(maps)
