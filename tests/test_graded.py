import random
from fractions import Fraction as F

import pytest

from so3alg.errors import (
    InvariantError,
    NotADifferential,
    NotEquivariant,
    NotHomogeneous,
)
from so3alg.graded import (
    FREE,
    LAURENT,
    LAURENT_C,
    LAURENT_D,
    POLY_C,
    POLY_D,
    TORSION,
    GradedModule,
    ModuleMap,
    Summand,
    WindowModule,
    auto_window,
    barcode,
    base_change_d_to_c,
    base_change_map,
    canonical_from_window,
    cokernel_of_map,
    degree_runs,
    direct_sum,
    fixed_points_c_to_d,
    fixed_points_map,
    homology_realized,
    kernel_of_map,
    localize,
    localize_map,
    sign_of,
    smith_canonical,
    window_of_module,
    _normalize_summand,
    _sort_key,
)
from so3alg.linalg import Q, QMatrix, subquotient


def free_c(shift, sign=1):
    return GradedModule(POLY_C, [Summand(FREE, shift, sign)])


def tors_c(length, shift, sign=1):
    return GradedModule(POLY_C, [Summand(TORSION, shift, sign, length)])


# -- evaluation -------------------------------------------------------------


def test_free_module_degreewise_dims_and_signs():
    m = free_c(0, 1)
    assert [m.dim(g) for g in (0, -1, -2, -4)] == [1, 0, 1, 1]
    assert m.basis_sign(0, 0) == 1
    assert m.basis_sign(0, 1) == -1  # multiplying by c flips the sign
    d = GradedModule(POLY_D, [Summand(FREE, 0, 1)])
    assert [d.dim(g) for g in (0, -2, -4)] == [1, 0, 1]
    assert d.basis_sign(0, 3) == 1  # d preserves the sign


def test_torsion_module_support():
    m = tors_c(3, 4)
    assert [m.dim(g) for g in (6, 4, 2, 0, -2)] == [0, 1, 1, 1, 0]


def test_laurent_normalization():
    a = GradedModule(LAURENT_C, [Summand(LAURENT, 4, 1)])
    b = GradedModule(LAURENT_C, [Summand(LAURENT, 0, 1)])
    assert a == b
    # moving the generator by one step flips the sign over Q[c]
    c = GradedModule(LAURENT_C, [Summand(LAURENT, 2, -1)])
    d = GradedModule(LAURENT_C, [Summand(LAURENT, 0, 1)])
    assert c == d
    e = GradedModule(LAURENT_D, [Summand(LAURENT, 4, 1)])
    f = GradedModule(LAURENT_D, [Summand(LAURENT, 0, 1)])
    assert e == f


def test_action_matrix_chains():
    m = tors_c(2, 0)
    assert m.action_matrix(0) == QMatrix.from_rows([[1]])
    assert m.action_matrix(-2).rows == 0  # falls off the torsion


# -- module maps --------------------------------------------------------------


def test_map_power_determined_and_validated():
    src = free_c(0, 1)
    dst = free_c(2, -1)  # generator sign -1 in degree 2; c*gen has sign +1
    phi = ModuleMap(src, dst, 0, {(0, 0): 1})
    assert phi.evaluate(0) == QMatrix.from_rows([[1]])
    with pytest.raises(NotEquivariant):
        ModuleMap(src, free_c(2, 1), 0, {(0, 0): 1})
    with pytest.raises(NotHomogeneous):
        ModuleMap(src, free_c(1, 1), 0, {(0, 0): 1})
    with pytest.raises(NotHomogeneous):
        ModuleMap(src, free_c(-2, 1), 0, {(0, 0): 1})  # negative power


def test_map_torsion_rules():
    t2 = tors_c(2, 0)
    t1 = tors_c(1, 0)
    # torsion source needs the target to kill c^l: Q[c]/c^2 -> Q[c]/c has
    # a generator-to-generator map (quotient)
    phi = ModuleMap(t2, t1, 0, {(0, 0): 1})
    assert phi.evaluate(0) == QMatrix.from_rows([[1]])
    with pytest.raises(InvariantError):
        ModuleMap(t1, free_c(0, 1), 0, {(0, 0): 1})
    # torsion into longer torsion must raise the power; the straight map
    # would not annihilate the source
    with pytest.raises(InvariantError):
        ModuleMap(t1, tors_c(3, 0), 0, {(0, 0): 1})
    # with a shift the inclusion exists: Q[c]/c -> Sigma^... generator lands
    # on c^2 * generator of Q[c]/c^3
    incl = ModuleMap(t1, tors_c(3, 4), 0, {(0, 0): 1})
    assert incl.evaluate(0) == QMatrix.from_rows([[1]])


def test_compose_and_identity():
    t3 = tors_c(3, 0)
    q = ModuleMap(t3, tors_c(1, 0), 0, {(0, 0): 1})
    i = ModuleMap.identity(t3)
    assert q.compose(i) == q
    assert ModuleMap.identity(tors_c(1, 0)).compose(q) == q


# -- smith reduction -----------------------------------------------------------


def rand_presentation(rng, ring=POLY_C):
    ngen = rng.randint(1, 4)
    gens = []
    for _ in range(ngen):
        gens.append(Summand(FREE, rng.randint(-3, 3) * 2, rng.choice([1, -1])))
    G = GradedModule(ring, gens)
    nrel = rng.randint(0, 4)
    rels = []
    ent = {}
    for j in range(nrel):
        # choose a target generator and a power, make the relation degree fit
        i = rng.randrange(len(G.summands))
        a = rng.randint(0, 3)
        s = G.summands[i]
        sign = s.sign * (-1) ** a
        rels.append(Summand(FREE, s.shift - 2 * a, sign))
    R = GradedModule(ring, rels)
    # random homogeneous equivariant entries
    for j, r in enumerate(R.summands):
        for i, s in enumerate(G.summands):
            num = s.shift - r.shift
            if num % 2 or num < 0:
                continue
            a = num // 2
            if s.sign * (-1) ** a != r.sign:
                continue
            if rng.random() < 0.6:
                ent[(i, j)] = F(rng.randint(-3, 3))
    return ModuleMap(R, G, 0, ent)


def test_smith_canonical_matches_degreewise_rank_oracle():
    rng = random.Random(7)
    for _ in range(40):
        pres = rand_presentation(rng)
        m = smith_canonical(pres)
        w = auto_window((0, 0), [pres.domain, pres.codomain, m])
        for g in range(w[0] + 2, w[1] - 2):
            mat = pres.evaluate(g)
            coker_dim = pres.codomain.dim(g) - mat.rank()
            assert m.dim(g) == coker_dim, (pres.entries, m, g)


def test_smith_canonical_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        m = smith_canonical(rand_presentation(rng))
        # re-present the canonical module trivially and reduce again
        pres = ModuleMap.zero(GradedModule(POLY_C, ()), GradedModule(
            POLY_C, [s for s in m.summands if s.kind == FREE]))
        assert smith_canonical(pres).summands == tuple(
            s for s in m.summands if s.kind == FREE)


def test_smith_example_unit_relation_kills_generator():
    G = GradedModule(POLY_C, [Summand(FREE, 0, 1), Summand(FREE, 2, 1)])
    R = GradedModule(POLY_C, [Summand(FREE, 0, 1)])
    # summands sort by descending shift: index 1 is the shift-0 generator;
    # a unit relation kills it outright
    pres = ModuleMap(R, G, 0, {(1, 0): 1})
    m = smith_canonical(pres)
    assert m == GradedModule(POLY_C, [Summand(FREE, 2, 1)])


# -- localization, fixed points, base change ---------------------------------


def test_localize():
    m = GradedModule(POLY_C, [Summand(FREE, 0, 1), Summand(TORSION, 0, 1, 5)])
    loc, src = localize(m)
    assert loc == GradedModule(LAURENT_C, [Summand(LAURENT, 0, 1)])
    assert src == [0]


def test_fixed_points_examples():
    # Q[c] with sign-minus generator: fixed monomials are odd powers
    m = free_c(0, -1)
    fx, real = fixed_points_c_to_d(m)
    assert fx == GradedModule(POLY_D, [Summand(FREE, -2, 1)])
    assert real == [(0, 1)]
    # torsion: Q[c]/c^2, sign +: fixed part has length 1
    fx2, _ = fixed_points_c_to_d(tors_c(2, 0, 1))
    assert fx2 == GradedModule(POLY_D, [Summand(TORSION, 0, 1, 1)])
    fx3, _ = fixed_points_c_to_d(tors_c(3, 0, 1))
    assert fx3 == GradedModule(POLY_D, [Summand(TORSION, 0, 1, 2)])
    fx4, _ = fixed_points_c_to_d(tors_c(1, 0, -1))
    assert fx4.is_zero()


def test_base_change_worked_example():
    # Q[d]/d becomes Q[c]/c^2
    m = GradedModule(POLY_D, [Summand(TORSION, 0, 1, 1)])
    bc, _ = base_change_d_to_c(m)
    assert bc == tors_c(2, 0, 1)


def test_fixed_after_base_change_is_identity():
    rng = random.Random(3)
    for _ in range(25):
        kind = rng.choice([FREE, TORSION])
        shift = rng.randint(-3, 3) * 4
        m = GradedModule(
            POLY_D,
            [Summand(kind, shift, 1, rng.randint(1, 4) if kind == TORSION else 0)],
        )
        bc, _ = base_change_d_to_c(m)
        fx, _ = fixed_points_c_to_d(bc)
        assert fx == m


def test_counit_iso_on_plus_free_and_localized_in_general():
    # sign+ free module: fixed points then base change gives the module back
    m = free_c(4, 1)
    fx, real = fixed_points_c_to_d(m)
    bc, _ = base_change_d_to_c(fx)
    assert bc == m
    # sign-minus free: unlocalized counit lands in c*N; after inverting c the
    # dimensions agree in every degree
    n = free_c(0, -1)
    fx2, _ = fixed_points_c_to_d(n)
    bc2, _ = base_change_d_to_c(fx2)
    assert bc2 != n
    ln, _ = localize(n)
    lb, _ = localize(bc2)
    # same normalized Laurent class up to sign bookkeeping of the generator
    assert [ln.dim(g) for g in range(-6, 7)] == [lb.dim(g) for g in range(-6, 7)]


def test_localize_and_fixed_maps_transport_coefficients():
    t = tors_c(2, 0, 1)
    f = free_c(0, 1)
    # multiplication by c^2 (degree -4) is the smallest equivariant self-map
    phi = ModuleMap(f, f, -4, {(0, 0): F(3)})
    lphi = localize_map(phi)
    assert lphi.entries == {(0, 0): F(3)}
    fphi = fixed_points_map(phi)
    assert fphi.degree == -4 and fphi.entries == {(0, 0): F(3)}
    bphi = base_change_map(ModuleMap(
        GradedModule(POLY_D, [Summand(FREE, 0, 1)]),
        GradedModule(POLY_D, [Summand(FREE, 0, 1)]), -4, {(0, 0): F(5)}))
    assert bphi.degree == -4 and bphi.entries == {(0, 0): F(5)}


def _hand_reindexed(phi, rebuild, source):
    """The loop localize_map, fixed_points_map and base_change_map each
    wrote out: rebuild domain and codomain, invert the source lists, re-index
    the entries."""
    dom, src_d = rebuild(phi.domain)
    cod, src_c = rebuild(phi.codomain)
    back_d = {source(orig): k for k, orig in enumerate(src_d)}
    back_c = {source(orig): k for k, orig in enumerate(src_c)}
    ent = {}
    for (i, j), v in phi.entries.items():
        if i in back_c and j in back_d:
            ent[(back_c[i], back_d[j])] = v
    return ModuleMap(dom, cod, phi.degree, ent)


def test_rebuilt_maps_match_the_hand_written_loops():
    def plain(orig):
        return orig

    def first(pair):
        return pair[0]

    cases = [
        (POLY_C, localize_map, localize, plain),
        (POLY_D, localize_map, localize, plain),
        (POLY_C, fixed_points_map, fixed_points_c_to_d, first),
        (POLY_D, base_change_map, base_change_d_to_c, plain),
    ]
    rng = random.Random(23)
    moved = 0
    for _ in range(150):
        for ring, new, rebuild, source in cases:
            dom, cod = rand_module(rng, ring), rand_module(rng, ring)
            phi = rand_map(rng, dom, cod, ring.step * rng.randint(-2, 1))
            got = new(phi)
            assert got == _hand_reindexed(phi, rebuild, source), (phi.domain, phi.codomain)
            moved += bool(got.entries)
    assert moved >= 60, moved


# -- barcode / reconstruction -------------------------------------------------


def test_barcode_simple_interval():
    # chain Q -> Q -> 0 with identity map: one bar of length 2
    dims = [1, 1, 0]
    maps = [QMatrix.from_rows([[1]]), QMatrix(0, 1)]
    bars = barcode(dims, maps)
    assert len(bars) == 1
    assert bars[0].birth == 0 and bars[0].death == 1


def test_barcode_splitting_with_dependence():
    # two bars entering one dimension: the younger dies
    dims = [2, 1]
    maps = [QMatrix.from_rows([[1, 1]])]
    bars = barcode(dims, maps)
    pairs = sorted((b.birth, -1 if b.death is None else b.death) for b in bars)
    assert pairs == [(0, -1), (0, 0)]


def test_canonical_roundtrip_through_window():
    rng = random.Random(5)
    for _ in range(30):
        summands = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice([FREE, TORSION])
            summands.append(
                Summand(
                    kind,
                    rng.randint(-3, 3) * 2 + (0 if kind else 0),
                    rng.choice([1, -1]),
                    rng.randint(1, 4) if kind == TORSION else 0,
                )
            )
        m = GradedModule(POLY_C, summands)
        w = auto_window((0, 0), [m])
        rec, _ = canonical_from_window(window_of_module(m, w))
        assert rec == m


def test_kernel_and_cokernel_of_quotient():
    # Sigma^{-4} Q[c] --c^2--> Q[c]: kernel 0, cokernel Q[c]/c^2
    src = free_c(-4, 1)
    dst = free_c(0, 1)
    phi = ModuleMap(src, dst, 0, {(0, 0): 1})
    w = auto_window((0, 0), [src, dst])
    K, incl = kernel_of_map(phi, w)
    assert K.is_zero()
    C, pr = cokernel_of_map(phi, w)
    assert C == tors_c(2, 0, 1)


def test_kernel_of_projection():
    t = tors_c(3, 0, 1)
    q = tors_c(1, 0, 1)
    phi = ModuleMap(t, q, 0, {(0, 0): 1})
    w = auto_window((0, 0), [t, q])
    K, incl = kernel_of_map(phi, w)
    # kernel of Q[c]/c^3 -> Q[c]/c is c * Q[c]/c^3 = Sigma^{-2} Q[c]/c^2
    assert K == tors_c(2, -2, -1)
    # inclusion composes to zero with the projection
    assert phi.compose(incl).is_zero()


# -- homology -----------------------------------------------------------------


def test_homology_zero_differential():
    m = GradedModule(POLY_C, [Summand(TORSION, 0, 1, 2), Summand(FREE, 5, 1)])
    d = ModuleMap.zero(m, m, -1)
    assert homology_realized(m, d)[0] == m


def test_homology_acyclic_complex():
    # gen in degree 1 (sign s) maps to c^0 * gen in degree 0: need shift diff 1
    m = GradedModule(POLY_C, [Summand(FREE, 1, 1), Summand(FREE, 0, 1)])
    d = ModuleMap(m, m, -1, {(1, 0): 1})
    h = homology_realized(m, d)[0]
    assert h.is_zero()
    # oracle: degreewise homology dims all zero
    w = auto_window((0, 0), [m])
    for g in range(w[0] + 1, w[1]):
        mat = d.evaluate(g)
        up = d.evaluate(g + 1)
        assert mat.kernel_basis().cols - up.rank() == h.dim(g)


def test_homology_against_gaussian_oracle_random():
    rng = random.Random(13)
    for _ in range(25):
        summands = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice([FREE, TORSION])
            summands.append(
                Summand(
                    kind,
                    rng.randint(-2, 2),
                    rng.choice([1, -1]),
                    rng.randint(1, 3) if kind == TORSION else 0,
                )
            )
        m = GradedModule(POLY_C, summands)
        ent = {}
        for j, sj in enumerate(m.summands):
            for i, si in enumerate(m.summands):
                num = si.shift - sj.shift + 1
                if num % 2 or num < 0:
                    continue
                a = num // 2
                if si.kind == TORSION and a >= si.length:
                    continue
                if sj.kind == TORSION and (
                    si.kind != TORSION or a + sj.length < si.length
                ):
                    continue
                if si.sign * (-1) ** a != sj.sign:
                    continue
                ent[(i, j)] = F(rng.randint(-2, 2))
        try:
            d = ModuleMap(m, m, -1, ent)
        except InvariantError:
            continue
        if not d.compose(d).is_zero():
            continue
        h = homology_realized(m, d)[0]
        w = auto_window((0, 0), [m])
        for g in range(w[0] + 1, w[1]):
            mat = d.evaluate(g)
            up = d.evaluate(g + 1)
            assert h.dim(g) == mat.kernel_basis().cols - up.rank()


def test_direct_sum_bookkeeping():
    a = free_c(0, 1)
    b = tors_c(2, 4, -1)
    s, maps = direct_sum([a, b])
    assert len(s.summands) == 2
    assert s.summands[maps[0][0]] == a.summands[0]
    assert s.summands[maps[1][0]] == b.summands[0]


# -- cached bases and window walks against their slow paths ----------------------


def scan_basis(m, g):
    """The basis of m at degree g by a power_at scan over every summand."""
    return [(i, a) for i in range(len(m.summands)) if (a := m.power_at(i, g)) is not None]


def rand_module(rng, ring, kinds=(FREE, TORSION, LAURENT), size=4):
    summands = []
    for _ in range(rng.randint(0, size)):
        kind = rng.choice(kinds)
        sign = rng.choice([1, -1]) if ring.var == "c" else 1
        length = rng.randint(1, 3) if kind == TORSION else 0
        summands.append(Summand(kind, rng.randint(-5, 5), sign, length))
    return GradedModule(ring, summands)


def rand_map(rng, dom, cod, degree):
    """A random map: a random coefficient on every entry the grading, the
    torsion rules and the involution allow."""
    ent = {}
    for i in range(len(cod.summands)):
        for j in range(len(dom.summands)):
            try:
                allowed = ModuleMap(dom, cod, degree, {(i, j): 1}).entries
            except InvariantError:
                continue
            if allowed and rng.random() < 0.7:
                ent[(i, j)] = F(rng.randint(-3, 3), rng.randint(1, 2))
    return ModuleMap(dom, cod, degree, ent)


def test_cached_basis_is_a_power_at_scan_for_every_constructor():
    from so3alg.toral import _module_with_index

    rng = random.Random(17)
    for _ in range(20):
        ring = rng.choice([POLY_C, POLY_D])
        m = rand_module(rng, ring)
        other = rand_module(rng, ring)
        fixed = fixed_points_c_to_d(m)[0] if ring.var == "c" else None
        based = None
        if ring.var == "d":
            based = base_change_d_to_c(GradedModule(ring, [
                Summand(s.kind, s.shift, 1, s.length) for s in m.summands]))[0]
        tagged = [(s, k) for k, s in enumerate(m.summands)]
        modules = [
            m,
            GradedModule.zero(ring),
            m.suspend(3),
            m.twist(),
            direct_sum([m, other])[0],
            localize(m)[0],
            fixed,
            based,
            _module_with_index(ring, tagged)[0],
            canonical_from_window(window_of_module(m, auto_window((0, 0), [m])))[0],
        ]
        for mod in modules:
            if mod is None:
                continue
            for g in range(-20, 21):
                b = mod.basis(g)
                assert isinstance(b, tuple)
                assert list(b) == scan_basis(mod, g)
                assert mod.basis(g) is b  # computed once
                assert mod.dim(g) == len(b)


def per_column_evaluate(phi, degree):
    """ModuleMap.evaluate as a scan of every entry for every column."""
    src = scan_basis(phi.domain, degree)
    dst = scan_basis(phi.codomain, degree + phi.degree)
    pos = {key: r for r, key in enumerate(dst)}
    ent = {}
    for col, (j, b) in enumerate(src):
        for (i, jj), coef in phi.entries.items():
            if jj == j:
                row = pos.get((i, b + phi._power_or_error(i, jj)))
                if row is not None:
                    ent[(row, col)] = coef
    return QMatrix.from_entries(len(dst), len(src), ent)


def test_evaluate_matches_the_per_column_scan():
    rng = random.Random(19)
    nonzero = 0
    for _ in range(60):
        ring = rng.choice([POLY_C, POLY_D])
        dom, cod = rand_module(rng, ring), rand_module(rng, ring)
        phi = rand_map(rng, dom, cod, rng.choice([0, -1, -2, 2]))
        for g in range(-16, 17):
            fast = phi.evaluate(g)
            assert fast == per_column_evaluate(phi, g)
            nonzero += not fast.is_zero()
    assert nonzero > 50


def per_vector_coordinates(C, realized, wm, g, vecs):
    """Canonical coordinates of each column of vecs by its own QMatrix.solve.

    Generators are pushed down one degree per power: inside a run the action
    is the identity, and leaving a run it is the run's action matrix."""
    basis = scan_basis(C, g)
    cols = []
    for k, a in basis:
        v, top = realized[k].vector, realized[k].degree
        deg = top
        for _ in range(a):
            deg -= wm.ring.step
            if deg in wm.runs:
                v, top = wm.acts[top].apply(v), deg
        cols.append(v)
    n = wm.dim(g)
    mat = QMatrix(n, len(cols), [[c[i] for c in cols] for i in range(n)])
    ent = {}
    for col in range(vecs.cols):
        sol = mat.solve(vecs.col(col))
        assert sol is not None
        for r, x in enumerate(sol):
            ent[(r, col)] = x
    return QMatrix.from_entries(len(basis), vecs.cols, ent)


def test_cokernel_projection_matches_the_per_vector_solve_oracle(monkeypatch):
    import so3alg.graded as graded

    seen = []
    real = graded._window_coordinates

    def spy(C, realized, wm, g, vecs):
        out = real(C, realized, wm, g, vecs)
        seen.append((C, realized, wm, g, vecs, out))
        return out

    monkeypatch.setattr(graded, "_window_coordinates", spy)
    rng = random.Random(23)
    checked = 0
    for _ in range(60):
        ring = rng.choice([POLY_C, POLY_D])
        dom = rand_module(rng, ring, kinds=(FREE, TORSION))
        cod = rand_module(rng, ring, kinds=(FREE, TORSION))
        phi = rand_map(rng, dom, cod, 0)
        w = auto_window((0, 0), [dom, cod])
        seen.clear()
        C, pr = cokernel_of_map(phi, w)
        for C_, realized, wm, g, vecs, out in seen:
            # every degree of the run shares the projection of its top
            for k in range(wm.runs[g]):
                assert pr.mats[g - k * ring.step] is out
            assert out == per_vector_coordinates(C_, realized, wm, g, vecs)
            checked += 1
        for g in range(w[0], w[1] + 1):
            p = pr.evaluate(g)
            assert (p @ phi.evaluate(g)).is_zero()
            assert p.rank() == C.dim(g) == p.rows
    assert checked > 100


def test_cokernel_eliminates_no_empty_matrix(monkeypatch):
    shapes = []
    rref = QMatrix.rref

    def recorded(self):
        shapes.append((self.rows, self.cols))
        return rref(self)

    monkeypatch.setattr(QMatrix, "rref", recorded)
    rng = random.Random(29)
    for _ in range(20):
        ring = rng.choice([POLY_C, POLY_D])
        dom = rand_module(rng, ring, kinds=(FREE, TORSION))
        cod = rand_module(rng, ring, kinds=(FREE, TORSION))
        cokernel_of_map(rand_map(rng, dom, cod, 0), auto_window((0, 0), [dom, cod]))
    assert shapes
    assert all(r and c for r, c in shapes)


def parent_cokernel(phi, window):
    """The cokernel as a quotient by a complement, for an oracle.

    In each degree the rows of P (``cokernel_data``) are the coordinates and
    the section P^T (P P^T)^-1 lifts them back; the involution induced in
    those coordinates is diagonalized by its two eigenspaces, and the action
    is carried into the eigenbases before the canonical reconstruction.
    """
    n = phi.codomain
    lo, hi = window
    step = n.ring.step
    proj, eigen = {}, {}
    for g in range(lo, hi + 1):
        if n.dim(g):
            mat = phi.evaluate(g - phi.degree)
            P = mat.cokernel_data()[0] if mat.cols else QMatrix.identity(n.dim(g))
            if P.rows:
                proj[g] = P
    for g, P in proj.items():
        sec = P.transpose() @ (P @ P.transpose()).inverse()
        inv = P @ QMatrix.diagonal([n.basis_sign(i, a) for i, a in n.basis(g)]) @ sec
        one = QMatrix.identity(P.rows)
        plus, minus = (inv - one).kernel_basis(), (inv + one).kernel_basis()
        assert plus.cols + minus.cols == P.rows
        eigen[g] = (plus.hstack(minus), [1] * plus.cols + [-1] * minus.cols, sec)
    acts = {}
    for g, (E, _, sec) in eigen.items():
        if g - step >= lo:
            below = eigen.get(g - step)
            if below is None:
                acts[g] = QMatrix(0, E.cols)
            else:
                act = proj[g - step] @ n.action_matrix(g) @ sec
                acts[g] = below[0].inverse() @ act @ E
    runs = dict.fromkeys(range(hi, lo - 1, -1), 1)  # one run per degree
    wm = WindowModule(n.ring, window, runs, {g: e[1] for g, e in eigen.items()}, acts)
    return canonical_from_window(wm)[0]


def test_cokernel_matches_the_complement_section_oracle():
    rng = random.Random(31)
    checked = laurent = 0
    while checked < 50:
        ring = rng.choice([POLY_C, POLY_D])
        dom, cod = rand_module(rng, ring), rand_module(rng, ring)
        phi = rand_map(rng, dom, cod, rng.choice([0, 0, -2, 2]))
        if phi.is_zero():
            continue
        checked += 1
        w = auto_window((0, 0), [dom, cod])
        C, pr = cokernel_of_map(phi, w)
        assert C == parent_cokernel(phi, w)
        for g in range(w[0], w[1] + 1):
            p, f = pr.evaluate(g), phi.evaluate(g - phi.degree)
            assert p.rows == C.dim(g) == p.rank()
            # the kernel of the projection is the image of phi
            assert (p @ f).is_zero()
            assert f.rank() + p.rank() == cod.dim(g)
        laurent += any(s.kind == LAURENT for s in C.summands)
    assert laurent > 10


# -- the per-degree window walk, kept as an oracle for the run walk ---------------


def per_degree_canonical(wm):
    """canonical_from_window with one chain position per degree of the
    window; wm has a run of one degree at every degree."""
    ring, step = wm.ring, wm.ring.step
    flip = -1 if ring.flip else 1
    lo, hi = wm.window
    for g, act in wm.acts.items():
        src, dst = wm.signs[g], wm.signs.get(g - step, ())
        if any(dst[r] != flip * src[c] for r, c, _ in act.entries()):
            raise InvariantError("action does not respect the involution chains")
    out = []
    for res in range(step):
        degs = [g for g in range(hi, lo - 1, -1) if g % step == res]
        if not degs:
            continue
        for start_sign in (1, -1):
            idx = [
                [j for j, sg in enumerate(wm.signs.get(g, ())) if sg == start_sign * flip**p]
                for p, g in enumerate(degs)
            ]
            dims = [len(js) for js in idx]
            if not any(dims):
                continue
            cmaps = []
            for p in range(len(degs) - 1):
                act = wm.acts.get(degs[p])
                if act is None or not (dims[p] and dims[p + 1]):
                    cmaps.append(QMatrix(dims[p + 1], dims[p]))
                else:
                    cmaps.append(act.submatrix(idx[p + 1], idx[p]))
            for bar in barcode(dims, cmaps):
                g_top = degs[bar.birth]
                sign_top = start_sign * flip**bar.birth
                vec = [Q(0)] * wm.dim(g_top)
                for j, x in zip(idx[bar.birth], bar.vectors[0]):
                    vec[j] = x
                if bar.death is None:
                    laurent = ring.laurent or bar.birth == 0
                    s = Summand(LAURENT if laurent else FREE, g_top, sign_top)
                else:
                    s = Summand(TORSION, g_top, sign_top, bar.death - bar.birth + 1)
                out.append((s, g_top, vec))
    module = GradedModule(ring, [o[0] for o in out])
    order = sorted(
        range(len(out)), key=lambda k: (_sort_key(_normalize_summand(ring, out[k][0])), k)
    )
    return module, [out[k] for k in order]


def per_degree_subquotient(m, window, cycles, boundaries):
    """window_subquotient with one elimination per degree: returns the
    canonical module, its generators as (summand, degree, vector of m) and
    project(g, X) for every degree g where it is nonzero."""
    lo, hi = window
    step = m.ring.step
    reps, projs, signs = {}, {}, {}
    for g in range(lo, hi + 1):
        Z = cycles.get(g)
        if Z is None:
            continue
        reps[g], projs[g] = subquotient(Z, boundaries.get(g, QMatrix(Z.rows, 0)))
        if reps[g].cols:
            signs[g] = [sign_of(m, g, reps[g].col(j)) for j in range(reps[g].cols)]
            if None in signs[g]:
                raise InvariantError("a representative is not sign-pure")
    acts = {}
    for g in signs:
        if g - step < lo:
            continue
        img = m.action_matrix(g) @ reps[g]
        if g - step in projs:
            acts[g] = projs[g - step](img)
        elif not img.is_zero():
            raise InvariantError("the action leaves the subquotient")
    wm = WindowModule(m.ring, window, dict.fromkeys(range(hi, lo - 1, -1), 1), signs, acts)
    S, realized = per_degree_canonical(wm)

    def project(g, X):
        cols = []
        for k, _a in S.basis(g):
            _s, deg, v = realized[k]
            while deg > g:
                v = wm.acts[deg].apply(v)
                deg -= step
            cols.append(v)
        sol = QMatrix.from_columns(wm.dim(g), cols).solve_matrix(projs[g](X))
        if sol is None:
            raise InvariantError("vector not expressible in canonical coordinates")
        return sol

    ambient = [(s, g, reps[g].apply(v)) for s, g, v in realized]
    return S, ambient, project


def per_degree_kernel(phi, window):
    m, (lo, hi) = phi.domain, window
    cycles = {}
    for g in range(lo, hi + 1):
        mat = phi.evaluate(g)
        kerb = mat.kernel_basis() if mat.cols else None
        if kerb is None or not kerb.cols:
            continue
        cycles[g] = kerb
        if g - m.ring.step < lo and not (m.action_matrix(g) @ kerb).is_zero():
            raise InvariantError("kernel window too small")
    return cycles, per_degree_subquotient(m, window, cycles, {})


def per_degree_cokernel(phi, window):
    n, (lo, hi) = phi.codomain, window
    cycles, image = {}, {}
    for g in range(lo, hi + 1):
        if n.dim(g):
            cycles[g] = QMatrix.identity(n.dim(g))
            image[g] = phi.evaluate(g - phi.degree)
    return cycles, per_degree_subquotient(n, window, cycles, image)


def per_degree_homology(m, d, window):
    lo, hi = window
    cycles, boundaries = {}, {}
    for g in range(lo, hi + 1):
        if m.dim(g):
            down = d.evaluate(g)
            cycles[g] = QMatrix.identity(m.dim(g)) if down.is_zero() else down.kernel_basis()
            boundaries[g] = d.evaluate(g + 1)
    return cycles, per_degree_subquotient(m, window, cycles, boundaries)


def brute_force_runs(window, step, placed):
    """The runs of a window from the alive summands of every placed module at
    every degree: a run starts at each class top and wherever they change."""
    lo, hi = window
    runs = {}
    for r in range(step):
        top = alive = None
        for g in range(hi, lo - 1, -1):
            if g % step != r:
                continue
            now = tuple(tuple(i for i, _a in scan_basis(m, g + o)) for m, o in placed)
            if now != alive:
                top, alive = g, now
                runs[top] = 0
            runs[top] += 1
    return runs


def test_degree_runs_partition_by_the_alive_summands():
    rng = random.Random(43)
    longest = 0
    for _ in range(300):
        ring = rng.choice([POLY_C, POLY_D])
        placed = [(rand_module(rng, ring), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
        lo = rng.randint(-14, 2)
        window = (lo, lo + rng.randint(0, 18))
        runs = degree_runs(window, ring.step, placed)
        assert runs == brute_force_runs(window, ring.step, placed), (window, placed)
        assert sum(runs.values()) == window[1] - window[0] + 1
        longest = max(longest, *runs.values())
    assert longest > 5


def run_top(runs, step, g):
    """The top of the run of degree g."""
    return next(t for t, n in runs.items() if t >= g and (t - g) % step == 0 and t - g < n * step)


def outcome(f, *args):
    try:
        return f(*args)
    except InvariantError as e:
        return repr(e)


def rand_differential(rng, ring):
    """A module P + Q with a random degree -1 map P -> Q as its differential."""
    P, Q_ = rand_module(rng, ring), rand_module(rng, ring)
    f = rand_map(rng, P, Q_, -1)
    m, (ip, iq) = direct_sum([P, Q_])
    return m, ModuleMap(m, m, -1, {(iq[i], ip[j]): v for (i, j), v in f.entries.items()})


def test_run_walk_matches_the_per_degree_walk(monkeypatch):
    import so3alg.graded as graded

    walks = []
    real = graded.window_subquotient

    def spy(m, window, runs, cycles, boundaries):
        S, ambient, project = real(m, window, runs, cycles, boundaries)
        walks.append((runs, ambient, project))
        return S, ambient, project

    monkeypatch.setattr(graded, "window_subquotient", spy)
    rng = random.Random(37)
    tally = dict.fromkeys(("kernel", "cokernel", "homology", "raised", "laurent", "long"), 0)
    for trial in range(240):
        ring = rng.choice([POLY_C, POLY_D])
        kind = ("kernel", "cokernel", "homology")[trial % 3]
        if kind == "homology":
            m, d = rand_differential(rng, ring)
            mods = [m]
        else:
            # a kernel reaching the window bottom raises: mostly torsion domains
            torsion_only = kind == "kernel" and rng.random() < 0.7
            dom = rand_module(rng, ring, (TORSION,) if torsion_only else (FREE, TORSION, LAURENT))
            cod = rand_module(rng, ring)
            phi = rand_map(rng, dom, cod, rng.choice([0, 1, -1, 2, -2]))
            mods = [dom, cod]
        lo, hi = auto_window((0, 0), mods)
        cut = (hi - lo) // 3
        window = (lo + rng.randint(0, cut), hi - rng.randint(0, cut))  # may cut summands
        walks.clear()
        if kind == "kernel":
            fast = outcome(kernel_of_map, phi, window)
            slow = outcome(per_degree_kernel, phi, window)
        elif kind == "cokernel":
            fast = outcome(cokernel_of_map, phi, window)
            slow = outcome(per_degree_cokernel, phi, window)
        else:
            fast = outcome(homology_realized, m, d, window)
            slow = outcome(per_degree_homology, m, d, window)
        if isinstance(slow, str):
            assert fast == slow, (kind, window)
            tally["raised"] += 1
            continue
        cycles, (S, ambient, project) = slow
        ((runs, fast_ambient, fast_project),) = walks
        assert fast[0] == S
        assert [(r.summand, r.degree, r.vector) for r in fast_ambient] == ambient
        if kind == "kernel":
            ent = {}
            for k, (_s, g, v) in enumerate(ambient):
                ent.update({(i, k): x for (i, _a), x in zip(phi.domain.basis(g), v) if x})
            assert fast[1] == ModuleMap(S, phi.domain, 0, ent)
        for g, Z in cycles.items():
            if S.dim(g):
                top = run_top(runs, ring.step, g)
                assert fast_project(top, Z) == project(g, Z), (kind, g)
                tally["long"] += runs[top] > 1
            if kind == "cokernel":
                assert fast[1].evaluate(g) == (project(g, Z) if S.dim(g) else QMatrix(0, Z.rows))
        tally[kind] += not S.is_zero()
        tally["laurent"] += any(s.kind == LAURENT for s in S.summands)
    assert min(tally.values()) >= 20, tally
