import dataclasses
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import so3alg
from so3alg import toral
from so3alg.cli import load_toral, main

from so3alg.errors import (
    InvariantError,
    NotADifferential,
    NotTorsion,
    SchemaError,
    StarConditionError,
)
from so3alg.graded import (
    FREE,
    LAURENT,
    POLY_C,
    POLY_D,
    TORSION,
    GradedModule,
    ModuleMap,
    Summand,
    WindowMap,
    auto_window,
    cokernel_of_map,
    degree_runs,
    direct_sum,
    homology_realized,
    kernel_of_map,
)
from so3alg.linalg import Q, QMatrix
from so3alg.toral import (
    TAIL,
    _entry_allowed,
    _module_with_index,
    _reindex_entries,
    HomSpace,
    InjectiveResolution,
    QWSpace,
    SlotFamily,
    ToralMorphism,
    ToralObject,
    VMap,
    adams_bracket,
    check_star,
    counit_of_adjunction,
    direct_sum_objects,
    ext_A,
    functor_F,
    functor_R,
    hom_A,
    homology_dA,
    injective_resolution,
    laurent_model,
    laurent_model_map,
    make_EFbar_plus,
    make_alpha,
    make_eV,
    make_fN,
    map_F,
    map_R,
    parity_split,
    sigma_H,
    sigma_T,
    sigma_T_minus,
    sigma_one,
    smash_with_torsion,
    sphere,
    suspend_object,
    unit_of_adjunction,
    wide_sphere_cover,
    zero_object,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (the benchmark's input generators)


def generators():
    return [
        sphere(),
        sigma_one(),
        sigma_T_minus(),
        sigma_T(),
        sigma_H(2),
        sigma_H(3),
        make_alpha(2, 3),
        make_EFbar_plus(1),
        make_EFbar_plus(2),
    ]


# -- QW-spaces and their maps -------------------------------------------------


def test_qwspace_dims_and_canonical_order():
    v = QWSpace({0: (1, 2), 3: (0, 1), 5: (0, 0)})
    assert v.dim(0, 1) == 1 and v.dim(0, -1) == 2
    assert v.dim(5, 1) == 0 and 5 not in v.dims
    tags = v.vectors()
    degrees = [g for g, _s, _i in tags]
    assert degrees == sorted(degrees, reverse=True)
    assert tags[-3:] == [(0, 1, 0), (0, -1, 0), (0, -1, 1)]


def test_vmap_identity_compose_and_block_shapes():
    v = QWSpace({0: (1, 1), 2: (2, 0)})
    one = VMap.identity(v)
    assert one.compose(one) == one
    with pytest.raises(SchemaError):
        VMap(v, v, 0, {(0, 1): QMatrix(2, 2)})
    w = VMap.zero(v, v, -1)
    assert w.is_zero() and one.compose(w).is_zero()


def _random_vmap(rng, dom, cod, degree):
    """Blocks with rational entries, about a third of them left out."""
    blocks = {}
    for g in dom.dims:
        for s in (1, -1):
            r, c = cod.dim(g + degree, s), dom.dim(g, s)
            if r and c and rng.random() < 0.67:
                blocks[(g, s)] = QMatrix(
                    r, c, [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)] for _ in range(r)]
                )
    return VMap(dom, cod, degree, blocks)


def test_vmap_compose_matches_a_blockwise_dense_oracle():
    rng = random.Random(7)
    missing = {"left": 0, "right": 0}
    for _ in range(30):
        u, v, w = (QWSpace({g: (rng.randint(0, 2), rng.randint(0, 2)) for g in range(-2, 3)}) for _ in range(3))
        f = _random_vmap(rng, u, v, 1)
        h = _random_vmap(rng, v, w, -2)
        hf = h.compose(f)
        assert hf.degree == -1
        for g in range(-2, 3):
            for s in (1, -1):
                missing["left"] += (g + 1, s) not in h.blocks and (g, s) in f.blocks
                missing["right"] += (g + 1, s) in h.blocks and (g, s) not in f.blocks
                # missing blocks are dense zero matrices of the right shape
                left, right = h.block(g + 1, s), f.block(g, s)
                dense = [
                    [sum((left[i, k] * right[k, j] for k in range(left.cols)), Q(0)) for j in range(right.cols)]
                    for i in range(left.rows)
                ]
                assert [hf.block(g, s).row(i) for i in range(left.rows)] == dense
    assert missing["left"] and missing["right"]


def test_vmap_suspend_and_twist():
    v = QWSpace({0: (1, 0)})
    one = VMap.identity(v)
    assert one.suspend(3).domain.dims == {3: (1, 0)}
    assert one.twist().domain.dims == {0: (0, 1)}


# -- Laurent and fixed-point models of V --------------------------------------


def test_laurent_model_dims_match_the_space():
    v = QWSpace({1: (2, 1), -2: (0, 1)})
    L, tags, pos = laurent_model(v, False)
    assert len(tags) == 4 and set(pos.values()) == set(range(4))
    # every vector of v contributes one tower, present in all lower degrees
    # of the right parity
    for g in (-5, -2, 1, 7):
        want = sum(1 for gt, _s, _i in tags if (gt - g) % 2 == 0)
        assert L.dim(g) == want


def test_fixed_point_model_shifts_by_sign():
    v = QWSpace({4: (1, 1)})
    D, tags, pos = laurent_model(v, True)
    by_tag = {t: D.summands[pos[t]] for t in tags}
    # divisible towers carry their shift reduced mod the step of Q[d]
    assert by_tag[(4, 1, 0)].shift == 4 % 4
    assert by_tag[(4, -1, 0)].shift == 2 % 4
    assert D.dim(4) == 1 and D.dim(2) == 1 and D.dim(3) == 0


def test_model_transport_of_identity_is_identity():
    v = QWSpace({0: (1, 1), 3: (2, 0)})
    one = VMap.identity(v)
    assert laurent_model_map(one, False) == ModuleMap.identity(laurent_model(v, False)[0])
    assert laurent_model_map(one, True) == ModuleMap.identity(laurent_model(v, True)[0])


def model_summand(tag, torus):
    """The Laurent summand of one basis vector of V, from the definition."""
    g, s, _i = tag
    if torus:
        return Summand(LAURENT, g if s == 1 else g - 2, 1)
    return Summand(LAURENT, g, s)


def test_laurent_models_are_built_once_per_space():
    rng = random.Random(83)
    for _ in range(20):
        v = QWSpace({
            g: (rng.randint(0, 2), rng.randint(0, 2))
            for g in rng.sample(range(-3, 4), rng.randint(0, 3))
        })
        x = make_eV(v)
        # constructions that read the models of v must leave them unchanged
        parity_split(direct_sum_objects(x, x))
        hom_A(x, x, [0])
        for torus in (False, True):
            model = laurent_model(v, torus)
            assert laurent_model(v, torus) is model
            assert laurent_model(QWSpace(v.dims), torus) == model
            module, tags, pos = model
            ring = POLY_D if torus else POLY_C
            vectors = v.vectors()
            assert isinstance(tags, tuple) and sorted(tags) == sorted(vectors)
            assert pos == {tag: i for i, tag in enumerate(tags)}
            assert module == GradedModule(ring, [model_summand(t, torus) for t in vectors])
            for tag in tags:
                want = GradedModule(ring, [model_summand(tag, torus)]).summands[0]
                assert module.summands[pos[tag]] == want
            # summands that tie keep the order of the basis vectors
            for a, b in zip(tags, tags[1:]):
                if module.summands[pos[a]] == module.summands[pos[b]]:
                    assert vectors.index(a) < vectors.index(b)
        for key in x.keys():
            assert x.beta_codomain(key) is laurent_model(v, x.slot_is_torus(key))[0]


# -- objects and schema checks -------------------------------------------------


def test_slot_family_rejects_bad_indices_and_rings():
    tail = GradedModule(POLY_C, [Summand(FREE, 0, 1)])
    with pytest.raises(SchemaError):
        SlotFamily("O2", {0: tail}, tail)
    with pytest.raises(SchemaError):
        SlotFamily("SO3", {2: GradedModule(POLY_D, [Summand(FREE, 0, 1)])}, tail)
    with pytest.raises(InvariantError):
        SlotFamily("SO3", {1: GradedModule(POLY_D, [Summand(FREE, 0, -1)])}, tail)


def test_so3_family_always_carries_the_torus_slot():
    tail = GradedModule(POLY_C, [Summand(FREE, 0, 1)])
    fam = SlotFamily("SO3", {}, tail)
    assert fam.keys()[0] == 1
    assert fam[1].ring is POLY_D and fam[1].is_zero()


def test_normalized_drops_slots_matching_the_tail():
    x = sphere()
    explicit = dict(x.M.explicit)
    explicit[5] = x.M.tail
    beta = dict(x.beta)
    beta[5] = x.beta[TAIL]
    fat = ToralObject("SO3", SlotFamily("SO3", explicit, x.M.tail), x.V, beta)
    assert 5 in fat.M.explicit
    assert 5 not in fat.normalized().M.explicit
    assert fat == x


def test_zero_object_is_zero():
    assert zero_object().is_zero()
    assert zero_object("O2").is_zero()


# -- the star condition --------------------------------------------------------


def test_generators_satisfy_star_strictly():
    for x in generators():
        assert check_star(x, strict=True)


def test_star_fails_for_a_zero_structure_map():
    tail = GradedModule(POLY_C, [Summand(FREE, 0, 1)])
    x = ToralObject(
        "SO3", SlotFamily("SO3", {}, tail), QWSpace({0: (1, 0)}), {}
    )
    assert not check_star(x)
    with pytest.raises(StarConditionError):
        check_star(x, strict=True)


def test_make_fn_requires_torsion():
    tail = GradedModule(POLY_C, [Summand(FREE, 0, 1)])
    with pytest.raises(NotTorsion):
        make_fN(SlotFamily("O2", {}, tail))


# -- change of groups -----------------------------------------------------------


def test_base_change_of_the_smallest_torsion_generator():
    y = functor_F(sigma_one())
    assert y.side == "O2"
    assert y.M.explicit[1].summands == (Summand(TORSION, 0, 1, 2),)
    assert y.V.is_zero() and y.M.tail.is_zero()


def test_base_change_then_fixed_points_of_the_sphere():
    x = sphere()
    rfx = functor_R(functor_F(x))
    assert rfx.side == "SO3"
    assert rfx.V.dims == {0: (1, 0)}
    assert rfx.M.explicit[1].summands == (Summand(FREE, 0, 1),)
    assert check_star(rfx, strict=True)


def test_adjunction_unit_and_counit_are_morphisms():
    for x in generators():
        eta = unit_of_adjunction(x)
        assert eta.x == x and eta.y == functor_R(functor_F(x))
        assert eta.is_valid()
        eps = counit_of_adjunction(functor_F(x))
        assert eps.is_valid()


def test_adjunction_triangle_identities():
    so3_batch = generators() + [make_eV(QWSpace({0: (1, 1), 2: (1, 0)}))]
    for x in so3_batch:
        fx = functor_F(x)
        tri = counit_of_adjunction(fx).compose(map_F(unit_of_adjunction(x)))
        assert tri == ToralMorphism.identity(fx)
    o2_batch = [functor_F(x) for x in generators()]
    o2_batch.append(make_eV(QWSpace({1: (0, 2)}), side="O2"))
    for y in o2_batch:
        ry = functor_R(y)
        tri = map_R(counit_of_adjunction(y)).compose(unit_of_adjunction(ry))
        assert tri == ToralMorphism.identity(ry)


# -- morphism spaces -------------------------------------------------------------


def test_hom_between_injective_envelopes_counts_equivariant_maps():
    v = QWSpace({0: (1, 0), 3: (0, 2)})
    w = QWSpace({0: (2, 1), 1: (1, 0), 3: (1, 2)})
    ev, ew = make_eV(v), make_eV(w)
    for t in (0, 1, 3):
        want = sum(
            v.dim(g, s) * w.dim(g + t, s) for g in v.dims for s in (1, -1)
        )
        assert hom_A(ev, ew, [t])[t] == want


def test_hom_of_the_sphere_with_itself():
    x = sphere()
    assert hom_A(x, x, range(-2, 5)) == {
        -2: 0, -1: 0, 0: 1, 1: 0, 2: 0, 3: 0, 4: 0,
    }


def test_hom_is_additive_in_the_source():
    x, y, z = sphere(), sigma_T(), sigma_H(3)
    both = hom_A(direct_sum_objects(x, y), z, [0, 1])
    for t in (0, 1):
        assert both[t] == hom_A(x, z, [t])[t] + hom_A(y, z, [t])[t]


def test_hom_space_basis_morphisms_are_valid_and_coordinates_round_trip():
    x = direct_sum_objects(sigma_T(), sigma_H(2))
    h = HomSpace(x, x, 0)
    assert h.dim >= 1
    for k in range(h.dim):
        m = h.basis_morphism(k)
        assert m.is_valid()
        coords = h.coords_of(m)
        assert coords == [Q(int(i == k)) for i in range(h.dim)]
    one = ToralMorphism.identity(x)
    assert h.from_vector(h.vector_of(one)) == one


def test_hom_is_stable_under_suspension():
    x, y = sigma_T(), sigma_H(2)
    for t in (0, 1, 2):
        assert (
            hom_A(suspend_object(x, 3), suspend_object(y, 3), [t])[t]
            == hom_A(x, y, [t])[t]
        )


# -- injective resolutions and Ext ------------------------------------------------


def resolution_batch():
    batch = generators()
    batch.append(make_eV(QWSpace({0: (1, 1), 2: (0, 1)})))
    batch.append(direct_sum_objects(sphere(), sigma_H(2)))
    batch.append(suspend_object(sigma_T(), 2))
    batch.append(smash_with_torsion(sphere(), sigma_H(2).M))
    return batch


def fixture_objects():
    data = Path(so3alg.__file__).resolve().parent / "data"
    return [load_toral(str(path)) for path in sorted(data.glob("*.json"))]


def test_injective_resolutions_are_exact():
    fixtures = fixture_objects()
    assert len(fixtures) == 14
    for x in resolution_batch() + fixtures:
        res = injective_resolution(x)
        # the inclusion is a morphism by construction, and unchecked there
        assert res.include.is_valid()
        assert check_star(res.Y0, strict=True)
        assert check_star(res.Y1, strict=True)
        assert res.check_exact()


def test_injective_resolution_does_not_recheck_its_inclusion(monkeypatch):
    calls = []
    is_valid = ToralMorphism.is_valid

    def counted(self):
        calls.append(self)
        return is_valid(self)

    monkeypatch.setattr(ToralMorphism, "is_valid", counted)
    for x in resolution_batch() + fixture_objects():
        injective_resolution(x)
    assert calls == []


class _ZeroComponents:
    """Stands in for the inclusion of a resolution: every component is zero."""

    def __init__(self, include):
        self.alpha = include.alpha.map(lambda c: ModuleMap.zero(c.domain, c.codomain, c.degree))


def test_exactness_check_rejects_a_broken_resolution():
    for x in (sphere(), sigma_H(2), make_eV(QWSpace({0: (1, 1)}))):
        res = injective_resolution(x)
        broken_include = dataclasses.replace(res, include=_ZeroComponents(res.include))
        assert not broken_include.check_exact()
        if res.Y1.is_zero():
            continue  # e(V) is injective: its quotient map is zero already
        zero_quot = {
            key: WindowMap(q.domain, q.codomain, q.degree, q.window, {})
            for key, q in res.quot.items()
        }
        assert not dataclasses.replace(res, quot=zero_quot).check_exact()


def test_exactness_ranks_one_degree_per_run():
    # check_exact ranks the run tops only: every degree of a run has the
    # (inclusion, quotient) pair of its top
    for x in fixture_objects() + generators():
        res = injective_resolution(x)
        for key in x.keys():
            inc, q = res.include.alpha[key], res.quot[key]
            step = inc.domain.ring.step
            placed = [(inc.domain, 0), (inc.codomain, 0), (q.codomain, 0)]
            runs = degree_runs(res.window, step, placed)
            assert sum(runs.values()) == res.window[1] - res.window[0] + 1
            for top, n in runs.items():
                pair = (inc.evaluate(top), q.evaluate(top))
                for k in range(1, n):
                    assert (inc.evaluate(top - k * step), q.evaluate(top - k * step)) == pair


def _cone(f):
    """The module (Sigma A) + B of a degree-0 map f: A -> B, with f as its
    degree -1 differential."""
    m, (ia, ib) = direct_sum([f.domain.suspend(1), f.codomain])
    return m, ModuleMap(m, m, -1, {(ib[i], ia[j]): v for (i, j), v in f.entries.items()})


def test_walk_work_does_not_grow_with_the_window(monkeypatch):
    import so3alg.graded as graded

    calls = []
    real = graded.subquotient

    def counted(Z, B):
        calls.append(Z.rows)
        return real(Z, B)

    monkeypatch.setattr(graded, "subquotient", counted)

    def walks(b, include, window):
        win = auto_window(window, [b.domain, b.codomain])
        cone = _cone(kernel_of_map(b, win)[1])
        include_win = auto_window(window, [include.domain, include.codomain])
        counts = []
        for walk, args in (
            (kernel_of_map, (b, win)),
            (cokernel_of_map, (b, win)),
            (homology_realized, (*cone, win)),
            (cokernel_of_map, (include, include_win)),
        ):
            calls.clear()
            walk(*args)
            counts.append(len(calls))
        return counts

    totals = [0, 0, 0, 0]
    for x in fixture_objects():
        res = injective_resolution(x)
        for key in x.keys():
            b, include = x.beta[key], res.include.alpha[key]
            narrow = walks(b, include, (-12, 12))
            assert narrow == walks(b, include, (-100, 100)), (x, key)
            totals = [t + n for t, n in zip(totals, narrow)]
    assert min(totals) >= 10 and sum(totals) >= 80, totals


def test_resolve_checks_exactness_once(monkeypatch, tmp_path):
    calls = []
    real = InjectiveResolution.check_exact

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(InjectiveResolution, "check_exact", counted)
    fixture = Path(so3alg.__file__).parent / "data" / "cell-C2.json"
    out = tmp_path / "resolve.json"
    assert main(["resolve", str(fixture), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert json.loads(out.read_text())["exact"] is True


def test_ext_window_reaches_every_generator_of_the_source():
    # a narrow window must still reach x's generators and their images,
    # where the quotient maps of the resolution are composed
    assert ext_A(suspend_object(sphere(), 7), sigma_one(), range(-2, 3), (-2, 2)) == ext_A(
        suspend_object(sphere(), 7), sigma_one(), range(-2, 3), (-16, 16)
    )
    for x in generators():
        for k in (-9, -7, -5, 5, 7, 9):
            sx = suspend_object(x, k)
            for y in generators():
                if y.side == x.side:
                    narrow = ext_A(sx, y, range(-2, 3), (-2, 2))
                    assert narrow == ext_A(sx, y, range(-2, 3), (-16, 16)), (x, k, y)


def test_injective_envelopes_have_no_higher_ext():
    v = QWSpace({0: (1, 0), 2: (0, 1)})
    out = ext_A(sphere(), make_eV(v), [0, 1, 2])
    assert all(e1 == 0 for _h, e1 in out.values())


def test_ext_of_the_smallest_torsion_generator():
    s1 = sigma_one()
    assert ext_A(s1, s1, range(0, 5)) == {
        0: (1, 0), 1: (0, 0), 2: (0, 0), 3: (0, 0), 4: (0, 1),
    }


def test_ext_of_an_isotropy_generator():
    s = sigma_H(3)
    assert ext_A(s, s, range(0, 4)) == {
        0: (2, 0), 1: (0, 0), 2: (0, 2), 3: (0, 0),
    }


# -- smashing and parity -----------------------------------------------------------


def test_smash_with_torsion_is_torsion_and_satisfies_star():
    y = smash_with_torsion(sigma_T(), sigma_H(2).M)
    assert y.M.is_torsion() and y.V.is_zero()
    assert check_star(y, strict=True)
    with pytest.raises(NotTorsion):
        smash_with_torsion(sphere(), sphere().M)


def test_smash_truncates_torsion_lengths():
    a = GradedModule(POLY_C, [Summand(TORSION, 0, 1, 5)])
    fam = SlotFamily(
        "O2", {2: GradedModule(POLY_C, [Summand(TORSION, 0, 1, 2)])},
        GradedModule.zero(POLY_C),
    )
    x = ToralObject("O2", SlotFamily("O2", {2: a}, GradedModule.zero(POLY_C)),
                    QWSpace.zero(), {})
    y = smash_with_torsion(x, fam)
    assert y.M.explicit[2].summands == (Summand(TORSION, 0, 1, 2),)


def _random_spaces(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield QWSpace({
            g: (rng.randint(0, 2), rng.randint(0, 2))
            for g in rng.sample(range(-3, 4), rng.randint(0, 3))
        })


def test_suspension_of_e_v_is_e_of_the_suspended_space():
    # suspending re-normalizes Laurent shifts and so re-orders the slot
    # summands; beta must follow them (this space used to raise)
    v = QWSpace({-2: (2, 0), -1: (1, 2), 2: (2, 0)})
    assert suspend_object(make_eV(v), 1) == make_eV(v.suspend(1))
    for v in _random_spaces(83, 200):
        x = make_eV(v)
        for k in (1, 2, -1, 3):
            assert suspend_object(x, k) == make_eV(v.suspend(k)), (v, k)


def _e_v_with_differential(v, dv):
    """e(V) with the differential dV, carried to every slot by the Laurent
    models; beta is the identity, so it commutes with the differential."""
    x = make_eV(v)
    dM = {key: laurent_model_map(dv, x.slot_is_torus(key)) for key in x.keys()}
    return ToralObject(x.side, x.M, v, x.beta, dM, dv)


def test_suspension_moves_the_differential_with_the_summands():
    v = QWSpace({-2: (2, 0), -1: (1, 2), 2: (2, 0)})
    dv = VMap(v, v, -1, {(-1, 1): QMatrix.from_rows([[1], [2]])})
    x = _e_v_with_differential(v, dv)
    for k in (1, 2, -1, 3):
        y = suspend_object(x, k)
        assert y == _e_v_with_differential(v.suspend(k), dv.suspend(k)), k
        assert suspend_object(y, -k) == x


def test_parity_split_recovers_even_and_odd_parts():
    x = direct_sum_objects(sphere(), suspend_object(sphere(), 1))
    even, odd = parity_split(x)
    assert even == sphere()
    assert odd == suspend_object(sphere(), 1)
    assert hom_A(x, x, [0])[0] == (
        hom_A(even, even, [0])[0] + hom_A(odd, odd, [0])[0]
    )


def test_a_structure_map_leaving_the_new_space_is_an_invariant_error():
    # parity_split re-indexes beta into the parity part of V; a row whose
    # vector is not there is a broken invariant, not a missing key
    pos = laurent_model(QWSpace({0: (1, 0)}), False)[2]
    with pytest.raises(InvariantError):
        _reindex_entries({(0, 0): Q(1)}, [(1, 1, 0)], pos)
    assert _reindex_entries({(0, 0): Q(1)}, [(0, 1, 0)], pos) == {(0, 0): Q(1)}


# -- homology of a differential ------------------------------------------------------


def with_differential(v, dv):
    ev = make_eV(v)
    dm = {
        key: laurent_model_map(dv, ev.slot_is_torus(key))
        for key in ev.keys()
    }
    return ToralObject(ev.side, ev.M, ev.V, ev.beta, dm, dv)


def test_homology_of_a_zero_differential_is_the_object():
    v = QWSpace({0: (1, 1), 2: (1, 0)})
    x = with_differential(v, VMap.zero(v, v, -1))
    assert homology_dA(x) == make_eV(v)


def test_homology_of_an_acyclic_complex_is_zero():
    v = QWSpace({0: (1, 0), 1: (1, 0)})
    dv = VMap(v, v, -1, {(1, 1): QMatrix(1, 1, [[F(1)]])})
    assert homology_dA(with_differential(v, dv)).is_zero()


def test_homology_rejects_a_non_differential():
    v = QWSpace({0: (1, 0), 1: (1, 0), 2: (1, 0)})
    dv = VMap(v, v, -1, {
        (1, 1): QMatrix(1, 1, [[F(1)]]),
        (2, 1): QMatrix(1, 1, [[F(1)]]),
    })
    with pytest.raises(NotADifferential):
        homology_dA(with_differential(v, dv))


def test_homology_rejects_a_non_chain_structure_map():
    v = QWSpace({0: (1, 0), 1: (1, 0)})
    dv = VMap(v, v, -1, {(1, 1): QMatrix(1, 1, [[F(1)]])})
    ev = make_eV(v)
    dm = {key: ModuleMap.zero(ev.M[key], ev.M[key], -1) for key in ev.keys()}
    bad = ToralObject(ev.side, ev.M, ev.V, ev.beta, dm, dv)
    with pytest.raises(NotADifferential):
        homology_dA(bad)


def test_bracket_of_the_sphere_with_itself():
    x = sphere()
    assert adams_bracket(x, x, [0, 1, 2]) == {
        0: (1, 0), 1: (0, 0), 2: (0, 0),
    }


# -- wide-sphere covers ----------------------------------------------------------------


def check_cover(x, key, degree, vector):
    P, m = wide_sphere_cover(x, key, degree, vector)
    assert m.is_valid()
    assert check_star(P, strict=True)
    mat = m.alpha[key].evaluate(degree)
    assert mat.solve([F(v) for v in vector]) is not None
    return P, m


def test_covers_of_the_named_generators():
    check_cover(sphere(), TAIL, 0, [1])
    check_cover(sphere(), 1, 0, [1])
    check_cover(sigma_one(), 1, 0, [1])
    check_cover(sigma_T(), TAIL, 0, [1, 0])
    check_cover(sigma_T(), TAIL, -2, [0, 1])
    check_cover(make_EFbar_plus(2), 2, 2, [1])
    check_cover(make_EFbar_plus(2), 1, 6, [1])


def test_covers_of_random_slot_elements():
    rng = random.Random(7)
    batch = generators()
    done = 0
    for x in batch:
        for key in x.keys():
            m = x.M[key]
            for s in m.summands:
                top = s.shift
                for g in (top, top - m.ring.step):
                    basis = m.basis(g)
                    cols = [
                        c for c, (i, b) in enumerate(basis)
                        if x.slot_is_torus(key) or m.basis_sign(i, b) == 1
                    ]
                    if not cols:
                        signs = {m.basis_sign(i, b) for i, b in basis}
                        if len(signs) != 1:
                            continue
                        cols = list(range(len(basis)))
                    vec = [F(0)] * len(basis)
                    for c in cols:
                        vec[c] = F(rng.randint(1, 5))
                    check_cover(x, key, g, vec)
                    done += 1
    assert done >= 20


def test_covers_need_a_sign_pure_element():
    x = make_eV(QWSpace({0: (1, 1)}))
    with pytest.raises(SchemaError):
        wide_sphere_cover(x, TAIL, 0, [1, 1, 0, 0][: x.M.tail.dim(0)])


def test_a_tail_cover_keeps_the_explicit_slots_free():
    # covering the tail makes the span the sphere's tail, so x's explicit
    # slots are listed to stay free on the Euler generators
    pinned = 0
    for x in law_objects():
        if not check_star(x) or all(x.slot_is_torus(k) for k in x.M.explicit):
            continue
        rank = sum(p + m for p, m in x.V.dims.values())
        tail = x.M.tail
        for g in range(-3, 4):
            for pos in range(tail.dim(g)):
                vec = [F(0)] * tail.dim(g)
                vec[pos] = F(1)
                try:
                    P = wide_sphere_cover(x, TAIL, g, vec)[0]
                except SchemaError:
                    continue  # not sign-pure
                for k in x.M.explicit:
                    if not x.slot_is_torus(k):
                        assert [s.kind for s in P.M.explicit[k].summands] == [FREE] * rank, (x, g, k)
                        pinned += P.M.explicit[k] != P.M.tail
    assert pinned >= 5, pinned


def test_a_cover_at_an_unlisted_slot_is_the_cover_of_the_listed_copy():
    # an index >= 1 that x does not list reads x's tail: the cover there is
    # the cover of x with the index listed as a copy of the tail (a KeyError
    # before), and its morphism keeps the component at that index
    covered = 0
    for x in law_objects():
        if not check_star(x):
            continue
        assert 7 not in x.M.explicit
        tail = x.M.tail
        for g in range(-3, 4):
            for pos in range(tail.dim(g)):
                vec = [F(0)] * tail.dim(g)
                vec[pos] = F(1)
                try:
                    P, m = wide_sphere_cover(x, 7, g, vec)
                except SchemaError:
                    continue  # not sign-pure
                Q_, n = wide_sphere_cover(padded(x), 7, g, vec)
                assert representation(P) == representation(Q_), (x, g)
                assert m.alpha[7] == n.alpha[7] and 7 in m.alpha.explicit
                covered += 1
    assert covered >= 20, covered


def test_maps_of_the_wrong_type_are_refused_at_their_slot():
    x = sphere()
    d = ModuleMap.identity(x.M[1])  # degree 0, not -1
    with pytest.raises(SchemaError, match="differential at slot 1"):
        ToralObject(x.side, x.M, x.V, x.beta, {1: d}, VMap.zero(x.V, x.V, -1))
    with pytest.raises(SchemaError, match="structure map at slot 'tail'"):
        ToralObject(x.side, x.M, x.V, {TAIL: x.beta[1]})
    with pytest.raises(SchemaError, match="morphism component at slot 1"):
        ToralMorphism(x, x, 0, {1: ModuleMap.zero(x.M[1], x.M[1], -2)}, VMap.identity(x.V))


# -- the windowed hom and extension systems, kept as oracles --------------------
#
# HomSpace reads one equation per entry of a composed map, and the first
# stage of injective_resolution reads ker beta and its extension off the
# canonical form.  The oracles below walk a padded window of degrees instead
# and write one equation per basis element there; both must give the same
# hom spaces and the same resolutions.


def windowed_hom_equations(h):
    """The rows of HomSpace h, read degree by degree on a padded window."""
    x, y, t = h.x, h.y, h.degree
    rows = []
    for key in h.keys:
        dom, cod = x.M[key], y.M[key]
        bx, by = x.beta[key], y.beta[key]
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
            mid_pos = {k: r for r, k in enumerate(cod.basis(g + t))}
            out_pos = {k: r for r, k in enumerate(out_b)}
            lx_b = lx_mod.basis(g)
            by_mat = by.evaluate(g + t)
            by_cols = [by_mat.col(j) for j in range(by_mat.cols)]
            bx_mat = bx.evaluate(g)
            bx_rows = [bx_mat.row(i) for i in range(bx_mat.rows)]
            eq = [[dict() for _ in range(len(src_b))] for _ in range(len(out_b))]
            for u, label in enumerate(h.unknowns):
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
                    p = (ly_mod.summands[il].shift - lx_mod.summands[jl].shift - t) // lstep
                    for cl, (jjl, bl) in enumerate(lx_b):
                        if jjl != jl:
                            continue
                        r = out_pos.get((il, bl + p))
                        if r is None:
                            continue
                        for c, coef in enumerate(bx_rows[cl]):
                            if coef:
                                eq[r][c][u] = eq[r][c].get(u, Q(0)) - coef
            rows += [eq[r][c] for r in range(len(out_b)) for c in range(len(src_b)) if eq[r][c]]
    return rows


def windowed_hom_basis(h):
    n = len(h.unknowns)
    if not n:
        return QMatrix(0, 0)
    rows = windowed_hom_equations(h)
    return QMatrix(len(rows), n, [[row.get(u, Q(0)) for u in range(n)] for row in rows]).kernel_basis()


def windowed_solve_extension(m, incl, emb, window):
    """psi: m -> emb.codomain with psi o incl == emb, solved on a window."""
    cod = emb.codomain
    unknowns = [
        (i, j)
        for i in range(len(cod.summands))
        for j in range(len(m.summands))
        if _entry_allowed(m, cod, 0, i, j) is not None
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
                        if jj == j and out_pos.get((i, b + a)) == r and inc_mat[cm, c]:
                            row[u] = row.get(u, Q(0)) + inc_mat[cm, c]
                target = emb_mat[r, c]
                if row or target:
                    rows.append(row)
                    rhs.append(target)
    n = len(unknowns)
    mat = QMatrix(len(rows), n, [[row.get(u, Q(0)) for u in range(n)] for row in rows])
    sol = mat.solve(rhs)
    if sol is None:
        return None
    return ModuleMap(m, cod, 0, {unknowns[u]: sol[u] for u in range(n) if sol[u] != 0})


def fixture_objects():
    data = Path(so3alg.__file__).parent / "data"
    return [load_toral(str(p)) for p in sorted(data.glob("*.json"))]


def seeded_generator_objects(seed=29, count=16):
    """Direct sums of one to three suspended standard generators."""
    rng = random.Random(seed)
    gens = generators()
    out = []
    for _ in range(count):
        parts = [
            suspend_object(rng.choice(gens), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 3))
        ]
        x = parts[0]
        for p in parts[1:]:
            x = direct_sum_objects(x, p)
        out.append(x)
    return out


def law_objects():
    return fixture_objects() + generators() + seeded_generator_objects()


def same_side_pairs(objects):
    return [(x, y) for x in objects for y in objects if x.side == y.side]


LAW_DEGREES = range(-2, 3)


def test_hom_spaces_match_the_windowed_oracle():
    pairs = same_side_pairs(law_objects())
    nonzero = 0
    for x, y in pairs:
        for t in LAW_DEGREES:
            h = HomSpace(x, y, t)
            assert h.basis_mat == windowed_hom_basis(h), (x, y, t)
            nonzero += h.dim > 0
    assert nonzero >= 100


def _padded(ring, summands, pad):
    """The summands lengthened upward by pad steps: (module, tags, pos) with
    summand k tagged k."""
    return _module_with_index(ring, [
        (Summand(TORSION, s.shift + ring.step * pad,
                 s.sign * (-1) ** pad if ring.flip else s.sign, s.length + pad), k)
        for k, s in enumerate(summands)
    ])


def windowed_first_stage(x, window):
    """(I, psi) per slot, solved the long way: ker beta by a window walk,
    then the extension of its inclusion into padded copies by a windowed
    linear system, raising the pad until one solves."""
    I_slots, psi = {}, {}
    for key in x.keys():
        m, b = x.M[key], x.beta[key]
        TM, incl = kernel_of_map(b, auto_window(window, [m, b.codomain]))
        assert TM.is_torsion(), (x, key)
        first = m.max_torsion() + TM.max_torsion() + 1
        for pad in range(first, first + 6):
            imod, _, pos = _padded(m.ring, TM.summands, pad)
            emb = ModuleMap(TM, imod, 0, {(pos[k], k): Q(1) for k in range(len(TM.summands))})
            solved = windowed_solve_extension(m, incl, emb, auto_window(window, [m, TM, imod]))
            if solved is not None:
                break
        else:
            raise AssertionError(f"no injective extension at slot {key!r} of {x!r}")
        I_slots[key], psi[key] = imod, solved
    return I_slots, psi


def windowed_resolution(x, window):
    """(include, Y0, Y1) of the resolution built on ``windowed_first_stage``."""
    I_slots, psi = windowed_first_stage(x, window)
    explicit = {k: v for k, v in I_slots.items() if k != TAIL}
    e_part = make_eV(x.V, x.side)
    Y0 = direct_sum_objects(e_part, make_fN(SlotFamily(x.side, explicit, I_slots[TAIL])))
    alpha, J_slots = {}, {}
    for key in x.keys():
        _, (ie, ii) = direct_sum([e_part.M[key], I_slots[key]])
        ent = {(ie[i], j): c for (i, j), c in x.beta[key].entries.items()}
        ent.update({(ii[i], j): c for (i, j), c in psi[key].entries.items()})
        alpha[key] = ModuleMap(x.M[key], Y0.M[key], 0, ent)
        win = auto_window(window, [x.M[key], Y0.M[key]])
        J_slots[key] = cokernel_of_map(alpha[key], win)[0]
    include = ToralMorphism(x, Y0, 0, alpha, VMap.identity(x.V))
    explicit = {k: v for k, v in J_slots.items() if k != TAIL}
    return include, Y0, make_fN(SlotFamily(x.side, explicit, J_slots[TAIL]))


def toral_ext_inputs(seed=13, count=120):
    """Star objects drawn like the benchmark's toral-ext inputs, one shape
    after another."""
    rng = random.Random(seed)
    shapes = workloads.TORAL_SHAPES
    return [workloads.toral_object(rng, shapes[k % len(shapes)]) for k in range(count)]


@pytest.mark.parametrize("window", [(-12, 12), (-2, 2), (-8, 8)], ids=["12", "2", "8"])
def test_first_stage_matches_the_windowed_oracle(window):
    torsion = 0
    for x in law_objects() + toral_ext_inputs():
        res = injective_resolution(x, window)
        include, Y0, Y1 = windowed_resolution(x, window)
        assert (res.include, res.Y0, res.Y1) == (include, Y0, Y1), x
        torsion += any(m.max_torsion() for m in x.all_modules())
    assert torsion >= 50, torsion


def test_injective_resolution_walks_no_kernel(monkeypatch):
    import so3alg.graded as graded

    calls = []
    real = graded.kernel_of_map

    def counted(phi, window):
        calls.append(phi)
        return real(phi, window)

    monkeypatch.setattr(graded, "kernel_of_map", counted)
    for x in law_objects():
        injective_resolution(x)
    assert calls == []
    # the spy sees a walk
    b = sphere().beta[TAIL]
    graded.kernel_of_map(b, auto_window((0, 0), [b.domain, b.codomain]))
    assert len(calls) == 1


# -- laws of the hom spaces ------------------------------------------------------


def test_hom_commutes_with_suspension():
    for x, y in same_side_pairs(law_objects()):
        assert hom_A(suspend_object(x, 1), suspend_object(y, 1), LAW_DEGREES) == hom_A(
            x, y, LAW_DEGREES
        ), (x, y)


def test_hom_is_additive_in_each_variable():
    for x, y in same_side_pairs(law_objects()):
        twice = {t: 2 * d for t, d in hom_A(x, y, LAW_DEGREES).items()}
        assert hom_A(direct_sum_objects(x, x), y, LAW_DEGREES) == twice, (x, y)
        assert hom_A(x, direct_sum_objects(y, y), LAW_DEGREES) == twice, (x, y)


def dense_homology_space(v, dv):
    """H(V) by nullity minus rank in every degree and sign."""
    dims = {}
    for g in range(min(v.dims, default=0) - 1, max(v.dims, default=0) + 2):
        pair = []
        for s in (1, -1):
            down = dv.block(g, s)
            up = dv.block(g + 1, s)
            pair.append(v.dim(g, s) - down.rank() - up.rank())
        if any(pair):
            dims[g] = tuple(pair)
    return QWSpace(dims)


@pytest.mark.parametrize("v, dv", [
    (QWSpace({1: (0, 1), 2: (0, 2)}), {(2, -1): [[1, 1]]}),
    (QWSpace({-4: (1, 0), -3: (1, 0), 1: (0, 1), 2: (0, 2)}), {(2, -1): [[-1, F(-1, 2)]]}),
])
def test_homology_projects_cycles_that_are_not_basis_vectors(v, dv):
    # the cycles of V here are sums of basis vectors; projecting each term
    # on its own used to fail with "a column is not a cycle modulo boundaries"
    dv = VMap(v, v, -1, {gs: QMatrix.from_rows(rows) for gs, rows in dv.items()})
    h = homology_dA(with_differential(v, dv))
    assert h.V == dense_homology_space(v, dv)
    assert check_star(h, strict=True)


def seeded_v_complexes(seed, count):
    """Random spaces V with a differential: blocks at non-adjacent degrees
    of one sign, so d squared is zero."""
    rng = random.Random(seed)
    for _ in range(count):
        v = QWSpace({
            g: (rng.randint(0, 2), rng.randint(0, 2))
            for g in rng.sample(range(-4, 4), rng.randint(1, 4))
        })
        blocks = {}
        for g in sorted(v.dims):
            for s in (1, -1):
                rows, cols = v.dim(g - 1, s), v.dim(g, s)
                if rows and cols and (g - 1, s) not in blocks and rng.random() < 0.7:
                    blocks[(g, s)] = QMatrix(rows, cols, [
                        [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(cols)]
                        for _ in range(rows)
                    ])
        yield v, VMap(v, v, -1, blocks)


def test_homology_of_seeded_v_complexes_matches_dense_ranks():
    for v, dv in seeded_v_complexes(5, 80):
        h = homology_dA(with_differential(v, dv))
        assert h.V == dense_homology_space(v, dv), (v, dv.blocks)
        assert check_star(h, strict=True)


# -- laws of Ext ---------------------------------------------------------------------


def ext_law_pairs():
    return same_side_pairs(fixture_objects() + generators())


def test_ext_commutes_with_suspension():
    nonzero = 0
    for x, y in ext_law_pairs():
        table = ext_A(x, y, LAW_DEGREES)
        assert ext_A(suspend_object(x, 1), suspend_object(y, 1), LAW_DEGREES) == table, (x, y)
        nonzero += any(h or e for h, e in table.values())
    assert nonzero >= 100


def test_ext_is_additive_in_each_variable():
    for x, y in ext_law_pairs():
        twice = {t: (2 * h, 2 * e) for t, (h, e) in ext_A(x, y, LAW_DEGREES).items()}
        assert ext_A(direct_sum_objects(x, x), y, LAW_DEGREES) == twice, (x, y)
        assert ext_A(x, direct_sum_objects(y, y), LAW_DEGREES) == twice, (x, y)


# -- one slot-by-slot rebuild ------------------------------------------------------
#
# Suspension, twist, parity split and direct sum are each one call of
# ``toral._transport``.  Below are the four constructions as they were written
# out by hand before, kept as test-only oracles: each must give the very same
# representation (slots, summand order, beta and differential entries), not
# only an equal object.


def _oracle_with_index(m, change):
    new, _tags, pos = _module_with_index(m.ring, [(change(s), j) for j, s in enumerate(m.summands)])
    return new, pos


def _oracle_reindex_map(f, dom, cod, idx_d, idx_c):
    return ModuleMap(dom, cod, f.degree, {(idx_c[i], idx_d[j]): c for (i, j), c in f.entries.items()})


def _oracle_twisted(s):
    return Summand(s.kind, s.shift, -s.sign, s.length)


def oracle_suspend_object(x, k):
    v = x.V.suspend(k)
    slots, beta = {}, {}
    dM = {} if x.has_differential() else None
    for key in x.keys():
        m, idx = _oracle_with_index(
            x.M[key], lambda s: Summand(s.kind, s.shift + k, s.sign, s.length)
        )
        torus = x.slot_is_torus(key)
        cod, _, pos = laurent_model(v, torus)
        tags = [(g + k, s, i) for g, s, i in laurent_model(x.V, torus)[1]]
        slots[key] = m
        beta[key] = ModuleMap(m, cod, 0, _reindex_entries(x.beta[key].entries, tags, pos, idx))
        if dM is not None:
            dM[key] = _oracle_reindex_map(x.dM[key], m, m, idx, idx)
    tail = slots.pop(TAIL)
    dV = None if dM is None else x.dV.suspend(k)
    return ToralObject(x.side, SlotFamily(x.side, slots, tail), v, beta, dM, dV)


def oracle_direct_sum_objects(a, b):
    side = a.side
    v = QWSpace({
        g: (a.V.dim(g, 1) + b.V.dim(g, 1), a.V.dim(g, -1) + b.V.dim(g, -1))
        for g in set(a.V.dims) | set(b.V.dims)
    })
    keys = sorted(set(a.M.explicit) | set(b.M.explicit))
    explicit, beta = {}, {}

    def build(key):
        msum, maps = direct_sum([a.M[key], b.M[key]])
        torus = a.slot_is_torus(key)
        cod, _, pos = laurent_model(v, torus)
        ent = {}
        for part, obj in enumerate((a, b)):
            tags = [
                (g, s, part * a.V.dim(g, s) + i) for g, s, i in laurent_model(obj.V, torus)[1]
            ]
            bmap = obj.beta[key] if key in obj.beta else obj.beta[TAIL]
            ent.update(_reindex_entries(bmap.entries, tags, pos, dict(enumerate(maps[part]))))
        return msum, ModuleMap(msum, cod, 0, ent), maps

    for key in keys:
        explicit[key], beta[key], _ = build(key)
    tail, beta[TAIL], _ = build(TAIL)
    fam = SlotFamily(side, explicit, tail)
    dM = dV = None
    if a.has_differential() or b.has_differential():
        dM = {}
        for key in fam.keys():
            msum, _, maps = build(key)
            ent = {}
            for part, obj in enumerate((a, b)):
                for (i, j), coef in obj.slot_differentials()[key].entries.items():
                    ent[(maps[part][i], maps[part][j])] = coef
            dM[key] = ModuleMap(msum, msum, -1, ent)
        dV = toral.vmap_sum(v, v, [
            obj.dV if obj.dV is not None else VMap.zero(obj.V, obj.V, -1) for obj in (a, b)
        ])
    return ToralObject(side, fam, v, beta, dM, dV)


def oracle_twist_object(y):
    v = y.V.twist()
    explicit, beta, dm = {}, {}, {}
    for key in y.keys():
        m, idx = _oracle_with_index(y.M[key], _oracle_twisted)
        torus = y.slot_is_torus(key)
        cod, _, pos = laurent_model(v, torus)
        tags = [(g, -s, i) for g, s, i in laurent_model(y.V, torus)[1]]
        bmap = ModuleMap(m, cod, 0, _reindex_entries(y.beta[key].entries, tags, pos, idx))
        if y.has_differential():
            dm[key] = _oracle_reindex_map(y.dM[key], m, m, idx, idx)
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


def oracle_twist_morphism(m):
    tx, ty = oracle_twist_object(m.x), oracle_twist_object(m.y)
    alpha = {}
    for key in set(m.alpha):
        _, idx_x = _oracle_with_index(m.x.M[key], _oracle_twisted)
        _, idx_y = _oracle_with_index(m.y.M[key], _oracle_twisted)
        alpha[key] = _oracle_reindex_map(
            m.alpha[key], tx.M[key], ty.M[key], idx_x, idx_y
        )
    return ToralMorphism(tx, ty, m.degree, alpha, m.phi.twist())


def oracle_parity_split(x):
    parts = []
    for parity in (0, 1):
        explicit, beta = {}, {}
        v = x.V.parity_part(parity)
        for key in x.keys():
            m = x.M[key]
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
                tail, tail_beta = sub, bmap
            else:
                explicit[key], beta[key] = sub, bmap
        beta[TAIL] = tail_beta
        parts.append(ToralObject(x.side, SlotFamily(x.side, explicit, tail), v, beta))
    return parts[0], parts[1]


def representation(x):
    """Everything an object stores, explicit slots and summand order included."""
    return (x.side, x.M.explicit, x.M.tail, x.V, x.beta, x.dM, x.dV)


def outcome(build, *args):
    """The representation build(*args) returns, or the type of error it raises."""
    try:
        out = build(*args)
    except InvariantError as exc:
        return type(exc)
    if isinstance(out, tuple):
        return tuple(representation(o) for o in out)
    return representation(out)


def _seeded_torsion_object(rng, side):
    explicit = {}
    for n in rng.sample(range(2, 7), rng.randint(0, 2)):
        explicit[n] = GradedModule(POLY_C, [
            Summand(TORSION, rng.randint(-4, 4), rng.choice((1, -1)), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ])
    if side == "SO3" and rng.random() < 0.5:
        explicit[1] = GradedModule(POLY_D, [Summand(TORSION, rng.randint(-4, 4), 1, 2)])
    tail = GradedModule(POLY_C, [
        Summand(TORSION, rng.randint(-3, 3), rng.choice((1, -1)), 1)
        for _ in range(rng.randint(0, 2))
    ])
    return make_fN(SlotFamily(side, explicit, tail))


def seeded_transport_objects(seed=41, count=120):
    """Objects on both sides: e(V) of random spaces (Laurent slot summands,
    which suspension re-sorts), e(V) with a differential, torsion families
    with a tail, and sums of suspended generators."""
    rng = random.Random(seed)
    complexes = list(seeded_v_complexes(seed, count))
    gens = generators()
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            x = make_eV(next(_random_spaces(rng.random(), 1)))
        elif kind == 1:
            x = _e_v_with_differential(*complexes[k])
        elif kind == 2:
            x = _seeded_torsion_object(rng, rng.choice(("SO3", "O2")))
        else:
            x = direct_sum_objects(
                suspend_object(rng.choice(gens), rng.randint(-3, 3)),
                suspend_object(rng.choice(gens), rng.randint(-3, 3)),
            )
        if x.side == "SO3" and rng.random() < 0.4:
            x = functor_F(x) if not x.has_differential() else x
        out.append(x)
    return out


def transport_objects():
    return law_objects() + seeded_transport_objects()


def test_transport_objects_cover_the_hard_cases():
    objects = seeded_transport_objects()
    assert len(objects) >= 100
    assert sum(x.has_differential() for x in objects) >= 25
    assert sum(x.side == "O2" for x in objects) >= 20
    resorted = 0
    for x in objects:
        for key in x.keys():
            m = x.M[key]
            _, idx = _oracle_with_index(m, lambda s: Summand(s.kind, s.shift + 1, s.sign, s.length))
            resorted += idx != {j: j for j in range(len(m.summands))}
    assert resorted >= 25, resorted


def test_suspension_matches_the_hand_written_oracle():
    for x in transport_objects():
        for k in (1, -1, 2, 3):
            assert outcome(suspend_object, x, k) == outcome(oracle_suspend_object, x, k), (x, k)


def test_twist_matches_the_hand_written_oracle():
    twisted = 0
    for x in transport_objects():
        y = x if x.side == "O2" else functor_F(x) if not x.has_differential() else None
        if y is None:
            continue
        assert outcome(toral.twist_object, y) == outcome(oracle_twist_object, y), y
        eps = counit_of_adjunction(y)
        new, old = toral.twist_morphism(eps), oracle_twist_morphism(eps)
        assert (new.alpha, new.phi) == (old.alpha, old.phi), y
        twisted += 1
    assert twisted >= 60, twisted


def test_parity_split_matches_the_hand_written_oracle():
    for x in transport_objects():
        assert outcome(parity_split, x) == outcome(oracle_parity_split, x), x


def test_direct_sum_matches_the_hand_written_oracle():
    objects = transport_objects()
    rng = random.Random(7)
    pairs = list(zip(objects, objects[1:])) + [
        (rng.choice(objects), rng.choice(objects)) for _ in range(300)
    ]
    summed = with_d = 0
    for a, b in pairs:
        if a.side != b.side:
            continue
        assert outcome(direct_sum_objects, a, b) == outcome(oracle_direct_sum_objects, a, b), (a, b)
        summed += 1
        with_d += a.has_differential() != b.has_differential()
    assert summed >= 150 and with_d >= 30, (summed, with_d)


def _sphere_with_zero_differential():
    x = sphere()
    dM = {key: ModuleMap.zero(x.M[key], x.M[key], -1) for key in x.keys()}
    return ToralObject(x.side, x.M, x.V, x.beta, dM, VMap.zero(x.V, x.V, -1))


def test_a_slot_that_is_not_explicit_reads_the_tail_differential():
    # x has a differential but no slot 5, sigma_H(5) has slot 5 but no
    # differential: the sum and a chain-map check read x at slot 5 from its
    # tail (both raised KeyError: 5)
    x = _sphere_with_zero_differential()
    assert x.dM[5] is x.dM[TAIL]
    total = direct_sum_objects(x, sigma_H(5))
    assert total.has_differential() and total.dM[5].entries == {}
    f = ToralMorphism(x, sigma_H(5), 0, {}, VMap.zero(x.V, QWSpace.zero(), 0))
    assert f.is_chain_map()
    assert ToralMorphism.identity(total).is_chain_map()


def test_homology_of_a_sum_with_a_zero_differential_is_the_plain_sum():
    total = direct_sum_objects(_sphere_with_zero_differential(), sigma_H(5))
    h = homology_dA(total)
    assert h == direct_sum_objects(sphere(), sigma_H(5))
    assert not h.has_differential()


# -- the slot container against the reads it replaced ---------------------------
#
# Before ``Slots``, objects and morphisms stored a dict with the tail under TAIL
# and each class read an unlisted slot by hand.  Those reads are kept here as
# oracles, applied to the stored values.


def stored_dict(slots):
    """A container as the dict the objects stored: listed values, tail under TAIL."""
    return {**slots.explicit, TAIL: slots.tail}


def oracle_read(d, key):
    """The fallback of ``beta_at``, ``differential``, ``component`` and ``quot_of``."""
    return d.get(key, d[TAIL])


def oracle_family_slot(fam, key):
    """``SlotFamily.slot``."""
    if key == TAIL:
        return fam.tail
    return fam.explicit.get(key, fam.tail)


def oracle_differential(x, key):
    """``ToralObject.differential``: zero without a differential."""
    if x.has_differential():
        return oracle_read(stored_dict(x.dM), key)
    m = oracle_family_slot(x.M, key)
    return ModuleMap.zero(m, m, -1)


def oracle_normal_form(x):
    """``ToralObject.normalized``, as the fields it stored."""
    explicit, beta = dict(x.M.explicit), stored_dict(x.beta)
    dM = stored_dict(x.dM) if x.has_differential() else None
    for n in list(explicit):
        if x.slot_is_torus(n):
            continue
        if explicit[n] == x.M.tail and beta[n] == beta[TAIL] and (
            dM is None or dM[n] == dM[TAIL]
        ):
            del explicit[n], beta[n]
            if dM is not None:
                del dM[n]
    return (x.side, explicit, x.M.tail, x.V, beta, dM, x.dV)


def oracle_morphism_keys(m):
    """The key union of ``ToralMorphism.__init__`` and ``_keys``."""
    return set(m.x.M.explicit) | set(m.y.M.explicit) | {TAIL}


def oracle_morphism_eq(a, b):
    """``ToralMorphism.__eq__``."""
    if (a.x, a.y, a.degree) != (b.x, b.y, b.degree):
        return False
    da, db = stored_dict(a.alpha), stored_dict(b.alpha)
    return all(oracle_read(da, k) == oracle_read(db, k) for k in set(da) | set(db)) and a.phi == b.phi


def read_keys(*families):
    """Every key one of families lists, TAIL, and two indices none lists."""
    listed = sorted(set().union(*(f.explicit for f in families)))
    return listed + [TAIL] + [n for n in (7, 11, 13) if n not in listed][:2]


def padded(x):
    """x with slot 7 listed as a copy of the tail."""
    dM = {**stored_dict(x.dM), 7: x.dM.tail} if x.has_differential() else None
    fam = SlotFamily(x.side, {**x.M.explicit, 7: x.M.tail}, x.M.tail)
    return ToralObject(x.side, fam, x.V, {**stored_dict(x.beta), 7: x.beta.tail}, dM, x.dV)


def container_objects():
    differential = [x for x in seeded_transport_objects() if x.has_differential()][:10]
    base = law_objects() + differential + [_sphere_with_zero_differential()]
    return base + [padded(x) for x in base[::3]]


def test_object_reads_match_the_fallbacks_they_replaced():
    objects = container_objects()
    assert sum(x.has_differential() for x in objects) >= 10
    assert sum(7 in x.M.explicit for x in objects) >= 10
    for x in objects:
        # every datum lists the keys of the family, as the stored dicts did
        assert x.beta.explicit.keys() == x.M.explicit.keys()
        assert x.dM is None or x.dM.explicit.keys() == x.M.explicit.keys()
        for key in read_keys(x.M):
            assert x.M[key] is oracle_family_slot(x.M, key)
            assert x.beta[key] is oracle_read(stored_dict(x.beta), key)
            assert x.slot_differentials()[key] == oracle_differential(x, key)
            if x.has_differential():
                assert x.dM[key] is oracle_differential(x, key)
        n = x.normalized()
        dM = stored_dict(n.dM) if n.has_differential() else None
        assert (n.side, n.M.explicit, n.M.tail, n.V, stored_dict(n.beta), dM, n.dV) == (
            oracle_normal_form(x)
        )
    forms = [oracle_normal_form(x) for x in objects]
    equal = 0
    for i, x in enumerate(objects):
        for j, y in enumerate(objects):
            if x.side == y.side:
                assert (x == y) == (forms[i] == forms[j]), (x, y)
                equal += i != j and x == y
    assert equal >= 10, equal


def test_morphism_reads_match_the_fallbacks_they_replaced():
    morphisms = []
    for x in container_objects():
        ident = ToralMorphism.identity(x)
        morphisms.append(ident)
        if x.has_differential():
            continue
        adj = unit_of_adjunction(x) if x.side == "SO3" else counit_of_adjunction(x)
        morphisms += [adj, adj.compose(ident) if x.side == "SO3" else ident.compose(adj)]
    for x in fixture_objects()[::4]:
        res = injective_resolution(x)
        morphisms.append(res.include)
        for key in read_keys(x.M, res.Y1.M):
            assert res.quot[key] is oracle_read(stored_dict(res.quot), key)
    for m in morphisms:
        assert set(m.alpha.explicit) | {TAIL} == oracle_morphism_keys(m)
        for key in read_keys(m.x.M, m.y.M):
            assert m.alpha[key] is oracle_read(stored_dict(m.alpha), key)
    same = 0
    for a in morphisms:
        for b in morphisms[::7]:
            assert (a == b) == oracle_morphism_eq(a, b)
            same += a is not b and a == b
    assert same >= 5, same
