"""The Q[W]-space layer ``qw``: the block assembler ``block_vmap`` against a
dense, entry-by-entry assembly, and the W-fixed parts ``QWSpace.fixed`` and
``VMap.fixed`` against the sign-+ blocks."""

import random
from fractions import Fraction as F

import pytest

from so3alg.dihedral import (
    DihedralMorphism, QWComplex, cone, direct_sum_dihedral, functor_const, functor_i_k,
)
from so3alg.linalg import QMatrix
from so3alg.qw import QWSpace, VMap, block_vmap, qw_sum


def _space(rng, degrees=range(-2, 3)):
    # sparse, so that a piece is often alone in a degree and sign
    return QWSpace({g: (rng.choice((0, 0, 1, 2)), rng.choice((0, 0, 1, 2))) for g in degrees})


def _vmap(rng, dom, cod, degree):
    """Rational blocks, about a third of them left out."""
    blocks = {}
    for g in dom.dims:
        for s in (1, -1):
            r, c = cod.dim(g + degree, s), dom.dim(g, s)
            if r and c and rng.random() < 0.67:
                blocks[(g, s)] = QMatrix(
                    r, c, [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)] for _ in range(r)]
                )
    return VMap(dom, cod, degree, blocks)


def _dense(doms, cods, degree, pieces, g, s):
    """The block at (g, s) placed entry by entry into a Fraction grid."""
    rows = [c.dim(g + degree, s) for c in cods]
    cols = [d.dim(g, s) for d in doms]
    grid = [[F(0)] * sum(cols) for _ in range(sum(rows))]
    for (i, j), (f, shift) in pieces.items():
        b = f.block(g + shift, s)
        for r in range(b.rows):
            for c in range(b.cols):
                grid[sum(rows[:i]) + r][sum(cols[:j]) + c] = b[r, c]
    return grid


def _entries(mat):
    return [[mat[r, c] for c in range(mat.cols)] for r in range(mat.rows)]


@pytest.mark.parametrize("seed", range(4))
def test_block_vmap_matches_a_dense_assembly(seed):
    rng = random.Random(2800 + seed)
    shifts = {-1: 0, 0: 0, 1: 0}
    for _ in range(25):
        degree = rng.choice((-1, 0, 1))
        doms = [_space(rng) for _ in range(rng.randint(1, 3))]
        cods = [_space(rng) for _ in range(rng.randint(1, 3))]
        pieces = {}
        for i in range(len(cods)):
            for j in range(len(doms)):
                if rng.random() < 0.6:
                    # f's block at (g + shift, s) has the shape of the block
                    # at (g, s): f runs from doms[j] shifted up by shift
                    shift = rng.choice((-1, 0, 1))
                    shifts[shift] += 1
                    pieces[(i, j)] = (_vmap(rng, doms[j].suspend(shift), cods[i], degree - shift), shift)
        dom, cod = qw_sum(*doms), qw_sum(*cods)
        f = block_vmap(dom, cod, degree, doms, cods, pieces)
        assert (f.domain, f.codomain, f.degree) == (dom, cod, degree)
        for g in dom.dims:
            for s in (1, -1):
                assert _entries(f.block(g, s)) == _dense(doms, cods, degree, pieces, g, s)
        assert all(not mat.is_zero() for mat in f.blocks.values())
        assert VMap(dom, cod, degree, f.blocks) == f
    assert min(shifts.values()) >= 8, shifts


def test_block_vmap_places_the_cone_differential():
    # the cone of a chain map comp: x -> y has the differential
    # [[-dx, 0], [comp, dy]] on x[1] + y, comp read one degree down
    rng = random.Random(2810)
    for _ in range(10):
        x = direct_sum_dihedral(
            functor_i_k(QWComplex(_space(rng, range(0, 3))), 3),
            functor_const(QWComplex(QWSpace({g: (rng.randint(0, 2), 0) for g in range(0, 3)}))),
        )
        c = rng.choice((2, -1, F(1, 3)))
        f = DihedralMorphism(
            x, x, 0, VMap.identity(x.m_inf).scale(c), x.slots.map(lambda v: VMap.identity(v).scale(c)),
        )
        built = cone(f)
        levels = [(built.d_inf, x.m_inf, x.d_inf, f.f_inf)] + [
            (built.d_slot(k), x.slot(k), x.d_slot(k), f.f_slots[k]) for k in x.keys()
        ]
        for d, space, dx, comp in levels:
            sa = space.suspend(1)
            pieces = {(0, 0): (dx.suspend(1).scale(-1), 0), (1, 0): (comp, -1), (1, 1): (dx, 0)}
            assert d.domain == qw_sum(sa, space)
            for g in d.domain.dims:
                for s in (1, -1):
                    assert _entries(d.block(g, s)) == _dense([sa, space], [sa, space], -1, pieces, g, s)


def test_qw_sum_adds_any_number_of_spaces():
    rng = random.Random(2830)
    for _ in range(20):
        spaces = [_space(rng) for _ in range(rng.randint(0, 4))]
        total = qw_sum(*spaces)
        for g in range(-2, 3):
            for s in (1, -1):
                assert total.dim(g, s) == sum(v.dim(g, s) for v in spaces)
    assert qw_sum() == QWSpace.zero()


def test_fixed_parts_are_the_sign_plus_blocks():
    rng = random.Random(2840)
    for _ in range(30):
        v, w, u = _space(rng), _space(rng), _space(rng)
        assert v.fixed().dims == {g: (p, 0) for g, (p, _m) in v.dims.items() if p}
        assert v.fixed().fixed() == v.fixed()
        degree = rng.choice((-1, 0, 1))
        f = _vmap(rng, v, w, degree)
        h = _vmap(rng, u, v, 0)
        ff = f.fixed()
        assert (ff.domain, ff.codomain, ff.degree) == (v.fixed(), w.fixed(), degree)
        assert ff.blocks.keys() == {(g, 1) for g in f.part(1)}
        assert all(ff.blocks[(g, 1)] is mat for g, mat in f.part(1).items())
        # the checked constructor accepts the restriction: its blocks have
        # the fixed parts' shapes
        assert VMap(v.fixed(), w.fixed(), degree, ff.blocks) == ff
        # restriction to the fixed parts is a functor
        assert f.compose(h).fixed() == ff.compose(h.fixed())
