import random
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3alg.errors import InvariantError
from so3alg import linalg
from so3alg.linalg import IncrementalSpan, QMatrix, block_matrix, chain_homology


def test_identity_and_mul():
    a = QMatrix.from_rows([[1, 2], [3, 4]])
    assert QMatrix.identity(2) @ a == a
    assert a @ QMatrix.identity(2) == a


def test_rref_pivots_first_nonzero():
    a = QMatrix.from_rows([[0, 2, 1], [0, 4, 2], [1, 0, 0]])
    r, pivots = a.rref()
    assert pivots == [0, 1]
    assert r[0, 0] == 1


def test_kernel_basis_exact():
    a = QMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    k = a.kernel_basis()
    assert k.cols == 2
    assert (a @ k).is_zero()


def test_kernel_of_injective_map_is_zero():
    a = QMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert a.kernel_basis().cols == 0


def test_cokernel_data():
    a = QMatrix.from_rows([[1, 0], [0, 0], [2, 0]])
    p, d = a.cokernel_data()
    assert d == 2
    assert (p @ a).is_zero()
    assert p.rank() == 2


def test_solve_consistent_and_inconsistent():
    a = QMatrix.from_rows([[1, 1], [0, 1]])
    x = a.solve([3, 1])
    assert x == [Q(2), Q(1)]
    b = QMatrix.from_rows([[1, 1], [2, 2]])
    assert b.solve([1, 3]) is None


def test_inverse_roundtrip():
    a = QMatrix.from_rows([[2, 1], [1, 1]])
    assert a @ a.inverse() == QMatrix.identity(2)
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 1], [1, 1]]).inverse()


def test_solve_matrix():
    a = QMatrix.from_rows([[1, 2], [0, 1]])
    b = QMatrix.identity(2)
    x = a.solve_matrix(b)
    assert a @ x == b


@st.composite
def small_matrix(draw, rows=None, cols=None):
    r = rows or draw(st.integers(1, 4))
    c = cols or draw(st.integers(1, 4))
    data = draw(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return QMatrix.from_rows(data)


def rows_of(m):
    return [m.row(i) for i in range(m.rows)]


def entries_of(m):
    return [x for row in rows_of(m) for x in row]


def fraction_matmul(a, b):
    """The schoolbook product in Fraction arithmetic: the oracle for ``@``."""
    assert a.cols == b.rows
    return QMatrix(
        a.rows,
        b.cols,
        [[sum((a[i, k] * b[k, j] for k in range(a.cols)), Q(0)) for j in range(b.cols)] for i in range(a.rows)],
    )


@st.composite
def rational_matrix(draw, rows, cols):
    entry = st.builds(Q, st.integers(-6, 6), st.integers(1, 6))
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return QMatrix(rows, cols, data)


@st.composite
def rational_product(draw):
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(rational_matrix(r, k)), draw(rational_matrix(k, c))


@given(rational_product())
@settings(max_examples=150, deadline=None)
def test_product_matches_the_fraction_oracle(ab):
    a, b = ab
    assert a @ b == fraction_matmul(a, b)


@given(rational_product(), st.data())
@settings(max_examples=100, deadline=None)
def test_integral_forms_are_canonical_and_compare_by_value(ab, data):
    a, b = ab
    assert a.den == lcm(*(x.denominator for x in entries_of(a)))
    assert QMatrix(a.rows, a.cols, rows_of(a)) == a
    # a product's storage is canonical too, so it compares equal to the
    # same matrix built from its Fraction entries
    prod = a @ b
    assert prod == fraction_matmul(a, b)
    assert prod == QMatrix(prod.rows, prod.cols, rows_of(prod))
    if prod.rows and prod.cols:
        i = data.draw(st.integers(0, prod.rows - 1))
        j = data.draw(st.integers(0, prod.cols - 1))
        ent = {(r, c): prod[r, c] for r in range(prod.rows) for c in range(prod.cols)}
        ent[(i, j)] += data.draw(st.sampled_from([Q(1), Q(-1, 2), Q(1, 6)]))
        other = QMatrix.from_entries(prod.rows, prod.cols, ent)
        assert prod != other
        assert other != prod


def test_integral_form_identity_and_zero():
    assert QMatrix.identity(3).is_identity()
    assert QMatrix.identity(0).is_identity()
    half = QMatrix.identity(2).scale(Q(1, 2))
    assert not half.is_identity()
    assert (half @ QMatrix.identity(2).scale(2)).is_identity()
    assert not QMatrix.from_rows([[1, 0], [0, 1], [0, 0]]).is_identity()
    assert QMatrix(2, 3).is_zero()
    assert not QMatrix.from_rows([[0, Q(1, 3)]]).is_zero()


@given(small_matrix())
@settings(max_examples=50, deadline=None)
def test_rank_nullity(a):
    assert a.rank() + a.kernel_basis().cols == a.cols


@given(small_matrix())
@settings(max_examples=50, deadline=None)
def test_cokernel_complements_rank(a):
    p, d = a.cokernel_data()
    assert d == a.rows - a.rank()
    assert (p @ a).is_zero()


@given(small_matrix())
@settings(max_examples=30, deadline=None)
def test_kernel_vectors_annihilated(a):
    k = a.kernel_basis()
    assert (a @ k).is_zero()


@given(small_matrix(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_matrix_matches_column_by_column_solve(a, data):
    """One elimination of [A | B] gives what solve gives for each column,
    and None when exactly one column is inconsistent."""
    cols = [
        a.apply(data.draw(st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols)))
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    p, d = a.cokernel_data()
    if d and cols and data.draw(st.booleans()):
        # row k of p pairs with itself to a positive number while p @ a == 0,
        # so it lies outside the column space of a
        k = data.draw(st.integers(0, d - 1))
        cols[data.draw(st.integers(0, len(cols) - 1))] = p.row(k)
    b = QMatrix(a.rows, len(cols), [[c[i] for c in cols] for i in range(a.rows)])
    expected = [a.solve(c) for c in cols]
    got = a.solve_matrix(b)
    if None in expected:
        assert expected.count(None) == 1
        assert got is None
    else:
        assert [got.col(j) for j in range(b.cols)] == expected


@given(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_span_coefficients_rebuild_in_insertion_order(vectors, data):
    span = IncrementalSpan(4)
    accepted = [v for v in vectors if span.add(v)]
    assert span.rank() == len(accepted) == (QMatrix.from_rows(vectors).rank() if vectors else 0)
    lam = data.draw(st.lists(st.integers(-3, 3), min_size=len(accepted), max_size=len(accepted)))
    v = [sum((c * w[i] for c, w in zip(lam, accepted)), Q(0)) for i in range(4)]
    assert span.coefficients(v) == lam
    if len(accepted) < 4:
        outside = next(
            e for e in ([int(i == k) for i in range(4)] for k in range(4))
            if QMatrix.from_rows(accepted + [e]).rank() > len(accepted)
        )
        assert span.coefficients(outside) is None


def _random_complex(rng, dims):
    """Differentials d_g : C_g -> C_{g-1} with d_{g-1} @ d_g == 0, built from
    the top degree down as products M @ P with P @ d_{g+1} == 0."""
    degs = sorted(dims, reverse=True)
    mats = {}
    for g in degs[:-1]:
        up = mats.get(g + 1)
        proj = QMatrix.identity(dims[g]) if up is None else up.cokernel_data()[0]
        m = QMatrix(dims[g - 1], proj.rows, [[rng.randint(-2, 2) for _ in range(proj.rows)] for _ in range(dims[g - 1])])
        mats[g] = m @ proj
    return mats


def _stacked_oracle(dims, mats, g):
    """The slow path at degree g: [boundaries | cycle reps] as the pivot
    columns of [d_{g+1} | ker d_g], to be solved by one elimination per
    vector."""
    n = dims[g]
    up = mats.get(g + 1, QMatrix(n, 0))
    Z = mats.get(g, QMatrix(dims.get(g - 1, 0), n)).kernel_basis()
    both = up.hstack(Z)
    _, pivots = both.rref()
    stacked = QMatrix(n, len(pivots), [[both[i, c] for c in pivots] for i in range(n)])
    nb = sum(1 for c in pivots if c < up.cols)
    return stacked, nb, Z


@pytest.mark.parametrize("seed", range(12))
def test_chain_homology_matches_stacked_solve(seed):
    rng = random.Random(seed)
    dims = {g: rng.randint(0, 4) for g in range(4)}
    mats = _random_complex(rng, dims)
    for g in range(1, 4):
        if g - 1 in mats:
            assert (mats[g - 1] @ mats[g]).is_zero()
    hdims, reps, projs = chain_homology(dims, mats)
    for g in dims:
        stacked, nb, Z = _stacked_oracle(dims, mats, g)
        up_rank = mats[g + 1].rank() if g + 1 in mats else 0
        assert hdims[g] == stacked.cols - nb == Z.cols - up_rank
        assert [reps[g].col(j) for j in range(reps[g].cols)] == [stacked.col(j) for j in range(nb, stacked.cols)]
        for _ in range(3):
            cycle = Z.apply([rng.randint(-3, 3) for _ in range(Z.cols)])
            assert projs[g](QMatrix.column(cycle)).col(0) == stacked.solve(cycle)[nb:]


def test_chain_homology_projection_rejects_a_non_cycle():
    # C_1 = Q^2 -> C_0 = Q, d = (1 0): e_1 is a cycle, e_0 is not
    dims = {0: 1, 1: 2}
    mats = {1: QMatrix.from_rows([[1, 0]])}
    hdims, reps, projs = chain_homology(dims, mats)
    assert hdims == {0: 0, 1: 1}
    assert projs[1](QMatrix.column([0, 5])) == QMatrix.column([5])
    with pytest.raises(InvariantError):
        projs[1](QMatrix.column([1, 0]))


@st.composite
def block_layout(draw):
    """Block sizes (zero allowed) and a random subset of blocks of those shapes."""
    row_sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    col_sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    blocks = {}
    for i, r in enumerate(row_sizes):
        for j, c in enumerate(col_sizes):
            if draw(st.booleans()):
                blocks[(i, j)] = draw(rational_matrix(r, c))
    return row_sizes, col_sizes, blocks


@given(block_layout())
@settings(max_examples=150, deadline=None)
def test_block_matrix_matches_an_entrywise_oracle(layout):
    row_sizes, col_sizes, blocks = layout
    m = block_matrix(row_sizes, col_sizes, blocks)
    assert (m.rows, m.cols) == (sum(row_sizes), sum(col_sizes))
    # the oracle: entry (r, c) lies in the row block i with
    # sum(row_sizes[:i]) <= r < sum(row_sizes[:i + 1]), and likewise for c
    row_of = [(i, k) for i, n in enumerate(row_sizes) for k in range(n)]
    col_of = [(j, k) for j, n in enumerate(col_sizes) for k in range(n)]
    for r, (i, ri) in enumerate(row_of):
        for c, (j, cj) in enumerate(col_of):
            b = blocks.get((i, j))
            assert m[r, c] == (b[ri, cj] if b is not None else 0)
            assert isinstance(m[r, c], Q)


@given(block_layout(), st.data())
@settings(max_examples=80, deadline=None)
def test_block_matrix_rejects_a_block_of_the_wrong_shape(layout, data):
    row_sizes, col_sizes, blocks = layout
    i = data.draw(st.integers(0, len(row_sizes) - 1))
    j = data.draw(st.integers(0, len(col_sizes) - 1))
    r = data.draw(st.integers(0, 4))
    c = data.draw(st.integers(0, 4).filter(lambda c: (r, c) != (row_sizes[i], col_sizes[j])))
    blocks[(i, j)] = QMatrix(r, c)
    with pytest.raises(ValueError):
        block_matrix(row_sizes, col_sizes, blocks)


def loop_kron(a, b):
    """The Kronecker product by placing entries one at a time: the oracle
    for ``QMatrix.kron``."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    data = [[Q(0)] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] == 0:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    data[i * b.rows + k][j * b.cols + l] = a[i, j] * b[k, l]
    return QMatrix(rows, cols, data)


@st.composite
def rational_pair(draw):
    r1, c1, r2, c2 = (draw(st.integers(0, 4)) for _ in range(4))
    return draw(rational_matrix(r1, c1)), draw(rational_matrix(r2, c2))


@given(rational_pair())
@settings(max_examples=150, deadline=None)
def test_kron_matches_the_loop_oracle(ab):
    a, b = ab
    k = a.kron(b)
    assert k == loop_kron(a, b)
    assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)


def test_project_columns_reads_homology_classes():
    # C_1 = Q^2 -> C_0 = Q, d = (1 0): e_1 spans H_1, and e_0 + e_1 is no cycle
    hdims, _, projs = chain_homology({0: 1, 1: 2}, {1: QMatrix.from_rows([[1, 0]])})
    cycles = QMatrix.from_rows([[0, 0, 0], [2, -1, 0]])
    assert projs[1](cycles) == QMatrix.from_rows([[2, -1, 0]])
    assert projs[1](QMatrix(2, 0)) == QMatrix(1, 0)
    with pytest.raises(InvariantError):
        projs[1](QMatrix.from_rows([[1], [1]]))


# -- Fraction oracles for the integer elimination -------------------------------------
#
# The elimination kernel and the span as they were written in Fraction
# arithmetic, on lists of Fraction rows: the integer kernel must return the
# same values, because the reduced row echelon form and coordinates in a
# basis are unique.


def fraction_rref(data, cols):
    """Reduced row echelon form with first-nonzero pivoting, in Fractions."""
    m = [list(row) for row in data]
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def fraction_kernel(data, cols):
    R, pivots = fraction_rref(data, cols)
    free = [c for c in range(cols) if c not in pivots]
    out = [[Q(0)] * len(free) for _ in range(cols)]
    for k, fc in enumerate(free):
        out[fc][k] = Q(1)
        for r, pc in enumerate(pivots):
            out[pc][k] = -R[r][fc]
    return out


def fraction_cokernel(data, rows, cols):
    Rt, pivots = fraction_rref([[data[i][j] for i in range(rows)] for j in range(cols)], rows)
    comp = [i for i in range(rows) if i not in pivots]
    P = [[Q(0)] * rows for _ in comp]
    for k, i in enumerate(comp):
        P[k][i] = Q(1)
    for r, pc in enumerate(pivots):
        for k, i in enumerate(comp):
            P[k][pc] = -Rt[r][i]
    return P


def fraction_solve_matrix(data, cols, rhs, width):
    """Solutions of A X = B (B with the given width) from one elimination of
    [A | B], or None if a column is inconsistent."""
    R, pivots = fraction_rref([row + r for row, r in zip(data, rhs)], cols + width)
    if pivots and pivots[-1] >= cols:
        return None
    X = [[Q(0)] * width for _ in range(cols)]
    for r, c in enumerate(pivots):
        X[c] = R[r][cols:]
    return X


class FractionSpan:
    """The incremental span in Fractions."""

    def __init__(self, dim):
        self.dim = dim
        self._reduced = []

    def _reduce(self, v):
        r = [Q(x) for x in v]
        mu = [Q(0)] * len(self._reduced)
        for pivot, rv, cf in self._reduced:
            if r[pivot] != 0:
                lam = r[pivot] / rv[pivot]
                r = [x - lam * y for x, y in zip(r, rv)]
                for j, c in enumerate(cf):
                    mu[j] += lam * c
        return r, mu

    def coefficients(self, v):
        r, mu = self._reduce(v)
        return None if any(r) else mu

    def add(self, v):
        r, mu = self._reduce(v)
        if not any(r):
            return False
        for _, _, old in self._reduced:
            old.append(Q(0))
        pivot = next(i for i, x in enumerate(r) if x != 0)
        self._reduced.append((pivot, r, [-x for x in mu] + [Q(1)]))
        return True


def fraction_chain_homology(dims, mats):
    """chain_homology with one span per degree and a projection per vector."""
    hdims, reps, projs = {}, {}, {}
    for g in sorted(dims):
        n = dims[g]
        down = mats[g] if g in mats else QMatrix(dims.get(g - 1, 0), n)
        Z = down.kernel_basis() if n else QMatrix(0, 0)
        up = mats[g + 1] if g + 1 in mats else QMatrix(n, dims.get(g + 1, 0))
        span = FractionSpan(n)
        for j in range(up.cols):
            v = up.col(j)
            if any(v):
                span.add(v)
        nb = len(span._reduced)
        hcols = [v for v in (Z.col(j) for j in range(Z.cols)) if span.add(v)]
        hdims[g] = len(hcols)
        reps[g] = QMatrix(n, len(hcols), [[v[i] for v in hcols] for i in range(n)])

        def to_h(vec, span=span, nb=nb):
            mu = span.coefficients(vec)
            if mu is None:
                raise InvariantError("vector is not a cycle modulo boundaries")
            return mu[nb:]

        projs[g] = to_h
    return hdims, reps, projs


@st.composite
def hostile_matrix(draw, rows=None, cols=None):
    """Shapes 0-6, entries with denominators 1-6 of both signs (so pivots can
    be negative), and some rows and columns zeroed out."""
    r = draw(st.integers(0, 6)) if rows is None else rows
    c = draw(st.integers(0, 6)) if cols is None else cols
    entry = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-6, 6), st.integers(1, 6)))
    data = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0)))) if r else set()
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0)))) if c else set()
    data = [
        [Q(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(data)
    ]
    return QMatrix(r, c, data)


@given(hostile_matrix())
@settings(max_examples=200, deadline=None)
def test_elimination_matches_the_fraction_oracle(a):
    data = rows_of(a)
    R, pivots = fraction_rref(data, a.cols)
    got, got_pivots = a.rref()
    assert (rows_of(got), got_pivots) == (R, pivots)
    # the reduced form is stored canonically: equal to the same matrix
    # built from its entries
    assert got == QMatrix(got.rows, got.cols, R)
    assert a.rank() == len(pivots)
    assert rows_of(a.kernel_basis()) == fraction_kernel(data, a.cols)
    P, d = a.cokernel_data()
    assert rows_of(P) == fraction_cokernel(data, a.rows, a.cols)
    assert (P.rows, P.cols) == (d, a.rows)


@given(hostile_matrix(), st.data())
@settings(max_examples=200, deadline=None)
def test_solves_match_the_fraction_oracle(a, data):
    k = data.draw(st.integers(0, 3))
    rhs = data.draw(hostile_matrix(rows=a.rows, cols=k))
    if data.draw(st.booleans()):
        # consistent right-hand sides too, not only the generic inconsistent ones
        rhs = a @ data.draw(hostile_matrix(rows=a.cols, cols=k))
    expected = fraction_solve_matrix(rows_of(a), a.cols, rows_of(rhs), k)
    got = a.solve_matrix(rhs)
    assert (got is None and expected is None) or rows_of(got) == expected
    for j in range(k):
        col = fraction_solve_matrix(rows_of(a), a.cols, [[x] for x in rhs.col(j)], 1)
        assert a.solve(rhs.col(j)) == (None if col is None else [row[0] for row in col])


@given(st.integers(0, 6).flatmap(lambda n: hostile_matrix(rows=n, cols=n)))
@settings(max_examples=200, deadline=None)
def test_inverse_matches_the_fraction_oracle(a):
    n = a.rows
    identity = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    R, pivots = fraction_rref([row + e for row, e in zip(rows_of(a), identity)], 2 * n)
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError):
            a.inverse()
    else:
        assert rows_of(a.inverse()) == [row[n:] for row in R]


def test_rank_builds_no_fraction(monkeypatch):
    mats = [
        QMatrix.from_rows([[Q(1, 2), 0, Q(-3, 4)], [Q(1, 3), Q(2, 5), 1], [0, 0, 0]]),
        QMatrix.from_rows([[2, -4], [1, -2]]),
        QMatrix.from_rows([[Q(1, 6)]]),
        QMatrix(0, 3),
    ]

    def refuse(*args):
        raise AssertionError("rank built a Fraction")

    monkeypatch.setattr(linalg, "Q", refuse)
    monkeypatch.setattr(linalg, "Fraction", refuse)
    assert [m.rank() for m in mats] == [2, 1, 1, 0]


@given(
    st.lists(st.lists(st.builds(Q, st.integers(-3, 3), st.integers(1, 6)), min_size=4, max_size=4), max_size=7)
)
@settings(max_examples=100, deadline=None)
def test_span_matches_the_fraction_oracle(vectors):
    span, oracle = IncrementalSpan(4), FractionSpan(4)
    for v in vectors:
        assert span.coefficients(v) == oracle.coefficients(v)
        assert span.add(v) == oracle.add(v)
    for v in vectors:
        assert span.coefficients(v) == oracle.coefficients(v)


@pytest.mark.parametrize("seed", range(12))
def test_whole_matrix_projections_match_the_per_column_oracle(seed):
    rng = random.Random(100 + seed)
    dims = {g: rng.randint(0, 5) for g in range(4)}
    mats = _random_complex(rng, dims)
    if 2 in mats and rng.random() < 0.5:
        mats[2] = mats[2].scale(Q(rng.choice((-1, 1)), rng.randint(1, 6)))
        mats.pop(1, None)
    hdims, reps, projs = chain_homology(dims, mats)
    ohdims, oreps, oprojs = fraction_chain_homology(dims, mats)
    assert (hdims, reps) == (ohdims, oreps)
    for g, n in dims.items():
        Z = mats[g].kernel_basis() if g in mats else QMatrix.identity(n)
        coef = QMatrix(Z.cols, 3, [[Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)] for _ in range(Z.cols)])
        cycles = Z @ coef
        expected = [oprojs[g](cycles.col(j)) for j in range(cycles.cols)]
        assert projs[g](cycles) == QMatrix(hdims[g], 3, [[e[i] for e in expected] for i in range(hdims[g])])
        # a column outside the cycles is refused by both
        if Z.cols < n:
            outside = next(
                j for j in range(n)
                if QMatrix.identity(n).columns([j]).hstack(Z).rank() > Z.cols
            )
            bad = cycles.hstack(QMatrix.identity(n).columns([outside]))
            with pytest.raises(InvariantError):
                projs[g](bad)
            with pytest.raises(InvariantError):
                oprojs[g](bad.col(bad.cols - 1))


def _sparse_complex(rng):
    """A complex on degrees 0-7 in which at least half the degrees are empty
    or have no incoming boundary: some dimensions are 0, and every other
    differential is dropped (missing, or a zero matrix), which keeps d² = 0."""
    dims = {g: rng.choice((0, 0, 1, 2, 3, 4)) for g in range(8)}
    mats = _random_complex(rng, dims)
    for g in range(rng.randint(1, 2), 8, 2):
        if g in mats and rng.random() < 0.5:
            mats[g] = QMatrix(dims[g - 1], dims[g])
        else:
            mats.pop(g, None)
    for g in list(mats):
        mats[g] = mats[g].scale(Q(rng.choice((-1, 1)), rng.randint(1, 5)))
    return dims, mats


def _no_boundary(mats, g):
    up = mats.get(g + 1)
    return up is None or up.is_zero()


@pytest.mark.parametrize("seed", range(16))
def test_empty_and_boundary_free_degrees_match_the_fraction_oracle(seed):
    rng = random.Random(700 + seed)
    dims, mats = _sparse_complex(rng)
    cheap = [g for g in dims if not dims[g] or _no_boundary(mats, g)]
    assert 2 * len(cheap) >= len(dims)
    hdims, reps, projs = chain_homology(dims, mats)
    ohdims, oreps, oprojs = fraction_chain_homology(dims, mats)
    assert hdims == ohdims
    for g, n in dims.items():
        assert reps[g].cols == oreps[g].cols
        for j in range(reps[g].cols):
            assert reps[g].col(j) == oreps[g].col(j)
        down = mats.get(g, QMatrix(dims.get(g - 1, 0), n))
        # the cycles, from the Fraction elimination alone
        kernel = fraction_kernel(rows_of(down), n)
        Z = QMatrix(n, len(kernel[0]) if n else 0, kernel)
        if g in cheap:
            assert reps[g] == Z
        coef = QMatrix(Z.cols, 3, [[Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)] for _ in range(Z.cols)])
        cycles = Z @ coef
        expected = [oprojs[g](cycles.col(j)) for j in range(cycles.cols)]
        assert projs[g](cycles) == QMatrix(hdims[g], 3, [[e[i] for e in expected] for i in range(hdims[g])])
        # every column of C_g that down does not kill is refused by both
        if g in cheap:
            for j in range(n):
                if any(down.col(j)):
                    bad = cycles.hstack(QMatrix.identity(n).columns([j]))
                    with pytest.raises(InvariantError):
                        projs[g](bad)
                    with pytest.raises(InvariantError):
                        oprojs[g](bad.col(bad.cols - 1))


def test_empty_and_boundary_free_degrees_take_at_most_one_elimination(monkeypatch):
    calls = []
    rref = QMatrix.rref
    monkeypatch.setattr(QMatrix, "rref", lambda self: calls.append(1) or rref(self))
    seen = {"empty": 0, "no boundary": 0}
    for seed in range(16):
        dims, mats = _sparse_complex(random.Random(700 + seed))
        for g, n in dims.items():
            calls.clear()
            one = {h: mats[h] for h in (g, g + 1) if h in mats}
            chain_homology({g: n}, one)
            down = one.get(g)
            if not n:
                assert not calls, (seed, g)
                seen["empty"] += 1
            elif _no_boundary(mats, g) and down is not None and not down.is_zero():
                assert len(calls) == 1, (seed, g)
                seen["no boundary"] += 1
    assert min(seen.values()) >= 10, seen
