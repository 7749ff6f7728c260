import copy
import random
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3alg.errors import InvariantError
from so3alg import linalg
from so3alg.linalg import IncrementalSpan, QMatrix, block_matrix, chain_homology, subquotient
from subquotient_oracle import bordered_subquotient
from weq_oracles import (
    both_oracles, is_chain_map, perturbed_identity, random_chain_map, random_complex,
)


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
    assert m == entrywise_block_matrix(row_sizes, col_sizes, blocks)
    assert all(isinstance(x, Q) for x in entries_of(m))


def entrywise_block_matrix(row_sizes, col_sizes, blocks):
    """The oracle for ``block_matrix``: entry (r, c) lies in the row block i
    with sum(row_sizes[:i]) <= r < sum(row_sizes[:i + 1]), and likewise for c."""
    row_of = [(i, k) for i, n in enumerate(row_sizes) for k in range(n)]
    col_of = [(j, k) for j, n in enumerate(col_sizes) for k in range(n)]
    data = [[Q(0)] * len(col_of) for _ in row_of]
    for r, (i, ri) in enumerate(row_of):
        for c, (j, cj) in enumerate(col_of):
            b = blocks.get((i, j))
            if b is not None:
                data[r][c] = b[ri, cj]
    return QMatrix(len(row_of), len(col_of), data)


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


@st.composite
def identity_and_factor(draw):
    """An identity of size 0-4 and a factor of 0-4 rows and columns, with a
    denominator above 1 when it is nonzero and drawn so."""
    n, r, c = (draw(st.integers(0, 4)) for _ in range(3))
    other = draw(rational_matrix(r, c))
    if draw(st.booleans()):
        other = other.scale(Q(1, draw(st.integers(2, 7))))
    return QMatrix.identity(n), other


@given(identity_and_factor(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_an_identity_factor_on_either_side_matches_the_loop_oracle(pair, on_the_left):
    # kron places an identity factor's blocks or spread rows instead of
    # multiplying by its entries; the result must still be canonical
    eye, other = pair
    a, b = (eye, other) if on_the_left else (other, eye)
    assert a.kron(b) == loop_kron(a, b)


def test_an_identity_factor_keeps_the_canonical_denominator():
    half = QMatrix(1, 1, [[Q(1, 2)]])
    thirds = QMatrix(2, 2, [[Q(1, 3), Q(0)], [Q(-2, 3), Q(5, 6)]])
    empty = QMatrix.identity(0)
    for a, b in (
        (empty, half), (half, empty),  # 0 x 0: the empty matrix has den 1
        (QMatrix.identity(3), QMatrix(0, 2)), (QMatrix(0, 2), QMatrix.identity(3)),
        (QMatrix.identity(2), QMatrix(3, 0)), (QMatrix(3, 0), QMatrix.identity(2)),
        (QMatrix.identity(2), thirds), (thirds, QMatrix.identity(3)),
        (QMatrix.identity(1), half), (QMatrix.identity(2), QMatrix.identity(3)),
    ):
        k = a.kron(b)
        assert k == loop_kron(a, b), (a, b)
        if not (k.rows and k.cols):
            assert (k.den, k.ints) == (1, [[]] * k.rows), (a, b)
    assert empty.kron(half).den == half.kron(empty).den == 1
    assert QMatrix.identity(2).kron(thirds).den == thirds.kron(QMatrix.identity(2)).den == 6


# -- results that are an operand, returned as they are ------------------------------


@st.composite
def scaled_matrix(draw):
    """A 0-4 x 0-4 matrix, with a denominator above 1 when it is nonzero and
    drawn so."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    m = draw(rational_matrix(r, c))
    return m.scale(Q(1, draw(st.integers(2, 7)))) if draw(st.booleans()) else m


@given(scaled_matrix(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_an_identity_operand_of_a_product_returns_the_other(m, on_the_left):
    eye = QMatrix.identity(m.rows if on_the_left else m.cols)
    prod = eye @ m if on_the_left else m @ eye
    assert prod == fraction_matmul(*((eye, m) if on_the_left else (m, eye)))
    if m.rows and m.cols:
        # the left factor is asked first: an identity m on the left of eye gives eye
        assert prod is (eye if m.is_identity() and not on_the_left else m)
    assert (prod.den, prod.ints) == (m.den, m.ints)


def _look_alikes(n):
    """n x n matrices that resemble the identity but are not it: a cyclic
    permutation, the identity with one extra integer entry (so its
    denominator is 1 and its diagonal all ones), twice and half the identity."""
    perm = QMatrix.from_entries(n, n, {(i, (i + 1) % n): 1 for i in range(n)})
    extra = QMatrix.from_entries(n, n, {**{(i, i): 1 for i in range(n)}, (n - 1, 0): 2})
    return [perm, extra, QMatrix.identity(n).scale(2), QMatrix.identity(n).scale(Q(1, 2))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_products_with_identity_look_alikes_take_the_general_path(n):
    rng = random.Random(2600 + n)
    m = QMatrix(n, n, [[Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)])
    for a in _look_alikes(n):
        assert not a.is_identity()
        for x, y in ((a, m), (m, a)):
            prod = x @ y
            assert prod == fraction_matmul(x, y)
            assert prod is not x and prod is not y
        # beside a true identity the look-alike is the operand returned
        eye = QMatrix.identity(n)
        assert a @ eye is a and eye @ a is a


@pytest.mark.parametrize("shape", [(0, 0, 0), (0, 0, 3), (3, 0, 0), (0, 3, 0), (3, 0, 2), (2, 3, 0)])
def test_products_of_empty_shapes_are_fresh_zero_matrices(shape):
    r, k, c = shape
    for a, b in ((QMatrix.identity(r), QMatrix(r, c)), (QMatrix(r, k), QMatrix.identity(k)),
                 (QMatrix(r, k), QMatrix(k, c))):
        if a.cols != b.rows:
            continue
        prod = a @ b
        assert prod == fraction_matmul(a, b) == QMatrix(a.rows, b.cols)
        assert (prod.den, prod.ints) == (1, [[0] * b.cols for _ in range(a.rows)])
        if not (a.rows and a.cols and b.cols):
            assert prod is not a and prod is not b
    eye = QMatrix.identity(0)
    assert eye @ eye == eye and (eye @ eye) is not eye


@given(scaled_matrix(), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_a_lone_whole_block_is_returned_and_a_padded_one_is_placed(b, top, bottom, left, right):
    # zero-size blocks around a lone block leave it the whole matrix
    rows, cols = [0] * top + [b.rows] + [0] * bottom, [0] * left + [b.cols] + [0] * right
    blocks = {(top, left): b}
    whole = block_matrix(rows, cols, blocks)
    assert whole is b
    assert whole == entrywise_block_matrix(rows, cols, blocks)
    # one row or column block more of size 1 and the block must be padded
    for rows, cols, at in ((rows + [1], cols, (top, left)), (rows, [1] + cols, (top, left + 1))):
        padded = block_matrix(rows, cols, {at: b})
        assert padded is not b
        assert padded == entrywise_block_matrix(rows, cols, {at: b})
        assert padded.den == (b.den if b.rows and b.cols else 1)


def test_a_lone_block_of_the_wrong_shape_is_refused_even_when_it_would_fill_the_matrix():
    b = QMatrix.from_rows([[1, 2], [3, 4]])
    # the whole matrix is 2 x 2, but block (0, 0) is 0 x 2
    with pytest.raises(ValueError):
        block_matrix([0, 2], [2], {(0, 0): b})
    with pytest.raises(ValueError):
        block_matrix([2], [1, 1], {(0, 1): b})
    assert block_matrix([2], [2], {}) == QMatrix(2, 2)


def loop_submatrix(m, rows, cols):
    """The oracle for ``submatrix``: each entry read one at a time."""
    return QMatrix(len(rows), len(cols), [[m[i, j] for j in cols] for i in rows])


@given(scaled_matrix(), st.data())
@settings(max_examples=150, deadline=None)
def test_a_full_selection_returns_the_matrix_and_any_other_matches_the_loop_oracle(m, data):
    every_row, every_col = range(m.rows), range(m.cols)
    for rows, cols in ((every_row, every_col), (list(every_row), list(every_col)), (tuple(every_row), every_col)):
        assert m.submatrix(rows, cols) is m
        assert m == loop_submatrix(m, rows, cols)
    assert m.columns(every_col) is m and m.columns(list(every_col)) is m
    rows = data.draw(st.lists(st.integers(0, m.rows - 1), max_size=5) if m.rows else st.just([]))
    cols = data.draw(st.lists(st.integers(0, m.cols - 1), max_size=5) if m.cols else st.just([]))
    sub = m.submatrix(rows, cols)
    assert sub == loop_submatrix(m, rows, cols)
    if (rows, cols) != (list(every_row), list(every_col)):
        assert sub is not m
    assert m.columns(cols) == loop_submatrix(m, every_row, cols)


def test_reordered_and_partial_selections_take_the_general_path():
    m = QMatrix.from_rows([[1, Q(1, 2), 0], [0, 3, Q(-1, 4)]])
    for rows, cols in (([1, 0], range(3)), (range(2), [0, 2, 1]), ([0, 1, 1], range(3)),
                       (range(1), range(3)), (range(2), [0, 1]), (range(1, 2), range(3))):
        sub = m.submatrix(rows, cols)
        assert sub is not m
        assert sub == loop_submatrix(m, rows, cols)
    assert m.columns([2, 1, 0]) == loop_submatrix(m, range(2), [2, 1, 0])
    # a selection of no rows or no columns of a matrix that has some is a new matrix
    for rows, cols in (([], range(3)), (range(2), [])):
        assert m.submatrix(rows, cols) == QMatrix(len(rows), len(cols))
    for empty in (QMatrix(0, 0), QMatrix(3, 0), QMatrix(0, 3)):
        assert empty.submatrix(range(empty.rows), range(empty.cols)) is empty


def test_the_identity_is_one_instance_per_size():
    for n in range(6):
        eye = QMatrix.identity(n)
        assert eye is QMatrix.identity(n) and eye.is_identity()
        assert eye == loop_submatrix(QMatrix.diagonal([1] * n), range(n), range(n))
        assert QMatrix.diagonal([1] * n) is not eye and QMatrix.diagonal([1] * n).is_identity()


def _storage(m):
    """A deep copy of everything a QMatrix holds."""
    return m.rows, m.cols, m.den, copy.deepcopy(m.ints)


def _every_operation(eye, a, b):
    """Every public operation of QMatrix and the module's functions, on the
    n x n identity eye and n x n matrices a and b, with the results that
    return an operand fed on into further operations."""
    n = eye.rows
    ones = [1] * n
    out = []
    for m in (eye, a, b):
        out += [m.is_zero(), m.is_identity(), hash(m), repr(m), m == eye, m.row(0), m.col(n - 1),
                list(m.entries()), m[0, 0], m.apply(ones), m.rank(), m.is_invertible(),
                m.transpose(), m.rref(), m.kernel_basis(), m.cokernel_data(), m.solve(ones),
                m.solve_matrix(eye), m.scale(1), m.scale(Q(-2, 3)), m.kron(eye), eye.kron(m),
                m.kron(QMatrix.identity(2)), m.hstack(eye), m + eye, m - m]
        if m.is_invertible():
            out.append(m.inverse())
        for x in (m @ eye, eye @ m, m.submatrix(range(n), range(n)), m.columns(range(n)),
                  m.submatrix([0], range(n)), block_matrix([n], [n], {(0, 0): m}),
                  block_matrix([n, 1], [n], {(0, 0): m})):
            out += [x @ QMatrix.identity(x.cols), QMatrix.identity(x.rows) @ x, x.transpose() @ x,
                    x.rref(), x + x, x.scale(3), x.kernel_basis()]
    out += [QMatrix.from_rows(rows_of(eye)), QMatrix.from_entries(n, n, {(0, 0): 1}),
            QMatrix.column(ones), QMatrix.from_columns(n, [ones]), QMatrix.diagonal(ones),
            QMatrix.identity(n + 1)]
    out.append(block_matrix([n, n], [n, n], {(0, 0): eye, (1, 1): a, (0, 1): b}))
    for Z, B in ((eye, a), (eye, QMatrix(n, 0)), (a, b), (a, eye)):
        reps, proj = subquotient(Z, B)
        out += [reps, proj(Z)]
    dims, mats = {0: n, 1: n, 2: n}, {1: a, 2: b}
    for mats in ({1: eye}, {1: a, 2: QMatrix(n, n)}, {2: eye}):
        hdims, reps, projs = chain_homology(dims, mats)
        out += [hdims, dict(reps), {g: projs[g](reps[g]) for g in dims}]
    out += [
        linalg.is_quasi_isomorphism(dims, {1: eye}, dims, {1: eye}, {g: eye for g in dims}, 0),
        linalg.is_quasi_isomorphism(dims, {}, dims, {}, {0: eye, 1: a, 2: eye}, 0),
    ]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_operation_changes_an_input_or_a_shared_identity(n):
    # results may be the identity or an input itself: nothing may write into them
    rng = random.Random(2610 + n)
    a = QMatrix(n, n, [[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
    b = QMatrix.from_entries(n, n, {(0, n - 1): Q(5, 2)})  # b @ b == 0 for n > 1
    eye = QMatrix.identity(n)
    identities = {k: QMatrix.identity(k) for k in range(6)}
    before = {k: _storage(m) for k, m in identities.items()}
    inputs = [eye, a, b]
    saved = [_storage(m) for m in inputs]
    results = _every_operation(eye, a, b)
    assert results  # the results are kept alive while the inputs are compared
    assert [_storage(m) for m in inputs] == saved
    assert {k: _storage(m) for k, m in identities.items()} == before
    for k, m in identities.items():
        assert QMatrix.identity(k) is m and m.is_identity()
        assert m == QMatrix.diagonal([1] * k)


def test_the_sharing_guard_sees_a_planted_write(monkeypatch):
    # a scale that writes into its input's rows is what the guard must catch
    real = QMatrix.scale

    def writing_scale(self, k):
        if self.rows and self.cols:
            self.ints[0][0] += 1
        return real(self, k)

    identities = [QMatrix.identity(k) for k in range(6)]
    saved = [copy.deepcopy(m.ints) for m in identities]
    monkeypatch.setattr(QMatrix, "scale", writing_scale)
    try:
        with pytest.raises(AssertionError):
            test_no_operation_changes_an_input_or_a_shared_identity(2)
    finally:
        # the planted write reached the shared identities: put their rows back
        for m, rows in zip(identities, saved):
            for row, old in zip(m.ints, rows):
                row[:] = old
    assert all(m.ints == rows for m, rows in zip(identities, saved))


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


def _low_rank_rows(rng, rows, cols, rank, entry):
    """The rows of a product of a rows x rank and a rank x cols factor whose
    entries entry(rng) draws: of rank at most rank."""
    left = [[entry(rng) for _ in range(rank)] for _ in range(rows)]
    right = [[entry(rng) for _ in range(cols)] for _ in range(rank)]
    return [[sum((a * b for a, b in zip(row, col)), Q(0)) for col in zip(*right)] for row in left]


def _small(rng):
    return Q(rng.choice((0, 0, 1, -1, 2, -3, 4)), rng.choice((1, 1, 2, 3)))


def _distinct_denominator(rng):
    return Q(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 11, 13, 17)))


def _large(rng):
    return Q(rng.randint(-10**30, 10**30), rng.choice((1, 10**12 + 39)))


def hostile_rank_matrices(rng):
    """(kind, rows, cols, the most the rank can be by construction) for each
    kind of matrix the rank test needs; the rows are shuffled, so that
    dependent rows can come before the rows they depend on."""
    out = []
    n = rng.randint(2, 5)
    for kind, entry in (("small", _small), ("denominators", _distinct_denominator), ("large", _large)):
        base = [[entry(rng) for _ in range(n + 1)] for _ in range(n)]
        lam = Q(rng.choice((-5, -2, 3, 7)), rng.choice((2, 3, 11)))
        out.append((f"zero rows, {kind}", base[:2] + [[Q(0)] * (n + 1)] * 2, n + 1, 2))
        out.append((f"repeated rows, {kind}", base + base[:2], n + 1, n))
        out.append((f"proportional rows, {kind}", base + [[lam * x for x in r] for r in base[:2]], n + 1, n))
        out.append((f"wide, {kind}", base, n + 1, n))
    k = rng.randint(1, n - 1)
    out.append(("tall deficient", _low_rank_rows(rng, n + 3, n, k, _distinct_denominator), n, k))
    out.append(("wide deficient", _low_rank_rows(rng, n, n + 3, k, _small), n + 3, k))
    out.append(("tall deficient, large", _low_rank_rows(rng, n + 2, n, k, _large), n, k))
    out.append(("0xn", [], n, 0))
    out.append(("nx0", [[] for _ in range(n)], 0, 0))
    out.append(("1xn", [[_distinct_denominator(rng) for _ in range(n)]], n, 1))
    out.append(("1xn zero", [[Q(0)] * n], n, 0))
    out.append(("nx1", [[_large(rng)] for _ in range(n)], 1, 1))
    out.append(("nx1 zero", [[Q(0)] for _ in range(n)], 1, 0))
    for _, data, _, _ in out:
        rng.shuffle(data)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_rank_matches_the_fraction_oracle_on_hostile_matrices(seed):
    # rank is a forward elimination of its own: it must count the pivots
    # that the Fraction oracle and rref find
    deficient = 0
    for kind, data, cols, most in hostile_rank_matrices(random.Random(5100 + seed)):
        a = QMatrix(len(data), cols, data)
        pivots = len(fraction_rref(data, cols)[1])
        assert a.rank() == pivots == len(a.rref()[1]), kind
        assert pivots <= most, kind
        deficient += pivots < min(a.rows, a.cols)
    assert deficient >= 8


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


class _EliminationSpy:
    """The eliminations run, in order: ("rref", the matrix) for each
    ``QMatrix.rref``, and ("rank", its rows) for each forward-only
    elimination behind ``QMatrix.rank``."""

    def __init__(self, monkeypatch):
        self.calls = []
        rref, forward_rank = QMatrix.rref, linalg._forward_rank

        def spied_rref(m):
            self.calls.append(("rref", m))
            return rref(m)

        def spied_rank(rows, ncols):
            self.calls.append(("rank", rows))
            return forward_rank(rows, ncols)

        monkeypatch.setattr(QMatrix, "rref", spied_rref)
        monkeypatch.setattr(linalg, "_forward_rank", spied_rank)

    def of(self, kind):
        return [x for k, x in self.calls if k == kind]


def _ranks_each_nonzero_differential_once(spy, mats):
    """A chain_homology call with nothing read: one forward-only elimination
    of each nonzero differential and no rref."""
    nonzero = [m for m in mats.values() if not m.is_zero()]
    assert spy.of("rref") == []
    ranked = spy.of("rank")
    assert len(ranked) == len(nonzero)
    assert {id(rows) for rows in ranked} == {id(m.ints) for m in nonzero}


def test_empty_and_boundary_free_degrees_take_at_most_one_elimination(monkeypatch):
    spy = _EliminationSpy(monkeypatch)
    seen = {"empty": 0, "no boundary": 0}
    for seed in range(16):
        dims, mats = _sparse_complex(random.Random(700 + seed))
        for g, n in dims.items():
            spy.calls.clear()
            one = {h: mats[h] for h in (g, g + 1) if h in mats}
            _, reps, projs = chain_homology({g: n}, one)
            _ranks_each_nonzero_differential_once(spy, one)
            down = one.get(g)
            spy.calls.clear()
            reps[g], projs[g]
            if not n:
                assert not spy.calls, (seed, g)
                seen["empty"] += 1
            elif _no_boundary(mats, g) and down is not None and not down.is_zero():
                # the one rref of d_g, and no subquotient elimination
                assert spy.calls == [("rref", down)] and spy.calls[0][1] is down, (seed, g)
                seen["no boundary"] += 1
    assert min(seen.values()) >= 10, seen


# -- homology in kernel coordinates against the kernel route ----------------------------


def kernel_route_homology(dims, mats):
    """chain_homology as one subquotient of the outgoing differential's
    kernel basis by the incoming differential in each degree, on the whole
    space: the route that the kernel coordinates replace."""
    hdims, reps, projs = {}, {}, {}
    for g, n in dims.items():
        down = mats.get(g, QMatrix(dims.get(g - 1, 0), n))
        reps[g], projs[g] = subquotient(down.kernel_basis(), mats.get(g + 1, QMatrix(n, 0)))
        hdims[g] = reps[g].cols
    return hdims, reps, projs


def _fractional_basis(rng, n):
    """An invertible n x n matrix with entries of both signs and
    denominators up to 6."""
    while True:
        m = QMatrix(n, n, [[Q(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def _hostile_complex(rng):
    """A complex on degrees 0-7 in random fractional bases, so that its
    entries have both signs and denominators; some dimensions are 0, and
    some differentials are dropped or zero, which keeps d squared zero."""
    dims = {g: rng.choice((0, 1, 2, 3, 4, 5)) for g in range(8)}
    mats = _random_complex(rng, dims)
    for g in list(mats):
        roll = rng.random()
        if roll < 0.2:
            del mats[g]
        elif roll < 0.3:
            mats[g] = QMatrix(dims[g - 1], dims[g])
    bases = {g: _fractional_basis(rng, n) for g, n in dims.items()}
    return dims, {g: bases[g - 1] @ m @ bases[g].inverse() for g, m in mats.items()}


def _degree_kind(dims, mats, g):
    def nonzero(h):
        return h in mats and not mats[h].is_zero()

    if not dims[g]:
        return "empty"
    if not nonzero(g):
        return "closed"
    return "both" if nonzero(g + 1) else "boundary-free"


def test_kernel_coordinates_match_the_kernel_route():
    rng = random.Random(1900)
    seen = dict.fromkeys(("empty", "closed", "boundary-free", "both"), 0)
    for _ in range(40):
        dims, mats = _hostile_complex(rng)
        assert all((mats[g - 1] @ mats[g]).is_zero() for g in mats if g - 1 in mats)
        hdims, reps, projs = chain_homology(dims, mats)
        ohdims, oreps, oprojs = kernel_route_homology(dims, mats)
        assert (hdims, reps) == (ohdims, oreps)
        for g, n in dims.items():
            seen[_degree_kind(dims, mats, g)] += 1
            down = mats.get(g, QMatrix(dims.get(g - 1, 0), n))
            Z = down.kernel_basis()
            coef = QMatrix(Z.cols, 3, [[Q(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(3)] for _ in range(Z.cols)])
            cycles = Z @ coef
            assert projs[g](cycles) == oprojs[g](cycles)
            # a column that down does not kill is refused by both routes
            for j in range(n):
                if any(down.col(j)):
                    bad = cycles.hstack(QMatrix.identity(n).columns([j]))
                    with pytest.raises(InvariantError):
                        projs[g](bad)
                    with pytest.raises(InvariantError):
                        oprojs[g](bad)
                    break
    assert min(seen.values()) >= 20, seen


def test_each_degree_eliminates_once_per_differential(monkeypatch):
    # a call with nothing read ranks each nonzero differential once by
    # forward elimination, and reduces nothing; reading a degree's
    # representatives and then its projection adds the rref of d_g where
    # rank d_g > 0, then one subquotient elimination where a boundary comes
    # in, of the boundaries' transpose: a row per nonzero boundary column
    # and a column per cycle coordinate; and nothing where none comes in
    spy = _EliminationSpy(monkeypatch)
    rng = random.Random(1901)
    seen = dict.fromkeys(("empty", "closed", "boundary-free", "both"), 0)
    for _ in range(40):
        dims, mats = _hostile_complex(rng)
        rank = {g: mats[g].rank() if g in mats else 0 for g in dims}
        spy.calls.clear()
        hdims, reps, projs = chain_homology(dims, mats)
        _ranks_each_nonzero_differential_once(spy, mats)
        for g, n in dims.items():
            kind = _degree_kind(dims, mats, g)
            seen[kind] += 1
            incoming = not _no_boundary(mats, g)
            spy.calls.clear()
            reps[g]
            projs[g]
            assert spy.of("rank") == []
            reduced = spy.of("rref")
            want = [mats[g]] if rank[g] else []
            assert reduced[: len(want)] == want and all(a is b for a, b in zip(reduced, want))
            subs = reduced[len(want):]
            assert len(subs) == (1 if n and incoming else 0), (kind, len(reduced))
            if subs:
                sub = subs[0]
                up = mats[g + 1]
                boundaries = sum(1 for j in range(up.cols) if any(up.col(j)))
                assert (sub.rows, sub.cols) == (boundaries, n - rank[g]), kind
                assert sub is not mats.get(g)
            # a second read builds nothing
            spy.calls.clear()
            assert reps[g].cols == hdims[g] and projs[g] is projs[g]
            assert spy.calls == []
    assert min(seen.values()) >= 20, seen


# -- the identity subquotient against the bordered [B | I] elimination ------------------


def hostile_boundaries(rng):
    """(kind, n, columns) for each kind of boundary matrix B the identity
    subquotient needs: B has n rows and these columns, shuffled, so that a
    dependent column can come before the columns it depends on."""
    out = []
    n = rng.randint(2, 5)
    for kind, entry in (("small", _small), ("denominators", _distinct_denominator), ("large", _large)):
        base = [[entry(rng) for _ in range(n)] for _ in range(n - 1)]
        lam = Q(rng.choice((-5, -2, 3, 7)), rng.choice((2, 3, 11)))
        out.append((f"zero columns, {kind}", n, base[:2] + [[Q(0)] * n] * 2))
        out.append((f"repeated columns, {kind}", n, base + base[:2]))
        out.append((f"proportional columns, {kind}", n, base + [[lam * x for x in c] for c in base[:2]]))
        out.append((f"spanning, {kind}", n, base + [[entry(rng) for _ in range(n)] for _ in range(2)]))
        k = rng.randint(1, n - 1)
        out.append((f"deficient, {kind}", n, _low_rank_rows(rng, n + 2, n, k, entry)))
    out.append(("rank 0", n, [[Q(0)] * n for _ in range(3)]))
    out.append(("0xb", 0, [[] for _ in range(3)]))
    out.append(("nx0", n, []))
    out.append(("1xb", 1, [[_distinct_denominator(rng)] for _ in range(n)]))
    out.append(("1xb zero", 1, [[Q(0)] for _ in range(n)]))
    out.append(("nx1", n, [[_large(rng) for _ in range(n)]]))
    out.append(("nx1 zero", n, [[Q(0)] * n]))
    out.append(("identity", n, [[Q(int(i == j)) for i in range(n)] for j in range(n)]))
    for _, _, columns in out:
        rng.shuffle(columns)
    return out


def _same_subquotient(B):
    accepted, annihilator, left = linalg._subquotient(None, B)
    o_accepted, o_annihilator, o_left = bordered_subquotient(None, B)
    assert list(accepted) == list(o_accepted)
    assert annihilator == o_annihilator
    assert left == o_left


@pytest.mark.parametrize("seed", range(12))
def test_identity_subquotient_matches_the_bordered_elimination(seed):
    # the accepted coordinates and the coordinate rows depend on span(B)
    # alone, so the b x n elimination of B^T gives what [B | I] gave
    ranks = {"0": 0, "full": 0, "deficient": 0}
    for kind, n, columns in hostile_boundaries(random.Random(6300 + seed)):
        B = QMatrix.from_columns(n, columns)
        _same_subquotient(B)
        # and through the public route, with the identity as Z
        reps, proj = subquotient(QMatrix.identity(n), B)
        accepted, _, left = bordered_subquotient(None, B)
        assert reps == QMatrix.identity(n).columns(accepted), kind
        cycles = QMatrix(n, 2, [[Q(i - j, j + 1) for j in range(2)] for i in range(n)])
        assert proj(cycles) == (cycles if left is None else left @ cycles), kind
        r = B.rank()
        ranks["0" if not r else "full" if r == n else "deficient"] += 1
    assert min(ranks.values()) >= 3, ranks


@given(hostile_matrix())
@settings(max_examples=200, deadline=None)
def test_identity_subquotient_matches_the_bordered_elimination_on_any_shape(B):
    _same_subquotient(B)


def test_chain_homology_bases_match_the_bordered_route(monkeypatch):
    # every basis read of chain_homology, and the same complexes with the
    # bordered elimination in place of the identity subquotient
    rng = random.Random(2600)
    complexes = [_hostile_complex(rng) for _ in range(40)]
    ours = []
    for dims, mats in complexes:
        hdims, reps, projs = chain_homology(dims, mats)
        ours.append((hdims, dict(reps), dict(projs)))
    monkeypatch.setattr(linalg, "_subquotient", bordered_subquotient)
    incoming = 0
    for (dims, mats), (hdims, reps, projs) in zip(complexes, ours):
        ohdims, oreps, oprojs = chain_homology(dims, mats)
        assert hdims == ohdims and reps == dict(oreps)
        for g, n in dims.items():
            incoming += bool(n) and not _no_boundary(mats, g)
            down = mats.get(g, QMatrix(dims.get(g - 1, 0), n))
            Z = down.kernel_basis()
            coef = QMatrix(Z.cols, 3, [[Q(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(3)] for _ in range(Z.cols)])
            cycles = Z @ coef
            assert projs[g](cycles) == oprojs[g](cycles)
    assert incoming >= 60, incoming


def test_bases_do_not_depend_on_the_read_order():
    # projections before representatives, high degrees first and only some
    # degrees: each basis read equals a full read and the kernel route, and
    # each projection still refuses a non-cycle
    rng = random.Random(2200)
    read = 0
    for make in (_hostile_complex, _sparse_complex):
        for _ in range(30):
            dims, mats = make(rng)
            _, full_reps, full_projs = chain_homology(dims, mats)
            full_reps, full_projs = dict(full_reps), dict(full_projs)
            hdims, reps, projs = chain_homology(dims, mats)
            ohdims, oreps, oprojs = kernel_route_homology(dims, mats)
            assert hdims == ohdims and list(reps) == list(projs) == sorted(dims)
            for g in sorted(dims, reverse=True):
                if rng.random() < 0.4:
                    continue
                read += 1
                n = dims[g]
                down = mats.get(g, QMatrix(dims.get(g - 1, 0), n))
                Z = down.kernel_basis()
                coef = QMatrix(Z.cols, 2, [[Q(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(2)] for _ in range(Z.cols)])
                cycles = Z @ coef
                assert projs[g](cycles) == full_projs[g](cycles) == oprojs[g](cycles)
                assert reps[g] == full_reps[g] == oreps[g]
                outside = [j for j in range(n) if any(down.col(j))]
                if outside:
                    with pytest.raises(InvariantError):
                        projs[g](cycles.hstack(QMatrix.identity(n).columns(outside[:1])))
            # the degrees left unread read as in the full read
            assert reps == full_reps
    assert read >= 200, read


# -- quasi-isomorphisms by the ranks of a mapping cone ----------------------------


def _shift(c, t):
    """The complex c moved up by t degrees, with the same differentials."""
    dims, mats = c
    return {g + t: n for g, n in dims.items()}, {g + t: m for g, m in mats.items()}


def _sum(a, b):
    """a + b, with block-diagonal differentials; a's basis comes first."""
    dims = {g: a[0].get(g, 0) + b[0].get(g, 0) for g in set(a[0]) | set(b[0])}
    mats = {}
    for g in set(a[1]) | set(b[1]):
        parts = {(i, i): c[1][g] for i, c in enumerate((a, b)) if g in c[1]}
        sizes = [[c[0].get(h, 0) for c in (a, b)] for h in (g - 1, g)]
        mats[g] = block_matrix(*sizes, parts)
    return dims, mats


def _acyclic_cone(z):
    """The cone of the identity of z: C_n = Z_{n-1} + Z_n, with
    D_n = [[-dZ, 0], [1, dZ]], which has no homology."""
    dims, mats = z
    cdims = {n: dims.get(n - 1, 0) + dims.get(n, 0) for n in set(dims) | {g + 1 for g in dims}}
    cmats = {}
    for n in cdims:
        sizes = [[dims.get(n - 2, 0), dims.get(n - 1, 0)], [dims.get(n - 1, 0), dims.get(n, 0)]]
        parts = {(1, 0): QMatrix.identity(dims.get(n - 1, 0))}
        if n - 1 in mats:
            parts[(0, 0)] = mats[n - 1].scale(-1)
        if n in mats:
            parts[(1, 1)] = mats[n]
        cmats[n] = block_matrix(*sizes, parts)
    return cdims, cmats


def _first_summand(a, b, include):
    """The inclusion a -> a + b (include) or the projection a + b -> a."""
    out = {}
    for g, n in a[0].items():
        if n:
            sizes = ([n, b[0].get(g, 0)], [n]) if include else ([n], [n, b[0].get(g, 0)])
            out[g] = block_matrix(*sizes, {(0, 0): QMatrix.identity(n)})
    return out


def _sampled_chain_maps(rng, t):
    """(X, Y, f_mats) for chain maps of degree t: identities, zero maps, the
    inclusion and projection of an acyclic summand, random chain maps, maps
    homotopic to an identity, and
    an endomorphism that kills the homology of a summand, whose two ends have
    equal homology."""
    degrees = range(rng.randint(-2, 0), rng.randint(1, 3))
    x, y = random_complex(rng, degrees), random_complex(rng, degrees)
    acyclic = _acyclic_cone(random_complex(rng, degrees, 2))
    # one line in one degree: a complex with homology
    w = ({rng.choice(degrees): 1}, {})
    big, xw = _sum(x, acyclic), _sum(x, w)
    inc, proj = _first_summand(x, w, True), _first_summand(x, w, False)
    return [
        (x, _shift(x, t), {g: QMatrix.identity(n) for g, n in x[0].items() if n}),
        (x, _shift(x, t), {}),
        (x, _shift(y, t), {}),
        (x, _shift(big, t), _first_summand(x, acyclic, True)),
        (big, _shift(x, t), _first_summand(x, acyclic, False)),
        (x, _shift(y, t), random_chain_map(rng, x, _shift(y, t), t)),
        (x, _shift(x, t), random_chain_map(rng, x, _shift(x, t), t)),
        (big, _shift(big, t), random_chain_map(rng, big, _shift(big, t), t)),
        (big, _shift(big, t), perturbed_identity(rng, big)),
        (acyclic, _shift(y, t), {}),
        (xw, _shift(xw, t), {g: inc[g] @ proj[g] for g in inc}),
    ]


@pytest.mark.parametrize("t", [-1, 0, 1])
def test_quasi_isomorphism_agrees_with_both_oracles(t):
    rng = random.Random(2100 + t)
    answers = []
    for _ in range(20):
        for x, y, f in _sampled_chain_maps(rng, t):
            assert is_chain_map(x, y, f, t)
            got = linalg.is_quasi_isomorphism(*x, *y, f, t)
            assert got == both_oracles(*x, *y, f, t), (x, y, f, t)
            answers.append(got)
    assert answers.count(True) >= 60 and answers.count(False) >= 50, answers.count(True)
