"""Oracles and samplers for tests of ``linalg.is_quasi_isomorphism``.

A chain map f: X -> Y of degree t is given as the predicate takes it: dims
maps a degree to the dimension of the space there, mats maps g to the
differential out of degree g (a missing degree is zero), and f_mats maps g
to f_g: X_g -> Y_{g+t}.  Differentials carry no sign, and a chain map
satisfies dY f = f dX.

- ``representative_route`` is the induced-map route the engine took before
  the rank rule: homology representatives of X, f applied to them, and their
  coordinates in the homology of Y, one rank per degree.  Its degree walk
  covers the degrees of H(X) and those of H(Y) moved by -t; the engine's
  walked H(X) and H(Y) unmoved, so it missed homology of Y when t != 0.
- ``dense_cone_homology`` is the homology of the mapping cone, nullity
  minus rank per degree, in Fraction lists with a Gauss elimination of its
  own, on the cone with its -dX block; it checks that D squared is zero.
"""

from fractions import Fraction

from so3alg.linalg import QMatrix, chain_homology


def dense(mat: QMatrix | None, rows: int, cols: int) -> list[list[Fraction]]:
    """The entries of mat as Fraction lists, or a zero grid where mat is None."""
    if mat is None:
        return [[Fraction(0)] * cols for _ in range(rows)]
    assert (mat.rows, mat.cols) == (rows, cols)
    return [mat.row(i) for i in range(rows)]


def dense_rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                k = m[i][c] / m[rank][c]
                m[i] = [a - k * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def dense_cone_homology(x_dims, x_mats, y_dims, y_mats, f_mats, t) -> dict[int, int]:
    """dim H_n of the cone C_n = X_{n-1-t} + Y_n, D_n = [[-dX, 0], [f, dY]],
    at every degree where C_n is not zero."""

    def size(n):
        return x_dims.get(n - 1 - t, 0), y_dims.get(n, 0)

    def D(n):
        (a, b), (a1, b1) = size(n), size(n - 1)
        g = n - 1 - t
        dx = dense(x_mats.get(g), a1, a)
        f = dense(f_mats.get(g), b1, a)
        dy = dense(y_mats.get(n), b1, b)
        return [[-v for v in row] + [Fraction(0)] * b for row in dx] + [
            fr + dr for fr, dr in zip(f, dy)
        ]

    out = {}
    for n in sorted({g + 1 + t for g in x_dims} | set(y_dims)):
        here, up, down = D(n), D(n + 1), D(n - 1)
        # D_{n-1} D_n == 0 and D_n D_{n+1} == 0: the cone is a complex
        for left, right in ((down, here), (here, up)):
            for row in left:
                assert all(
                    sum(a * r[j] for a, r in zip(row, right)) == 0
                    for j in range(len(right[0]) if right else 0)
                )
        out[n] = sum(size(n)) - dense_rank(here) - dense_rank(up)
    return out


def cone_is_acyclic(*chain_map) -> bool:
    return not any(dense_cone_homology(*chain_map).values())


def representative_route(x_dims, x_mats, y_dims, y_mats, f_mats, t) -> bool:
    """A homology isomorphism, by the ranks of induced maps."""
    # Y with a zero space at every degree f lands in, so each has a projection
    y_all = {**{g + t: 0 for g in x_dims}, **y_dims}
    hx, reps_x, _ = chain_homology(x_dims, x_mats)
    hy, _, projs_y = chain_homology(y_all, y_mats)
    walk = {g for g, h in hx.items() if h} | {g - t for g, h in hy.items() if h}
    for g in sorted(walk):
        dx, dy = hx.get(g, 0), hy.get(g + t, 0)
        if dx != dy:
            return False
        if not dx:
            continue
        f = f_mats.get(g, QMatrix(y_all[g + t], x_dims[g]))
        if projs_y[g + t](f @ reps_x[g]).rank() != dx:
            return False
    return True


# -- samplers -----------------------------------------------------------------


def random_complex(rng, degrees, maxdim=3):
    """(dims, mats) with d squared zero: from the top degree down, each
    differential is a random matrix times the projection onto the cokernel
    of the one above it."""
    dims = {g: rng.randint(0, maxdim) for g in degrees}
    mats = {}
    for g in sorted(dims, reverse=True)[:-1]:
        up = mats.get(g + 1)
        proj = QMatrix.identity(dims[g]) if up is None else up.cokernel_data()[0]
        rows = dims[g - 1]
        m = QMatrix(rows, proj.rows, [[rng.randint(-2, 2) for _ in range(proj.rows)] for _ in range(rows)])
        if not (m @ proj).is_zero():
            mats[g] = m @ proj
    return dims, mats


def random_chain_map(rng, x, y, t, actions=()):
    """f_mats of a random chain map X -> Y of degree t: a random combination
    of a basis of the chain maps, solved for entry by entry.  actions lists
    (X's action, Y's action) per group generator, each a function of the
    degree, and f must commute with each."""
    (x_dims, x_mats), (y_dims, y_mats) = x, y
    shapes = {g: (y_dims.get(g + t, 0), c) for g, c in x_dims.items() if c and y_dims.get(g + t, 0)}
    index = {}
    for g, (r, c) in sorted(shapes.items()):
        for i in range(r):
            for j in range(c):
                index[(g, i, j)] = len(index)
    if not index:
        return {}
    rows = []

    def equation(terms):
        # terms: (coefficient, unknown) pairs summing to zero
        row = [Fraction(0)] * len(index)
        for coef, u in terms:
            if u in index:
                row[index[u]] += coef
        if any(row):
            rows.append(row)

    for g in x_dims:
        # dY_{g+t} f_g - f_{g-1} dX_g == 0, entry by entry
        c, r = x_dims.get(g, 0), y_dims.get(g + t - 1, 0)
        dy = dense(y_mats.get(g + t), r, y_dims.get(g + t, 0))
        dx = dense(x_mats.get(g), x_dims.get(g - 1, 0), c)
        for i in range(r):
            for j in range(c):
                equation(
                    [(dy[i][k], (g, k, j)) for k in range(len(dy[i]))]
                    + [(-dx[k][j], (g - 1, i, k)) for k in range(len(dx))]
                )
    for act_x, act_y in actions:
        for g, (r, c) in shapes.items():
            ax, ay = dense(act_x(g), c, c), dense(act_y(g + t), r, r)
            for i in range(r):
                for j in range(c):
                    equation(
                        [(ay[i][k], (g, k, j)) for k in range(r)]
                        + [(-ax[k][j], (g, i, k)) for k in range(c)]
                    )
    n = len(index)
    basis = QMatrix(len(rows), n, rows).kernel_basis() if rows else QMatrix.identity(n)
    vec = basis.apply([rng.choice((-1, 0, 1, 2)) for _ in range(basis.cols)])
    out = {}
    for g, (r, c) in shapes.items():
        mat = QMatrix(r, c, [[vec[index[(g, i, j)]] for j in range(c)] for i in range(r)])
        if not mat.is_zero():
            out[g] = mat
    return out


def perturbed_identity(rng, x, average=None):
    """f_mats of 1 + dh + hd on X, for a random h: X_g -> X_{g+1}; it is
    homotopic to the identity, so a quasi-isomorphism X -> X.  average(g, h_g),
    where given, makes h_g equivariant."""
    dims, mats = x
    h = {}
    for g, n in dims.items():
        r = dims.get(g + 1, 0)
        h[g] = QMatrix(r, n, [[rng.randint(-1, 1) for _ in range(n)] for _ in range(r)])
        if average is not None:
            h[g] = average(g, h[g])
    out = {}
    for g, n in dims.items():
        if not n:
            continue
        f = QMatrix.identity(n)
        if g + 1 in mats:
            f = f + mats[g + 1] @ h[g]
        if g in mats and g - 1 in h:
            f = f + h[g - 1] @ mats[g]
        out[g] = f
    return out


def is_chain_map(x, y, f_mats, t) -> bool:
    """dY f == f dX, on dense blocks."""
    (x_dims, x_mats), (y_dims, y_mats) = x, y

    def block(mats, g, rows, cols):
        return mats.get(g, QMatrix(rows, cols))

    for g, c in x_dims.items():
        r0, r1, c1 = y_dims.get(g + t, 0), y_dims.get(g + t - 1, 0), x_dims.get(g - 1, 0)
        left = block(y_mats, g + t, r1, r0) @ block(f_mats, g, r0, c)
        if left != block(f_mats, g - 1, r1, c1) @ block(x_mats, g, c1, c):
            return False
    return True


def both_oracles(*chain_map) -> bool:
    """The answer of both oracles, which must agree."""
    route = representative_route(*chain_map)
    assert route == cone_is_acyclic(*chain_map), chain_map
    return route
