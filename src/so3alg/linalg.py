"""Dense exact linear algebra over the rationals.

Matrices are small (desk scale): a ``QMatrix`` is a list of rows of
``fractions.Fraction`` entries.  Products are not taken in Fractions: every
product goes through ``IntegralForm``, which clears a matrix's denominators
once (``QMatrix.integral``) and multiplies Python ints, and invariant checks
compare integral forms by cross-multiplying their denominators.  No other
module reads a Fraction's denominator, except the CLI's rational codec.
Elimination uses first-nonzero pivoting, so every derived basis (kernels,
images, cokernel complements) is deterministic for a given input.
Block matrices are assembled in one place: ``block_matrix`` places blocks
given by their (row block, column block) position, and ``QMatrix.kron`` is
the Kronecker product; no other module places entries by hand.
``IncrementalSpan`` grows a basis one vector at a time, and
``chain_homology`` builds on it the homology of a chain of vector spaces that
every algebraic model uses; ``project_columns`` reads a matrix of cycles in
the homology basis that ``chain_homology`` chose.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Iterable, Sequence

from .errors import InvariantError

Q = Fraction

__all__ = [
    "Q", "QMatrix", "IntegralForm", "IncrementalSpan", "block_matrix", "chain_homology", "project_columns",
]

_ZERO = Q(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


class QMatrix:
    """An immutable-by-convention rows x cols matrix of Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence] | None = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[Q(0)] * cols for _ in range(rows)]
        else:
            if len(data) != rows:
                raise ValueError("row count mismatch")
            self.data = []
            for r in data:
                if len(r) != cols:
                    raise ValueError("column count mismatch")
                self.data.append([_frac(x) for x in r])

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "QMatrix":
        m = QMatrix(n, n)
        for i in range(n):
            m.data[i][i] = Q(1)
        return m

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> "QMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            return QMatrix(0, 0)
        return QMatrix(len(rows), len(rows[0]), rows)

    @staticmethod
    def column(vec: Sequence) -> "QMatrix":
        return QMatrix(len(vec), 1, [[x] for x in vec])

    @staticmethod
    def diagonal(entries: Sequence) -> "QMatrix":
        n = len(entries)
        m = QMatrix(n, n)
        for i, x in enumerate(entries):
            m.data[i][i] = _frac(x)
        return m

    def copy(self) -> "QMatrix":
        return QMatrix(self.rows, self.cols, [row[:] for row in self.data])

    # -- basics --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols}, {self.data})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        return QMatrix(
            self.rows,
            self.cols,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + other.scale(Q(-1))

    def scale(self, k) -> "QMatrix":
        k = _frac(k)
        return QMatrix(self.rows, self.cols, [[k * x for x in row] for row in self.data])

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in mul: {self.cols} vs {other.rows}")
        if not (self.rows and self.cols and other.cols):
            return QMatrix(self.rows, other.cols)
        return (self.integral() @ other.integral()).rational()

    def integral(self) -> "IntegralForm":
        """The canonical integral form: ``den`` is the lcm of the entries'
        denominators, so equal matrices have equal forms."""
        den = lcm(*{x.denominator for row in self.data for x in row})
        if den == 1:
            ints = [[x.numerator for x in row] for row in self.data]
        else:
            ints = [[x.numerator * (den // x.denominator) for x in row] for row in self.data]
        return IntegralForm(self.rows, self.cols, den, ints)

    def transpose(self) -> "QMatrix":
        return QMatrix(
            self.cols, self.rows, [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def hstack(self, other: "QMatrix") -> "QMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return QMatrix(
            self.rows,
            self.cols + other.cols,
            [r1 + r2 for r1, r2 in zip(self.data, other.data)],
        )

    def kron(self, other: "QMatrix") -> "QMatrix":
        """The Kronecker product: entry (i, j) of self times the block other."""
        data = [
            [a * b if a and b else _ZERO for a in ra for b in rb]
            for ra in self.data
            for rb in other.data
        ]
        return _wrap(self.rows * other.rows, self.cols * other.cols, data)

    def col(self, j: int) -> list[Fraction]:
        return [self.data[i][j] for i in range(self.rows)]

    def apply(self, vec: Sequence) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum((self.data[i][j] * _frac(vec[j]) for j in range(self.cols)), Q(0)) for i in range(self.rows)]

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["QMatrix", list[int]]:
        """Reduced row echelon form with first-nonzero pivoting.

        Returns (R, pivot_columns).
        """
        m = self.copy()
        pivots: list[int] = []
        r = 0
        for c in range(m.cols):
            if r == m.rows:
                break
            # first nonzero entry in column c at or below row r
            pr = next((i for i in range(r, m.rows) if m.data[i][c] != 0), None)
            if pr is None:
                continue
            m.data[r], m.data[pr] = m.data[pr], m.data[r]
            pv = m.data[r][c]
            m.data[r] = [x / pv for x in m.data[r]]
            for i in range(m.rows):
                if i != r and m.data[i][c] != 0:
                    f = m.data[i][c]
                    m.data[i] = [x - f * y for x, y in zip(m.data[i], m.data[r])]
            pivots.append(c)
            r += 1
        return m, pivots

    def rank(self) -> int:
        if not (self.rows and self.cols):
            return 0
        return len(self.rref()[1])

    def kernel_basis(self) -> "QMatrix":
        """Basis of the null space, as columns of the returned matrix."""
        R, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        out = QMatrix(self.cols, len(free))
        for k, fc in enumerate(free):
            out.data[fc][k] = Q(1)
            for r, pc in enumerate(pivots):
                out.data[pc][k] = -R.data[r][fc]
        return out

    def cokernel_data(self) -> tuple["QMatrix", int]:
        """Projection onto a complement of the column space.

        Returns (P, d) where P is d x rows and P @ self == 0, with P of full
        row rank d = rows - rank(self); P restricted to the chosen complement
        coordinates is the identity-like quotient map.
        """
        # Row-reduce the transpose: rows of self^T span the column space.
        Rt, pivots = self.transpose().rref()
        comp = [i for i in range(self.rows) if i not in pivots]
        d = len(comp)
        P = QMatrix(d, self.rows)
        # quotient coordinates: e_i for i in comp; for pivot coordinates
        # subtract their expression in terms of the column space.
        # For v in Q^rows, class of v = coords of v after reducing modulo the
        # row space of Rt: use the rref rows to eliminate pivot coordinates.
        for k, i in enumerate(comp):
            P.data[k][i] = Q(1)
        rank = len(pivots)
        for r in range(rank):
            pc = pivots[r]
            # e_{pc} is congruent to -sum over free coords of Rt.data[r][free]
            for k, i in enumerate(comp):
                P.data[k][pc] = -Rt.data[r][i]
        return P, d

    def solve(self, b: Sequence) -> list[Fraction] | None:
        """One solution of self @ x = b, or None if inconsistent."""
        aug = self.hstack(QMatrix.column([_frac(x) for x in b]))
        R, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [Q(0)] * self.cols
        for r, c in enumerate(pivots):
            x[c] = R.data[r][self.cols]
        return x

    def solve_matrix(self, B: "QMatrix") -> "QMatrix | None":
        """Solve self @ X = B for X, or None if any column is inconsistent.

        One elimination of [self | B]: its row operations depend on self
        only, so every column of X is the solution ``solve`` gives for that
        column of B.
        """
        R, pivots = self.hstack(B).rref()
        if pivots and pivots[-1] >= self.cols:
            return None
        X = QMatrix(self.cols, B.cols)
        for r, c in enumerate(pivots):
            X.data[c] = R.data[r][self.cols :]
        return X

    def inverse(self) -> "QMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        aug = self.hstack(QMatrix.identity(self.rows))
        R, pivots = aug.rref()
        if pivots[: self.rows] != list(range(self.rows)):
            raise ValueError("matrix is singular")
        return QMatrix(
            self.rows, self.rows, [row[self.rows :] for row in R.data]
        )

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def _wrap(rows: int, cols: int, data: list[list[Fraction]]) -> QMatrix:
    """A QMatrix over rows that already hold Fractions of the right shape."""
    out = QMatrix.__new__(QMatrix)
    out.rows, out.cols, out.data = rows, cols, data
    return out


def block_matrix(row_sizes: Sequence[int], col_sizes: Sequence[int], blocks: dict) -> QMatrix:
    """Assemble a matrix from blocks.

    Row block i has row_sizes[i] rows and column block j has col_sizes[j]
    columns; blocks maps (i, j) to the QMatrix at that position, and an absent
    block is zero.  A block of the wrong shape raises ValueError.
    """
    row_off, col_off = [0, *accumulate(row_sizes)], [0, *accumulate(col_sizes)]
    data = [[_ZERO] * col_off[-1] for _ in range(row_off[-1])]
    for (i, j), b in blocks.items():
        if (b.rows, b.cols) != (row_sizes[i], col_sizes[j]):
            raise ValueError(f"block {(i, j)} is {b.rows}x{b.cols}, not {row_sizes[i]}x{col_sizes[j]}")
        r0, c0, c1 = row_off[i], col_off[j], col_off[j + 1]
        for k, row in enumerate(b.data):
            data[r0 + k][c0:c1] = row
    return _wrap(row_off[-1], col_off[-1], data)


class IntegralForm:
    """A rational matrix as ``ints / den``: a list of rows of Python ints over
    one positive common denominator.

    A product's ``den`` is the product of its factors' denominators, so it
    need not be the lcm; ``==`` therefore cross-multiplies the denominators,
    and compares the matrices the forms stand for without building a
    Fraction.
    """

    __slots__ = ("rows", "cols", "den", "ints")

    def __init__(self, rows: int, cols: int, den: int, ints: list[list[int]]):
        self.rows = rows
        self.cols = cols
        self.den = den
        self.ints = ints

    def __matmul__(self, other: "IntegralForm") -> "IntegralForm":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in mul: {self.cols} vs {other.rows}")
        # the nonzero entries of each row of the right factor, read once
        right = [[(j, v) for j, v in enumerate(row) if v] for row in other.ints]
        out = []
        for row in self.ints:
            acc = [0] * other.cols
            for a, rk in zip(row, right):
                if a:
                    for j, v in rk:
                        acc[j] += a * v
            out.append(acc)
        return IntegralForm(self.rows, other.cols, self.den * other.den, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegralForm) or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        a, b = self.den, other.den
        if a == b:
            return self.ints == other.ints
        return all(
            [x * b for x in r] == [y * a for y in s] for r, s in zip(self.ints, other.ints)
        )

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.ints)

    def is_identity(self) -> bool:
        d = self.den
        return self.rows == self.cols and all(
            x == (d if i == j else 0) for i, row in enumerate(self.ints) for j, x in enumerate(row)
        )

    def rational(self) -> QMatrix:
        """The QMatrix this form stands for."""
        d = self.den
        if d == 1:
            data = [[Q(v) if v else _ZERO for v in row] for row in self.ints]
        else:
            data = [[Q(v, d) if v else _ZERO for v in row] for row in self.ints]
        return _wrap(self.rows, self.cols, data)


# -- incremental spans and chain homology ------------------------------------------


class IncrementalSpan:
    """A growing list of independent vectors with exact membership tests.

    Every accepted vector is kept reduced against the earlier ones, together
    with the combination of accepted vectors that equals it, so membership
    and coefficients take one pass over the accepted vectors and no fresh
    elimination.
    """

    def __init__(self, dim: int):
        self.dim = dim
        # (pivot, reduced vector, its coefficients in the accepted vectors)
        self._reduced: list[tuple[int, list[Fraction], list[Fraction]]] = []

    def _reduce(self, v):
        if len(v) != self.dim:
            raise ValueError("vector length mismatch")
        r = [_frac(x) for x in v]
        mu = [Q(0)] * len(self._reduced)
        for pivot, rv, cf in self._reduced:
            if r[pivot] != 0:
                lam = r[pivot] / rv[pivot]
                r = [x - lam * y if y else x for x, y in zip(r, rv)]
                for j, c in enumerate(cf):
                    if c:
                        mu[j] += lam * c
        return r, mu

    def coefficients(self, v):
        """Coefficients of v in the accepted vectors, or None if v is not in
        their span.

        Entry i is the coefficient of the i-th vector that ``add`` accepted,
        in the order they were accepted.  The accepted vectors are
        independent, so the coefficients are unique.
        """
        r, mu = self._reduce(v)
        if any(x != 0 for x in r):
            return None
        return mu

    def add(self, v) -> bool:
        """Add v if independent; returns True when the span grew."""
        r, mu = self._reduce(v)
        if all(x == 0 for x in r):
            return False
        cf = [-x for x in mu] + [Q(1)]
        for _, _, old in self._reduced:
            old.append(Q(0))
        pivot = next(i for i, x in enumerate(r) if x != 0)
        self._reduced.append((pivot, r, cf))
        return True

    def rank(self) -> int:
        return len(self._reduced)


def chain_homology(dims, mats):
    """Homology of a chain of vector spaces indexed by degree.

    dims maps a degree g to the dimension of C_g; mats maps g to the
    differential C_g -> C_{g-1} as a dims[g-1] x dims[g] matrix, and a
    missing degree means the zero map.  Returns (hdims, reps, projs), each
    keyed by every degree of dims: hdims[g] is the dimension of H_g; the
    columns of reps[g] are cycles representing the chosen basis of H_g; and
    projs[g] sends a cycle of C_g to its coordinates in that basis, raising
    InvariantError on a vector that is not a cycle.

    At each degree one IncrementalSpan takes the nonzero columns of the
    incoming differential first and the kernel basis of the outgoing one
    after them; the vectors it accepts from the kernel are the
    representatives.  Projections rely on that insertion order: the
    boundaries come first, so a cycle's coefficients past them are its
    homology coordinates, in the order of the columns of reps[g].
    """
    hdims, reps, projs = {}, {}, {}
    for g in sorted(dims):
        n = dims[g]
        down = mats[g] if g in mats else QMatrix(dims.get(g - 1, 0), n)
        Z = down.kernel_basis() if n else QMatrix(0, 0)
        up = mats[g + 1] if g + 1 in mats else QMatrix(n, dims.get(g + 1, 0))
        span = IncrementalSpan(n)
        for j in range(up.cols):
            v = up.col(j)
            if any(c != 0 for c in v):
                span.add(v)
        nb = span.rank()
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


def project_columns(proj, mat: QMatrix, rows: int) -> QMatrix:
    """The rows x mat.cols matrix whose column j is proj(mat.col(j)).

    With proj one of the projections of ``chain_homology`` and the columns of
    mat cycles, this is the matrix of their homology classes.
    """
    cols = [proj(mat.col(j)) for j in range(mat.cols)]
    return QMatrix(rows, mat.cols, [[c[i] for c in cols] for i in range(rows)])
