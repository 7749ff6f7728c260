"""Dense exact linear algebra over the rationals.

Matrices are small (desk scale).  A ``QMatrix`` is stored as integers over
one denominator: ``ints`` is a list of rows of Python ints and ``den`` a
positive int, and the matrix is ``ints / den``.  The denominator is
canonical, the lcm of the entries' denominators, so equal matrices have
equal storage and ``==`` compares ints.  Products, sums, Kronecker products,
block assembly and every elimination run on the ints; a ``Fraction`` is
built only where an entry is read (``m[i, j]``, ``row``, ``col``,
``entries``, ``apply``), and no other module reads a Fraction's denominator,
except the CLI's rational codec.  Matrices are immutable: no module but this
one touches the storage, and ``QMatrix.from_entries`` builds a matrix from
its nonzero entries.

Elimination is fraction-free Gauss-Jordan with first-nonzero pivoting: each
row is kept primitive (divided by the gcd of its entries after every
update), and a reduced row is divided by its pivot entry only where it is
read.  The reduced row echelon form is unique, so every derived basis
(kernels, images, cokernel complements) is the one an elimination in
Fractions gives, and is deterministic for a given input.
Block matrices are assembled in one place: ``block_matrix`` places blocks
given by their (row block, column block) position, and ``QMatrix.kron`` is
the Kronecker product; no other module places entries by hand.
``IncrementalSpan`` grows a basis one integer vector at a time.
``subquotient`` takes a space of cycles modulo boundaries apart with one
elimination, and its projection sends a whole matrix of cycles to their
coordinates; ``chain_homology``, the homology of a chain of vector spaces
that every algebraic model uses, is one subquotient per degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import InvariantError

Q = Fraction

__all__ = ["Q", "QMatrix", "IncrementalSpan", "block_matrix", "chain_homology", "subquotient"]

_ZERO = Q(0)


def _rational(x):
    """An int or a Fraction, from an int, a Fraction or a literal string."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


def _cleared(values) -> tuple[int, list[int]]:
    """(den, ints) with values == ints / den and den the lcm of the values'
    denominators; values are ints or Fractions."""
    den = lcm(*{x.denominator for x in values})
    if den == 1:
        return 1, [x.numerator for x in values]
    return den, [x.numerator * (den // x.denominator) for x in values]


def _entry(x: int, den: int) -> Fraction:
    if not x:
        return _ZERO
    return Q(x) if den == 1 else Q(x, den)


class QMatrix:
    """An immutable rows x cols rational matrix, stored as ``ints / den``."""

    __slots__ = ("rows", "cols", "den", "ints")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence] | None = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.den, self.ints = 1, [[0] * cols for _ in range(rows)]
            return
        if len(data) != rows:
            raise ValueError("row count mismatch")
        values = []
        for r in data:
            if len(r) != cols:
                raise ValueError("column count mismatch")
            values += map(_rational, r)
        self.den, flat = _cleared(values)
        self.ints = [flat[i * cols : (i + 1) * cols] for i in range(rows)]

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "QMatrix":
        ints = [[0] * n for _ in range(n)]
        for i in range(n):
            ints[i][i] = 1
        return _wrap(n, n, 1, ints)

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> "QMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            return QMatrix(0, 0)
        return QMatrix(len(rows), len(rows[0]), rows)

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Mapping) -> "QMatrix":
        """The rows x cols matrix with entries[(i, j)] at (i, j) and zero
        everywhere else; the entries are ints or Fractions."""
        # a zero entry has denominator 1, so den is the lcm of the nonzero
        # entries' denominators: canonical
        den = lcm(*{x.denominator for x in entries.values()})
        ints = [[0] * cols for _ in range(rows)]
        for (i, j), x in entries.items():
            if i < 0 or j < 0:
                raise IndexError(f"entry {(i, j)} outside a {rows}x{cols} matrix")
            ints[i][j] = x.numerator * (den // x.denominator)
        return _wrap(rows, cols, den, ints)

    @staticmethod
    def column(vec: Sequence) -> "QMatrix":
        return QMatrix(len(vec), 1, [[x] for x in vec])

    @staticmethod
    def from_columns(rows: int, vecs: Sequence[Sequence]) -> "QMatrix":
        """The rows x len(vecs) matrix whose columns are the given vectors."""
        return QMatrix(rows, len(vecs), [[v[i] for v in vecs] for i in range(rows)])

    @staticmethod
    def diagonal(entries: Sequence) -> "QMatrix":
        n = len(entries)
        return QMatrix.from_entries(n, n, {(i, i): x for i, x in enumerate(entries)})

    # -- basics --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, tuple(map(tuple, self.ints))))

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols}, {[self.row(i) for i in range(self.rows)]})"

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def is_identity(self) -> bool:
        n = self.cols
        return (
            self.rows == n
            and self.den == 1
            and all(r[i] == 1 and r.count(0) == n - 1 for i, r in enumerate(self.ints))
        )

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return _entry(self.ints[i][j], self.den)

    def row(self, i: int) -> list[Fraction]:
        d = self.den
        return [_entry(x, d) for x in self.ints[i]]

    def col(self, j: int) -> list[Fraction]:
        d = self.den
        return [_entry(r[j], d) for r in self.ints]

    def entries(self):
        """(i, j, entry) for every nonzero entry, row by row."""
        d = self.den
        for i, r in enumerate(self.ints):
            for j, x in enumerate(r):
                if x:
                    yield i, j, _entry(x, d)

    def columns(self, js: Sequence[int]) -> "QMatrix":
        """The matrix of the columns js of self, in that order."""
        return self.submatrix(range(self.rows), js)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "QMatrix":
        """The matrix of the entries of self in the rows and cols given, in
        those orders."""
        ints = [[r[j] for j in cols] for r in map(self.ints.__getitem__, rows)]
        return _canonical(len(rows), len(cols), self.den, ints)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        a, b = self.den, other.den
        den = lcm(a, b)
        fa, fb = den // a, den // b
        ints = [
            [x * fa + y * fb for x, y in zip(r1, r2)] for r1, r2 in zip(self.ints, other.ints)
        ]
        return _canonical(self.rows, self.cols, den, ints)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + other.scale(-1)

    def scale(self, k) -> "QMatrix":
        k = _rational(k)
        n = k.numerator
        ints = [[n * x for x in row] for row in self.ints]
        return _canonical(self.rows, self.cols, self.den * k.denominator, ints)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in mul: {self.cols} vs {other.rows}")
        if not (self.rows and self.cols and other.cols):
            return QMatrix(self.rows, other.cols)
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
        return _canonical(self.rows, other.cols, self.den * other.den, out)

    def transpose(self) -> "QMatrix":
        if not self.rows:
            return QMatrix(self.cols, 0)
        return _wrap(self.cols, self.rows, self.den, [list(c) for c in zip(*self.ints)])

    def hstack(self, other: "QMatrix") -> "QMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        a, b = self.den, other.den
        den = lcm(a, b)
        fa, fb = den // a, den // b
        ints = [
            (r1 if fa == 1 else [x * fa for x in r1]) + (r2 if fb == 1 else [x * fb for x in r2])
            for r1, r2 in zip(self.ints, other.ints)
        ]
        return _wrap(self.rows, self.cols + other.cols, den, ints)

    def kron(self, other: "QMatrix") -> "QMatrix":
        """The Kronecker product: entry (i, j) of self times the block other."""
        ints = [[a * b for a in ra for b in rb] for ra in self.ints for rb in other.ints]
        return _canonical(self.rows * other.rows, self.cols * other.cols, self.den * other.den, ints)

    def apply(self, vec: Sequence) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        dv, w = _cleared([_rational(x) for x in vec])
        d = self.den * dv
        return [_entry(sum(a * b for a, b in zip(row, w) if a), d) for row in self.ints]

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["QMatrix", list[int]]:
        """Reduced row echelon form with first-nonzero pivoting.

        Returns (R, pivot_columns).  Every other elimination reads this R.
        """
        reduced, pivots = _eliminate(self.ints, self.cols)
        # a primitive row divided by its pivot p has denominator |p|
        den = lcm(*(abs(row[c]) for row, c in zip(reduced, pivots)))
        ints = []
        for row, c in zip(reduced, pivots):
            f = den // row[c]
            ints.append(row if f == 1 else [x * f for x in row])
        ints += [[0] * self.cols for _ in range(self.rows - len(pivots))]
        return _wrap(self.rows, self.cols, den, ints), pivots

    def rank(self) -> int:
        if not (self.rows and self.cols):
            return 0
        return len(self.rref()[1])

    def kernel_basis(self) -> "QMatrix":
        """Basis of the null space, as columns of the returned matrix: one
        per free column f, with 1 at f and minus the reduced entry in
        column f at each pivot."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        ints = [[0] * len(free) for _ in range(self.cols)]
        for k, fc in enumerate(free):
            ints[fc][k] = R.den
        for row, pc in zip(R.ints, pivots):
            ints[pc] = [-row[fc] for fc in free]
        return _canonical(self.cols, len(free), R.den, ints)

    def cokernel_data(self) -> tuple["QMatrix", int]:
        """Projection onto a complement of the column space.

        Returns (P, d) where P is d x rows and P @ self == 0, with P of full
        row rank d = rows - rank(self); P restricted to the chosen complement
        coordinates is the identity-like quotient map.
        """
        # the rows of P are the kernel basis of self^T
        P = self.transpose().kernel_basis().transpose()
        return P, P.rows

    def solve(self, b: Sequence) -> list[Fraction] | None:
        """One solution of self @ x = b, or None if inconsistent."""
        n = self.cols
        R, pivots = self.hstack(QMatrix.column(b)).rref()
        if pivots and pivots[-1] == n:
            return None
        x = [_ZERO] * n
        for r, c in enumerate(pivots):
            x[c] = R[r, n]
        return x

    def solve_matrix(self, B: "QMatrix") -> "QMatrix | None":
        """Solve self @ X = B for X, or None if any column is inconsistent.

        One elimination of [self | B]: its row operations depend on self
        only, so every column of X is the solution ``solve`` gives for that
        column of B.
        """
        n = self.cols
        R, pivots = self.hstack(B).rref()
        if pivots and pivots[-1] >= n:
            return None
        ints = [[0] * B.cols for _ in range(n)]
        for row, c in zip(R.ints, pivots):
            ints[c] = row[n:]
        return _canonical(n, B.cols, R.den, ints)

    def inverse(self) -> "QMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        R, pivots = self.hstack(QMatrix.identity(n)).rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return _canonical(n, n, R.den, [row[n:] for row in R.ints])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def _wrap(rows: int, cols: int, den: int, ints: list[list[int]]) -> QMatrix:
    """The QMatrix ints / den, for a den that is already canonical."""
    out = QMatrix.__new__(QMatrix)
    out.rows, out.cols, out.den, out.ints = rows, cols, den, ints
    return out


def _canonical(rows: int, cols: int, den: int, ints: list[list[int]]) -> QMatrix:
    """The QMatrix ints / den for any positive den: the common factor of den
    and every entry is divided out, which leaves den the lcm of the entries'
    denominators."""
    if den != 1:
        g = den
        for r in ints:
            g = gcd(g, *r)
            if g == 1:
                break
        if g != 1:
            den //= g
            ints = [[x // g for x in r] for r in ints]
    return _wrap(rows, cols, den, ints)


def block_matrix(row_sizes: Sequence[int], col_sizes: Sequence[int], blocks: dict) -> QMatrix:
    """Assemble a matrix from blocks.

    Row block i has row_sizes[i] rows and column block j has col_sizes[j]
    columns; blocks maps (i, j) to the QMatrix at that position, and an absent
    block is zero.  A block of the wrong shape raises ValueError.
    """
    row_off, col_off = [0, *accumulate(row_sizes)], [0, *accumulate(col_sizes)]
    for (i, j), b in blocks.items():
        if (b.rows, b.cols) != (row_sizes[i], col_sizes[j]):
            raise ValueError(f"block {(i, j)} is {b.rows}x{b.cols}, not {row_sizes[i]}x{col_sizes[j]}")
    den = lcm(*{b.den for b in blocks.values()})
    ints = [[0] * col_off[-1] for _ in range(row_off[-1])]
    for (i, j), b in blocks.items():
        r0, c0, c1 = row_off[i], col_off[j], col_off[j + 1]
        f = den // b.den
        for k, row in enumerate(b.ints):
            ints[r0 + k][c0:c1] = row if f == 1 else [x * f for x in row]
    return _wrap(row_off[-1], col_off[-1], den, ints)


# -- fraction-free elimination ----------------------------------------------------


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination with first-nonzero pivoting.

    Returns (reduced, pivots): reduced[r] for r < len(pivots) is a primitive
    integer row with a nonzero entry at pivots[r] and zero at every other
    pivot column, and reduced[r] divided by that entry is row r of the
    reduced row echelon form; the rows past the pivots are zero.
    """
    nrows = len(rows)
    if not (nrows and ncols):
        return rows, []
    if nrows == 1:
        row = rows[0]
        c = next((c for c, x in enumerate(row) if x), None)
        return (rows, []) if c is None else ([_primitive(row)], [c])
    if ncols == 1:
        if not any(r[0] for r in rows):
            return rows, []
        return [[1]] + [[0] for _ in range(nrows - 1)], [0]
    m = list(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # first nonzero entry in column c at or below row r
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        prow = _primitive(m[pr])
        m[pr] = m[r]
        m[r] = prow
        p = prow[c]
        nz = [(k, y) for k, y in enumerate(prow) if y]
        for i in range(nrows):
            a = m[i][c]
            if a and i != r:
                # p * row_i - a * prow: column c of the result is zero
                row = [p * x for x in m[i]] if p != 1 else m[i][:]
                for k, y in nz:
                    row[k] -= a * y
                m[i] = _primitive(row)
        pivots.append(c)
        r += 1
    return m, pivots


# -- incremental spans and chain homology ------------------------------------------


class IncrementalSpan:
    """A growing list of independent vectors with exact membership tests.

    Vectors are cleared of denominators as they come in.  Every accepted
    vector is kept reduced against the earlier ones as a primitive integer
    vector, together with the integer combination of the accepted (cleared)
    vectors that equals it, so membership and coefficients take one pass
    over the accepted vectors and no fresh elimination.
    """

    def __init__(self, dim: int):
        self.dim = dim
        # (pivot, reduced vector, the combination of cleared vectors it is)
        self._reduced: list[tuple[int, list[int], list[int]]] = []
        # the denominator each accepted vector was cleared by
        self._dens: list[int] = []

    def _reduce(self, v):
        """(r, t, mu, d) with t * d * v == r + sum_j mu[j] * (cleared vector
        j), and r zero at every pivot."""
        if len(v) != self.dim:
            raise ValueError("vector length mismatch")
        d, r = _cleared([_rational(x) for x in v])
        t, mu = 1, [0] * len(self._reduced)
        for pivot, rv, cf in self._reduced:
            a = r[pivot]
            if a:
                p = rv[pivot]
                r = [p * x - a * y for x, y in zip(r, rv)]
                t *= p
                mu = [p * m for m in mu]
                for j, c in enumerate(cf):
                    if c:
                        mu[j] += a * c
                g = gcd(t, *r, *mu)
                if g > 1:
                    r, t, mu = [x // g for x in r], t // g, [m // g for m in mu]
        return r, t, mu, d

    def coefficients(self, v):
        """Coefficients of v in the accepted vectors, or None if v is not in
        their span.

        Entry i is the coefficient of the i-th vector that ``add`` accepted,
        in the order they were accepted.  The accepted vectors are
        independent, so the coefficients are unique.
        """
        r, t, mu, d = self._reduce(v)
        if any(r):
            return None
        return [Q(m * dj, t * d) for m, dj in zip(mu, self._dens)]

    def add(self, v) -> bool:
        """Add v if independent; returns True when the span grew."""
        r, t, mu, d = self._reduce(v)
        if not any(r):
            return False
        vec = _primitive(r + [-m for m in mu] + [t])
        pivot = next(i for i, x in enumerate(r) if x)
        self._reduced.append((pivot, vec[: self.dim], vec[self.dim :]))
        self._dens.append(d)
        return True

    def rank(self) -> int:
        return len(self._reduced)


def subquotient(Z: QMatrix, B: QMatrix):
    """The subquotient span(Z) + span(B) / span(B) of the column vectors of
    one space, with representatives and a projection.

    Z and B have one row per coordinate; their columns need not be
    independent.  Returns (reps, proj): the columns of reps are the columns
    of Z a greedy span accepts after every column of B, and they represent a
    basis of the subquotient; proj sends a matrix whose columns lie in
    span(B) + span(Z) to the matrix of their coordinates in that basis,
    raising InvariantError when a column does not.

    One elimination of [B | Z | I] runs, with I the identity.  The pivot
    columns in B and Z are those a greedy span accepts in that order: the
    boundaries first, then the representatives.  With k pivots there, the
    identity block of the reduced form is the row operation E, whose first k
    rows are a left inverse of those pivot columns and whose other rows
    annihilate exactly their span.  A vector's coordinates in [boundaries |
    reps] are therefore its product with the first k rows of E, and the rows
    past the boundaries are its subquotient coordinates.  When Z is the
    identity its block is E's own, so [B | I] is eliminated; when B is zero
    too, nothing is.
    """
    n = Z.rows
    nonzero = [j for j in range(B.cols) if any(r[j] for r in B.ints)]
    if len(nonzero) < B.cols:
        B = B.columns(nonzero)
    whole = Z.cols == n and Z.is_identity()
    if whole and not B.cols:
        return Z, _projection(QMatrix(0, n), Z)
    both = B if whole else B.hstack(Z)
    R, pivots = both.hstack(QMatrix.identity(n)).rref()
    k = sum(1 for c in pivots if c < B.cols + Z.cols)
    nb = sum(1 for c in pivots if c < B.cols)
    reps = Z.columns([c - B.cols for c in pivots[nb:k]])
    E = [row[both.cols :] for row in R.ints]
    left = _canonical(k - nb, n, R.den, E[nb:k])
    # the annihilator only faces a zero test, so its denominator is dropped
    annihilator = _wrap(n - k, n, 1, E[k:])
    return reps, _projection(annihilator, left)


def chain_homology(dims, mats):
    """Homology of a chain of vector spaces indexed by degree.

    dims maps a degree g to the dimension of C_g; mats maps g to the
    differential C_g -> C_{g-1} as a dims[g-1] x dims[g] matrix, and a
    missing degree means the zero map.  Returns (hdims, reps, projs), each
    keyed by every degree of dims: hdims[g] is the dimension of H_g; the
    columns of reps[g] are cycles representing the chosen basis of H_g; and
    projs[g] sends a dims[g] x m matrix whose columns are cycles to the
    hdims[g] x m matrix of their coordinates in that basis, raising
    InvariantError when a column is not a cycle.

    Each degree is one ``subquotient`` of the kernel basis of the outgoing
    differential (the identity when that is zero) by the columns of the
    incoming one.
    """
    hdims, reps, projs = {}, {}, {}
    for g in sorted(dims):
        n = dims[g]
        down, up = mats.get(g), mats.get(g + 1)
        if down is None or down.is_zero():
            Z = QMatrix.identity(n)
            if up is None or up.is_zero():
                # every chain is a cycle and none is a boundary: nothing to eliminate
                hdims[g], reps[g], projs[g] = n, Z, _projection(QMatrix(0, n), Z)
                continue
        else:
            Z = down.kernel_basis()
        reps[g], projs[g] = subquotient(Z, QMatrix(n, 0) if up is None else up)
        hdims[g] = reps[g].cols
    return hdims, reps, projs


def _projection(annihilator: QMatrix, left: QMatrix):
    def project(mat: QMatrix) -> QMatrix:
        if not (annihilator @ mat).is_zero():
            raise InvariantError("a column is not a cycle modulo boundaries")
        return left @ mat

    return project
