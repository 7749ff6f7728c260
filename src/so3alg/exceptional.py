"""Chain complexes over the group algebras of the five exceptional classes.

Each isolated class contributes the group algebra of its Weyl group: the
trivial group three times, the group of order two, and the nonabelian
group of order six obtained by brute force from cosets in the symmetric
group on four letters.  Complexes carry explicit action matrices; the
tensor product uses the diagonal action with Koszul signs and the internal
hom carries the conjugation action.

Each invariant is checked once, where data enters: ``GroupComplex.__init__``
checks shapes, that the identity acts as the identity, that the action is a
representation (each generator against every element), that each
differential commutes with each generator's action and that d² = 0;
``GroupChainMap`` checks each component against the generators.  On a
representation, commuting with the generators is commuting with every
element.  Tensor, hom and homology build their results with
``GroupComplex._assembled``, without checks: a block-diagonal Kronecker
product of representations is a representation, d⊗1, ±1⊗d, post-composition
and signed pre-composition are equivariant when their factors are, the
Koszul and pre-composition signs make the total differential square to zero,
and the homology of an equivariant complex carries a representation and the
zero differential.  So ``homology_W`` and ``is_weq`` trust their arguments.
"""

from __future__ import annotations

from itertools import permutations

from .errors import (
    AlgebraMismatch,
    BadClass,
    InvariantError,
    NotADifferential,
    SchemaError,
    WrongAlgebraForClass,
)
from .linalg import QMatrix, block_matrix, chain_homology

EXCEPTIONAL_CLASSES = ("SO3", "Sigma4", "A4", "A5", "D4")


class FiniteGroupAlg:
    """A finite group by its multiplication table; elements are 0..n-1.

    ``generators`` generate the group, and ``walk`` lists every other
    element e once as (e, s, a) with e = s * a, s a generator and a the
    identity or an element listed earlier: a generator s is (s, s, identity).
    """

    __slots__ = ("order", "table", "identity", "inverses", "generators", "walk")

    def __init__(self, table, identity=0):
        self.order = len(table)
        self.table = tuple(tuple(row) for row in table)
        self.identity = identity
        n = self.order
        for a in range(n):
            if self.mult(a, identity) != a or self.mult(identity, a) != a:
                raise InvariantError("identity fails")
            if identity not in self.table[a]:
                raise InvariantError("inverses fail")
        self.inverses = tuple(row.index(identity) for row in self.table)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mult(self.mult(a, b), c) != self.mult(a, self.mult(b, c)):
                        raise InvariantError("associativity fails")
        gens, walk = [], {}
        while len(walk) < n - 1:
            gens.append(next(a for a in range(n) if a != identity and a not in walk))
            walk = self._walk(gens)
        self.generators = tuple(gens)
        self.walk = tuple((e, s, a) for e, (s, a) in walk.items())

    def _walk(self, gens) -> dict:
        """Closure of the identity under left multiplication by gens: each
        element reached, in the order reached, maps to (s, a) with e = s * a,
        s in gens and a reached earlier (or the identity)."""
        walk, frontier = {}, [self.identity]
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = self.mult(s, x)
                if y != self.identity and y not in walk:
                    walk[y] = (s, x)
                    frontier.append(y)
        return walk

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mult(x, a)
            k += 1
        return k

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroupAlg)
            and self.table == other.table
            and self.identity == other.identity
        )


def trivial_group() -> FiniteGroupAlg:
    return FiniteGroupAlg([[0]])


def order_two_group() -> FiniteGroupAlg:
    return FiniteGroupAlg([[0, 1], [1, 0]])


def _perm_mult(a, b):
    """(a * b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(b)))


def coset_group_s4_mod_v4() -> FiniteGroupAlg:
    """The quotient of the symmetric group on four letters by the normal
    dihedral group of order four, computed by brute-force coset enumeration."""
    s4 = list(permutations(range(4)))
    v4 = {
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    }
    cosets = []
    seen = set()
    for g in s4:
        coset = frozenset(_perm_mult(g, v) for v in v4)
        if coset not in seen:
            seen.add(coset)
            cosets.append(coset)
    index = {c: i for i, c in enumerate(cosets)}
    reps = [sorted(c)[0] for c in cosets]
    table = []
    for a in reps:
        row = []
        for b in reps:
            prod = _perm_mult(a, b)
            row.append(index[next(c for c in cosets if prod in c)])
        table.append(row)
    ident = index[next(c for c in cosets if (0, 1, 2, 3) in c)]
    return FiniteGroupAlg(table, ident)


def weyl_group_of(cls: str) -> FiniteGroupAlg:
    """The Weyl group of an exceptional class, as a group algebra."""
    if cls in ("SO3", "Sigma4", "A5"):
        return trivial_group()
    if cls == "A4":
        return order_two_group()
    if cls == "D4":
        return coset_group_s4_mod_v4()
    raise BadClass(f"unknown exceptional class {cls!r}")


# -- complexes -------------------------------------------------------------------


class GroupComplex:
    """A bounded complex of modules over a finite group algebra.

    modules: degree -> (dimension, action matrices per group element);
    diffs: degree -> matrix into the next degree down.
    """

    __slots__ = ("algebra", "modules", "diffs")

    def __init__(self, algebra: FiniteGroupAlg, modules: dict, diffs: dict | None = None):
        # outside data: the action and the differentials are checked on
        # the generators (see the module docstring)
        checked = {}
        for g, (dim, action) in modules.items():
            if dim == 0:
                continue
            rho = []
            for e in range(algebra.order):
                try:
                    rho.append(action[e])
                except (KeyError, IndexError):
                    raise SchemaError(f"action at degree {g} lacks group element {e}") from None
            for mat in rho:
                if (mat.rows, mat.cols) != (dim, dim):
                    raise SchemaError(f"action matrix at degree {g} has wrong shape")
            if not rho[algebra.identity].is_identity():
                raise InvariantError("identity must act as the identity")
            # checking a generating set against every element suffices:
            # rho(sa) = rho(s)rho(a) extends multiplicatively to all words
            for a in algebra.generators:
                for b in range(algebra.order):
                    if rho[a] @ rho[b] != rho[algebra.mult(a, b)]:
                        raise InvariantError("action matrices are not a representation")
            checked[g] = (dim, rho)
        self._store(algebra, checked, diffs)
        for g, mat in self.diffs.items():
            if (mat.rows, mat.cols) != (self.dim(g - 1), self.dim(g)):
                raise SchemaError(f"differential at degree {g} has wrong shape")
            # a nonzero differential of the right shape has both ends in
            # modules; both are representations, so commuting with the
            # generators is commuting with every element
            src, tgt = self.modules[g][1], self.modules[g - 1][1]
            for s in algebra.generators:
                if tgt[s] @ mat != mat @ src[s]:
                    raise InvariantError("differential is not equivariant")
        self.check_differential()

    @staticmethod
    def _assembled(algebra: FiniteGroupAlg, modules: dict, diffs: dict | None = None):
        """A complex built by this module from checked parts, not checked again.

        modules: degree -> (dimension, action matrices in element order).
        The caller vouches that the action is a representation and that the
        differentials are equivariant; the result is normalised as by
        ``__init__``, so it is equal to the checked complex on the same data.
        """
        x = GroupComplex.__new__(GroupComplex)
        x._store(algebra, modules, diffs)
        return x

    def _store(self, algebra, modules, diffs):
        """The one place the fields are set: modules of dimension 0 and zero
        differentials are dropped, and each action is a tuple."""
        self.algebra = algebra
        self.modules = {g: (dim, tuple(rho)) for g, (dim, rho) in modules.items() if dim}
        self.diffs = {g: mat for g, mat in (diffs or {}).items() if not mat.is_zero()}

    def dim(self, g: int) -> int:
        return self.modules.get(g, (0, ()))[0]

    def action(self, g: int, e: int) -> QMatrix:
        dim, acts = self.modules.get(g, (0, ()))
        if not dim:
            return QMatrix(0, 0)
        return acts[e]

    def diff(self, g: int) -> QMatrix:
        mat = self.diffs.get(g)
        if mat is None:
            return QMatrix(self.dim(g - 1), self.dim(g))
        return mat

    def degrees(self):
        return sorted(self.modules)

    def is_zero(self) -> bool:
        return not self.modules

    def check_differential(self):
        for g in self.modules:
            if not (self.diff(g) @ self.diff(g + 1)).is_zero():
                raise NotADifferential(f"d squared is not zero at degree {g + 1}")

    def __eq__(self, other):
        return (
            isinstance(other, GroupComplex)
            and self.algebra == other.algebra
            and self.modules == other.modules
            and self.diffs == other.diffs
        )


def unit_complex(algebra: FiniteGroupAlg) -> GroupComplex:
    """The monoidal unit: one trivial-action line in degree zero."""
    one = QMatrix.identity(1)
    return GroupComplex(algebra, {0: (1, {e: one for e in range(algebra.order)})})


def zero_complex(algebra: FiniteGroupAlg) -> GroupComplex:
    return GroupComplex(algebra, {})


class GroupChainMap:
    """A degree-0 equivariant chain map between complexes."""

    __slots__ = ("x", "y", "mats")

    def __init__(self, x: GroupComplex, y: GroupComplex, mats: dict):
        if x.algebra != y.algebra:
            raise AlgebraMismatch("chain map across algebras")
        self.x, self.y = x, y
        self.mats = {}
        for g in set(x.modules) | set(mats):
            mat = mats.get(g)
            if mat is None:
                mat = QMatrix(y.dim(g), x.dim(g))
            if (mat.rows, mat.cols) != (y.dim(g), x.dim(g)):
                raise SchemaError(f"component at degree {g} has wrong shape")
            # x and y act by representations, so the generators suffice
            for s in x.algebra.generators:
                if y.action(g, s) @ mat != mat @ x.action(g, s):
                    raise InvariantError("chain map is not equivariant")
            self.mats[g] = mat

    def component(self, g: int) -> QMatrix:
        mat = self.mats.get(g)
        if mat is None:
            return QMatrix(self.y.dim(g), self.x.dim(g))
        return mat

    def is_chain_map(self) -> bool:
        degs = set(self.x.modules) | set(self.y.modules)
        for g in degs:
            if self.y.diff(g) @ self.component(g) != self.component(g - 1) @ self.x.diff(g):
                return False
        return True

    @staticmethod
    def identity(x: GroupComplex) -> "GroupChainMap":
        return GroupChainMap(
            x, x, {g: QMatrix.identity(x.dim(g)) for g in x.modules}
        )


# -- tensor and hom ------------------------------------------------------------------


def _total_complex(alg: FiniteGroupAlg, levels: dict, size, action, pieces) -> GroupComplex:
    """The total complex of a double complex, one block matrix per degree.

    levels maps a degree n to its blocks in order; size(n, b) is the
    dimension of block b of degree n, action(n, b, e) the action of element e
    on it, and pieces(n, b) yields (target, matrix) for each nonzero
    component of the differential from that block into the block target of
    degree n - 1.
    """
    sizes = {n: [size(n, b) for b in bl] for n, bl in levels.items()}
    modules = {}
    for n, bl in levels.items():
        acts = [
            block_matrix(sizes[n], sizes[n], {(i, i): action(n, b, e) for i, b in enumerate(bl)})
            for e in range(alg.order)
        ]
        modules[n] = (sum(sizes[n]), acts)
    diffs = {}
    for n, bl in levels.items():
        blocks = {}
        for j, b in enumerate(bl):
            for target, mat in pieces(n, b):
                blocks[(levels[n - 1].index(target), j)] = mat
        if blocks:
            diffs[n] = block_matrix(sizes[n - 1], sizes[n], blocks)
    # block-diagonal products of representations, and differentials made of
    # equivariant pieces: equivariant by construction, so not checked again
    return GroupComplex._assembled(alg, modules, diffs)


def tensor_diagonal(x: GroupComplex, y: GroupComplex) -> GroupComplex:
    """Total complex of the tensor over Q, with the diagonal action."""
    if x.algebra != y.algebra:
        raise AlgebraMismatch("tensor across algebras")
    levels = {}
    for p in x.degrees():
        for q in y.degrees():
            levels.setdefault(p + q, []).append((p, q))
    for n in levels:
        levels[n].sort(reverse=True)

    def pieces(n, pq):
        # a nonzero differential out of a block has a nonzero target block
        p, q = pq
        # d(x) tensor y
        dx = x.diffs.get(p)
        if dx is not None:
            yield (p - 1, q), dx.kron(QMatrix.identity(y.dim(q)))
        # Koszul sign on x tensor d(y)
        dy = y.diffs.get(q)
        if dy is not None:
            b = QMatrix.identity(x.dim(p)).kron(dy)
            yield (p, q - 1), b.scale(-1) if p % 2 else b

    return _total_complex(
        x.algebra, levels,
        lambda n, pq: x.dim(pq[0]) * y.dim(pq[1]),
        lambda n, pq, e: x.action(pq[0], e).kron(y.action(pq[1], e)),
        pieces,
    )


def internal_hom_conj(x: GroupComplex, y: GroupComplex) -> GroupComplex:
    """The hom complex with the conjugation action."""
    if x.algebra != y.algebra:
        raise AlgebraMismatch("hom across algebras")
    alg = x.algebra
    levels = {}
    # p runs upward and meets each level at most once, so levels are sorted
    for p in x.degrees():
        for qy in y.degrees():
            levels.setdefault(qy - p, []).append(p)
    # g . f = g o f o g^{-1}: on matrix coordinates this is the Kronecker
    # product of the target action of g with the transposed source action of
    # g^{-1}, which is built once per source degree
    src = {p: [x.action(p, alg.inv(e)).transpose() for e in range(alg.order)] for p in x.degrees()}

    def action(n, p, e):
        return y.action(p + n, e).kron(src[p][e])

    def pieces(n, p):
        # a nonzero differential out of a block has a nonzero target block
        # post-composition with the target differential
        dy = y.diffs.get(p + n)
        if dy is not None:
            yield p, dy.kron(QMatrix.identity(x.dim(p)))
        # pre-composition with the source differential, with a sign
        dx = x.diffs.get(p + 1)
        if dx is not None:
            b = QMatrix.identity(y.dim(p + n)).kron(dx.transpose())
            yield p + 1, b.scale(-1) if n % 2 else b

    return _total_complex(alg, levels, lambda n, p: y.dim(p + n) * x.dim(p), action, pieces)


# -- homology and the projective structure ----------------------------------------------


def _homology_data(x: GroupComplex):
    """Per degree: homology dimension, representing cycles, and projection."""
    degs = set(x.modules)
    degs |= {g - 1 for g in degs} | {g + 1 for g in degs}
    dims = {g: x.dim(g) for g in degs}
    return chain_homology(dims, x.diffs)


def homology_W(x: GroupComplex) -> GroupComplex:
    """Levelwise homology with the induced action and zero differentials.

    Only the generators' actions are induced; every other element acts by
    the product its walk entry names, which is the same exact matrix.  The
    induced action of an equivariant complex is a representation, so the
    result is not checked again.
    """
    alg = x.algebra
    hdims, reps, projs = _homology_data(x)
    modules = {}
    for g, h in hdims.items():
        if not h:
            continue
        acts = {alg.identity: QMatrix.identity(h)}
        for e, s, a in alg.walk:
            if a == alg.identity:
                acts[e] = projs[g](x.action(g, e) @ reps[g])
            else:
                acts[e] = acts[s] @ acts[a]
        modules[g] = (h, [acts[e] for e in range(alg.order)])
    return GroupComplex._assembled(alg, modules)


def is_weq(f: GroupChainMap) -> bool:
    """A homology isomorphism."""
    if not f.is_chain_map():
        return False
    hx, reps_x, _ = _homology_data(f.x)
    hy, _, projs_y = _homology_data(f.y)
    for g in set(hx) | set(hy):
        a, b = hx.get(g, 0), hy.get(g, 0)
        if a != b:
            return False
        if not a:
            continue
        if projs_y[g](f.component(g) @ reps_x[g]).rank() != a:
            return False
    return True


def is_fib(f: GroupChainMap) -> bool:
    """A levelwise surjection."""
    return all(f.component(g).rank() == f.y.dim(g) for g in f.y.modules)


# -- the five-factor product ---------------------------------------------------------


class ExceptionalProduct:
    """One complex per exceptional class, each over its Weyl algebra."""

    __slots__ = ("components",)

    def __init__(self, components: dict):
        if set(components) != set(EXCEPTIONAL_CLASSES):
            raise BadClass("the product needs exactly the five exceptional classes")
        for cls, comp in components.items():
            if comp.algebra != weyl_group_of(cls):
                raise WrongAlgebraForClass(
                    f"component at {cls} is over the wrong algebra"
                )
        self.components = dict(components)

    def component(self, cls: str) -> GroupComplex:
        if cls not in self.components:
            raise BadClass(f"unknown exceptional class {cls!r}")
        return self.components[cls]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components.values())


def product_assemble(components: dict) -> ExceptionalProduct:
    return ExceptionalProduct(components)


def product_is_weq(maps: dict) -> bool:
    """Componentwise weak equivalence of a family of chain maps."""
    if set(maps) != set(EXCEPTIONAL_CLASSES):
        raise BadClass("the product needs exactly the five exceptional classes")
    return all(is_weq(f) for f in maps.values())
