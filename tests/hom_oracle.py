"""The one-system hom space and Ext by composition, kept as test oracles for
``toral.HomSpace`` and ``toral.ext_A``.

``HomSpace`` here builds one ``ModuleMap`` per unknown, composes it with the
structure maps, writes one equation per entry of each composite and reads
the kernel basis off one elimination of the whole system.  The engine's
``HomSpace`` reads the same equations off the structure maps' entries and
counts ``dim`` by rank; both must give the same unknowns, dimensions and
kernel bases.

``ext_A`` here builds each basis morphism into Y0, composes it with the
resolution's projections (``compose_window_map``), rebuilds the composite
as a morphism into Y1 and reads its coordinates back; the engine's
``ext_A`` ranks post-composition without building a morphism.
"""

from so3alg.errors import InvariantError, SchemaError
from so3alg.graded import ModuleMap, WindowMap, vector_entries
from so3alg.linalg import Q, QMatrix
from so3alg.qw import Slots, VMap
from so3alg.toral import (
    ToralMorphism,
    ToralObject,
    _entry_allowed,
    _refuse_differential,
    injective_resolution,
    laurent_model,
)


def system_kernel(h) -> QMatrix:
    """The kernel basis of a ``toral.HomSpace``'s system, one column per
    basis morphism."""
    return h._system.kernel_basis() if h.unknowns else QMatrix(0, 0)


def _entry_rows(n: int, terms):
    """The rows of sum_u v_u * term_u == 0 over the n unknowns, one per map
    entry.

    terms are (unknown index, map) pairs of maps with one domain and
    codomain.  Every ModuleMap entry is a monomial and ModuleMap drops the
    entries past a torsion cut-off, so a map into a Laurent or torsion
    module is zero exactly when each entry is.
    """
    eqs = {}
    for u, term in terms:
        for e, coef in term.entries.items():
            eqs.setdefault(e, {})[u] = coef
    return [[eq.get(u, Q(0)) for u in range(n)] for eq in eqs.values()]


class HomSpace:
    """All degree-t morphisms x -> y, solved as one exact linear system.

    Unknowns are the allowed monomial entries of the slot components plus the
    blocks of the V-component; the defining squares give the constraints.
    """

    def __init__(self, x: ToralObject, y: ToralObject, degree: int):
        if x.side != y.side:
            raise SchemaError("hom across sides")
        _refuse_differential("hom", x, y)
        self.x, self.y, self.degree = x, y, degree
        self.keys = Slots.keys_of([x.M, y.M])
        self.unknowns = []
        self.index = {}
        units = {}
        for key in self.keys:
            dom, cod = x.M[key], y.M[key]
            for i in range(len(cod.summands)):
                for j in range(len(dom.summands)):
                    if _entry_allowed(dom, cod, degree, i, j) is not None:
                        units[len(self.unknowns)] = ModuleMap(dom, cod, degree, {(i, j): Q(1)})
                        self._add(("a", key, i, j))
        for g in sorted(x.V.dims):
            for s in (1, -1):
                for ix in range(x.V.dim(g, s)):
                    for iy in range(y.V.dim(g + degree, s)):
                        self._add(("v", g, s, iy, ix))
        rows = self._equations(units)
        n = len(self.unknowns)
        mat = QMatrix(len(rows), n, rows)
        self.basis_mat = mat.kernel_basis() if n else QMatrix(0, 0)

    def _add(self, u):
        self.index[u] = len(self.unknowns)
        self.unknowns.append(u)

    def _equations(self, units):
        """Rows of by o a == l o bx at every slot, one per entry of the
        composed maps: a slot unknown contributes by o unit, a V unknown
        minus its single-entry map of Laurent models after bx."""
        x, y, t = self.x, self.y, self.degree
        n = len(self.unknowns)
        rows = []
        for key in self.keys:
            bx, by = x.beta[key], y.beta[key]
            torus = x.slot_is_torus(key)
            lx_pos, ly_pos = laurent_model(x.V, torus)[2], laurent_model(y.V, torus)[2]
            terms = []
            for u, label in enumerate(self.unknowns):
                if label[0] == "a":
                    if label[1] == key:
                        terms.append((u, by.compose(units[u])))
                else:
                    _, g, s, iy, ix = label
                    entry = (ly_pos[(g + t, s, iy)], lx_pos[(g, s, ix)])
                    l_unit = ModuleMap(bx.codomain, by.codomain, t, {entry: Q(-1)})
                    terms.append((u, l_unit.compose(bx)))
            rows += _entry_rows(n, terms)
        return rows

    @property
    def dim(self) -> int:
        return self.basis_mat.cols

    def from_vector(self, vec) -> ToralMorphism:
        """Build the morphism with the given unknown values."""
        x, y, t = self.x, self.y, self.degree
        ent_by_key = {key: {} for key in self.keys}
        block_ents = {}
        for u, label in enumerate(self.unknowns):
            val = vec[u]
            if val == 0:
                continue
            if label[0] == "a":
                _, key, i, j = label
                ent_by_key[key][(i, j)] = val
            else:
                _, g, s, iy, ix = label
                block_ents.setdefault((g, s), {})[(iy, ix)] = val
        blocks = {
            (g, s): QMatrix.from_entries(y.V.dim(g + t, s), x.V.dim(g, s), ent)
            for (g, s), ent in block_ents.items()
        }
        alpha = {
            key: ModuleMap(x.M[key], y.M[key], t, ent)
            for key, ent in ent_by_key.items()
        }
        return ToralMorphism(x, y, t, alpha, VMap._assembled(x.V, y.V, t, blocks))

    def basis_morphism(self, k: int) -> ToralMorphism:
        return self.from_vector(self.basis_mat.col(k))

    def vector_of(self, m: ToralMorphism):
        """Unknown-space vector of a morphism (must lie in the hom space)."""
        vec = [Q(0)] * len(self.unknowns)
        for key in self.keys:
            for (i, j), coef in m.alpha[key].entries.items():
                u = self.index.get(("a", key, i, j))
                if u is None:
                    raise InvariantError("morphism entry outside the hom space")
                vec[u] = coef
        for (g, s), mat in m.phi.blocks.items():
            for iy, ix, coef in mat.entries():
                u = self.index.get(("v", g, s, iy, ix))
                if u is None:
                    raise InvariantError("V-entry outside the hom space")
                vec[u] = coef
        return vec

    def coords_of(self, m: ToralMorphism):
        sol = self.basis_mat.solve(self.vector_of(m))
        if sol is None:
            raise InvariantError("morphism does not satisfy the hom constraints")
        return sol


def compose_window_map(w: WindowMap, phi: ModuleMap) -> ModuleMap:
    """w after phi, reconstructed from generator degrees.

    Requires phi.domain to be a polynomial-ring module whose generators
    lie in the window.
    """
    lo, hi = w.window
    src = phi.domain
    ent = {}
    for j, s in enumerate(src.summands):
        g = s.shift
        if not (lo <= g <= hi and lo <= g + phi.degree <= hi):
            raise InvariantError("window does not reach a generator")
        basis_g = src.basis(g)
        col = basis_g.index((j, 0))
        vec = [Q(0)] * len(basis_g)
        vec[col] = Q(1)
        img = w.evaluate(g + phi.degree).apply(phi.evaluate(g).apply(vec))
        for i, x in vector_entries(w.codomain, g + phi.degree + w.degree, img).items():
            ent[(i, j)] = x
    return ModuleMap(src, w.codomain, phi.degree + w.degree, ent)


def ext_A(x: ToralObject, y: ToralObject, degrees, window=(-12, 12)) -> dict[int, tuple[int, int]]:
    """Degreewise hom and Ext of x against y: the rank of post-composition
    with the resolution's projections, one composed basis morphism at a
    time."""
    _refuse_differential("ext", x, y)
    degrees = list(degrees)
    shifts = [s.shift for m in x.all_modules() for s in m.summands]
    reach = shifts + [g + t for g in shifts for t in degrees]
    res = injective_resolution(y, (min([window[0], *reach]), max([window[1], *reach])))
    out = {}
    for t in degrees:
        h0 = HomSpace(x, res.Y0, t)
        h1 = HomSpace(x, res.Y1, t)
        cols = []
        for k in range(h0.dim):
            m = h0.basis_morphism(k)
            alpha = {key: compose_window_map(res.quot[key], m.alpha[key]) for key in h1.keys}
            comp = ToralMorphism(x, res.Y1, t, alpha, VMap.zero(x.V, res.Y1.V, t))
            cols.append(h1.coords_of(comp))
        post = QMatrix.from_columns(h1.dim, cols)
        rank = post.rank()
        out[t] = (h0.dim - rank, h1.dim - rank)
    return out
