"""Graded modules over Q[c] and Q[d] with a Weyl involution.

Conventions.  All gradings are homological: the polynomial generator c has
degree -2 and the involution w satisfies w c = -c w; the generator d has
degree -4 and is fixed by w.  A finitely generated graded module over either
ring, or over the corresponding Laurent ring, decomposes canonically into
"thin" summands: shifted free modules, shifted torsion modules Q[c]/c^l, and
shifted Laurent summands.  Each summand carries the sign of its generator;
multiplying by c flips the sign, multiplying by d preserves it, so a summand
contributes at most one dimension to every degree and the sign of every
basis element is determined.

Maps between canonical modules are stored as one rational coefficient per
(target summand, source summand) pair: homogeneity determines the monomial
power, so the coefficient is the whole datum.

Kernels, cokernels, homology and the spans of elements are all subquotients
Z/B of a canonical module on a window, and one routine, ``window_subquotient``,
computes them: each run of degrees is one ``linalg.subquotient`` elimination,
which gives representatives and a projection.  Every representative is
sign-pure, so the window module carries one involution sign per basis vector,
not an involution matrix, and the action of the ring generator is induced
through the projections.  The canonical form is then reconstructed by an
interval ("barcode") decomposition of the action along each
residue-class-and-sign chain of runs, with exact basis tracking, so that every
canonical generator comes with an explicit representative vector of the
ambient module.

Window walks pay per run of degrees, not per degree.  A run
(``degree_runs``) is a stretch of one residue class on which the same
summands of every module a walk reads are alive; its breaks come from the
summands' shifts and torsion lengths, not from a scan of degrees.  Along a
run every map matrix, subquotient and sign chain repeats, and the ring
generator acts as the identity in subquotient coordinates, so a walk
eliminates once per run, induces the action only from a run's bottom degree
into the next run's top, and runs the barcode over runs.  Its work grows with
the number of summands, not with the window's width.  A module computes its
basis in a degree once and keeps it as a tuple (modules are immutable, and
every module is made by ``__init__`` or ``GradedModule._canonical``, which
start the cache); the subquotient walk skips the runs where there are no
cycles, and the canonical reconstruction skips chains that are zero on the
whole window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import (
    InvariantError,
    NotADifferential,
    NotEquivariant,
    NotHomogeneous,
    SchemaError,
)
from .linalg import IncrementalSpan, Q, QMatrix, subquotient

# -- rings -------------------------------------------------------------------

FREE = "free"
TORSION = "torsion"
LAURENT = "laurent"

_KIND_RANK = {FREE: 0, TORSION: 1, LAURENT: 2}


@dataclass(frozen=True)
class Ring:
    var: str  # "c" or "d"
    laurent: bool

    @property
    def step(self) -> int:
        return 2 if self.var == "c" else 4

    @property
    def flip(self) -> bool:
        # multiplying by the generator flips the involution sign over Q[c]
        return self.var == "c"

    def __repr__(self):
        base = f"Q[{self.var}]"
        return base + ("[1/%s]" % self.var if self.laurent else "")


POLY_C = Ring("c", False)
POLY_D = Ring("d", False)
LAURENT_C = Ring("c", True)
LAURENT_D = Ring("d", True)


@dataclass(frozen=True)
class Summand:
    kind: str
    shift: int
    sign: int
    length: int = 0  # torsion only

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise SchemaError(f"bad summand kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise SchemaError(f"bad sign {self.sign!r}")
        if self.kind == TORSION and self.length < 1:
            raise SchemaError("torsion summand needs positive length")
        if self.kind != TORSION and self.length != 0:
            raise SchemaError("length only allowed on torsion summands")


def _normalize_summand(ring: Ring, s: Summand) -> Summand:
    """Reduce Laurent shifts to a fundamental residue, adjusting the sign."""
    if s.kind != LAURENT:
        return s
    step = ring.step
    r = s.shift % step
    moves = (s.shift - r) // step
    sign = s.sign * (-1) ** (moves % 2) if ring.flip else s.sign
    return Summand(LAURENT, r, sign)


def _sort_key(s: Summand):
    return (-s.shift, _KIND_RANK[s.kind], s.length, -s.sign)


class GradedModule:
    """A canonical-form graded module: an ordered tuple of thin summands."""

    __slots__ = ("ring", "summands", "_bases")

    def __init__(self, ring: Ring, summands):
        self.ring = ring
        norm = [_normalize_summand(ring, s) for s in summands]
        self.summands = tuple(sorted(norm, key=_sort_key))
        self._bases = {}

    @staticmethod
    def _canonical(ring: Ring, summands) -> "GradedModule":
        """A module from summands already normalized and in canonical order.

        The one constructor besides ``__init__``: every module starts with an
        empty basis cache.
        """
        m = GradedModule.__new__(GradedModule)
        m.ring = ring
        m.summands = tuple(summands)
        m._bases = {}
        return m

    @staticmethod
    def zero(ring: Ring) -> "GradedModule":
        return GradedModule(ring, ())

    def __eq__(self, other):
        return (
            isinstance(other, GradedModule)
            and self.ring == other.ring
            and self.summands == other.summands
        )

    def __hash__(self):
        return hash((self.ring, self.summands))

    def __repr__(self):
        return f"GradedModule({self.ring}, {list(self.summands)})"

    def is_zero(self) -> bool:
        return not self.summands

    def is_torsion(self) -> bool:
        return all(s.kind == TORSION for s in self.summands)

    def suspend(self, k: int) -> "GradedModule":
        return GradedModule(
            self.ring,
            [Summand(s.kind, s.shift + k, s.sign, s.length) for s in self.summands],
        )

    def twist(self) -> "GradedModule":
        return GradedModule(
            self.ring,
            [Summand(s.kind, s.shift, -s.sign, s.length) for s in self.summands],
        )

    # -- degreewise structure -------------------------------------------

    def power_at(self, i: int, degree: int) -> int | None:
        """The generator power of summand i alive in the given degree."""
        s = self.summands[i]
        num = s.shift - degree
        if num % self.ring.step:
            return None
        a = num // self.ring.step
        if s.kind == FREE and a < 0:
            return None
        if s.kind == TORSION and not (0 <= a < s.length):
            return None
        return a

    def basis(self, degree: int) -> tuple[tuple[int, int], ...]:
        """The (summand, generator power) pairs alive in a degree, in summand
        order; computed once per degree and kept with the module."""
        b = self._bases.get(degree)
        if b is None:
            b = self._bases[degree] = tuple(
                (i, a)
                for i in range(len(self.summands))
                if (a := self.power_at(i, degree)) is not None
            )
        return b

    def dim(self, degree: int) -> int:
        return len(self.basis(degree))

    def basis_sign(self, i: int, a: int) -> int:
        s = self.summands[i]
        return s.sign * (-1) ** (a % 2) if self.ring.flip else s.sign

    def action_matrix(self, degree: int) -> QMatrix:
        """Multiplication by the ring generator, degree -> degree - step."""
        src = self.basis(degree)
        dst = self.basis(degree - self.ring.step)
        pos = {key: k for k, key in enumerate(dst)}
        ent = {}
        for col, (i, a) in enumerate(src):
            row = pos.get((i, a + 1))
            if row is not None:
                ent[(row, col)] = 1
        return QMatrix.from_entries(len(dst), len(src), ent)

    def max_shift(self) -> int:
        return max((abs(s.shift) for s in self.summands), default=0)

    def max_torsion(self) -> int:
        return max((s.length for s in self.summands if s.kind == TORSION), default=0)


def direct_sum(modules) -> tuple[GradedModule, list[list[int]]]:
    """Direct sum with index bookkeeping.

    Returns (sum, maps) where maps[k][i] is the summand index in the sum of
    summand i of modules[k].
    """
    modules = list(modules)
    if not modules:
        raise SchemaError("direct sum of empty family needs a ring")
    ring = modules[0].ring
    tagged = []
    for k, m in enumerate(modules):
        if m.ring != ring:
            raise SchemaError("direct sum over mixed rings")
        for i, s in enumerate(m.summands):
            tagged.append((s, k, i))
    tagged.sort(key=lambda t: (_sort_key(t[0]), t[1], t[2]))
    out = GradedModule._canonical(ring, (t[0] for t in tagged))
    maps = [[0] * len(m.summands) for m in modules]
    for new_idx, (_, k, i) in enumerate(tagged):
        maps[k][i] = new_idx
    return out, maps


# -- module maps ---------------------------------------------------------


class ModuleMap:
    """A homogeneous equivariant map between canonical modules.

    entries[(i, j)] is the coefficient of the monomial sending the generator
    of source summand j to (generator power) of target summand i; the power
    is determined by the degrees.
    """

    __slots__ = ("domain", "codomain", "degree", "entries")

    def __init__(self, domain: GradedModule, codomain: GradedModule, degree: int, entries):
        if domain.ring.var != codomain.ring.var:
            raise SchemaError("map between different variables")
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        clean = {}
        for (i, j), coef in entries.items():
            coef = coef if isinstance(coef, Fraction) else Fraction(coef)
            if coef == 0:
                continue
            a = self._power_or_error(i, j)
            if a is None:
                continue  # monomial lands past a torsion cutoff: it is zero
            clean[(i, j)] = coef
        self.entries = clean

    def _power_or_error(self, i: int, j: int) -> int | None:
        src = self.domain.summands[j]
        dst = self.codomain.summands[i]
        step = self.codomain.ring.step
        num = dst.shift - src.shift - self.degree
        if num % step:
            raise NotHomogeneous(
                f"entry ({i},{j}) cannot be homogeneous of degree {self.degree}"
            )
        a = num // step
        if dst.kind == TORSION and a >= dst.length:
            return None
        if dst.kind != LAURENT and a < 0:
            raise NotHomogeneous(f"entry ({i},{j}) needs a negative power")
        if src.kind == LAURENT and dst.kind != LAURENT:
            raise InvariantError("Laurent source cannot map to a bounded target")
        if src.kind == TORSION:
            if dst.kind != TORSION or a + src.length < dst.length:
                raise InvariantError(
                    f"entry ({i},{j}) does not annihilate the source torsion"
                )
        # equivariance
        flip = self.codomain.ring.flip
        ok = (
            dst.sign * (-1) ** (a % 2) == src.sign if flip else dst.sign == src.sign
        )
        if not ok:
            raise NotEquivariant(f"entry ({i},{j}) breaks the involution")
        return a

    @staticmethod
    def zero(domain, codomain, degree=0) -> "ModuleMap":
        return ModuleMap(domain, codomain, degree, {})

    @staticmethod
    def identity(m: GradedModule) -> "ModuleMap":
        return ModuleMap(m, m, 0, {(i, i): Q(1) for i in range(len(m.summands))})

    def __eq__(self, other):
        return (
            isinstance(other, ModuleMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(
            (self.domain, self.codomain, self.degree, tuple(sorted(self.entries.items())))
        )

    def __repr__(self):
        return f"ModuleMap(deg {self.degree}, {self.entries})"

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if (self.domain, self.codomain, self.degree) != (
            other.domain,
            other.codomain,
            other.degree,
        ):
            raise SchemaError("map addition shape mismatch")
        ent = dict(self.entries)
        for k, v in other.entries.items():
            ent[k] = ent.get(k, Q(0)) + v
        return ModuleMap(self.domain, self.codomain, self.degree, ent)

    def scale(self, k) -> "ModuleMap":
        k = Fraction(k)
        return ModuleMap(
            self.domain, self.codomain, self.degree, {e: k * v for e, v in self.entries.items()}
        )

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if other.codomain != self.domain:
            raise SchemaError("composition mismatch")
        ent: dict = {}
        by_src: dict[int, list] = {}
        for (j, k), v in other.entries.items():
            by_src.setdefault(j, []).append((k, v))
        for (i, j), u in self.entries.items():
            for k, v in by_src.get(j, ()):
                ent[(i, k)] = ent.get((i, k), Q(0)) + u * v
        return ModuleMap(other.domain, self.codomain, self.degree + other.degree, ent)

    def evaluate(self, degree: int) -> QMatrix:
        """Matrix of the map from degree to degree + self.degree."""
        src = self.domain.basis(degree)
        dst = self.codomain.basis(degree + self.degree)
        if not src or not dst:
            return QMatrix(len(dst), len(src))
        # every entry passed _power_or_error in __init__, so its power is
        # the plain degree difference
        step = self.codomain.ring.step
        by_src: dict[int, list] = {}
        for (i, j), coef in self.entries.items():
            a = (self.codomain.summands[i].shift - self.domain.summands[j].shift - self.degree) // step
            by_src.setdefault(j, []).append((i, a, coef))
        pos = {key: r for r, key in enumerate(dst)}
        ent = {}
        for col, (j, b) in enumerate(src):
            for i, a, coef in by_src.get(j, ()):
                row = pos.get((i, b + a))
                if row is not None:
                    ent[(row, col)] = coef
        return QMatrix.from_entries(len(dst), len(src), ent)


def auto_window(window: tuple[int, int], modules) -> tuple[int, int]:
    """Extend a window far enough that canonical forms are visible on it."""
    modules = [m for m in modules if m is not None]
    pad = 4
    for m in modules:
        pad = max(pad, m.max_shift() + m.ring.step * m.max_torsion() + 4)
    return (window[0] - pad, window[1] + pad)


# -- graded Smith reduction ------------------------------------------------


def smith_canonical(presentation: ModuleMap) -> GradedModule:
    """Canonical form of the cokernel of a degree-0 map of free modules.

    Homogeneous entries are monomials, so the reduction repeatedly isolates
    an entry of globally minimal generator power; the required row and column
    operations then only ever multiply by nonnegative powers.
    """
    if presentation.degree != 0:
        raise SchemaError("presentation map must have degree 0")
    gens = presentation.codomain
    rels = presentation.domain
    if any(s.kind != FREE for s in gens.summands) or any(
        s.kind != FREE for s in rels.summands
    ):
        raise SchemaError("presentation must be a map of free modules")
    step = gens.ring.step

    def power(i, j):
        return (gens.summands[i].shift - rels.summands[j].shift) // step

    ent = {k: v for k, v in presentation.entries.items()}
    live_rows = set(range(len(gens.summands)))
    live_cols = set(range(len(rels.summands)))
    pivots: list[tuple[int, int]] = []

    while True:
        best = None
        for (i, j), v in ent.items():
            if i in live_rows and j in live_cols and v != 0:
                key = (power(i, j), i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        a0, i0, j0 = best
        piv = ent[(i0, j0)]
        # clear the pivot column with row operations
        for i in list(live_rows):
            if i == i0:
                continue
            v = ent.get((i, j0))
            if not v:
                continue
            lam = v / piv
            for j in live_cols:
                w = ent.get((i0, j))
                if w:
                    ent[(i, j)] = ent.get((i, j), Q(0)) - lam * w
            ent[(i, j0)] = Q(0)
        # clear the pivot row with column operations
        for j in list(live_cols):
            if j == j0:
                continue
            v = ent.get((i0, j))
            if not v:
                continue
            mu = v / piv
            for i in live_rows:
                w = ent.get((i, j0))
                if w:
                    ent[(i, j)] = ent.get((i, j), Q(0)) - mu * w
            ent[(i0, j)] = Q(0)
        pivots.append((i0, a0))
        live_rows.discard(i0)
        live_cols.discard(j0)

    out = []
    for i, a in pivots:
        s = gens.summands[i]
        if a > 0:
            out.append(Summand(TORSION, s.shift, s.sign, a))
    for i in live_rows:
        s = gens.summands[i]
        out.append(Summand(FREE, s.shift, s.sign))
    return GradedModule(gens.ring, out)


# -- localization, fixed points, base change -------------------------------


def localize(m: GradedModule) -> tuple[GradedModule, list[int]]:
    """Invert the polynomial generator; torsion dies, free becomes Laurent.

    Returns (localized module, sources) where sources[k] is the index of the
    original summand giving output summand k.
    """
    ring = LAURENT_C if m.ring.var == "c" else LAURENT_D
    tagged = []
    for i, s in enumerate(m.summands):
        if s.kind == TORSION:
            continue
        tagged.append((_normalize_summand(ring, Summand(LAURENT, s.shift, s.sign)), i))
    tagged.sort(key=lambda t: (_sort_key(t[0]), t[1]))
    out = GradedModule._canonical(ring, (t[0] for t in tagged))
    return out, [t[1] for t in tagged]


def _rebuilt_map(phi: ModuleMap, rebuild) -> ModuleMap:
    """phi between rebuilt domain and codomain.

    rebuild(m) is (new module, sources), sources[k] the summand of m that
    summand k of the new module comes from; an entry at a summand that has
    no copy is dropped.
    """
    dom, src_d = rebuild(phi.domain)
    cod, src_c = rebuild(phi.codomain)
    back_d = {orig: k for k, orig in enumerate(src_d)}
    back_c = {orig: k for k, orig in enumerate(src_c)}
    ent = {
        (back_c[i], back_d[j]): v
        for (i, j), v in phi.entries.items()
        if i in back_c and j in back_d
    }
    return ModuleMap(dom, cod, phi.degree, ent)


def localize_map(phi: ModuleMap) -> ModuleMap:
    return _rebuilt_map(phi, localize)


def fixed_points_c_to_d(m: GradedModule) -> tuple[GradedModule, list[tuple[int, int]]]:
    """W-fixed points of a Q[c]-module, as a Q[d]-module (d acting as c^2).

    Returns (fixed module, realization): realization[k] = (i, e) meaning the
    generator of output summand k is c^e times the generator of input
    summand i (e is 0 for a sign-+ generator, 1 for sign--).
    """
    if m.ring.var != "c":
        raise SchemaError("fixed points expect a Q[c]-module")
    ring = LAURENT_D if m.ring.laurent else POLY_D
    tagged = []
    for i, s in enumerate(m.summands):
        e = 0 if s.sign == 1 else 1
        shift = s.shift - 2 * e
        if s.kind == TORSION:
            length = (s.length + (1 - e)) // 2
            if length == 0:
                continue
            new = Summand(TORSION, shift, 1, length)
        else:
            new = Summand(s.kind, shift, 1)
        tagged.append((_normalize_summand(ring, new), i, e))
    tagged.sort(key=lambda t: (_sort_key(t[0]), t[1]))
    out = GradedModule._canonical(ring, (t[0] for t in tagged))
    return out, [(t[1], t[2]) for t in tagged]


def fixed_points_map(phi: ModuleMap) -> ModuleMap:
    """The restriction of an equivariant Q[c]-map to W-fixed points."""

    def rebuild(m):
        fixed, real = fixed_points_c_to_d(m)
        return fixed, [orig for orig, _e in real]

    return _rebuilt_map(phi, rebuild)


def base_change_d_to_c(m: GradedModule) -> tuple[GradedModule, list[int]]:
    """Extension of scalars along d -> c^2 for a Q[d]-module.

    Free and Laurent summands keep their shift; a torsion summand of length l
    becomes one of length 2l.  Generators keep sign +.
    """
    if m.ring.var != "d":
        raise SchemaError("base change expects a Q[d]-module")
    ring = LAURENT_C if m.ring.laurent else POLY_C
    tagged = []
    for i, s in enumerate(m.summands):
        if s.sign != 1:
            raise InvariantError("torus-slot modules carry no involution")
        if s.kind == TORSION:
            new = Summand(TORSION, s.shift, 1, 2 * s.length)
        else:
            new = Summand(s.kind, s.shift, 1)
        tagged.append((_normalize_summand(ring, new), i))
    tagged.sort(key=lambda t: (_sort_key(t[0]), t[1]))
    out = GradedModule._canonical(ring, (t[0] for t in tagged))
    return out, [t[1] for t in tagged]


def base_change_map(phi: ModuleMap) -> ModuleMap:
    return _rebuilt_map(phi, base_change_d_to_c)


# -- barcode decomposition ---------------------------------------------------


@dataclass
class Bar:
    birth: int  # position index (0 = highest degree)
    death: int | None  # last alive position, None = alive through the end
    vectors: list  # vectors[p - birth] is the bar vector at position p


def barcode(dims: list[int], maps: list[QMatrix]) -> list[Bar]:
    """Interval decomposition of a chain of spaces with basis tracking.

    positions run along descending degrees; maps[p] goes position p -> p+1.
    The returned bar vectors realize a direct-sum decomposition.
    """
    bars: list[Bar] = []
    active: list[Bar] = []

    def births(p, span):
        for i in range(dims[p]):
            e = [Q(0)] * dims[p]
            e[i] = Q(1)
            if span.add(e):
                b = Bar(p, None, [e])
                bars.append(b)
                active.append(b)

    if dims:
        span0 = IncrementalSpan(dims[0])
        births(0, span0)
    for p in range(len(dims) - 1):
        f = maps[p]
        span = IncrementalSpan(dims[p + 1])
        survivors = []
        for b in active:
            w = f.apply(b.vectors[-1])
            if all(x == 0 for x in w):
                b.death = p
                continue
            mu = span.coefficients(w)
            if mu is not None:
                # dependent on older alive bars: adjust the whole bar history
                for q in range(len(b.vectors)):
                    pos = b.birth + q
                    for o, lam in zip(survivors, mu):
                        if lam and o.birth <= pos:
                            ov = o.vectors[pos - o.birth]
                            b.vectors[q] = [
                                x - lam * y for x, y in zip(b.vectors[q], ov)
                            ]
                b.death = p
                continue
            span.add(w)
            b.vectors.append(w)
            survivors.append(b)
        active = survivors
        births(p + 1, span)
    return bars


# -- window modules and canonical reconstruction -----------------------------


def degree_runs(window, step, placed) -> dict[int, int]:
    """The runs of degrees on which a window walk repeats itself.

    placed lists (module, offset) pairs: a walk reads each module at the
    degree g + offset.  A run is a stretch of one residue class mod step on
    which every placed module keeps the same summands alive.  Runs break at
    the window top of each class and where a summand comes alive or dies: a
    free summand's shift, a torsion summand's shift and its shift minus
    step * length, each minus the offset; Laurent summands never break a run.
    Returns {top degree: number of degrees}, each class's runs from the top
    down.
    """
    lo, hi = window
    tops = set(range(max(lo, hi - step + 1), hi + 1))
    for m, offset in placed:
        for s in m.summands:
            if s.kind != LAURENT:
                tops.add(s.shift - offset)
            if s.kind == TORSION:
                tops.add(s.shift - step * s.length - offset)
    runs = {}
    for r in range(step):
        cls = sorted((t for t in tops if lo <= t <= hi and t % step == r), reverse=True)
        below = lo - 1 - (lo - 1 - r) % step  # the class's first degree under the window
        for t, nxt in zip(cls, cls[1:] + [below]):
            runs[t] = (t - nxt) // step
    return runs


class WindowModule:
    """Data of a graded module on a window, one entry per run of degrees, in
    a basis of sign-pure vectors.

    runs: run top -> number of degrees (see ``degree_runs``).  Along a run the
    basis repeats, each sign is the top's times flip per step down, and the
    ring generator acts as the identity.  signs: run top -> the involution
    sign of each basis vector at the top (their number is the dimension);
    acts: run top t -> matrix of the ring generator from the run's bottom
    degree into the next run's top, for that top in the window (a missing one
    is zero).
    """

    def __init__(self, ring: Ring, window, runs, signs, acts):
        self.ring = ring
        self.window = window
        self.runs = runs
        self.signs = signs
        self.acts = acts

    def dim(self, t):
        return len(self.signs.get(t, ()))


def window_of_module(m: GradedModule, window) -> WindowModule:
    lo = window[0]
    step = m.ring.step
    runs = degree_runs(window, step, [(m, 0)])
    signs, acts = {}, {}
    for t, n in runs.items():
        if m.dim(t):
            signs[t] = [m.basis_sign(i, a) for i, a in m.basis(t)]
            bottom = t - (n - 1) * step
            if bottom - step >= lo:
                acts[t] = m.action_matrix(bottom)
    return WindowModule(m.ring, window, runs, signs, acts)


def sign_of(m: GradedModule, degree: int, vec) -> int | None:
    """The involution sign of a vector of m at a degree: the one sign of the
    basis vectors where it is nonzero (+1 for the zero vector), or None when
    it mixes signs."""
    signs = {m.basis_sign(i, a) for (i, a), x in zip(m.basis(degree), vec) if x}
    if len(signs) > 1:
        return None
    return signs.pop() if signs else 1


@dataclass
class RealizedSummand:
    summand: Summand
    degree: int  # degree of the canonical generator
    vector: list  # generator vector at that degree


def canonical_from_window(wm: WindowModule) -> tuple[GradedModule, list[RealizedSummand]]:
    """Reconstruct the canonical form visible on a window.

    Chains run down each residue class of degrees, one position per run,
    refined by sign: the chain of a sign takes the window coordinates of that
    sign, and over Q[c] the action swaps signs along the chain, which is
    checked.  A bar spans whole runs: its length is the sum of their lengths,
    and its sign is the chain's at its cumulative position.  Bars reaching
    the bottom of the window are free (Laurent over a Laurent ring);
    divisible torsion appears as a stage cut off at the window top, which is
    the intended window truncation.  Realized vectors are in the window
    coordinates of the top of the run where they are born.
    """
    ring = wm.ring
    step = ring.step
    flip = -1 if ring.flip else 1
    for t, act in wm.acts.items():
        n = wm.runs[t]
        src, dst = wm.signs[t], wm.signs.get(t - n * step, ())
        if any(dst[r] != flip**n * src[c] for r, c, _ in act.entries()):
            raise InvariantError("action does not respect the involution chains")
    out: list[RealizedSummand] = []
    for res in range(step):
        tops = sorted((t for t in wm.runs if t % step == res), reverse=True)
        if not tops:
            continue
        # the position of each run top along the chain of single degrees
        pos = list(accumulate((wm.runs[t] for t in tops[:-1]), initial=0))
        for start_sign in (1, -1):
            # the window coordinates of the chain's sign at each run
            idx = [
                [j for j, sg in enumerate(wm.signs.get(t, ())) if sg == start_sign * flip**p]
                for t, p in zip(tops, pos)
            ]
            dims = [len(js) for js in idx]
            if not any(dims):
                continue  # no bars: the chain is zero on the whole window
            cmaps = []
            for k in range(len(tops) - 1):
                act = wm.acts.get(tops[k])
                if act is None or not (dims[k] and dims[k + 1]):
                    cmaps.append(QMatrix(dims[k + 1], dims[k]))
                else:
                    cmaps.append(act.submatrix(idx[k + 1], idx[k]))
            for bar in barcode(dims, cmaps):
                g_top = tops[bar.birth]
                sign_top = start_sign * flip**pos[bar.birth]
                vec = [Q(0)] * wm.dim(g_top)
                for j, x in zip(idx[bar.birth], bar.vectors[0]):
                    vec[j] = x
                if bar.death is None:
                    # a bar entering at the very top of the window and leaving
                    # at the bottom is upward-unbounded: a Laurent summand
                    laurent = ring.laurent or bar.birth == 0
                    s = Summand(LAURENT if laurent else FREE, g_top, sign_top)
                else:
                    length = sum(wm.runs[t] for t in tops[bar.birth : bar.death + 1])
                    s = Summand(TORSION, g_top, sign_top, length)
                out.append(RealizedSummand(s, g_top, vec))
    module = GradedModule(ring, [r.summand for r in out])
    # align realized generators with the sorted canonical order
    order = sorted(
        range(len(out)), key=lambda k: (_sort_key(_normalize_summand(ring, out[k].summand)), k)
    )
    realized = [out[k] for k in order]
    return module, realized


# -- subquotients on a window: kernels, cokernels, homology, spans ---------------


def window_subquotient(m: GradedModule, window, runs, cycles, boundaries):
    """The subquotient Z/B of a canonical module, reconstructed on a window.

    runs is a partition of the window into runs (``degree_runs``) along
    which m, Z and B repeat.  cycles[t] and boundaries[t] are matrices whose
    columns are vectors of m at the run top t; a run missing from cycles is
    zero, and one missing from boundaries has no boundaries.  Each run is one
    ``linalg.subquotient``.  Its representatives must be sign-pure, and each
    tags its window coordinate with its sign; the action of the ring
    generator is induced from the run's bottom degree through the projection
    at the next run's top, which checks that it stays in Z + B (inside a run
    it is the identity).

    Returns (S, realized, project): realized[k] is summand k of S with its
    generator as a vector of m, and project(t, X) sends a matrix whose
    columns are cycles at a run top t where S is nonzero to their
    coordinates in S.basis(t), which hold for every degree of the run.
    """
    lo = window[0]
    step = m.ring.step
    reps, projs, signs = {}, {}, {}
    for t, Z in cycles.items():
        reps[t], projs[t] = subquotient(Z, boundaries.get(t, QMatrix(Z.rows, 0)))
        if reps[t].cols:
            signs[t] = [sign_of(m, t, reps[t].col(j)) for j in range(reps[t].cols)]
            if None in signs[t]:
                raise InvariantError("a representative is not sign-pure")
    acts = {}
    for t in signs:
        bottom = t - (runs[t] - 1) * step
        if bottom - step < lo:
            continue
        img = m.action_matrix(bottom) @ reps[t]
        if bottom - step in projs:
            acts[t] = projs[bottom - step](img)
        elif not img.is_zero():
            raise InvariantError("the action leaves the subquotient")
    wm = WindowModule(m.ring, window, runs, signs, acts)
    S, realized = canonical_from_window(wm)
    ambient = [
        RealizedSummand(r.summand, r.degree, reps[r.degree].apply(r.vector)) for r in realized
    ]

    def project(t: int, X: QMatrix) -> QMatrix:
        return _window_coordinates(S, realized, wm, t, projs[t](X))

    return S, ambient, project


def _window_coordinates(C: GradedModule, realized, wm: WindowModule, t: int, vecs: QMatrix):
    """Express the columns of vecs, window vectors at the run top t, in
    canonical coordinates: row r of the result belongs to C.basis(t)[r].

    The basis of C at t consists of the realized generators pushed down by
    the action to t, one run at a time (a Laurent generator is realized at
    the window top, not at its normalized shift).  They are independent, so
    the coordinates are unique, and one elimination gives them for every
    column.
    """
    cols = []
    for k, _a in C.basis(t):
        v, deg = realized[k].vector, realized[k].degree
        while deg > t:
            v = wm.acts[deg].apply(v)
            deg -= wm.runs[deg] * wm.ring.step
        cols.append(v)
    sol = QMatrix.from_columns(wm.dim(t), cols).solve_matrix(vecs)
    if sol is None:
        raise InvariantError("vector not expressible in canonical coordinates")
    return sol


def kernel_of_map(phi: ModuleMap, window) -> tuple[GradedModule, ModuleMap]:
    """Kernel of a map with its inclusion, reconstructed on the window."""
    m = phi.domain
    lo = window[0]
    step = m.ring.step
    runs = degree_runs(window, step, [(m, 0), (phi.codomain, phi.degree)])
    cycles = {}
    for t, n in runs.items():
        mat = phi.evaluate(t)
        kerb = mat.kernel_basis() if mat.cols else None
        if kerb is None or not kerb.cols:
            continue
        cycles[t] = kerb
        bottom = t - (n - 1) * step
        if bottom - step < lo and not (m.action_matrix(bottom) @ kerb).is_zero():
            raise InvariantError("kernel window too small")
    K, realized, _ = window_subquotient(m, window, runs, cycles, {})
    ent = {}
    for k, r in enumerate(realized):
        for col, (i, _a) in enumerate(m.basis(r.degree)):
            if r.vector[col] != 0:
                ent[(i, k)] = r.vector[col]
    incl = ModuleMap(K, m, 0, ent)
    return K, incl


class WindowMap:
    """A map stored as degreewise matrices on a window.

    Used where a symbolic monomial matrix is not well defined, e.g. the
    quotient projection out of a Laurent module.  mats[g] sends the domain
    at degree g to the codomain at degree g + degree.
    """

    def __init__(self, domain: GradedModule, codomain: GradedModule, degree: int, window, mats):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        self.window = window
        self.mats = mats

    def evaluate(self, g: int) -> QMatrix:
        m = self.mats.get(g)
        if m is None:
            return QMatrix(self.codomain.dim(g + self.degree), self.domain.dim(g))
        return m

    def compose_module_map(self, phi: ModuleMap) -> ModuleMap:
        """self after phi, reconstructed from generator degrees.

        Requires phi.domain to be a polynomial-ring module whose generators
        lie in the window.
        """
        lo, hi = self.window
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
            img = self.evaluate(g + phi.degree).apply(phi.evaluate(g).apply(vec))
            tdeg = g + phi.degree + self.degree
            for cidx, (i, _a) in enumerate(self.codomain.basis(tdeg)):
                if img[cidx] != 0:
                    ent[(i, j)] = img[cidx]
        return ModuleMap(src, self.codomain, phi.degree + self.degree, ent)


def cokernel_of_map(phi: ModuleMap, window) -> tuple[GradedModule, WindowMap]:
    """Cokernel of a map with its projection, reconstructed on the window:
    the subquotient of the whole codomain by the image.  All degrees of a run
    share one projection matrix."""
    n = phi.codomain
    step = n.ring.step
    runs = degree_runs(window, step, [(n, 0), (phi.domain, -phi.degree)])
    cycles, image = {}, {}
    for t in runs:
        if n.dim(t):
            cycles[t] = QMatrix.identity(n.dim(t))
            image[t] = phi.evaluate(t - phi.degree)
    C, _, project = window_subquotient(n, window, runs, cycles, image)
    mats = {}
    for t, ident in cycles.items():
        if C.dim(t):
            mat = project(t, ident)
            for k in range(runs[t]):
                mats[t - k * step] = mat
    return C, WindowMap(n, C, 0, window, mats)


def homology_realized(m: GradedModule, d: ModuleMap, window=None):
    """Homology together with cycle representatives.

    Returns (H, realized): realized[k] is summand k of H with a cycle of m
    that represents its generator.
    """
    if d.domain != m or d.codomain != m or d.degree != -1:
        raise NotADifferential("differential must be a degree -1 self-map")
    if not d.compose(d).is_zero():
        raise NotADifferential("d squared is not zero")
    if window is None:
        window = auto_window((0, 0), [m])
    # homology at g reads m at g + 1, g and g - 1
    runs = degree_runs(window, m.ring.step, [(m, 1), (m, 0), (m, -1)])
    cycles, boundaries = {}, {}
    for t in runs:
        if m.dim(t):
            down = d.evaluate(t)
            cycles[t] = QMatrix.identity(m.dim(t)) if down.is_zero() else down.kernel_basis()
            boundaries[t] = d.evaluate(t + 1)
    H, realized, _ = window_subquotient(m, window, runs, cycles, boundaries)
    return H, realized
