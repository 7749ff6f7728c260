"""The four seeded workloads of the so3alg benchmark.

Each workload is a fixed schedule of job *slots*.  A slot fixes the shape of
its input (which generators, which Weyl group, how many summands), and the
seed picks one of ``VARIANTS`` generated contents for every slot.  So every
seed runs the same mix of shapes, which keeps the figures of two seeds
comparable, and every input any seed can draw belongs to a finite pool whose
inputs and reports were digested once (``digests.json``, written by
``record_digests.py``).

A job is keyed by its slot and variant, not by its content, and carries the
hash of its input.  Inputs are built with the benchmark's own ``Fraction``
arithmetic wherever the engine is not the thing that builds them, so a change
to the engine's linear algebra does not change the workload.  Where engine
constructors and serializers do build an input (toral objects and their JSON,
Burnside files), a changed input shows as a mismatch against the recorded
input hash instead of passing unnoticed.

A job has three parts:

- ``execute()`` calls the engine and is the only timed part;
- ``report(raw)`` turns the result into the bytes that are digested;
- ``check(raw)`` runs the cheap independent oracles and returns a list of
  problems.

Failures are reported, never avoided: a job whose verb exits non-zero or whose
call raises counts as failed, whatever the digest recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

from so3alg import burnside, cli
from so3alg.dihedral import (
    DihedralMorphism,
    QWComplex,
    cone,
    counit_const,
    direct_sum_dihedral,
    functor_const,
    functor_i_k,
    germ_fixed_points,
    homology_Ch,
    is_weak_equivalence,
    zero_dihedral,
)
from so3alg.errors import EngineError, FixtureMismatch, SchemaError
from so3alg.exceptional import (
    GroupComplex,
    homology_W,
    internal_hom_conj,
    tensor_diagonal,
    weyl_group_of,
)
from so3alg.graded import POLY_C, POLY_D, TORSION, GradedModule, Summand
from so3alg.linalg import Q, QMatrix
from so3alg.toral import (
    QWSpace,
    SlotFamily,
    VMap,
    direct_sum_objects,
    make_eV,
    make_fN,
    sigma_H,
    sigma_one,
    sigma_T_minus,
    sphere,
    suspend_object,
)

# Contents generated per slot; a seed draws one of them for every slot.
VARIANTS = 4

FIXTURE_DIR = Path(cli.__file__).resolve().parent / "data"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def text(rows) -> list:
    """A matrix of Fractions as rows of strings, for input hashes."""
    return [[str(v) for v in row] for row in rows]


# -- Fraction arithmetic for building inputs without the engine -----------------
# Matrices are lists of rows; the column count is passed where a matrix may
# have no rows.


def mat_mul(a: list, b: list, cols: int) -> list:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Q(0)) for j in range(cols)]
            for i in range(len(a))]


def mat_rref(m: list, cols: int) -> tuple[list, list[int]]:
    """Reduced row echelon form and pivot columns."""
    m = [list(row) for row in m]
    pivots, r = [], 0
    for c in range(cols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def mat_kernel(m: list, cols: int) -> list:
    """Null-space basis as the columns of a cols x nullity matrix: one
    column per free variable, set to 1, in column order."""
    reduced, pivots = mat_rref(m, cols)
    free = [c for c in range(cols) if c not in pivots]
    out = [[Q(0)] * len(free) for _ in range(cols)]
    for k, fc in enumerate(free):
        out[fc][k] = Q(1)
        for r, pc in enumerate(pivots):
            out[pc][k] = -reduced[r][fc]
    return out


def mat_inverse(m: list) -> list:
    n = len(m)
    eye = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    reduced, pivots = mat_rref([row + e for row, e in zip(m, eye)], 2 * n)
    assert pivots[:n] == list(range(n)), "singular matrix"
    return [row[n:] for row in reduced]


def exit_code_of(exc: BaseException) -> int:
    """The exit code the ``engine`` CLI gives an exception (1: uncaught)."""
    if isinstance(exc, FixtureMismatch):
        return 4
    if isinstance(exc, SchemaError):
        return 2
    if isinstance(exc, EngineError):
        return 3
    return 1


@dataclass
class Raw:
    """What one execution produced: an exit code, a message, and the value
    (CLI report bytes, or the objects an API job computed)."""

    code: int
    message: str = ""
    value: object = None


@dataclass
class Job:
    id: str
    key: str  # "slot/variant": the digest key
    input: str  # hash of the input as generated
    execute: object  # () -> Raw, the timed call
    report: object  # Raw -> bytes
    check: object = None  # Raw -> list[str]


# -- the engine CLI, in process --------------------------------------------------


def call_cli(argv: list[str], out: Path) -> Raw:
    """Run ``engine argv --out out`` in this process, as a user would."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv + ["--out", str(out)])
    except Exception as exc:  # an uncaught engine bug is a failed job, not a crash
        return Raw(1, f"{type(exc).__name__}: {exc}")
    if code:
        lines = [ln for ln in sink.getvalue().splitlines() if ln.strip()]
        return Raw(code, lines[-1] if lines else "")
    return Raw(0, "", out.read_bytes())


def cli_input(argv: list[str]) -> str:
    """Input hash of a CLI call: the verb and options, with each input file
    replaced by its name and the hash of its content."""
    parts = []
    for a in argv:
        p = Path(a)
        is_file = a.endswith(".json") and p.is_file()
        parts.append(f"@{p.name}:{sha(p.read_bytes())}" if is_file else a)
    return sha(canonical(parts))


def cli_report(raw: Raw) -> bytes:
    return raw.value


def chain(calls):
    """Run CLI calls in order; the job fails with the first failing call, but
    every call is still made so that the work done is the same."""
    def execute():
        raws = [call_cli(argv, out) for argv, out in calls]
        bad = next((r for r in raws if r.code), None)
        if bad is not None:
            return Raw(bad.code, bad.message, raws)
        return Raw(0, "", raws)
    return execute


def chain_report(raw: Raw) -> bytes:
    return b"\0".join(r.value or b"" for r in raw.value)


# -- toral-ext: Ext through a length-one injective resolution ---------------------

TORAL_KINDS = ("fN", "eV", "one", "H", "sphere", "Tm")
# One or two summands per object: 6 singletons and 15 pairs.
TORAL_SHAPES = [(k,) for k in TORAL_KINDS] + list(itertools.combinations(TORAL_KINDS, 2))
TORAL_SLOTS = 210  # blocks of 21 slots; a block has every shape once as x and once as y
TORAL_WINDOW = "-2:2"


def _toral_part(rng: random.Random, kind: str):
    if kind == "fN":
        explicit = {}
        for n in rng.sample(range(2, 7), rng.randint(1, 2)):
            explicit[n] = GradedModule(POLY_C, [
                Summand(TORSION, rng.randint(-4, 4), rng.choice((1, -1)), rng.randint(1, 2))
                for _ in range(rng.randint(1, 2))
            ])
        if rng.random() < 0.4:
            explicit[1] = GradedModule(POLY_D, [
                Summand(TORSION, rng.randint(-4, 4), 1, rng.randint(1, 2))
            ])
        return make_fN(SlotFamily("SO3", explicit, GradedModule.zero(POLY_C)))
    if kind == "eV":
        degrees = rng.sample(range(-2, 3), rng.randint(1, 2))
        return make_eV(QWSpace({g: rng.choice(((1, 0), (0, 1), (1, 1))) for g in degrees}))
    make = {
        "one": sigma_one,
        "H": lambda: sigma_H(rng.randint(2, 6)),
        "sphere": sphere,
        "Tm": sigma_T_minus,
    }[kind]
    return suspend_object(make(), rng.randint(-3, 3))


def toral_object(rng: random.Random, shape):
    """A star object: a direct sum of at most two bounded generators.

    The generator is bounded on purpose: free draws of many summands make a
    few jobs hundreds of times slower than the median.
    """
    parts = [_toral_part(rng, k) for k in shape]
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum_objects(out, p)
    return out


def toral_shapes(slot: int):
    """(x shape, y shape) of a slot; over each block of 21 slots, x and y each
    run through all 21 shapes."""
    n = len(TORAL_SHAPES)
    return TORAL_SHAPES[slot % n], TORAL_SHAPES[(5 * slot + slot // n) % n]


def toral_ext_job(slot: int, variant: int, workdir: Path) -> Job:
    rng = random.Random(f"toral-ext/{slot}/{variant}")
    xs, ys = toral_shapes(slot)
    x, y = toral_object(rng, xs), toral_object(rng, ys)
    fx, fy = workdir / f"x{slot}.json", workdir / f"y{slot}.json"
    fx.write_text(json.dumps(cli.toral_to_json(x), sort_keys=True))
    fy.write_text(json.dumps(cli.toral_to_json(y), sort_keys=True))
    resolve = ["resolve", str(fy)]
    ext = ["ext", str(fx), str(fy), f"--window={TORAL_WINDOW}"]

    def check(raw: Raw) -> list[str]:
        res = raw.value[0]
        if res.code == 0 and json.loads(res.value).get("exact") is not True:
            return ["resolve report is not exact"]
        return []

    return Job(
        id=f"toral-ext/{slot}",
        key=f"{slot}/{variant}",
        input=sha(canonical([cli_input(resolve), cli_input(ext)])),
        execute=chain([(resolve, workdir / "out-resolve.json"), (ext, workdir / "out-ext.json")]),
        report=chain_report,
        check=check,
    )


# -- exceptional-tensor: tensor, internal hom and homology over the Weyl groups ----

# Weighted toward D4, the only class with a non-abelian Weyl group.
EXC_CLASSES = ("D4", "D4", "A4", "D4", "SO3", "D4", "A4", "D4", "Sigma4", "D4", "A5", "D4")
# (dim C0, dim C1) of the two complexes, cycled over the slots.  No module
# is above 4: a 6-dimensional D4 summand makes homology_W take seconds.
EXC_DIMS = (((2, 2), (2, 2)), ((2, 2), (3, 2)), ((3, 2), (2, 3)), ((1, 3), (2, 2)),
            ((2, 3), (3, 3)), ((3, 3), (3, 3)), ((2, 1), (2, 2)), ((3, 3), (2, 2)))
EXC_SLOTS = 120


def _irreps(alg):
    """Integer irreducible representations of a Weyl group, as
    (dimension, {element: matrix rows})."""
    n = alg.order
    one = {e: [[1]] for e in range(n)}
    if n == 1:
        return [(1, one)]
    sign = {e: [[1 if alg.element_order(e) % 2 else -1]] for e in range(n)}
    if n == 2:
        return [(1, one), (1, sign)]
    # order six: the permutation action on the cosets of an order-2
    # subgroup, restricted to the sum-zero plane with basis e0 - e2, e1 - e2
    s = next(e for e in range(n) if alg.element_order(e) == 2)
    cosets = []
    for a in range(n):
        c = frozenset((a, alg.mult(a, s)))
        if c not in cosets:
            cosets.append(c)
    where = {a: i for i, c in enumerate(cosets) for a in c}

    def perm(g):
        return [where[alg.mult(g, next(iter(c)))] for c in cosets]

    std = {}
    for g in range(n):
        p = perm(g)
        m = [[0, 0], [0, 0]]
        for j in (0, 1):
            for idx, coef in ((p[j], 1), (p[2], -1)):
                if idx != 2:
                    m[idx][j] += coef
        std[g] = m
    return [(1, one), (1, sign), (2, std)]


def _unimodular(rng: random.Random, n: int) -> tuple[list, list]:
    """A random integer change of basis and its inverse."""
    lower = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [row[:] for row in lower]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Q(rng.randint(-1, 1))
            upper[j][i] = Q(rng.randint(-1, 1))
    p = mat_mul(lower, upper, n)
    return p, mat_inverse(p)


def _module(shape, rng, irreps, mults):
    """A module with the given irrep multiplicities, in a random basis:
    `shape` draws a unimodular change of basis and `rng` the signs of the
    new basis vectors.  Signs leave the size of every entry, and with it the
    cost of elimination, as it is: the exceptional jobs' cost varies up to 2x
    with the content, and a few heavy jobs set the p90.
    Returns (dim, actions, change of basis, its inverse, irrep blocks)."""
    blocks = [(k, d, rho) for k, (d, rho) in enumerate(irreps) for _ in range(mults[k])]
    dim = sum(d for _k, d, _rho in blocks)
    p, pinv = _unimodular(shape, dim)
    signs = [Q(rng.choice((1, -1))) for _ in range(dim)]
    p = [[v * sign for v in row] for row, sign in zip(p, signs)]
    pinv = [[v * sign for v, sign in zip(row, signs)] for row in pinv]
    acts = {}
    for e in range(len(irreps[0][1])):
        m = [[Q(0)] * dim for _ in range(dim)]
        off = 0
        for _k, d, rho in blocks:
            for i in range(d):
                for j in range(d):
                    m[off + i][off + j] = Q(rho[e][i][j])
            off += d
        acts[e] = mat_mul(mat_mul(p, m, dim), pinv, dim)
    return dim, acts, p, pinv, blocks


def _multiplicities(rng, irreps, dim):
    """Random irrep multiplicities of total dimension dim."""
    options = [
        m for m in itertools.product(range(dim + 1), repeat=len(irreps))
        if sum(k * d for k, (d, _rho) in zip(m, irreps)) == dim
    ]
    return rng.choice(options)


def group_complex(shape: random.Random, rng: random.Random, cls: str, dims):
    """A two-step complex C1 -> C0 over the Weyl group of cls, with
    (dim C0, dim C1) == dims; `shape` draws the irrep multiplicities, the
    bases and the differential, and `rng` the signs of the basis vectors.
    Returns (its matrices as text, the GroupComplex).

    The differential is block-scalar on each isotypic part in the irrep
    basis (Schur's lemma), so it is equivariant by construction.
    """
    alg = weyl_group_of(cls)
    irreps = _irreps(alg)
    d0, a0, p0, _, b0 = _module(shape, rng, irreps, _multiplicities(shape, irreps, dims[0]))
    d1, a1, _, q1, b1 = _module(shape, rng, irreps, _multiplicities(shape, irreps, dims[1]))
    core = [[Q(0)] * d1 for _ in range(d0)]
    r0 = 0
    for k0, dim, _rho in b0:
        c0 = 0
        for k1, d, _r in b1:
            if k0 == k1:
                # nonzero, so that ranks, and with them the cost, follow the shape
                coef = Q(shape.choice((-2, -1, 1, 2)))
                for i in range(dim):
                    core[r0 + i][c0 + i] = coef
            c0 += d
        r0 += dim
    diff = mat_mul(mat_mul(p0, core, d1), q1, d1)
    doc = [[text(a0[e]) for e in sorted(a0)], [text(a1[e]) for e in sorted(a1)], text(diff)]
    return doc, GroupComplex(
        alg,
        {0: (d0, {e: QMatrix(d0, d0, m) for e, m in a0.items()}),
         1: (d1, {e: QMatrix(d1, d1, m) for e, m in a1.items()})},
        {1: QMatrix(d0, d1, diff)},
    )


def complex_doc(x: GroupComplex) -> dict:
    mat = cli.matrix_to_json
    return {
        "order": x.algebra.order,
        "modules": {str(g): [mat(a) for a in x.modules[g][1]] for g in sorted(x.modules)},
        "diffs": {str(g): mat(m) for g, m in sorted(x.diffs.items())},
    }


def dense_homology(x: GroupComplex) -> dict[int, int]:
    """nullity - rank, degree by degree: the oracle for homology_W."""
    out = {}
    for g in x.modules:
        h = x.dim(g) - x.diff(g).rank() - x.diff(g + 1).rank()
        if h:
            out[g] = h
    return out


def exceptional_job(slot: int, variant: int, workdir: Path) -> Job:
    # the slot fixes the complexes up to the signs of the basis vectors, and
    # the variant picks those signs: every matrix and report changes, but
    # elimination does the same work on entries of the same size
    shape = random.Random(f"exceptional-tensor/{slot}")
    rng = random.Random(f"exceptional-tensor/{slot}/{variant}")
    cls = EXC_CLASSES[slot % len(EXC_CLASSES)]
    dx, dy = EXC_DIMS[slot % len(EXC_DIMS)]
    (docx, x), (docy, y) = group_complex(shape, rng, cls, dx), group_complex(shape, rng, cls, dy)

    def execute() -> Raw:
        try:
            t = tensor_diagonal(x, y)
            h = internal_hom_conj(x, y)
            return Raw(0, "", (t, h, homology_W(t), homology_W(h)))
        except Exception as exc:
            return Raw(exit_code_of(exc), f"{type(exc).__name__}: {exc}")

    def report(raw: Raw) -> bytes:
        return canonical([complex_doc(c) for c in raw.value])

    def check(raw: Raw) -> list[str]:
        t, h, ht, hh = raw.value
        hx, hy = dense_homology(x), dense_homology(y)
        tensor_want, hom_want = {}, {}
        for p, a in hx.items():
            for q, b in hy.items():
                tensor_want[p + q] = tensor_want.get(p + q, 0) + a * b
                hom_want[q - p] = hom_want.get(q - p, 0) + a * b
        problems = []
        for name, c, hc, want in (("tensor", t, ht, tensor_want), ("hom", h, hh, hom_want)):
            got = {g: hc.dim(g) for g in hc.degrees()}
            if got != dense_homology(c):
                problems.append(f"{name} homology differs from nullity - rank")
            if got != want:
                problems.append(f"{name} homology differs from the Kunneth dimensions")
        return problems

    return Job(
        id=f"exceptional-tensor/{slot}",
        key=f"{slot}/{variant}",
        input=sha(canonical([cls, docx, docy])),
        execute=execute,
        report=report,
        check=check,
    )


# -- dihedral-cones: levelwise homology, cones, sums and the constant adjunction ---

DIH_SLOTS = 360
DIH_INDICES = (3, 4, 5)


def qw_complex(rng: random.Random, degrees=range(0, 4)):
    """A complex of Q[W]-spaces; each differential factors through the kernel
    of the one below, so d squared vanishes by construction.  Returns (its
    dimensions and blocks as text, the QWComplex)."""
    dims = {g: (rng.randint(0, 2), rng.randint(0, 2)) for g in degrees}
    dims = {g: pm for g, pm in dims.items() if any(pm)}

    def dim(g, s):
        return dims.get(g, (0, 0))[0 if s == 1 else 1]

    blocks, prev_kernel = {}, {}
    for g in sorted(dims):
        for s in (1, -1):
            rows, cols = dim(g - 1, s), dim(g, s)
            if not (rows and cols):
                prev_kernel[s] = None
                continue
            mat = [[Q(rng.randint(-1, 1)) for _ in range(cols)] for _ in range(rows)]
            k = prev_kernel.get(s)
            if k is not None:
                free = len(k[0])
                coef = [[Q(rng.randint(-1, 1)) for _ in range(cols)] for _ in range(free)]
                mat = mat_mul(k, coef, cols)
            if any(v != 0 for row in mat for v in row):
                blocks[(g, s)] = mat
            prev_kernel[s] = mat_kernel(mat, cols)
    doc = [sorted(dims.items()), [[g, s, text(m)] for (g, s), m in sorted(blocks.items())]]
    space = QWSpace(dims)
    engine_blocks = {(g, s): QMatrix(len(m), len(m[0]), m) for (g, s), m in blocks.items()}
    return doc, QWComplex(space, VMap(space, space, -1, engine_blocks))


def chain_object(rng: random.Random, summands: int):
    """Sum of `summands` slot inclusions of random complexes and a constant
    trivial-action complex.  Returns (its parts as text, the object)."""
    out, doc = zero_dihedral(), []
    for k in rng.sample(DIH_INDICES, summands):
        part, complex_ = qw_complex(rng)
        doc.append([k, part])
        out = direct_sum_dihedral(out, functor_i_k(complex_, k))
    trivial = {g: (rng.randint(0, 2), 0) for g in range(0, 3)}
    doc.append(["const", sorted(trivial.items())])
    return doc, direct_sum_dihedral(out, functor_const(QWComplex(QWSpace(trivial))))


def _level_homology(space: QWSpace, d: VMap) -> dict:
    """Dense nullity - rank per degree and sign: the oracle for homology_Ch."""
    out = {}
    for g in set(space.dims):
        pm = []
        for s in (1, -1):
            pm.append(space.dim(g, s) - d.block(g, s).rank() - d.block(g + 1, s).rank())
        if any(pm):
            out[g] = tuple(pm)
    return out


def dense_levels(m, keys) -> dict:
    levels = {"inf": _level_homology(m.m_inf, m.d_inf)}
    for key in keys:
        levels[str(key)] = _level_homology(m.slot(key), m.d_slot(key))
    return levels


def homology_levels(h) -> dict:
    levels = {"inf": dict(h.m_inf.dims)}
    for key in h.keys():
        levels[str(key)] = dict(h.slot(key).dims)
    return levels


def _sum_levels(a: dict, b: dict) -> dict:
    out = {}
    for level in a:
        dims = {}
        for part in (a[level], b[level]):
            for g, (p, m) in part.items():
                q, n = dims.get(g, (0, 0))
                dims[g] = (p + q, m + n)
        out[level] = dims
    return out


def dihedral_job(slot: int, variant: int, workdir: Path) -> Job:
    rng = random.Random(f"dihedral-cones/{slot}/{variant}")
    docx, x = chain_object(rng, 1 + slot % 2)
    docy, y = chain_object(rng, 1 + (slot // 2) % 2)

    def execute() -> Raw:
        try:
            ident = DihedralMorphism.identity(x)
            eps = counit_const(x)
            return Raw(0, "", {
                "hx": homology_Ch(x),
                "hcone": homology_Ch(cone(ident)),
                "hsum": homology_Ch(direct_sum_dihedral(x, y)),
                "fixed": germ_fixed_points(x),
                "counit": eps,
                "weq_id": is_weak_equivalence(ident),
                "weq_counit": is_weak_equivalence(eps),
            })
        except Exception as exc:
            return Raw(exit_code_of(exc), f"{type(exc).__name__}: {exc}")

    def report(raw: Raw) -> bytes:
        v = raw.value
        eps = v["counit"]
        return canonical({
            "hx": cli.dihedral_to_json(v["hx"]),
            "hcone": cli.dihedral_to_json(v["hcone"]),
            "hsum": cli.dihedral_to_json(v["hsum"]),
            "fixed": [cli.space_to_json(v["fixed"].space), cli.vmap_to_json(v["fixed"].d)],
            "counit": [cli.vmap_to_json(eps.f_inf)]
            + [[str(k), cli.vmap_to_json(f)] for k, f in sorted(eps.f_slots.items(), key=str)],
            "weq": [v["weq_id"], v["weq_counit"]],
        })

    def check(raw: Raw) -> list[str]:
        v = raw.value
        problems = []
        if homology_levels(v["hx"]) != dense_levels(x, x.keys()):
            problems.append("levelwise homology differs from nullity - rank")
        if any(homology_levels(v["hcone"]).values()):
            problems.append("the cone of the identity is not acyclic")
        keys = v["hsum"].keys()
        if homology_levels(v["hsum"]) != _sum_levels(dense_levels(x, keys), dense_levels(y, keys)):
            problems.append("homology of a direct sum is not the sum of homologies")
        if not v["weq_id"]:
            problems.append("the identity is not a weak equivalence")
        return problems

    return Job(
        id=f"dihedral-cones/{slot}",
        key=f"{slot}/{variant}",
        input=sha(canonical([docx, docy])),
        execute=execute,
        report=report,
        check=check,
    )


# -- fixtures-cli: every engine verb on the frozen objects -------------------------

FIXTURES = sorted(p.name for p in FIXTURE_DIR.glob("*.json"))
FIX_WINDOWS = ("-2:2", "-3:1", "-1:3")
FIX_PAIRS = 14  # ext and hom calls per pass
FIX_BURNSIDE = 8  # burnside and restrict calls per pass
BURNSIDE_NAMES = {
    "SO3": ("e_T", "e_D", "e_E", "e_SO3", "e_Sigma4", "e_A4", "e_A5", "e_D4",
            "e_D2n3", "e_D2n4", "e_D2n5", "e_D2n6", "1", "0"),
    "O2": ("e_T", "e_D", "e_D2n1", "e_D2n2", "e_D2n3", "e_D2n4", "1", "0"),
}


def _fixture_slots():
    """The fixed verb schedule: (verb, slot) pairs for one pass."""
    slots = [("selftest", 0), ("fixtures", 0)]
    for verb in ("star-check", "resolve", "homology", "split"):
        slots += [(verb, i) for i in range(len(FIXTURES))]
    slots += [("ext", i) for i in range(FIX_PAIRS)]
    slots += [("hom", i) for i in range(FIX_PAIRS)]
    slots += [("burnside", i) for i in range(FIX_BURNSIDE)]
    slots += [("restrict", i) for i in range(FIX_BURNSIDE)]
    return slots


FIX_SLOTS = _fixture_slots()


def burnside_expression(rng: random.Random, group: str) -> str:
    names = BURNSIDE_NAMES[group]
    terms = [" * ".join(rng.choice(names) for _ in range(rng.randint(1, 2)))
             for _ in range(rng.randint(1, 3))]
    return " + ".join(terms)


def fixtures_job(slot: int, variant: int, workdir: Path) -> Job:
    verb, i = FIX_SLOTS[slot]
    rng = random.Random(f"fixtures-cli/{slot}/{variant}")
    # relative paths: `star-check` reports echo their file argument, so an
    # absolute path would make those reports differ between checkouts
    fixture = [os.path.relpath(FIXTURE_DIR / name) for name in FIXTURES]
    out = workdir / f"out-{verb}.json"
    if verb in ("selftest", "fixtures"):
        argv = [verb]
    elif verb in ("ext", "hom"):
        a, b = rng.randrange(len(fixture)), rng.randrange(len(fixture))
        argv = [verb, fixture[a], fixture[b], f"--window={rng.choice(FIX_WINDOWS)}"]
    elif verb == "burnside":
        group = rng.choice(("SO3", "O2"))
        argv = [verb, *burnside_expression(rng, group).split(), "--group", group]
    elif verb == "restrict":
        elem = cli.evaluate_burnside(burnside_expression(rng, "SO3"), "SO3")
        path = workdir / f"burnside{slot}.json"
        path.write_text(json.dumps(burnside.to_json(elem), sort_keys=True))
        argv = [verb, str(path)]
    else:
        argv = [verb, fixture[i]]
    def check(raw: Raw) -> list[str]:
        doc = json.loads(raw.value)
        if verb == "resolve" and doc.get("exact") is not True:
            return ["resolve report is not exact"]
        if verb in ("selftest", "fixtures", "star-check") and any(
            r.get("status") != "PASS" for r in doc.get("results", [])
        ):
            return [f"{verb} reports a check that did not pass"]
        return []

    return Job(
        id=f"fixtures-cli/{slot}:{verb}",
        key=f"{slot}/{variant}",
        input=cli_input(argv),
        execute=lambda: call_cli(argv, out),
        report=cli_report,
        check=check,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    slots: int
    make_job: object  # (slot, variant, workdir) -> Job
    block: int  # period of the slots' shape pattern; a timed run ends on a block boundary
    trace_jobs: int  # the traced run's jobs: a prefix that holds every shape


WORKLOADS = {
    w.name: w
    for w in (
        Workload("toral-ext", TORAL_SLOTS, toral_ext_job, len(TORAL_SHAPES), 105),
        Workload("exceptional-tensor", EXC_SLOTS, exceptional_job,
                 math.lcm(len(EXC_CLASSES), len(EXC_DIMS)), 48),
        Workload("dihedral-cones", DIH_SLOTS, dihedral_job, 4, 180),
        Workload("fixtures-cli", len(FIX_SLOTS), fixtures_job, len(FIX_SLOTS), len(FIX_SLOTS)),
    )
}
for _w in WORKLOADS.values():
    assert _w.slots % _w.block == 0, _w.name
    assert _w.slots >= 100, _w.name  # p90 is over the jobs: ten must lie beyond it


def variants_for(seed: int, slots: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(VARIANTS) for _ in range(slots)]


def make_jobs(workload: Workload, seed: int, workdir: Path) -> list[Job]:
    """The seed's inputs: one generated variant per slot, in slot order."""
    workdir.mkdir(parents=True, exist_ok=True)
    return [
        workload.make_job(slot, variant, workdir)
        for slot, variant in enumerate(variants_for(seed, workload.slots))
    ]
