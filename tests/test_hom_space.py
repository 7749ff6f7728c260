"""HomSpace and Ext by rank against the composition oracles, and what
``engine hom`` and ``engine ext`` eliminate.

``hom_oracle.HomSpace`` composes one map per unknown and reduces the whole
system; ``toral.HomSpace`` reads the same equations off the structure maps
and counts ``dim`` by forward elimination.  Both must give the same
unknowns, dimensions and kernel bases on objects drawn the way the
benchmark draws its toral objects, on both sides.  ``hom_oracle.ext_A``
composes each basis morphism with the resolution's projections;
``toral.ext_A`` ranks post-composition, and both must give the same tables
or raise the same class of error.
"""

import json
import random
import sys
from pathlib import Path

import pytest

import so3alg
from so3alg import cli, toral
from so3alg.cli import main
from so3alg.errors import EngineError, InvariantError
from so3alg.graded import FREE, LAURENT, POLY_C, TORSION, GradedModule, Summand
from so3alg.linalg import QMatrix
from so3alg.toral import (
    HomSpace,
    QWSpace,
    SlotFamily,
    direct_sum_objects,
    functor_F,
    make_eV,
    make_fN,
    suspend_object,
)

import hom_oracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  the benchmark's seeded toral objects


def _o2_part(rng):
    """An O2-side summand: f(N) on dihedral slots, e(V), or the base change
    of a benchmark part."""
    kind = rng.choice(("fN", "eV", "F"))
    if kind == "fN":
        explicit = {
            n: GradedModule(POLY_C, [
                Summand(TORSION, rng.randint(-4, 4), rng.choice((1, -1)), rng.randint(1, 3))
                for _ in range(rng.randint(1, 2))
            ])
            for n in rng.sample(range(1, 6), rng.randint(1, 2))
        }
        return make_fN(SlotFamily("O2", explicit, GradedModule.zero(POLY_C)))
    if kind == "eV":
        degrees = rng.sample(range(-3, 4), rng.randint(1, 2))
        return make_eV(QWSpace({g: rng.choice(((1, 0), (0, 1), (1, 1))) for g in degrees}), "O2")
    return functor_F(workloads.toral_object(rng, rng.choice(workloads.TORAL_SHAPES)))


def seeded_pairs(seed=29, count=160):
    """Same-side pairs: the benchmark's SO3 shapes as x and y, and sums of
    one or two O2 parts, each suspended by -3..3."""
    rng = random.Random(seed)
    pairs = []
    for k in range(count):
        if k % 2:
            x, y = (
                workloads.toral_object(rng, rng.choice(workloads.TORAL_SHAPES)) for _ in range(2)
            )
        else:
            x, y = (
                direct_sum_objects(*[_o2_part(rng) for _ in range(2)])
                if rng.random() < 0.5 else _o2_part(rng)
                for _ in range(2)
            )
        pairs.append((suspend_object(x, rng.randint(-3, 3)), y))
    return pairs


def _kinds(x):
    return {s.kind for m in x.all_modules() for s in m.summands}


def test_hom_spaces_match_the_one_system_oracle():
    seen = {"sides": set(), "kinds": set(), "V": 0, "torus": 0, "equations": 0, "both": 0}
    for x, y in seeded_pairs():
        seen["sides"].add(x.side)
        seen["kinds"] |= _kinds(x) | _kinds(y)
        seen["V"] += bool(x.V.dims and y.V.dims)
        seen["torus"] += x.side == "SO3" and not (x.M[1].is_zero() or y.M[1].is_zero())
        for t in range(-3, 4):
            h, old = HomSpace(x, y, t), hom_oracle.HomSpace(x, y, t)
            assert h.unknowns == old.unknowns, (x, y, t)
            # dim by rank, read before any basis is
            assert h.dim == old.dim, (x, y, t)
            assert hom_oracle.system_kernel(h) == old.basis_mat, (x, y, t)
            seen["equations"] += h.dim < len(h.unknowns)
            seen["both"] += 0 < h.dim < len(h.unknowns)
    assert seen["sides"] == {"SO3", "O2"}
    assert seen["kinds"] == {FREE, TORSION, LAURENT}
    assert seen["V"] >= 60 and seen["torus"] >= 10, seen
    assert seen["equations"] >= 200 and seen["both"] >= 80, seen


def _count_eliminations(monkeypatch):
    counts = {"rref": 0, "kernel_basis": 0, "rank": 0, "solve": 0}
    for name in counts:
        method = getattr(QMatrix, name)

        def spied(m, *args, method=method, name=name):
            counts[name] += 1
            return method(m, *args)

        monkeypatch.setattr(QMatrix, name, spied)
    return counts


def test_engine_hom_reduces_no_system_on_the_fixtures(monkeypatch, capsys):
    # a dimension is a rank: hom builds no kernel basis
    files = sorted((Path(so3alg.__file__).parent / "data").glob("*.json"))
    sides = {p: cli.load_toral(str(p)).side for p in files}
    counts = _count_eliminations(monkeypatch)
    pairs = [(a, b) for a in files for b in files if sides[a] == sides[b]]
    for a, b in pairs:
        assert main(["hom", str(a), str(b)]) == 0
    capsys.readouterr()
    assert len(pairs) == 196
    assert counts["rref"] == counts["kernel_basis"] == 0, counts
    assert counts["rank"] > 0


def test_engine_ext_reduces_no_kernel_basis_on_the_fixtures(monkeypatch, capsys):
    # post-composition is ranked, not solved for in a basis of Hom(x, Y0)
    files = sorted((Path(so3alg.__file__).parent / "data").glob("*.json"))
    sides = {p: cli.load_toral(str(p)).side for p in files}
    counts = _count_eliminations(monkeypatch)
    pairs = [(a, b) for a in files for b in files if sides[a] == sides[b]]
    for a, b in pairs:
        assert main(["ext", str(a), str(b)]) == 0
    capsys.readouterr()
    assert len(pairs) == 196
    assert counts["kernel_basis"] == counts["solve"] == 0, counts
    assert counts["rank"] > 0


def toral_ext_pair(seed: int, slot: int):
    """The (x, y) of a ``toral-ext`` job of the benchmark, drawn as
    ``workloads.toral_ext_job`` draws them."""
    variant = workloads.variants_for(seed, workloads.TORAL_SLOTS)[slot]
    rng = random.Random(f"toral-ext/{slot}/{variant}")
    xs, ys = workloads.toral_shapes(slot)
    return workloads.toral_object(rng, xs), workloads.toral_object(rng, ys)


def _ext_outcome(ext, x, y):
    """ext's table on degrees -3..3, or the class of the engine error it
    raises."""
    try:
        return ext(x, y, range(-3, 4), (-3, 3))
    except EngineError as exc:
        return type(exc)


def test_ext_by_ranks_matches_the_composition_oracle(monkeypatch):
    files = sorted((Path(so3alg.__file__).parent / "data").glob("*.json"))
    fixtures = [cli.load_toral(str(p)) for p in files]
    pairs = seeded_pairs() + [toral_ext_pair(1, 33)] + [
        (x, y) for x in fixtures for y in fixtures if x.side == y.side
    ]
    # per degree evaluation: whether post-composition reached a refused entry
    evaluations = []
    post = toral._post_composition

    def spied(h0, quot):
        allowed, refused = post(h0, quot)
        evaluations.append(bool(refused))
        return allowed, refused

    monkeypatch.setattr(toral, "_post_composition", spied)
    seen = {"tables": 0, "raised": 0, "fired": 0, "vanished": 0, "laurent": 0}
    for x, y in pairs:
        evaluations.clear()
        old = _ext_outcome(hom_oracle.ext_A, x, y)
        new = _ext_outcome(toral.ext_A, x, y)
        assert new == old, (x, y)
        seen["tables" if isinstance(old, dict) else "raised"] += 1
        seen["laurent"] += LAURENT in _kinds(x)
        # a refusal ends the call in the evaluation that reached it; every
        # other evaluation with refused entries dropped them
        fired = not isinstance(old, dict) and evaluations[-1:] == [True]
        seen["fired"] += fired
        seen["vanished"] += sum(evaluations) - fired
    assert seen["tables"] >= 300 and seen["raised"] >= 1 and seen["laurent"] >= 40, seen
    assert seen["fired"] >= 1 and seen["vanished"] >= 1, seen


def test_ext_refuses_a_laurent_source_where_a_morphism_reaches_it():
    # the first refused job of the benchmark at seed 1
    x, y = toral_ext_pair(1, 33)
    assert LAURENT in _kinds(x)
    with pytest.raises(InvariantError, match="Laurent source cannot map to a bounded target"):
        toral.ext_A(x, y, range(-2, 3), (-2, 2))


def edge_document(slots: int) -> dict:
    """An O2 object inside every input budget: each of the listed slots holds
    16 torsion summands of the largest length, and V = 0."""
    mod = GradedModule(POLY_C, [Summand(TORSION, 0, 1, cli.MAX_TORSION_LENGTH)] * cli.MAX_SUMMANDS)
    fam = SlotFamily("O2", {k: mod for k in range(1, slots + 1)}, GradedModule.zero(POLY_C))
    return cli.toral_to_json(make_fN(fam))


def test_hom_on_the_budget_edge_runs_no_elimination(tmp_path, monkeypatch, capsys):
    # V = 0 gives no equations, so each dimension is the number of unknowns
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(edge_document(8)))
    counts = _count_eliminations(monkeypatch)
    out = tmp_path / "hom.json"
    assert main(["hom", str(path), str(path), "--window=0:0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert counts == {"rref": 0, "kernel_basis": 0, "rank": 0, "solve": 0}
    # 8 slots of 16 x 16 entries of degree 0, each an endomorphism of Q[c]/c^64
    assert json.loads(out.read_text())["dims"] == {"0": 8 * 16 * 16}


def test_ext_on_the_budget_edge_reduces_no_kernel_basis(tmp_path, monkeypatch, capsys):
    # Hom(x, Y0) has no equations and post-composition is ranked: no basis
    # morphism is built, so no kernel basis is reduced and nothing is solved
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(edge_document(8)))
    counts = _count_eliminations(monkeypatch)
    out = tmp_path / "ext.json"
    assert main(["ext", str(path), str(path), "--window=0:4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert counts["kernel_basis"] == counts["solve"] == 0, counts
    # 8 slots of 16 x 16 entries, each of Q[c]/c^64 into Q[c]/c^64
    full = 8 * 16 * 16
    dims = {str(t): {"hom": 0, "ext": 0} for t in range(5)}
    dims["0"]["hom"] = dims["4"]["ext"] = full
    assert json.loads(out.read_text())["dims"] == dims
