"""HomSpace by rank against the one-system oracle, and what ``engine hom``
eliminates.

``hom_oracle.HomSpace`` composes one map per unknown and reduces the whole
system; ``toral.HomSpace`` reads the same equations off the structure maps,
counts ``dim`` by forward elimination and reduces only where a basis is
read.  Both must give the same unknowns, dimensions, bases and coordinates
on objects drawn the way the benchmark draws its toral objects, on both
sides.
"""

import json
import random
import sys
from pathlib import Path

import so3alg
from so3alg import cli
from so3alg.cli import main
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
            assert h.basis_mat == old.basis_mat, (x, y, t)
            for k in range(old.dim):
                assert h.coords_of(old.basis_morphism(k)) == old.coords_of(old.basis_morphism(k))
            seen["equations"] += h.dim < len(h.unknowns)
            seen["both"] += 0 < h.dim < len(h.unknowns)
    assert seen["sides"] == {"SO3", "O2"}
    assert seen["kinds"] == {FREE, TORSION, LAURENT}
    assert seen["V"] >= 60 and seen["torus"] >= 10, seen
    assert seen["equations"] >= 200 and seen["both"] >= 80, seen


def _count_eliminations(monkeypatch):
    counts = {"rref": 0, "kernel_basis": 0, "rank": 0}
    for name in counts:
        method = getattr(QMatrix, name)

        def spied(m, method=method, name=name):
            counts[name] += 1
            return method(m)

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
    assert counts == {"rref": 0, "kernel_basis": 0, "rank": 0}
    # 8 slots of 16 x 16 entries of degree 0, each an endomorphism of Q[c]/c^64
    assert json.loads(out.read_text())["dims"] == {"0": 8 * 16 * 16}
