"""Complexes are checked where data enters, and not again where they are used.

The benchmark's own job sets build their inputs through the checked
constructors; executing a job (tensor, hom, homology, cones, sums, the
constant adjunction and the weak-equivalence predicate) must then make no
``check_differential`` call at all.  The jobs are the traced prefix of the
seed-1 job set of each workload, which holds every shape of its inputs.
"""

import sys
from pathlib import Path

import pytest

from so3alg.dihedral import DihedralObject, QWComplex
from so3alg.exceptional import GroupComplex, weyl_group_of
from so3alg.toral import QWSpace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (the benchmark's job generators)


def traced_prefix(name: str, seed: int, workdir: Path):
    w = workloads.WORKLOADS[name]
    variants = workloads.variants_for(seed, w.slots)[: w.trace_jobs]
    return [w.make_job(slot, variant, workdir) for slot, variant in enumerate(variants)]


@pytest.mark.parametrize("name", ["dihedral-cones", "exceptional-tensor"])
def test_jobs_make_no_differential_check(name, tmp_path, monkeypatch):
    jobs = traced_prefix(name, 1, tmp_path)
    calls = []
    for cls in (DihedralObject, QWComplex, GroupComplex):
        check = cls.check_differential

        def counted(self, check=check):
            calls.append(type(self).__name__)
            return check(self)

        monkeypatch.setattr(cls, "check_differential", counted)
    for job in jobs:
        raw = job.execute()
        assert raw.code == 0, raw.message
        assert job.check(raw) == []
    assert calls == []
    # the spies see a check where data enters
    if name == "dihedral-cones":
        QWComplex(QWSpace({0: (1, 0)}))
    else:
        GroupComplex(weyl_group_of("SO3"), {})
    assert len(calls) == 1
