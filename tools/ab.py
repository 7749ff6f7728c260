#!/usr/bin/env python3
"""A/B comparison of a parent commit and the working tree on the benchmark.

    python3 tools/ab.py --parent HEAD~1 --pairs 10 --workload dihedral-cones --seed 1 --out ab.json

Run from anywhere inside a git checkout; only the standard library and a
local ``git`` are used.  The committed files of ``--parent`` are unpacked
into a temporary directory (``git archive``, so the repository's ``.git`` is
left as it was), and ``perfbench/run.py`` runs on both sides: the parent
copy and this checkout, each from its own ``src/``.  For each workload and
seed, ``--pairs`` pairs run one after the other, the side that runs first
alternating (the parent first in even pairs).  Then each side makes
``TRACED_RUNS`` traced runs (``--trace 1``), the sides alternating, whose
per-layer metrics and per-span call counts and self times are kept, with
their medians: a single traced pass is too noisy to show which way a span
moved.  The temporary copy is removed at the end.

The output is one JSON object with a fixed schema: ``runs`` holds every
timed run made, with its end-to-end metrics, ``correct``,
``attempted``, ``failed`` and ``executions`` (the job executions of the run,
beside which ``peak_rss_mb`` is read); ``summary`` holds, per workload and
seed and per end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the change's wins, ``change_worse_by`` against that metric's
bound, ``unresolved`` when the medians differ by no more than the parent's
quartile spread, and ``gain`` when the change wins at least nine tenths of
the pairs and is better by more than that spread; ``order_effect`` holds,
per workload and seed and per end-to-end metric, whichever side ran first,
the median over pairs of (second run - first run) / first run and how many
pairs read worse on the second run; ``traced`` holds, per workload, seed
and side, the traced runs and the median of each per-layer metric and of
each span's calls and self seconds over them;
``tier1`` holds, per side, the wall seconds of one Tier-1 run (the test
suite, run as ``TIER1`` from that side's root after its benchmark runs) and
the passed, failed and error counts of pytest's summary line.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"
SIDES = ("parent", "change")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
TRACED_RUNS = 3


def unpack(rev: str, dest: Path) -> str:
    """The committed files of rev, written under dest; returns its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def head_commit() -> str:
    """The commit the working tree is checked out at."""
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(info, result): the last two lines ``perfbench/run.py`` prints."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    info, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return info, result


def timed_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    info, result = bench(root, workload, seed, seconds, 0)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "executions": info["executions"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def traced_run(root: Path, workload: str, seed: int) -> dict:
    """Per-layer metrics of one traced run, and the calls and self seconds of
    every span name in its spans file (``linalg.rank`` among them)."""
    info, result = bench(root, workload, seed, 0, 1)
    spans = [json.loads(line) for line in (root / info["spans_file"]).read_text().splitlines()]
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _job in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, self_s = Counter(), Counter()
    for (name, start, end, _parent, _job), c in zip(spans, covered):
        calls[name] += 1
        self_s[name] += end - start - c
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "spans": {name: {"calls": calls[name], "self_s": self_s[name]} for name in sorted(calls)},
    }


def traced_medians(runs: list[dict]) -> dict:
    """The median over traced runs of each per-layer metric and of each
    span's calls and self seconds; a run without a span reads 0 for it."""
    metrics = sorted({name for r in runs for name in r["metrics"]})
    spans = sorted({name for r in runs for name in r["spans"]})
    return {
        "metrics": {name: statistics.median(r["metrics"].get(name, 0) for r in runs) for name in metrics},
        "spans": {
            name: {key: statistics.median(r["spans"].get(name, {}).get(key, 0) for r in runs)
                   for key in ("calls", "self_s")}
            for name in spans
        },
    }


def pytest_counts(output: str) -> dict:
    """The passed, failed and error counts of pytest's summary line, the
    last line of its output that reads " in <seconds>s"."""
    line = next((ln for ln in reversed(output.splitlines()) if re.search(r" in [0-9.]+s\b", ln)), "")
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", line)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0)}


def tier1(root: Path) -> dict:
    """Wall seconds and pytest counts of one Tier-1 run in root, with root's
    ``src/`` first on the import path."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, *TIER1], cwd=root, env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True)
    return {"seconds": time.perf_counter() - start, **pytest_counts(out.stdout)}


def quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile (``statistics.quantiles``,
    n=4); a single value is all three."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per "<workload> seed <seed>" and per end-to-end metric: each side's
    median and quartiles over its runs, how many pairs the change read better
    (ties count for neither), by what fraction its median is worse than the
    parent's (negative when better) against the metric's bound, and the
    verdicts ``unresolved``, ``exceeds_bound`` and ``gain``."""
    groups: dict[str, dict[str, dict[int, dict]]] = {}
    for r in runs:
        key = f"{r['workload']} seed {r['seed']}"
        groups.setdefault(key, {side: {} for side in SIDES})[r["side"]][r["pair"]] = r["metrics"]
    out = {}
    for key, sides in groups.items():
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        table = {}
        for spec in end_to_end:
            name, higher = spec["name"], spec["better"] == "higher"
            values = {side: [sides[side][p][name] for p in pairs] for side in SIDES}
            pq, cq = quartiles(values["parent"]), quartiles(values["change"])
            parent_iqr = pq[2] - pq[0]
            sign = 1 if higher else -1
            wins = sum(1 for a, b in zip(values["parent"], values["change"]) if sign * (b - a) > 0)
            better_by = sign * (cq[1] - pq[1])
            worse_by = -better_by / pq[1] if pq[1] else 0.0
            table[name] = {
                "parent": values["parent"],
                "change": values["change"],
                "parent_median": pq[1],
                "change_median": cq[1],
                "parent_quartiles": [pq[0], pq[2]],
                "change_quartiles": [cq[0], cq[2]],
                "parent_iqr": parent_iqr,
                "change_wins": wins,
                "pairs": len(pairs),
                "change_worse_by": worse_by,
                "bound": spec["bound"],
                "exceeds_bound": worse_by > spec["bound"],
                "unresolved": abs(cq[1] - pq[1]) <= parent_iqr,
                "gain": 10 * wins >= 9 * len(pairs) > 0 and better_by > parent_iqr,
            }
        out[key] = table
    return out


def order_effect(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per "<workload> seed <seed>" and per end-to-end metric, by each run's
    ``position`` in its pair and whichever side it is: the median over pairs
    of (second - first) / first (None when no pair has a nonzero first run),
    how many pairs read worse on the second run (ties count for neither),
    and the number of pairs with both runs."""
    groups: dict[str, dict[int, dict[int, dict]]] = {}
    for r in runs:
        key = f"{r['workload']} seed {r['seed']}"
        groups.setdefault(key, {}).setdefault(r["pair"], {})[r["position"]] = r["metrics"]
    out = {}
    for key, pairs in groups.items():
        both = [(p[0], p[1]) for _, p in sorted(pairs.items()) if set(p) == {0, 1}]
        table = {}
        for spec in end_to_end:
            name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
            steps = [(second[name] - first[name]) / first[name] for first, second in both if first[name]]
            table[name] = {
                "second_vs_first_median": statistics.median(steps) if steps else None,
                "second_worse": sum(1 for first, second in both if sign * (second[name] - first[name]) < 0),
                "pairs": len(both),
            }
        out[key] = table
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run (repeatable); every workload when absent")
    parser.add_argument("--seed", type=int, action="append", help="repeatable; 1 when absent")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads, seeds = args.workload or names, args.seed or [1]
    tmp = Path(tempfile.mkdtemp(prefix="ab-parent-"))
    try:
        parent = unpack(args.parent, tmp)
        roots = {"parent": tmp, "change": ROOT}
        runs, traced = [], []
        for workload in workloads:
            for seed in seeds:
                for pair in range(args.pairs):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    for position, side in enumerate(order):
                        run = timed_run(roots[side], workload, seed, args.seconds)
                        runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                                     "position": position, **run})
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"{run['metrics']['throughput_jobs_per_s']:.2f} jobs/s", file=sys.stderr)
                kept = {side: [] for side in SIDES}
                for i in range(TRACED_RUNS):
                    for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                        kept[side].append(traced_run(roots[side], workload, seed))
                for side in SIDES:
                    traced.append({"workload": workload, "seed": seed, "side": side,
                                   "runs": kept[side], "median": traced_medians(kept[side])})
        tests = {side: tier1(roots[side]) for side in SIDES}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report = {
        "parent_commit": parent,
        "change": f"working tree at {head_commit()}",
        "command": [str(RUN), "--seconds", args.seconds, "--trace", 0],
        "pairs": args.pairs,
        "runs": runs,
        "summary": summarize(runs, spec["end_to_end"]),
        "order_effect": order_effect(runs, spec["end_to_end"]),
        "traced": traced,
        "tier1": tests,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
