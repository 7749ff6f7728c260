"""The summary arithmetic of the A/B driver ``tools/ab.py``, on synthetic runs."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = [
    {"name": "throughput_jobs_per_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.1},
]


def synthetic(workload, seed, parent, change):
    """Runs of both sides, pair by pair: parent and change are lists of
    (throughput, p50) per pair."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, (t, lat) in (("parent", p), ("change", c)):
            runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                         "metrics": {"throughput_jobs_per_s": t, "latency_p50_ms": lat}})
    return runs


def test_a_clear_gain_is_claimed():
    parent = [(100 + k, 10.0) for k in range(10)]
    change = [(120 + k, 9.0) for k in range(10)]
    change[3] = (90, 11.0)  # one pair lost: 9 of 10 still claims
    out = ab.summarize(synthetic("w", 1, parent, change), END_TO_END)["w seed 1"]
    t = out["throughput_jobs_per_s"]
    assert t["parent"] == [p for p, _ in parent] and t["change"] == [c for c, _ in change]
    assert t["parent_median"] == statistics.median(range(100, 110)) == 104.5
    assert t["change_median"] == statistics.median([c for c, _ in change])
    lo, _, hi = statistics.quantiles(range(100, 110), n=4)
    assert t["parent_quartiles"] == [lo, hi] and t["parent_iqr"] == hi - lo
    assert (t["change_wins"], t["pairs"]) == (9, 10)
    assert t["change_worse_by"] == pytest.approx((104.5 - t["change_median"]) / 104.5)
    assert t["change_worse_by"] < 0
    assert t["gain"] and not t["unresolved"] and not t["exceeds_bound"]
    # lower is better: the change's 9.0 against the parent's 10.0 is 10% better
    lat = out["latency_p50_ms"]
    assert (lat["parent_median"], lat["change_median"]) == (10.0, 9.0)
    assert lat["change_worse_by"] == pytest.approx(-0.1)
    assert lat["change_wins"] == 9
    # the parent's quartile spread is 0, so 9 of 10 and any gain claims
    assert lat["parent_iqr"] == 0 and lat["gain"]


def test_eight_wins_in_ten_or_a_gain_inside_the_spread_is_no_claim():
    parent = [(100 + 10 * (k % 2), 10.0) for k in range(10)]  # quartiles 100 and 110
    change = [(p + 1, 10.0) for p, _ in parent]
    out = ab.summarize(synthetic("w", 2, parent, change), END_TO_END)["w seed 2"]
    t = out["throughput_jobs_per_s"]
    assert t["change_wins"] == 10 and t["parent_iqr"] == 10
    assert t["unresolved"] and not t["gain"]
    # ties count for neither side
    lat = out["latency_p50_ms"]
    assert lat["change_wins"] == 0 and lat["change_worse_by"] == 0
    assert lat["unresolved"] and not lat["gain"]
    change = [(p + 20, 10.0) for p, _ in parent]
    change[0] = change[1] = (50, 10.0)
    t = ab.summarize(synthetic("w", 2, parent, change), END_TO_END)["w seed 2"]["throughput_jobs_per_s"]
    assert t["change_wins"] == 8 and not t["gain"]


def test_a_regression_past_the_bound_is_flagged_per_workload_and_seed():
    parent = [(100.0, 10.0)] * 5
    runs = synthetic("a", 1, parent, [(70.0, 10.5)] * 5) + synthetic("a", 2, parent, [(80.0, 12.0)] * 5)
    out = ab.summarize(runs, END_TO_END)
    assert sorted(out) == ["a seed 1", "a seed 2"]
    one, two = out["a seed 1"], out["a seed 2"]
    assert one["throughput_jobs_per_s"]["change_worse_by"] == pytest.approx(0.3)
    assert one["throughput_jobs_per_s"]["exceeds_bound"]
    assert one["latency_p50_ms"]["change_worse_by"] == pytest.approx(0.05)
    assert not one["latency_p50_ms"]["exceeds_bound"]
    assert two["throughput_jobs_per_s"]["change_worse_by"] == pytest.approx(0.2)
    assert not two["throughput_jobs_per_s"]["exceeds_bound"]
    assert two["latency_p50_ms"]["exceeds_bound"]  # 20% against a 10% bound
    assert not any(m["gain"] for table in out.values() for m in table.values())


def test_a_pair_with_one_side_missing_is_left_out():
    runs = synthetic("w", 1, [(100.0, 10.0)] * 3, [(110.0, 9.0)] * 3)
    runs.append({"workload": "w", "seed": 1, "pair": 3, "side": "parent",
                 "metrics": {"throughput_jobs_per_s": 1.0, "latency_p50_ms": 99.0}})
    t = ab.summarize(runs, END_TO_END)["w seed 1"]["throughput_jobs_per_s"]
    assert t["pairs"] == 3 and t["parent"] == [100.0] * 3
    assert ab.quartiles([5.0]) == [5.0, 5.0, 5.0]


def ordered(workload, seed, firsts, seconds):
    """Runs by position alone: pair k's first run reads firsts[k] and its
    second seconds[k], as (throughput, p50), the sides alternating."""
    runs = []
    for pair, readings in enumerate(zip(firsts, seconds)):
        sides = ab.SIDES if pair % 2 == 0 else ab.SIDES[::-1]
        for position, (side, (t, lat)) in enumerate(zip(sides, readings)):
            runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side, "position": position,
                         "metrics": {"throughput_jobs_per_s": t, "latency_p50_ms": lat}})
    return runs


def test_the_order_effect_compares_second_runs_with_first_whatever_the_side():
    firsts = [(100.0, 10.0), (200.0, 10.0), (100.0, 20.0), (50.0, 10.0)]
    seconds = [(90.0, 11.0), (180.0, 10.0), (110.0, 18.0), (45.0, 12.0)]
    out = ab.order_effect(ordered("w", 1, firsts, seconds), END_TO_END)
    assert list(out) == ["w seed 1"]
    t, lat = out["w seed 1"]["throughput_jobs_per_s"], out["w seed 1"]["latency_p50_ms"]
    # throughput steps -0.1, -0.1, +0.1, -0.1; higher is better
    assert t["second_vs_first_median"] == pytest.approx(-0.1)
    assert (t["second_worse"], t["pairs"]) == (3, 4)
    # p50 steps +0.1, 0, -0.1, +0.2; lower is better and the tie counts for neither
    assert lat["second_vs_first_median"] == pytest.approx(0.05)
    assert (lat["second_worse"], lat["pairs"]) == (2, 4)


def test_the_order_effect_leaves_out_a_lone_run_and_keeps_workloads_and_seeds_apart():
    runs = ordered("a", 1, [(100.0, 10.0)] * 2, [(100.0, 10.0)] * 2)
    runs += ordered("a", 2, [(100.0, 10.0)] * 3, [(80.0, 10.0)] * 3)
    runs.append({"workload": "a", "seed": 1, "pair": 2, "side": "parent", "position": 0,
                 "metrics": {"throughput_jobs_per_s": 1.0, "latency_p50_ms": 0.0}})
    out = ab.order_effect(runs, END_TO_END)
    assert sorted(out) == ["a seed 1", "a seed 2"]
    one, two = out["a seed 1"]["throughput_jobs_per_s"], out["a seed 2"]["throughput_jobs_per_s"]
    assert one == {"second_vs_first_median": 0.0, "second_worse": 0, "pairs": 2}
    assert two["second_vs_first_median"] == pytest.approx(-0.2) and two["second_worse"] == 3
    # a pair whose first run reads 0 has no ratio, but still counts
    zero = ordered("z", 1, [(0.0, 0.0)], [(5.0, 1.0)])
    lat = ab.order_effect(zero, END_TO_END)["z seed 1"]["latency_p50_ms"]
    assert lat == {"second_vs_first_median": None, "second_worse": 1, "pairs": 1}


@pytest.mark.parametrize("output, counts", [
    ("....\n490 passed in 48.12s\n", {"passed": 490, "failed": 0, "errors": 0}),
    ("F.\nFAILED tests/test_x.py::test_y - assert 0\n2 failed, 488 passed, 1 warning, 3 errors in 61.07s (0:01:01)\n",
     {"passed": 488, "failed": 2, "errors": 3}),
    ("===== 1 failed, 1 error in 0.50s =====\n", {"passed": 0, "failed": 1, "errors": 1}),
    # the counts come from the summary line, not from a test's own output
    ("12 passed in a test's output\n3 passed in 0.10s\nwarning text after it\n",
     {"passed": 3, "failed": 0, "errors": 0}),
    ("", {"passed": 0, "failed": 0, "errors": 0}),
])
def test_pytest_counts_read_the_summary_line(output, counts):
    assert ab.pytest_counts(output) == counts


def test_tier1_runs_the_suite_once_in_the_side_root(monkeypatch, tmp_path):
    seen = []

    def fake_run(cmd, cwd, env, capture_output, text):
        seen.append((cmd, cwd, env["PYTHONPATH"]))
        return ab.subprocess.CompletedProcess(cmd, 1, stdout="..F\n1 failed, 2 passed in 0.20s\n", stderr="")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    out = ab.tier1(tmp_path)
    assert seen == [([ab.sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"], tmp_path,
                     "src" + ab.os.pathsep + "elsewhere")]
    assert (out["passed"], out["failed"], out["errors"]) == (2, 1, 0)
    assert isinstance(out["seconds"], float) and out["seconds"] >= 0


def traced(spans, metrics=None):
    """A traced run with planted (calls, self seconds) per span name."""
    return {"metrics": metrics or {}, "spans": {name: {"calls": c, "self_s": t} for name, (c, t) in spans.items()}}


def test_traced_runs_report_the_median_of_each_span():
    runs = [
        traced({"dihedral.homology_Ch": (10, 0.179), "linalg.rank": (6490, 0.03)}, {"trace.wall_s": 0.48}),
        traced({"dihedral.homology_Ch": (10, 0.128), "linalg.rank": (6500, 0.05)}, {"trace.wall_s": 0.29}),
        traced({"dihedral.homology_Ch": (12, 0.131), "cli.decode": (3, 0.5)}, {"trace.wall_s": 0.30}),
    ]
    out = ab.traced_medians(runs)
    # one slow pass does not move the median
    assert out["spans"]["dihedral.homology_Ch"] == {"calls": 10, "self_s": 0.131}
    assert out["metrics"] == {"trace.wall_s": 0.30}
    # a span a run lacks reads 0 there
    assert out["spans"]["linalg.rank"] == {"calls": 6490, "self_s": 0.03}
    assert out["spans"]["cli.decode"] == {"calls": 0, "self_s": 0}
    assert sorted(out["spans"]) == ["cli.decode", "dihedral.homology_Ch", "linalg.rank"]
    assert ab.TRACED_RUNS == 3


def test_each_side_keeps_every_traced_run(monkeypatch, tmp_path):
    order = []

    def fake_traced(root, workload, seed):
        order.append("change" if root == ab.ROOT else "parent")
        k = len(order)
        return traced({"s": (k, k / 10)}, {"m": k})

    monkeypatch.setattr(ab, "unpack", lambda rev, dest: "c0ffee")
    monkeypatch.setattr(ab, "head_commit", lambda: "decaf")
    monkeypatch.setattr(ab, "timed_run", lambda *a: {"metrics": {"throughput_jobs_per_s": 1.0}})
    monkeypatch.setattr(ab, "traced_run", fake_traced)
    monkeypatch.setattr(ab, "tier1", lambda root: {})
    monkeypatch.setattr(ab, "summarize", lambda runs, spec: {})
    monkeypatch.setattr(ab, "order_effect", lambda runs, spec: {})
    out = tmp_path / "ab.json"
    assert ab.main(["--parent", "HEAD", "--pairs", "1", "--workload", "dihedral-cones", "--out", str(out)]) == 0
    report = ab.json.loads(out.read_text())
    assert (report["parent_commit"], report["change"]) == ("c0ffee", "working tree at decaf")
    sides = {t["side"]: t for t in report["traced"]}
    # the sides alternate: parent, change, change, parent, parent, change
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert [r["metrics"]["m"] for r in sides["parent"]["runs"]] == [1, 4, 5]
    assert [r["metrics"]["m"] for r in sides["change"]["runs"]] == [2, 3, 6]
    assert sides["parent"]["median"] == {"metrics": {"m": 4}, "spans": {"s": {"calls": 4, "self_s": 0.4}}}
