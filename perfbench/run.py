#!/usr/bin/env python3
"""Benchmark of the so3alg engine on four seeded workloads.

    python3 perfbench/run.py --workload toral-ext --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The engine is imported from ``src/`` of
that checkout; without it the benchmark exits 2 and prints no result.

Each workload is a closed loop with one client in one thread: the next job
starts when the previous one has returned.  The loop cycles through the
seed's jobs until ``--seconds`` have passed, every job has run at least once,
at least ``MIN_SAMPLES`` jobs are done and the last block of the schedule is
complete.  Times are reported at reference speed: each wall time is scaled by
the machine speed that a fixed kernel measures around it (``calibrate.py``),
so that the machine's slow phases do not move the figures; the wall-clock
figures are printed beside them.  With ``--trace 1`` the run
instead runs each job of a fixed prefix twice, untraced and then traced, and
reports the per-layer metrics of the traced executions.  Every job's output is
checked (oracles and recorded digests, see ``workloads.py``).  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; ``attempted`` and ``failed`` count distinct jobs, so they
depend on the seed only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("toral-ext", "exceptional-tensor", "dihedral-cones", "fixtures-cli")

SETUP_REPEATS = 5  # cold set-ups timed per run: its own and the rest in fresh interpreters
WARMUP_JOBS = 3
MIN_SAMPLES = 100  # executions per run at least
CALIBRATE_EVERY_S = 0.1  # job time between two samples of the reference kernel
CALIBRATION_WINDOW = 10  # kernel samples on each side that scale a job's time

END_TO_END = {
    "throughput_jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def context(workload: str, seed: int, jobs: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "jobs_per_pass": jobs,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cold_setup_seconds(name: str, seed: int) -> float:
    """Wall time of a set-up in a fresh interpreter: the engine's import,
    input generation and warm-up, timed inside that interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def load_digests() -> dict:
    if not DIGESTS.is_file():
        return {"recorded_at": None, "digests": {}}
    return json.loads(DIGESTS.read_text())


class Run:
    """One workload's jobs, the executions made, and their verification."""

    def __init__(self, name: str, seed: int):
        import workloads

        self.workloads = workloads
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.workdir = WORK / f"{name}-{os.getpid()}"
        self.jobs = []
        self.records = []  # per execution: (job index, exit code, message, report digest or None)
        self.problems = {}  # job index -> oracle findings of its first success

    def setup(self):
        """Generate the inputs and warm up."""
        self.jobs = self.workloads.make_jobs(self.workload, self.seed, self.workdir)
        for job in self.jobs[:WARMUP_JOBS]:
            job.execute()

    def execute(self, i: int) -> float:
        """Run job i once and check its output; returns the latency in
        seconds, which covers the engine call only."""
        job = self.jobs[i]
        t = time.perf_counter()
        raw = job.execute()
        dt = time.perf_counter() - t
        digest = None
        if raw.code == 0:
            digest = self.workloads.sha(job.report(raw))
            if i not in self.problems:
                self.problems[i] = job.check(raw) if job.check else []
        self.records.append((i, raw.code, raw.message, digest))
        return dt

    def verify(self) -> dict:
        """Check every execution against the oracles and the digests.

        ``attempted`` and ``failed`` count distinct jobs, not executions, so
        that they do not depend on how many passes the machine's speed allowed.

        Every job any seed can draw was recorded, so a job without a record,
        or whose input hash differs from the recorded one, is a mismatch: the
        workload is then not the one the digests, and the baseline, measured.
        """
        recorded = load_digests()["digests"].get(self.workload.name, {})
        problems = {i: "; ".join(found) for i, found in self.problems.items() if found}
        seen = {}
        failed, failures, mismatches = set(), {}, 0
        for i, code, message, digest in self.records:
            job = self.jobs[i]
            want_input, _, want = recorded.get(job.key, "").partition(" ")
            bad = None
            if not want:
                bad = "no recorded digest for this job"
                mismatches += 1
            elif want_input != job.input:
                bad = "input differs from the recorded input"
                mismatches += 1
            elif code:
                bad = f"exit {code}: {message}"
                if not want.startswith("fail:"):
                    mismatches += 1
                    bad += " (succeeded when the digests were recorded)"
            elif i in problems:
                bad = f"oracle: {problems[i]}"
                mismatches += 1
            elif not want.startswith("fail:") and want != digest:
                bad = "report differs from the recorded digest"
                mismatches += 1
            if digest is not None and seen.setdefault(i, digest) != digest:
                bad = "report differs between executions of the same job"
                mismatches += 1
            if bad is not None:
                failed.add(i)
                entry = failures.setdefault(job.id, {"job": job.id, "exit_code": code,
                                                     "message": bad, "executions": 0})
                entry["executions"] += 1
        return {
            "correct": mismatches == 0,
            "attempted": len({i for i, *_ in self.records}),
            "failed": len(failed),
            "executions": len(self.records),
            "failures": sorted(failures.values(), key=lambda f: f["job"]),
        }

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def job_times(run: Run, seconds: float) -> tuple[list[float], list[float], float]:
    """The closed loop.  Returns the wall time of every job, and its time at
    reference speed, each the mean over the job's executions; an execution's
    time is scaled by the kernel samples of its neighbourhood.  Per-job means
    give every run the same job mix, however many executions it made.  The
    third value scales wall time to reference speed over the whole loop."""
    wall, chunk, kernel = [], [], [calibrate.sample()]
    need = max(MIN_SAMPLES, len(run.jobs))
    deadline = time.perf_counter() + seconds
    i, since = 0, 0.0
    while True:
        dt = run.execute(i % len(run.jobs))
        wall.append(dt)
        chunk.append(len(kernel) - 1)  # the job runs between kernel[c] and kernel[c + 1]
        i += 1
        since += dt
        if since >= CALIBRATE_EVERY_S:
            kernel.append(calibrate.sample())
            since = 0.0
        if i % run.workload.block == 0 and i >= need and time.perf_counter() >= deadline:
            break
    kernel.append(calibrate.sample())
    w = CALIBRATION_WINDOW
    scaled = [dt * calibrate.scale(kernel[max(0, c - w + 1):c + w + 1])
              for dt, c in zip(wall, chunk)]
    return per_job(wall, len(run.jobs)), per_job(scaled, len(run.jobs)), calibrate.scale(kernel)


def per_job(times: list[float], jobs: int) -> list[float]:
    """Mean time of each job; execution k ran job k % jobs."""
    return [statistics.fmean(times[j::jobs]) for j in range(jobs)]


def latency_metrics(times: list[float]) -> dict:
    """Throughput of the job mix and percentiles over the jobs' mean times."""
    return {
        "throughput_jobs_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1000,
        "latency_p90_ms": statistics.quantiles(times, n=10)[8] * 1000,
    }


def measure(run: Run, name: str, seed: int, seconds: float, setup_s: float) -> tuple[dict, dict]:
    """The timed loop of a run that is set up already; setup_s is the wall
    time that set-up took in this process, the first of the set-up samples.
    The other samples are taken half before and half after the loop, so that
    a slow phase of the machine shorter than a run does not set the median.
    Their median is scaled to reference speed by the kernel samples of the
    whole loop: a set-up is too short for the samples just around it to
    tell the machine's speed during it."""
    cold = SETUP_REPEATS - 1
    setups = [setup_s] + [cold_setup_seconds(name, seed) for _ in range(cold // 2)]
    wall, scaled, speed = job_times(run, seconds)
    setups += [cold_setup_seconds(name, seed) for _ in range(cold - cold // 2)]
    values = {
        **latency_metrics(scaled),
        "setup_s": statistics.median(setups) * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"latency_samples": len(wall), "setup_samples_s": setups,
             "wall_clock": {**latency_metrics(wall), "setup_s": statistics.median(setups)}}
    return values, extra


def measure_traced(run: Run, name: str, seed: int) -> tuple[dict, dict]:
    """Run each job of the trace prefix untraced, then traced, one after the
    other, so that machine drift hits both sides of the overhead alike."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    untraced = 0.0
    for i in range(run.workload.trace_jobs):
        job = run.jobs[i]
        untraced += run.execute(i)
        plain = job.execute
        job.execute = tracer.wrap(
            plain, "bench.job", before=lambda tr, _args, jid=job.id: setattr(tr, "job", jid)
        )
        tracer.install(extra_modules=[workloads])
        try:
            run.execute(i)
        finally:
            tracer.uninstall()
            job.execute = plain
    traced = sum(e - s for n, s, e, _p, _j in tracer.spans if n == "bench.job")
    metrics = tracer.metrics(traced, traced / untraced)
    WORK.mkdir(exist_ok=True)
    spans_file = WORK / f"spans-{name}-seed{seed}.jsonl"
    tracer.dump(spans_file)
    extra = {
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "untraced_jobs_s": untraced,
        "self_time_sum_s": sum(tracer.self_times()),
        "rref_cells_histogram": tracer.cell_histogram(),
    }
    return {k: v["value"] for k, v in metrics.items()}, extra


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    run = Run(args.workload, args.seed)  # the first import of the engine
    try:
        run.setup()
        setup_s = time.perf_counter() - t
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            values, extra = measure_traced(run, args.workload, args.seed)
            import tracing

            units = tracing.PER_LAYER
        else:
            values, extra = measure(run, args.workload, args.seed, args.seconds, setup_s)
            units = END_TO_END
        result = run.verify()
    finally:
        run.cleanup()
    recorded_at = load_digests()["recorded_at"]
    info = {"context": context(args.workload, args.seed, len(run.jobs)), **extra,
            "digests_commit": recorded_at and recorded_at["commit"],
            "executions": result["executions"],
            "failed_frac": result["failed"] / result["attempted"],
            "failures": result["failures"]}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of the results."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode:
            sys.stderr.write(out.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = result
        print(f"== {name}: {result['attempted']} jobs, {result['failed']} failed, "
              f"correct={result['correct']}")
        print(f"   context {json.dumps(info['context'], sort_keys=True)}")
        for k, m in result["metrics"].items():
            print(f"   {k:34s} {m['value']:>14.6g} {m['unit']}")
        print(f"   {'failed_frac':34s} {info['failed_frac']:>14.6g} ratio")
        for f in info["failures"]:
            print(f"   FAILED {f['job']} x{f['executions']}: {f['message']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up of the workload, print the seconds and exit")
    args = parser.parse_args(argv)
    if not (SRC / "so3alg" / "__init__.py").is_file():
        print(f"error: no engine source under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
