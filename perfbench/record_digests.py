#!/usr/bin/env python3
"""Record the reference digest of every job any seed can draw.

    python3 perfbench/record_digests.py

Runs each (slot, variant) of every workload once and writes
``perfbench/digests.json``: per workload, the job key ``slot/variant`` mapped
to the hash of its input and, after a space, the hash of its report, or
``fail:<exit code>`` for a job that failed.  The benchmark compares each
input and report it produces with this file, so record it only at a commit
whose outputs are trusted, and again only when a workload's generator
changes.  A job whose oracle fails is reported and the script exits 1.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the engine on sys.path)


def main() -> int:
    os.chdir(run.ROOT)
    workdir = run.WORK / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    digests, bad = {}, 0
    for name in run.WORKLOAD_NAMES:
        w = workloads.WORKLOADS[name]
        table = digests[name] = {}
        for slot in range(w.slots):
            for variant in range(workloads.VARIANTS):
                job = w.make_job(slot, variant, workdir)
                raw = job.execute()
                if raw.code:
                    table[job.key] = f"{job.input} fail:{raw.code}"
                    continue
                problems = job.check(raw) if job.check else []
                if problems:
                    bad += 1
                    print(f"{job.id} variant {variant}: {'; '.join(problems)}", file=sys.stderr)
                table[job.key] = f"{job.input} {workloads.sha(job.report(raw))}"
        fails = sum(" fail:" in v for v in table.values())
        print(f"{name}: {len(table)} jobs, {fails} failing")
    shutil.rmtree(workdir)
    doc = {"recorded_at": run.context("all", None, None), "digests": digests}
    run.DIGESTS.write_text(json.dumps(doc, sort_keys=True, indent=0) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
