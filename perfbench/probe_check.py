"""Does scaling by host_probe steady a job's time?  Which jobs does the probe track?

    python3 perfbench/probe_check.py

Runs three jobs, shuffled, for 40 rounds in each of 8 fresh processes, one
after another.  As in the benchmark's harness, a host probe follows every
job and each job is scaled by the mean of the probes on either side:

- ``python``: ``verify_oa(build_oa_strength2(23))``, interpreted code;
- ``numpy``: ten ``make_oa`` calls on a 4 x 500,000 int64 array,
  memory-bound numpy;
- ``heap``: builds 150,000 tuples and keeps them alive until its next run,
  so the probes around other jobs see a large heap.

For each job it prints the median over processes of the per-process
median latency, unscaled and scaled, with its spread (quartile distance
over median).  Then, per process, the median over rounds of the probe
just after that job over the probe just after the ``python`` job of the
same round: 1.0 when what the job does and leaves behind does not move
the probe.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
KINDS = ("python", "numpy", "heap")
PROCESSES = 8
ROUNDS = 40


def child(seed: int) -> dict:
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    import numpy as np

    import frameproof as fp
    import harness

    arr = np.random.default_rng(seed).integers(0, 2, size=(4, 500_000), dtype=np.int64)
    kept: list = []

    def numpy_job():
        for _ in range(10):
            oa = fp.make_oa(arr, 2, 1)
        return oa

    def heap_job():
        kept.clear()
        kept.extend((i, i % 7, (i, i)) for i in range(150_000))

    runs = {
        "python": lambda: fp.verify_oa(fp.build_oa_strength2(23)),
        "numpy": numpy_job,
        "heap": heap_job,
    }
    rng = random.Random(seed)
    samples = {kind: [] for kind in KINDS}  # (latency, scaled, probe after / python's)
    before = harness.host_probe()
    for _ in range(ROUNDS):
        after_probe = {}
        rows = []
        for kind in rng.sample(KINDS, len(KINDS)):
            start = time.perf_counter()
            runs[kind]()
            latency = time.perf_counter() - start
            after = harness.host_probe()
            scaled = latency * harness.PROBE_REFERENCE_S / ((before + after) / 2)
            rows.append((kind, latency, scaled))
            after_probe[kind] = after
            before = after
        for kind, latency, scaled in rows:
            samples[kind].append((latency, scaled, after_probe[kind] / after_probe["python"]))
    return {
        kind: {
            "raw": statistics.median(v[0] for v in values),
            "scaled": statistics.median(v[1] for v in values),
            "probe": statistics.median(v[2] for v in values),
        }
        for kind, values in samples.items()
    }


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(json.dumps(child(int(sys.argv[2]))))
        return 0
    runs = []
    for seed in range(1, PROCESSES + 1):
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(seed)],
            capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    print(f"{'job':8} {'unscaled ms':>12} {'spread':>7} {'scaled ms':>10} {'spread':>7}  probe / python's probe")
    for kind in KINDS:
        raw = [r[kind]["raw"] * 1e3 for r in runs]
        scaled = [r[kind]["scaled"] * 1e3 for r in runs]
        ratios = " ".join(f"{r[kind]['probe']:.3f}" for r in runs)
        print(f"{kind:8} {statistics.median(raw):12.2f} {spread(raw):7.3f} "
              f"{statistics.median(scaled):10.2f} {spread(scaled):7.3f}  {ratios}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
