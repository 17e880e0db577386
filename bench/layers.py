"""End-to-end phase timings of planned codes and arrays, one fresh interpreter per row and run.

    python bench/layers.py --out BENCH.json
    python bench/layers.py --row 2:101     # one row in this process, printed as JSON

A plan row ``c:q`` builds the planned code for (c, q) with
``execute_plan``, writes it to a ``.fpc`` file, reads it back, proves
the code without its all-infinity word 2-determined
(``is_t_determined``), and proves the whole code c-frameproof with the
cover oracle and, where its coalitions fit in ``NAIVE_BUDGET``
(subset, candidate) pairs, with the naive oracle; other rows record
``naive_s`` as null.  The built code is kept until the read has been
checked against it.  An array row builds ``build_oa_strength2(s)``,
then ``seed:s`` proves its seed code ``oa_to_pt_code`` 2-determined
and ``oa:s`` writes the array to a ``.oa`` file, reads it back, checks
the read against it and checks it with ``verify_oa``.  Every run of a
row is a new process importing ``src/`` of this checkout, so its
``ru_maxrss`` is that row's own peak.  Build, write and read are timed
by this script's clock; the proof phases (``tdet_s``, ``cover_s``,
``naive_s``, ``verify_oa_s``) are the ``elapsed`` of their reports.
The JSON records each phase's median, min and max over the runs, with
the host and Python facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = ["2:15", "3:16", "2:101", "2:401", "2:1001", "2:2001", "3:112", "4:141",
        "seed:64", "seed:128", "oa:128"]
RUNS = 3
# recorded once per row; the rest are phases
SIZES = ["c", "q", "M", "fpc_bytes", "oa_bytes", "s", "N"]
NAIVE_BUDGET = 3_400_000_000  # the full naive proof of c=3 q=16 takes 3.3e9 pairs


def run_row(row: str) -> dict:
    """One row's sizes and phases in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    kind, arg = row.split(":")
    runner = {"seed": run_seed_row, "oa": run_oa_row}.get(kind)
    out = runner(int(arg)) if runner else run_plan_row(int(kind), int(arg))
    out["ru_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def timed(f, *args):
    start = time.perf_counter()
    return f(*args), time.perf_counter() - start


def run_seed_row(s: int) -> dict:
    """The seed code of the s-level strength-2 array, proved 2-determined."""
    from frameproof import build_oa_strength2, is_t_determined, oa_to_pt_code

    seed, build_s = timed(lambda: oa_to_pt_code(build_oa_strength2(s)))
    report = is_t_determined(seed, 2)
    if not report.verdict:
        raise SystemExit(f"seed:{s}: not 2-determined: {report.witness}")
    return {"s": s, "M": seed.size, "build_s": build_s, "tdet_s": report.elapsed}


def run_oa_row(s: int) -> dict:
    """The s-level strength-2 array: its ``.oa`` file written and read back, then ``verify_oa``."""
    import numpy as np
    from frameproof import build_oa_strength2, read_oa_file, verify_oa, write_oa_file

    oa, build_s = timed(build_oa_strength2, s)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "array.oa"
        _, write_s = timed(write_oa_file, oa, path)
        back, read_s = timed(read_oa_file, path)
        oa_bytes = path.stat().st_size
    same = (back.levels, back.strength) == (oa.levels, oa.strength)
    if not (same and np.array_equal(back.array, oa.array)):
        raise SystemExit(f"oa:{s}: the array read back differs from the one written")
    report = verify_oa(oa)
    if not report.verdict:
        raise SystemExit(f"oa:{s}: not an orthogonal array: {report.witness}")
    return {"s": s, "N": oa.array.shape[1], "oa_bytes": oa_bytes, "build_s": build_s,
            "write_s": write_s, "read_s": read_s, "verify_oa_s": report.elapsed}


def run_plan_row(c: int, q: int) -> dict:
    """A plan row's phases; the code's file goes to a temporary directory."""
    from frameproof import (execute_plan, is_frameproof_cover, is_frameproof_naive,
                            is_t_determined, plan_code)
    from frameproof.codes import Code, read_code_file, write_code_file

    out, clock = {"c": c, "q": q}, time.perf_counter
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.fpc"
        start = clock()
        built = execute_plan(plan_code(c, q))
        out["build_s"] = clock() - start
        start = clock()
        write_code_file(built, path)
        out["write_s"] = clock() - start
        start = clock()
        code = read_code_file(path)
        out["read_s"] = clock() - start
        out["M"], out["fpc_bytes"] = code.size, path.stat().st_size
    if code != built:
        raise SystemExit(f"c={c} q={q}: the code read back differs from the one written")
    del built
    # the proof's code lacks the all-infinity word that the plan's last step adjoins;
    # with infinity 0 that word sorts first, and a view of the other rows copies nothing
    skip = int((code.array[0] == code.inf_id).all())
    tdet = is_t_determined(Code(code.length, code.q, code.array[skip:], code.inf_id), 2)
    cover = is_frameproof_cover(code, c, budget=10**12)
    out["tdet_s"], out["cover_s"] = tdet.elapsed, cover.elapsed
    if not (tdet.verdict and cover.verdict):
        raise SystemExit(f"c={c} q={q}: 2-determined {tdet.verdict}, frameproof {cover.verdict}")
    out["naive_s"] = None
    m = code.size
    if sum(comb(m, k) * (m - k) for k in range(1, c + 1)) <= NAIVE_BUDGET:
        naive = is_frameproof_naive(code, c, budget=NAIVE_BUDGET)
        out["naive_s"] = naive.elapsed
        if not naive.verdict:
            raise SystemExit(f"c={c} q={q}: the naive oracle finds a framing")
    return out


def host_facts() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in _lines("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    mem = next((line.split()[1] for line in _lines("/proc/meminfo") if line.startswith("MemTotal")),
               None)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "cpu": cpu, "nproc": os.cpu_count(),
            "mem_total_mb": int(mem) // 1024 if mem else None}


def _lines(path: str) -> list[str]:
    try:
        return Path(path).read_text().splitlines()
    except OSError:
        return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="the JSON file to write")
    parser.add_argument("--row", choices=ROWS, metavar="ROW",
                        help=f"run one row in this process and print it: one of {', '.join(ROWS)}")
    args = parser.parse_args(argv)
    if args.row:
        print(json.dumps(run_row(args.row)))
        return 0
    if not args.out:
        parser.error("--out is required")
    samples: dict[str, list[dict]] = {row: [] for row in ROWS}
    for run in range(RUNS):
        for row in ROWS:  # runs go round the rows, so a slow spell of the host hits them all
            done = subprocess.run([sys.executable, __file__, "--row", row], check=True,
                                  stdout=subprocess.PIPE, text=True)
            samples[row].append(json.loads(done.stdout))
            print(f"run {run + 1}/{RUNS} {row}: {done.stdout.strip()}", file=sys.stderr)
    report = {"script": "bench/layers.py", "runs": RUNS, "host": host_facts(), "rows": [
        {**{key: runs[0][key] for key in SIZES if key in runs[0]}, **{
            phase: None if runs[0][phase] is None else {
                stat: round(f([r[phase] for r in runs]), 6)
                for stat, f in (("median", statistics.median), ("min", min), ("max", max))}
            for phase in runs[0] if phase not in SIZES}}
        for runs in samples.values()]}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
