"""
pretzel benchmark: one workload, one run.

    python3 bench/run.py --workload enum-8x7 --seed 1 --seconds 15 --trace 0

Run from the root of a pretzel checkout; the package is imported from its
src/ directory.  With --trace 0 the last line of stdout is the result with
every end-to-end metric; with --trace 1 it carries every per-layer metric
and the spans are written to .bench_out/trace-<workload>-seed<n>.json.gz.
The line before it holds the machine facts and run details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

from harness import (END_TO_END, OUT_DIR, PER_LAYER, SIZES, dump_spans,
                     import_pretzel, load_reference)
from workloads import WORKLOADS


def _loadavg():
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def speed_ms(repeats=5):
    """Median ms of a fixed pure-Python loop: a coarse reading of how fast
    the machine runs this interpreter right now, to tell slow periods of a
    shared host from slow code."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(200000):
            total += i * i % 7
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def machine_facts():
    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu_model": model}


def run(pz, workload, seed, trace, seconds, size, ref):
    """Run one workload in a scratch directory under .bench_out; return
    (result line, details line) as dicts."""
    facts = machine_facts()
    facts["loadavg_start"] = _loadavg()
    facts["speed_ms_start"] = speed_ms()
    workdir = OUT_DIR / ("%s-seed%d-%d" % (workload, seed, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        outcome = WORKLOADS[workload](pz, size, seed, trace, seconds, ref,
                                      workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts["loadavg_end"] = _loadavg()
    facts["speed_ms_end"] = speed_ms()
    if trace:
        dump_spans(outcome.tracers,
                   OUT_DIR / ("trace-%s-seed%d.json.gz" % (workload, seed)))
    units = PER_LAYER if trace else END_TO_END
    if set(outcome.metrics) != set(units):
        raise RuntimeError("metric names differ from the declared ones: %s"
                           % sorted(set(outcome.metrics) ^ set(units)))
    chk = outcome.check
    details = {"workload": workload, "seed": seed, "trace": trace,
               "seconds": seconds, "size": size, "machine": facts,
               "run": outcome.info, "problems": chk.problems}
    result = {"correct": chk.failed == 0, "attempted": chk.attempted,
              "failed": chk.failed,
              "metrics": {name: {"value": outcome.metrics[name],
                                 "unit": units[name]}
                          for name in units}}
    return result, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    pz = import_pretzel()
    size, ref = SIZES[args.workload], load_reference(args.workload)
    stale = sorted(k for k in size if ref.get(k) != size[k])
    if stale:
        sys.exit("error: the %s reference was recorded for another %s; "
                 "re-record it with bench/record.py"
                 % (args.workload, ", ".join(stale)))
    result, details = run(pz, args.workload, args.seed, args.trace,
                          args.seconds, size, ref)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
