"""
Record the correctness references that bench/run.py checks.

    python3 bench/record.py enum-8x7 search-5x15 analyze-random

A reference holds what the program printed at the commit it was recorded
on, after the run's independent checks (witness Gram checks, the closed-form
determinant) passed.  Re-record only when a change is meant to alter
verdicts, and say so in the change.  Each reference file is written from
scratch for the sizes in harness.SIZES; analyze-random holds the digests of
seeds 0 to REFERENCE_SEEDS - 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from harness import DIGEST_BLOCK, OUT_DIR, REFERENCE_DIR, SIZES, import_pretzel
from workloads import WORKLOADS, analyze_reference

REFERENCE_SEEDS = 40


def _write(workload, data):
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / ("%s.json" % workload)
    lines = []
    for name, value in sorted(data.items()):
        if isinstance(value, dict):     # one entry per line
            value = "{\n%s\n}" % ",\n".join(
                "%s: %s" % (json.dumps(k), json.dumps(v))
                for k, v in sorted(value.items()))
        else:
            value = json.dumps(value)
        lines.append("%s: %s" % (json.dumps(name), value))
    with open(path, "w") as fh:
        fh.write("{\n%s\n}\n" % ",\n".join(lines))
    print("wrote", path)


def record_run(pz, workload):
    """Reference data from one untraced run with no reference to check."""
    workdir = OUT_DIR / ("record-%s" % workload)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        out = WORKLOADS[workload](pz, SIZES[workload], 0, 0, 1, None, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if out.check.failed:
        sys.exit("independent checks failed: %s" % out.check.problems)
    return out.reference


def record_analyze(pz, size):
    """Digests of seeds 0 to REFERENCE_SEEDS - 1."""
    seeds = {}
    for seed in range(REFERENCE_SEEDS):
        digests, chk = analyze_reference(pz, seed, size)
        if chk.failed:
            sys.exit("seed %d: independent checks failed: %s"
                     % (seed, chk.problems))
        seeds[str(seed)] = digests
        print("seed", seed, "recorded", flush=True)
    return dict(size, block=DIGEST_BLOCK, seeds=seeds)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    pz = import_pretzel()
    for workload in args.workloads:
        if workload == "analyze-random":
            _write(workload, record_analyze(pz, SIZES[workload]))
        else:
            _write(workload, record_run(pz, workload))


if __name__ == "__main__":
    main()
