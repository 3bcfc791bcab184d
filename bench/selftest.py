"""
Self-test of the benchmark harness at a tiny bound (about half a minute).

    python3 bench/selftest.py

For each workload, at the 5x4 bound (enumeration and search) and with 30
random knots, it records a reference, then checks that:
  * a run against that reference passes, with every end-to-end metric that
    BENCHMARK.json declares printed under its name and unit;
  * a traced run prints every declared per-layer metric and its replayed
    verdicts agree with the untraced run;
  * a run against a corrupted reference is reported as failed.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

from harness import END_TO_END, OUT_DIR, PER_LAYER, ROOT, import_pretzel
from run import run
from workloads import WORKLOADS

TINY = {
    "enum-8x7": {"max_strands": 5, "max_param": 4},
    "search-5x15": {"max_strands": 5, "max_param": 4},
    "analyze-random": {"knots": 30, "max_strands": 5, "max_param": 7},
}
SEED = 7


def _corrupt(workload, ref):
    bad = copy.deepcopy(ref)
    if workload == "enum-8x7":
        bad["csv_sha256"] = "0" * 64
    elif workload == "search-5x15":
        key = sorted(bad["graphs"])[0]
        bad["graphs"][key][1] += 1
    else:
        bad["seeds"][str(SEED)][0] = "0" * 16
    return bad


def _expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def _printed(result, declared):
    """The result as printed (a JSON round trip) carries every declared
    metric with its unit and a numeric value."""
    metrics = json.loads(json.dumps(result))["metrics"]
    return set(metrics) == set(declared) and all(
        metrics[n]["unit"] == declared[n]["unit"]
        and isinstance(metrics[n]["value"], (int, float)) for n in declared)


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    _expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
            "BENCHMARK.json names the harness's workloads")
    _expect({n: m["unit"] for n, m in e2e.items()} == END_TO_END
            and {n: m["unit"] for n, m in layers.items()} == PER_LAYER,
            "BENCHMARK.json declares the harness's metrics and units")

    pz = import_pretzel()
    for workload, size in TINY.items():
        workdir = OUT_DIR / ("selftest-%s" % workload)
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            observed = WORKLOADS[workload](pz, size, SEED, 0, 1, None,
                                           workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ref = observed.reference
        if workload == "analyze-random":
            ref = {"seeds": {str(SEED): ref["blocks"]}}

        result, details = run(pz, workload, SEED, 0, 1, size, ref)
        _expect(result["correct"] and result["failed"] == 0
                and result["attempted"] > 0,
                "%s: clean run passes (%s)" % (workload, details["problems"]))
        _expect(_printed(result, e2e),
                "%s: every end-to-end metric printed with its unit"
                % workload)

        result, details = run(pz, workload, SEED, 1, 1, size, ref)
        _expect(result["correct"] and _printed(result, layers),
                "%s: traced run agrees and prints every per-layer metric (%s)"
                % (workload, details["problems"]))

        result, details = run(pz, workload, SEED, 0, 1, size,
                              _corrupt(workload, ref))
        _expect(not result["correct"] and result["failed"] > 0,
                "%s: corrupted reference reported as failed (%d of %d)"
                % (workload, result["failed"], result["attempted"]))


if __name__ == "__main__":
    main()
