import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import pretzel.classify
import pretzel.plumbing
from pretzel.cli import CSV_HEADER, main, record_to_json
from pretzel.plumbing import MAX_GRAPH_RANK
from pretzel import (analyze, incidence_matrix, negative_definite_graph,
                     wu_vertices)

from conftest import random_knot_params


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "pretzel.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------------
# analyze

def test_analyze_json_1075(capsys):
    rc = main(["analyze", "1,1,1,1,-3,-3,-3", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    rec = json.loads(out)
    assert rec["status"] == "ribbon_known"
    assert rec["family"] == "F1"
    assert rec["det"] == 81 and rec["det_square"] is True
    assert rec["sigma"] == 0
    assert rec["donaldson"] == "embeddable"
    assert rec["fibered"] == "fibered" and rec["subcase"] == "T1"


def test_analyze_human_text(capsys):
    rc = main(["analyze", "[1^4],-3,-3,-3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ribbon_known" in out and "F1" in out


# one knot for each field of the family line: pairs, k, t and mirrored
ANALYZE_TEXTS = {
    "5,-5,3,-3,4": """\
P(5,-5,3,-3,4)
  kind:       type2
  fibered:    fibered (T2B)
  det:        225 (square)
  signature:  0
  donaldson:  embeddable
  family:     F2 pairs 3,5 k=4
  exceptional: False
  detectably ribbon: True
  status:     ribbon_known
""",
    "1,3,4,-7": """\
P(1,3,4,-7)
  kind:       type3
  fibered:    fibered (T3A)
  det:        121 (square)
  signature:  0
  donaldson:  embeddable
  family:     F3 t=3
  exceptional: False
  detectably ribbon: True
  status:     ribbon_known
""",
    "-2,3,-5,5": """\
P(-2,3,-5,5)
  kind:       type3
  fibered:    fibered (T3C)
  det:        25 (square)
  signature:  0
  donaldson:  embeddable
  family:     F4 pairs 5 k=2 mirrored
  exceptional: False
  detectably ribbon: True
  status:     ribbon_known
""",
}


@pytest.mark.parametrize("params", sorted(ANALYZE_TEXTS))
def test_analyze_text_pinned(params, capsys):
    assert main(["analyze", params]) == 0
    assert capsys.readouterr().out == ANALYZE_TEXTS[params]


def test_analyze_rejects_zero():
    r = run_cli("analyze", "0,3,5")
    assert r.returncode == 2
    assert "connected sum" in r.stderr


def test_analyze_rejects_links(capsys):
    rc = main(["analyze", "2,2,3"])
    capsys.readouterr()
    assert rc == 2


def test_analyze_not_slice(capsys):
    rc = main(["analyze", "1,5,-3,-4", "--json"])
    rec = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert rec["status"] == "not_slice"


@pytest.mark.parametrize("params, limit, donaldson, nodes", [
    ("-6,-3,-3,-1,5", None, "not_embeddable", 17),
    ("1,1,1,1,-3,-3,-3", "1", "inconclusive", 1),
])
def test_analyze_reports_a_search_that_decides_no_embedding(
        params, limit, donaldson, nodes, capsys):
    # NOT_EMBEDDABLE and INCONCLUSIVE results are falsy, yet searched
    extra = ["--node-limit", limit] if limit else []
    main(["analyze", params, "--json", *extra])
    rec = json.loads(capsys.readouterr().out)
    assert (rec["donaldson"], rec["nodes"]) == (donaldson, nodes)
    main(["analyze", params, *extra])
    assert "donaldson:  %s\n" % donaldson in capsys.readouterr().out


SCHEMA = {
    "input": (str,), "params": (list,), "kind": (str,), "fibered": (str,),
    "subcase": (str,), "det": (int,), "det_square": (bool,), "sigma": (int,),
    "donaldson": (str,), "witness": (list, type(None)), "nodes": (int,),
    "family": (str, type(None)), "family_pairs": (list, type(None)),
    "family_k": (int, type(None)), "family_t": (int, type(None)),
    "family_mirrored": (bool, type(None)), "all_families": (list,),
    "exceptional": (bool,), "detectably_ribbon": (bool,), "status": (str,),
    "reason": (str, type(None)), "ms": (int,),
}


def validate_schema(rec):
    assert set(rec) == set(SCHEMA)
    for key, types in SCHEMA.items():
        assert isinstance(rec[key], types), (key, rec[key])
    if rec["witness"] is not None:
        assert all(isinstance(x, int) for row in rec["witness"] for x in row)


def test_json_round_trip():
    v = analyze((1, 1, 1, 1, -3, -3, -3))
    rec = record_to_json(v, 7)
    blob = json.dumps(rec, sort_keys=True)
    assert json.loads(blob) == rec
    validate_schema(rec)


def test_json_schema_on_corpus():
    from conftest import CORPUS
    from pretzel import classify_type
    for p in CORPUS:
        if not classify_type(p).is_knot():
            continue
        rec = record_to_json(analyze(p), 0)
        validate_schema(rec)
        assert json.loads(json.dumps(rec, sort_keys=True)) == rec


# ---------------------------------------------------------------------------
# embed

def test_embed_witness(capsys):
    rc = main(["embed", "1,1,1,1,-3,-3,-3"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)


def test_embed_no_embedding(capsys):
    rc = main(["embed", "1,1,-3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert re.match(r"NO EMBEDDING \(\d+ nodes searched\)", out.strip())


def test_embed_json_status(capsys):
    for params, status in (("1,1,3,-4", "embeddable"),
                           ("1,1,-3", "not_embeddable")):
        rc = main(["embed", params, "--json"])
        assert json.loads(capsys.readouterr().out)["status"] == status, params
        assert rc == 0
    # embed has no --exhaustive option: argparse refuses it
    r = run_cli("embed", "1,1,-3", "--exhaustive")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("usage: pretzelc ")
    assert r.stderr.splitlines()[-1] == \
        "pretzelc: error: unrecognized arguments: --exhaustive"
    assert "Traceback" not in r.stderr


def test_embed_node_limit_exit_3(capsys):
    rc = main(["embed", "[1^6],-3,-3,-3,-3,-3", "--node-limit", "5"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "INCONCLUSIVE" in out


def test_embed_env_node_limit(monkeypatch, capsys):
    monkeypatch.setenv("PRETZELC_NODE_LIMIT", "5")
    rc = main(["embed", "[1^6],-3,-3,-3,-3,-3"])
    capsys.readouterr()
    assert rc == 3


@pytest.mark.parametrize("args, env_limit", [
    (("embed", "1,1,-3", "--node-limit", "0"), None),
    (("analyze", "1,1,1,1,-3,-3,-3", "--node-limit", "0"), None),
    (("enumerate", "--max-strands", "3", "--max-param", "3",
      "--node-limit", "-1"), None),
    (("analyze", "1,1,-3"), "abc"),
])
def test_bad_node_limit_exit_2(args, env_limit):
    env = dict(os.environ)
    env.pop("PRETZELC_NODE_LIMIT", None)
    if env_limit is not None:
        env["PRETZELC_NODE_LIMIT"] = env_limit
    r = run_cli(*args, env=env)
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.stderr


def test_embed_takes_any_rank(capsys):
    # the search takes any rank, with or without a node limit
    for extra in ([], ["--node-limit", "100000"]):
        assert main(["embed", "7,-7,5,-5,4"] + extra) == 0  # rank 16
        capsys.readouterr()


@pytest.mark.parametrize("command", ["analyze", "embed", "graph"])
@pytest.mark.parametrize("params", ["99999999999999999999,3,5",
                                    "3,5,9223372036854775808"])
def test_parameter_too_large_for_its_graph_exit_2(command, params, capsys):
    # a parameter q >= 2 becomes a chain of q - 1 vertices, and no tuple
    # holds more than sys.maxsize = 2**63 - 1 entries, so the input check
    # refuses it before anything is built
    assert main([command, params]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: parameter ")
    assert err.splitlines() == [err.strip()]


@pytest.mark.parametrize("command", ["analyze", "embed", "graph"])
@pytest.mark.parametrize("params", ["9223372036854775807,3,5",
                                    "-9223372036854775807,-3,-5",
                                    "10000000000,3,5"])
def test_graph_rank_too_large_exit_2(command, params, capsys):
    # the graph's construction refuses the leg past the bound before it
    # allocates it, so the refusal costs next to no memory
    tracemalloc.start()
    try:
        assert main([command, params]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: graph rank ")
    assert "exceeds %d" % MAX_GRAPH_RANK in err
    assert err.splitlines() == [err.strip()]


def test_analyze_builds_the_graph_once(capsys, monkeypatch):
    # the input check builds no graph; analyze's own build refuses a rank
    # too large (test_graph_rank_too_large_exit_2)
    calls = []
    build = pretzel.plumbing._graph_and_determinant

    def counted(p):
        calls.append(p)
        return build(p)
    for module in (pretzel.plumbing, pretzel.classify):
        monkeypatch.setattr(module, "_graph_and_determinant", counted)
    assert main(["analyze", "1,1,1,1,-3,-3,-3"]) == 0
    assert "ribbon_known" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize("params", ["[3^100000000000000000000],-3",
                                    "[3^4611686018427387904],-3"])
def test_huge_repeat_count_exit_2(params, capsys):
    # the expansion is refused before any list is allocated; a count past
    # sys.maxsize would overflow an index, one below it fail the size check
    assert main(["analyze", params]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: parameter string expands to more than 4000 " \
        "parameters\n"


def test_embed_link_rejected(capsys):
    rc = main(["embed", "2,2,3"])
    capsys.readouterr()
    assert rc == 2


# ---------------------------------------------------------------------------
# graph

DOT_NODE = re.compile(r'^  v\d+ \[.*label="-?\d+".*\];$')
DOT_EDGE = re.compile(r"^  v\d+ -- v\d+;$")


def _check_dot(text):
    lines = text.strip().splitlines()
    assert lines[0] == "graph pretzel {"
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert DOT_NODE.match(line) or DOT_EDGE.match(line), line


def test_graph_dot_1075(capsys):
    rc = main(["graph", "1,1,1,1,-3,-3,-3"])
    out = capsys.readouterr().out
    assert rc == 0
    _check_dot(out)
    # center -4 is the Wu vertex
    assert re.search(r'v0 \[label="-4".*center="true".*wu="true"', out)


def test_graph_dot_mirrored_example(capsys):
    rc = main(["graph", "-1,-1,2,3,-5"])
    out = capsys.readouterr().out
    assert rc == 0
    _check_dot(out)
    assert 'label="-3"' in out   # reduced center


def test_graph_parse_validated(capsys):
    rc = main(["graph", "3,-3,2"])
    out = capsys.readouterr().out
    assert rc == 0
    _check_dot(out)


def _wu_of_dot(text):
    """The highlighted vertices of a DOT graph, after checking that they
    satisfy the Wu congruence a_v w_v + (Wu neighbours of v) = a_v (mod 2)
    at every vertex, read from the DOT text alone."""
    weight = {int(v): int(a) for v, a in
              re.findall(r'^  v(\d+) \[label="(-?\d+)"', text, re.M)}
    wu = {int(v) for v in re.findall(r'^  v(\d+) \[.*wu="true"', text, re.M)}
    odd = dict.fromkeys(weight, 0)
    for a, b in re.findall(r"^  v(\d+) -- v(\d+);$", text, re.M):
        odd[int(a)] += int(b) in wu
        odd[int(b)] += int(a) in wu
    for v, a in weight.items():
        assert (a * (v in wu) + odd[v] - a) % 2 == 0, v
    return tuple(sorted(wu))


def test_graph_highlights_the_dense_wu_set(capsys, rng):
    for _ in range(150):
        p = random_knot_params(rng, max_strands=7, max_abs=9)
        assert main(["graph", ",".join(map(str, p))]) == 0
        want = wu_vertices(incidence_matrix(negative_definite_graph(p)))
        assert _wu_of_dot(capsys.readouterr().out) == want, p


def test_graph_builds_no_matrix(capsys, monkeypatch):
    # the Wu set of a star graph comes from the leg walk, so a rank-2,004
    # graph needs no k x k matrix
    def refuse(*args):
        raise AssertionError("dense routine called")
    for name in ("pretzel.plumbing.incidence_matrix",
                 "pretzel.lattice.incidence_matrix",
                 "pretzel.lattice.wu_class"):
        monkeypatch.setattr(name, refuse)
    assert main(["graph", "2001,3,-5"]) == 0
    out = capsys.readouterr().out
    _check_dot(out)
    # the centre, every second vertex of the 2,000-vertex leg, the outer
    # vertex of the 2-vertex leg
    assert _wu_of_dot(out) == (0, *range(2, 2001, 2), 2002)


def test_graph_link_exit_2(capsys):
    rc = main(["graph", "2,2,3"])
    capsys.readouterr()
    assert rc == 2


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_csv_and_golden(tmp_path):
    out = tmp_path / "r.csv"
    r = run_cli("enumerate", "--max-strands", "3", "--max-param", "3",
                "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "golden_enum_3_3.csv"
    assert out.read_text() == golden.read_text()
    assert "enumerated" in r.stderr


def test_enumerate_jsonl(tmp_path):
    # one JSON object per golden CSV row, keys sorted, with JSON types
    out = tmp_path / "r.jsonl"
    r = run_cli("enumerate", "--max-strands", "3", "--max-param", "3",
                "--format", "jsonl", "--out", str(out))
    assert r.returncode == 0
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "golden_enum_3_3.csv"
    rows = golden.read_text().splitlines()[1:]
    lines = out.read_text().splitlines()
    assert len(lines) == len(rows)

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, list):
            return " ".join(map(str, value))
        return str(value)
    for line, row in zip(lines, rows):
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True)
        assert sorted(rec) == sorted(CSV_HEADER.split(","))
        assert ",".join(cell(rec[k]) for k in CSV_HEADER.split(",")) == row
        assert all(type(rec[k]) is int for k in ("det", "sigma", "nodes"))
        assert rec["ms"] == 0


def test_enumerate_cache_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cache = tmp_path / "cache"
    r = run_cli("enumerate", "--max-strands", "4", "--max-param", "3",
                "--cache", str(cache), "--out", str(out1))
    assert r.returncode == 0
    assert (cache / "donaldson-cache.jsonl").exists()
    r = run_cli("enumerate", "--max-strands", "4", "--max-param", "3",
                "--cache", str(cache), "--out", str(out2))
    assert r.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_enumerate_cache_same_for_any_jobs(tmp_path):
    # a cold run, then a warm one on the cache it wrote, for each --jobs
    outputs = []
    for jobs in ("1", "2"):
        cache = tmp_path / ("cache" + jobs)
        for run in ("cold", "warm"):
            out = tmp_path / ("r%s-%s.csv" % (jobs, run))
            r = run_cli("enumerate", "--max-strands", "5", "--max-param",
                        "4", "--jobs", jobs, "--cache", str(cache),
                        "--out", str(out))
            assert r.returncode == 0
            outputs.append((out.read_bytes(),
                            (cache / "donaldson-cache.jsonl").read_bytes()))
    assert all(outputs[0]) and outputs == [outputs[0]] * 4


def test_enumerate_truncated_cache_exit_2(tmp_path):
    cache = tmp_path / "cache"
    args = ("enumerate", "--max-strands", "4", "--max-param", "3",
            "--cache", str(cache), "--out", str(tmp_path / "r.csv"))
    assert run_cli(*args).returncode == 0
    path = cache / "donaldson-cache.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) >= 2
    path.write_text("".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2])
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stderr.splitlines() == [r.stderr.strip()]
    assert r.stderr.startswith("error: bad cache file %s line %d: "
                               % (path, len(lines)))


@pytest.mark.parametrize("blob, n", [
    (b"\xff\xfe\n", 1),
    (b'{"center": -2, "legs": [], "nodes": 1, "status": "not_embeddable", '
     b'"witness": null}\n\xc3\x28\n', 2),
], ids=["utf16-bom", "second-line"])
def test_enumerate_cache_not_utf8_exit_2(blob, n, tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "donaldson-cache.jsonl"
    path.write_bytes(blob)
    out = tmp_path / "r.csv"
    assert main(["enumerate", "--max-strands", "3", "--max-param", "3",
                 "--cache", str(cache), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad cache file %s line %d: " % (path, n))
    assert err.splitlines() == [err.strip()]
    assert not out.exists()


# one field of an embeddable entry set to a value the cache must refuse;
# the last two break "a witness exactly for the embeddable entries"
BAD_CACHE_FIELDS = [
    ("nodes", "10x"), ("nodes", True), ("center", 1.5), ("center", None),
    ("legs", [[-2, "a"]]), ("legs", -2), ("witness", [["a"]]),
    ("witness", 7), ("witness", None), ("status", "not_embeddable"),
]


@pytest.mark.parametrize("field, value", BAD_CACHE_FIELDS)
def test_enumerate_cache_bad_field_exit_2(field, value, tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["enumerate", "--max-strands", "3", "--max-param", "3",
            "--format", "jsonl", "--cache", str(cache)]
    assert main(args + ["--out", str(tmp_path / "a.jsonl")]) == 0
    capsys.readouterr()
    path = cache / "donaldson-cache.jsonl"
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    n = next(i for i, e in enumerate(entries, 1)
             if e["status"] == "embeddable")
    entries[n - 1][field] = value
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    out = tmp_path / "b.jsonl"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad cache file %s line %d: " % (path, n))
    assert err.splitlines() == [err.strip()]
    assert not out.exists()


def test_enumerate_unwritable_output(tmp_path):
    r = run_cli("enumerate", "--max-strands", "3", "--max-param", "2",
                "--out", str(tmp_path / "nope" / "r.csv"))
    assert r.returncode == 2


@pytest.mark.parametrize("strands, param", [("2", "3"), ("3", "1")])
def test_enumerate_bounds_too_small_exit_2(strands, param):
    r = run_cli("enumerate", "--max-strands", strands, "--max-param", param)
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.stderr


def test_enumerate_two_strands_one_error_line(capsys):
    assert main(["enumerate", "--max-strands", "2", "--max-param", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bounds too small")
    assert err.splitlines() == [err.strip()]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_enumerate_jobs_below_one_exit_2(jobs, tmp_path, capsys, monkeypatch):
    def no_classes(*args):
        raise AssertionError("classes generated before --jobs was checked")
    monkeypatch.setattr("pretzel.cli.knot_classes", no_classes)
    out = tmp_path / "r.csv"
    rc = main(["enumerate", "--max-strands", "3", "--max-param", "3",
               "--jobs", jobs, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: --jobs must be a positive integer, got %s\n" % jobs
    assert not out.exists()


def test_enumerate_cache_dir_cannot_be_created(tmp_path):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "r.csv"
    r = run_cli("enumerate", "--max-strands", "3", "--max-param", "3",
                "--cache", str(tmp_path / "afile" / "sub"), "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.startswith("error: cannot create cache directory ")
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_enumerate_cache_file_is_a_directory(tmp_path):
    (tmp_path / "cache" / "donaldson-cache.jsonl").mkdir(parents=True)
    out = tmp_path / "r.csv"
    r = run_cli("enumerate", "--max-strands", "3", "--max-param", "3",
                "--cache", str(tmp_path / "cache"), "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert r.stderr.splitlines() == [r.stderr.strip()]
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_enumerate_cache_save_fails_exit_2(tmp_path):
    cache = tmp_path / "cache"
    r = run_cli("enumerate", "--max-strands", "3", "--max-param", "3",
                "--cache", str(cache), "--out", str(tmp_path / "a.csv"))
    assert r.returncode == 0
    path = cache / "donaldson-cache.jsonl"
    old = path.read_bytes()
    (cache / "donaldson-cache.jsonl.tmp").mkdir()
    # the larger bound adds entries, so a save would change the file
    r = run_cli("enumerate", "--max-strands", "4", "--max-param", "3",
                "--cache", str(cache), "--out", str(tmp_path / "b.csv"))
    assert r.returncode == 2
    assert r.stderr.startswith("error: cannot write cache file ")
    assert r.stderr.splitlines() == [r.stderr.strip()]
    assert path.read_bytes() == old
    # the cache is saved before the report, so a failed save leaves none
    assert not (tmp_path / "b.csv").exists()


def test_enumerate_cache_keeps_no_inconclusive(tmp_path, monkeypatch):
    # a search cut at a node limit decides nothing: a rerun without the
    # limit must search again instead of reading INCONCLUSIVE back
    monkeypatch.delenv("PRETZELC_NODE_LIMIT", raising=False)
    bounds = ["enumerate", "--max-strands", "5", "--max-param", "4"]
    cache = tmp_path / "cache"
    path = cache / "donaldson-cache.jsonl"
    report = {}

    def run(name, *extra):
        out = tmp_path / (name + ".csv")
        assert main(bounds + ["--out", str(out), *extra]) == 0
        report[name] = out.read_text()

    run("cut", "--cache", str(cache), "--node-limit", "3")
    cut = [r for r in report["cut"].splitlines() if ",inconclusive," in r]
    assert len(cut) == 13
    assert "inconclusive" not in path.read_text()
    run("rerun", "--cache", str(cache))
    run("fresh")
    assert ",inconclusive," not in report["fresh"]
    assert report["rerun"] == report["fresh"]
    # a cache file that holds INCONCLUSIVE entries: they are skipped
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    for e in entries:
        e.update(status="inconclusive", witness=None, nodes=3)
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    run("stale", "--cache", str(cache))
    assert report["stale"] == report["fresh"]
