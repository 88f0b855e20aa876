"""Tests of the benchmark itself: its checks reject tampered outputs, a
failure inside ``main`` or in a check is counted and never propagates,
tracing nests and its coverage check can fail, and one seed gives one set
of reports.

    python -m pytest -q perfbench/test_perfbench.py
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from rauzy import cli, graphs, serialize  # noqa: E402
from session import Session  # noqa: E402

G = workloads.G


def two_cycle_doc():
    return serialize.graph_to_doc(graphs.two_cycle(G))


def cli_report(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


@pytest.fixture
def measured(tmp_path):
    """two_cycle with its exact solution and transitive action reports."""
    doc = two_cycle_doc()
    path = workloads.write(str(tmp_path), "g.json", doc)
    _, solved = cli_report(["measure", "solve", path])
    m = solved["witnesses"]["measured"]
    mpath = workloads.write(str(tmp_path), "m.json", m)
    _, action = cli_report(["finite-action", mpath, "--transitive"])
    return verify.Graph(doc), m, action


def test_untampered_outputs_pass(measured):
    g, m, action = measured
    verify.balanced(g, m["mu"], m["m"])
    assert verify.action(g, m, action) == 2


def test_rejects_unbalanced_m(measured):
    g, m, action = measured
    bad = list(m["m"])
    bad[0] = "2"
    with pytest.raises(verify.Mismatch):
        verify.balanced(g, m["mu"], bad)
    with pytest.raises(verify.Mismatch):
        verify.action(g, {"mu": m["mu"], "m": bad}, action)


def test_rejects_walk_that_is_not_a_permutation(measured):
    g, m, action = measured
    tampered = json.loads(json.dumps(action))
    perm = tampered["witnesses"]["action"]["perms"]["a"]
    perm[0] = perm[1]
    with pytest.raises(verify.Mismatch, match="permutation"):
        verify.action(g, m, tampered)


def test_flipped_solve_verdict_counts_as_wrong(tmp_path):
    doc = two_cycle_doc()
    path = workloads.write(str(tmp_path), "g.json", doc)
    # the oracle's verdict flipped: the library's "ok" must now be refused
    run = workloads._solve_run(str(tmp_path), "flip", path, doc, False)
    s = Session()
    with pytest.raises(Exception):
        run(s)
    assert (s.attempted, s.failed, s.wrong) == (1, 1, 1)


def test_recursion_error_in_main_is_counted(tmp_path):
    s = Session()
    for p in workloads.deep(0, str(tmp_path)):
        with pytest.raises(Exception) as info:
            p.run(s)
        assert isinstance(info.value.__context__, RecursionError)
    assert (s.attempted, s.failed, s.wrong) == (2, 2, 0)


def test_any_exception_escaping_main_is_counted(monkeypatch):
    def boom(args):
        raise RecursionError("deep")
    monkeypatch.setattr(cli, "cmd_special_symbol", boom)
    s = Session()
    with pytest.raises(Exception):
        s.cli(["special-symbol", "--rank", "2", "--gen", "a", "--radius", "1"], {0})
    assert (s.attempted, s.failed, s.wrong) == (1, 1, 0)


def test_check_raising_any_exception_counts_as_wrong():
    s = Session()
    # a report of the wrong shape: chi is a list, so the check's .items()
    # raises AttributeError
    with pytest.raises(Exception):
        s.cli(["special-symbol", "--rank", "2", "--gen", "a", "--radius", "1"],
              {0}, lambda r, c: verify.marker(
                  {"witnesses": {"chi": [], "x0": []}}, 1))
    with pytest.raises(Exception):
        s.call("wrong type", lambda: [], lambda r: r.items())
    assert (s.attempted, s.failed, s.wrong) == (2, 2, 2)


def test_certificate_rejects_misstated_cycle_and_returns(tmp_path):
    workloads.sofic(1, str(tmp_path))
    path = str(tmp_path / "sofic-schreier8-0.json")
    with open(path) as fh:
        doc = json.load(fh)
    _, rep = cli_report(["cycle", path, "--vertex", doc["vertices"][0]])
    cycle = ",".join(map(str, rep["witnesses"]["cycle"]))
    _, rep = cli_report(["selector", "synth", path, "--cycle", cycle])
    sel = rep["witnesses"]["selector"]
    sel_path = workloads.write(str(tmp_path), "selector.json", sel)
    _, cert = cli_report(["certify-minimal", sel_path, "--window", "4",
                          "--depth", "3"])
    g = verify.Graph(doc)
    verify.certificate(cert, g, sel, 4, 3)
    for key, delta in (("cycle_length", 1), ("max_return_length", 50)):
        tampered = json.loads(json.dumps(cert))
        tampered["witnesses"][key] += delta
        with pytest.raises(verify.Mismatch):
            verify.certificate(tampered, g, sel, 4, 3)


def test_morphism_count_matches_brute_force():
    for g in (graphs.letter_flow_graph(G), graphs.three_star(G)):
        vg = verify.Graph(serialize.graph_to_doc(g))
        words = verify.ball(1)
        brute = sum(
            all(vg.has_edge(c[u], c[ux], x) for u, x, ux in verify.tree_edges(1))
            for c in (dict(zip(words, vals))
                      for vals in product(vg.vertices, repeat=len(words))))
        assert vg.morphism_count(1) == brute
    cyc = verify.Graph(two_cycle_doc())
    assert [cyc.morphism_count(r) for r in range(8)] == [2] * 8


def test_tracer_nests_calls_across_layers():
    tracer = spans.Tracer()
    original = cli.main
    tracer.install()
    try:
        cli_report(["special-symbol", "--rank", "2", "--gen", "a", "--radius", "2"])
    finally:
        tracer.uninstall()
    assert cli.main is original
    names = [(s[0], s[1]) for s in tracer.spans]
    assert ("cli", "main") in names and ("special", "special_symbol_sft") in names
    parent = tracer.spans[names.index(("special", "special_symbol_sft"))][4]
    assert tracer.spans[parent][:2] == ["cli", "cmd_special_symbol"]


def test_coverage_check_fails_without_wrappers(tmp_path):
    import run
    (pipeline,) = [p for p in workloads.windows(1, str(tmp_path))
                   if p.name == "windows/special-return"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        batch = run.run_batch([pipeline], tracer)
    finally:
        tracer.uninstall()
    _, covered = run.layer_metrics(batch, tracer, spans.self_times(tracer.spans))
    assert covered >= run.COVERAGE
    # the same batch with no wrapper in place: the steps' time goes unseen
    batch = run.run_batch([pipeline], tracer)
    _, covered = run.layer_metrics(batch, tracer, spans.self_times(tracer.spans))
    assert 0 <= covered < run.COVERAGE


def run_bench(*args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_same_seed_same_reports_and_work():
    runs = [run_bench("--workload", "realize", "--seed", "7", "--seconds", "0",
                      cwd=HERE.parent) for _ in range(2)]
    infos = []
    for r in runs:
        assert r.returncode == 0, r.stderr
        lines = r.stdout.strip().splitlines()
        assert json.loads(lines[-1])["correct"]
        info = json.loads(lines[-2].split(": ", 1)[1])
        infos.append([info[k] for k in ("report_sha256", "inputs_sha256", "work")])
    assert infos[0] == infos[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    r = run_bench("--workload", "sofic", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert r.returncode != 0 and r.stdout == ""
