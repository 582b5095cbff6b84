"""Tests of the benchmark itself. Run with: python3 -m pytest bench"""

from __future__ import annotations

import copy
import json
import random
import sys
import tempfile
from pathlib import Path

import checks
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

# Small ops that reach every layer in well under a second each.
SMALL = [
    workloads.Op(("density", "--poly", "1,1", "--n", "60", "--out", workloads.OUT)),
    workloads.Op(("count", "--poly", "2,5", "--n", "40", "--mode", "pruned")),
    workloads.Op(("classify", "--poly", "1,1", "--region", "1,40,1,40", "--out", workloads.OUT)),
    workloads.Op(("blocks", "--poly", "1,1", "--size", "2", "--max", "200,200", "--all", "--out", workloads.OUT)),
    workloads.Op(("radius", "--poly", "1,1", "--region", "1,30,1,30", "--r", "3")),
    workloads.Op(("visible", "--poly", "1,1", "--point", "13,195")),
    workloads.Op(("construct", "--point", "300,41", "--multi", "307,311")),
]
COUNTS = [n for n, (unit, _, _) in workloads.PER_LAYER.items() if unit != "s"]


def observe_once(op: workloads.Op, tmp: Path) -> dict:
    out_path = tmp / "out.csv"
    child = run.run_child(op.resolve(str(out_path)), tmp)
    return checks.observe(child.code, child.stdout, out_path if op.writes_out else None)


def traced_pass(ops) -> dict:
    recorder = spans.Recorder()

    def runner(argv, workdir):
        recorder.begin_op()
        return run.run_in_process(argv, workdir)

    with recorder.installed():
        run.run_pass(ops, runner, {})
    return recorder.metrics()


def test_same_seed_gives_same_argv_list():
    for w in workloads.WORKLOADS.values():
        pool = set(w.candidates())
        assert w.ops(7) == w.ops(7)
        assert set(w.ops(7)) <= pool
        assert len({tuple(w.ops(seed)) for seed in range(8)}) > 1


def test_every_candidate_has_a_recorded_answer():
    answers = json.loads(run.ANSWERS.read_text())
    missing = [op.key for w in workloads.WORKLOADS.values() for op in w.candidates() if op.key not in answers]
    assert missing == []
    table1 = answers["reproduce --target table1"]
    assert table1["exit"] == 1
    failed = [item["name"] for item in table1["envelope"]["payload"]["items"] if not item["passed"]]
    assert [name.split()[1] for name in failed] == ["11", "12"]


def test_wrong_recorded_answer_fails_the_op():
    op = workloads.Op(("classify", "--poly", "1,1", "--region", "1,30,1,30", "--out", workloads.OUT))
    with tempfile.TemporaryDirectory() as tmp:
        right = {op.key: observe_once(op, Path(tmp))}
    assert run.run_pass([op], run.run_child, right).failures == []
    assert run.run_pass([op], run.run_child, {}).failures == [(op.key, ["no recorded answer"])]
    for field, wrong in (("exit", 2), ("out_sha256", "0" * 64)):
        answers = copy.deepcopy(right)
        answers[op.key][field] = wrong
        got = run.run_pass([op], run.run_child, answers)
        assert (got.attempted, len(got.failures)) == (1, 1)
    answers = copy.deepcopy(right)
    answers[op.key]["envelope"]["payload"]["visible_count"] += 1
    got = run.run_pass([op], run.run_child, answers)
    assert got.failures == [(op.key, ["envelope differs"])]


def test_oracle_catches_a_payload_that_disagrees_with_its_csv():
    op = SMALL[2]
    with tempfile.TemporaryDirectory() as tmp:
        got = observe_once(op, Path(tmp))
        assert checks.oracle(op, got, Path(tmp) / "out.csv", random.Random(0)) == []
        got["envelope"]["payload"]["visible_count"] += 1
        assert checks.oracle(op, got, Path(tmp) / "out.csv", random.Random(0)) == [
            "CSV visible column sum != visible_count"
        ]


def test_traced_counts_repeat_and_originals_come_back():
    from polyvis import cli, visibility

    before = (cli.main, cli.is_visible, visibility.ProfileCache.minimal_moduli)
    # as in run.py, an untraced pass first fills the process-wide prime table
    run.run_pass(SMALL, run.run_in_process, {})
    first, second = traced_pass(SMALL), traced_pass(SMALL)
    assert (cli.main, cli.is_visible, visibility.ProfileCache.minimal_moduli) == before
    assert {n: first[n] for n in COUNTS} == {n: second[n] for n in COUNTS}
    for name in ("census.passes", "census.rho.calls", "visibility.is_visible.calls", "construct.calls",
                 "geometry.csv.rows", "visibility.moduli_kept", "arith.factorize.calls"):
        assert first[name] > 0, name


def test_density_out_makes_three_passes_and_profiles_each_column_twice():
    got = traced_pass(SMALL[:1])
    assert got["census.passes"] == 3
    assert got["visibility.columns_computed"] == 120
    assert got["visibility.column_reuse"] == 0.5


def test_metric_names_match_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        n: spec[:2] for n, spec in workloads.PER_LAYER.items()
    }
    reported = set(traced_pass(SMALL[:1])) | {"proc.cpu_s", "proc.start_s", "trace.overhead_s"}
    assert reported == set(workloads.PER_LAYER)


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-dir")
    assert run.main(["--workload", "queries", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
