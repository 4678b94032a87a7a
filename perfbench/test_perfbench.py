"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

They show that tracing changes no output, that the output comparison can
fail, and that the declared metric names match what the runner reports.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TINY_FISHER = {
    "schema_version": 1,
    "scenarios": [
        {"id": "lin", "setting": "fisher", "mode": "poa", "sweep": [4], "seeds": [0],
         "deltas": [0.1, 0.2], "restarts": 2, "generator": {"goods": 2, "family": "linear"}},
        {"id": "ces", "setting": "fisher", "mode": "poa", "sweep": [4], "seeds": [0],
         "deltas": [0.1, 0.2], "restarts": 2,
         "generator": {"goods": 2, "family": "ces", "rho": 0.5}},
    ],
}


def load_reference(workload: str) -> dict:
    with open(HERE / "reference" / f"{workload}.json", encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def corpus_passes(tmp_path_factory):
    """One untraced and one traced pass of the wal_corpus part, seed block 0."""
    tmp = tmp_path_factory.mktemp("corpus")
    configs = workloads.write_configs("wal_corpus", 0, tmp / "configs")
    *_, plain = worker.one_pass(configs, tmp / "plain")
    tracer = tracing.Tracer()
    *_, traced = worker.one_pass(configs, tmp / "traced", tracer)
    return plain, traced, tracer.metrics()


def test_declared_names_match_the_runner():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        tracing.PER_LAYER
    )


def test_traced_pass_writes_identical_csvs(corpus_passes):
    plain, traced, layers = corpus_passes
    for name in plain:
        assert compare.csv_digests(plain[name]) == compare.csv_digests(traced[name])
        assert plain[name]["checks"] == traced[name]["checks"]
    assert layers["walrasian.query.slots.calls"] > 0
    assert layers["walrasian.query.assignment.calls"] > 0
    assert layers["walrasian.validate_outcome.calls"] > 0
    assert layers["sensitivity.probe.calls"] > 0


def test_traced_fisher_pass_writes_identical_csvs(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_FISHER))
    configs = [("tiny", path)]
    *_, plain = worker.one_pass(configs, tmp_path / "plain")
    tracer = tracing.Tracer()
    *_, traced = worker.one_pass(configs, tmp_path / "traced", tracer)
    assert compare.csv_digests(plain["tiny"]) == compare.csv_digests(traced["tiny"])
    layers = tracer.metrics()
    assert layers["fisher.solve_market.linear.calls"] > 0
    assert layers["fisher.solve_market.ces.calls"] > 0
    assert layers["fisher.solve_market.linear.iters_max"] > 0
    assert layers["fisher.strategic_outcome.calls"] > 0


def test_uninstall_restores_every_name():
    import marketlab.fisher as fisher
    import marketlab.harness as harness
    import marketlab.walrasian as walrasian

    before = (harness.solve_market, fisher.solve_market, walrasian.WelfareOracle.welfare)
    tracer = tracing.Tracer()
    tracer.install()
    assert harness.solve_market is not before[0] and fisher.solve_market is not before[1]
    tracer.uninstall()
    assert (harness.solve_market, fisher.solve_market, walrasian.WelfareOracle.welfare) == before


def test_outputs_match_the_reference(corpus_passes):
    plain, _, _ = corpus_passes
    ref = load_reference("wal_corpus")["blocks"]["0"]
    for name, snap in plain.items():
        assert compare.mismatched_rows(snap, ref[name]) == 0
        assert compare.verdict_regressions(snap, ref[name]) == 0


def test_corrupted_digest_is_a_mismatch(corpus_passes):
    plain, _, _ = corpus_passes
    ref = copy.deepcopy(load_reference("wal_corpus")["blocks"]["0"])
    entry = next(iter(ref["walrasian_validity"]["csv"].values()))
    entry["sha256"] = "0" * 64
    assert compare.mismatched_rows(plain["walrasian_validity"], ref["walrasian_validity"]) >= 1
    entry["rows"][0][-1] = "999"
    assert compare.mismatched_rows(plain["walrasian_validity"], ref["walrasian_validity"]) == 1


def test_tolerant_cells_and_failed_tasks():
    ref = load_reference("fisher")
    tol, soft = ref["tolerance"], ref["tolerant_columns"]["fisher_iterative"]
    want = ref["blocks"]["0"]["fisher_iterative"]
    assert ["lin_poa", "8", "1"] in want["failed_tasks"]
    got = copy.deepcopy(want)
    assert compare.mismatched_rows(got, want, soft, tol) == 0
    table = next(iter(got["csv"].values()))
    first, col = table["rows"][0], table["columns"].index("ratio_gm")
    cell = first[col]
    first[col] = repr(float(cell) + 1e-9)
    assert compare.mismatched_rows(got, want, soft, tol) == 0
    first[col] = repr(float(cell) + 1e-3)
    assert compare.mismatched_rows(got, want, soft, tol) == 1
    first[col] = cell
    revived = list(first)
    revived[0], revived[1], revived[3] = "lin_poa", "8", "1"
    table["rows"].append(revived)  # the task that failed in the reference now has a row
    assert compare.mismatched_rows(got, want, soft, tol) == 0
    stray = list(first)
    stray[3] = "7"
    table["rows"].append(stray)
    assert compare.mismatched_rows(got, want, soft, tol) == 1


def test_new_failure_is_a_verdict_regression(corpus_passes):
    plain, _, _ = corpus_passes
    ref = load_reference("wal_corpus")["blocks"]["0"]["walrasian_oracle"]
    snap = copy.deepcopy(plain["walrasian_oracle"])
    snap["checks"][0][2] = False
    assert compare.verdict_regressions(snap, ref) == 1
    assert compare.verdict_regressions(ref, snap) == 0


def test_fisher_timed_runs_keep_block_zero():
    assert {workloads.seed_block("fisher", seed) for seed in range(20)} == {0}
    assert workloads.seed_block("wal_corpus", 19) == 19 % workloads.SEED_BLOCKS
    for name in workloads.WORKLOADS:
        ref = load_reference(name)
        assert list(ref["blocks"]) == [str(k) for k in workloads.recorded_blocks(name)]
        assert all(list(b) == [workloads.label(s) for s in workloads.sources(name)]
                   for b in ref["blocks"].values())
    assert len(workloads.recorded_blocks("fisher")) > 1


def test_block_without_reference_is_refused(capsys):
    assert run.main(["--workload", "fisher", "--seed", "0", "--seconds", "1",
                     "--block", str(len(workloads.recorded_blocks("fisher")))]) == 1
    assert '"correct"' not in capsys.readouterr().out


def test_import_tree_attributes_nested_modules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.optimize._a",
        "import time:        50 |        150 |     scipy.optimize",
        "import time:        30 |        180 |   scipy.stats._core",
        "import time:        20 |        200 | scipy.stats",
        "import time:        40 |         40 |   numpy.core",
        "import time:        10 |         10 |     marketlab.errors",
        "import time:         5 |         55 |   marketlab",
    ])
    got = run.import_tree(log)
    assert got["setup.import.scipy_stats_s"] == pytest.approx(200e-6)
    assert got["setup.import.scipy_optimize_s"] == pytest.approx(150e-6)
    assert got["setup.import.numpy_s"] == pytest.approx(40e-6)
    assert got["setup.import.marketlab_s"] == pytest.approx(15e-6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fisher", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
