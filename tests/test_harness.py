import copy
import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marketlab
from marketlab import fisher, harness, strategic, walrasian
from marketlab.cli import main
from marketlab.errors import CheckFailure, ScenarioError, SolverError
from marketlab.harness import (
    _MODES,
    _enumerated_welfare,
    _fmt,
    _random_gs_market,
    audit_assumptions,
    bundled_scenarios,
    load_config,
    parse_config,
    run_config,
)
from marketlab.walrasian import max_welfare
from oracles import (
    reference_audit,
    reference_draw_bidders,
    reference_parse_config,
    reference_welfare_draws,
)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tiny_validity(instances=20, **extra):
    sc = {
        "id": "tiny_validity",
        "setting": "walrasian",
        "mode": "validity",
        "sweep": [instances],
        "seeds": [0],
    }
    sc.update(extra)
    return {"schema_version": 1, "scenarios": [sc]}


# -- schema --------------------------------------------------------------------


def test_schema_rejects_unknown_keys_with_paths():
    with pytest.raises(ScenarioError, match=r"config: unknown key 'extra'"):
        parse_config({"schema_version": 1, "scenarios": [], "extra": 1})
    doc = tiny_validity()
    doc["scenarios"][0]["surprise"] = True
    with pytest.raises(ScenarioError, match=r"scenarios\[0\]: unknown key 'surprise'"):
        parse_config(doc)


def test_schema_rejects_wrong_version_and_empty_lists():
    with pytest.raises(ScenarioError, match="schema_version"):
        parse_config({"schema_version": 2, "scenarios": [{}]})
    with pytest.raises(ScenarioError, match="must be non-empty"):
        parse_config({"schema_version": 1, "scenarios": []})
    doc = tiny_validity()
    doc["scenarios"][0]["sweep"] = []
    with pytest.raises(ScenarioError, match=r"sweep: must be non-empty"):
        parse_config(doc)
    doc = tiny_validity()
    del doc["scenarios"][0]["seeds"]
    with pytest.raises(ScenarioError, match="missing required key 'seeds'"):
        parse_config(doc)


def test_schema_rejects_duplicate_ids():
    doc = tiny_validity()
    doc["scenarios"].append(dict(doc["scenarios"][0]))
    with pytest.raises(ScenarioError, match="duplicate id"):
        parse_config(doc)


def test_schema_rejects_bad_rule_combinations():
    base = {
        "id": "p",
        "setting": "walrasian",
        "mode": "poa_sweep",
        "sweep": [8],
        "seeds": [0],
        "generator": {
            "family": "unit",
            "goods": 1,
            "values": {"kind": "uniform", "low": 0.5, "high": 1.0},
            "supply": {"kind": "binomial", "prob": 0.5},
        },
        "grid": {"scales": [0.0, 1.0]},
        "assumptions": {"zeta": 1.0, "rho_prime": 0.5},
    }
    doc = {"schema_version": 1, "scenarios": [dict(base, rule="mix")]}
    with pytest.raises(ScenarioError, match="missing required key 'lam'"):
        parse_config(doc)
    doc = {"schema_version": 1, "scenarios": [dict(base, lam=0.5)]}
    with pytest.raises(ScenarioError, match="only the mix rule"):
        parse_config(doc)
    bad_grid = dict(base, grid={"scales": [0.0, 0.5]})
    with pytest.raises(ScenarioError, match="truthful scale"):
        parse_config({"schema_version": 1, "scenarios": [bad_grid]})


def test_schema_rejects_generator_mistakes():
    gen = {
        "family": "unit",
        "goods": 2,
        "cap": 2,
        "values": {"kind": "uniform", "low": 0.5, "high": 1.0},
        "supply": {"kind": "binomial", "prob": 0.5},
    }
    base = {
        "id": "p",
        "setting": "walrasian",
        "mode": "poa_sweep",
        "sweep": [8],
        "seeds": [0],
        "generator": gen,
        "grid": {"scales": [1.0]},
        "assumptions": {"zeta": 1.0, "rho_prime": 0.5},
    }
    with pytest.raises(ScenarioError, match="unit-demand bidders hold one item"):
        parse_config({"schema_version": 1, "scenarios": [base]})
    gen2 = dict(gen, family="kdemand", supply={"kind": "fixed", "counts": [3]})
    with pytest.raises(ScenarioError, match="one count per good"):
        parse_config({"schema_version": 1, "scenarios": [dict(base, generator=gen2)]})
    gen3 = dict(gen, family="kdemand", values={"kind": "pareto", "shape": 0.9, "scale": 1.0})
    with pytest.raises(ScenarioError, match="finite mean"):
        parse_config({"schema_version": 1, "scenarios": [dict(base, generator=gen3)]})


def test_schema_rejects_negative_budget_with_index():
    doc = {
        "schema_version": 1,
        "scenarios": [
            {
                "id": "f",
                "setting": "fisher",
                "mode": "poa",
                "sweep": [4],
                "seeds": [0],
                "generator": {"goods": 2, "family": "linear", "budgets": [1.0, -2.0]},
            }
        ],
    }
    with pytest.raises(ScenarioError, match=r"generator\.budgets\[1\]: must be > 0"):
        parse_config(doc)


def test_schema_checks_fisher_family_params():
    sc = {
        "id": "f",
        "setting": "fisher",
        "mode": "poa",
        "sweep": [4],
        "seeds": [0],
        "generator": {"goods": 2, "family": "ces"},
    }
    with pytest.raises(ScenarioError, match="missing required key 'rho'"):
        parse_config({"schema_version": 1, "scenarios": [sc]})
    sc2 = dict(sc, generator={"goods": 2, "family": "linear", "rho": 0.5})
    with pytest.raises(ScenarioError, match="only the ces family"):
        parse_config({"schema_version": 1, "scenarios": [sc2]})


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,\n  "scenarios": [}')
    with pytest.raises(ScenarioError, match=r"broken\.json:2:"):
        load_config(str(path))
    with pytest.raises(ScenarioError, match="neither a file nor a bundled"):
        load_config("definitely_not_here")


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ScenarioError, match=r"binary\.json: 'utf-8' codec can't decode"):
        load_config(str(path))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is False and "binary.json" in summary["error"]


def test_bundled_scenarios_resolve():
    names = bundled_scenarios()
    assert "walrasian_binomial_sweep" in names
    assert "fisher_reserve" in names
    cfg = load_config("walrasian_bullying")
    scenarios = parse_config(cfg)
    assert scenarios[0].mode == "bullying"
    for sc in scenarios:
        assert (sc.setting, sc.mode) in _MODES


# -- helpers -------------------------------------------------------------------


def test_cell_formatting():
    assert _fmt(None) == "N/A"
    assert _fmt(True) == "1"
    assert _fmt(0.1) == "0.1"
    assert _fmt(float("-inf")) == "-inf"
    assert _fmt(1 / 3) == "0.333333333333"
    assert _fmt("english") == "english"


def test_enumerated_welfare_matches_flow_oracle():
    rng = np.random.default_rng(11)
    gen = {"max_bidders": 4, "max_goods": 3, "max_cap": 2, "max_copies": 3, "low": 0.1, "high": 1.0}
    for _ in range(40):
        bids, supply = _random_gs_market(rng, gen)
        assert abs(max_welfare(bids, supply)[0] - _enumerated_welfare(bids, supply)) <= 1e-9


def test_audit_flags_deterministic_supply():
    gen = {
        "family": "unit",
        "goods": 1,
        "values": {"kind": "uniform", "low": 0.5, "high": 1.0},
        "supply": {"kind": "fixed", "counts": [3]},
    }
    audit = audit_assumptions(gen, {"zeta": 1.0, "rho_prime": 0.5}, 4, 4, np.random.SeedSequence(0))
    assert audit.point_mass_flag
    assert audit.suppress_bounds
    assert audit.bounded_value_ok


def test_audit_accepts_heavy_tail_in_expectation():
    gen = {
        "family": "unit",
        "goods": 1,
        "values": {"kind": "pareto", "shape": 3.0, "scale": 0.5},
        "supply": {"kind": "binomial", "prob": 0.5},
    }
    # mean item value is scale * shape / (shape - 1) = 0.75 despite unbounded support
    audit = audit_assumptions(gen, {"zeta": 1.0, "rho_prime": 0.5}, 16, 16, np.random.SeedSequence(1))
    assert audit.bounded_value_ok
    assert not audit.suppress_bounds
    tight = audit_assumptions(gen, {"zeta": 0.5, "rho_prime": 0.25}, 16, 16, np.random.SeedSequence(1))
    assert not tight.bounded_value_ok
    assert tight.suppress_bounds


@pytest.mark.parametrize(
    "values",
    [{"kind": "uniform", "low": 0.5, "high": 1.0}, {"kind": "pareto", "shape": 3.0, "scale": 0.5}],
)
def test_one_good_audit_equals_the_oracle_loop(values):
    """The audit's welfare draws read off sorted slots equal one
    WelfareOracle per drawn market, on every field; two goods still ask
    the oracle."""
    assumptions = {"zeta": 0.8, "rho_prime": 0.5}
    for family, cap, goods in (
        ("unit", 1, 1), ("kdemand", 1, 1), ("kdemand", 2, 1), ("kdemand", 3, 1), ("kdemand", 2, 2),
    ):
        for supply in ({"kind": "fixed", "counts": [3] * goods}, {"kind": "binomial", "prob": 0.3}):
            # Two goods stop at 16 bidders, inside the assignment path's limit.
            for n, bidders in ((1, 1), (2, 5), (7, 7), (16, 3), (16, 16) if goods > 1 else (64, 64)):
                gen = {"family": family, "goods": goods, "values": values, "supply": supply}
                if family == "kdemand":
                    gen["cap"] = cap
                seq = np.random.SeedSequence((n, cap, goods))
                got = audit_assumptions(gen, assumptions, n, bidders, seq)
                want = reference_audit(gen, assumptions, n, bidders, seq)
                assert dataclasses.asdict(got) == dataclasses.asdict(want), (gen, n, bidders)
                # Each draw to the bit, and the generator left where the loop leaves it.
                model = harness._build_model(gen, n)
                rng, ref = np.random.default_rng(seq), np.random.default_rng(seq)
                draws = harness._optimal_welfare_draws(rng, gen, model, bidders, 200)
                assert draws.tolist() == reference_welfare_draws(ref, gen, model, bidders, 200)
                assert rng.random() == ref.random()


def small_sweep(sweep=(4, 5), seeds=(0, 1, 2), goods=1):
    return {
        "schema_version": 1,
        "scenarios": [
            {
                "id": "sweep",
                "setting": "walrasian",
                "mode": "poa_sweep",
                "sweep": list(sweep),
                "seeds": list(seeds),
                "generator": {
                    "family": "unit",
                    "goods": goods,
                    "bidders": "sweep",
                    "values": {"kind": "uniform", "low": 0.5, "high": 1.0},
                    "supply": {"kind": "binomial", "prob": 0.5},
                },
                "grid": {"scales": [0.5, 1.0]},
                "assumptions": {"zeta": 1.0, "rho_prime": 0.5},
            }
        ],
    }


def test_audit_runs_once_per_sweep_point(tmp_path, monkeypatch):
    """The parent audits each sweep point once before the tasks, serial or
    under --jobs, and no worker audits anything."""
    log = tmp_path / "audits.log"

    def counted(gen, assumptions, sweep_n, bidders, seq):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {sweep_n}\n")
        return audit_assumptions(gen, assumptions, sweep_n, bidders, seq)

    monkeypatch.setattr(harness, "audit_assumptions", counted)
    cfg = write_config(tmp_path, small_sweep())
    summaries = {}
    for name, jobs in (("serial", 1), ("parallel", 2)):
        log.write_text("")
        run_config(cfg, out_dir=str(tmp_path / name), jobs=jobs)
        assert log.read_text().splitlines() == [f"{os.getpid()} 4", f"{os.getpid()} 5"], name
        summaries[name] = json.loads((tmp_path / name / "summary.json").read_text())
    details = [c["detail"] for c in summaries["serial"]["scenarios"][0]["checks"] if c["name"] == "poa-bound"]
    assert len(details) == 6 and all(d.endswith(", search exhaustive") for d in details)
    serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
    assert serial == (tmp_path / "parallel" / "sweep.csv").read_bytes()
    audits = [sc["audits"] for sc in summaries["serial"]["scenarios"]]
    assert [[a["sweep"] for a in point] for point in audits] == [[4, 5]]
    assert audits == [sc["audits"] for sc in summaries["parallel"]["scenarios"]]


@pytest.mark.parametrize("jobs", (1, 2))
def test_a_failed_audit_fails_every_seed_of_its_point(tmp_path, monkeypatch, jobs):
    def failing(gen, assumptions, sweep_n, bidders, seq):
        if sweep_n == 5:
            raise SolverError("audit diverged")
        return audit_assumptions(gen, assumptions, sweep_n, bidders, seq)

    monkeypatch.setattr(harness, "audit_assumptions", failing)
    with pytest.raises(CheckFailure) as err:
        run_config(write_config(tmp_path, small_sweep()), out_dir=str(tmp_path / "out"), jobs=jobs)
    (sc,) = err.value.report.scenarios
    failed = [(c.name, c.detail) for c in sc.checks if not c.passed]
    assert failed == [
        ("poa_sweep-internal", f"sweep=5 seed={seed}: SolverError: audit diverged") for seed in (0, 1, 2)
    ]
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1:3] for row in rows] == [["4", "0"], ["4", "1"], ["4", "2"]]
    assert [a.sweep for a in sc.audits] == [4]


def test_a_failed_first_seed_keeps_its_points_audit(tmp_path, monkeypatch):
    def diverged(*args, **kwargs):
        raise SolverError("walks diverged")

    monkeypatch.setattr(harness, "worst_equilibrium", diverged)
    with pytest.raises(CheckFailure):
        run_config(write_config(tmp_path, small_sweep(sweep=(4,), seeds=(0,))), out_dir=str(tmp_path / "out"))
    (sc,) = json.loads((tmp_path / "out" / "summary.json").read_text())["scenarios"]
    assert [c["name"] for c in sc["checks"]] == ["poa_sweep-internal"]
    assert [a["sweep"] for a in sc["audits"]] == [4]


@pytest.mark.parametrize(
    "doc, name, matrix",
    (
        (
            tiny_validity(instances=3, seeds=[0, 1], generator={"max_bidders": 60, "max_copies": 60}),
            "validity-size-limit", "59 x 107",
        ),
        (small_sweep(sweep=(64,), seeds=(0, 1), goods=2), "poa_sweep-size-limit", "64 x 71"),
    ),
)
def test_a_size_limit_on_a_valid_config_is_a_failing_check(tmp_path, capsys, doc, name, matrix):
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    (sc,) = json.loads((out / "summary.json").read_text())["scenarios"]
    hits = [c for c in sc["checks"] if c["name"] == name]
    assert hits and not any(c["passed"] for c in hits)
    sweep = doc["scenarios"][0]["sweep"][0]
    assert hits[0]["detail"].startswith(f"sweep={sweep} seed=0: SizeLimitError: ")
    assert f"{matrix} matrix" in hits[0]["detail"]


def test_an_overflowing_audit_estimate_is_not_bounded(tmp_path):
    """Pareto draws near 1e300 overflow the standard error to inf: a 3-SE
    slack that large bounds nothing, so neither upper-bound flag passes."""
    doc = small_sweep(sweep=(1,), seeds=(0,))
    doc["scenarios"][0]["generator"]["values"] = {"kind": "pareto", "shape": 1.01, "scale": 1e300}
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        run_config(write_config(tmp_path, doc), out_dir=str(out))
    (sc,) = json.loads((out / "summary.json").read_text())["scenarios"]
    (audit,) = sc["audits"]
    assert audit["zeta_hat"] > 1e300 and audit["zeta"] == 1.0
    assert not audit["bounded_value_ok"] and not audit["item_expectation_cap_ok"]
    assert audit["suppress_bounds"]


# -- end to end ----------------------------------------------------------------


def test_run_config_writes_csv_and_summary(tmp_path):
    doc = {
        "schema_version": 1,
        "scenarios": [
            {
                "id": "bully",
                "setting": "walrasian",
                "mode": "bullying",
                "sweep": [1],
                "seeds": [0],
            },
            {
                "id": "small_poa",
                "setting": "fisher",
                "mode": "poa",
                "sweep": [4],
                "seeds": [0],
                "deltas": [0.2],
                "generator": {"goods": 2, "family": "cobb_douglas"},
            },
        ],
    }
    report = run_config(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"))
    assert report.passed
    bully_csv = (tmp_path / "out" / "bully.csv").read_text()
    lines = bully_csv.splitlines()
    assert lines[0] == "scenario,N,seed,rule,ratio,bound_sqrt,bound_log,certification,regret"
    assert lines[1] == "bully,1,0,english,0.1,N/A,N/A,exact-nash,N/A"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"]
    assert [s["id"] for s in summary["scenarios"]] == ["bully", "small_poa"]
    assert summary["scenarios"][0]["audits"][0]["point_mass_flag"]
    fisher_csv = (tmp_path / "out" / "small_poa.csv").read_text().splitlines()
    assert fisher_csv[0] == "scenario,L,m,seed,family,ratio_gm,ratio_sum,bound,equilibria"


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, tiny_validity())
    run_config(cfg, out_dir=str(tmp_path / "a"))
    run_config(cfg, out_dir=str(tmp_path / "b"))
    run_config(cfg, out_dir=str(tmp_path / "c"), jobs=3)
    a = (tmp_path / "a" / "tiny_validity.csv").read_bytes()
    assert a == (tmp_path / "b" / "tiny_validity.csv").read_bytes()
    assert a == (tmp_path / "c" / "tiny_validity.csv").read_bytes()


def test_summary_times_the_run_and_its_tasks(tmp_path):
    cfg = write_config(tmp_path, tiny_validity(seeds=[0, 1, 2]))
    out = tmp_path / "out"
    run_config(cfg, out_dir=str(out))
    serial = json.loads((out / "summary.json").read_text())
    csv = (out / "tiny_validity.csv").read_bytes()
    run_config(cfg, out_dir=str(out), jobs=2)
    parallel = json.loads((out / "summary.json").read_text())
    assert (out / "tiny_validity.csv").read_bytes() == csv
    for summary in (serial, parallel):
        assert summary["wall_time_s"] >= 0.0
        assert all(sc["task_seconds"] >= 0.0 for sc in summary["scenarios"])

    def untimed(summary):
        scenarios = [
            {key: v for key, v in sc.items() if key != "task_seconds"}
            for sc in summary["scenarios"]
        ]
        return {**summary, "wall_time_s": None, "scenarios": scenarios}

    # The timings are the only fields allowed to differ.
    assert untimed(serial) == untimed(parallel)


def test_jobs_start_at_most_one_worker_per_task(tmp_path, monkeypatch):
    """The pool forks every worker at its first submit, so --jobs 64 on two
    tasks must ask for two; a fake pool records the request and maps serially."""
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    # Also under the harness's own name, so that a module-level import there
    # fails this test without forking 64 real workers.
    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool, raising=False)
    cfg = write_config(tmp_path, tiny_validity(seeds=[0, 1]))
    run_config(cfg, out_dir=str(tmp_path / "serial"))
    run_config(cfg, out_dir=str(tmp_path / "pooled"), jobs=64)
    assert asked == [2]
    csv = (tmp_path / "serial" / "tiny_validity.csv").read_bytes()
    assert csv == (tmp_path / "pooled" / "tiny_validity.csv").read_bytes()


def test_seed_override_and_filter(tmp_path):
    doc = tiny_validity()
    doc["scenarios"].append({
        "id": "other",
        "setting": "walrasian",
        "mode": "oracle",
        "sweep": [5],
        "seeds": [0],
    })
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    run_config(cfg, out_dir=str(out), seed_override=9, only="tiny_validity")
    rows = (out / "tiny_validity.csv").read_text().splitlines()
    assert all(line.split(",")[2] == "9" for line in rows[1:])
    assert not (out / "other.csv").exists()
    with pytest.raises(ScenarioError, match="no scenario with id"):
        run_config(cfg, out_dir=str(out), only="missing")


def test_failed_check_raises_but_leaves_evidence(tmp_path):
    doc = {
        "schema_version": 1,
        "scenarios": [
            {
                "id": "thin",
                "setting": "walrasian",
                "mode": "lemmas",
                "sweep": [3],
                "seeds": [0],
                "min_applied": 999,
            }
        ],
    }
    with pytest.raises(CheckFailure, match="coverage-") as err:
        run_config(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"))
    report = err.value.report
    assert not report.passed
    assert report.failed_checks()
    assert (tmp_path / "out" / "thin.csv").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert not summary["passed"]


def test_cli_exit_codes(tmp_path, capsys):
    ok_cfg = write_config(tmp_path, tiny_validity(instances=5))
    assert main(["run", ok_cfg, "--out", str(tmp_path / "o1")]) == 0
    out = capsys.readouterr().out
    assert "tiny_validity: PASS" in out

    bad = {"schema_version": 1, "scenarios": [{"id": "x"}]}
    assert main(["run", write_config(tmp_path, bad, "bad.json"), "--out", str(tmp_path / "o2")]) == 2
    assert "missing required key" in capsys.readouterr().err

    failing = {
        "schema_version": 1,
        "scenarios": [
            {"id": "thin", "setting": "walrasian", "mode": "lemmas",
             "sweep": [2], "seeds": [0], "min_applied": 999}
        ],
    }
    assert main(["run", write_config(tmp_path, failing, "f.json"), "--out", str(tmp_path / "o3")]) == 1
    assert "check failed" in capsys.readouterr().err

    assert main(["run", "nowhere_at_all", "--out", str(tmp_path / "o4")]) == 2
    capsys.readouterr()
    assert main(["run", ok_cfg, "--jobs", "0", "--out", str(tmp_path / "o5")]) == 2
    summary = json.loads((tmp_path / "o5" / "summary.json").read_text())
    assert summary["passed"] is False
    assert summary["error"] == "--jobs: must be >= 1"


def test_cli_config_error_writes_failed_summary(tmp_path, capsys, monkeypatch):
    bad = {"schema_version": 1, "scenarios": [{"id": "x"}]}
    cfg = write_config(tmp_path, bad, "bad.json")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is False
    assert summary["scenarios"] == []
    assert "missing required key" in summary["error"]
    assert f"scenario error: {summary['error']}" in err

    # Without --out the summary goes where a run would put it.
    monkeypatch.setenv(harness.OUT_ENV, str(tmp_path / "env_out"))
    assert main(["run", "nowhere_at_all"]) == 2
    summary = json.loads((tmp_path / "env_out" / "summary.json").read_text())
    assert summary["passed"] is False
    assert "nowhere_at_all" in summary["error"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid, where",
    (
        ({"scales": [0.5, 1.0, 0.5]}, "grid.scales"),
        ({"scales": [1.0], "offsets": [0.0, 0.25, 0.25]}, "grid.offsets"),
    ),
)
def test_cli_rejects_duplicate_grid_entries(tmp_path, capsys, grid, where):
    doc = {
        "schema_version": 1,
        "scenarios": [
            {
                "id": "dup",
                "setting": "walrasian",
                "mode": "regret",
                "sweep": [4],
                "seeds": [0],
                "players": 2,
                "rounds": 10,
                "generator": {
                    "family": "unit",
                    "goods": 1,
                    "values": {"kind": "uniform", "low": 0.5, "high": 1.0},
                    "supply": {"kind": "binomial", "prob": 0.5},
                },
                "grid": grid,
                "assumptions": {"zeta": 1.0, "rho_prime": 0.5},
            }
        ],
    }
    with pytest.raises(ScenarioError, match="repeat"):
        parse_config(doc)
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"scenarios[0].{where}: must not repeat an entry" in err
    assert "Traceback" not in err


def test_regret_mode_emits_display_columns(tmp_path):
    doc = {
        "schema_version": 1,
        "scenarios": [
            {
                "id": "reg",
                "setting": "walrasian",
                "mode": "regret",
                "sweep": [24],
                "seeds": [0],
                "players": 8,
                "rounds": 400,
                "generator": {
                    "family": "unit",
                    "goods": 1,
                    "values": {"kind": "uniform", "low": 0.5, "high": 1.0},
                    "supply": {"kind": "binomial", "prob": 0.5},
                },
                "grid": {"scales": [0.5, 1.0]},
                "assumptions": {"zeta": 1.0, "rho_prime": 0.5},
            }
        ],
    }
    report = run_config(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"))
    names = [c.name for c in report.scenarios[0].checks]
    assert "regret-budget" in names
    assert "regret-display" in names
    row = (tmp_path / "out" / "reg.csv").read_text().splitlines()[1].split(",")
    assert row[7] == "no-regret"
    assert float(row[8]) >= 0.0


# -- schema fuzz ---------------------------------------------------------------

# Each bundled scenario, shrunk so that a run takes a fraction of a second.
_TINY = {
    "fisher_poa": {"sweep": [2], "restarts": 1},
    "fisher_regret": {"sweep": [2], "rounds": 20},
    "fisher_reserve": {"sweep": [2], "compress_trials": 2},
    "walrasian_binomial_sweep": {"sweep": [2, 3], "restarts": 2},
    "walrasian_bullying": {},
    "walrasian_lemma_suite": {"sweep": [3], "min_applied": 1},
    "walrasian_oracle": {"sweep": [3]},
    "walrasian_regret": {"sweep": [4], "players": 2, "rounds": 20},
    "walrasian_validity": {"sweep": [3]},
}


def tiny_config(name):
    doc = load_config(name)
    for sc in doc["scenarios"]:
        sc.update(copy.deepcopy(_TINY[name]), seeds=[0])
    return doc


# Scenario keys with values some tiny scenario gives them, for adding a key
# that another mode takes.
_FOREIGN = sorted(
    {
        (key, json.dumps(val))
        for name in _TINY
        for sc in tiny_config(name)["scenarios"]
        for key, val in sc.items()
        if key not in ("id", "setting", "mode", "sweep", "seeds")
    }
)
_MODE_NAMES = ("poa_sweep", "validity", "lemmas", "bullying", "regret", "oracle", "poa", "reserve", "bogus")


def _paths(obj, prefix=()):
    """The path of every key and list entry in a scenario, nested ones too."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, val in items:
        yield prefix + (key,)
        if isinstance(val, (dict, list)):
            yield from _paths(val, prefix + (key,))


def _mutate(data, sc):
    """Apply one mutation to a scenario: drop a key, give a value of the wrong
    type or out of range, add an unknown key, or name a bad mode."""
    kind = data.draw(st.sampled_from(("drop", "type", "range", "unknown", "mode")))
    if kind == "mode":
        sc["mode"] = data.draw(st.sampled_from(_MODE_NAMES))
        return
    if kind == "unknown":
        blocks = [()] + [p for p in _paths(sc) if isinstance(_at(sc, p), dict)]
        where = data.draw(st.sampled_from(blocks))
        if where == ():
            key, val = data.draw(st.sampled_from(_FOREIGN + [("surprise", "1")]))
        else:
            key, val = "surprise", "1"
        _at(sc, where)[key] = json.loads(val)
        return
    path = data.draw(st.sampled_from(list(_paths(sc))))
    parent = _at(sc, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "type":
        parent[path[-1]] = data.draw(st.sampled_from(("x", 1.5, True, None, [1], {"a": 1})))
    elif isinstance(parent[path[-1]], str):
        parent[path[-1]] = "bogus"
    else:
        parent[path[-1]] = data.draw(st.sampled_from((-1, 0, -0.5, 1.5, math.inf, -math.inf, math.nan)))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _contains(new, ref) -> bool:
    """Whether every key of ``ref`` is in ``new`` with the same value, recursively."""
    if isinstance(ref, dict):
        return isinstance(new, dict) and all(k in new and _contains(new[k], v) for k, v in ref.items())
    return new == ref


def _outcome(parse, doc):
    try:
        return parse(doc), None
    except ScenarioError as e:
        return None, str(e)


@given(st.data())
@settings(max_examples=400)
def test_schema_matches_the_reference_on_mutated_configs(data):
    name = data.draw(st.sampled_from(sorted(_TINY)))
    doc = tiny_config(name)
    _mutate(data, doc["scenarios"][data.draw(st.integers(0, len(doc["scenarios"]) - 1))])
    frozen = copy.deepcopy(doc)
    want, want_err = _outcome(reference_parse_config, copy.deepcopy(doc))
    got, got_err = _outcome(parse_config, doc)
    assert got_err == want_err
    assert doc == frozen
    if want is None:
        return
    for new, ref in zip(got, want, strict=True):
        assert (new.index, new.id, new.setting, new.mode, new.sweep, new.seeds, new.csv) == (
            ref.index, ref.id, ref.setting, ref.mode, ref.sweep, ref.seeds, ref.csv
        )
        assert _contains(new.spec, ref.spec)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), doc)
        try:
            run_config(cfg, out_dir=str(Path(tmp) / "out"))
        except CheckFailure:
            pass
        assert (Path(tmp) / "out" / "summary.json").is_file()


_AUCTION = {
    "family": "unit",
    "goods": 1,
    "values": {"kind": "uniform", "low": 0.5, "high": 1.0},
    "supply": {"kind": "binomial", "prob": 0.5},
}
_BOUNDS = {"assumptions": {"zeta": 1.0, "rho_prime": 0.5}}
_FILLED_AUCTION = {
    "generator": {**_AUCTION, "cap": 1, "bidders": "sweep"},
    "grid": {"scales": [1.0], "offsets": [0.0]},
    "rule": "english",
    "lam": None,
}
_FILLED_FISHER = {
    "generator": {"goods": 2, "family": "linear", "weight_low": 0.2, "weight_high": 1.0},
    "deltas": (0.05, 0.1, 0.2),
}


def _corpus(bidders, goods, copies, low):
    return {"max_bidders": bidders, "max_goods": goods, "max_cap": 2, "max_copies": copies, "low": low, "high": 1.0}


# Each mode with only its required keys, and the spec the schema makes of it:
# the defaults the task runners read when a config leaves a key out.
@pytest.mark.parametrize(
    "setting, mode, given, spec",
    (
        ("walrasian", "poa_sweep", {"generator": _AUCTION, "grid": {"scales": [1.0]}, **_BOUNDS},
         {**_FILLED_AUCTION, **_BOUNDS, "restarts": 32, "trend_check": False}),
        ("walrasian", "validity", {}, {"generator": _corpus(5, 3, 4, 0.1), "mix_weight": 0.5}),
        ("walrasian", "lemmas", {},
         {"generator": _corpus(5, 2, 8, 0.3), "lemmas": list(harness._LEMMAS), "min_applied": 0}),
        ("walrasian", "bullying", {}, {}),
        ("walrasian", "regret",
         {"generator": _AUCTION, "grid": {"scales": [1.0]}, "players": 2, "rounds": 5, **_BOUNDS},
         {**_FILLED_AUCTION, **_BOUNDS, "players": 2, "rounds": 5, "feedback": "full"}),
        ("walrasian", "oracle", {}, {"generator": _corpus(4, 3, 3, 0.1)}),
        ("fisher", "poa", {"generator": {"goods": 2, "family": "linear"}},
         {**_FILLED_FISHER, "restarts": 8, "rescale": True}),
        ("fisher", "reserve", {"generator": {"goods": 2, "family": "linear"}},
         {**_FILLED_FISHER, "restarts": 8, "reserve_fraction": 0.25, "compress_trials": 10}),
        ("fisher", "regret", {"generator": {"goods": 2, "family": "linear"}, "rounds": 5},
         {**_FILLED_FISHER, "rounds": 5, "reserve_fraction": 0.25}),
    ),
)
def test_a_left_out_key_takes_its_default(setting, mode, given, spec):
    doc = {"schema_version": 1, "scenarios": [
        {"id": "d", "setting": setting, "mode": mode, "sweep": [2], "seeds": [0], **copy.deepcopy(given)},
    ]}
    frozen = copy.deepcopy(doc)
    (sc,) = parse_config(doc)
    assert sc.spec == spec
    assert doc == frozen


def test_large_binomial_sweep_runs_through_the_cli(tmp_path, capsys):
    doc = tiny_config("walrasian_binomial_sweep")
    doc["scenarios"][0].update(sweep=[1100], restarts=1, grid={"scales": [0.5, 1.0]})
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenarios"][0]["rows"] == 1


def _regret_doc(values=None, grid=None):
    sc = {
        "id": "bad",
        "setting": "walrasian",
        "mode": "regret",
        "sweep": [4],
        "seeds": [0],
        "players": 2,
        "rounds": 10,
        "generator": {**_AUCTION, "values": values or _AUCTION["values"]},
        "grid": grid or {"scales": [1.0]},
        **_BOUNDS,
    }
    return {"schema_version": 1, "scenarios": [sc]}


def _fisher_doc(weight_high):
    generator = {"goods": 2, "family": "linear", "weight_high": weight_high}
    sc = {"id": "bad", "setting": "fisher", "mode": "poa", "sweep": [2], "seeds": [0], "generator": generator}
    return {"schema_version": 1, "scenarios": [sc]}


def _two_validity_scenarios(first, second):
    scenarios = [tiny_validity(2, **extra)["scenarios"][0] for extra in (first, second)]
    return {"schema_version": 1, "scenarios": scenarios}


_BAD_CSV = "scenarios[0].csv: must be a plain file name other than summary.json"


@pytest.mark.parametrize(
    "doc, error",
    (
        (_regret_doc(values={"kind": "uniform", "low": 0.5, "high": math.inf}),
         "scenarios[0].generator.values.high: must be a finite number, got inf"),
        (_regret_doc(grid={"scales": [1.0, math.inf]}), "scenarios[0].grid.scales[1]: must be a finite number, got inf"),
        (_regret_doc(grid={"scales": [1.0, math.nan]}), "scenarios[0].grid.scales[1]: must be a finite number, got nan"),
        (_fisher_doc(math.inf), "scenarios[0].generator.weight_high: must be a finite number, got inf"),
        (_fisher_doc(10**400), "scenarios[0].generator.weight_high: must be a finite number"),
        (tiny_validity(instances=2, csv=""), _BAD_CSV),
        (tiny_validity(instances=2, csv="nodir/x.csv"), _BAD_CSV),
        (tiny_validity(instances=2, csv=".."), _BAD_CSV),
        (tiny_validity(instances=2, csv="summary.json"), _BAD_CSV),
        (_two_validity_scenarios({"csv": "x.csv"}, {"id": "other", "csv": "x.csv"}),
         "scenarios[1].csv: duplicate csv 'x.csv' (also scenarios[0])"),
        # The second scenario's default name is its id.
        (_two_validity_scenarios({"csv": "other.csv"}, {"id": "other"}),
         "scenarios[1].csv: duplicate csv 'other.csv' (also scenarios[0])"),
    ),
)
def test_cli_rejects_non_finite_numbers_and_bad_csv_names(tmp_path, capsys, doc, error):
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config." + error in err
    assert "Traceback" not in err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False and error in summary["error"]
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


def test_cli_keeps_csv_files_inside_the_output_directory(tmp_path, capsys):
    outside = tmp_path / "outside.csv"
    doc = tiny_validity(instances=2, csv=str(outside))
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
    assert _BAD_CSV in capsys.readouterr().err
    assert not outside.exists()


@pytest.mark.parametrize(
    "values",
    ({"kind": "uniform", "low": 0.5, "high": 1.0}, {"kind": "pareto", "shape": 2.5, "scale": 0.4}),
)
@pytest.mark.parametrize("goods", (1, 2, 3))
@pytest.mark.parametrize("family, cap", (("unit", 1), ("kdemand", 2)))
def test_bidders_drawn_in_one_call_match_one_draw_per_bidder(values, goods, family, cap):
    gen = {"family": family, "goods": goods, "cap": cap, "values": values}
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    assert harness._draw_bidders(rng, gen, 7) == reference_draw_bidders(ref, gen, 7)
    assert rng.random() == ref.random()


def test_regret_budget_fails_when_regret_exceeds_the_budget(tmp_path, monkeypatch, capsys):
    doc = tiny_config("walrasian_regret")
    doc["scenarios"][0]["feedback"] = "bandit"
    learning_config = harness.LearningConfig
    # Budgets a billionth of the real ones, below any measured regret.
    monkeypatch.setattr(
        harness, "LearningConfig", lambda **kw: learning_config(**kw, regret_scale=2e-9)
    )
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    (budget,) = [c for c in summary["scenarios"][0]["checks"] if c["name"] == "regret-budget"]
    assert not budget["passed"] and "exceeds" in budget["detail"]
    assert not summary["passed"]


@pytest.mark.parametrize(
    "config, check", (("fisher_poa", "fisher-poa-bound"), ("fisher_reserve", "reserve-poa-bound"))
)
def test_fisher_floor_check_fails_below_the_floor(tmp_path, monkeypatch, capsys, config, check):
    ratio_pair = fisher._ratio_pair
    # Ratios a hundredth of the real ones, below every floor.
    monkeypatch.setattr(
        fisher, "_ratio_pair", lambda *args: tuple(r / 100.0 for r in ratio_pair(*args))
    )
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["passed"]
    for sc in summary["scenarios"]:
        names = [c["name"] for c in sc["checks"]]
        floors = [c for c in sc["checks"] if c["name"] == check]
        assert floors and not any(c["passed"] for c in floors)
        assert not any(name.endswith("-internal") for name in names)
        # One CSV row per task, each task failing its floor.
        with open(sc["csv"], encoding="utf-8") as f:
            assert len(f.readlines()) == 1 + len(floors)


def test_fisher_regret_display_fails_below_the_floor(tmp_path, monkeypatch, capsys):
    table = fisher._ReportGame.table
    # Payoffs a hundredth of the real ones: the average welfare falls below
    # the regret-adjusted floor, and no payoff exceeds its cap.
    monkeypatch.setattr(
        fisher._ReportGame, "table",
        lambda game, profiles, who: table(game, profiles, who) / 100.0,
    )
    out = tmp_path / "out"
    assert main(["run", "fisher_regret", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["passed"]
    (sc,) = summary["scenarios"]
    assert "regret-internal" not in [c["name"] for c in sc["checks"]]
    (display,) = [c for c in sc["checks"] if c["name"] == "fisher-regret-display"]
    assert not display["passed"]
    with open(sc["csv"], encoding="utf-8") as f:
        header, *rows = [line.rstrip("\n").split(",") for line in f]
    assert len(rows) == 1 and rows[0][header.index("holds")] == "0"


def test_regret_display_fails_below_a_positive_floor(tmp_path, monkeypatch, capsys):
    # A floor of 0.99 leaves a positive factor after the regret deficit of
    # 1,000 rounds, so the check is a real test: the learned welfare clears
    # it, and a hundredth of it falls below it.
    doc = tiny_config("walrasian_regret")
    doc["scenarios"][0]["rounds"] = 1000
    monkeypatch.setattr(harness, "ratio_bound_log", lambda *args: 0.99)
    config = write_config(tmp_path, doc)
    assert main(["run", config, "--out", str(tmp_path / "learned")]) == 0
    learn = harness.run_learning

    def thinned(*args, **kwargs):
        learned = learn(*args, **kwargs)
        return dataclasses.replace(learned, average_welfare=learned.average_welfare / 100.0)

    monkeypatch.setattr(harness, "run_learning", thinned)
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["passed"]
    (sc,) = summary["scenarios"]
    (display,) = [c for c in sc["checks"] if c["name"] == "regret-display"]
    assert not display["passed"] and "vacuous" not in display
    factor = float(display["detail"].split("factor ")[1].split(" ")[0])
    assert 0.0 < factor < 0.99
    assert sc["vacuous_checks"] == 0
    (budget,) = [c for c in sc["checks"] if c["name"] == "regret-budget"]
    assert budget["passed"]
    with open(sc["csv"], encoding="utf-8") as f:
        header, *rows = [line.rstrip("\n").split(",") for line in f]
    assert len(rows) == 1 and float(rows[0][header.index("bound_log")]) == 0.99


def test_kdemand_regret_payoff_bound_covers_the_offsets(tmp_path, capsys):
    # A k-demand bid adds its offset once per item, so with cap 2 a payment
    # reaches twice the largest offset, above any value or scaled weight.
    doc = {"schema_version": 1, "scenarios": [{
        "id": "kdemand_regret", "setting": "walrasian", "mode": "regret",
        "sweep": [4], "seeds": [0], "players": 3, "rounds": 50,
        "generator": {
            "family": "kdemand", "cap": 2, "goods": 1,
            "values": {"kind": "uniform", "low": 0.1, "high": 0.2},
            "supply": {"kind": "binomial", "prob": 0.5},
        },
        "grid": {"scales": [0.5, 1.0], "offsets": [0.0, 5.0]},
        "assumptions": {"zeta": 1.0, "rho_prime": 0.5},
    }]}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] and summary["scenarios"][0]["rows"] == 1


def _welfare_off_by_one(max_welfare):
    def mutant(bids, supply):
        welfare, allocation = max_welfare(bids, supply)
        return welfare + 1.0, allocation
    return mutant


def _shifted_prices(compress_prices):
    def mutant(*args):
        prices, t = compress_prices(*args)
        return tuple(p + 1.0 for p in prices), t
    return mutant


def _doubled_opt(expected_opt):
    return lambda ctx: 2.0 * expected_opt(ctx)


_NO_FISHER_EQUILIBRIUM = (
    fisher._ReportGame, "find_equilibria", lambda _: lambda game, rng, restarts: ({}, restarts + 1)
)

# A poa-bound floor the unbroken program clears at every tiny sweep point.
_POSITIVE_FLOOR = (harness, "ratio_bound_sqrt", lambda _: lambda *args: 0.99)


@pytest.mark.parametrize(
    "config, check, patches",
    (
        ("walrasian_oracle", "oracle-equivalence", [(harness, "max_welfare", _welfare_off_by_one)]),
        ("fisher_reserve", "compressed-prices", [(harness, "compress_prices", _shifted_prices)]),
        (
            "walrasian_binomial_sweep", "certified-equilibrium",
            [(harness, "worst_equilibrium", lambda _: lambda *args, **kw: (None, [], True, 0))],
        ),
        (
            "walrasian_bullying", "bullying-nash",
            [(
                strategic.GameContext, "certify",
                lambda _: lambda *args: strategic.Certification("not-equilibrium", 1.0, (0, 0)),
            )],
        ),
        # Every ratio halves: each one drops below the floor.
        (
            "walrasian_binomial_sweep", "poa-bound",
            [_POSITIVE_FLOOR, (strategic.GameContext, "expected_opt", _doubled_opt)],
        ),
        # Every best-reply walk is dropped.
        ("fisher_poa", "certified-equilibrium", [_NO_FISHER_EQUILIBRIUM]),
        ("fisher_reserve", "certified-equilibrium", [_NO_FISHER_EQUILIBRIUM]),
    ),
    ids=(
        "oracle-equivalence", "compressed-prices", "certified-equilibrium", "bullying-nash",
        "poa-bound", "fisher-certified-equilibrium", "reserve-certified-equilibrium",
    ),
)
def test_check_fails_on_a_broken_program(tmp_path, monkeypatch, capsys, config, check, patches):
    for owner, name, mutant in patches:
        monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, tiny_config(config)), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["passed"]
    for sc in summary["scenarios"]:
        failed = [c for c in sc["checks"] if c["name"] == check]
        assert failed and not any(c["passed"] for c in failed)
        # One CSV row per task, each task failing the check.
        with open(sc["csv"], encoding="utf-8") as f:
            assert len(f.readlines()) == 1 + len(failed) == 1 + sc["rows"]


def test_the_positive_poa_floor_passes_the_unbroken_program(tmp_path, monkeypatch):
    owner, name, mutant = _POSITIVE_FLOOR
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    out = tmp_path / "out"
    doc = tiny_config("walrasian_binomial_sweep")
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
    (sc,) = json.loads((out / "summary.json").read_text())["scenarios"]
    bounds = [c for c in sc["checks"] if c["name"] == "poa-bound"]
    assert len(bounds) == sc["rows"] and all(c["passed"] and "vacuous" not in c for c in bounds)


def test_ratio_trend_fails_when_the_worst_ratio_stays_low(tmp_path, monkeypatch, capsys):
    # The worst ratio is 0.5 at every N: no rise, and not near 1.
    def mutant(*args, **kw):
        worst, reports, complete, dropped = real(*args, **kw)
        return dataclasses.replace(worst, ratio=0.5), reports, complete, dropped

    real = harness.worst_equilibrium
    monkeypatch.setattr(harness, "worst_equilibrium", mutant)
    out = tmp_path / "out"
    doc = tiny_config("walrasian_binomial_sweep")
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["passed"]
    (sc,) = summary["scenarios"]
    verdicts = {}
    for c in sc["checks"]:
        verdicts.setdefault(c["name"], []).append(c["passed"])
    assert verdicts["ratio-trend"] == [False]
    assert verdicts["poa-bound"] == [True] * sc["rows"]
    assert "certified-equilibrium" not in verdicts  # listed only when it fails
    with open(sc["csv"], encoding="utf-8") as f:
        rows = f.readlines()[1:]
    assert len(rows) == sc["rows"] == 2


def test_auction_outputs_match_the_benchmark_reference(tmp_path):
    """The bundled Walrasian scenarios give the CSV bytes and check verdicts
    recorded in block 0 of the benchmark's auction references."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    ref = {}
    for workload in ("wal_corpus", "wal_strategic"):
        path = perfbench / "reference" / f"{workload}.json"
        ref.update(json.loads(path.read_text())["blocks"]["0"])
    assert set(ref) == {name for name in bundled_scenarios() if name.startswith("walrasian_")}
    for name, want in ref.items():
        report = run_config(name, out_dir=str(tmp_path / name))
        got = [[sc.id, c.name, c.passed] for sc in report.scenarios for c in sc.checks]
        assert got == want["checks"], name
        for csv_name, entry in want["csv"].items():
            data = (tmp_path / name / csv_name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"], csv_name


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fisher_outputs_match_the_benchmark_reference(tmp_path):
    """The bundled Fisher scenarios give the CSV bytes and check verdicts
    recorded in blocks 0 and 1 of the benchmark's Fisher reference.  The
    iterative-solver config matches block 0 as the benchmark judges it:
    its solver-derived ratio cells within the benchmark's tolerance, every
    other cell exact, new rows only for tasks that failed in the reference,
    and no check failing that passed there."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    workloads = _perfbench_module("workloads")
    compare = _perfbench_module("compare")
    blocks = json.loads((perfbench / "reference" / "fisher.json").read_text())["blocks"]
    configs = {
        "fisher_poa": "fisher_poa",
        "fisher_reserve": "fisher_reserve",
        "fisher_regret": "fisher_regret",
        "fisher_iterative": str(perfbench / "fisher_iterative.json"),
    }
    assert set(blocks["0"]) == set(configs)
    runs = [("0", name, config) for name, config in configs.items()]
    for name in ("fisher_poa", "fisher_reserve", "fisher_regret"):
        path = tmp_path / f"{name}_block1.json"
        path.write_text(json.dumps(workloads.shifted(load_config(name), 1)))
        runs.append(("1", name, str(path)))
    for block, name, config in runs:
        out = tmp_path / block / name
        try:
            report = run_config(config, out_dir=str(out))
        except CheckFailure as err:
            report = err.report
        ref = blocks[block][name]
        if name == "fisher_iterative":
            snap = compare.snapshot(out)
            soft = workloads.TOLERANT_COLUMNS[name]
            assert compare.mismatched_rows(snap, ref, soft, workloads.TOLERANCE) == 0
            assert compare.verdict_regressions(snap, ref) == 0
            continue
        got = [[sc.id, c.name, c.passed] for sc in report.scenarios for c in sc.checks]
        assert got == ref["checks"], (block, name)
        for csv_name, entry in ref["csv"].items():
            data = (out / csv_name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"], (block, csv_name)


def test_the_benchmark_tracer_finds_every_layer_it_wraps():
    """The benchmark's tracer wraps ``GameContext.stats``, ``best_response``,
    ``certify``, ``fisher.strategic_outcome`` and the other layers by name,
    so installing it fails when one is renamed away; uninstalling puts
    every original back."""
    tracing = _perfbench_module("tracing")
    modules = [m for n, m in sys.modules.items() if n == "marketlab" or n.startswith("marketlab.")]
    classes = (strategic.GameContext, walrasian.WelfareOracle)

    def snapshot():
        return [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]

    before = snapshot()
    methods, outcome = dict(vars(strategic.GameContext)), fisher.strategic_outcome
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name in ("stats", "best_response", "certify"):
            assert vars(strategic.GameContext)[name] is not methods[name], name
        assert fisher.strategic_outcome is not outcome
    finally:
        tracer.uninstall()
    assert snapshot() == before


def test_the_linear_task_that_ran_out_of_rounds_certifies(tmp_path):
    """``lin_poa`` L=8 seed=1 of the benchmark's iterative config, whose
    proportional response once hit the 10,000-round cap at duality gap
    1.151e-06, is finished exactly and certifies its equilibria."""
    config = Path(__file__).resolve().parents[1] / "perfbench" / "fisher_iterative.json"
    doc = json.loads(config.read_text())
    lin_poa = doc["scenarios"][0]
    assert lin_poa["id"] == "lin_poa" and lin_poa["sweep"] == [4, 8]
    doc["scenarios"] = [dict(lin_poa, seeds=[1])]
    out = tmp_path / "out"
    report = run_config(write_config(tmp_path, doc), out_dir=str(out))
    (sc,) = report.scenarios
    assert [(c.name, c.passed) for c in sc.checks] == [("fisher-poa-bound", True)] * 2
    assert sc.checks[1].detail.startswith("L=8 seed=1: ")
    with open(out / "lin_poa.csv", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert [(r["L"], r["seed"]) for r in rows] == [("4", "1"), ("8", "1")]
    assert int(rows[1]["equilibria"]) >= 1


def test_start_up_loads_no_scipy():
    # Every run pays for what the CLI imports; scipy is a test-only dependency.
    src = str(Path(marketlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys, marketlab.cli, marketlab.harness; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_vacuous_floors_are_marked_in_the_summary(tmp_path, monkeypatch, capsys):
    # Both bundled bounds are negative at every sweep point, so each
    # poa-bound check compares the ratio with the floor max(0, bounds) = 0.
    out = tmp_path / "bundled"
    assert main(["run", "walrasian_binomial_sweep", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    (sc,) = summary["scenarios"]
    bounds = [c for c in sc["checks"] if c["name"] == "poa-bound"]
    assert bounds and all(c["passed"] and c.get("vacuous") is True for c in bounds)
    assert sc["vacuous_checks"] == len(bounds)
    assert not any("vacuous" in c for c in sc["checks"] if c["name"] != "poa-bound")
    # A positive floor is a real test, and the mark goes.
    monkeypatch.setattr(harness, "ratio_bound_sqrt", lambda *args: 0.5)
    floored = tmp_path / "floored"
    assert main(["run", "walrasian_binomial_sweep", "--out", str(floored)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((floored / "summary.json").read_text())
    (sc,) = summary["scenarios"]
    bounds = [c for c in sc["checks"] if c["name"] == "poa-bound"]
    assert bounds and all(c["passed"] and "vacuous" not in c for c in bounds)
    assert sc["vacuous_checks"] == 0


def test_regret_display_below_zero_is_marked_vacuous(tmp_path):
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, tiny_config("walrasian_regret")), "--out", str(out)]) == 0
    (sc,) = json.loads((out / "summary.json").read_text())["scenarios"]
    (display,) = [c for c in sc["checks"] if c["name"] == "regret-display"]
    factor = float(display["detail"].split("factor ")[1].split(" ")[0])
    assert factor <= 0.0 and display["vacuous"] is True
    assert sc["vacuous_checks"] == 1
