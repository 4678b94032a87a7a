import json

import numpy as np
import pytest

from marketlab import harness
from marketlab.cli import main
from marketlab.errors import CheckFailure, ScenarioError
from marketlab.harness import (
    _COLUMNS,
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


def test_bundled_scenarios_resolve():
    names = bundled_scenarios()
    assert "walrasian_binomial_sweep" in names
    assert "fisher_reserve" in names
    cfg = load_config("walrasian_bullying")
    scenarios = parse_config(cfg)
    assert scenarios[0].mode == "bullying"
    for sc in scenarios:
        assert (sc.setting, sc.mode) in _COLUMNS


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


def test_audit_runs_once_per_sweep_point(tmp_path, monkeypatch):
    calls = []

    def counted(gen, assumptions, sweep_n, bidders, seq):
        calls.append(sweep_n)
        return audit_assumptions(gen, assumptions, sweep_n, bidders, seq)

    monkeypatch.setattr(harness, "audit_assumptions", counted)
    doc = {
        "schema_version": 1,
        "scenarios": [
            {
                "id": "sweep",
                "setting": "walrasian",
                "mode": "poa_sweep",
                "sweep": [4, 5],
                "seeds": [0, 1, 2],
                "generator": {
                    "family": "unit",
                    "goods": 1,
                    "bidders": "sweep",
                    "values": {"kind": "uniform", "low": 0.5, "high": 1.0},
                    "supply": {"kind": "binomial", "prob": 0.5},
                },
                "grid": {"scales": [0.5, 1.0]},
                "assumptions": {"zeta": 1.0, "rho_prime": 0.5},
            }
        ],
    }
    cfg = write_config(tmp_path, doc)
    run_config(cfg, out_dir=str(tmp_path / "serial"))
    assert calls == [4, 5]
    summary = json.loads((tmp_path / "serial" / "summary.json").read_text())
    details = [c["detail"] for c in summary["scenarios"][0]["checks"] if c["name"] == "poa-bound"]
    assert len(details) == 6 and all(d.endswith(", search exhaustive") for d in details)
    run_config(cfg, out_dir=str(tmp_path / "parallel"), jobs=2)
    serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
    assert serial == (tmp_path / "parallel" / "sweep.csv").read_bytes()


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
