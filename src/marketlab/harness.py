"""Scenario-driven experiment runner behind the command line interface.

A run file is JSON with a versioned schema: ``{"schema_version": 1,
"scenarios": [...]}``.  Each scenario names a setting (walrasian or fisher),
a mode, a sweep (auction sizes N, market largeness L, or instance counts,
depending on the mode), and a list of seeds.  Every (sweep value, seed) pair
becomes one task.  A task is a pure function of (scenario, sweep point,
seed), with per-task generators derived as

    SeedSequence(entropy=seed, spawn_key=(scenario_index, sweep_index))

so identical configs produce byte-identical CSVs, serial or parallel.  A sweep
point's assumption audit is computed once, before the tasks, and handed to
each task of the point, so serial and ``--jobs`` runs do the same work.

The harness holds what both settings share: the schema primitives, task
seeding and execution, and the output.  Each setting's mode entries, key
checkers, runners and helpers live in its own module, ``walrasian_modes`` or
``fisher_modes``, imported the first time a scenario of that setting is
parsed, so a run compiles and loads only the code of the settings its config
names, and never inside a task.

Each scenario writes one CSV with a fixed column order (documented in the
README) plus an entry in ``summary.json``.  A theorem or lemma check coming
out false is not an exception in the plumbing sense: the run completes, the
failing record lands in the summary, and the process exits 1.
"""

from __future__ import annotations

import csv
import importlib
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import CheckFailure, InternalCheckError, ScenarioError, SizeLimitError, SolverError

SCHEMA_VERSION = 1
OUT_ENV = "MARKETLAB_OUT"
SETTINGS = ("walrasian", "fisher")
# The longest file name, in bytes, that common file systems take.
NAME_MAX = 255


# -- schema ---------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    index: int
    id: str
    setting: str
    mode: str
    sweep: tuple[int, ...]
    seeds: tuple[int, ...]
    csv: str
    # The mode's keys, with the default of every key the config leaves out.
    spec: dict


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


def _need(obj: dict, path: str, key: str, kinds, check=None):
    if key not in obj:
        _fail(path, f"missing required key '{key}'")
    return _typed(obj[key], f"{path}.{key}", kinds, check)


def _opt(obj: dict, path: str, key: str, kinds, default, check=None):
    """An optional key: checked when given, else set to ``default`` in ``obj``."""
    if key not in obj:
        obj[key] = default
        return default
    return _typed(obj[key], f"{path}.{key}", kinds, check)


def _typed(val, path: str, kinds, check):
    if kinds is bool:
        ok = isinstance(val, bool)
    elif kinds is int:
        ok = isinstance(val, int) and not isinstance(val, bool)
    elif kinds is float:
        ok = isinstance(val, (int, float)) and not isinstance(val, bool)
        # JSON reads Infinity and NaN, and ints past the float range.
        if ok and not -sys.float_info.max <= val <= sys.float_info.max:
            _fail(path, f"must be a finite number, got {val}")
        val = float(val) if ok else val
    else:
        ok = isinstance(val, kinds)
    if not ok:
        name = kinds.__name__ if hasattr(kinds, "__name__") else str(kinds)
        _fail(path, f"expected {name}, got {type(val).__name__}")
    if check is not None:
        err = check(val)
        if err:
            _fail(path, err)
    return val


def _no_extras(obj: dict, path: str, allowed):
    for key in obj:
        if key not in allowed:
            _fail(path, f"unknown key '{key}'")


def _at_least(lo):
    return lambda v: None if v >= lo else f"must be >= {lo}"


def _between(lo, hi):
    return lambda v: None if lo < v < hi else f"must lie in ({lo}, {hi})"


def _positive(v):
    return None if v > 0 else "must be > 0"


def _int_list(obj, path, key, minimum):
    vals = _need(obj, path, key, list)
    if not vals:
        _fail(f"{path}.{key}", "must be non-empty")
    return tuple(_typed(v, f"{path}.{key}[{i}]", int, _at_least(minimum)) for i, v in enumerate(vals))


_COMMON_KEYS = ("id", "setting", "mode", "sweep", "seeds", "csv")


def _plain_file_name(name):
    """A CSV is written in the output directory, beside summary.json."""
    if name in ("", ".", "..", "summary.json") or "/" in name or "\0" in name:
        return "must be a plain file name other than summary.json"
    if len(name.encode("utf-8")) > NAME_MAX:
        return f"must be a file name of at most {NAME_MAX} bytes in UTF-8"


def _validate_scenario(raw: dict, path: str, index: int) -> Scenario:
    _typed(raw, path, dict, None)
    sid = _need(raw, path, "id", str, lambda s: None if s and all(c.isalnum() or c == "_" for c in s) else "must be non-empty [a-z0-9_]")
    setting = _need(raw, path, "setting", str, lambda s: None if s in SETTINGS else "must be 'walrasian' or 'fisher'")
    modes = _setting(setting).MODES
    mode = _need(raw, path, "mode", str, lambda m: None if m in modes else f"must be one of {tuple(modes)} for setting '{setting}'")
    sweep = _int_list(raw, path, "sweep", 1)
    seeds = _int_list(raw, path, "seeds", 0)
    if "csv" in raw:
        csv_name = _typed(raw["csv"], f"{path}.csv", str, _plain_file_name)
    else:
        csv_name = sid + ".csv"
        if len(csv_name.encode("utf-8")) > NAME_MAX:
            _fail(f"{path}.id", f"names the CSV '{csv_name}', over {NAME_MAX} bytes in UTF-8; give a shorter 'csv'")

    entry = modes[mode]
    spec = {k: v for k, v in raw.items() if k not in _COMMON_KEYS}
    _no_extras(spec, path, entry.keys)
    for key, check in entry.keys.items():
        check(spec, path, key)
    entry.cross_check(spec, path, sweep)
    return Scenario(index, sid, setting, mode, sweep, seeds, csv_name, spec)


def parse_config(cfg) -> list[Scenario]:
    """Validate a parsed JSON document and return the scenario list."""
    _typed(cfg, "config", dict, None)
    _no_extras(cfg, "config", ("schema_version", "scenarios"))
    version = _need(cfg, "config", "schema_version", int, None)
    if version != SCHEMA_VERSION:
        _fail("config.schema_version", f"this build reads version {SCHEMA_VERSION}, got {version}")
    raw = _need(cfg, "config", "scenarios", list, None)
    if not raw:
        _fail("config.scenarios", "must be non-empty")
    scenarios = [
        _validate_scenario(entry, f"config.scenarios[{i}]", i) for i, entry in enumerate(raw)
    ]
    for key in ("id", "csv"):
        seen = {}
        for i, sc in enumerate(scenarios):
            name = getattr(sc, key)
            if name in seen:
                _fail(f"config.scenarios[{i}].{key}", f"duplicate {key} '{name}' (also scenarios[{seen[name]}])")
            seen[name] = i
    return scenarios


def load_config(source: str) -> dict:
    """Read a config from a filesystem path or a bundled scenario name."""
    path = Path(source)
    if not path.is_file():
        name = source[:-5] if source.endswith(".json") else source
        bundled = Path(__file__).parent / "scenarios" / f"{name}.json"
        if not bundled.is_file():
            raise ScenarioError(
                f"config: '{source}' is neither a file nor a bundled scenario name"
            )
        path = bundled
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise ScenarioError(f"{path}: {e}") from e


def bundled_scenarios() -> tuple[str, ...]:
    folder = Path(__file__).parent / "scenarios"
    return tuple(sorted(p.stem for p in folder.glob("*.json")))


# -- task execution ----------------------------------------------------------------


def _task_seq(sc: Scenario, sweep_idx: int, seed: int, tag: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(sc.index, sweep_idx, tag))


@dataclass(frozen=True)
class Check:
    scenario: str
    name: str
    passed: bool
    detail: str
    # The check compares against a floor of at most 0, which any
    # nonnegative welfare ratio clears: its pass shows nothing.
    vacuous: bool = False


@dataclass
class _TaskOut:
    rows: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    seconds: float = 0.0


@dataclass(frozen=True)
class _Mode:
    """One (setting, mode): its key checkers in checking order (each fills in
    its key's default), cross-key check, CSV columns, the runner that fills
    one task's record, and the checks over all of a scenario's rows.  A
    runner is a pure function of (scenario, sweep point, seed) and is handed
    the point's audit, ``audit(spec, N, seq)``, or None for a mode without
    one."""

    keys: dict
    columns: tuple
    run: Callable
    cross_check: Callable = lambda spec, path, sweep: None
    scenario_checks: Callable = lambda sc, rows: []
    audit: Optional[Callable] = None


def _setting(name: str):
    """A setting's module of mode entries, imported at its first use."""
    return importlib.import_module(f"{__package__}.{name}_modes")


def _mode(sc: Scenario) -> _Mode:
    return _setting(sc.setting).MODES[sc.mode]


# Names the benchmark's tracer reads from this module; each lives in its
# setting's module and is read from there, so nothing is stored here.
_FORWARDED = {"audit_assumptions": "walrasian", "solve_market": "fisher"}


def __getattr__(name: str):
    if name in _FORWARDED:
        return getattr(_setting(_FORWARDED[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_TASK_ERRORS = (InternalCheckError, SolverError, SizeLimitError)


def _point_audit(sc: Scenario, sweep_idx: int, n: int):
    """A sweep point's audit, seeded from the first seed; else the error it
    raised, for each task of the point to report; else None."""
    audit = _mode(sc).audit
    if audit is None:
        return None
    try:
        return audit(sc.spec, n, _task_seq(sc, sweep_idx, sc.seeds[0], tag=2))
    except _TASK_ERRORS as e:
        return e


def _run_task(args) -> _TaskOut:
    sc, sweep_idx, sweep_val, seed, audit = args
    runner = _mode(sc).run
    start = time.perf_counter()
    result = _TaskOut()
    try:
        if isinstance(audit, Exception):
            raise audit
        runner(sc, sweep_idx, sweep_val, seed, audit, result)
    except _TASK_ERRORS as e:
        kind = "size-limit" if isinstance(e, SizeLimitError) else "internal"
        result = _TaskOut(checks=[Check(
            sc.id, f"{sc.mode}-{kind}", False,
            f"sweep={sweep_val} seed={seed}: {type(e).__name__}: {e}",
        )])
    result.seconds = time.perf_counter() - start
    return result


# -- output ------------------------------------------------------------------------


def _fmt(cell) -> str:
    if cell is None:
        return "N/A"
    if isinstance(cell, bool):
        return str(int(cell))
    if isinstance(cell, float):
        return "%.12g" % cell
    return str(cell)


def _write_csv(path: Path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(c) for c in row])


@dataclass
class ScenarioReport:
    id: str
    csv_path: str
    rows: int
    passed: bool
    checks: list
    audits: list
    seconds: float


@dataclass
class RunReport:
    passed: bool
    scenarios: list
    out_dir: str
    summary_path: str

    def failed_checks(self):
        return [c for s in self.scenarios for c in s.checks if not c.passed]


def make_out_dir(out_dir: str | None = None) -> Path:
    """The output directory, made if missing: ``out_dir``, else
    $MARKETLAB_OUT, else ./results.  One that cannot be made, such as an
    existing file or a path under one, is a config error."""
    out = Path(out_dir or os.environ.get(OUT_ENV) or "results")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ScenarioError(f"output directory '{out}': {e.strerror}") from e
    return out


def _write_summary(out: Path, summary: dict) -> Path:
    path = out / "summary.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    return path


def write_error_summary(out: Path, error: str) -> Path:
    """A failed ``summary.json`` for a run stopped by a config error."""
    return _write_summary(
        out, {"schema_version": SCHEMA_VERSION, "passed": False, "error": error, "scenarios": []}
    )


def run_config(
    source: str,
    out_dir: str | None = None,
    seed_override: int | None = None,
    jobs: int = 1,
    only: str | None = None,
) -> RunReport:
    """Execute every scenario in a config; raises CheckFailure if any check fails.

    The report (CSV files plus summary.json) is fully written before the
    failure is raised, so a red run still leaves its evidence on disk.
    """
    start = time.perf_counter()
    scenarios = parse_config(load_config(source))
    if only is not None:
        scenarios = [sc for sc in scenarios if sc.id == only]
        if not scenarios:
            raise ScenarioError(f"--filter: no scenario with id '{only}'")
    if seed_override is not None:
        if seed_override < 0:
            raise ScenarioError("--seed-override: must be >= 0")
        scenarios = [replace(sc, seeds=(seed_override,)) for sc in scenarios]

    out = make_out_dir(out_dir)

    audits = [[_point_audit(sc, k, n) for k, n in enumerate(sc.sweep)] for sc in scenarios]
    tasks = [
        (sc, k, n, seed, point[k])
        for sc, point in zip(scenarios, audits)
        for k, n in enumerate(sc.sweep)
        for seed in sc.seeds
    ]

    if jobs > 1 and len(tasks) > 1:
        # Imported here because it loads multiprocessing.  The pool starts
        # every worker at its first submit, so it gets one per task at most.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_run_task, tasks, chunksize=1))
    else:
        results = [_run_task(t) for t in tasks]

    reports = []
    for sc, point in zip(scenarios, audits):
        mine = [res for task, res in zip(tasks, results) if task[0].index == sc.index]
        rows = [row for res in mine for row in res.rows]
        checks = [c for res in mine for c in res.checks]
        entry = _mode(sc)
        checks.extend(entry.scenario_checks(sc, rows))
        csv_path = out / sc.csv
        _write_csv(csv_path, entry.columns, rows)
        reports.append(ScenarioReport(
            id=sc.id, csv_path=str(csv_path), rows=len(rows), passed=all(c.passed for c in checks),
            checks=checks, audits=[a for a in point if a is not None and not isinstance(a, Exception)],
            seconds=sum(res.seconds for res in mine),
        ))
    passed = all(rep.passed for rep in reports)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "passed": passed,
        "wall_time_s": round(time.perf_counter() - start, 3),
        "scenarios": [
            {
                "id": rep.id,
                "csv": rep.csv_path,
                "rows": rep.rows,
                "passed": rep.passed,
                "task_seconds": round(rep.seconds, 3),
                "vacuous_checks": sum(c.vacuous for c in rep.checks),
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    | ({"vacuous": True} if c.vacuous else {})
                    for c in rep.checks
                ],
                "audits": [asdict(a) for a in rep.audits],
            }
            for rep in reports
        ],
    }
    summary_path = _write_summary(out, summary)

    report = RunReport(passed=passed, scenarios=reports, out_dir=str(out), summary_path=str(summary_path))
    if not passed:
        first = report.failed_checks()[0]
        exc = CheckFailure(f"{first.scenario}/{first.name}: {first.detail}")
        exc.report = report
        raise exc
    return report
