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

Each scenario writes one CSV with a fixed column order (documented in the
README) plus an entry in ``summary.json``.  A theorem or lemma check coming
out false is not an exception in the plumbing sense: the run completes, the
failing record lands in the summary, and the process exits 1.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import CheckFailure, InternalCheckError, ScenarioError, SizeLimitError, SolverError
from .fisher import (
    FisherMarket,
    compress_prices,
    poa_search,
    rescale_to_unit,
    run_market_learning,
    solve_market,
)
from .sensitivity import (
    ProbeParams,
    count_unstable_slice,
    default_threshold,
    unstable_event_probability,
)
from .strategic import (
    GameContext,
    LearningConfig,
    ScalingGrid,
    check_price_bracket,
    check_price_floor,
    check_smooth_bound,
    ratio_bound_log,
    ratio_bound_sqrt,
    run_learning,
    worst_equilibrium,
)
from .supply import (
    BinomialCounts,
    FixedCounts,
    floor_rate,
    max_point_mass,
    mean_counts,
    sample,
    std_counts,
)
from .valuations import (
    CES,
    CobbDouglas,
    KDemand,
    Linear,
    UnitDemand,
    bundles_upto,
    scale_bid,
    value,
)
from .walrasian import (
    WelfareOracle,
    max_welfare,
    run_mechanism,
    validate_outcome,
)

SCHEMA_VERSION = 1
OUT_ENV = "MARKETLAB_OUT"
BOUND_TOL = 1e-9

_LEMMAS = (
    "unstable-count",
    "within-count",
    "event-probability",
    "price-floor",
    "price-bracket",
    "smooth",
)


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


def _check_deltas(spec: dict, path: str, key: str):
    vals = _opt(spec, path, key, list, (0.05, 0.1, 0.2))
    spec[key] = tuple(_typed(v, f"{path}.{key}[{i}]", float, _between(0.0, 1.0)) for i, v in enumerate(vals))


def _check_values_block(vb: dict, path: str):
    kind = _need(vb, path, "kind", str, lambda k: None if k in ("uniform", "pareto") else "must be 'uniform' or 'pareto'")
    if kind == "uniform":
        _no_extras(vb, path, ("kind", "low", "high"))
        low = _need(vb, path, "low", float, _positive)
        high = _need(vb, path, "high", float, _positive)
        if high < low:
            _fail(f"{path}.high", "must be >= low")
    else:
        _no_extras(vb, path, ("kind", "shape", "scale"))
        _need(vb, path, "shape", float, lambda x: None if x > 1 else "must be > 1 for a finite mean")
        _need(vb, path, "scale", float, _positive)


def _check_auction_generator(spec: dict, path: str, key: str):
    gen = spec[key] = dict(_need(spec, path, key, dict))
    path = f"{path}.{key}"
    _no_extras(gen, path, ("family", "cap", "goods", "bidders", "values", "supply"))
    family = _need(gen, path, "family", str, lambda f: None if f in ("unit", "kdemand") else "must be 'unit' or 'kdemand'")
    goods = _need(gen, path, "goods", int, _at_least(1))
    cap = _opt(gen, path, "cap", int, 1, _at_least(1))
    if family == "unit" and cap != 1:
        _fail(f"{path}.cap", "unit-demand bidders hold one item")
    bidders = gen.setdefault("bidders", "sweep")
    if bidders != "sweep":
        _typed(bidders, f"{path}.bidders", int, _at_least(1))
    vb = _need(gen, path, "values", dict)
    _check_values_block(vb, f"{path}.values")
    sup = _need(gen, path, "supply", dict)
    kind = _need(sup, f"{path}.supply", "kind", str, lambda k: None if k in ("binomial", "fixed") else "must be 'binomial' or 'fixed'")
    if kind == "binomial":
        _no_extras(sup, f"{path}.supply", ("kind", "prob"))
        _need(sup, f"{path}.supply", "prob", float, _between(0, 1))
    else:
        _no_extras(sup, f"{path}.supply", ("kind", "counts"))
        counts = _int_list(sup, f"{path}.supply", "counts", 0)
        if len(counts) != goods:
            _fail(f"{path}.supply.counts", f"needs one count per good ({goods})")


def _check_corpus_block(spec: dict, path: str, key: str, defaults: dict):
    gen = spec[key] = dict(_opt(spec, path, key, dict, {}))
    path = f"{path}.{key}"
    _no_extras(gen, path, defaults)
    for name in ("max_bidders", "max_goods", "max_cap", "max_copies"):
        _opt(gen, path, name, int, defaults[name], _at_least(1))
    low = _opt(gen, path, "low", float, defaults["low"], _positive)
    high = _opt(gen, path, "high", float, defaults["high"], _positive)
    if high < low:
        _fail(f"{path}.high", "must be >= low")


def _check_assumptions_block(spec: dict, path: str, key: str):
    blk = _need(spec, path, key, dict)
    path = f"{path}.{key}"
    _no_extras(blk, path, ("zeta", "rho_prime"))
    _need(blk, path, "zeta", float, _positive)
    _need(blk, path, "rho_prime", float, _positive)


def _check_grid_axis(vals: list, path: str, anchor: float, what: str):
    vals = [_typed(v, f"{path}[{i}]", float, _at_least(0)) for i, v in enumerate(vals)]
    if anchor not in vals:
        _fail(path, f"must include {what}")
    if len(set(vals)) != len(vals):
        _fail(path, "must not repeat an entry")


def _check_grid_block(spec: dict, path: str, key: str):
    grid = spec[key] = dict(_need(spec, path, key, dict))
    path = f"{path}.{key}"
    _no_extras(grid, path, ("scales", "offsets"))
    scales = grid.get("scales")
    if not isinstance(scales, list) or not scales:
        _fail(f"{path}.scales", "must be a non-empty list")
    _check_grid_axis(scales, f"{path}.scales", 1.0, "the truthful scale 1.0")
    _check_grid_axis(_opt(grid, path, "offsets", list, [0.0]), f"{path}.offsets", 0.0, "the zero offset")


def _check_lam(spec: dict, path: str, key: str):
    """The blend weight of the mix rule; checked after ``rule``."""
    if spec["rule"] == "mix":
        _need(spec, path, key, float, lambda x: None if 0 <= x <= 1 else "must lie in [0, 1]")
    elif key in spec:
        _fail(f"{path}.{key}", "only the mix rule takes a blend weight")
    else:
        spec[key] = None


def _check_lemma_list(spec: dict, path: str, key: str):
    lemmas = _opt(spec, path, key, list, list(_LEMMAS))
    for i, name in enumerate(lemmas):
        _typed(name, f"{path}.{key}[{i}]", str, lambda n: None if n in _LEMMAS else f"must be one of {_LEMMAS}")
    spec[key] = list(lemmas)


def _check_fisher_generator(spec: dict, path: str, key: str):
    gen = spec[key] = dict(_need(spec, path, key, dict))
    path = f"{path}.{key}"
    _no_extras(gen, path, ("goods", "family", "rho", "budgets", "weight_low", "weight_high"))
    _need(gen, path, "goods", int, _at_least(1))
    family = _need(gen, path, "family", str, lambda f: None if f in ("cobb_douglas", "linear", "ces") else "must be cobb_douglas, linear, or ces")
    if family == "ces":
        _need(gen, path, "rho", float, _between(0, 1))
    elif "rho" in gen:
        _fail(f"{path}.rho", "only the ces family takes a curvature parameter")
    wl = _opt(gen, path, "weight_low", float, 0.2, _positive)
    wh = _opt(gen, path, "weight_high", float, 1.0, _positive)
    if wh < wl:
        _fail(f"{path}.weight_high", "must be >= weight_low")
    if "budgets" in gen:
        budgets = _typed(gen["budgets"], f"{path}.budgets", list, None)
        if not budgets:
            _fail(f"{path}.budgets", "must be non-empty")
        for i, b in enumerate(budgets):
            _typed(b, f"{path}.budgets[{i}]", float, _positive)


def _sweeps_binomial_trials(spec: dict, path: str, sweep: tuple):
    if spec["generator"]["supply"]["kind"] != "binomial":
        _fail(f"{path}.generator.supply.kind", "poa_sweep sweeps binomial trial counts")


def _sized_by_players(spec: dict, path: str, sweep: tuple):
    if spec["generator"]["bidders"] != "sweep":
        _fail(f"{path}.generator.bidders", "regret mode sizes the market by 'players'")


def _budgets_fix_the_market(spec: dict, path: str, sweep: tuple):
    if "budgets" in spec["generator"] and len(sweep) != 1:
        _fail(f"{path}.generator.budgets", "an explicit budget list fixes the market; use a single sweep value")


_COMMON_KEYS = ("id", "setting", "mode", "sweep", "seeds", "csv")


def _validate_scenario(raw: dict, path: str, index: int) -> Scenario:
    _typed(raw, path, dict, None)
    sid = _need(raw, path, "id", str, lambda s: None if s and all(c.isalnum() or c == "_" for c in s) else "must be non-empty [a-z0-9_]")
    setting = _need(raw, path, "setting", str, lambda s: None if s in ("walrasian", "fisher") else "must be 'walrasian' or 'fisher'")
    modes = tuple(m for s, m in _MODES if s == setting)
    mode = _need(raw, path, "mode", str, lambda m: None if m in modes else f"must be one of {modes} for setting '{setting}'")
    sweep = _int_list(raw, path, "sweep", 1)
    seeds = _int_list(raw, path, "seeds", 0)
    csv_name = _typed(raw.get("csv", sid + ".csv"), f"{path}.csv", str, None)

    entry = _MODES[(setting, mode)]
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
    seen = {}
    for i, sc in enumerate(scenarios):
        if sc.id in seen:
            _fail(f"config.scenarios[{i}].id", f"duplicate id '{sc.id}' (also scenarios[{seen[sc.id]}])")
        seen[sc.id] = i
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


# -- instance generators ----------------------------------------------------------


def _task_seq(sc: Scenario, sweep_idx: int, seed: int, tag: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(sc.index, sweep_idx, tag))


def _draw_item_weights(rng, vb: dict, shape) -> np.ndarray:
    """Item weights of the given shape, in one draw: the same numbers, and
    the same generator state after, as one draw per row."""
    if vb["kind"] == "uniform":
        return rng.uniform(vb["low"], vb["high"], shape)
    return vb["scale"] * (1.0 + rng.pareto(vb["shape"], shape))


def _draw_bidders(rng, gen: dict, count: int):
    weights = _draw_item_weights(rng, gen["values"], (count, gen["goods"])).tolist()
    if gen["family"] == "unit":
        return tuple(UnitDemand(tuple(w)) for w in weights)
    # audit_assumptions takes generators as written, without defaults.
    cap = gen.get("cap", 1)
    return tuple(KDemand(tuple(w), cap) for w in weights)


def _build_model(gen: dict, sweep_n: int):
    sup = gen["supply"]
    if sup["kind"] == "binomial":
        return BinomialCounts(gen["goods"], sweep_n, sup["prob"])
    return FixedCounts(tuple(sup["counts"]))


def _random_gs_market(rng, gen: dict):
    """Random weighted-matroid-rank market for the validity/oracle corpora."""
    bidders = int(rng.integers(1, gen["max_bidders"] + 1))
    goods = int(rng.integers(1, gen["max_goods"] + 1))
    bids = []
    for _ in range(bidders):
        w = rng.uniform(gen["low"], gen["high"], goods)
        w[rng.random(goods) < 0.15] = 0.0
        cap = int(rng.integers(1, gen["max_cap"] + 1))
        if cap == 1:
            bids.append(UnitDemand(tuple(float(x) for x in w)))
        else:
            bids.append(KDemand(tuple(float(x) for x in w), cap))
    supply = tuple(int(c) for c in rng.integers(0, gen["max_copies"] + 1, goods))
    return tuple(bids), supply


# -- assumption audit --------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionAudit:
    """Per-sweep-point empirical check of the four market assumptions.

    Bound columns in the CSV are suppressed (N/A) whenever the bounded-value
    or market-welfare assumption fails, or the supply has a unit point mass
    (no multiplicity uncertainty, so the uncertainty-driven bounds do not
    apply).
    """

    sweep: int
    zeta: float
    zeta_hat: float
    bounded_value_ok: bool
    rho_prime: float
    best_item_hat: float
    value_floor_ok: bool
    spread_slack: float
    copies_share: float
    size_ok: bool
    welfare_rate: float
    sw_opt_hat: float
    welfare_ok: bool
    item_expectation_cap_ok: bool
    point_mass: float
    point_mass_flag: bool
    suppress_bounds: bool


def _within_slack(estimate: float, cap: float, slack: float) -> bool:
    """``estimate <= cap + slack``, and false when the estimate or the slack
    is not finite: draws that overflow give an infinite standard error, and
    an infinite slack bounds nothing."""
    return math.isfinite(estimate) and math.isfinite(slack) and estimate <= cap + slack


def audit_assumptions(gen: dict, assumptions: dict, sweep_n: int, bidders: int, seq) -> AssumptionAudit:
    """Estimate the assumption constants for one generator at one sweep point."""
    rng = np.random.default_rng(seq)
    samples = 400
    zeta = assumptions["zeta"]
    rho_prime = assumptions["rho_prime"]
    goods = gen["goods"]

    draws = _draw_item_weights(rng, gen["values"], (samples, goods))
    per_item = draws.mean(axis=0)
    per_item_se = draws.std(axis=0, ddof=1) / math.sqrt(samples)
    zeta_hat = float(per_item.max())
    slack = 3.0 * float(per_item_se.max())
    bounded_value_ok = _within_slack(zeta_hat, zeta, slack)
    best_item_hat = zeta_hat
    value_floor_ok = best_item_hat >= rho_prime - slack
    best_draw = draws.max(axis=1)
    cap_hat = float(best_draw.mean())
    cap_se = float(best_draw.std(ddof=1) / math.sqrt(samples))
    item_expectation_cap_ok = _within_slack(cap_hat, goods * zeta, 3.0 * cap_se)

    model = _build_model(gen, sweep_n)
    mu = mean_counts(model)
    sd = std_counts(model)
    if np.any(mu <= 0):
        spread_slack, copies_share, size_ok = 0.0, 0.0, False
    else:
        spread_slack = float(np.min(1.0 - sd / mu))
        copies_share = float(np.min(mu / sweep_n))
        size_ok = spread_slack > 0.0 and copies_share > 0.0

    if size_ok:
        welfare_rate = floor_rate(spread_slack, copies_share, rho_prime)
    else:
        welfare_rate = 0.0
    sw = _optimal_welfare_draws(rng, gen, model, bidders, 200)
    sw_opt_hat = float(sw.mean())
    sw_se = float(sw.std(ddof=1) / math.sqrt(sw.size))
    welfare_ok = size_ok and sw_opt_hat >= welfare_rate * sweep_n - 3.0 * sw_se

    peak = max_point_mass(model)
    flag = peak >= 1.0 - 1e-12
    suppress = (not bounded_value_ok) or (not welfare_ok) or flag
    return AssumptionAudit(
        sweep=sweep_n,
        zeta=zeta,
        zeta_hat=zeta_hat,
        bounded_value_ok=bounded_value_ok,
        rho_prime=rho_prime,
        best_item_hat=best_item_hat,
        value_floor_ok=value_floor_ok,
        spread_slack=spread_slack,
        copies_share=copies_share,
        size_ok=size_ok,
        welfare_rate=welfare_rate,
        sw_opt_hat=sw_opt_hat,
        welfare_ok=welfare_ok,
        item_expectation_cap_ok=item_expectation_cap_ok,
        point_mass=peak,
        point_mass_flag=flag,
        suppress_bounds=suppress,
    )


def _optimal_welfare_draws(rng, gen: dict, model, bidders: int, draws: int) -> np.ndarray:
    """Optimal welfare of ``draws`` fresh markets, each drawn as ``bidders``
    bidders and then one supply.  On one good the welfare is read off the
    market's slots, as the oracle's slots path does: the weights (positive,
    as the schema draws them) sorted descending and repeated by cap, summed
    left to right, at min(copies, slots).  Several goods ask a
    ``WelfareOracle``."""
    if gen["goods"] > 1:
        return np.array([
            WelfareOracle(_draw_bidders(rng, gen, bidders)).welfare(sample(model, rng))
            for _ in range(draws)
        ])
    weights = np.empty((draws, bidders))
    copies = np.empty(draws, dtype=int)
    for d in range(draws):
        weights[d] = _draw_item_weights(rng, gen["values"], (bidders, 1))[:, 0]
        copies[d] = sample(model, rng)[0]
    cap = 1 if gen["family"] == "unit" else gen.get("cap", 1)
    slots = np.repeat(np.sort(weights, axis=1)[:, ::-1], cap, axis=1)
    prefix = np.zeros((draws, slots.shape[1] + 1))
    np.cumsum(slots, axis=1, out=prefix[:, 1:])
    return prefix[np.arange(draws), np.minimum(copies, slots.shape[1])]


# -- task execution ----------------------------------------------------------------


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


def _rule_label(spec: dict) -> str:
    if spec["rule"] == "mix":
        return f"mix({spec['lam']:g})"
    return spec["rule"]


def _auction_task(sc: Scenario, sweep_idx: int, n: int, seed: int, audit: AssumptionAudit):
    """Steps shared by poa_sweep and Walrasian regret tasks: draw as many
    bidders as the point's audit, the model and the grid, and bound the ratio
    from the audit (None when the audit suppresses it)."""
    spec = sc.spec
    gen, _, bidders = _MODES[(sc.setting, sc.mode)].audit(spec, n)
    rng = np.random.default_rng(_task_seq(sc, sweep_idx, seed))
    values = _draw_bidders(rng, gen, bidders)
    model = _build_model(gen, n)
    grid = ScalingGrid(
        tuple(float(s) for s in spec["grid"]["scales"]),
        tuple(float(o) for o in spec["grid"]["offsets"]),
    )
    if audit.suppress_bounds:
        sqrt_b = log_b = None
    else:
        args = (gen["goods"], gen["cap"], audit.zeta, audit.welfare_rate, audit.point_mass)
        sqrt_b, log_b = ratio_bound_sqrt(*args), ratio_bound_log(*args)
    return rng, values, model, grid, sqrt_b, log_b


def _task_poa_sweep(sc: Scenario, sweep_idx: int, n: int, seed: int, audit, out: _TaskOut):
    spec = sc.spec
    rng, values, model, grid, sqrt_b, log_b = _auction_task(sc, sweep_idx, n, seed, audit)
    ctx_seed = int(_task_seq(sc, sweep_idx, seed, tag=1).generate_state(1)[0])
    ctx = GameContext(values, grid, model, rule=spec["rule"], lam=spec["lam"], seed=ctx_seed)
    worst, reports, complete, dropped = worst_equilibrium(ctx, rng, restarts=spec["restarts"])
    search = "search exhaustive" if complete else f"search best-response, {dropped} walks dropped"
    floor = max(0.0, sqrt_b or 0.0, log_b or 0.0)

    exact = [r for r in reports if r.certification.kind == "exact-nash"]
    below = [r for r in exact if r.ratio < floor - BOUND_TOL]
    if below:
        r = below[0]
        found = f" profile={r.profile}: ratio {r.ratio:.6f} < bound {floor:.6f} ({len(below)} of {len(exact)} below)"
    else:
        found = f": {len(exact)} exact equilibria above max(0, bounds)"
    out.checks.append(Check(sc.id, "poa-bound", not below, f"N={n} seed={seed}{found}, {search}", vacuous=floor <= 0.0))
    if worst is None:
        out.checks.append(Check(sc.id, "certified-equilibrium", False, f"N={n} seed={seed}: search certified no equilibrium"))
        ratio, cert = None, "none"
    else:
        ratio, cert = worst.ratio, worst.certification.kind
    out.rows.append((sc.id, n, seed, _rule_label(spec), ratio, sqrt_b, log_b, cert, None))


def _task_bullying(sc: Scenario, sweep_idx: int, n: int, seed: int, audit, out: _TaskOut):
    values = (UnitDemand((10.0,)), UnitDemand((1.0,)))
    grids = [ScalingGrid((0.0, 1.0)), ScalingGrid((0.0, 1.0, 10.0))]
    model = FixedCounts((1,))
    ctx = GameContext(values, grids, model, rule="english", seed=seed)
    profile = (0, 2)  # high bidder silent, low bidder bids ten times value
    cert = ctx.certify(profile)
    rep = ctx.report(profile, cert)
    ok = cert.kind == "exact-nash" and rep.ratio == 0.1
    out.checks.append(Check(
        sc.id, "bullying-nash", ok,
        f"certification={cert.kind} ratio={rep.ratio!r} (want exact-nash at exactly 0.1)",
    ))
    out.rows.append((sc.id, n, seed, "english", rep.ratio, None, None, cert.kind, None))


def _task_wal_regret(sc: Scenario, sweep_idx: int, n: int, seed: int, audit, out: _TaskOut):
    spec = sc.spec
    _, values, model, grid, sqrt_b, log_b = _auction_task(sc, sweep_idx, n, seed, audit)
    goods, cap = spec["generator"]["goods"], spec["generator"]["cap"]

    full_box = (cap,) * goods
    vmax = [value(v, full_box) for v in values]
    gamma = max(grid.scales)
    delta = max(grid.offsets)
    # A k-demand bid adds its offset once per item, so a payment can reach
    # the scaled bid's value for the full box.
    chi = max(max(vm, value(scale_bid(v, gamma, delta), full_box)) for v, vm in zip(values, vmax))
    config = LearningConfig(rounds=spec["rounds"], feedback=spec["feedback"], payoff_bound=chi)
    lseed = int(_task_seq(sc, sweep_idx, seed, tag=1).generate_state(1)[0])
    res = run_learning(values, grid, model, config, rule=spec["rule"], lam=spec["lam"], seed=lseed)
    within = all(r <= b + 1e-9 for r, b in zip(res.regrets, res.regret_budgets))
    out.checks.append(Check(
        sc.id, "regret-budget", within,
        f"N={n} seed={seed}: max regret {max(res.regrets):.3f} "
        f"{'within' if within else 'exceeds'} {min(res.regret_budgets):.3f}",
    ))

    ratio = res.average_welfare / res.expected_opt if res.expected_opt > 0 else 1.0
    if log_b is not None:
        caps = [gamma * vm + delta for vm in vmax]
        phi = max(
            (r / c if c > 0 else 0.0) for r, c in zip(res.regrets, caps)
        )
        deficit = phi * (cap * goods * audit.zeta * gamma + delta) / (
            audit.welfare_rate * res.rounds
        )
        display = log_b - deficit
        holds = res.average_welfare >= display * res.expected_opt - BOUND_TOL
        out.checks.append(Check(
            sc.id, "regret-display", holds,
            f"N={n} seed={seed}: avg welfare {res.average_welfare:.4f} vs "
            f"factor {display:.4g} * opt {res.expected_opt:.4f} (measured phi {phi:.3f})",
            vacuous=display <= 0.0,
        ))
    out.rows.append((
        sc.id, n, seed, _rule_label(spec), ratio, sqrt_b, log_b,
        "no-regret", max(res.regrets),
    ))


def _task_validity(sc: Scenario, sweep_idx: int, n: int, seed: int, audit, out: _TaskOut):
    gen = sc.spec["generator"]
    lam = sc.spec["mix_weight"]
    rng = np.random.default_rng(_task_seq(sc, sweep_idx, seed))
    rules = (("english", None), ("dutch", None), ("mix", lam))
    violations = dict.fromkeys(("english", "dutch", "mix", "lattice", "monotone"), 0)
    for _ in range(n):
        bids, supply = _random_gs_market(rng, gen)
        oracle = WelfareOracle(bids)
        for label, this_lam in rules:
            outcome = run_mechanism(bids, supply, label, this_lam, oracle=oracle)
            ok, _ = validate_outcome(bids, outcome)
            if not ok:
                violations[label] += 1
        low = oracle.prices(supply, "english")
        high = oracle.prices(supply, "dutch")
        if np.any(low > high + 1e-9):
            violations["lattice"] += 1
        j = int(rng.integers(0, len(supply)))
        bumped = tuple(c + 1 if h == j else c for h, c in enumerate(supply))
        if np.any(oracle.prices(bumped, "english") > low + 1e-9) or np.any(
            oracle.prices(bumped, "dutch") > high + 1e-9
        ):
            violations["monotone"] += 1
    for label, count in violations.items():
        shown = f"mix({lam:g})" if label == "mix" else label
        out.rows.append((sc.id, n, seed, shown, n, count))
        out.checks.append(Check(
            sc.id, f"validity-{label}", count == 0,
            f"N={n} seed={seed}: {count} violations in {n} instances",
        ))


def _lemma_market(rng, gen: dict):
    """Market for the price/smoothness lemmas: one good, generous supply."""
    bidders = int(rng.integers(2, gen["max_bidders"] + 1))
    cap = int(rng.integers(1, gen["max_cap"] + 1))
    vals = []
    for _ in range(bidders):
        w = float(rng.uniform(gen["low"], gen["high"]))
        vals.append(KDemand((w,), cap) if cap > 1 else UnitDemand((w,)))
    scarce = rng.random() < 0.2
    if scarce:
        supply = (int(rng.integers(0, cap + 2)),)
    else:
        supply = (int(rng.integers(cap + 2, gen["max_copies"] + cap + 2)),)
    return tuple(vals), supply, cap


def _task_lemmas(sc: Scenario, sweep_idx: int, n: int, seed: int, audit, out: _TaskOut):
    gen = sc.spec["generator"]
    rng = np.random.default_rng(_task_seq(sc, sweep_idx, seed))
    for lemma in sc.spec["lemmas"]:
        applied = 0
        violations = 0
        if lemma in ("unstable-count", "within-count"):
            for _ in range(n):
                goods = int(rng.integers(1, gen["max_goods"] + 1))
                bidders = int(rng.integers(2, gen["max_bidders"] + 1))
                bids = tuple(
                    UnitDemand(tuple(float(x) for x in rng.uniform(gen["low"], gen["high"], goods)))
                    for _ in range(bidders)
                )
                oracle = WelfareOracle(bids)
                ceiling = max(max(b.weights) for b in bids)
                params = ProbeParams(
                    threshold=float(rng.uniform(0.05, 0.3)),
                    ceiling=ceiling,
                    slack=int(rng.integers(0, 2)),
                    search_box=bidders + 2,
                )
                good = int(rng.integers(0, goods))
                rest = tuple(int(c) for c in rng.integers(0, 3, goods - 1))
                count_unstable_slice(oracle, rest, good, params)  # raises on violation
                applied += 1
        elif lemma == "event-probability":
            for _ in range(n):
                bidders = int(rng.integers(2, gen["max_bidders"] + 1))
                bids = tuple(
                    UnitDemand((float(rng.uniform(gen["low"], gen["high"])),))
                    for _ in range(bidders)
                )
                model = BinomialCounts(1, bidders + 2, 0.5)
                ceiling = max(max(b.weights) for b in bids)
                params = ProbeParams(
                    threshold=float(rng.uniform(0.05, 0.3)),
                    ceiling=ceiling,
                    slack=1,
                    search_box=bidders + 4,
                )
                unstable_event_probability(bids, model, params)  # raises on violation
                applied += 1
        else:
            for _ in range(n):
                vals, supply, cap = _lemma_market(rng, gen)
                i = int(rng.integers(0, len(vals)))
                gamma = float(rng.uniform(0.3, 1.2))
                bids = tuple(
                    scale_bid(v, gamma) if h == i else v for h, v in enumerate(vals)
                )
                ceiling = max(
                    max(max(v.weights) for v in vals),
                    max(max(b.weights) for b in bids),
                )
                _, eps = default_threshold(1, 0.25, cap + 1, ceiling)
                if lemma == "price-floor":
                    verdict = check_price_floor(bids, i, supply)
                elif lemma == "price-bracket":
                    verdict = check_price_bracket(vals, bids, i, supply, cap, eps, ceiling)
                else:
                    verdict = check_smooth_bound(vals, bids, i, supply, cap, eps, ceiling)
                if verdict.applied:
                    applied += 1
                    if not verdict.ok:
                        violations += 1
        out.rows.append((sc.id, n, seed, lemma, n, applied, violations))
        out.checks.append(Check(
            sc.id, f"lemma-{lemma}", violations == 0,
            f"N={n} seed={seed}: {violations} violations in {applied} applied of {n}",
        ))


def _enumerated_welfare(bids, supply) -> float:
    """Exhaustive optimal welfare for tiny instances (the slow oracle)."""
    m = len(supply)
    menus = []
    for b in bids:
        cap = getattr(b, "cap", 1)
        menus.append([
            (w, value(b, w)) for w in bundles_upto(m, cap) if all(x <= s for x, s in zip(w, supply))
        ])
    best = 0.0

    def rec(i: int, remaining: tuple[int, ...], acc: float):
        nonlocal best
        if i == len(bids):
            best = max(best, acc)
            return
        for bundle, worth in menus[i]:
            if all(x <= r for x, r in zip(bundle, remaining)):
                rec(i + 1, tuple(r - x for r, x in zip(remaining, bundle)), acc + worth)

    rec(0, tuple(supply), 0.0)
    return best


def _task_oracle(sc: Scenario, sweep_idx: int, n: int, seed: int, audit, out: _TaskOut):
    gen = sc.spec["generator"]
    rng = np.random.default_rng(_task_seq(sc, sweep_idx, seed))
    mismatches = 0
    for _ in range(n):
        bids, supply = _random_gs_market(rng, gen)
        fast = max_welfare(bids, supply)[0]
        slow = _enumerated_welfare(bids, supply)
        if abs(fast - slow) > 1e-9:
            mismatches += 1
    out.rows.append((sc.id, n, seed, n, mismatches))
    out.checks.append(Check(
        sc.id, "oracle-equivalence", mismatches == 0,
        f"N={n} seed={seed}: {mismatches} mismatches in {n} instances",
    ))


def _draw_fisher_market(rng, gen: dict, buyers: int) -> FisherMarket:
    goods = gen["goods"]
    if "budgets" in gen:
        budgets = tuple(float(b) for b in gen["budgets"])
        buyers = len(budgets)
    else:
        budgets = tuple([1.0] * buyers)
    utils = []
    for _ in range(buyers):
        w = rng.uniform(gen["weight_low"], gen["weight_high"], goods)
        if gen["family"] == "cobb_douglas":
            utils.append(CobbDouglas(tuple(float(x) for x in w / w.sum()), 1.0))
        elif gen["family"] == "linear":
            utils.append(Linear(tuple(float(x) for x in w), 1.0))
        else:
            utils.append(CES(tuple(float(x) for x in w / w.sum()), gen["rho"], 1.0))
    return FisherMarket(budgets, tuple(utils))


def _check_certified(sc: Scenario, L: int, seed: int, res, out: _TaskOut) -> None:
    """A Fisher search that certified no equilibrium fails, whatever its
    floor check says about the ratios of no equilibria."""
    if not res.equilibria:
        out.checks.append(Check(
            sc.id, "certified-equilibrium", False,
            f"L={L} seed={seed}: search certified no equilibrium, {res.walks_dropped} walks dropped",
        ))


def _task_fisher_poa(sc: Scenario, sweep_idx: int, L: int, seed: int, audit, out: _TaskOut):
    spec = sc.spec
    rng = np.random.default_rng(_task_seq(sc, sweep_idx, seed))
    market = _draw_fisher_market(rng, spec["generator"], L)
    if spec["rescale"]:
        market = rescale_to_unit(market)
    res = poa_search(market, deltas=spec["deltas"], rng=rng, restarts=spec["restarts"])
    out.checks.append(Check(
        sc.id, "fisher-poa-bound", res.holds,
        f"L={L} seed={seed}: gm {res.gm_ratio:.4f}, sum {res.sum_ratio:.4f} vs bound {res.bound:.4f}, "
        f"{res.walks_dropped} walks dropped",
    ))
    _check_certified(sc, L, seed, res, out)
    out.rows.append((
        sc.id, L, market.m, seed, spec["generator"]["family"],
        res.gm_ratio, res.sum_ratio, res.bound, res.equilibria,
    ))


def _reserve_market(sc: Scenario, sweep_idx: int, L: int, seed: int):
    """Steps shared by Fisher reserve and regret tasks: draw a market, solve it,
    and reserve each good at the spec's fraction of its equilibrium price."""
    rng = np.random.default_rng(_task_seq(sc, sweep_idx, seed))
    plain = _draw_fisher_market(rng, sc.spec["generator"], L)
    pstar = np.asarray(solve_market(plain).prices)
    reserves = tuple(float(x) for x in sc.spec["reserve_fraction"] * pstar)
    return rng, plain, pstar, FisherMarket(plain.budgets, plain.utilities, reserves=reserves)


def _task_fisher_reserve(sc: Scenario, sweep_idx: int, L: int, seed: int, audit, out: _TaskOut):
    spec = sc.spec
    rng, plain, pstar, market = _reserve_market(sc, sweep_idx, L, seed)
    res = poa_search(market, deltas=spec["deltas"], rng=rng, restarts=spec["restarts"])
    out.checks.append(Check(
        sc.id, "reserve-poa-bound", res.holds,
        f"L={L} seed={seed}: sum {res.sum_ratio:.4f} vs bound {res.bound:.4f}, "
        f"{res.walks_dropped} walks dropped",
    ))
    _check_certified(sc, L, seed, res, out)

    trials = spec["compress_trials"]
    bad = 0
    total = float(sum(plain.budgets))
    for _ in range(trials):
        q = rng.uniform(0.05, 1.0, market.m)
        q = q * (total / q.sum())
        low = float(rng.uniform(0.1, 0.9))
        try:
            prices, t = compress_prices(
                tuple(float(x) for x in q), tuple(float(x) for x in pstar), low, total
            )
        except SolverError:
            bad += 1
            continue
        if abs(sum(prices) - total) > 1e-10 * max(1.0, total):
            bad += 1
            continue
        if any(
            p < low * ps - 1e-12 or p > t * ps + 1e-12 for p, ps in zip(prices, pstar)
        ):
            bad += 1
    if trials:
        out.checks.append(Check(
            sc.id, "compressed-prices", bad == 0,
            f"L={L} seed={seed}: {bad} invariant failures in {trials} random price vectors",
        ))
    out.rows.append((
        sc.id, L, market.m, seed, spec["generator"]["family"],
        res.sum_ratio, res.bound, res.stated_bound, trials, bad,
    ))


def _task_fisher_regret(sc: Scenario, sweep_idx: int, L: int, seed: int, audit, out: _TaskOut):
    spec = sc.spec
    _, _, _, market = _reserve_market(sc, sweep_idx, L, seed)
    lseed = int(_task_seq(sc, sweep_idx, seed, tag=1).generate_state(1)[0])
    res = run_market_learning(
        market, rounds=spec["rounds"], deltas=spec["deltas"], seed=lseed
    )
    out.checks.append(Check(
        sc.id, "fisher-regret-display", res.holds,
        f"L={L} seed={seed}: avg welfare {res.average_welfare:.4f} vs rhs {res.rhs:.4f} "
        f"(max phi {max(res.phi_measured):.2f})",
    ))
    out.rows.append((
        sc.id, L, market.m, seed, spec["generator"]["family"], res.rounds,
        res.average_welfare, res.truthful_total, res.bound_factor,
        max(res.phi_measured), int(res.holds),
    ))


def _ratio_trend(sc: Scenario, rows: list) -> list:
    """The worst ratio at the largest N against the smallest, when asked for."""
    if not sc.spec["trend_check"]:
        return []
    by_n = {}
    for row in rows:
        n, ratio = row[1], row[4]
        if ratio is not None:
            by_n.setdefault(n, []).append(ratio)
    if len(by_n) < 2:
        return []
    lo_n, hi_n = min(by_n), max(by_n)
    worst_lo, worst_hi = min(by_n[lo_n]), min(by_n[hi_n])
    ok = worst_hi >= worst_lo + 0.02 or (worst_lo > 0.95 and worst_hi > 0.95)
    return [Check(
        sc.id, "ratio-trend", ok,
        f"worst ratio {worst_lo:.4f} at N={lo_n} vs {worst_hi:.4f} at N={hi_n}",
    )]


def _lemma_coverage(sc: Scenario, rows: list) -> list:
    """Each lemma's precondition held in at least ``min_applied`` instances."""
    floor = sc.spec["min_applied"]
    if floor == 0:
        return []
    totals = {}
    for row in rows:
        totals[row[3]] = totals.get(row[3], 0) + row[5]
    checks = []
    for lemma in sc.spec["lemmas"]:
        got = totals.get(lemma, 0)
        checks.append(Check(
            sc.id, f"coverage-{lemma}", got >= floor,
            f"{got} precondition-passing instances (need {floor})",
        ))
    return checks


@dataclass(frozen=True)
class _Mode:
    """One (setting, mode): its key checkers in checking order (each fills in
    its key's default), cross-key check, CSV columns, the runner that fills
    one task's record, and the checks over all of a scenario's rows.  A
    runner is a pure function of (scenario, sweep point, seed) and is handed
    the point's audit of the (generator, assumptions, bidders) that
    ``audit(spec, N)`` names, or None."""

    keys: dict
    columns: tuple
    run: Callable
    cross_check: Callable = lambda spec, path, sweep: None
    scenario_checks: Callable = lambda sc, rows: []
    audit: Callable = lambda spec, n: None


_AUCTION_COLUMNS = (
    "scenario", "N", "seed", "rule", "ratio",
    "bound_sqrt", "bound_log", "certification", "regret",
)
_FISHER_KEYS = {
    "generator": _check_fisher_generator,
    "deltas": _check_deltas,
}
_RULE = partial(_opt, kinds=str, default="english", check=lambda r: None if r in ("english", "dutch", "mix") else "must be english, dutch, or mix")
_FISHER_RESTARTS = partial(_opt, kinds=int, default=8, check=_at_least(1))
_RESERVE_FRACTION = partial(_opt, kinds=float, default=0.25, check=lambda x: None if 0 < x <= 0.25 else "must lie in (0, 0.25]")

# Every mode, in the order the schema lists them.
_MODES = {
    ("walrasian", "poa_sweep"): _Mode(
        {
            "generator": _check_auction_generator,
            "assumptions": _check_assumptions_block,
            "grid": _check_grid_block,
            "restarts": partial(_opt, kinds=int, default=32, check=_at_least(1)),
            "trend_check": partial(_opt, kinds=bool, default=False),
            "rule": _RULE,
            "lam": _check_lam,
        },
        _AUCTION_COLUMNS, _task_poa_sweep,
        cross_check=_sweeps_binomial_trials, scenario_checks=_ratio_trend,
        audit=lambda spec, n: (spec["generator"], spec["assumptions"], n if spec["generator"]["bidders"] == "sweep" else spec["generator"]["bidders"]),
    ),
    ("walrasian", "validity"): _Mode(
        {
            "generator": partial(_check_corpus_block, defaults={"max_bidders": 5, "max_goods": 3, "max_cap": 2, "max_copies": 4, "low": 0.1, "high": 1.0}),
            "mix_weight": partial(_opt, kinds=float, default=0.5, check=lambda x: None if 0 <= x <= 1 else "must lie in [0, 1]"),
        },
        ("scenario", "N", "seed", "rule", "instances", "violations"), _task_validity,
    ),
    ("walrasian", "lemmas"): _Mode(
        {
            "generator": partial(_check_corpus_block, defaults={"max_bidders": 5, "max_goods": 2, "max_cap": 2, "max_copies": 8, "low": 0.3, "high": 1.0}),
            "lemmas": _check_lemma_list,
            "min_applied": partial(_opt, kinds=int, default=0, check=_at_least(0)),
        },
        ("scenario", "N", "seed", "lemma", "instances", "applied", "violations"), _task_lemmas,
        scenario_checks=_lemma_coverage,
    ),
    ("walrasian", "bullying"): _Mode(
        {}, _AUCTION_COLUMNS, _task_bullying,
        # A fixed one-good market of two bidders.
        audit=lambda spec, n: ({
            "family": "unit", "goods": 1, "cap": 1,
            "values": {"kind": "uniform", "low": 1.0, "high": 10.0},
            "supply": {"kind": "fixed", "counts": [1]},
        }, {"zeta": 10.0, "rho_prime": 1.0}, 2),
    ),
    ("walrasian", "regret"): _Mode(
        {
            "generator": _check_auction_generator,
            "assumptions": _check_assumptions_block,
            "grid": _check_grid_block,
            "players": partial(_need, kinds=int, check=_at_least(1)),
            "rounds": partial(_need, kinds=int, check=_at_least(1)),
            "feedback": partial(_opt, kinds=str, default="full", check=lambda f: None if f in ("full", "bandit") else "must be 'full' or 'bandit'"),
            "rule": _RULE,
            "lam": _check_lam,
        },
        _AUCTION_COLUMNS, _task_wal_regret, cross_check=_sized_by_players,
        audit=lambda spec, n: (spec["generator"], spec["assumptions"], spec["players"]),
    ),
    ("walrasian", "oracle"): _Mode(
        {"generator": partial(_check_corpus_block, defaults={"max_bidders": 4, "max_goods": 3, "max_cap": 2, "max_copies": 3, "low": 0.1, "high": 1.0})},
        ("scenario", "N", "seed", "instances", "mismatches"), _task_oracle,
    ),
    ("fisher", "poa"): _Mode(
        {
            **_FISHER_KEYS,
            "restarts": _FISHER_RESTARTS,
            "rescale": partial(_opt, kinds=bool, default=True),
        },
        ("scenario", "L", "m", "seed", "family", "ratio_gm", "ratio_sum", "bound", "equilibria"),
        _task_fisher_poa, cross_check=_budgets_fix_the_market,
    ),
    ("fisher", "reserve"): _Mode(
        {
            **_FISHER_KEYS,
            "restarts": _FISHER_RESTARTS,
            "reserve_fraction": _RESERVE_FRACTION,
            "compress_trials": partial(_opt, kinds=int, default=10, check=_at_least(0)),
        },
        (
            "scenario", "L", "m", "seed", "family",
            "ratio_sum", "bound", "stated_bound", "compress_trials", "violations",
        ),
        _task_fisher_reserve, cross_check=_budgets_fix_the_market,
    ),
    ("fisher", "regret"): _Mode(
        {
            **_FISHER_KEYS,
            "rounds": partial(_need, kinds=int, check=_at_least(1)),
            "reserve_fraction": _RESERVE_FRACTION,
        },
        (
            "scenario", "L", "m", "seed", "family", "rounds",
            "avg_welfare", "truthful_welfare", "bound_factor", "max_phi", "holds",
        ),
        _task_fisher_regret, cross_check=_budgets_fix_the_market,
    ),
}


_TASK_ERRORS = (InternalCheckError, SolverError, SizeLimitError)


def _point_audit(sc: Scenario, sweep_idx: int, n: int):
    """A sweep point's audit, seeded from the first seed; else the error it
    raised, for each task of the point to report; else None."""
    drawn = _MODES[(sc.setting, sc.mode)].audit(sc.spec, n)
    if drawn is None:
        return None
    gen, assumptions, bidders = drawn
    try:
        return audit_assumptions(gen, assumptions, n, bidders, _task_seq(sc, sweep_idx, sc.seeds[0], tag=2))
    except _TASK_ERRORS as e:
        return e


def _run_task(args) -> _TaskOut:
    sc, sweep_idx, sweep_val, seed, audit = args
    runner = _MODES[(sc.setting, sc.mode)].run
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


def _resolve_out_dir(out_dir: str | None = None) -> Path:
    """The output directory: ``out_dir``, else $MARKETLAB_OUT, else ./results."""
    return Path(out_dir or os.environ.get(OUT_ENV) or "results")


def _write_summary(out: Path, summary: dict) -> Path:
    path = out / "summary.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    return path


def write_error_summary(out_dir: str | None, error: str) -> Path:
    """A failed ``summary.json`` for a run stopped by a config error."""
    out = _resolve_out_dir(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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

    out = _resolve_out_dir(out_dir)
    out.mkdir(parents=True, exist_ok=True)

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
        entry = _MODES[(sc.setting, sc.mode)]
        checks.extend(entry.scenario_checks(sc, rows))
        csv_path = out / sc.csv
        _write_csv(csv_path, entry.columns, rows)
        reports.append(ScenarioReport(
            id=sc.id, csv_path=str(csv_path), rows=len(rows), passed=all(c.passed for c in checks),
            checks=checks, audits=[a for a in point if isinstance(a, AssumptionAudit)],
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
