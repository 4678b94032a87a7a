"""The Fisher market setting of the experiment runner: its modes' key
checkers and runners, and the market draw.

``harness`` imports this module the first time it parses a scenario of
setting ``fisher``, and finds each mode's entry in ``MODES``.  It loads
``fisher`` and the valuations alone: a Fisher run compiles none of the
auction stack (``strategic``, ``sensitivity``, ``walrasian``, ``supply``).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import SolverError
from .fisher import (
    FisherMarket,
    compress_prices,
    poa_search,
    rescale_to_unit,
    run_market_learning,
    solve_market,
)
from .harness import (
    Check,
    Scenario,
    _at_least,
    _between,
    _fail,
    _Mode,
    _need,
    _no_extras,
    _opt,
    _positive,
    _task_seq,
    _TaskOut,
    _typed,
)
from .valuations import CES, CobbDouglas, Linear


# -- schema ---------------------------------------------------------------------


def _check_deltas(spec: dict, path: str, key: str):
    vals = _opt(spec, path, key, list, (0.05, 0.1, 0.2))
    spec[key] = tuple(_typed(v, f"{path}.{key}[{i}]", float, _between(0.0, 1.0)) for i, v in enumerate(vals))


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


def _budgets_fix_the_market(spec: dict, path: str, sweep: tuple):
    if "budgets" in spec["generator"] and len(sweep) != 1:
        _fail(f"{path}.generator.budgets", "an explicit budget list fixes the market; use a single sweep value")


# -- tasks -------------------------------------------------------------------------


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


_FISHER_KEYS = {
    "generator": _check_fisher_generator,
    "deltas": _check_deltas,
}


_FISHER_RESTARTS = partial(_opt, kinds=int, default=8, check=_at_least(1))


_RESERVE_FRACTION = partial(_opt, kinds=float, default=0.25, check=lambda x: None if 0 < x <= 0.25 else "must lie in (0, 0.25]")


# Every mode, in the order the schema lists them.
MODES = {
    "poa": _Mode(
        {
            **_FISHER_KEYS,
            "restarts": _FISHER_RESTARTS,
            "rescale": partial(_opt, kinds=bool, default=True),
        },
        ("scenario", "L", "m", "seed", "family", "ratio_gm", "ratio_sum", "bound", "equilibria"),
        _task_fisher_poa, cross_check=_budgets_fix_the_market,
    ),
    "reserve": _Mode(
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
    "regret": _Mode(
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
