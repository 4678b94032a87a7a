"""The Walrasian auction setting of the experiment runner: its modes' key
checkers, runners and scenario checks, the bidder and supply draws, and the
assumption audit of a sweep point.

``harness`` imports this module the first time it parses a scenario of
setting ``walrasian``, and finds each mode's entry in ``MODES``.  A Fisher
run never loads it, nor the auction stack it imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .harness import (
    Check,
    Scenario,
    _at_least,
    _between,
    _fail,
    _int_list,
    _Mode,
    _need,
    _no_extras,
    _opt,
    _positive,
    _task_seq,
    _TaskOut,
    _typed,
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
from .valuations import KDemand, UnitDemand, bundles_upto, scale_bid, value
from .walrasian import WelfareOracle, max_welfare, run_mechanism, validate_outcome

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


def _sweeps_binomial_trials(spec: dict, path: str, sweep: tuple):
    if spec["generator"]["supply"]["kind"] != "binomial":
        _fail(f"{path}.generator.supply.kind", "poa_sweep sweeps binomial trial counts")


def _sized_by_players(spec: dict, path: str, sweep: tuple):
    if spec["generator"]["bidders"] != "sweep":
        _fail(f"{path}.generator.bidders", "regret mode sizes the market by 'players'")


# -- instance generators ----------------------------------------------------------


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


# -- tasks -------------------------------------------------------------------------


def _rule_label(spec: dict) -> str:
    if spec["rule"] == "mix":
        return f"mix({spec['lam']:g})"
    return spec["rule"]


def _sweep_market(spec: dict, n: int):
    """The (generator, assumptions, bidders) a poa_sweep point draws: N
    bidders when the generator sweeps them, else its fixed count."""
    gen = spec["generator"]
    return gen, spec["assumptions"], n if gen["bidders"] == "sweep" else gen["bidders"]


def _regret_market(spec: dict, n: int):
    """The (generator, assumptions, bidders) a regret point draws."""
    return spec["generator"], spec["assumptions"], spec["players"]


def _bullying_market(spec: dict, n: int):
    """A fixed one-good market of two bidders."""
    return {
        "family": "unit", "goods": 1, "cap": 1,
        "values": {"kind": "uniform", "low": 1.0, "high": 10.0},
        "supply": {"kind": "fixed", "counts": [1]},
    }, {"zeta": 10.0, "rho_prime": 1.0}, 2


def _audit_of(market, spec: dict, n: int, seq) -> AssumptionAudit:
    """The ``_Mode.audit`` entry of a mode whose points draw ``market(spec, N)``."""
    gen, assumptions, bidders = market(spec, n)
    return audit_assumptions(gen, assumptions, n, bidders, seq)


def _auction_task(sc: Scenario, sweep_idx: int, n: int, seed: int, audit: AssumptionAudit, market):
    """Steps shared by poa_sweep and Walrasian regret tasks: draw as many
    bidders as the point's audit, the model and the grid, and bound the ratio
    from the audit (None when the audit suppresses it)."""
    spec = sc.spec
    gen, _, bidders = market(spec, n)
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
    rng, values, model, grid, sqrt_b, log_b = _auction_task(sc, sweep_idx, n, seed, audit, _sweep_market)
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
    _, values, model, grid, sqrt_b, log_b = _auction_task(sc, sweep_idx, n, seed, audit, _regret_market)
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
        menus.append([
            (w, value(b, w)) for w in bundles_upto(m, b.cap) if all(x <= s for x, s in zip(w, supply))
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


_AUCTION_COLUMNS = (
    "scenario", "N", "seed", "rule", "ratio",
    "bound_sqrt", "bound_log", "certification", "regret",
)


_RULE = partial(_opt, kinds=str, default="english", check=lambda r: None if r in ("english", "dutch", "mix") else "must be english, dutch, or mix")


# Every mode, in the order the schema lists them.
MODES = {
    "poa_sweep": _Mode(
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
        audit=partial(_audit_of, _sweep_market),
    ),
    "validity": _Mode(
        {
            "generator": partial(_check_corpus_block, defaults={"max_bidders": 5, "max_goods": 3, "max_cap": 2, "max_copies": 4, "low": 0.1, "high": 1.0}),
            "mix_weight": partial(_opt, kinds=float, default=0.5, check=lambda x: None if 0 <= x <= 1 else "must lie in [0, 1]"),
        },
        ("scenario", "N", "seed", "rule", "instances", "violations"), _task_validity,
    ),
    "lemmas": _Mode(
        {
            "generator": partial(_check_corpus_block, defaults={"max_bidders": 5, "max_goods": 2, "max_cap": 2, "max_copies": 8, "low": 0.3, "high": 1.0}),
            "lemmas": _check_lemma_list,
            "min_applied": partial(_opt, kinds=int, default=0, check=_at_least(0)),
        },
        ("scenario", "N", "seed", "lemma", "instances", "applied", "violations"), _task_lemmas,
        scenario_checks=_lemma_coverage,
    ),
    "bullying": _Mode(
        {}, _AUCTION_COLUMNS, _task_bullying, audit=partial(_audit_of, _bullying_market),
    ),
    "regret": _Mode(
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
        audit=partial(_audit_of, _regret_market),
    ),
    "oracle": _Mode(
        {"generator": partial(_check_corpus_block, defaults={"max_bidders": 4, "max_goods": 3, "max_cap": 2, "max_copies": 3, "low": 0.1, "high": 1.0})},
        ("scenario", "N", "seed", "instances", "mismatches"), _task_oracle,
    ),
}
