"""Strategy grids, equilibrium search, learning dynamics, and welfare ratios
for the auction game.

Players submit scaled copies of their true valuations.  The tools here
evaluate expected outcomes over the copy-count distribution, find and
certify equilibria on the finite strategy grid, run no-regret dynamics,
and check the price-comparison and utility-floor inequalities that drive
the welfare guarantees.

Every game is evaluated through one table interface with two
implementations, picked once by ``_auction``: ``table`` gives a profile
stack's utilities for every menu entry at every supply, ``outcomes`` one
profile's own utilities and true welfare per supply, ``play`` one learning
round.  ``_SingleGood``, for unit-demand players on one good, is an
order-statistic kernel over copy counts 0..max and matches ``run_mechanism``
to the bit.  It works on integer keys fixed when the game is built: every
candidate bid of every player gets one, in the engine's slot order (weight,
then owner), so ranking a profile sorts integers with no tie, a win is one
integer comparison and ``worth[key]`` reads a price back.  ``_Engine`` runs
``run_mechanism`` itself, on the distinct count vectors among the atoms, for
every other game.  All expectations go through ``GameContext._expect``.  The
kernel decides a win only in ``_SingleGood._settle``, which returns the win
mask with the utilities: ``utilities`` applies it to a stack of profiles for
both ``table`` and ``outcomes`` (whose welfare counts the winners of that
mask), and ``play`` to one learning round, whose keys, sorted once, give
every player's price slot.

A certificate is one table call: ``GameContext.certify`` reads a profile's
own utilities off the own entries of its menu table, and its Monte Carlo
differences off that table's per-atom rows.  ``stats`` serves ``report``
alone and keeps no cache.

``_Hedge`` is the no-regret learner of both learning loops, this one and the
Fisher one.  It normalizes each mixture over its own menu, as a per-player
loop does, and folds the regret sums and play counts once per block of
rounds, so a round runs only scores -> mixture -> draw -> payoffs -> scores.
Each loop keeps its draw, payoff normalization and payoff-bound check.

Both games search by rules coded once here.  ``_walk_starts`` draws every
walk's start first, in the order of walks run one after another;
``lockstep_walks`` then makes each (sweep, player) step one stacked
``_scan`` reply over the walks still moving, and ``_switch_gains`` is the
table every certificate reads.  The distinct fixed points come back in walk
order, so the reports, the dropped count and the generator state are those
of running the walks one at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .errors import InternalCheckError
from .sensitivity import Z99, deficit_ball_bound, instability_mass, is_unstable_within
from .supply import MultiplicityModel, iter_support, sample, support_size
from .valuations import (
    UnitDemand,
    _value,
    minimal_equivalent_bundle,
    max_item_value,
    scale_bid,
    value,
)
from .walrasian import WelfareOracle, _check_rule, run_mechanism

__all__ = [
    "ScalingGrid",
    "Certification",
    "EquilibriumReport",
    "GameContext",
    "lockstep_walks",
    "best_response_dynamics",
    "exhaustive_equilibria",
    "worst_equilibrium",
    "ratio_bound_sqrt",
    "ratio_bound_log",
    "LemmaVerdict",
    "check_price_floor",
    "check_price_bracket",
    "check_smooth_bound",
    "LearningConfig",
    "LearningResult",
    "run_learning",
]

GAIN_TOL = 1e-9


@dataclass(frozen=True)
class ScalingGrid:
    """Finite bid menu: every (scale, offset) pair applied weight-wise to the
    player's true valuation.  Truthful play (1, 0) is always a member."""

    scales: tuple[float, ...]
    offsets: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        scales = tuple(float(g) for g in self.scales)
        offsets = tuple(float(d) for d in self.offsets)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "offsets", offsets)
        if any(g < 0 for g in scales) or any(d < 0 for d in offsets):
            raise ValueError("scales and offsets must be nonnegative")
        if 1.0 not in scales or 0.0 not in offsets:
            raise ValueError("the truthful strategy (scale 1, offset 0) is required")
        if len(set(scales)) != len(scales) or len(set(offsets)) != len(offsets):
            raise ValueError("duplicate grid entries")

    @property
    def strategies(self) -> tuple[tuple[float, float], ...]:
        return tuple((g, d) for g in self.scales for d in self.offsets)


def _menus(grids, players: int) -> tuple[tuple[tuple[float, float], ...], ...]:
    """Each player's strategies, from one grid per player or one lone
    ``ScalingGrid`` for all."""
    grids = [grids] * players if isinstance(grids, ScalingGrid) else list(grids)
    if len(grids) != players:
        raise ValueError("need one grid per player")
    return tuple(g.strategies for g in grids)


@dataclass(frozen=True)
class Certification:
    kind: str  # "exact-nash" | "eps-nash" | "not-equilibrium"
    max_gain: float
    witness: Optional[tuple[int, int]]  # (player, strategy index)
    ci99: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class EquilibriumReport:
    profile: tuple[int, ...]
    strategies: tuple[tuple[float, float], ...]
    sw_true_expected: float
    sw_opt_expected: float
    ratio: float
    certification: Certification

    def __post_init__(self):
        if not -1e-9 <= self.ratio <= 1.0 + 1e-9:
            raise InternalCheckError(f"welfare ratio {self.ratio} outside [0, 1]")


@dataclass(frozen=True)
class _Stats:
    utils: tuple[float, ...]
    sw_true: float


def _auction(true_values, menu, goods: int, rule: str, lam: Optional[float]):
    """The table implementation for one auction game: the order-statistic
    kernel for unit-demand players on one good, the exact engine otherwise."""
    _check_rule(rule, lam)
    if goods == 1 and all(isinstance(v, UnitDemand) for v in true_values):
        return _SingleGood(true_values, menu, rule, lam)
    return _Engine(true_values, menu, rule, lam)


class _SingleGood:
    """Order statistics of a one-good auction among unit-demand players.

    ``cand[i, s]`` is player i's bid under menu entry s, the same float
    expression as ``scale_bid``; entries past a shorter menu bid 0.
    ``key[i, s]`` in 1..K is that bid's place among all K candidates sorted
    by (weight, owner), so keys of different players compare as the
    engine's slot order and never tie; ``worth[key]`` is the bid, with the
    sentinels ``worth[0] = 0`` below every bid and ``worth[K + 1] = +inf``
    above.  ``challenge[i, s]`` is the key, or 0 for a zero bid, which never
    wins.  A profile's keys sorted descending are its slots: at supply n the
    positive bids on the n top slots win, the english price is the bid on
    slot n + 1 and the dutch price the bid on slot n.
    """

    def __init__(self, true_values, menu, rule: str, lam: Optional[float]):
        weights = [v.weights[0] for v in true_values]
        self.tv = np.array(weights)
        self.owner = np.arange(len(weights))
        self.cand = np.zeros((len(weights), max(len(m) for m in menu)))
        for i, (w, m) in enumerate(zip(weights, menu)):
            self.cand[i, : len(m)] = [g * w + d for g, d in m]
        owners = np.repeat(self.owner, self.cand.shape[1])
        ranked = np.lexsort((owners, self.cand.ravel()))
        self.top = ranked.size + 1
        key = np.empty(ranked.size, dtype=int)
        key[ranked] = np.arange(1, self.top)
        self.key = key.reshape(self.cand.shape)
        self.worth = np.concatenate(([0.0], self.cand.ravel()[ranked], [np.inf]))
        self.challenge = np.where(self.cand > 0.0, self.key, 0)
        # Zero bids hold keys 1..zero_keys, below every positive bid.
        self.zero_keys = int(np.count_nonzero(self.cand == 0.0))
        # The dutch price's weight in the price; 1 is the dutch price, also
        # at supply 0, where the english one is +inf.
        self.blend = {"english": 0.0, "dutch": 1.0}.get(rule, lam)

    def supplies(self, atoms) -> tuple[np.ndarray, np.ndarray]:
        """The supply axis of this game's tables, copy counts 0..max, and
        the place of every atom on it."""
        ns = np.fromiter((c[0] for c in atoms), int)
        return np.arange(ns.max(initial=0) + 1), ns

    def keys(self, profiles) -> np.ndarray:
        """keys[p, i]: the key of player i's bid in profiles[p]."""
        return self.key[self.owner, profiles]

    def table(self, profiles, who, supplies: np.ndarray) -> np.ndarray:
        """util[p, w, s, a]: true utility of player who[p, w] switching to
        menu entry s against the rest of profiles[p], at supply supplies[a]."""
        return self.utilities(self.keys(profiles), who, supplies)[0]

    def outcomes(self, profile, supplies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """util[i, a] of every player and the true welfare sw[a] of one
        profile at every supply, welfare summed in player order: every
        player's own entry of the profile's table and its win mask."""
        util, won = self.utilities(self.keys([profile]), self.owner[None], supplies)
        own = 0, self.owner, profile
        return util[own], np.where(won[own], self.tv[:, None], 0.0).sum(axis=0)

    def play(self, actions: np.ndarray, n) -> tuple[np.ndarray, float]:
        """One learning round at count vector n: uts[i, s] = util of player
        i playing s against the others' actions, and the realized welfare
        of the actions, summed in slot order.  The same floats as the
        ``utilities`` row, read off the round's keys sorted once."""
        keys = self.keys(actions)
        order = keys.argsort()
        rising = keys[order].tolist()
        n = n[0]
        players = len(rising)

        def slot(j):  # the j-th best key of the round, with its sentinels
            return self.top if j < 0 else rising[players - 1 - j] if j < players else 0

        held = keys[:, None]

        def others(j):
            below = slot(j + 1)
            return np.where(held > below, below, slot(j))

        uts, _ = self._settle(self.challenge, self.cand, self.tv[:, None], n, others)
        take = min(n, players - bisect_right(rising, self.zero_keys))
        return uts, float(np.add.reduce(self.tv[order[players - take :][::-1]]))

    def utilities(self, keys, who, supplies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """util[p, w, s, a]: true utility of player who[p, w] switching to
        menu entry s while everyone else keeps key row p, at supply
        supplies[a], and won[p, w, s, a], whether that bid gets a copy.
        Each row is the same float expression as a one-row call."""
        who = np.asarray(who)
        profiles, players = keys.shape
        rows = np.arange(profiles)[:, None]
        # Each row's keys in slot order after the top sentinel, zero-padded
        # past the end.
        slots = np.zeros((profiles, players + int(supplies.max(initial=0)) + 2), dtype=keys.dtype)
        slots[:, 0] = self.top
        slots[:, 1 : players + 1] = np.sort(keys, axis=1)[:, ::-1]
        row = rows[..., None, None]
        held = keys[rows, who][..., None, None]

        def others(j):
            above = slots[row, 1 + j]
            return np.where(above > held, above, slots[row, 2 + j])

        me = who[..., None, None]
        return self._settle(
            self.challenge[who][..., None], self.cand[who][..., None], self.tv[me], supplies, others
        )

    def _settle(self, challenge, x, tv, supplies, others) -> tuple[np.ndarray, np.ndarray]:
        """True utility, for a player of true value tv, of a candidate bid x
        with challenge key ``challenge`` at supply supplies, and whether it
        wins, where others(j) is the key of the j-th best slot (from 0; the
        top sentinel at -1) held by anyone but the player.

        The candidate wins at supply n when its challenge key exceeds the
        n-th best other key, others(n - 1), whose bid is then the english
        price, the (n+1)-th largest (at supply 0 the top sentinel's +inf).
        The dutch price, the n-th largest, is the lower of the candidate and
        others(n - 2).  Losers' prices are never used."""
        english = others(supplies - 1)
        wins = challenge > english
        if self.blend == 0.0:
            price = self.worth[english]
        else:
            dutch = np.minimum(x, self.worth[others(np.maximum(supplies - 2, -1))])
            price = dutch if self.blend == 1.0 else (
                (1.0 - self.blend) * self.worth[english] + self.blend * dutch
            )
        return np.where(wins, tv - price, 0.0), wins


class _Engine:
    """The tables of ``_SingleGood`` for any game, over count vectors: one
    ``run_mechanism`` outcome per (profile, count vector), one
    ``WelfareOracle`` per profile, cached up to ``CACHE_LIMIT`` outcomes."""

    CACHE_LIMIT = 200_000

    def __init__(self, true_values, menu, rule: str, lam: Optional[float]):
        self.true_values = tuple(true_values)
        self.menu = tuple(menu)
        self.rule = rule
        self.lam = lam
        self._bids = [[scale_bid(v, g, d) for g, d in m] for v, m in zip(true_values, menu)]
        # (profile, count vectors) -> rows of utilities and true welfare
        self._cache: dict[tuple, np.ndarray] = {}

    def supplies(self, atoms) -> tuple[tuple, np.ndarray]:
        """The distinct count vectors among the atoms, in order of first
        appearance, and the place of every atom among them."""
        place: dict = {}
        ns = np.array([place.setdefault(c, len(place)) for c in atoms], dtype=int)
        return tuple(place), ns

    def outcomes(self, profile, supplies) -> tuple[np.ndarray, np.ndarray]:
        """util[i, a] and true welfare sw[a], as ``_SingleGood.outcomes``."""
        key = (tuple(profile), tuple(supplies))
        table = self._cache.get(key)
        if table is None:
            bids = tuple(b[s] for b, s in zip(self._bids, key[0]))
            oracle, rows = WelfareOracle(bids), []
            for n in key[1]:
                o = run_mechanism(bids, n, self.rule, self.lam, oracle=oracle)
                worth = [_value(v, x) for v, x in zip(self.true_values, o.allocation)]
                rows.append([w - c for w, c in zip(worth, o.payments)] + [sum(worth)])
            table = np.array(rows).T
            if len(self._cache) * len(rows) < self.CACHE_LIMIT:
                self._cache[key] = table
        return table[:-1], table[-1]

    def table(self, profiles, who, supplies) -> np.ndarray:
        """util[p, w, s, a], as ``_SingleGood.table``; 0 past a menu's end."""
        who = np.asarray(who)
        util = np.zeros((*who.shape, max(map(len, self.menu)), len(supplies)))
        for p, profile in enumerate(np.asarray(profiles).tolist()):
            for w, i in enumerate(who[p].tolist()):
                for s in range(len(self.menu[i])):
                    trial = profile[:i] + [s] + profile[i + 1 :]
                    util[p, w, s] = self.outcomes(trial, supplies)[0][i]
        return util

    def play(self, actions: np.ndarray, n) -> tuple[np.ndarray, float]:
        """One learning round, as ``_SingleGood.play``; the realized welfare
        is summed in player order."""
        uts = self.table(actions[None], [range(len(actions))], [n])[0, ..., 0]
        return uts, float(self.outcomes(actions.tolist(), [n])[1][0])


class GameContext:
    """Expected-outcome evaluator for one auction game.

    Expectations over the copy-count model are exact when the support is
    small, otherwise Monte Carlo over a common set of draws shared by every
    profile so deviation comparisons are paired.
    """

    def __init__(
        self,
        true_values,
        grids,
        model: MultiplicityModel,
        rule: str = "english",
        lam: Optional[float] = None,
        exact_limit: int = 10_000,
        mc_draws: int = 2000,
        seed: int = 0,
    ):
        if mc_draws < 2:
            raise ValueError("Monte Carlo certificates need at least two draws")
        self.true_values = tuple(true_values)
        self.players = len(self.true_values)
        self.menu = _menus(grids, self.players)
        self.model = model
        self._game = _auction(self.true_values, self.menu, model.goods, rule, lam)
        self.rule = rule
        self.lam = lam
        self.exact = support_size(model) <= exact_limit
        if self.exact:
            atoms = list(iter_support(model))
        else:
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            weight = 1.0 / mc_draws
            atoms = [(sample(model, rng), weight) for _ in range(mc_draws)]
        self._atom_counts = tuple(c for c, _ in atoms)
        self._atom_probs = np.array([p for _, p in atoms])
        self._true_oracle = WelfareOracle(self.true_values)
        self._opt = np.array(
            [self._true_oracle.welfare(c) for c in self._atom_counts]
        )
        # Tables run over the game's supply axis; atoms index into it.
        self._supplies, self._ns = self._game.supplies(self._atom_counts)
        sizes = np.array([len(m) for m in self.menu])
        self._mask = np.arange(sizes.max()) < sizes[:, None]
        # Position of every menu entry in (scale, offset) order.
        self._menu_place = tuple(
            np.argsort(sorted(range(len(m)), key=m.__getitem__)) for m in self.menu
        )

    # -- expected statistics ------------------------------------------------

    def expected_opt(self) -> float:
        return float(self._opt @ self._atom_probs)

    def stats(self, profile) -> _Stats:
        util, sw = self._game.outcomes(tuple(profile), self._supplies)
        return _Stats(tuple(self._expect(util).tolist()), float(self._expect(sw)))

    def _expect(self, table: np.ndarray) -> np.ndarray:
        """Expectation of a per-supply table over the atoms.  Stacks of two
        or more rows sum atom by atom, so equal rows agree to the bit; a lone
        row (1-D or one row) sums pairwise and may differ by an ulp."""
        return (table[..., self._ns] * self._atom_probs).sum(axis=-1)

    # -- equilibrium machinery ----------------------------------------------

    def best_response(self, profile, i: int) -> tuple[int, float]:
        """Best grid reply for player i, ties toward the largest entry."""
        best_s, best_u = self._replies([profile], i)
        return int(best_s[0]), float(best_u[0])

    def best_responses(self, profiles, i: int) -> np.ndarray:
        """best_response(profiles[p], i)[0] for every row p of a profile
        stack, from one table call."""
        return self._replies(profiles, i)[0]

    def _replies(self, profiles, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Player i's ``_scan`` reply to every row of a profile stack, and its
        utility, on the (scale, offset) ranks of its menu."""
        table = self._game.table(profiles, np.full((len(profiles), 1), i), self._supplies)
        return _scan(self._expect(table)[:, 0, : len(self.menu[i])], self._menu_place[i])

    def certify(self, profile, tol: float = GAIN_TOL) -> Certification:
        """Whether any player gains more than tol by a unilateral switch,
        from one table of every player's menu against ``profile``."""
        profile = tuple(profile)
        table = self._game.table([profile], [np.arange(self.players)], self._supplies)[0]
        gains = _switch_gains(self._expect(table), profile, self._mask)
        if not np.isfinite(gains).any():
            return Certification("exact-nash", 0.0, None)
        # First largest gain in (player, entry) order.
        i, s = np.unravel_index(int(np.argmax(gains)), gains.shape)
        worst_gain, witness = float(gains[i, s]), (int(i), int(s))
        if self.exact:
            if worst_gain <= tol:
                return Certification("exact-nash", max(worst_gain, 0.0), None)
            return Certification("not-equilibrium", worst_gain, witness)
        diffs = table[i, s, self._ns] - table[i, profile[i], self._ns]
        half = Z99 * float(diffs.std(ddof=1)) / math.sqrt(diffs.size)
        lo, hi = float(diffs.mean() - half), float(diffs.mean() + half)
        if lo > tol:
            return Certification("not-equilibrium", worst_gain, witness, (lo, hi))
        return Certification("eps-nash", max(worst_gain, 0.0), witness, (lo, hi))

    def report(self, profile, certification=None) -> EquilibriumReport:
        profile = tuple(profile)
        cert = certification or self.certify(profile)
        s = self.stats(profile)
        opt = self.expected_opt()
        ratio = s.sw_true / opt if opt > 0 else 1.0
        return EquilibriumReport(
            profile,
            tuple(self.menu[i][s_] for i, s_ in enumerate(profile)),
            s.sw_true,
            opt,
            ratio,
            cert,
        )


def _scan(utils: np.ndarray, rank) -> tuple[np.ndarray, np.ndarray]:
    """The best entry of every row of ``utils[p, s]`` and its utility, the
    menu scanned in order: an entry takes over when it gains more than
    GAIN_TOL on the best so far, or ties within GAIN_TOL and has the higher
    ``rank[s]``.  With equal ranks the first of tied entries stays."""
    best_s = np.zeros(len(utils), dtype=int)
    best_u = utils[:, 0].copy()
    for s in range(1, utils.shape[1]):
        u = utils[:, s]
        take = (u > best_u + GAIN_TOL) | ((abs(u - best_u) <= GAIN_TOL) & (rank[s] > rank[best_s]))
        best_s[take] = s
        best_u[take] = u[take]
    return best_s, best_u


def _walk_starts(rng: np.random.Generator, sizes, restarts: int) -> np.ndarray:
    """``restarts`` random profiles over menus of ``sizes`` entries, drawn
    row by row with one ``rng.integers(0, size)`` per player."""
    starts = [[int(rng.integers(0, k)) for k in sizes] for _ in range(restarts)]
    return np.array(starts, dtype=int).reshape(restarts, len(sizes))


def _switch_gains(utils: np.ndarray, profile, cells: np.ndarray) -> np.ndarray:
    """gains[i, s]: player i's gain by switching alone from its entry of
    ``profile`` to s, off the table ``utils[i, s]`` of every menu against
    ``profile``; -inf at its own entry and past its menu (``cells`` False)."""
    players = np.arange(len(profile))
    gains = np.where(cells, utils - utils[players, profile][:, None], -np.inf)
    gains[players, profile] = -np.inf
    return gains


def lockstep_walks(starts, best_responses, max_sweeps: int) -> tuple[list[tuple[int, ...]], int]:
    """Round-robin best-reply walks from the rows of ``starts``, all in step.

    ``best_responses(profiles, i)`` gives player i's reply to every row of a
    profile stack.  Each (sweep, player) step is one such call over the
    walks still moving, and a walk leaves after a sweep that changed
    nothing.  Returns the distinct final profiles of the walks that stopped,
    in walk order, and the number of walks still moving after
    ``max_sweeps`` sweeps.
    """
    profiles = np.array(starts, dtype=int)
    live = np.arange(len(profiles))
    for _ in range(max_sweeps):
        if not live.size:
            break
        changed = np.zeros(live.size, dtype=bool)
        for i in range(profiles.shape[1]):
            s = best_responses(profiles[live], i)
            changed |= s != profiles[live, i]
            profiles[live, i] = s
        live = live[changed]
    ends = map(tuple, np.delete(profiles, live, axis=0).tolist())
    return list(dict.fromkeys(ends)), int(live.size)


def best_response_dynamics(
    ctx: GameContext,
    rng: np.random.Generator,
    restarts: int = 32,
    max_sweeps: int = 200,
) -> tuple[list[EquilibriumReport], int]:
    """Round-robin best-reply walks from random profiles.  Returns a report
    for every fixed point reached (certified exactly by construction) and
    the number of walks dropped for not converging within ``max_sweeps``
    sweeps.  The walks run in lockstep (see the module docstring)."""
    starts = _walk_starts(rng, [len(m) for m in ctx.menu], restarts)
    ends, dropped = lockstep_walks(starts, ctx.best_responses, max_sweeps)
    reports = []
    for key in ends:
        cert = ctx.certify(key)
        if cert.kind != "not-equilibrium":
            reports.append(ctx.report(key, cert))
    return reports, dropped


def exhaustive_equilibria(ctx: GameContext, limit: int = 100_000) -> list[EquilibriumReport]:
    """Every exact grid equilibrium, by full profile enumeration."""
    sizes = [len(m) for m in ctx.menu]
    total = math.prod(sizes)
    if total > limit:
        raise ValueError(f"profile space {total} exceeds enumeration limit {limit}")
    out = []
    for profile in product(*(range(s) for s in sizes)):
        cert = ctx.certify(profile)
        if cert.kind != "not-equilibrium":
            out.append(ctx.report(profile, cert))
    return out


def worst_equilibrium(
    ctx: GameContext,
    rng: np.random.Generator,
    restarts: int = 32,
    exhaustive_limit: int = 100_000,
) -> tuple[Optional[EquilibriumReport], list[EquilibriumReport], bool, int]:
    """Lowest-welfare certified equilibrium found, every certified report,
    whether the search was exhaustive, and how many best-response walks it
    dropped.  The search is exhaustive when the profile space is small
    enough, otherwise a best-response search whose result is a lower-bound
    witness, not a proven worst case."""
    sizes = math.prod(len(m) for m in ctx.menu)
    if sizes <= exhaustive_limit:
        reports, dropped = exhaustive_equilibria(ctx, exhaustive_limit), 0
        complete = True
    else:
        reports, dropped = best_response_dynamics(ctx, rng, restarts=restarts)
        complete = False
    worst = min(reports, key=lambda r: r.ratio) if reports else None
    return worst, reports, complete, dropped


# ---------------------------------------------------------------------------
# Welfare-ratio lower bounds.


def ratio_bound_sqrt(
    goods: int, max_items: int, value_cap: float, welfare_rate: float, peak: float
) -> float:
    """Square-root form of the equilibrium welfare floor."""
    k = max_items
    ball = deficit_ball_bound(goods, k + 1)
    return 1.0 - (3.0 * k * value_cap * goods / welfare_rate) * math.sqrt(
        (k + 2) * goods * peak * ball
    )


def ratio_bound_log(
    goods: int, max_items: int, value_cap: float, welfare_rate: float, peak: float
) -> float:
    """Geometric-schedule form of the floor; vacuous (-inf) once the
    instability mass reaches 1, where its log factor would flip sign."""
    k = max_items
    y = instability_mass(goods, k, peak)
    if y >= 1.0:
        return -math.inf
    steps = math.ceil(math.log2(1.0 / y))
    return 1.0 - (3.0 * k * (k + 1) * value_cap * goods / welfare_rate) * y * steps


# ---------------------------------------------------------------------------
# Inequality checks gated on price stability.


@dataclass(frozen=True)
class LemmaVerdict:
    applied: bool
    ok: bool
    detail: str = ""


def _stable_everywhere(oracle, supply, max_items, threshold, ceiling) -> bool:
    """The price lemmas' precondition: no good is scarce (every supply is
    above max_items + 1) and every good is price-stable with that headroom."""
    return min(supply) > max_items + 1 and all(
        not is_unstable_within(oracle, supply, j, max_items + 1, threshold, ceiling)
        for j in range(oracle.m)
    )


def _truthful_switch(true_values, bids, bidder: int) -> tuple:
    """The bids with ``bidder``'s replaced by its true valuation."""
    return tuple(true_values[i] if i == bidder else b for i, b in enumerate(bids))


def check_price_floor(bids, bidder: int, supply, rule="english", lam=None) -> LemmaVerdict:
    """Low-end prices without one bidder never exceed the mechanism's prices
    with that bidder present."""
    rest = tuple(b for i, b in enumerate(bids) if i != bidder)
    without = WelfareOracle(rest).english(supply)
    with_all = WelfareOracle(bids).prices(supply, rule, lam)
    gap = without - with_all
    bad = np.flatnonzero(gap > 1e-9)
    if bad.size:
        j = int(bad[0])
        return LemmaVerdict(
            True, False, f"good {j}: {without[j]} > {with_all[j]} without bidder {bidder}"
        )
    return LemmaVerdict(True, True)


def check_price_bracket(
    true_values,
    bids,
    bidder: int,
    supply,
    max_items: int,
    threshold: float,
    ceiling: float,
    rule="english",
    lam=None,
    tol: float = 1e-9,
) -> LemmaVerdict:
    """Truncated prices under a truthful unilateral switch stay within
    (max_items + 1) * threshold above the as-bid prices, provided the supply
    is price-stable with that much headroom and no good is scarce."""
    supply = tuple(int(c) for c in supply)
    oracle = WelfareOracle(bids)
    if not _stable_everywhere(oracle, supply, max_items, threshold, ceiling):
        return LemmaVerdict(False, True, "precondition not met")
    floor = check_price_floor(bids, bidder, supply, rule, lam)
    if not floor.ok:
        return LemmaVerdict(True, False, f"floor: {floor.detail}")
    p_truth = WelfareOracle(_truthful_switch(true_values, bids, bidder)).prices(supply, rule, lam)
    p_bid = oracle.prices(supply, rule, lam)
    slackp = (max_items + 1) * threshold
    for j in range(oracle.m):
        lhs = min(p_truth[j], ceiling)
        rhs = min(p_bid[j], ceiling) + slackp
        if lhs > rhs + tol:
            return LemmaVerdict(True, False, f"good {j}: {lhs} > {rhs}")
    return LemmaVerdict(True, True)


def check_smooth_bound(
    true_values,
    bids,
    bidder: int,
    supply,
    max_items: int,
    threshold: float,
    ceiling: float,
    rule="english",
    lam=None,
    tol: float = 1e-9,
) -> LemmaVerdict:
    """Utility floor for a truthful unilateral switch: at least the truthful
    optimum's value minus as-bid prices on that bundle, minus the stability
    slack on its essential items."""
    supply = tuple(int(c) for c in supply)
    v_i = true_values[bidder]
    if ceiling < max_item_value(v_i) - 1e-12:
        return LemmaVerdict(False, True, "ceiling below an item value")
    oracle = WelfareOracle(bids)
    if not _stable_everywhere(oracle, supply, max_items, threshold, ceiling):
        return LemmaVerdict(False, True, "precondition not met")

    out = run_mechanism(_truthful_switch(true_values, bids, bidder), supply, rule, lam)
    u_truthful = value(v_i, out.allocation[bidder]) - out.payments[bidder]

    truthful_alloc = WelfareOracle(true_values).allocation(supply)[bidder]
    essential = minimal_equivalent_bundle(v_i, truthful_alloc)
    p_bid = oracle.prices(supply, rule, lam)
    bundle_cost = float(
        sum(c * p for c, p in zip(truthful_alloc, p_bid) if c)
    )
    overlap = sum(min(a, b) for a, b in zip(truthful_alloc, essential))
    rhs = (
        value(v_i, truthful_alloc)
        - bundle_cost
        - overlap * (max_items + 1) * threshold
    )
    if u_truthful < rhs - tol:
        return LemmaVerdict(
            True, False, f"bidder {bidder}: utility {u_truthful} below floor {rhs}"
        )
    return LemmaVerdict(True, True)


# ---------------------------------------------------------------------------
# No-regret dynamics.


@dataclass(frozen=True)
class LearningConfig:
    rounds: int
    feedback: str = "full"  # "full" | "bandit"
    payoff_bound: float = 1.0
    regret_scale: float = 2.0  # budget constant c in c * sqrt(T ln K) * bound

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("need at least one round")
        if self.feedback not in ("full", "bandit"):
            raise ValueError("feedback must be 'full' or 'bandit'")
        if self.payoff_bound <= 0:
            raise ValueError("payoff bound must be positive")


@dataclass(frozen=True)
class LearningResult:
    average_welfare: float
    expected_opt: float
    regrets: tuple[float, ...]
    regret_budgets: tuple[float, ...]
    mixtures: tuple[tuple[float, ...], ...]
    play_counts: tuple[tuple[int, ...], ...]
    rounds: int


class _Hedge:
    """Multiplicative weights over menus of ``sizes`` entries for ``rounds``
    rounds.  State is players x (largest menu) arrays whose entries past a
    player's menu are never read: ``scores``, to which the caller adds
    normalized payoffs, and the sums of payoffs, earned payoffs (the
    mixture's expected payoff, or the played entry's when not ``expected``)
    and play counts.

    ``note`` keeps a round's payoffs, actions and mixture in block buffers
    of at most ``BLOCK_ELEMENTS`` elements; ``fold`` adds them into the sums
    when the block is full, and the caller folds after the last round.  A
    sum is a ``cumsum`` over rounds whose first row adds the running sum, so
    it equals a round-by-round update to the bit."""

    BLOCK_ROUNDS = 512
    BLOCK_ELEMENTS = 1 << 13  # 64 KiB buffers come from the freed heap

    def __init__(self, sizes, rounds: int, expected: bool = True):
        self.sizes = np.asarray(sizes)
        self.groups = [(np.flatnonzero(self.sizes == k), int(k)) for k in np.unique(self.sizes)]
        self.etas = np.array(
            [math.sqrt(8.0 * math.log(k) / rounds) if k > 1 else 0.0 for k in self.sizes]
        )[:, None]
        shape = (self.sizes.size, int(self.sizes.max()))
        self.scores = np.zeros(shape)
        self.counter = np.zeros(shape)  # cumulative payoff of every entry
        self.earned = np.zeros(self.sizes.size)  # cumulative payoff earned
        self.counts = np.zeros(shape, dtype=int)
        self.block = max(1, min(self.BLOCK_ROUNDS, rounds, self.BLOCK_ELEMENTS // math.prod(shape)))
        self._payoffs = np.empty((self.block, *shape))
        self._mixtures = np.empty((self.block, *shape)) if expected else None
        self._actions = np.empty((self.block, shape[0]), dtype=int)
        self._noted = 0

    def mixtures(self) -> np.ndarray:
        """Each row normalized over its own k entries and zero beyond them,
        equal to the per-player ``w / w.sum()`` to the bit: numpy sums 8 or
        more entries pairwise, so a zero-padded row would add in another
        order."""
        def mix(own, eta):
            w = own - np.maximum.reduce(own, axis=1, keepdims=True)
            w *= eta
            np.exp(w, out=w)
            return w / np.add.reduce(w, axis=1, keepdims=True)

        if len(self.groups) == 1:  # one menu size: no row is padded
            return mix(self.scores, self.etas)
        sigma = np.zeros(self.scores.shape)
        for rows, k in self.groups:
            sigma[rows, :k] = mix(self.scores[rows, :k], self.etas[rows])
        return sigma

    def note(self, payoffs: np.ndarray, actions: np.ndarray, mixtures=None) -> None:
        t = self._noted
        self._payoffs[t] = payoffs
        self._actions[t] = actions
        if self._mixtures is not None:
            self._mixtures[t] = mixtures
        self._noted = t + 1
        if self._noted == self.block:
            self.fold()

    def fold(self) -> None:
        t, self._noted = self._noted, 0
        if not t:
            return
        payoffs, actions = self._payoffs[:t], self._actions[:t]
        players = np.arange(self.sizes.size)
        if self._mixtures is None:
            gained = payoffs[np.arange(t)[:, None], players, actions]
        else:
            # Batched per menu size, each dot is the same as a lone one.
            gained = np.empty((t, self.sizes.size))
            for rows, k in self.groups:
                gained[:, rows] = (
                    self._mixtures[:t, rows, None, :k] @ payoffs[:, rows, :k, None]
                )[..., 0, 0]
        gained[0] += self.earned
        self.earned = gained.cumsum(axis=0)[-1]
        payoffs[0] += self.counter
        self.counter = payoffs.cumsum(axis=0)[-1]
        np.add.at(self.counts, (players, actions), 1)

    def regrets(self) -> tuple[float, ...]:
        return tuple(
            float(self.counter[i, :k].max() - self.earned[i]) for i, k in enumerate(self.sizes)
        )

    def rows(self, table: np.ndarray) -> tuple[tuple, ...]:
        """Each player's row of a players x (largest menu) table."""
        return tuple(tuple(table[i, :k].tolist()) for i, k in enumerate(self.sizes))


def run_learning(
    true_values,
    grids,
    model: MultiplicityModel,
    config: LearningConfig,
    rule: str = "english",
    lam: Optional[float] = None,
    seed: int = 0,
) -> LearningResult:
    """Simultaneous no-regret play over the strategy grids.

    Full-information mode runs multiplicative weights on payoffs normalized
    from [-bound, bound] to [0, 1]; each player's measured regret (on their
    own mixture, against the best fixed menu entry in hindsight) must stay
    within the documented budget, or the run raises: the bound is a theorem
    for correctly computed payoffs.  Bandit mode runs importance-weighted
    updates from own realized payoffs only; its regret is reported, not
    asserted.  A fresh copy-count draw is made every round.
    """
    players = len(true_values)
    menu = _menus(grids, players)
    game = _auction(true_values, menu, model.goods, rule, lam)
    sizes = np.array([len(m) for m in menu])
    rows = np.arange(players)
    last = sizes - 1
    T = config.rounds
    chi = config.payoff_bound
    limit = chi + 1e-9
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    learner = _Hedge(sizes, T)
    bandit = config.feedback == "bandit"
    explore = np.array([
        min(1.0, math.sqrt(k * math.log(k) / ((math.e - 1.0) * T))) if k > 1 else 0.0
        for k in sizes
    ])[:, None]
    keep, floor = 1.0 - explore, explore / sizes[:, None]
    welfare_sum = 0.0

    true_oracle = WelfareOracle(true_values)
    if support_size(model) <= 10_000:
        expected_opt = math.fsum(p * true_oracle.welfare(c) for c, p in iter_support(model))
    else:
        sample_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        draws = [true_oracle.welfare(sample(model, sample_rng)) for _ in range(2000)]
        expected_opt = float(np.mean(draws))

    for _ in range(T):
        n_t = sample(model, rng)
        mixtures = learner.mixtures()
        if bandit:
            mixtures = keep * mixtures + floor
        u = rng.random(players)
        # Inverse-CDF draw: the count of cumulative weights at or below u.
        drawn = np.add.reduce(np.add.accumulate(mixtures, axis=1) <= u[:, None], axis=1)
        actions = np.minimum(drawn, last)

        uts, welfare = game.play(actions, n_t)
        if np.maximum.reduce(np.abs(uts), axis=None) > limit:
            over = (np.abs(uts) > limit).any(axis=1)
            raise ValueError(
                f"payoff bound {chi} does not cover player {np.flatnonzero(over)[0]}'s payoffs"
            )
        if bandit:
            played = uts[rows, actions]
            learner.scores[rows, actions] += (played + chi) / (2.0 * chi) / mixtures[rows, actions]
        else:
            learner.scores += (uts + chi) / (2.0 * chi)
        learner.note(uts, actions, mixtures)
        welfare_sum += welfare
    learner.fold()

    regrets = learner.regrets()
    budgets = tuple(
        config.regret_scale * math.sqrt(T * math.log(max(k, 2))) * chi for k in sizes
    )
    if config.feedback == "full":
        for i, (r, b) in enumerate(zip(regrets, budgets)):
            if r > b + 1e-9:
                raise InternalCheckError(
                    f"player {i} measured regret {r} exceeds budget {b}"
                )
    return LearningResult(
        average_welfare=welfare_sum / T,
        expected_opt=expected_opt,
        regrets=regrets,
        regret_budgets=budgets,
        mixtures=learner.rows(learner.mixtures()),
        play_counts=learner.rows(learner.counts),
        rounds=T,
    )
