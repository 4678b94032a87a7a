"""Play rules both games share: the best-reply search and the no-regret
learner.  The auction game (``strategic``) and the Fisher reporting game
(``fisher``) both import them from here, and this module imports only numpy.

Both games search by these rules.  ``_walk_starts`` draws every walk's
start first, in the order of walks run one after another;
``lockstep_walks`` then makes each (sweep, player) step one stacked
``_scan`` reply over the walks still moving, and ``_switch_gains`` is the
table every certificate reads.  The distinct fixed points come back in walk
order, so the reports, the dropped count and the generator state are those
of running the walks one at a time.

``_Hedge`` is the no-regret learner of both learning loops.  It normalizes
each mixture over its own menu, as a per-player loop does, and folds the
regret sums and play counts once per block of rounds, so a round runs only
scores -> mixture -> draw -> payoffs -> scores.  Each loop keeps its draw,
payoff normalization and payoff-bound check.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GAIN_TOL", "lockstep_walks"]

GAIN_TOL = 1e-9


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
        menus = sorted(set(self.sizes.tolist()))  # not np.unique, which imports numpy.ma
        self.groups = [(np.flatnonzero(self.sizes == k), k) for k in menus]
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
