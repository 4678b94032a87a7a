"""The benchmark's workloads and the configs each one runs.

A part is a list of scenario configs; a workload is a list of parts, run
serially through ``marketlab.harness.run_config`` with ``jobs=1``.  The five
parts are the workloads the benchmark was designed around; every pass times
them one by one.  ``wal_corpus`` is a workload of its own, so that a change
to plain mechanism queries shows in a declared metric.  The other four are
grouped in pairs, because the machine the bounds were set on swings in speed
by tens of percent within seconds, and alone each of them gets too few
seconds of a run's time budget to stay inside its bounds.

Bundled configs are read with the package's own ``load_config``;
``fisher_iterative.json`` beside this file is owned by the benchmark.

``--seed n`` selects seed block ``k = n % SEED_BLOCKS``.  In block ``k`` a
scenario whose seed list is ``[s0, ..., s(L-1)]`` runs on
``[s + k * L for s in seeds]`` instead, so block 0 is the bundled scenario
byte for byte and every block keeps the scenario's size (the number of
seeds, hence tasks, is unchanged).  ``seed_override`` is not used because it
collapses a scenario to one seed, which makes ``walrasian_lemma_suite`` fail
its ``min_applied`` coverage check.

Timed runs of the ``fisher`` workload ignore ``--seed`` and always run
block 0, because its cost depends on the seed more than any bound could
absorb: one ``fisher_closed`` pass took 4.1 s in block 3 and 6.0 s in block
4, and one ``fisher_iterative`` seed took from 4.2 s to 35 s over seeds
0..5.  Block 0 of ``fisher_iterative`` also keeps the known ``SolverError``
at ``lin_poa`` L=8 seed=1 in every run.  References of its blocks
``0 .. FIXED_BLOCK["fisher"] - 1`` are recorded all the same, so that
``run.py --block k`` can check its outputs on seeds the timed runs never
use.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED_BLOCKS = 16

PARTS = {
    "wal_sweep": ("walrasian_binomial_sweep",),
    "wal_learning": ("walrasian_regret",),
    "wal_corpus": (
        "walrasian_validity", "walrasian_oracle", "walrasian_lemma_suite", "walrasian_bullying",
    ),
    "fisher_closed": ("fisher_poa", "fisher_reserve", "fisher_regret"),
    "fisher_iterative": (str(HERE / "fisher_iterative.json"),),
}

# workload -> its parts, in run order
WORKLOADS = {
    "wal_corpus": ("wal_corpus",),
    "wal_strategic": ("wal_sweep", "wal_learning"),
    "fisher": ("fisher_closed", "fisher_iterative"),
}

# Workloads whose timed runs always use block 0 -> number of blocks recorded
FIXED_BLOCK = {"fisher": 4}

# Per config: columns whose cells come from iterative equilibrium solves;
# they compare within TOLERANCE (fisher.CLEAR_TOL at the recording commit),
# other cells compare exactly.
TOLERANT_COLUMNS = {"fisher_iterative": ("ratio_gm", "ratio_sum")}
TOLERANCE = 1e-6


def seed_block(workload: str, seed: int) -> int:
    """Seed block a timed run of ``workload`` uses for ``--seed seed``."""
    if seed < 0:
        raise ValueError("--seed must be >= 0")
    return 0 if workload in FIXED_BLOCK else seed % SEED_BLOCKS


def recorded_blocks(workload: str) -> range:
    """Seed blocks whose outputs the references hold."""
    return range(FIXED_BLOCK.get(workload, SEED_BLOCKS))


def sources(workload: str) -> list[str]:
    """Config sources of a workload or a part, in run order."""
    if workload in PARTS:
        return list(PARTS[workload])
    return [s for part in WORKLOADS[workload] for s in PARTS[part]]


def label(source: str) -> str:
    return Path(source).stem


def shifted(cfg: dict, block: int) -> dict:
    """``cfg`` with every scenario's seed list moved to seed block ``block``."""
    out = copy.deepcopy(cfg)
    for sc in out.get("scenarios", []):
        seeds = sc["seeds"]
        sc["seeds"] = [s + block * len(seeds) for s in seeds]
    return out


def write_configs(workload: str, block: int, folder: Path) -> list[tuple[str, Path]]:
    """Write the configs of a workload or part for ``block`` into ``folder``.

    Returns ``(label, path)`` pairs in run order.  Needs ``marketlab`` on the
    import path.
    """
    from marketlab.harness import load_config

    folder.mkdir(parents=True, exist_ok=True)
    out = []
    for source in sources(workload):
        path = folder / f"{label(source)}.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(shifted(load_config(source), block), f, indent=1)
        out.append((label(source), path))
    return out
