"""A serial run loads only what it executes: the process pool and numpy.ma
add megabytes to every run's peak memory, and only ``--jobs`` needs the pool.
A run loads only the code of the settings its config names: a Walrasian run
leaves ``fisher`` out, and a Fisher run the auction stack."""

import json
import os
import subprocess
import sys
from pathlib import Path

import marketlab

SCRIPT = """
import json, sys

unused = ("concurrent.futures", "multiprocessing", "numpy.ma")
loaded = lambda: [name for name in unused if name in sys.modules]
import marketlab.cli, marketlab.harness
at_import = loaded()

from marketlab.fisher import FisherMarket, run_market_learning
from marketlab.strategic import LearningConfig, ScalingGrid, run_learning
from marketlab.supply import BinomialCounts
from marketlab.valuations import Linear, UnitDemand

bids = (UnitDemand((1.0,)), UnitDemand((0.8,)), UnitDemand((0.6,)))
grids = (ScalingGrid((0.5, 1.0)), ScalingGrid((0.5, 0.75, 1.0)), ScalingGrid((1.0,)))
run_learning(bids, grids, BinomialCounts(1, 3, 0.5), LearningConfig(rounds=20), seed=1)
after_auction = loaded()
market = FisherMarket((1.0, 1.0), (Linear((0.7, 0.3)), Linear((0.4, 0.6))), reserves=(0.2, 0.2))
run_market_learning(market, rounds=20, deltas=(0.2,), seed=4)
print(json.dumps([at_import, after_auction, loaded()]))
"""


RUN_SCRIPT = """
import json, sys

import marketlab.harness as harness

harness.run_config(sys.argv[1], out_dir=sys.argv[2])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("marketlab."))))
"""

AUCTION_STACK = ("marketlab.strategic", "marketlab.sensitivity", "marketlab.walrasian", "marketlab.supply")


def _run(script, *args):
    src = str(Path(marketlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_a_serial_run_loads_neither_the_pool_nor_numpy_ma():
    at_import, after_auction, after_fisher = _run(SCRIPT)
    assert at_import == []
    assert after_auction == []
    assert after_fisher == []


def test_a_walrasian_run_leaves_out_fisher(tmp_path):
    loaded = _run(RUN_SCRIPT, "walrasian_bullying", str(tmp_path / "out"))
    assert "marketlab.fisher" not in loaded and "marketlab.fisher_modes" not in loaded
    assert "marketlab.walrasian_modes" in loaded


def test_a_fisher_run_leaves_out_the_auction_stack(tmp_path):
    sc = {"id": "tiny", "setting": "fisher", "mode": "poa", "sweep": [2], "seeds": [0],
          "restarts": 1, "generator": {"goods": 2, "family": "linear"}}
    config = tmp_path / "fisher.json"
    config.write_text(json.dumps({"schema_version": 1, "scenarios": [sc]}))
    loaded = _run(RUN_SCRIPT, str(config), str(tmp_path / "out"))
    assert [name for name in AUCTION_STACK + ("marketlab.walrasian_modes",) if name in loaded] == []
    assert "marketlab.fisher" in loaded
