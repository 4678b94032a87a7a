"""A serial run loads only what it executes: the process pool and numpy.ma
add megabytes to every run's peak memory, and only ``--jobs`` needs the pool."""

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


def test_a_serial_run_loads_neither_the_pool_nor_numpy_ma():
    src = str(Path(marketlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    at_import, after_auction, after_fisher = json.loads(done.stdout)
    assert at_import == []
    assert after_auction == []
    assert after_fisher == []
