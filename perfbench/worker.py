"""One fresh process that sets up, runs a workload once and times both.

    python3 perfbench/worker.py --workload NAME --seed N [--block K] \\
        --trace 0|1 [--setup-only] --work DIR --result FILE

Started by ``run.py``, once per pass; writes the pass's set-up time, wall
time, the wall time of each config, the process's peak RSS, a snapshot of
its outputs and, traced, its per-layer metrics as JSON to ``--result``.
Set-up is ``import marketlab.harness`` plus ``load_config``/``parse_config``
of the workload's configs, timed from the first line of this file; with
``--setup-only`` the worker stops after it.  Every pass runs in a fresh
process, as ``marketlab run`` does: a second pass in the same process ran
about 10% slower than the first, so passes of one process are not alike.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import marketlab.harness as harness  # noqa: E402

_IMPORT_S = time.perf_counter() - _START

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from marketlab.errors import CheckFailure  # noqa: E402


def parse_seconds(configs) -> float:
    """Seconds to load and parse every config."""
    start = time.perf_counter()
    for _, path in configs:
        harness.parse_config(harness.load_config(str(path)))
    return time.perf_counter() - start


def one_pass(configs, out: Path, tracer=None) -> tuple[float, dict, dict]:
    """Run every config once; returns (wall seconds, wall seconds per config,
    snapshot per config)."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    per_config = {}
    try:
        start = time.perf_counter()
        for name, path in configs:
            began = time.perf_counter()
            try:
                harness.run_config(str(path), out_dir=str(out / name), jobs=1)
            except CheckFailure:
                pass  # the failing verdicts are in summary.json
            per_config[name] = time.perf_counter() - began
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    snaps = {name: compare.snapshot(out / name) for name, _ in configs}
    shutil.rmtree(out)
    return seconds, per_config, snaps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--block", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    block = workloads.seed_block(args.workload, args.seed) if args.block is None else args.block
    configs = workloads.write_configs(args.workload, block, args.work / "configs")
    result = {"block": block, "setup_s": _IMPORT_S + parse_seconds(configs)}
    if not args.setup_only:
        tracer = tracing.Tracer() if args.trace else None
        wall, per_config, snaps = one_pass(configs, args.work / "out", tracer)
        result.update({
            "wall_s": wall,
            "config_s": per_config,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "snapshot": snaps,
            "layers": tracer.metrics() if tracer else None,
        })
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
