"""marketlab's benchmark: time workloads through ``run_config`` and check outputs.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--block K]

Run from anywhere inside a checkout that holds ``src/marketlab``.  With
``--trace 0`` it reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); with ``--trace 1`` the per-layer metrics and trace_overhead_s.
Both print fail_frac and output_mismatch beside the numbers and fold them
into the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` and ``failed`` count the checks
the program ran and failed in all passes.  ``correct`` is false when a
reference row is missing or different, when a check fails that passed in
the reference, or when two passes of one run wrote different CSV bytes.
``--block K`` runs seed block K in place of the one ``--seed`` selects, to
check outputs on seeds the timed runs do not use (timed ``fisher`` runs
always use block 0).  Scratch files go to ``.bench_work/`` at the checkout
root.  Each result records the environment and ``os.getloadavg()`` before
and after, so that runs on a busy machine can be spotted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
IMPORTTIME_PROBES = 3
IMPORT_ROOTS = {
    "scipy.stats": "setup.import.scipy_stats_s",
    "scipy.optimize": "setup.import.scipy_optimize_s",
    "numpy": "setup.import.numpy_s",
}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
UNITS = dict(END_TO_END) | {name: unit for name, unit, _ in tracing.PER_LAYER}
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(cmd, **kw) -> subprocess.CompletedProcess:
    try:
        done = subprocess.run(
            [sys.executable, *cmd], cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S,
            text=True, **kw,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out after {CHILD_TIMEOUT_S} s: {cmd}") from e
    if done.returncode != 0:
        raise BenchError(f"exit code {done.returncode}: {cmd}\n{done.stderr or ''}")
    return done


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            sha = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def import_tree(stderr: str) -> Counter:
    """Seconds under each ``IMPORT_ROOTS`` package in one ``-X importtime`` log.

    A package's time is the cumulative time of its outermost modules, so it
    includes what they import (scipy.stats pulls in scipy.optimize).
    ``marketlab`` counts only the self time of the package's own modules.
    """
    stack = []  # (depth, seconds per metric within that module's subtree)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cum, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        under = Counter()
        while stack and stack[-1][0] > depth:
            under.update(stack.pop()[1])
        for root, key in IMPORT_ROOTS.items():
            if name == root or name.startswith(root + "."):
                under[key] = int(cum) / 1e6
        if name == "marketlab" or name.startswith("marketlab."):
            under["setup.import.marketlab_s"] += int(own) / 1e6
        stack.append((depth, under))
    total = Counter({key: 0.0 for key in [*IMPORT_ROOTS.values(), "setup.import.marketlab_s"]})
    for _, under in stack:
        total.update(under)
    return total


def import_seconds() -> dict:
    """Median import times from ``-X importtime`` in fresh interpreters."""
    runs = [
        import_tree(run_child(
            ["-X", "importtime", "-c", "import marketlab.harness"], capture_output=True
        ).stderr)
        for _ in range(IMPORTTIME_PROBES)
    ]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def check_outputs(workload: str, block: int, snapshots: list) -> dict:
    """Compare every pass's outputs with the reference of its seed block."""
    with open(HERE / "reference" / f"{workload}.json", encoding="utf-8") as f:
        ref = json.load(f)
    want = ref["blocks"][str(block)]
    tolerant, tol = ref["tolerant_columns"], ref["tolerance"]
    attempted = failed = regressions = mismatch = 0
    first = None
    steady = True
    for snaps in snapshots:
        rows = 0
        for name, ref_snap in want.items():
            snap = snaps[name]
            rows += compare.mismatched_rows(snap, ref_snap, tolerant.get(name, ()), tol)
            regressions += compare.verdict_regressions(snap, ref_snap)
            a, b = compare.check_counts(snap)
            attempted, failed = attempted + a, failed + b
        mismatch = max(mismatch, rows)
        digests = {name: compare.csv_digests(s) for name, s in snaps.items()}
        first = first or digests
        steady = steady and digests == first
    return {
        "correct": mismatch == 0 and regressions == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 0.0,
        "output_mismatch": mismatch,
        "verdict_regressions": regressions,
        "passes_identical": steady,
    }


def start_worker(workload: str, seed: int, block, trace: bool, work: Path, *flags) -> dict:
    """One fresh worker process; returns its result record."""
    result_file = work / "worker.json"
    cmd = [
        str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--work", str(work), "--result", str(result_file), *flags,
    ]
    run_child(cmd + ([] if block is None else ["--block", str(block)]))
    with open(result_file, encoding="utf-8") as f:
        return json.load(f)


def run_workload(workload: str, seed: int, block, seconds: float, trace: bool,
                 env: dict) -> dict:
    """As many passes as fit in ``seconds`` (rounded to the nearest whole
    pass, at least one), then the metrics.

    Traced and untraced passes alternate, so their difference is the
    tracing overhead.  ``setup_s`` is the median of the untraced passes'
    set-up times, topped up with set-up-only workers to ``SETUP_SAMPLES``
    samples: ``SETUP_SAMPLES // 2`` before the passes, the rest after.
    """
    if block is not None and block not in workloads.recorded_blocks(workload):
        raise BenchError(f"no reference for {workload} block {block}")
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = os.getloadavg()
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES // 2):
            setups.append(start_worker(workload, seed, block, False, work, "--setup-only"))
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(start_worker(workload, seed, block, False, work))
        if trace:
            traced.append(start_worker(workload, seed, block, True, work))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) / 2 >= seconds:
            break
    if trace:
        metrics = {
            key: statistics.median(p["layers"][key] for p in traced)
            for key in traced[0]["layers"]
        }
        metrics.update(import_seconds())
        metrics["trace_overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain)
        )
    else:
        while len(setups) + len(plain) < SETUP_SAMPLES:
            setups.append(start_worker(workload, seed, block, False, work, "--setup-only"))
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in setups + plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    load_after = os.getloadavg()
    block = plain[0]["block"]
    verdict = check_outputs(workload, block, [p["snapshot"] for p in plain + traced])
    report = {
        "workload": workload, "seed": seed, "block": block, "env": env,
        "passes": len(plain),
        "walls_s": [p["wall_s"] for p in plain],
        "setups_s": [p["setup_s"] for p in setups + plain],
        "parts_wall_s": {
            part: statistics.median(
                sum(p["config_s"][workloads.label(s)] for s in workloads.PARTS[part])
                for p in plain
            )
            for part in workloads.WORKLOADS[workload]
            if len(workloads.WORKLOADS[workload]) > 1
        },
        "traced_walls_s": [p["wall_s"] for p in traced],
        "loadavg_before": load_before, "loadavg_after": load_after,
        **verdict, "metrics": metrics,
    }
    with open(work / "result.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    return report


def print_report(report: dict):
    w = report["workload"]
    print(f"{w}: seed {report['seed']} -> block {report['block']}, "
          f"{report['passes']} untraced pass(es), loadavg {report['loadavg_before'][0]:.2f} "
          f"-> {report['loadavg_after'][0]:.2f}")
    for name, value in report["metrics"].items():
        print(f"  {w}.{name} = {value:.6g} {UNITS[name]}")
    for part, value in report["parts_wall_s"].items():
        print(f"  {w}.part.{part}.wall_s = {value:.6g} s")
    print(f"  {w}.fail_frac = {report['fail_frac']:.6g} "
          f"({report['failed']}/{report['attempted']} checks)")
    print(f"  {w}.output_mismatch = {report['output_mismatch']} rows "
          f"(verdict regressions {report['verdict_regressions']}, "
          f"passes identical {report['passes_identical']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="marketlab benchmark")
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--block", type=int, help="seed block to run in place of the seed's")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "marketlab" / "harness.py").is_file():
        print(f"benchmark: no marketlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    reports = []
    try:
        for name in names:
            reports.append(run_workload(
                name, args.seed, args.block, args.seconds, bool(args.trace), env
            ))
            print_report(reports[-1])
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    expected = [n for n, _, _ in tracing.PER_LAYER] if args.trace else [n for n, _ in END_TO_END]
    for rep in reports:
        if sorted(rep["metrics"]) != sorted(expected):
            print(f"benchmark: {rep['workload']} metrics differ from the declared set",
                  file=sys.stderr)
            return 1
    prefix = len(reports) > 1
    metrics = {
        (f"{rep['workload']}.{k}" if prefix else k): {"value": v, "unit": UNITS[k]}
        for rep in reports for k, v in rep["metrics"].items()
    }
    print(json.dumps({
        "correct": all(rep["correct"] for rep in reports),
        "attempted": sum(rep["attempted"] for rep in reports),
        "failed": sum(rep["failed"] for rep in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
