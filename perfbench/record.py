"""Record the reference outputs the benchmark compares against.

    python3 perfbench/record.py [--workload NAME ...]

For every workload and seed block, runs the workload's configs once and
stores each CSV's sha256 and rows and every check verdict in
``perfbench/reference/<workload>.json``.  References belong to one commit of
the program; re-record them only when an output change is intended, and say
why in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import workloads  # noqa: E402
from marketlab.errors import CheckFailure  # noqa: E402
from marketlab.harness import run_config  # noqa: E402


def record(workload: str, blocks) -> dict:
    labels = [workloads.label(s) for s in workloads.sources(workload)]
    ref = {
        "workload": workload,
        "tolerant_columns": {
            k: list(v) for k, v in workloads.TOLERANT_COLUMNS.items() if k in labels
        },
        "tolerance": workloads.TOLERANCE,
        "blocks": {},
    }
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for k in blocks:
            entry = {}
            for name, path in workloads.write_configs(workload, k, Path(tmp) / "cfg"):
                out = Path(tmp) / f"{k}" / name
                try:
                    run_config(str(path), out_dir=str(out), jobs=1)
                except CheckFailure:
                    pass
                entry[name] = compare.snapshot(out)
                failed = compare.check_counts(entry[name])[1]
                print(f"{workload} block {k} {name}: {failed} failed checks", flush=True)
            ref["blocks"][str(k)] = entry
    return ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    for w in args.workload or sorted(workloads.WORKLOADS):
        ref = record(w, workloads.recorded_blocks(w))
        with open(HERE / "reference" / f"{w}.json", "w", encoding="utf-8") as f:
            json.dump(ref, f, separators=(",", ":"))
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
