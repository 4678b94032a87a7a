"""Snapshots of a run's outputs and their comparison with recorded references.

Standard library only, so ``run.py`` can compare without importing
``marketlab``.  A snapshot of one config's output directory holds, per CSV,
its sha256 and its rows, and the verdict of every check in ``summary.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import Counter
from pathlib import Path

_TASK = re.compile(r"sweep=(\d+) seed=(\d+):")


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def snapshot(out_dir: Path) -> dict:
    """Digest, rows and check verdicts of one ``run_config`` output directory."""
    out_dir = Path(out_dir)
    with open(out_dir / "summary.json", encoding="utf-8") as f:
        summary = json.load(f)
    checks, failed_tasks, csvs = [], [], {}
    for sc in summary["scenarios"]:
        for c in sc["checks"]:
            checks.append([sc["id"], c["name"], c["passed"]])
            m = _TASK.match(c["detail"])
            if c["name"].endswith("-internal") and m:
                failed_tasks.append([sc["id"], m.group(1), m.group(2)])
        path = out_dir / Path(sc["csv"]).name
        with open(path, encoding="utf-8", newline="") as f:
            table = list(csv.reader(f))
        csvs[path.name] = {"sha256": file_sha256(path), "columns": table[0], "rows": table[1:]}
    return {"checks": checks, "failed_tasks": failed_tasks, "csv": csvs}


def _close(a: str, b: str, tol: float) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if x == y:
        return True
    return abs(x - y) <= tol * max(1.0, abs(y))


def _task_of(columns: list, row: list) -> tuple:
    return (row[0], row[1], row[columns.index("seed")])


def mismatched_rows(new: dict, ref: dict, tolerant=(), tol: float = 0.0) -> int:
    """Reference CSV rows missing from or different in ``new``.

    Without tolerant columns a CSV matches when its bytes do; otherwise its
    rows are counted, and a CSV whose bytes differ counts at least one.  With
    tolerant columns rows pair up on their other cells and the tolerant cells
    may differ by ``tol`` (relative above 1).  A new row of a task that failed
    in the reference is not a mismatch.
    """
    bad = 0
    ref_failed = {tuple(t) for t in ref["failed_tasks"]}
    for name, want in ref["csv"].items():
        got = new["csv"].get(name)
        if got is None:
            bad += max(len(want["rows"]), 1)
            continue
        cols = want["columns"]
        soft = [i for i, c in enumerate(cols) if c in tolerant]
        if not soft:
            if got["sha256"] != want["sha256"]:
                missing = Counter(map(tuple, want["rows"])) - Counter(map(tuple, got["rows"]))
                bad += max(sum(missing.values()), 1)
            continue
        if got["columns"] != cols:
            bad += max(len(want["rows"]), 1)
            continue
        hard = [i for i in range(len(cols)) if i not in soft]
        pool: dict = {}
        for row in got["rows"]:
            pool.setdefault(tuple(row[i] for i in hard), []).append(row)
        unmatched = Counter()  # task -> reference rows without a partner
        for row in want["rows"]:
            cands = pool.get(tuple(row[i] for i in hard), [])
            hit = next(
                (c for c in cands if all(_close(c[i], row[i], tol) for i in soft)), None
            )
            if hit is None:
                unmatched[_task_of(cols, row)] += 1
            else:
                cands.remove(hit)
        bad += sum(unmatched.values())
        for row in (r for rows in pool.values() for r in rows):
            task = _task_of(cols, row)
            if unmatched[task] > 0:
                unmatched[task] -= 1  # the changed version of a row counted above
            elif task not in ref_failed:
                bad += 1
    return bad


def verdict_regressions(new: dict, ref: dict) -> int:
    """Checks that fail now beyond the failures the reference recorded."""
    def failures(snap):
        return Counter((s, n) for s, n, ok in snap["checks"] if not ok)

    extra = failures(new) - failures(ref)
    return sum(extra.values())


def check_counts(snap: dict) -> tuple[int, int]:
    """(checks attempted, checks failed) in one snapshot."""
    return len(snap["checks"]), sum(1 for _, _, ok in snap["checks"] if not ok)


def csv_digests(snap: dict) -> dict:
    return {name: c["sha256"] for name, c in snap["csv"].items()}
