#!/usr/bin/env python
"""Diff freshly generated ``BENCH_*.json`` files against committed baselines.

The benchmarks write fresh results to the gitignored ``.bench_results/``
directory (see ``benchmarks/bench_results.py``); the ``BENCH_*.json`` files
committed at the repository root (``git show HEAD:BENCH_x.json``) are the
baselines recorded when the corresponding PR landed.  This script walks
both trees, pulls out every comparable scalar metric (throughput and
latency percentiles), and renders a GitHub-flavoured markdown table suitable
for ``$GITHUB_STEP_SUMMARY``.

Regressions beyond ``--threshold`` (default 20%) are flagged with a warning
row and an exit-status-independent ``::warning::`` annotation — the job stays
green (shared CI runners are far too noisy to gate merges on wall-clock
numbers), but the table makes a real regression impossible to miss.

Usage::

    python benchmarks/compare_bench.py [--threshold 0.2] [--baseline-ref HEAD]

Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

#: Scalar leaves worth comparing across runs.  ``higher_is_better`` keys flag
#: a regression when the fresh value drops; the latency keys when it rises.
HIGHER_IS_BETTER = {"requests_per_s", "samples_per_s", "throughput_rps",
                    "images_per_s", "speedup", "scaling_vs_1"}
LOWER_IS_BETTER = {"p50_ms", "p95_ms", "p99_ms", "mean_ms", "latency_ms"}
COMPARABLE = HIGHER_IS_BETTER | LOWER_IS_BETTER

#: Where the benchmarks write fresh results (relative to the repository root).
RESULTS_DIR = Path(".bench_results")


def walk_metrics(tree: object, prefix: str = "") -> Iterator[Tuple[str, str, float]]:
    """Yield ``(path, key, value)`` for every comparable numeric leaf."""
    if not isinstance(tree, dict):
        return
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from walk_metrics(value, path)
        elif key in COMPARABLE and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            yield path, key, float(value)


def baseline_json(ref: str, name: str) -> Dict:
    """The committed version of ``name`` at ``ref`` (empty if absent)."""
    try:
        blob = subprocess.run(["git", "show", f"{ref}:{name}"],
                              capture_output=True, check=True)
        return json.loads(blob.stdout.decode("utf-8"))
    except (subprocess.CalledProcessError, ValueError):
        return {}


def compare_file(path: Path, ref: str, threshold: float):
    fresh = json.loads(path.read_text())
    base = baseline_json(ref, path.name)
    base_metrics = {metric_path: value
                    for metric_path, _, value in walk_metrics(base)}
    rows = []
    regressions = []
    for metric_path, key, value in walk_metrics(fresh):
        old = base_metrics.get(metric_path)
        if old is None or old == 0:
            continue
        change = (value - old) / old
        regressed = (change < -threshold if key in HIGHER_IS_BETTER
                     else change > threshold)
        marker = " ⚠️" if regressed else ""
        rows.append((metric_path, old, value, change, marker))
        if regressed:
            regressions.append((path.name, metric_path, old, value, change))
    return rows, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative change flagged as a regression")
    parser.add_argument("--baseline-ref", default="HEAD",
                        help="git ref holding the baseline BENCH_*.json files")
    parser.add_argument("--glob", default="BENCH_*.json")
    args = parser.parse_args(argv)

    files = sorted(RESULTS_DIR.glob(args.glob))
    if not files:
        print(f"no fresh {args.glob} files in {RESULTS_DIR}/ — nothing to compare")
        return 0

    all_regressions = []
    print("## Benchmark comparison vs committed baselines\n")
    print(f"Baseline ref: `{args.baseline_ref}` · warn threshold: "
          f"±{args.threshold:.0%} (non-blocking)\n")
    for path in files:
        rows, regressions = compare_file(path, args.baseline_ref,
                                         args.threshold)
        all_regressions.extend(regressions)
        print(f"### {path.name}\n")
        if not rows:
            print("_no comparable baseline metrics (new benchmark?)_\n")
            continue
        print("| metric | baseline | fresh | change |")
        print("|---|---:|---:|---:|")
        for metric_path, old, new, change, marker in rows:
            print(f"| `{metric_path}` | {old:g} | {new:g} | "
                  f"{change:+.1%}{marker} |")
        print()

    if all_regressions:
        print(f"\n**{len(all_regressions)} metric(s) regressed beyond "
              f"{args.threshold:.0%}** (CI runners are noisy — treat as a "
              f"hint, not a verdict):\n")
        for name, metric_path, old, new, change in all_regressions:
            print(f"- {name}: `{metric_path}` {old:g} → {new:g} ({change:+.1%})")
            # GitHub annotation (shows on the workflow run, never fails it).
            sys.stderr.write(f"::warning title=bench regression::{name} "
                             f"{metric_path} {old:g} -> {new:g} "
                             f"({change:+.1%})\n")
    else:
        print("\nNo regressions beyond the threshold. ✅")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:              # |head etc. — not an error
        sys.exit(0)
