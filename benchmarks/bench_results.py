"""Where benchmark runs write their results.

Fresh results go to the gitignored ``.bench_results/`` directory at the
repository root, so a test run leaves the working tree clean.  The
``BENCH_*.json`` files committed at the root are the recorded baselines:
``benchmarks/compare_bench.py`` diffs the fresh files against them, and
re-recording a baseline means copying a fresh file over its root twin.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / ".bench_results"


def result_path(name: str) -> Path:
    """The fresh-result path of ``name`` (e.g. ``BENCH_PR2.json``)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR / name
