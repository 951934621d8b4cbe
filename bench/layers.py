"""Standalone measurements of single layers on seeded inputs.

Each measurement calls one layer function directly and reports the median
of a few repetitions.  A function that a later version no longer has is
reported as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEATS = 5
AIRY_POINTS = 2000
AIRY_RANGES = {"series": (-2.4, 8.0), "asym_near": (8.0, 30.0), "asym_far": (30.0, 115.0)}
DP_N = 200  # diagonal length for the DP and .ctab measurements (k = 2)
SCALED_ROWS = 4000
RATIO_NS = [32, 64, 128, 256, 512]
ORACLE_N = 5  # k = 2: 1363 relaxed trees, 1119 of them compacted


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fn(module: str, name: str):
    return getattr(importlib.import_module(module), name)


def _cli_import(python_env: dict) -> dict[str, float]:
    """Fresh interpreters: import time of dagenum.cli, and the modules a
    `count` command loads beyond the interpreter's own."""
    times = []
    for _ in range(REPEATS):
        out = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import dagenum.cli; print(time.perf_counter() - t)"],
            env=python_env, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        times.append(float(out))
    out = subprocess.run(
        [sys.executable, "-c",
         "import io, sys, contextlib; before = set(sys.modules); from dagenum.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()): main(['count', '--kind', 'relaxed', '--k', '2', '--n-max', '10'])\n"
         "print(len(set(sys.modules) - before))"],
        env=python_env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return {"cli.import_s": statistics.median(times), "cli.modules_loaded": int(out)}


def _airy(seed: int) -> dict[str, float]:
    import numpy as np

    ai = _fn("dagenum.asym.airy", "_airy_ai_vec")
    rng = np.random.default_rng(seed)
    out = {}
    for regime, (lo, hi) in AIRY_RANGES.items():
        xs = rng.uniform(lo, hi, AIRY_POINTS)
        out[f"airy.{regime}_pts_per_s"] = AIRY_POINTS / _median_time(lambda: ai(xs))
    one = np.array([rng.uniform(-2.4, 8.0)])
    out["airy.call_s"] = statistics.median(_median_time(lambda: ai(one), 1) for _ in range(50))
    return out


def _tables(tmp: Path) -> dict[str, float]:
    tables = importlib.import_module("dagenum.tables")
    out = {}
    cells = sum(n + 1 for n in range(DP_N + 1))  # k = 2: column n has n + 1 cells
    for kind in tables.KINDS:
        out[f"tables.dp_cells_per_s.{kind}"] = cells / _median_time(
            lambda: tables.diagonal_sequence(kind, 2, DP_N), 3)
    table = tables.build_table("relaxed", 2, DP_N)
    out["tables.build_cells_per_s"] = table.wedge_size() / _median_time(
        lambda: tables.build_table("relaxed", 2, DP_N), 3)
    path = tmp / "relaxed-k2.ctab"
    out["tables.save_s"] = _median_time(lambda: tables.save_table(table, path), 3)
    out["tables.load_s"] = _median_time(lambda: tables.load_table(path), 3)
    out["tables.ctab_mb"] = path.stat().st_size / 1e6
    return out


def _scaled_predict() -> dict[str, float]:
    build = _fn("dagenum.asym.scaled", "build_scaled_table")
    exact = _fn("dagenum.asym.scaled", "exact_transform_diagonal")
    profile = _fn("dagenum.asym.scaled", "profile_check")
    ratio = _fn("dagenum.asym.predict", "ratio_diagnostic")
    p_ratio = _fn("dagenum.asym.bounds", "p_ratio_check")
    return {
        "scaled.float_rows_per_s": SCALED_ROWS / _median_time(lambda: build(2, SCALED_ROWS), 3),
        "scaled.exact_transform_s": _median_time(lambda: exact(2, 15), 3),
        "scaled.profile_s": _median_time(lambda: profile(2, 200), 3),
        "predict.ratio_exact_s": _median_time(lambda: ratio("relaxed", 2, RATIO_NS, route="exact"), 3),
        "predict.ratio_scaled_s": _median_time(lambda: ratio("relaxed", 2, RATIO_NS, route="scaled"), 3),
        "bounds.p_ratio_s": _median_time(lambda: p_ratio(2, 15), 3),
    }


def _oracle_bijection(seed: int) -> dict[str, float]:
    enum = _fn("dagenum.oracle", "enumerate_relaxed")
    count_compacted = _fn("dagenum.oracle", "count_compacted_oracle")
    to_path = _fn("dagenum.bijection", "tree_to_path")
    to_tree = _fn("dagenum.bijection", "path_to_tree")
    trees = list(enum(2, ORACLE_N))
    compacted = count_compacted(2, ORACLE_N)
    random.Random(seed).shuffle(trees)
    return {
        "oracle.trees_per_s": len(trees) / _median_time(lambda: sum(1 for _ in enum(2, ORACLE_N)), 3),
        "oracle.compacted_trees_per_s": compacted / _median_time(lambda: count_compacted(2, ORACLE_N), 3),
        "bijection.round_trips_per_s": len(trees) / _median_time(
            lambda: [to_tree(to_path(t)) for t in trees], 3),
    }


def measure(seed: int, python_env: dict, work_dir: Path) -> tuple[dict[str, float], list[str]]:
    """All standalone layer metrics, and the names of groups found absent."""
    metrics: dict[str, float] = {}
    absent: list[str] = []
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        groups = [
            ("cli", lambda: _cli_import(python_env)),
            ("airy", lambda: _airy(seed)),
            ("tables", lambda: _tables(Path(tmp))),
            ("scaled/predict/bounds", _scaled_predict),
            ("oracle/bijection", lambda: _oracle_bijection(seed)),
        ]
        for name, fn in groups:
            try:
                metrics.update(fn())
            except (ImportError, AttributeError) as exc:
                absent.append(f"{name}: {exc}")
    return metrics, absent
