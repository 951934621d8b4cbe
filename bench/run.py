"""Benchmark of the dagenum command line.

    python3 bench/run.py --workload bounds_sweep --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  With --trace 0 one client runs the
workload's commands one at a time as separate `dagenum` processes (a closed
loop), in whole rounds for about --seconds, checks every output, and reports
the end-to-end metrics from each command's median time over its runs.  With --trace 1
it measures single layers on seeded inputs, then runs three rounds
in-process, the middle one with spans around the layer functions, and
reports the per-layer metrics; --seconds does not apply there.  The last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}; metric names and units are those of BENCHMARK.json.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# what the `dagenum` console script runs
ENTRY = "import sys; from dagenum.cli import main; sys.exit(main())"
# set-up samples: a burst before the first round, then a few in every round,
# so that the median spans the whole run
SETUP_REPEATS = 5
SETUP_PER_ROUND = 2
CMD_TIMEOUT = 120


class Runner:
    """Runs one workload's rounds and keeps the operation tally.

    An operation is one CLI command or one output check.  A command fails
    when it exits non-zero; a check fails when it finds a problem, and then
    the run is also marked incorrect.
    """

    def __init__(self, workload, seed: int, run_cmd):
        self.workload, self.seed, self.run_cmd = workload, seed, run_cmd
        self.attempted = self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self._verdicts: dict[tuple[str, str], list[str]] = {}  # identical output, same verdict

    def tally(self, problems: list[str], is_check: bool) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = self.correct and not is_check
            self.problems += problems[:3]

    def _check(self, name: str, fn, *args) -> list[str]:
        try:
            return fn(*args)
        except Exception as exc:  # a malformed output is a failed check, not a crash
            return [f"{name}: {type(exc).__name__}: {exc}"]

    def version_time(self) -> float:
        """One fresh `dagenum --version`: the start-up every command pays."""
        rc, out, secs = self.run_cmd(["--version"])
        self.tally([] if rc == 0 and out.startswith("dagenum ") else [f"--version: exit {rc}"], is_check=False)
        return secs

    def round(self, round_no: int, cache_dir: Path) -> dict:
        """One pass over the command list; returns the seconds of every run
        of each command."""
        shutil.rmtree(cache_dir, ignore_errors=True)
        times = {}
        outputs = {}
        for cmd in self.workload.round_order(self.seed, round_no):
            for _ in range(cmd.repeat):
                rc, out, secs = self.run_cmd(cmd.argv)
                self.tally([] if rc == 0 else [f"{cmd.name}: exit {rc}"], is_check=False)
                times.setdefault(cmd.name, []).append(secs)
                key = (cmd.name, out)
                if key not in self._verdicts:
                    self._verdicts[key] = self._check(cmd.name, cmd.check, out) if rc == 0 else [f"{cmd.name}: no output"]
                repeated = [] if outputs.setdefault(cmd.name, out) == out else [f"{cmd.name}: output changed on a repeat"]
                self.tally(self._verdicts[key] + repeated, is_check=rc == 0)
        for name, fn in self.workload.cross:
            self.tally(self._check(name, fn, outputs), is_check=True)
        ctab = sum(p.stat().st_size for p in cache_dir.glob("*.ctab"))
        return {"cmd_s": times, "ctab_bytes": ctab}


def _env() -> dict:
    env = dict(os.environ)
    env.pop("DAGENUM_CACHE_DIR", None)  # the no-cache commands must not find one
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _subprocess_cmd(env: dict):
    def run(argv: list[str]) -> tuple[int, str, float]:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=CMD_TIMEOUT)
        except subprocess.TimeoutExpired:
            return -1, "", time.perf_counter() - t0
        return proc.returncode, proc.stdout, time.perf_counter() - t0
    return run


def _inprocess_cmd(argv: list[str]) -> tuple[int, str, float]:
    from dagenum.cli import main

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue(), time.perf_counter() - t0


def run_untraced(workload, seed: int, seconds: float, cache_dir: Path) -> tuple[Runner, dict]:
    runner = Runner(workload, seed, _subprocess_cmd(_env()))
    runner.version_time()  # untimed warm-up; also writes the bytecode caches of a fresh checkout
    setup = [runner.version_time() for _ in range(SETUP_REPEATS)]
    rounds = []
    t0 = time.perf_counter()
    last = 0.0
    # start another round while it would end, at the last round's command
    # time, less than half a round after --seconds: runs then last --seconds
    # on average (the first round also pays for computing the check verdicts)
    while not rounds or time.perf_counter() - t0 + last / 2 < seconds:
        setup += [runner.version_time() for _ in range(SETUP_PER_ROUND)]
        rounds.append(runner.round(len(rounds), cache_dir))
        last = sum(setup[-SETUP_PER_ROUND:]) + sum(sum(v) for v in rounds[-1]["cmd_s"].values())
    shutil.rmtree(cache_dir, ignore_errors=True)

    # each command's median over all its runs, then summed: over every run of
    # a round for wall_s, and over one run of each command for a role
    cmds = [c for g in workload.groups for c in g]
    typical = {c.name: statistics.median(t for r in rounds for t in r["cmd_s"][c.name]) for c in cmds}

    def total(role=None) -> float:
        return sum(typical[c.name] * (1 if role else c.repeat) for c in cmds if role in (None, c.role))

    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": total(),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "sweep_cells_per_s": sum(c.cells for c in cmds) / total("sweep"),
        "count_nocache_s": total("nocache"),
        "count_cold_s": total("cold"),
        "count_warm_s": total("warm"),
        "cache_mb": statistics.median(r["ctab_bytes"] for r in rounds) / 1e6,
        "rounds": [{"ctab_bytes": r["ctab_bytes"], **{n: [round(t, 4) for t in v] for n, v in r["cmd_s"].items()}}
                   for r in rounds],
        "setup": [round(v, 4) for v in setup],
    }
    return runner, metrics


def run_traced(workload, seed: int, cache_dir: Path) -> tuple[Runner, dict, list[str]]:
    import layers
    import spans as spanlib

    os.environ.pop("DAGENUM_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    metrics, absent = layers.measure(seed, _env(), OUT)
    runner = Runner(workload, seed, _inprocess_cmd)
    def round_s() -> float:
        return sum(sum(v) for v in runner.round(0, cache_dir)["cmd_s"].values())

    before = round_s()
    tracer = spanlib.Tracer()
    tracer.install()
    try:
        traced = round_s()
    finally:
        tracer.uninstall()
    untraced = (before + round_s()) / 2  # one untraced round either side
    shutil.rmtree(cache_dir, ignore_errors=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl")
    absent += tracer.absent

    spans = tracer.summary()
    layer_self: dict[str, float] = {}
    for name, rec in spans.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + rec["self_s"]
    print("self time by layer (s): " + json.dumps({k: round(v, 6) for k, v in sorted(layer_self.items())}))

    def get(name: str, field: str) -> float:
        return spans[name][field] if name in spans else 0.0

    metrics.update({
        "airy.calls": get("airy._airy_ai_vec", "calls"),
        "airy.points": get("airy._airy_ai_vec", "points"),
        "airy.self_s": get("airy._airy_ai_vec", "self_s"),
        "bounds.verify.self_s": sum(get(f"bounds.verify_bounds.{s}", "self_s") for s in ("lower", "upper")),
        "tables.calls": sum(rec["calls"] for name, rec in spans.items() if name.startswith("tables.")),
        "tables.self_s": layer_self.get("tables", 0.0),
        "trace.spans": len(tracer.spans),
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
    })
    for side in ("lower", "upper"):
        metrics[f"bounds.x_row.calls.{side}"] = get(f"bounds._x_row.{side}", "calls")
        metrics[f"bounds.x_row.self_s.{side}"] = get(f"bounds._x_row.{side}", "self_s")
        metrics[f"bounds.scan.self_s.{side}"] = get(f"bounds._scan_block.{side}", "self_s")
        metrics[f"bounds.cells.{side}"] = get(f"bounds._scan_block.{side}", "cells")
    return runner, metrics, absent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dagenum" / "cli.py").is_file():
        print(f"bench: no dagenum source tree under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cache_dir = OUT / f"cache-{args.workload}"
    workload = workloads.WORKLOADS[args.workload](args.seed, str(cache_dir))

    if args.trace:
        runner, measured, absent = run_traced(workload, args.seed, cache_dir)
        wanted = spec["per_layer"]
    else:
        runner, measured = run_untraced(workload, args.seed, args.seconds, cache_dir)
        absent = []
        wanted = spec["end_to_end"]
        print("rounds: " + json.dumps(measured.pop("rounds")))
        print("setup: " + json.dumps(measured.pop("setup")))
    for name in [m["name"] for m in wanted if m["name"] not in measured]:
        absent.append(name)
    if absent:
        print("absent (reported as 0): " + ", ".join(absent))
    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
