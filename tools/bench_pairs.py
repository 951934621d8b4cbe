"""Alternating parent/change pairs of the benchmark, written as BENCH_<label>.json.

    python3 tools/bench_pairs.py --base REV --label L --workload W --pairs N --seeds 17001-17010

Extracts REV into a temporary directory with `git archive` and copies this
checkout's files (tracked and untracked, less what .gitignore lists) beside
it, so each side runs `bench/run.py` from a fresh directory.  Pair i runs
`python3 bench/run.py --workload W --seed S_i --seconds <run_seconds of
BENCHMARK.json> --trace 0` on both sides, the parent first when i is even
and the change first when i is odd, one run at a time.

The file holds every run (the final JSON line of bench/run.py and each
command's median over all its timings) and, per metric of BENCHMARK.json,
each side's median and inclusive quartiles, the parent's interquartile
range, the pairs the change reads better in (ties count for neither) and
the metric's bound; `cmd:<name>` gives the median over the runs of each
run's median time of that command.  Its `machine` block records the speed
of a fixed pure-Python loop before the first and after the last run of each
workload, so files written at different host speeds can be told apart; the
metrics are not rescaled by it.  A file that already exists keeps its other
workloads, so each workload can be run on its own.  The file is rewritten
after every pair.  Run from anywhere inside the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """"17001-17003,17010" -> [17001, 17002, 17003, 17010]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def reference_loops_per_s(n: int = 1_000_000, repeats: int = 5) -> float:
    """Iterations per second of a fixed integer loop, median of repeats."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return n / statistics.median(times)


def machine() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                 if line.startswith("model name")]
        cpu = names[0] if names else cpu
    try:
        from importlib.metadata import PackageNotFoundError, version

        numpy = version("numpy")
    except PackageNotFoundError:
        numpy = None
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "os": f"{platform.system()} {platform.release()}"}


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def extract_base(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest)


def copy_checkout(dest: Path) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, names):
        src = ROOT / os.fsdecode(name)
        if src.is_file():  # a tracked file deleted in the working tree is gone
            (dest / src.relative_to(ROOT)).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / src.relative_to(ROOT))


def run_bench(side_dir: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=side_dir, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench-pairs: {' '.join(argv)} in {side_dir} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    rounds = json.loads(next(line for line in lines if line.startswith("rounds: ")).split(": ", 1)[1])
    names = [name for name in rounds[0] if name != "ctab_bytes"]
    return {
        "rounds": len(rounds),
        "command_median_s": {
            name: round(statistics.median(t for r in rounds for t in r[name]), 4) for name in names
        },
        "result": json.loads(lines[-1]),
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict], spec: dict) -> dict:
    """Per-metric comparison of the pairs in runs (parent and change by seed)."""
    by_seed: dict[int, dict] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run
    pairs = [p for _, p in sorted(by_seed.items()) if len(p) == 2]
    summary: dict = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        summary[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "pairs": len(pairs),
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])),
            "parent": parent,
            "change": change,
            "median_change_pct": (100 * (change["median"] - parent["median"]) / parent["median"]
                                  if parent["median"] else None),
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    for name in sorted(pairs[0]["parent"]["command_median_s"]) if pairs else []:
        summary[f"cmd:{name}"] = {
            side: statistics.median(p[side]["command_median_s"][name] for p in pairs)
            for side in ("parent", "change")
        }
    failed = {side: sum(p[side]["result"]["failed"] for p in pairs) for side in ("parent", "change")}
    summary["failed_ops"] = {
        **failed,
        **{f"attempted_{side}": sum(p[side]["result"]["attempted"] for p in pairs)
           for side in ("parent", "change")},
        "all_correct": all(p[side]["result"]["correct"] for p in pairs for side in ("parent", "change")),
    }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json at the checkout root")
    ap.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    ap.add_argument("--pairs", type=int, required=True, help="number of parent/change pairs")
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="one seed per pair: a comma-separated list of seeds and ranges a-b")
    args = ap.parse_args(argv)
    if args.pairs < 1 or len(args.seeds) != args.pairs:
        ap.error(f"--seeds gives {len(args.seeds)} seeds for {args.pairs} pairs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    base = git("rev-parse", "--short", args.base).decode().strip()
    out = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(out.read_text()) if out.exists() else {"label": args.label}
    record.update(
        command=f"python3 bench/run.py --workload <workload> --seed <seed> --seconds {seconds} --trace 0",
        protocol=(f"parent ({base}, git archive) and change (a copy of the checkout's files) in "
                  "fresh directories side by side, one run at a time, pairs alternating which side "
                  "runs first (even pairs parent first); quartiles are inclusive over a side's runs; "
                  "cmd:* entries are the median over the runs of each run's per-command median; "
                  "change_wins counts pairs where the change reads better, ties counting for neither"),
    )
    loops = record.get("machine", {}).get("reference_loops_per_s", {})
    loops[args.workload] = {"before": reference_loops_per_s()}
    record["machine"] = {**machine(), "reference_loops_per_s": loops}
    runs = [r for r in record.get("runs", []) if r["workload"] != args.workload]
    record.setdefault("summary", {})

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        extract_base(base, sides["parent"])
        copy_checkout(sides["change"])
        done = []
        for i, seed in enumerate(args.seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = run_bench(sides[side], args.workload, seed, seconds)
                finished = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
                done.append({"workload": args.workload, "seed": seed, "side": side,
                             "finished": finished, **result})
                print(f"bench-pairs: {args.workload} seed {seed} {side}: "
                      f"{json.dumps(result['result']['metrics'])}", flush=True)
            record["summary"][args.workload] = summarise(done, spec)
            record["runs"] = runs + done
            out.write_text(json.dumps(record, indent=1) + "\n")
    loops[args.workload]["after"] = reference_loops_per_s()
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"bench-pairs: wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
