"""Byte comparison of the dagenum command line against a base revision.

    python3 tools/cli_compare.py [--base REF]

Extracts REF's src/ (default HEAD) into a temporary directory with `git
archive`, runs a fixed list of commands once with that src/ and once with
this checkout's src/, and compares stdout, stderr and exit code command by command.  Each
side runs in its own empty working directory holding the same input files,
and every path on a command line is relative, so the two sides see the same
bytes.  Commands run in list order, so a cache build precedes its reads.
Prints each difference, then one summary line; exits 1 if any command
differs.  Run from anywhere inside the checkout; takes a few minutes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
TIMEOUT = 600

_TREE_ARITY = {"k": 2, "sink": 1, "nodes": [{"label": 2, "children": [{"type": "spine", "target": 1}]}]}
_TREE_SPINE_TAG = {
    "k": 2, "sink": 1,
    "nodes": [{"label": 2, "children": [{"type": "spine", "target": 1}, {"type": "spine", "target": 1}]}],
}
_PATH_DIAGONAL = {"k": 2, "steps": [{"type": "U"}, {"type": "U"}]}
_PATH_CROSS = {"k": 2, "steps": [{"type": "U"}, {"type": "H", "cross": 2}, {"type": "U"}]}
# H steps with crosses below 1 load, and fail the range at their own index
_PATH_CROSS_0 = {"k": 2, "steps": [{"type": "U"}, {"type": "H", "cross": 0}, {"type": "U"}]}
_PATH_CROSS_NEG = {"k": 2, "steps": [{"type": "U"}, {"type": "H", "cross": -1}, {"type": "U"}]}
# stops at (1, 0), short of the diagonal point (1, 1)
_PATH_ENDPOINT = {"k": 2, "steps": [{"type": "U"}, {"type": "H", "cross": 1}]}
# integer fields that are not integers: refused, not truncated to 1
_PATH_FLOAT_CROSS = {"k": 2, "steps": [{"type": "U"}, {"type": "H", "cross": 1.9}, {"type": "U"}]}
# a U step that carries a cross: refused, not dropped
_PATH_U_CROSS = {"k": 2, "steps": [{"type": "U", "cross": 5}]}
# a path of arity 1: refused before any step is read
_PATH_ARITY = {"k": 1, "steps": [{"type": "U"}]}
_TREE_STRING_TARGET = {
    "k": 2, "sink": 1,
    "nodes": [{"label": 2, "children": [{"type": "spine", "target": "1"}, {"type": "pointer", "target": 1}]}],
}
_TREE_BOOL_SINK = {"k": 2, "sink": True, "nodes": []}


def inputs() -> dict[str, str | bytes]:
    """name -> contents, written into each side's working directory."""
    return {
        "tree.json": (FIXTURES / "ternary7_tree.json").read_text(),
        "path.json": (FIXTURES / "ternary7_path.json").read_text(),
        "bad-tree-arity.json": json.dumps(_TREE_ARITY),
        "bad-tree-spine-tag.json": json.dumps(_TREE_SPINE_TAG),
        "bad-path-diagonal.json": json.dumps(_PATH_DIAGONAL),
        "bad-path-cross.json": json.dumps(_PATH_CROSS),
        "bad-path-cross-0.json": json.dumps(_PATH_CROSS_0),
        "bad-path-cross-neg.json": json.dumps(_PATH_CROSS_NEG),
        "bad-path-endpoint.json": json.dumps(_PATH_ENDPOINT),
        "bad-path-float-cross.json": json.dumps(_PATH_FLOAT_CROSS),
        "bad-tree-string-target.json": json.dumps(_TREE_STRING_TARGET),
        "bad-tree-bool-sink.json": json.dumps(_TREE_BOOL_SINK),
        "bad-path-u-cross.json": json.dumps(_PATH_U_CROSS),
        "bad-path-arity.json": json.dumps(_PATH_ARITY),
        "garbage.json": "not json {",
        # nested past the JSON parser's depth limit
        "deep-tree.json": '{"k": 2, "sink": 1, "nodes": ' + "[" * 3000 + "]" * 3000 + "}",
        "deep-path.json": '{"k": 2, "steps": ' + "[" * 3000 + "]" * 3000 + "}",
        "corrupt/relaxed-k2.ctab": "ctab 2\nkind relaxed\nk 2\nn_max 3\nsha256 0\n1\n",
        # a signed empty body under a header naming a huge k
        "corrupt/dfa-k2.ctab": "ctab 4\nkind dfa\nk 1000000\nn_max 1\nchecksum "
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
        # valid files in the decimal wedge ctab 1, the cache's decimal ctab 2
        # and hexadecimal ctab 3 layouts, count(0..3), and the binary wedge
        # ctab 5, count(0..6); the last under another kind's name
        "legacy1/dfa-k3.ctab": (FIXTURES / "dfa_k3_ctab1.ctab").read_text(),
        "legacy5/dfa-k3.ctab": (FIXTURES / "dfa_k3_ctab5.ctab").read_bytes(),
        "legacy/dfa-k3.ctab": (FIXTURES / "dfa_k3_ctab2.ctab").read_text(),
        "legacy3/dfa-k3.ctab": (FIXTURES / "dfa_k3_ctab3.ctab").read_text(),
        "legacy-mismatch/relaxed-k2.ctab": (FIXTURES / "dfa_k3_ctab2.ctab").read_text(),
    }


def commands() -> list[list[str]]:
    cmds: list[list[str]] = [["--version"], []]
    for page in ("count", "verify", "convert", "asym", "asym ratio", "asym bounds", "asym profile"):
        cmds.append([*page.split(), "--help"])
    for kind in ("relaxed", "compacted", "dfa"):
        for k in (2, 3, 4):
            for fmt in ("plain", "csv", "json"):
                cmds.append(["count", "--kind", kind, "--k", str(k), "--n-max", "8", "--format", fmt])
        cmds.append(["count", "--kind", kind, "--k", "5", "--n-max", "0"])
        for n_max in (5, 9, 9, 3):  # build, extend, warm read, shorter read
            cmds.append(["count", "--kind", kind, "--k", "2", "--n-max", str(n_max), "--cache-dir", "cache"])
    cmds += [
        # the first size whose count has more than 4,300 digits
        ["count", "--kind", "relaxed", "--k", "3", "--n-max", "760"],
        ["count", "--kind", "relaxed", "--k", "2", "--n-max", "3", "--cache-dir", "corrupt"],
        ["count", "--kind", "dfa", "--k", "2", "--n-max", "3", "--cache-dir", "corrupt"],
        # read, then extend, a file in the ctab 1, 2, 3 and 5 layouts,
        # which the cache rebuilds; one of another kind is refused
        ["count", "--kind", "dfa", "--k", "3", "--n-max", "7", "--format", "json", "--cache-dir", "legacy1"],
        ["count", "--kind", "dfa", "--k", "3", "--n-max", "3", "--cache-dir", "legacy"],
        ["count", "--kind", "dfa", "--k", "3", "--n-max", "7", "--format", "json", "--cache-dir", "legacy"],
        ["count", "--kind", "dfa", "--k", "3", "--n-max", "2", "--cache-dir", "legacy3"],
        ["count", "--kind", "dfa", "--k", "3", "--n-max", "7", "--format", "json", "--cache-dir", "legacy3"],
        ["count", "--kind", "dfa", "--k", "3", "--n-max", "2", "--cache-dir", "legacy5"],
        ["count", "--kind", "dfa", "--k", "3", "--n-max", "7", "--format", "json", "--cache-dir", "legacy5"],
        ["count", "--kind", "relaxed", "--k", "2", "--n-max", "3", "--cache-dir", "legacy-mismatch"],
        ["count", "--kind", "relaxed", "--k", "1", "--n-max", "3"],
        ["count", "--kind", "relaxed", "--k", "2", "--n-max", "-1"],
        ["count", "--kind", "relaxed", "--k", "2", "--n-max", "1000000"],
        ["count", "--kind", "trees", "--k", "2", "--n-max", "3"],
    ]
    for scope in ("oracle", "bijection"):
        for k in (2, 3, 4):
            for fmt in ("text", "json"):
                cmds.append(["verify", "--scope", scope, "--k", str(k), "--format", fmt])
        cmds.append(["verify", "--scope", scope, "--k", "5", "--n-max", "2"])
        cmds.append(["verify", "--scope", scope, "--k", "2", "--n-max", "0"])
        cmds.append(["verify", "--scope", scope, "--k", "2", "--n-max", "-1"])
        cmds.append(["verify", "--scope", scope, "--k", "1"])
    for scope, n_max in (("transform", "10"), ("p-ineq", "12"), ("ratio", "100")):
        for k in ("2", "3"):
            for fmt in ("text", "json"):
                cmds.append(["verify", "--scope", scope, "--k", k, "--n-max", n_max, "--format", fmt])
    cmds.append(["verify", "--scope", "p-ineq", "--k", "2", "--n-max", "40"])  # over kn = 60
    for scope in ("transform", "p-ineq", "ratio", "bounds-lower", "bounds-upper"):
        cmds.append(["verify", "--scope", scope, "--k", "2", "--n-max", "-4", "--i-max", "20"])
    cmds.append(["verify", "--scope", "ratio", "--k", "2", "--n-max", "0"])  # no row to check
    # k < 2 with the default --n-max, which divides by k for these two scopes
    for scope, k in (("transform", "0"), ("p-ineq", "0"), ("p-ineq", "-1")):
        cmds.append(["verify", "--scope", scope, "--k", k])
    for side in ("lower", "upper"):
        for fmt in ("text", "json"):
            cmds.append(["verify", "--scope", f"bounds-{side}", "--k", "3", "--i-max", "80", "--format", fmt])
        cmds.append(["verify", "--scope", f"bounds-{side}", "--k", "2", "--i-max", "120", "--i0-limit", "1"])
        cmds.append(["verify", "--scope", f"bounds-{side}", "--k", "4", "--i-max", "60", "--eta", "2.5"])
    # inf * 0**4 is NaN: a vacuous PASS before eta had to be finite
    cmds.append(["verify", "--scope", "bounds-upper", "--k", "3", "--i-max", "200", "--eta", "inf"])
    # a finite eta whose quartic eta * j**4 overflows
    cmds.append(["asym", "bounds", "--side", "upper", "--k", "2", "--eta", "1e308", "--i-max", "50"])
    # NaN fails every comparison, so each range check is written to refuse it
    for flag in ("--eta", "--epsilon"):
        cmds.append(["asym", "bounds", "--side", "upper", "--k", "2", flag, "nan", "--i-max", "50"])
    # a sweep over the byte budget
    cmds.append(["asym", "bounds", "--side", "upper", "--k", "2", "--i-max", "1000000000000"])
    cmds.append(["verify", "--scope", "nope", "--k", "2"])
    for direction, good, bad in (
        ("tree-to-path", "tree.json",
         ("bad-tree-arity.json", "bad-tree-spine-tag.json", "bad-tree-string-target.json",
          "bad-tree-bool-sink.json")),
        ("path-to-tree", "path.json", ("bad-path-diagonal.json", "bad-path-cross.json",
                                       "bad-path-cross-0.json", "bad-path-cross-neg.json",
                                       "bad-path-endpoint.json", "bad-path-float-cross.json",
                                       "bad-path-u-cross.json", "bad-path-arity.json")),
    ):
        cmds.append(["convert", "--direction", direction, "--input", good])
        cmds.append(["convert", "--direction", direction, "--input", good, "--output", f"out-{good}"])
        cmds += [["convert", "--direction", direction, "--input", name] for name in bad]
        cmds.append(["convert", "--direction", direction, "--input", "garbage.json"])
        cmds.append(["convert", "--direction", direction, "--input", f"deep-{direction.split('-')[0]}.json"])
        cmds.append(["convert", "--direction", direction, "--input", "missing.json"])
    for route in ("auto", "exact", "scaled"):
        cmds.append(["asym", "ratio", "--k", "2", "--ns", "32,64,128", "--route", route])
    cmds.append(["asym", "ratio", "--k", "2", "--ns", "x"])
    for side in ("lower", "upper"):
        for k in ("2", "3", "5"):
            cmds.append(["asym", "bounds", "--side", side, "--k", k, "--i-max", "80"])
        cmds.append(["asym", "bounds", "--side", side, "--k", "3", "--i-max", "40", "--threads", "8"])
        cmds.append(["asym", "bounds", "--side", side, "--k", "2", "--i-min", "50", "--i-max", "40"])
    for k in ("2", "5"):  # rows reaching x > 30 and the Airy zero cut-off at 115
        cmds.append(["asym", "bounds", "--side", "upper", "--k", k, "--i-min", "9800", "--i-max", "10000"])
    cmds.append(["asym", "ratio", "--k", "2", "--ns", "700"])  # auto switches to the scaled table
    cmds.append(["asym", "ratio", "--k", "2", "--ns", "64,700,1000"])  # both routes in one call
    # several rows kept from one scaled pass
    cmds.append(["asym", "ratio", "--k", "3", "--ns", "40,80,120", "--route", "scaled"])
    cmds.append(["asym", "ratio", "--k", "2", "--ns", "10001"])  # the row ceiling
    cmds.append(["asym", "ratio", "--kind", "dfa", "--k", "2", "--ns", "700"])  # kind on the auto route
    cmds.append(["asym", "profile", "--k", "2", "--i", "60"])
    cmds.append(["asym", "profile", "--k", "3", "--i", "40", "--j-limit", "5"])
    cmds.append(["asym", "profile", "--k", "2", "--i", "150"])
    cmds.append(["asym", "profile", "--k", "3", "--i", "120", "--j-limit", "9"])
    # the shared arity and size refusals, reached through each route
    for scope in ("transform", "p-ineq", "oracle", "bijection", "ratio"):
        cmds.append(["verify", "--scope", scope, "--k", "1", "--n-max", "2"])
    cmds.append(["asym", "profile", "--k", "1", "--i", "100"])
    cmds.append(["asym", "profile", "--k", "2", "--i", "-5"])
    cmds.append(["asym", "ratio", "--k", "1", "--ns", "5", "--route", "scaled"])
    cmds.append(["asym", "bounds", "--side", "upper", "--k", "1", "--eta", "1.0"])
    return cmds


def run_side(src: Path, workdir: Path, cmds: list[list[str]]) -> list[tuple[int, str, str]]:
    for name, data in inputs().items():
        (workdir / name).parent.mkdir(parents=True, exist_ok=True)
        (workdir / name).write_bytes(data.encode() if isinstance(data, str) else data)
    env = {key: value for key, value in os.environ.items() if key != "DAGENUM_CACHE_DIR"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    results = []
    for argv in cmds:
        proc = subprocess.run(
            [sys.executable, "-m", "dagenum.cli", *argv],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT,
        )
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare against")
    args = ap.parse_args()
    base = subprocess.run(
        ["git", "rev-parse", "--short", args.base], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    cmds = commands()
    with tempfile.TemporaryDirectory(prefix="cli-compare-") as tmp:
        tree = Path(tmp) / "base"
        archive = subprocess.run(
            ["git", "archive", base, "src"], cwd=ROOT, capture_output=True, check=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
        (Path(tmp) / "run-base").mkdir()
        (Path(tmp) / "run-head").mkdir()
        before = run_side(tree / "src", Path(tmp) / "run-base", cmds)
        after = run_side(ROOT / "src", Path(tmp) / "run-head", cmds)
    differ = 0
    for argv, old, new in zip(cmds, before, after):
        parts = [name for name, a, b in zip(("exit", "stdout", "stderr"), old, new) if a != b]
        if parts:
            differ += 1
            print(f"DIFF {' '.join(argv) or '(no arguments)'}: {', '.join(parts)} "
                  f"(exit {old[0]} -> {new[0]})")
    print(f"cli-compare: {len(cmds)} commands against {base}: "
          f"{len(cmds) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
