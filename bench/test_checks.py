"""Each output check passes the program's real output and fails on a
mutated copy.  Run from the repository root:

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import checks

ENTRY = "import sys; from dagenum.cli import main; sys.exit(main())"


def dagenum(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(checks.ROOT / "src"))
    env.pop("DAGENUM_CACHE_DIR", None)
    return subprocess.run([sys.executable, "-c", ENTRY, *argv], env=env, cwd=checks.ROOT,
                          capture_output=True, text=True, timeout=120, check=True).stdout


def flip_digit(text: str, line_no: int) -> str:
    lines = text.splitlines(keepends=True)
    n, count = lines[line_no].rstrip("\n").split(",")
    last = str((int(count[-1]) + 1) % 10)
    lines[line_no] = f"{n},{count[:-1]}{last}\n"
    return "".join(lines)


@pytest.mark.parametrize("kind", ["relaxed", "compacted", "dfa"])
def test_count_check_catches_one_flipped_digit(kind):
    out = dagenum("count", "--kind", kind, "--k", "2", "--n-max", "40")
    assert checks.check_count(out, kind, 2, 40) == []
    assert checks.check_count(flip_digit(out, 30), kind, 2, 40)
    assert checks.check_count(flip_digit(out, 3), kind, 2, 40)  # also off the frozen row


def test_cache_check_catches_one_changed_byte(tmp_path):
    plain = dagenum("count", "--kind", "relaxed", "--k", "2", "--n-max", "50")
    cached = dagenum("count", "--kind", "relaxed", "--k", "2", "--n-max", "50", "--cache-dir", str(tmp_path))
    assert checks.check_same_bytes(cached, plain, "warm") == []
    changed = cached[:-2] + chr(ord(cached[-2]) ^ 1) + cached[-1]
    assert checks.check_same_bytes(changed, plain, "warm")


def test_compacted_above_relaxed_is_caught():
    rel = dagenum("count", "--kind", "relaxed", "--k", "2", "--n-max", "20")
    comp = dagenum("count", "--kind", "compacted", "--k", "2", "--n-max", "20", "--format", "json")
    assert checks.check_not_above(comp, rel) == []
    assert checks.check_not_above(rel, comp)


def test_sweep_checks_catch_one_dropped_violation():
    doc = dagenum("verify", "--scope", "bounds-upper", "--k", "4", "--i-max", "200", "--format", "json")
    assert checks.check_sweep_json(doc, "upper", 4, 200, seed=1) == []
    mutated = json.loads(doc)
    del mutated["violations"][3]
    assert checks.check_sweep_json(json.dumps(mutated), "upper", 4, 200, seed=1)

    row = dagenum("asym", "bounds", "--side", "lower", "--k", "4", "--i-max", "200")
    assert checks.check_sweep_csv(row, "lower", 4, 200, seed=1) == []
    head, values = row.splitlines()
    fields = values.split(",")
    fields[-1] = str(int(fields[-1]) - 1)
    assert checks.check_sweep_csv(f"{head}\n{','.join(fields)}\n", "lower", 4, 200, seed=1)


def test_cell_judge_disagrees_with_a_false_verdict():
    viol, _ = checks.expected_sweep("upper", 4, 200)
    cells = viol[:2] + [(190, 3)]
    assert checks.check_cells("upper", 4, checks.eta_default(4), cells, set(viol)) == []
    # calling a violated cell clean, or a clean cell violated, is caught
    assert checks.check_cells("upper", 4, checks.eta_default(4), cells, set(viol[1:]))
    assert checks.check_cells("upper", 4, checks.eta_default(4), cells, set(viol) | {(190, 3)})


def test_exact_checks_catch_mutations():
    bij = dagenum("verify", "--scope", "bijection", "--k", "3", "--n-max", "3")
    assert checks.check_verify_bijection(bij, 3, 3) == []
    first, rest = bij.split("\n", 1)
    prefix, count = first.rsplit(" ", 1)
    assert checks.check_verify_bijection(f"{prefix} {int(count) - 1}\n{rest}", 3, 3)

    ns = [40, 96, 512]
    exact = dagenum("asym", "ratio", "--k", "2", "--ns", "40,96,512", "--route", "exact")
    scaled = dagenum("asym", "ratio", "--k", "2", "--ns", "40,96,512", "--route", "scaled")
    assert checks.check_ratio_routes(exact, scaled, ns) == []
    lines = scaled.splitlines()
    n, value, route = lines[2].split(",")
    lines[2] = f"{n},{float(value) + 1e-5!r},{route}"
    assert checks.check_ratio_routes(exact, "\n".join(lines) + "\n", ns)

    prof = dagenum("asym", "profile", "--k", "2", "--i", "180")
    assert checks.check_profile(prof, 2, 180) == []
    lines = prof.splitlines()
    i, j, d, fit = lines[3].split(",")
    lines[3] = f"{i},{j},{d},{float(fit) * (1 + 1e-6)!r}"
    assert checks.check_profile("\n".join(lines) + "\n", 2, 180)
