"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single
"ACCEPTANCE <n> <name>: PASS/FAIL" line via conftest.record_acceptance
(echoed again in the terminal summary), and then asserts the verdict.
Tolerances and ranges are pinned here on purpose; do not loosen them to
make a run green.
"""

import json
import time

from dagenum import cli
from dagenum.asym.airy import airy_ai
from dagenum.asym.bounds import min_eta, p_ratio_check, verify_bounds
from dagenum.asym.predict import airy_root_a1, ratio_diagnostic
from dagenum.asym.scaled import exact_transform_diagonal
from dagenum.bijection import path_to_tree, tree_to_path
from dagenum.oracle import (
    count_compacted_oracle,
    count_min_dfa_oracle,
    count_relaxed_oracle,
    enumerate_relaxed,
)
from dagenum.paths import generate_paths
from dagenum.tables import diagonal_sequence

from conftest import record_acceptance
from known_values import KNOWN_COUNTS

# brute-force enumeration stays feasible up to these sizes
TREE_RANGES = {2: 6, 3: 4, 4: 3}


def test_acceptance_1_table_reproduction():
    t0 = time.monotonic()
    ok = True
    for (kind, k), (first_n, values) in sorted(KNOWN_COUNTS.items()):
        # each frozen row is a consecutive window of the diagonal starting
        # at first_n (1 for relaxed k=2, 0 everywhere else)
        seq = diagonal_sequence(kind, k, first_n + len(values) - 1)
        ok = ok and seq[first_n:first_n + len(values)] == list(values)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    assert record_acceptance(1, "table-reproduction", ok), f"elapsed={elapsed:.1f}s"


def test_acceptance_2_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    for k, n_top in TREE_RANGES.items():
        relaxed = diagonal_sequence("relaxed", k, n_top)
        compacted = diagonal_sequence("compacted", k, n_top)
        for n in range(n_top + 1):
            ok = ok and count_relaxed_oracle(k, n) == relaxed[n]
            ok = ok and count_compacted_oracle(k, n) == compacted[n]
    # automaton alignment: a minimal automaton with s states (dead state
    # included) corresponds to diagonal index n = s - 1
    dfa = diagonal_sequence("dfa", 2, 2)
    for states in (1, 2, 3):
        ok = ok and count_min_dfa_oracle(2, states) == dfa[states - 1]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    assert record_acceptance(2, "oracle-equivalence", ok), f"elapsed={elapsed:.1f}s"


def test_acceptance_3_round_trips():
    failures = 0
    for k, n_top in TREE_RANGES.items():
        for n in range(n_top + 1):
            for t in enumerate_relaxed(k, n):
                if path_to_tree(tree_to_path(t)) != t:
                    failures += 1
            for p in generate_paths(k, n):
                if tree_to_path(path_to_tree(p)) != p:
                    failures += 1
    assert record_acceptance(3, "round-trips", failures == 0), f"{failures} failures"


def test_acceptance_4_transform_identity():
    ok = True
    for k, n_top in ((2, 15), (3, 10), (4, 7)):
        ok = ok and exact_transform_diagonal(k, n_top) == diagonal_sequence("relaxed", k, n_top)
    assert record_acceptance(4, "transform-identity", ok)


def test_acceptance_5_airy_values():
    a1 = airy_root_a1()
    ok = abs(airy_ai(a1)) < 1e-11
    ok = ok and abs(a1 - (-2.338)) < 5e-4
    # residual of Ai'' = x Ai via central second differences; the grid walks
    # [-2.4, 5] in exact tenths and skips x = 0, where x*Ai(x) vanishes and a
    # relative residual is undefined (the other zero, x = a1, falls between
    # grid points)
    h = 1e-4
    worst = 0.0
    for t in range(-24, 51):
        if t == 0:
            continue
        x = t / 10
        fd = (airy_ai(x - h) - 2.0 * airy_ai(x) + airy_ai(x + h)) / (h * h)
        target = x * airy_ai(x)
        rel = abs(fd - target) / abs(target)
        worst = max(worst, rel)
    ok = ok and worst < 1e-6
    assert record_acceptance(5, "airy-values", ok), f"worst residual {worst:.3e}"


def test_acceptance_6_bound_envelopes(fixtures_dir):
    ok = True
    live = {}
    for k in (2, 3, 4, 5):
        eta = 1.05 * min_eta(k)
        for side in ("lower", "upper"):
            report = verify_bounds(side, k, eta=eta, epsilon=0.1, i_range=(2, 10_000))
            doc = report.to_dict()
            live[f"{side}-k{k}"] = doc
            i0 = report.first_verified_i0
            ok = ok and i0 is not None and i0 <= 5000
            ok = ok and all(v[0] < i0 for v in doc["violations"])
    # the archived reports must match a fresh run exactly
    archived = json.loads((fixtures_dir / "bound_reports.json").read_text())
    ok = ok and json.loads(json.dumps(live)) == archived
    assert record_acceptance(6, "bound-envelopes", ok)


def test_acceptance_7_ratio_convergence():
    # measured first pair: the n=32 -> 64 gap is slightly smaller than the
    # n=64 -> 128 gap for both k (0.0839 vs 0.0856 at k=2, 0.0942 vs 0.0962
    # at k=3, stable at 60-digit precision), so the strict-decrease check
    # fails on that pair; the decrease holds from n=64 on.  The check is
    # kept as written rather than loosened.
    t0 = time.monotonic()
    ok = True
    detail = {}
    for k in (2, 3):
        points = ratio_diagnostic("relaxed", k, (32, 64, 128, 256, 512), route="exact")
        log_ratio = {p.n: p.log_ratio for p in points}
        gaps = [abs(log_ratio[2 * n] - log_ratio[n]) for n in (32, 64, 128, 256)]
        detail[k] = [round(g, 6) for g in gaps]
        ok = ok and all(b < a for a, b in zip(gaps, gaps[1:]))
        ok = ok and gaps[-1] < 0.2
    ok = ok and time.monotonic() - t0 < 300.0
    assert record_acceptance(7, "ratio-convergence", ok), f"doubling gaps {detail}"


def test_acceptance_8_path_inequalities():
    ok = True
    for k, n_top in ((2, 15), (3, 10)):
        for n in range(1, n_top + 1):
            result = p_ratio_check(k, n)
            ok = ok and result["ok"] and result["first_violation"] is None
    assert record_acceptance(8, "path-inequalities", ok)


def test_acceptance_9_cli_determinism(capsys, monkeypatch, fixtures_dir):
    monkeypatch.delenv("DAGENUM_CACHE_DIR", raising=False)
    tree_doc = str(fixtures_dir / "ternary7_tree.json")
    path_doc = str(fixtures_dir / "ternary7_path.json")
    commands = [
        ["count", "--kind", "relaxed", "--k", "2", "--n-max", "8"],
        ["count", "--kind", "compacted", "--k", "3", "--n-max", "7", "--format", "csv"],
        ["count", "--kind", "dfa", "--k", "2", "--n-max", "6", "--format", "json"],
        ["verify", "--scope", "oracle", "--k", "2", "--n-max", "4"],
        ["verify", "--scope", "bijection", "--k", "3", "--n-max", "2", "--format", "json"],
        ["verify", "--scope", "transform", "--k", "2", "--n-max", "10"],
        ["verify", "--scope", "ratio", "--k", "2", "--n-max", "100"],
        ["verify", "--scope", "p-ineq", "--k", "2", "--n-max", "8"],
        ["verify", "--scope", "bounds-lower", "--k", "3", "--i-max", "300", "--threads", "1"],
        ["verify", "--scope", "bounds-upper", "--k", "2", "--i-max", "300", "--threads", "1",
         "--format", "json"],
        ["convert", "--direction", "tree-to-path", "--input", tree_doc],
        ["convert", "--direction", "path-to-tree", "--input", path_doc],
        ["asym", "ratio", "--k", "2", "--ns", "32,64,128", "--route", "exact"],
        ["asym", "bounds", "--side", "lower", "--k", "3", "--i-max", "400", "--threads", "1"],
        ["asym", "profile", "--k", "2", "--i", "150"],
    ]
    ok = True
    for argv in commands:
        runs = []
        for _ in range(2):
            rc = cli.main(argv)
            captured = capsys.readouterr()
            runs.append((rc, captured.out, captured.err))
        ok = ok and runs[0] == runs[1] and runs[0][0] == 0
    assert record_acceptance(9, "cli-determinism", ok)
