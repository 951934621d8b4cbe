"""Command-line surface: diagonal counting with a table cache, invariant
verification sweeps, tree/path conversion, and asymptotic diagnostics.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 cache error.  CSV output uses a comma separator, a header row, and LF
line endings; identical flags yield byte-identical output (including
enumeration order), so the tool is safe to diff in scripts.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import __version__, paths, trees
from .bijection import path_to_tree, tree_to_path
from .oracle import DEFAULT_TREE_LIMITS, enumerate_relaxed
from .paths import generate_paths, validate_path
from .tables import KINDS, MAX_COUNT_DIGITS, CacheError, cached_diagonal, diagonal_sequence
from .trees import is_compacted, validate_tree

# The asym handlers import `.asym` when they run: it loads numpy, which
# `count`, `convert` and the oracle and bijection scopes never use.

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CACHE = 3

CACHE_ENV = "DAGENUM_CACHE_DIR"

ROUTE_TOLERANCE = 1e-6


def _csv_writer(stream):
    return csv.writer(stream, lineterminator="\n")


def _resolve_cache(flag: str | None) -> Path | None:
    if flag:
        return Path(flag)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def cmd_count(args) -> int:
    cache = _resolve_cache(args.cache_dir)
    if cache is None:
        seq = diagonal_sequence(args.kind, args.k, args.n_max)
    else:
        cache.mkdir(parents=True, exist_ok=True)
        path = cache / f"{args.kind}-k{args.k}.ctab"
        seq = cached_diagonal(args.kind, args.k, args.n_max, path)
    if args.format == "json":
        doc = {"kind": args.kind, "k": args.k, "counts": [[n, c] for n, c in enumerate(seq)]}
        json.dump(doc, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    else:
        w = _csv_writer(sys.stdout)
        if args.format == "csv":
            w.writerow(["n", "count"])
        for n, c in enumerate(seq):
            w.writerow([n, c])
    return EXIT_OK


def _verify_oracle(args) -> dict:
    k, n_max = args.k, args.n_max
    rel = diagonal_sequence("relaxed", k, n_max)
    comp = diagonal_sequence("compacted", k, n_max)
    results = []
    for n in range(1, n_max + 1):
        r_count = c_count = 0
        for t in enumerate_relaxed(k, n, limit=n_max):
            r_count += 1
            c_count += is_compacted(t)
        results.append(
            {
                "n": n,
                "relaxed_oracle": r_count,
                "relaxed": rel[n],
                "compacted_oracle": c_count,
                "compacted": comp[n],
                "ok": r_count == rel[n] and c_count == comp[n],
            }
        )
    return {
        "scope": "oracle",
        "k": k,
        "n_max": n_max,
        "results": results,
        "ok": all(r["ok"] for r in results),
    }


def _verify_bijection(args) -> dict:
    k, n_max = args.k, args.n_max
    tree_trips = path_trips = 0
    failures = []
    for n in range(n_max + 1):
        for t in enumerate_relaxed(k, n, limit=n_max):
            p = tree_to_path(t)
            try:
                ok = path_to_tree(p) == t
            except ValueError:  # p is not a valid path
                ok = False
            if not ok:
                failures.append({"n": n, "tree": trees.to_document(t)})
            tree_trips += 1
        for p in generate_paths(k, n, limit=n_max):
            if tree_to_path(path_to_tree(p)) != p:
                failures.append({"n": n, "path": paths.to_document(p)})
            path_trips += 1
    return {
        "scope": "bijection",
        "k": k,
        "n_max": n_max,
        "tree_round_trips": tree_trips,
        "path_round_trips": path_trips,
        "first_failure": failures[0] if failures else None,
        "failure_count": len(failures),
        "ok": not failures,
    }


def _verify_transform(args) -> dict:
    from .asym.scaled import exact_transform_diagonal

    k, n_max = args.k, args.n_max
    via_transform = exact_transform_diagonal(k, n_max)
    direct = diagonal_sequence("relaxed", k, n_max)
    mismatches = [
        {"n": n, "transform": via_transform[n], "direct": direct[n]}
        for n in range(n_max + 1)
        if via_transform[n] != direct[n]
    ]
    return {
        "scope": "transform",
        "k": k,
        "n_max": n_max,
        "checked": n_max + 1,
        "first_mismatch": mismatches[0] if mismatches else None,
        "ok": not mismatches,
    }


def _verify_ratio(args) -> dict:
    from .asym import ratio_diagnostic

    k, n_max = args.k, args.n_max
    grid = [n for n in (50, 100, 200, 400, 600) if n <= n_max]
    if not grid:
        grid = [max(1, n_max)]
    exact_pts = ratio_diagnostic("relaxed", k, grid, route="exact")
    scaled_pts = ratio_diagnostic("relaxed", k, grid, route="scaled")
    results = []
    worst = 0.0
    for e, s in zip(exact_pts, scaled_pts):
        gap = abs(e.log_ratio - s.log_ratio)
        worst = max(worst, gap)
        results.append(
            {"n": e.n, "exact": e.log_ratio, "scaled": s.log_ratio, "gap": gap}
        )
    return {
        "scope": "ratio",
        "k": k,
        "grid": grid,
        "tolerance": ROUTE_TOLERANCE,
        "worst_gap": worst,
        "results": results,
        "ok": worst <= ROUTE_TOLERANCE,
    }


def _verify_p_ineq(args) -> dict:
    from .asym import p_ratio_check

    k, n_max = args.k, args.n_max
    results = []
    for n in range(1, n_max + 1):
        rep = p_ratio_check(k, n)
        results.append(
            {
                "n": n,
                "pairs_checked": rep["pairs_checked"],
                "first_violation": rep["first_violation"],
                "ok": rep["ok"],
            }
        )
    return {
        "scope": "p-ineq",
        "k": k,
        "n_max": n_max,
        "results": results,
        "ok": all(r["ok"] for r in results),
    }


def _sweep(args, side: str):
    """verify_bounds over [i_min, i_max], eta defaulting to 1.05x the floor."""
    from .asym import min_eta, verify_bounds

    eta = args.eta if args.eta is not None else 1.05 * min_eta(args.k)
    return verify_bounds(side, args.k, eta, args.epsilon, (args.i_min, args.i_max))


def _verify_bounds_scope(args, side: str) -> dict:
    report = _sweep(args, side)
    i0_limit = args.i0_limit if args.i0_limit is not None else args.i_max
    doc = report.to_dict()
    doc["scope"] = f"bounds-{side}"
    doc["violation_count"] = len(report.violations)
    doc["violations"] = doc["violations"][:10]
    doc["i0_limit"] = i0_limit
    doc["ok"] = report.first_verified_i0 <= i0_limit
    return doc


def _render_verify(report: dict) -> list[str]:
    scope = report["scope"]
    lines = []
    if scope == "oracle":
        for row in report["results"]:
            lines.append(
                f"n={row['n']} relaxed {row['relaxed_oracle']}/{row['relaxed']} "
                f"compacted {row['compacted_oracle']}/{row['compacted']} "
                + ("ok" if row["ok"] else "MISMATCH")
            )
        matched = sum(1 for r in report["results"] if r["ok"])
        lines.append(f"oracle: {matched}/{len(report['results'])} matched")
    elif scope == "bijection":
        lines.append(f"tree->path->tree round trips: {report['tree_round_trips']}")
        lines.append(f"path->tree->path round trips: {report['path_round_trips']}")
        if report["first_failure"] is not None:
            lines.append(
                "first failure: " + json.dumps(report["first_failure"], sort_keys=True)
            )
    elif scope == "transform":
        if report["ok"]:
            lines.append(
                f"transform identity exact for n=0..{report['n_max']} "
                f"({report['checked']} values)"
            )
        else:
            lines.append(
                "transform mismatch: " + json.dumps(report["first_mismatch"], sort_keys=True)
            )
    elif scope == "ratio":
        for row in report["results"]:
            lines.append(
                f"n={row['n']} exact={row['exact']!r} scaled={row['scaled']!r} "
                f"gap={row['gap']!r}"
            )
        lines.append(
            f"worst route gap {report['worst_gap']!r} (tolerance {report['tolerance']!r})"
        )
    elif scope == "p-ineq":
        for row in report["results"]:
            lines.append(
                f"n={row['n']} pairs={row['pairs_checked']} "
                + ("ok" if row["ok"] else f"violation {row['first_violation']}")
            )
    else:
        lines.append(
            f"{report['side']} bounds k={report['k']}: scanned i in "
            f"[{report['i_min']}, {report['i_max']}], "
            f"violations={report['violation_count']}, "
            f"first verified i0={report['first_verified_i0']} "
            f"(limit {report['i0_limit']})"
        )
    lines.append("PASS" if report["ok"] else "FAIL")
    return lines


# scope -> (default --n-max for a given k, runner); the order is --help's
VERIFY_SCOPES = {
    "oracle": (lambda k: DEFAULT_TREE_LIMITS.get(k, 2), _verify_oracle),
    "bijection": (lambda k: DEFAULT_TREE_LIMITS.get(k, 2), _verify_bijection),
    "bounds-lower": (lambda k: 0, lambda args: _verify_bounds_scope(args, "lower")),
    "bounds-upper": (lambda k: 0, lambda args: _verify_bounds_scope(args, "upper")),
    "ratio": (lambda k: 600, _verify_ratio),
    "p-ineq": (lambda k: 60 // k, _verify_p_ineq),
    "transform": (lambda k: 30 // k, _verify_transform),
}


def cmd_verify(args) -> int:
    default_n_max, run = VERIFY_SCOPES[args.scope]
    if args.n_max is None:
        args.n_max = default_n_max(args.k)
    report = run(args)
    if args.format == "json":
        json.dump(report, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in _render_verify(report):
            print(line)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def cmd_convert(args) -> int:
    text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
    if args.direction == "tree-to-path":
        t = trees.loads(text)
        try:
            path = tree_to_path(t)
        except ValueError:  # only now walk again, to list every violation
            for v in validate_tree(t).violations:
                print(f"invalid tree: {v.code} at {list(v.labels)}", file=sys.stderr)
            return EXIT_USAGE
        out_text = paths.dumps(path)
    else:
        p = paths.loads(text)
        try:
            tree = path_to_tree(p)
        except ValueError:
            rep = validate_path(p)
            print(f"invalid path: {rep.code} at step {rep.index}", file=sys.stderr)
            return EXIT_USAGE
        out_text = trees.dumps(tree)
    if args.output == "-":
        sys.stdout.write(out_text)
    else:
        Path(args.output).write_text(out_text)
    return EXIT_OK


def cmd_asym_ratio(args) -> int:
    from .asym import ratio_diagnostic

    ns = [int(part) for part in args.ns.split(",") if part.strip()]
    points = ratio_diagnostic(args.kind, args.k, ns, route=args.route)
    w = _csv_writer(sys.stdout)
    w.writerow(["n", "log_ratio", "route"])
    for pt in points:
        w.writerow([pt.n, pt.log_ratio, pt.route])
    return EXIT_OK


def cmd_asym_bounds(args) -> int:
    report = _sweep(args, args.side)
    w = _csv_writer(sys.stdout)
    w.writerow(["side", "k", "eta", "epsilon", "i0", "scanned_i_max", "violations"])
    w.writerow(
        [
            report.side,
            report.params.k,
            report.params.eta,
            report.params.epsilon,
            report.first_verified_i0,
            report.i_max,
            len(report.violations),
        ]
    )
    return EXIT_OK


def cmd_asym_profile(args) -> int:
    from .asym import profile_check

    result = profile_check(args.k, args.i, j_limit=args.j_limit)
    w = _csv_writer(sys.stdout)
    w.writerow(["i", "j", "d_scaled", "airy_fit"])
    for i, j, d_scaled, airy_fit in result.rows:
        w.writerow([i, j, d_scaled, airy_fit])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dagenum",
        description="Enumerate relaxed/compacted k-ary trees and minimal "
        "acyclic DFAs, convert between trees and decorated paths, and run "
        "asymptotic diagnostics.",
    )
    ap.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print the diagonal counting sequence")
    p_count.add_argument("--kind", choices=KINDS, required=True)
    p_count.add_argument("--k", type=int, required=True, help="arity, k >= 2")
    p_count.add_argument("--n-max", type=int, required=True)
    p_count.add_argument(
        "--format", choices=("plain", "csv", "json"), default="plain",
        help="plain: n,count rows; csv adds a header; json is one document",
    )
    p_count.add_argument(
        "--cache-dir", default=None,
        help=f"table cache root; overrides ${CACHE_ENV}",
    )
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="run one invariant suite")
    p_verify.add_argument("--scope", choices=VERIFY_SCOPES, required=True)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--eta", type=float, default=None,
                          help="bounds scopes: defaults to 1.05x the floor")
    p_verify.add_argument("--epsilon", type=float, default=0.1)
    p_verify.add_argument("--i-min", type=int, default=2)
    p_verify.add_argument("--i-max", type=int, default=3000)
    p_verify.add_argument("--i0-limit", type=int, default=None,
                          help="fail if the verified threshold exceeds this")
    p_verify.add_argument("--threads", type=int, default=None,
                          help="accepted and ignored; sweeps run in one thread")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_convert = sub.add_parser("convert", help="tree file <-> path file")
    p_convert.add_argument(
        "--direction", choices=("tree-to-path", "path-to-tree"), required=True
    )
    p_convert.add_argument("--input", required=True, help="input file, - for stdin")
    p_convert.add_argument("--output", default="-", help="output file, - for stdout")
    p_convert.set_defaults(func=cmd_convert)

    p_asym = sub.add_parser("asym", help="asymptotic diagnostics, CSV on stdout")
    asub = p_asym.add_subparsers(dest="asym_command", required=True)

    p_ratio = asub.add_parser("ratio", help="log-ratio against the predictor")
    p_ratio.add_argument("--kind", choices=KINDS, default="relaxed")
    p_ratio.add_argument("--k", type=int, required=True)
    p_ratio.add_argument("--ns", default="32,64,128,256,512",
                         help="comma-separated sizes")
    p_ratio.add_argument("--route", choices=("auto", "exact", "scaled"),
                         default="auto")
    p_ratio.set_defaults(func=cmd_asym_ratio)

    p_bounds = asub.add_parser("bounds", help="witness-inequality sweep")
    p_bounds.add_argument("--side", choices=("lower", "upper"), required=True)
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--eta", type=float, default=None,
                          help="defaults to 1.05x the floor")
    p_bounds.add_argument("--epsilon", type=float, default=0.1)
    p_bounds.add_argument("--i-min", type=int, default=2)
    p_bounds.add_argument("--i-max", type=int, default=2000)
    p_bounds.add_argument("--threads", type=int, default=None,
                          help="accepted and ignored; sweeps run in one thread")
    p_bounds.set_defaults(func=cmd_asym_bounds)

    p_profile = asub.add_parser("profile", help="Airy-shape fit of one row")
    p_profile.add_argument("--k", type=int, required=True)
    p_profile.add_argument("--i", type=int, required=True)
    p_profile.add_argument("--j-limit", type=int, default=None)
    p_profile.set_defaults(func=cmd_asym_profile)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # CPython 3.11+ (and 3.10.7+) refuses to convert ints over 4,300 digits
    # to or from str; a count the byte budget admits can be longer.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(MAX_COUNT_DIGITS)
    try:
        return args.func(args)
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
