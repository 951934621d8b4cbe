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

from . import __version__
from .tables import (
    KINDS, MAX_COUNT_DIGITS, CacheError, _check_arity, cached_diagonal, diagonal_sequence)

# Each handler imports the modules it runs when it runs: `count` needs none
# of the tree, path and oracle modules, and only the airy, scaled and bounds
# modules of `.asym` load numpy.

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CACHE = 3

CACHE_ENV = "DAGENUM_CACHE_DIR"

ROUTE_TOLERANCE = 1e-6

# `verify --scope oracle|bijection` refuses a run that would enumerate more
# trees (and, for bijection, paths) than this, projected from the exact r_n
ENUMERATION_BUDGET = 10**6


def _write_csv(header: list[str] | None, rows) -> int:
    w = csv.writer(sys.stdout, lineterminator="\n")
    if header:
        w.writerow(header)
    w.writerows(rows)
    return EXIT_OK


def _print_json(doc: dict) -> None:
    json.dump(doc, sys.stdout, sort_keys=True)
    print()


def cmd_count(args) -> int:
    cache = args.cache_dir or os.environ.get(CACHE_ENV)  # the flag overrides the variable
    if not cache:
        seq = diagonal_sequence(args.kind, args.k, args.n_max)
    else:
        path = Path(cache) / f"{args.kind}-k{args.k}.ctab"
        path.parent.mkdir(parents=True, exist_ok=True)
        seq = cached_diagonal(args.kind, args.k, args.n_max, path)
    if args.format == "json":
        counts = [[n, c] for n, c in enumerate(seq)]
        _print_json({"kind": args.kind, "k": args.k, "counts": counts})
        return EXIT_OK
    return _write_csv(["n", "count"] if args.format == "csv" else None, enumerate(seq))


def _tree_limit(k: int) -> int:
    from .paths import _tree_limit

    return _tree_limit(k)


def _check_enumeration(what: str, count: int) -> None:
    if count > ENUMERATION_BUDGET:
        raise ValueError(
            f"too-large: {count} {what} to enumerate, over the budget of {ENUMERATION_BUDGET}"
        )


def _no_row(n_max: int) -> ValueError:
    # rows start at n = 1: no rows to check is not a PASS
    return ValueError(f"out-of-range: n_max={n_max} checks no row")


def _rows_report(n_max: int, results: list[dict]) -> dict:
    if not results:
        raise _no_row(n_max)
    return {"n_max": n_max, "results": results, "ok": all(r["ok"] for r in results)}


def _verify_oracle(args) -> dict:
    from .oracle import enumerate_relaxed
    from .trees import is_compacted

    k, n_max = args.k, args.n_max
    rel = diagonal_sequence("relaxed", k, n_max)
    comp = diagonal_sequence("compacted", k, n_max)
    _check_enumeration("trees", sum(rel[1:]))
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
    return _rows_report(n_max, results)


def _render_oracle(report: dict):
    for row in report["results"]:
        yield (
            f"n={row['n']} relaxed {row['relaxed_oracle']}/{row['relaxed']} "
            f"compacted {row['compacted_oracle']}/{row['compacted']} "
            + ("ok" if row["ok"] else "MISMATCH")
        )
    matched = sum(1 for r in report["results"] if r["ok"])
    yield f"oracle: {matched}/{len(report['results'])} matched"


def _verify_bijection(args) -> dict:
    from . import paths, trees
    from .bijection import path_to_tree, tree_to_path
    from .oracle import enumerate_relaxed

    k, n_max = args.k, args.n_max
    # each tree, and each path, makes one round trip
    _check_enumeration("trees and paths", 2 * sum(diagonal_sequence("relaxed", k, n_max)))
    tree_trips = path_trips = 0
    failures = []
    for n in range(n_max + 1):
        # the steps of f(t) for each tree t with g(f(t)) == t: for such a
        # path p = f(t), f(g(p)) = f(t) = p, so its own trip is already made
        held = set()
        for t in enumerate_relaxed(k, n, limit=n_max):
            try:
                p = tree_to_path(t)
                ok = path_to_tree(p) == t
            except ValueError:  # t or p is not valid
                ok = False
            if ok:
                held.add(p.steps)
            else:
                failures.append({"n": n, "tree": trees.to_document(t)})
            tree_trips += 1
        for p in paths.generate_paths(k, n, limit=n_max):
            if p.steps not in held:
                try:
                    ok = tree_to_path(path_to_tree(p)) == p
                except ValueError:
                    ok = False
                if not ok:
                    failures.append({"n": n, "path": paths.to_document(p)})
            path_trips += 1
    return {
        "n_max": n_max,
        "tree_round_trips": tree_trips,
        "path_round_trips": path_trips,
        "first_failure": failures[0] if failures else None,
        "failure_count": len(failures),
        "ok": not failures,
    }


def _render_bijection(report: dict):
    yield f"tree->path->tree round trips: {report['tree_round_trips']}"
    yield f"path->tree->path round trips: {report['path_round_trips']}"
    if report["first_failure"] is not None:
        yield "first failure: " + json.dumps(report["first_failure"], sort_keys=True)


def _verify_transform(args) -> dict:
    from .asym.exact import exact_transform_diagonal

    k, n_max = args.k, args.n_max
    via_transform = exact_transform_diagonal(k, n_max)
    direct = diagonal_sequence("relaxed", k, n_max)
    mismatches = [
        {"n": n, "transform": via_transform[n], "direct": direct[n]}
        for n in range(n_max + 1)
        if via_transform[n] != direct[n]
    ]
    return {
        "n_max": n_max,
        "checked": n_max + 1,
        "first_mismatch": mismatches[0] if mismatches else None,
        "ok": not mismatches,
    }


def _render_transform(report: dict):
    if report["ok"]:
        yield f"transform identity exact for n=0..{report['n_max']} ({report['checked']} values)"
    else:
        yield "transform mismatch: " + json.dumps(report["first_mismatch"], sort_keys=True)


def _verify_ratio(args) -> dict:
    from .asym.predict import ratio_diagnostic

    k, n_max = args.k, args.n_max
    if n_max < 1:
        raise _no_row(n_max)
    grid = [n for n in (50, 100, 200, 400, 600) if n <= n_max] or [n_max]
    exact_pts = ratio_diagnostic("relaxed", k, grid, route="exact")
    scaled_pts = ratio_diagnostic("relaxed", k, grid, route="scaled")
    results = [
        {"n": e.n, "exact": e.log_ratio, "scaled": s.log_ratio,
         "gap": abs(e.log_ratio - s.log_ratio)}
        for e, s in zip(exact_pts, scaled_pts)
    ]
    worst = max([0.0] + [r["gap"] for r in results])
    return {
        "grid": grid,
        "tolerance": ROUTE_TOLERANCE,
        "worst_gap": worst,
        "results": results,
        "ok": worst <= ROUTE_TOLERANCE,
    }


def _render_ratio(report: dict):
    for row in report["results"]:
        yield f"n={row['n']} exact={row['exact']!r} scaled={row['scaled']!r} gap={row['gap']!r}"
    yield f"worst route gap {report['worst_gap']!r} (tolerance {report['tolerance']!r})"


def _verify_p_ineq(args) -> dict:
    from .asym.exact import P_INEQ_KN_LIMIT, p_ratio_check

    k, n_max = args.k, args.n_max
    if k >= 2 and k * n_max > P_INEQ_KN_LIMIT:
        p_ratio_check(k, P_INEQ_KN_LIMIT // k + 1)  # the first n over the cap: raises at once
    results = [
        {"n": n, **{key: v for key, v in p_ratio_check(k, n).items() if key != "kn"}}
        for n in range(1, n_max + 1)
    ]
    return _rows_report(n_max, results)


def _render_p_ineq(report: dict):
    for row in report["results"]:
        yield f"n={row['n']} pairs={row['pairs_checked']} " + (
            "ok" if row["ok"] else f"violation {row['first_violation']}"
        )


def _sweep(args, side: str):
    """verify_bounds over [i_min, i_max], eta defaulting to 1.05x the floor."""
    from .asym.bounds import min_eta, verify_bounds

    eta = args.eta if args.eta is not None else 1.05 * min_eta(args.k)
    return verify_bounds(side, args.k, eta, args.epsilon, (args.i_min, args.i_max))


def _verify_bounds(args) -> dict:
    doc = _sweep(args, args.scope.removeprefix("bounds-"))
    i0_limit = args.i0_limit if args.i0_limit is not None else args.i_max
    doc.update(
        violation_count=len(doc["violations"]),
        violations=doc["violations"][:10],
        i0_limit=i0_limit,
        ok=doc["first_verified_i0"] <= i0_limit,
    )
    return doc


def _render_bounds(report: dict):
    yield (
        f"{report['side']} bounds k={report['k']}: scanned i in "
        f"[{report['i_min']}, {report['i_max']}], "
        f"violations={report['violation_count']}, "
        f"first verified i0={report['first_verified_i0']} "
        f"(limit {report['i0_limit']})"
    )


# scope -> (default --n-max for a given k, runner, text renderer); the order
# is --help's.  A runner returns the report without scope and k; a renderer
# yields its text lines before the PASS/FAIL line.
VERIFY_SCOPES = {
    "oracle": (_tree_limit, _verify_oracle, _render_oracle),
    "bijection": (_tree_limit, _verify_bijection, _render_bijection),
    "bounds-lower": (lambda k: 0, _verify_bounds, _render_bounds),
    "bounds-upper": (lambda k: 0, _verify_bounds, _render_bounds),
    "ratio": (lambda k: 600, _verify_ratio, _render_ratio),
    "p-ineq": (lambda k: 60 // k, _verify_p_ineq, _render_p_ineq),
    "transform": (lambda k: 30 // k, _verify_transform, _render_transform),
}


def cmd_verify(args) -> int:
    default_n_max, run, render = VERIFY_SCOPES[args.scope]
    if args.n_max is None:
        _check_arity(args.k)  # every runner refuses it, and two defaults divide by k
        args.n_max = default_n_max(args.k)
    elif args.n_max < 0:  # every scope: no rows to check is not a PASS
        raise ValueError(f"negative-size: {args.n_max}")
    report = {"scope": args.scope, "k": args.k, **run(args)}
    if args.format == "json":
        _print_json(report)
    else:
        for line in render(report):
            print(line)
        print("PASS" if report["ok"] else "FAIL")
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def cmd_convert(args) -> int:
    from . import paths, trees
    from .bijection import path_to_tree, tree_to_path

    # direction -> (parse, map, serialize, the invalid-input lines of a parsed input)
    loads, convert, dumps, errors = {
        "tree-to-path": (trees.loads, tree_to_path, paths.dumps, lambda t: [
            f"invalid tree: {v.code} at {list(v.labels)}" for v in trees.validate_tree(t)
        ]),
        "path-to-tree": (paths.loads, path_to_tree, trees.dumps, lambda p: [
            f"invalid path: {paths.validate_path(p).describe()}"
        ]),
    }[args.direction]
    source = loads(sys.stdin.read() if args.input == "-" else Path(args.input).read_text())
    try:
        image = convert(source)
    except ValueError:  # only now walk again, to list what is invalid
        for line in errors(source):
            print(line, file=sys.stderr)
        return EXIT_USAGE
    if args.output == "-":
        sys.stdout.write(dumps(image))
    else:
        Path(args.output).write_text(dumps(image))
    return EXIT_OK


def cmd_asym_ratio(args) -> int:
    from .asym.predict import ratio_diagnostic

    ns = []
    for part in filter(str.strip, args.ns.split(",")):
        try:
            ns.append(int(part))
        except ValueError:
            raise ValueError(f"ns-format: {part!r} is not an integer") from None
    points = ratio_diagnostic(args.kind, args.k, ns, route=args.route)
    rows = ([pt.n, pt.log_ratio, pt.route] for pt in points)
    return _write_csv(["n", "log_ratio", "route"], rows)


def cmd_asym_bounds(args) -> int:
    doc = _sweep(args, args.side)
    row = [doc[key] for key in ("side", "k", "eta", "epsilon", "first_verified_i0", "i_max")]
    header = ["side", "k", "eta", "epsilon", "i0", "scanned_i_max", "violations"]
    return _write_csv(header, [row + [len(doc["violations"])]])


def cmd_asym_profile(args) -> int:
    from .asym.scaled import profile_check

    rows = profile_check(args.k, args.i, j_limit=args.j_limit)
    return _write_csv(["i", "j", "d_scaled", "airy_fit"], rows)


def _add_sweep_flags(p, eta_help: str, i_max: int, i0_limit: bool = False) -> None:
    """The sweep flags `verify` and `asym bounds` share, in --help's order."""
    p.add_argument("--eta", type=float, default=None, help=eta_help)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--i-min", type=int, default=2)
    p.add_argument("--i-max", type=int, default=i_max)
    if i0_limit:
        p.add_argument("--i0-limit", type=int, default=None,
                       help="fail if the verified threshold exceeds this")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored; sweeps run in one thread")


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
    _add_sweep_flags(p_verify, "bounds scopes: defaults to 1.05x the floor", 3000, i0_limit=True)
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
    _add_sweep_flags(p_bounds, "defaults to 1.05x the floor", 2000)
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
    # OpenBLAS starts a worker per core when numpy loads; dagenum's one BLAS
    # call, the dot products of profile_check, needs none.  A set value wins.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return args.func(args)
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
