"""The two workloads: the CLI commands of one round and the check on each.

A round is a list of groups; a group is a list of commands that must run in
that order (a cache build before its extension, say).  Each round runs the
same groups, in an order drawn from the seed, so every round attempts the
same operations.  Sizes are fixed; the seed picks the order, the output
formats of `count`, the sizes passed to `asym ratio`, the row of
`asym profile` and the cells the sweep checks recompute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import checks

# bounds_sweep: the eight sweeps of acceptance check 6, shortened from
# i_max = 10000 (where a sweep takes minutes) to keep a round near ten seconds.
SWEEP_I_MAX = 150
SWEEP_KS = (2, 3, 4, 5)
VERIFY_SWEEP_K = 3  # i0 = 36 <= i_max, so the verdict is PASS
# count_verify: diagonals in the hundreds; the cold build stops short of N so
# that the next call extends the cache file.  `count`'s own estimate for the
# largest table (dfa, k=2, n=300) is 11 MB, far below its 2 GiB budget.
COUNT_K = 2
COUNT_N_BUILD = 200
COUNT_N = 300
# The no-cache runs and the warm reads are short and mostly interpreter
# start-up; each runs this many times a round, so that their medians rest on
# enough runs.
COUNT_REPEAT = 3
# count_verify: the verify scopes at the program's default sizes at the time the benchmark was
# written, passed explicitly so that a change of default cannot change the load.
EXACT_SIZES = {
    "oracle": {2: 6, 3: 4},
    "bijection": {2: 6, 3: 4},
    "transform": {2: 15, 3: 10},
    "p-ineq": {2: 30, 3: 20},
    "ratio": {2: 600, 3: 600},
}
RATIO_K = 2
RATIO_N_TOP = 512
# Probes that give every workload a value for every end-to-end metric: four
# of the bounds_sweep sweeps, both sides at k = 3 and 5, for count_verify, and
# the no-cache/cold/extend/warm sequence for two kinds at small n for
# bounds_sweep.
PROBE_SWEEPS = tuple((side, k, SWEEP_I_MAX) for side in ("lower", "upper") for k in (3, 5))
PROBE_COUNTS = (("relaxed", 80, 120), ("dfa", 80, 120))


@dataclass
class Cmd:
    """One CLI invocation, its role in the metrics, and its output check."""

    name: str
    argv: list[str]
    check: Callable[[str], list[str]]
    role: str = "other"  # sweep | nocache | cold | warm | other
    cells: int = 0  # inequality cells a sweep command scans
    repeat: int = 1  # runs in a row in each round; every run is checked


@dataclass
class Workload:
    name: str
    groups: list[list[Cmd]]
    # checks across commands of one round: (name, fn(outputs by command name))
    cross: list[tuple[str, Callable[[dict], list[str]]]] = field(default_factory=list)

    def round_order(self, seed: int, round_no: int) -> list[Cmd]:
        groups = list(self.groups)
        random.Random(f"{seed}:{self.name}:{round_no}").shuffle(groups)
        return [c for g in groups for c in g]


def _sweep_cmd(side: str, k: int, i_max: int, seed: int) -> Cmd:
    return Cmd(
        f"bounds-{side}-k{k}",
        ["asym", "bounds", "--side", side, "--k", str(k), "--i-max", str(i_max)],
        lambda out: checks.check_sweep_csv(out, side, k, i_max, seed),
        role="sweep",
        cells=checks.sweep_cells(side, 2, i_max),
    )


def _count_group(kind: str, n_build: int, n: int, fmt: str, cache_dir: str) -> list[Cmd]:
    base = ["count", "--kind", kind, "--k", str(COUNT_K), "--format", fmt]
    cache = ["--cache-dir", cache_dir]
    return [
        Cmd(f"{kind}-nocache", base + ["--n-max", str(n)],
            lambda out: checks.check_count(out, kind, COUNT_K, n), role="nocache", repeat=COUNT_REPEAT),
        Cmd(f"{kind}-cold", base + ["--n-max", str(n_build)] + cache,
            lambda out: checks.check_count(out, kind, COUNT_K, n_build), role="cold"),
        Cmd(f"{kind}-extend", base + ["--n-max", str(n)] + cache,
            lambda out: checks.check_count(out, kind, COUNT_K, n), role="cold"),
        Cmd(f"{kind}-warm", base + ["--n-max", str(n)] + cache,
            lambda out: checks.check_count(out, kind, COUNT_K, n), role="warm", repeat=COUNT_REPEAT),
    ]


def _cache_cross(kind: str, n_build: int) -> list[tuple[str, Callable[[dict], list[str]]]]:
    """Cached runs print the bytes of the uncached run; the build a prefix."""
    return [
        (f"{kind}-extend-bytes",
         lambda o: checks.check_same_bytes(o[f"{kind}-extend"], o[f"{kind}-nocache"], f"{kind} extend")),
        (f"{kind}-warm-bytes",
         lambda o: checks.check_same_bytes(o[f"{kind}-warm"], o[f"{kind}-nocache"], f"{kind} warm")),
        (f"{kind}-build-prefix",
         lambda o: checks.check_prefix(o[f"{kind}-cold"], o[f"{kind}-nocache"], n_build)),
    ]


def _probe_counts(cache_dir: str) -> tuple[list[list[Cmd]], list]:
    groups = [_count_group(kind, n_build, n, "plain", cache_dir) for kind, n_build, n in PROBE_COUNTS]
    return groups, [c for kind, n_build, _ in PROBE_COUNTS for c in _cache_cross(kind, n_build)]


def bounds_sweep(seed: int, cache_dir: str) -> Workload:
    groups = [[_sweep_cmd(side, k, SWEEP_I_MAX, seed)] for side in ("lower", "upper") for k in SWEEP_KS]
    k, i_max = VERIFY_SWEEP_K, SWEEP_I_MAX
    groups.append([Cmd(
        f"verify-bounds-upper-k{k}",
        ["verify", "--scope", "bounds-upper", "--k", str(k), "--i-max", str(i_max), "--format", "json"],
        lambda out: checks.check_sweep_json(out, "upper", k, i_max, seed),
        role="sweep",
        cells=checks.sweep_cells("upper", 2, i_max),
    )])
    probes, cross = _probe_counts(cache_dir)
    return Workload("bounds_sweep", groups + probes, cross)


def count_verify(seed: int, cache_dir: str) -> Workload:
    """The exact route: `count` with and without the cache, and the non-sweep
    `verify` scopes, `asym ratio` and `asym profile`."""
    rng = random.Random(f"{seed}:count_verify")
    groups, cross = [], []
    for kind in ("relaxed", "compacted", "dfa"):
        groups.append(_count_group(kind, COUNT_N_BUILD, COUNT_N, rng.choice(("plain", "csv", "json")), cache_dir))
        cross += _cache_cross(kind, COUNT_N_BUILD)
    cross.append(("compacted-below-relaxed",
                  lambda o: checks.check_not_above(o["compacted-nocache"], o["relaxed-nocache"])))
    scope_checks = {
        "oracle": checks.check_verify_oracle,
        "bijection": checks.check_verify_bijection,
        "transform": checks.check_verify_transform,
        "p-ineq": checks.check_verify_p_ineq,
        "ratio": lambda out, k, n_max: checks.check_verify_ratio(out, k),
    }
    for scope, sizes in EXACT_SIZES.items():
        for k, n_max in sizes.items():
            check = partial(scope_checks[scope], k=k, n_max=n_max)
            groups.append([Cmd(f"verify-{scope}-k{k}",
                               ["verify", "--scope", scope, "--k", str(k), "--n-max", str(n_max)], check)])
    ns = sorted(rng.sample(range(32, RATIO_N_TOP), 4)) + [RATIO_N_TOP]
    ns_arg = ",".join(map(str, ns))
    for route in ("exact", "scaled"):
        groups.append([Cmd(f"ratio-{route}",
                           ["asym", "ratio", "--k", str(RATIO_K), "--ns", ns_arg, "--route", route],
                           lambda out, route=route: checks.check_ratio_sizes(out, route, ns))])
    cross.append(("ratio-routes", lambda o: checks.check_ratio_routes(o["ratio-exact"], o["ratio-scaled"], ns)))
    row = rng.randrange(150, 300)
    groups.append([Cmd("profile", ["asym", "profile", "--k", str(RATIO_K), "--i", str(row)],
                       lambda out: checks.check_profile(out, RATIO_K, row))])
    groups += [[_sweep_cmd(side, k, i_max, seed)] for side, k, i_max in PROBE_SWEEPS]
    return Workload("count_verify", groups, cross)


WORKLOADS = {"bounds_sweep": bounds_sweep, "count_verify": count_verify}
