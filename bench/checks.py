"""Output checks that do not use the program's code.

Each check takes the text a command printed and returns a list of problems;
an empty list means the output is correct.  The references are computed
here: the three counting recurrences modulo a 61-bit prime, the witness
inequalities of the bound sweeps from their closed formulas with mpmath's
Airy function at 40 digits, and the Airy profile fit.  Two files of the
repository serve as frozen oracles: ``tests/known_values.py`` (small counts)
and ``tests/fixtures/bound_reports.json`` (every violating cell of the eight
sweeps over i in [2, 10000]).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import runpy
from functools import lru_cache
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
KNOWN_VALUES = ROOT / "tests" / "known_values.py"
BOUND_FIXTURE = ROOT / "tests" / "fixtures" / "bound_reports.json"

PRIME = (1 << 61) - 1
UNDERFLOW_FLOOR = 1e-290  # documented: cells with both sides below count as satisfied
EPSILON = 0.1
ROUTE_TOLERANCE = 1e-6
FIT_TOLERANCE = 1e-9
SAMPLE_CELLS = 24  # uniform window cells per sweep, plus up to 8 fixture violations
SAMPLE_VIOLATIONS = 8
MP_DIGITS = 40


# -- counting recurrences ---------------------------------------------------


@lru_cache(maxsize=None)
def diagonal_mod(kind: str, k: int, n_max: int) -> tuple[int, ...]:
    """count(n) mod PRIME for n = 0..n_max, from the wedge recurrences

        relaxed:   r[n][m] = r[n][m-1] + (m+1) r[n-1][m]
        compacted: c[n][m] = c[n][m-1] + (m+1) c[n-1][m] - (m-1) c[n-k][m-1]
        dfa:       b[n][m] = 2 b[n][m-1] + (m+1) b[n-1][m] - m b[n-k][m-1]

    on 0 <= m <= n/(k-1), with r[n][0] = 1 for every n (negative n included,
    for the subtracted term only) and zero elsewhere; count(n) sits at
    ((k-1) n, n).
    """
    mul = 2 if kind == "dfa" else 1
    table: dict[tuple[int, int], int] = {}

    def at(n: int, m: int) -> int:
        if m == 0:
            return 1
        if n < 0 or (k - 1) * m > n:
            return 0
        return table[(n, m)]

    for n in range((k - 1) * n_max + 1):
        for m in range(1, n // (k - 1) + 1):
            sub = {"relaxed": 0, "compacted": m - 1, "dfa": m}[kind]
            table[(n, m)] = (
                mul * at(n, m - 1) + (m + 1) * at(n - 1, m) - sub * at(n - k, m - 1)
            ) % PRIME
    return tuple(at((k - 1) * n, n) for n in range(n_max + 1))


@lru_cache(maxsize=None)
def known_counts() -> dict:
    return runpy.run_path(str(KNOWN_VALUES))["KNOWN_COUNTS"]


def parse_counts(text: str) -> list[int]:
    """The count column of `count` output in any of its three formats."""
    if text.startswith("{"):
        return [c for _, c in json.loads(text)["counts"]]
    rows = list(csv.reader(io.StringIO(text)))
    if rows and rows[0] == ["n", "count"]:
        rows = rows[1:]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError("rows are not n = 0, 1, 2, ...")
    return [int(r[1]) for r in rows]


def check_count(text: str, kind: str, k: int, n_max: int) -> list[str]:
    try:
        counts = parse_counts(text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"count {kind} k={k}: unparsable output ({exc})"]
    if len(counts) != n_max + 1:
        return [f"count {kind} k={k}: {len(counts)} values, expected {n_max + 1}"]
    problems = []
    ref = diagonal_mod(kind, k, n_max)
    for n, (c, r) in enumerate(zip(counts, ref)):
        if c % PRIME != r:
            problems.append(f"count {kind} k={k} n={n}: {c} disagrees with the recurrence")
            break
    first_n, values = known_counts().get((kind, k), (0, ()))
    for n, v in enumerate(values, start=first_n):
        if n <= n_max and counts[n] != v:
            problems.append(f"count {kind} k={k} n={n}: {counts[n]} != frozen {v}")
            break
    return problems


def check_not_above(compacted: str, relaxed: str) -> list[str]:
    """Compacted trees are relaxed trees, so c(n) <= r(n) for every n."""
    bad = [n for n, (c, r) in enumerate(zip(parse_counts(compacted), parse_counts(relaxed))) if c > r]
    return [f"compacted count above relaxed at n={bad[0]}"] if bad else []


def check_same_bytes(a: str, b: str, what: str) -> list[str]:
    return [] if a == b else [f"{what}: outputs differ"]


def check_prefix(short: str, long: str, n_short: int) -> list[str]:
    """An n <= n_short run prints the first rows of a longer run."""
    a, b = parse_counts(short), parse_counts(long)
    return [] if a == b[: n_short + 1] else ["smaller run is not a prefix of the larger"]


# -- bound sweeps -------------------------------------------------------------


def eta_default(k: int) -> float:
    return 1.05 * ((k + 2) ** 2 / (72.0 * (k - 1) ** 2))


def window(i: int, side: str) -> int:
    """Columns j < ceil(i^p) are scanned in row i, p = 2/3 - eps (lower) or 1 - eps (upper)."""
    p = (2.0 / 3.0 - EPSILON) if side == "lower" else (1.0 - EPSILON)
    return math.ceil(float(i) ** p)


def sweep_cells(side: str, i_min: int, i_max: int) -> int:
    return sum(window(i, side) for i in range(i_min, i_max + 1))


@lru_cache(maxsize=None)
def fixture_violations(side: str, k: int) -> tuple[tuple[int, int], ...]:
    doc = json.loads(BOUND_FIXTURE.read_text())[f"{side}-k{k}"]
    if doc["epsilon"] != EPSILON or doc["i_min"] != 2 or not math.isclose(doc["eta"], eta_default(k), rel_tol=1e-12):
        raise ValueError(f"fixture {side}-k{k} uses other sweep parameters")
    return tuple((int(i), int(j)) for i, j in doc["violations"])


def expected_sweep(side: str, k: int, i_max: int) -> tuple[list[tuple[int, int]], int]:
    """Violations through i_max and the i0 the sweep must report.

    A cell's verdict depends only on rows i-1 and i, so a sweep over
    [2, i_max] finds exactly the archived violations with i <= i_max.
    """
    viol = [v for v in fixture_violations(side, k) if v[0] <= i_max]
    return viol, (max(i for i, _ in viol) + 1 if viol else 2)


class CellJudge:
    """Decides witness-inequality cells from the closed formulas with mpmath."""

    def __init__(self, side: str, k: int, eta: float):
        self.side, self.k = side, k
        self.eta = mpmath.mpf(eta)
        with mpmath.workdps(MP_DIGITS):
            self.a1 = mpmath.airyaizero(1)
            self.B = mpmath.cbrt(mpmath.mpf(2) / (k - 1))

    def x(self, i: int, j: int):
        k, B, a1 = self.k, self.B, self.a1
        c1 = a1 * (k - 2) * B**2 / 6
        c2 = mpmath.mpf(k + 2) / (6 * (k - 1))
        c3 = mpmath.mpf(7 * k - 11) / (6 * (k - 1))
        c4 = a1**2 * (k - 2) ** 2 * B**4 / 72
        c5 = a1 * (k**2 - 4) * B**5 / 72
        i = mpmath.mpf(i)
        i13 = mpmath.cbrt(i)
        br = (
            1 - c1 * j / i13**2 - c2 * j * j / i + c3 * j / i
            + c4 * j * j / i13**4 + c5 * j**3 / i13**5
        )
        if self.side == "upper":
            br += self.eta * mpmath.mpf(j) ** 4 / i**2
        val = br * mpmath.airyai(a1 + B * (j + 1) / i13)
        return max(val, 0) if self.side == "lower" else val

    def violated(self, i: int, j: int) -> bool | None:
        """True/False for a decided cell, None below the underflow floor."""
        k = self.k
        with mpmath.workdps(MP_DIGITS):
            tail = mpmath.mpf(i) ** (mpmath.mpf(-7) / 6)
            s = k * (
                1 + self.a1 / (self.B * mpmath.mpf(i) ** (mpmath.mpf(2) / 3))
                + mpmath.mpf(7 * k - 6) / (6 * i)
                + (-tail if self.side == "lower" else tail)
            )
            u = mpmath.mpf((k - 1) ** 2 * (i - j + k)) / ((k - 1) * i + j)
            lhs = s * self.x(i, j)
            rhs = u * self.x(i - 1, j - 1) + self.x(i - 1, j + k - 1)
            if max(abs(lhs), abs(rhs)) < UNDERFLOW_FLOOR:
                return None
            return bool(lhs > rhs) if self.side == "lower" else bool(lhs < rhs)


def sample_cells(side: str, k: int, i_max: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(f"{seed}:{side}:{k}:{i_max}")
    cells = []
    for _ in range(SAMPLE_CELLS):
        i = rng.randint(2, i_max)
        cells.append((i, rng.randrange(window(i, side))))
    viol, _ = expected_sweep(side, k, i_max)
    cells += rng.sample(viol, min(SAMPLE_VIOLATIONS, len(viol)))
    return cells


def check_cells(side: str, k: int, eta: float, cells, violating) -> list[str]:
    """The program's verdict (membership in `violating`) against mpmath's."""
    judge = CellJudge(side, k, eta)
    problems = []
    for i, j in cells:
        verdict = judge.violated(i, j)
        if verdict is not None and verdict != ((i, j) in violating):
            problems.append(
                f"{side} k={k} cell ({i}, {j}): program says "
                f"{'violated' if (i, j) in violating else 'holds'}, mpmath disagrees"
            )
    return problems


def check_sweep_csv(text: str, side: str, k: int, i_max: int, seed: int) -> list[str]:
    """`asym bounds` output: one CSV row with i0 and the violation count."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != 2 or rows[0] != ["side", "k", "eta", "epsilon", "i0", "scanned_i_max", "violations"]:
        return [f"bounds {side} k={k}: unexpected output shape"]
    r = rows[1]
    viol, i0 = expected_sweep(side, k, i_max)
    eta = float(r[2])
    got = (r[0], int(r[1]), float(r[3]), int(r[4]), int(r[5]), int(r[6]))
    want = (side, k, EPSILON, i0, i_max, len(viol))
    if got != want or not math.isclose(eta, eta_default(k), rel_tol=1e-12):
        return [f"bounds {side} k={k}: got {got} eta={eta}, expected {want} eta={eta_default(k)}"]
    return check_cells(side, k, eta, sample_cells(side, k, i_max, seed), set(viol))


def check_sweep_json(text: str, side: str, k: int, i_max: int, seed: int) -> list[str]:
    """`verify --scope bounds-<side> --format json`: first ten violations listed."""
    try:
        doc = json.loads(text)
    except ValueError:
        return [f"verify bounds-{side} k={k}: output is not JSON"]
    viol, i0 = expected_sweep(side, k, i_max)
    listed = [tuple(v) for v in doc.get("violations", [])]
    problems = []
    expect = {
        "side": side, "k": k, "epsilon": EPSILON, "i_min": 2, "i_max": i_max,
        "first_verified_i0": i0, "violation_count": len(viol), "ok": True,
    }
    for key, value in expect.items():
        if doc.get(key) != value:
            problems.append(f"verify bounds-{side} k={k}: {key}={doc.get(key)!r}, expected {value!r}")
    if not math.isclose(doc.get("eta", 0.0), eta_default(k), rel_tol=1e-12):
        problems.append(f"verify bounds-{side} k={k}: eta={doc.get('eta')!r}, expected {eta_default(k)!r}")
    if listed != viol[:10]:
        problems.append(f"verify bounds-{side} k={k}: listed violations differ from the first ten")
    cells = sample_cells(side, k, i_max, seed) + listed
    return problems + check_cells(side, k, eta_default(k), cells, set(viol))


# -- verify scopes of count_verify --------------------------------------------


def _last_line_pass(text: str, what: str) -> list[str]:
    lines = text.splitlines()
    return [] if lines and lines[-1] == "PASS" else [f"{what}: no PASS line"]


def check_verify_oracle(text: str, k: int, n_max: int) -> list[str]:
    problems = _last_line_pass(text, f"verify oracle k={k}")
    rel, comp = diagonal_mod("relaxed", k, n_max), diagonal_mod("compacted", k, n_max)
    rows = [line.split() for line in text.splitlines()[:-2]]
    if len(rows) != n_max:
        return problems + [f"verify oracle k={k}: {len(rows)} rows, expected {n_max}"]
    for n, row in enumerate(rows, start=1):
        r_or, r_dp = (int(x) for x in row[2].split("/"))
        c_or, c_dp = (int(x) for x in row[4].split("/"))
        if not (r_or == r_dp == rel[n] and c_or == c_dp == comp[n] and row[5] == "ok"):
            problems.append(f"verify oracle k={k} n={n}: {' '.join(row)}")
    return problems


def check_verify_bijection(text: str, k: int, n_max: int) -> list[str]:
    """Both round-trip counts equal the number of relaxed trees of size <= n_max."""
    problems = _last_line_pass(text, f"verify bijection k={k}")
    total = sum(diagonal_mod("relaxed", k, n_max))  # small: no wrap-around
    lines = text.splitlines()
    for prefix in ("tree->path->tree round trips: ", "path->tree->path round trips: "):
        got = [int(line.removeprefix(prefix)) for line in lines if line.startswith(prefix)]
        if got != [total]:
            problems.append(f"verify bijection k={k}: {prefix.strip()} {got}, expected {total}")
    return problems


def check_verify_transform(text: str, k: int, n_max: int) -> list[str]:
    want = [f"transform identity exact for n=0..{n_max} ({n_max + 1} values)", "PASS"]
    return [] if text.splitlines() == want else [f"verify transform k={k}: {text!r}"]


def check_verify_p_ineq(text: str, k: int, n_max: int) -> list[str]:
    lines = text.splitlines()
    ok = [line.startswith(f"n={n} pairs=") and line.endswith(" ok") for n, line in enumerate(lines[:-1], 1)]
    problems = _last_line_pass(text, f"verify p-ineq k={k}")
    if len(ok) != n_max or not all(ok):
        problems.append(f"verify p-ineq k={k}: rows are not n=1..{n_max}, all ok")
    return problems


def check_verify_ratio(text: str, k: int) -> list[str]:
    problems = _last_line_pass(text, f"verify ratio k={k}")
    ns = []
    for line in text.splitlines()[:-2]:
        fields = dict(part.split("=", 1) for part in line.split())
        ns.append(int(fields["n"]))
        if abs(float(fields["exact"]) - float(fields["scaled"])) > ROUTE_TOLERANCE:
            problems.append(f"verify ratio k={k} n={fields['n']}: routes disagree")
    if ns != [50, 100, 200, 400, 600]:
        problems.append(f"verify ratio k={k}: grid {ns}")
    return problems


def parse_ratio(text: str, route: str) -> dict[int, float]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["n", "log_ratio", "route"] or any(r[2] != route for r in rows[1:]):
        raise ValueError(f"not an asym ratio table for route {route}")
    return {int(r[0]): float(r[1]) for r in rows[1:]}


def check_ratio_sizes(text: str, route: str, ns: list[int]) -> list[str]:
    got = list(parse_ratio(text, route))
    return [] if got == ns else [f"asym ratio {route}: sizes {got}, expected {ns}"]


def check_ratio_routes(exact: str, scaled: str, ns: list[int]) -> list[str]:
    """The exact and scaled log-ratios agree to 1e-6 at every requested n."""
    e, s = parse_ratio(exact, "exact"), parse_ratio(scaled, "scaled")
    return [f"asym ratio n={n}: routes differ by {abs(e[n] - s[n])}" for n in ns if abs(e[n] - s[n]) > ROUTE_TOLERANCE]


def check_profile(text: str, k: int, i: int) -> list[str]:
    """Every row lies on one admissible column of row i, and airy_fit is the
    least-squares multiple of Ai(a1 + B (j+1) / i^(1/3)) fitted to d_scaled."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["i", "j", "d_scaled", "airy_fit"] or len(rows) < 3:
        return [f"asym profile k={k} i={i}: unexpected output shape"]
    j_limit = int(float(i) ** (2.0 / 3.0 - 0.1))
    js = [int(r[1]) for r in rows[1:]]
    if any(int(r[0]) != i for r in rows[1:]) or js != list(range(i % k, j_limit + 1, k)):
        return [f"asym profile k={k} i={i}: rows are not the admissible columns <= {j_limit}"]
    with mpmath.workdps(MP_DIGITS):
        a1 = mpmath.airyaizero(1)
        b = mpmath.cbrt(mpmath.mpf(2) / (k - 1))
        shape = [mpmath.airyai(a1 + b * (j + 1) / mpmath.cbrt(i)) for j in js]
        d = [mpmath.mpf(r[2]) for r in rows[1:]]
        scale = mpmath.fsum(x * y for x, y in zip(d, shape)) / mpmath.fsum(y * y for y in shape)
        peak = max(abs(scale * y) for y in shape)
        worst = max(abs(float(r[3]) - scale * y) for r, y in zip(rows[1:], shape)) / peak
    return [] if worst <= FIT_TOLERANCE else [f"asym profile k={k} i={i}: fit off by {float(worst):.3g}"]
