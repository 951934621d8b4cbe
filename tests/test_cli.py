import hashlib
import io
import json
import sys
import time

import pytest

from dagenum.cli import CACHE_ENV, main
from dagenum.tables import build_table, save_table


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plain(capsys):
    code, out, err = run(capsys, ["count", "--kind", "relaxed", "--k", "2", "--n-max", "4"])
    assert code == 0 and err == ""
    assert out == "0,1\n1,1\n2,3\n3,16\n4,127\n"


def test_count_csv_header(capsys):
    code, out, _ = run(
        capsys, ["count", "--kind", "dfa", "--k", "2", "--n-max", "3", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[0] == "n,count"
    assert out.splitlines()[1:] == ["0,1", "1,1", "2,6", "3,60"]


def test_count_json(capsys):
    code, out, _ = run(
        capsys, ["count", "--kind", "compacted", "--k", "3", "--n-max", "3", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "compacted", "k": 3, "counts": [[0, 1], [1, 1], [2, 7], [3, 133]]}


def test_count_is_deterministic(capsys):
    argv = ["count", "--kind", "relaxed", "--k", "3", "--n-max", "6", "--format", "json"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


def test_count_cache_flow(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = ["count", "--kind", "relaxed", "--k", "2", "--n-max", "4", "--cache-dir", str(cache)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    path = cache / "relaxed-k2.ctab"
    assert path.exists()
    stamp = path.read_bytes()

    # cache hit: same output, file untouched
    code, out2, _ = run(capsys, argv)
    assert code == 0 and out2 == out
    assert path.read_bytes() == stamp

    # larger request extends and rewrites the cached table
    bigger = ["count", "--kind", "relaxed", "--k", "2", "--n-max", "6", "--cache-dir", str(cache)]
    code, out3, _ = run(capsys, bigger)
    assert code == 0
    assert out3.startswith(out)
    assert path.read_bytes() != stamp


def test_count_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "envcache"))
    code, _, _ = run(capsys, ["count", "--kind", "dfa", "--k", "3", "--n-max", "3"])
    assert code == 0
    assert (tmp_path / "envcache" / "dfa-k3.ctab").exists()


def test_count_corrupt_cache_exits_3(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "relaxed-k2.ctab").write_text("garbage\n")
    code, out, err = run(
        capsys,
        ["count", "--kind", "relaxed", "--k", "2", "--n-max", "3", "--cache-dir", str(cache)],
    )
    assert code == 3
    assert err.startswith("cache error:")


def _count(kind, k, n_max, *extra):
    return ["count", "--kind", kind, "--k", str(k), "--n-max", str(n_max), *extra]


@pytest.mark.parametrize("kind", ["relaxed", "compacted", "dfa"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_cached_count_equals_uncached(capsys, tmp_path, kind, k):
    cache = ["--cache-dir", str(tmp_path)]
    # cold at n_max = 0 (a one-column tail), extensions, then warm reads
    for n_max, fmt in ((0, "plain"), (1, "csv"), (5, "json"), (3, "plain"), (5, "csv"), (5, "plain")):
        expected = run(capsys, _count(kind, k, n_max, "--format", fmt))
        assert run(capsys, _count(kind, k, n_max, "--format", fmt, *cache)) == expected
        assert expected[0] == 0
    assert (tmp_path / f"{kind}-k{k}.ctab").read_text().startswith("ctab 2\n")


def _rewrite_body(path, edit):
    """Apply edit to the body lines of a cache file and re-sign it, so that
    only the structural checks can catch the change."""
    lines = path.read_text().splitlines()
    body = "".join(f"{line}\n" for line in edit(lines[5:]))
    lines[4] = "checksum " + hashlib.sha256(body.encode("ascii")).hexdigest()
    path.write_text("\n".join(lines[:5]) + "\n" + body)


_CACHE_DAMAGE = {
    "edited-digit": lambda text: text[:-2] + ("1" if text[-2] != "1" else "2") + "\n",
    "truncated-body": lambda text: text[: len(text) * 2 // 3],
    "ctab-9": lambda text: text.replace("ctab 2", "ctab 9", 1),
}


@pytest.mark.parametrize("damage", sorted(_CACHE_DAMAGE))
def test_count_damaged_cache_exits_3(capsys, tmp_path, damage):
    argv = _count("relaxed", 2, 6, "--cache-dir", str(tmp_path))
    assert run(capsys, argv)[0] == 0
    path = tmp_path / "relaxed-k2.ctab"
    path.write_text(_CACHE_DAMAGE[damage](path.read_text()))
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("cache error: cache-corrupt")


def test_count_wrong_tail_column_length_exits_3(capsys, tmp_path):
    argv = _count("dfa", 3, 4, "--cache-dir", str(tmp_path))
    assert run(capsys, argv)[0] == 0
    _rewrite_body(tmp_path / "dfa-k3.ctab", lambda lines: lines[:-2] + [lines[-2] + " 5", lines[-1]])
    code, _, err = run(capsys, argv)
    assert code == 3
    assert err == "cache error: cache-corrupt: wrong tail-column length\n"


@pytest.mark.parametrize("request_kind,request_k", [("compacted", 2), ("relaxed", 3)])
def test_count_mismatched_cache_exits_3(capsys, tmp_path, request_kind, request_k):
    assert run(capsys, _count("relaxed", 2, 4, "--cache-dir", str(tmp_path)))[0] == 0
    (tmp_path / "relaxed-k2.ctab").rename(tmp_path / f"{request_kind}-k{request_k}.ctab")
    code, out, err = run(capsys, _count(request_kind, request_k, 2, "--cache-dir", str(tmp_path)))
    assert code == 3 and out == ""
    assert err == (
        "cache error: cache-mismatch: table is (relaxed, k=2), "
        f"requested ({request_kind}, k={request_k})\n"
    )


def test_count_migrates_ctab_1_cache(capsys, tmp_path):
    path = tmp_path / "dfa-k2.ctab"
    save_table(build_table("dfa", 2, 8), path)
    expected = run(capsys, _count("dfa", 2, 5, "--format", "json"))
    assert run(capsys, _count("dfa", 2, 5, "--format", "json", "--cache-dir", str(tmp_path))) == expected
    assert path.read_text().startswith("ctab 2\n")
    # the migrated file serves the rest of the old wedge's diagonal
    assert run(capsys, _count("dfa", 2, 8, "--cache-dir", str(tmp_path))) == run(
        capsys, _count("dfa", 2, 8)
    )


@pytest.mark.parametrize(
    "argv",
    [
        _count("relaxed", 2, 1_000_000),
        _count("relaxed", 2, 1_000_000, "--cache-dir", "{tmp}"),
        ["asym", "ratio", "--k", "2", "--ns", "1000000", "--route", "exact"],
    ],
    ids=["count", "count-cached", "asym-ratio-exact"],
)
def test_oversized_requests_exit_2_at_once(run_python, tmp_path, argv):
    # a fresh process, as a user runs it; the timeout ends a run that
    # starts computing instead of refusing
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    started = time.perf_counter()
    proc = run_python("-m", "dagenum.cli", *argv, timeout=10)
    assert time.perf_counter() - started < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: byte-budget")


_FAR_I = "1000000000000"  # one upper-side row at this i has 63 billion points


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scope", "bounds-upper", "--k", "2", "--i-min", _FAR_I, "--i-max", _FAR_I],
        ["asym", "bounds", "--side", "upper", "--k", "2", "--i-min", _FAR_I, "--i-max", _FAR_I],
    ],
    ids=["verify-bounds-upper", "asym-bounds-upper"],
)
def test_oversized_sweeps_exit_2_under_a_memory_cap(run_python, argv):
    # always under a 1 GiB address-space cap: a sweep that allocates its
    # row instead of refusing it must fail here, not take the machine's memory
    script = (
        "import os, resource, sys\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from dagenum.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    started = time.perf_counter()
    proc = run_python("-c", script, timeout=10)
    assert time.perf_counter() - started < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: byte-budget: "), proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_warm_count_stays_small(capsys, run_python, tmp_path):
    argv = _count("relaxed", 2, 600, "--cache-dir", str(tmp_path))
    assert run(capsys, argv)[0] == 0
    # VmHWM, not ru_maxrss: a child started by vfork inherits the parent's
    # ru_maxrss, while VmHWM belongs to the child's own address space
    script = (
        "import contextlib, io\n"
        "from dagenum.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(code, hwm.split()[1])\n"
    )
    proc = run_python("-c", script)
    code, max_rss_kb = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert max_rss_kb < 50 * 1024


def test_count_prints_counts_over_4300_digits(run_python, tmp_path):
    # relaxed k = 3 passes CPython's default int -> str limit of 4,300 digits
    # at n = 757; a fresh interpreter starts with that limit
    script = (
        "import contextlib, io, json, sys\n"
        "from dagenum.cli import main\n"
        "from dagenum.tables import diagonal_sequence\n"
        "def count(*extra):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = main(['count', '--kind', 'relaxed', '--k', '3', '--n-max', '757', *extra])\n"
        "    return code, buf.getvalue()\n"
        "cache = ['--cache-dir', sys.argv[1]]\n"
        "runs = [count(), count(*cache), count(*cache)]\n"
        "runs += [count('--format', fmt, *cache) for fmt in ('csv', 'json')]\n"
        "plain = runs[0][1]\n"
        "top = diagonal_sequence('relaxed', 3, 757)[-1]\n"
        "print(json.dumps({\n"
        "    'codes': [code for code, _ in runs],\n"
        "    'digits': len(str(top)),\n"
        "    'last': plain.splitlines()[-1] == f'757,{top}',\n"
        "    'cached': runs[1][1] == runs[2][1] == plain,\n"
        "    'csv': runs[3][1] == 'n,count\\n' + plain,\n"
        "    'json': json.loads(runs[4][1])['counts'][-1] == [757, top],\n"
        "}))\n"
    )
    proc = run_python("-c", script, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "codes": [0] * 5, "digits": 4302, "last": True, "cached": True, "csv": True, "json": True,
    }


def test_count_bad_arity_exits_2(capsys):
    code, _, err = run(capsys, ["count", "--kind", "relaxed", "--k", "1", "--n-max", "3"])
    assert code == 2
    assert err.startswith("error:")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--kind", "nonsense", "--k", "2", "--n-max", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("dagenum ")


def test_verify_oracle_text(capsys):
    code, out, _ = run(capsys, ["verify", "--scope", "oracle", "--k", "2", "--n-max", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "PASS"
    assert "oracle: 4/4 matched" in lines


def test_verify_bijection_json(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--scope", "bijection", "--k", "3", "--n-max", "2", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["tree_round_trips"] == 1 + 1 + 7
    assert doc["path_round_trips"] == 1 + 1 + 7
    assert doc["failure_count"] == 0


def _both_loops(k, n_max):
    """The bijection report fields from an explicit round trip of every tree
    and every path, through the functions dagenum.bijection holds now."""
    from dagenum import bijection, paths, trees
    from dagenum.oracle import enumerate_relaxed

    def trip(there, back, x):
        try:
            return back(there(x)) == x
        except ValueError:
            return False

    f, g = bijection.tree_to_path, bijection.path_to_tree
    tree_trips = path_trips = 0
    failures = []
    for n in range(n_max + 1):
        for t in enumerate_relaxed(k, n, limit=n_max):
            tree_trips += 1
            if not trip(f, g, t):
                failures.append({"n": n, "tree": trees.to_document(t)})
        for p in paths.generate_paths(k, n, limit=n_max):
            path_trips += 1
            if not trip(g, f, p):
                failures.append({"n": n, "path": paths.to_document(p)})
    return {
        "tree_round_trips": tree_trips,
        "path_round_trips": path_trips,
        "failure_count": len(failures),
        "first_failure": failures[0] if failures else None,
    }


def _corrupted(which, x0, wrong):
    """A bijection function that returns wrong for x0 (raises ValueError if
    wrong is None) and is itself elsewhere."""
    from dagenum import bijection

    real = getattr(bijection, which)

    def fake(x):
        if x != x0:
            return real(x)
        if wrong is None:
            raise ValueError("corrupted")
        return wrong

    return fake


@pytest.mark.parametrize("which", ["tree_to_path", "path_to_tree"])
@pytest.mark.parametrize("raises", [False, True], ids=["wrong-result", "raises"])
def test_verify_bijection_reports_what_both_loops_find(capsys, monkeypatch, which, raises):
    from dagenum import bijection
    from dagenum.oracle import enumerate_relaxed

    t0, t1 = list(enumerate_relaxed(2, 3))[4:6]
    p0, p1 = bijection.tree_to_path(t0), bijection.tree_to_path(t1)
    if which == "tree_to_path":  # t0 -> p1, the path of another tree
        fake = _corrupted(which, t0, None if raises else p1)
    else:  # p0 -> t1, another tree
        fake = _corrupted(which, p0, None if raises else t1)
    monkeypatch.setattr(bijection, which, fake)
    want = _both_loops(2, 3)
    assert want["failure_count"] == 2  # t0's trip and p0's trip
    code, out, _ = run(capsys, ["verify", "--scope", "bijection", "--k", "2", "--n-max", "3", "--format", "json"])
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    assert {key: doc[key] for key in want} == json.loads(json.dumps(want))


def test_verify_bijection_converts_each_object_once(capsys, monkeypatch):
    from dagenum import bijection

    calls = {"tree_to_path": 0, "path_to_tree": 0}

    def counted(name, real):
        def call(x):
            calls[name] += 1
            return real(x)

        return call

    for name in calls:
        monkeypatch.setattr(bijection, name, counted(name, getattr(bijection, name)))
    code, out, _ = run(capsys, ["verify", "--scope", "bijection", "--k", "2", "--n-max", "3", "--format", "json"])
    doc = json.loads(out)
    assert code == 0 and doc["tree_round_trips"] == doc["path_round_trips"] == 1 + 1 + 3 + 16
    # every path is the image of a tree that made its trip: no path converts again
    assert calls == {"tree_to_path": 21, "path_to_tree": 21}


def test_verify_transform(capsys):
    code, out, _ = run(capsys, ["verify", "--scope", "transform", "--k", "2", "--n-max", "8"])
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_verify_p_ineq(capsys):
    code, out, _ = run(capsys, ["verify", "--scope", "p-ineq", "--k", "3", "--n-max", "3"])
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_verify_bounds_scope(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--scope", "bounds-lower", "--k", "3", "--i-max", "400",
         "--i0-limit", "300", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["first_verified_i0"] == 8
    assert doc["scope"] == "bounds-lower"


def test_verify_failure_exits_1(capsys):
    # an i0 limit of 1 is unsatisfiable for the upper side at k = 2
    code, out, _ = run(
        capsys,
        ["verify", "--scope", "bounds-upper", "--k", "2", "--i-max", "200", "--i0-limit", "1"],
    )
    assert code == 1
    assert out.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("scope", ["oracle", "bijection"])
def test_oversized_enumeration_exits_2_at_once(run_python, scope):
    # k = 2 up to n = 12 is 3.76e12 trees: a run that starts enumerating
    # them does not end, and the timeout fails it
    argv = ["verify", "--scope", scope, "--k", "2", "--n-max", "12"]
    started = time.perf_counter()
    proc = run_python("-m", "dagenum.cli", *argv, timeout=10)
    assert time.perf_counter() - started < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: too-large: ")


@pytest.mark.parametrize("k,largest", [(2, 7), (3, 5), (4, 4)])
@pytest.mark.parametrize("scope", ["oracle", "bijection"])
def test_enumeration_budget_edge(capsys, monkeypatch, scope, k, largest):
    # empty enumerators: only the projection decides, and nothing is built
    monkeypatch.setattr("dagenum.oracle.enumerate_relaxed", lambda *a, **kw: iter(()))
    monkeypatch.setattr("dagenum.paths.generate_paths", lambda *a, **kw: iter(()))
    argv = ["verify", "--scope", scope, "--k", str(k), "--n-max"]
    assert run(capsys, argv + [str(largest)])[0] != 2
    code, out, err = run(capsys, argv + [str(largest + 1)])
    assert (code, out) == (2, "")
    assert err.startswith("error: too-large: ") and "over the budget of 1000000" in err


def test_p_ineq_over_the_cap_checks_no_size(capsys, monkeypatch):
    from dagenum.asym import exact

    sizes = []
    check = exact.p_ratio_check
    monkeypatch.setattr(exact, "p_ratio_check", lambda k, n: sizes.append(n) or check(k, n))
    code, out, err = run(capsys, ["verify", "--scope", "p-ineq", "--k", "2", "--n-max", "40"])
    assert (code, out) == (2, "")
    assert err == "error: too-large: exact suffix counts capped at kn=60, got 62\n"
    assert sizes == [31]  # only the call that refuses; none of n = 1..30 is computed


@pytest.mark.parametrize(
    "scope", ["oracle", "bijection", "bounds-lower", "bounds-upper", "ratio", "p-ineq", "transform"]
)
def test_negative_n_max_exits_2_for_every_scope(capsys, scope):
    # p-ineq had no rows to check and ratio fell back to n = 1: both printed PASS
    code, out, err = run(capsys, ["verify", "--scope", scope, "--k", "2", "--n-max", "-4"])
    assert (code, out, err) == (2, "", "error: negative-size: -4\n")


@pytest.mark.parametrize("command", [["verify", "--scope", "bounds-upper"], ["asym", "bounds", "--side", "upper"]])
def test_infinite_eta_exits_2(capsys, command):
    # eta * j**4 is inf * 0 = NaN at j = 0, and a NaN cell never counts as a violation
    code, out, err = run(capsys, command + ["--k", "3", "--i-max", "200", "--eta", "inf"])
    assert (code, out) == (2, "")
    assert err == "error: eta-finite: inf is not finite\n"


def test_convert_round_trip_files(capsys, tmp_path, fixtures_dir):
    tree_file = fixtures_dir / "ternary7_tree.json"
    path_file = fixtures_dir / "ternary7_path.json"
    out_path = tmp_path / "path.json"
    code, _, _ = run(
        capsys,
        ["convert", "--direction", "tree-to-path", "--input", str(tree_file),
         "--output", str(out_path)],
    )
    assert code == 0
    assert out_path.read_bytes() == path_file.read_bytes()

    out_tree = tmp_path / "tree.json"
    code, _, _ = run(
        capsys,
        ["convert", "--direction", "path-to-tree", "--input", str(path_file),
         "--output", str(out_tree)],
    )
    assert code == 0
    assert out_tree.read_bytes() == tree_file.read_bytes()


def test_convert_stdin_stdout(capsys, monkeypatch, fixtures_dir):
    text = (fixtures_dir / "ternary7_tree.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, ["convert", "--direction", "tree-to-path", "--input", "-"])
    assert code == 0
    assert out == (fixtures_dir / "ternary7_path.json").read_text()


def test_convert_invalid_tree_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "k": 2, "sink": 1,
        "nodes": [{"label": 2, "children": [{"type": "spine", "target": 1}]}],
    }))
    code, _, err = run(capsys, ["convert", "--direction", "tree-to-path", "--input", str(bad)])
    assert code == 2
    assert err.startswith("invalid tree: arity")


def test_convert_validates_valid_input_once(capsys, monkeypatch, fixtures_dir):
    import dagenum.paths
    import dagenum.trees

    calls = {"tree": 0, "path": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dagenum.trees, "_walk", counted("tree", dagenum.trees._walk))
    monkeypatch.setattr(dagenum.paths, "_walk", counted("path", dagenum.paths._walk))
    for direction, name in (("tree-to-path", "tree"), ("path-to-tree", "path")):
        doc = str(fixtures_dir / f"ternary7_{name}.json")
        assert run(capsys, ["convert", "--direction", direction, "--input", doc])[0] == 0
    assert calls == {"tree": 1, "path": 1}


def test_convert_invalid_path_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for steps, err in (
        ([{"type": "U"}, {"type": "U"}], "invalid path: diagonal at step 1\n"),
        # stops at (1, 0), short of the diagonal point (1, 1)
        ([{"type": "U"}, {"type": "H", "cross": 1}], "invalid path: endpoint at step 2\n"),
    ):
        bad.write_text(json.dumps({"k": 2, "steps": steps}))
        argv = ["convert", "--direction", "path-to-tree", "--input", str(bad)]
        assert run(capsys, argv) == (2, "", err)


def test_convert_unparseable_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{{{{")
    code, _, err = run(capsys, ["convert", "--direction", "path-to-tree", "--input", str(bad)])
    assert code == 2
    assert err.startswith("error: path-format")


def test_convert_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys,
        ["convert", "--direction", "tree-to-path", "--input", str(tmp_path / "nope.json")],
    )
    assert code == 2
    assert err.startswith("error:")


def test_asym_ratio_csv(capsys):
    argv = ["asym", "ratio", "--k", "2", "--ns", "16,32,64"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,log_ratio,route"
    assert len(lines) == 4
    assert all(line.endswith(",exact") for line in lines[1:])
    assert run(capsys, argv)[1] == out


def test_asym_ratio_scaled_route(capsys):
    code, out, _ = run(
        capsys, ["asym", "ratio", "--k", "2", "--ns", "40,80", "--route", "scaled"]
    )
    assert code == 0
    assert all(line.endswith(",scaled") for line in out.splitlines()[1:])


def test_asym_bounds_csv(capsys):
    code, out, _ = run(
        capsys, ["asym", "bounds", "--side", "lower", "--k", "3", "--i-max", "400"]
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "side,k,eta,epsilon,i0,scanned_i_max,violations"
    fields = row.split(",")
    assert fields[0] == "lower" and fields[1] == "3"
    assert fields[4] == "8" and fields[5] == "400" and fields[6] == "6"


def test_asym_profile_csv(capsys):
    code, out, _ = run(capsys, ["asym", "profile", "--k", "2", "--i", "150"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i,j,d_scaled,airy_fit"
    assert len(lines) > 3
    assert all(line.split(",")[0] == "150" for line in lines[1:])
