"""Package-wide guards: what each command imports, what importing the two
packages imports, the names the benchmark looks up, the arity and size
refusals every entry point shares, and no `assert` statement in the package
(`python -O` drops them)."""

import argparse
import ast
import importlib
import importlib.util
import json
import pathlib
import re

import pytest

import dagenum
from dagenum.asym.bounds import BoundParams, min_eta, s_factor
from dagenum.asym.exact import exact_transform_diagonal, p_ratio_check
from dagenum.asym.predict import predictor_log
from dagenum.asym.scaled import build_scaled_table, profile_check
from dagenum.cli import cmd_verify
from dagenum.oracle import enumerate_relaxed
from dagenum.paths import generate_paths
from dagenum.tables import build_table, diagonal_sequence

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# Forgets the modules named in the JSON list sys.argv[2], which site may
# have loaded, before it imports dagenum; then runs main() on each argv in
# the JSON list sys.argv[1], stdout swallowed, and prints which of them got
# imported again.  It must run in a fresh interpreter: the test process has
# numpy loaded.
_RUN_COMMANDS = """
import contextlib, io, json, sys
watched = json.loads(sys.argv[2])
for name in watched:
    sys.modules.pop(name, None)
from dagenum.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # --version exits from argparse
            code = exc.code
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
print(json.dumps([m for m in watched if m in sys.modules]))
"""


def _loaded_after(run_python, argvs: list[list[str]], watched=("numpy", "dagenum.asym")) -> list[str]:
    proc = run_python("-c", _RUN_COMMANDS, json.dumps(argvs), json.dumps(watched))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_commands_do_not_load_numpy(run_python, fixtures_dir, tmp_path):
    argvs = [
        ["--version"],
        ["count", "--kind", "dfa", "--k", "2", "--n-max", "20"],
        ["count", "--kind", "relaxed", "--k", "3", "--n-max", "8",
         "--cache-dir", str(tmp_path / "cache")],
        ["convert", "--direction", "tree-to-path",
         "--input", str(fixtures_dir / "ternary7_tree.json")],
        ["verify", "--scope", "oracle", "--k", "2", "--n-max", "3"],
        ["verify", "--scope", "bijection", "--k", "2", "--n-max", "3"],
    ]
    assert _loaded_after(run_python, argvs) == []
    # the exact asym commands load dagenum.asym, but not numpy, not fractions
    # (they run on integers) and not dataclasses (with its inspect, ast, dis
    # and tokenize)
    argvs = [
        ["verify", "--scope", "transform", "--k", "2", "--n-max", "5"],
        ["verify", "--scope", "p-ineq", "--k", "2", "--n-max", "3"],
        ["asym", "ratio", "--k", "2", "--ns", "32,64", "--route", "exact"],
    ]
    watched = ("numpy", "dagenum.asym", "dataclasses", "fractions")
    assert _loaded_after(run_python, argvs, watched) == ["dagenum.asym"]


# modules a `count` or `--version` has no use for
_UNUSED_BY_COUNT = [
    "dagenum.trees",
    "dagenum.paths",
    "dagenum.bijection",
    "dagenum.oracle",
    "dagenum.asym",
    "hashlib",
    "dataclasses",
]


def test_count_and_version_load_no_unused_module(run_python):
    for argv in (["--version"], ["count", "--kind", "dfa", "--k", "2", "--n-max", "20"]):
        assert _loaded_after(run_python, [argv], _UNUSED_BY_COUNT) == [], argv


def test_cached_count_imports_no_codec_module(run_python, tmp_path):
    # ctab 4 converts its integers with int.to_bytes and int.from_bytes alone
    cache = ["--cache-dir", str(tmp_path)]
    argvs = [["count", "--kind", "relaxed", "--k", "3", "--n-max", n, *cache] for n in ("8", "12", "12")]
    watched = ["struct", "zlib", "base64", "binascii", "array", "pickle"]
    assert _loaded_after(run_python, argvs, watched) == []
    assert (tmp_path / "relaxed-k3.ctab").read_bytes().startswith(b"ctab 4\n")


def test_asym_command_loads_numpy(run_python):
    argvs = [["asym", "bounds", "--side", "lower", "--k", "3", "--i-max", "20"]]
    assert _loaded_after(run_python, argvs) == ["numpy", "dagenum.asym"]


# Forgets numpy, which site may have loaded, then imports both packages and
# prints every dagenum submodule and numpy that got loaded.
_IMPORT_PACKAGES = """
import json, sys
sys.modules.pop("numpy", None)
import dagenum, dagenum.asym
print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("dagenum."))))
"""


def test_packages_import_no_submodule(run_python):
    """Names are imported from their modules: `import dagenum` and
    `import dagenum.asym` load no other module of the package, and no numpy."""
    proc = run_python("-c", _IMPORT_PACKAGES)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["dagenum.asym"]


def test_bench_seams_resolve():
    """bench/ reaches into the package by name: spans.py wraps functions and
    unpacks their arguments, layers.py calls functions and tables names."""
    from dagenum import tables
    from dagenum.asym import bounds

    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
        bounds.verify_bounds("upper", 3, 1.05 * bounds.min_eta(3), 0.1, (2, 30))
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    # spans reads (side, params, p_exp, quartic, lo, hi) positionally and
    # counts ceil(i^p_exp) cells per row: sum of ceil(i^0.9) for i = 2..30
    assert summary["bounds._scan_block.upper"]["cells"] == 362

    source = (BENCH / "layers.py").read_text()
    functions = re.findall(r'_fn\("([\w.]+)", "(\w+)"\)', source)
    attributes = re.findall(r'(?<![\w."])(tables?)\.(\w+)', source)
    assert functions and attributes
    for module, name in functions:
        assert hasattr(importlib.import_module(module), name), (module, name)
    for owner, name in attributes:
        assert hasattr(tables if owner == "tables" else tables.CountTable, name), (owner, name)


def test_no_bare_asserts_in_package():
    root = pathlib.Path(dagenum.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "use an explicit raise, which survives python -O"


def _verify(k, n_max):
    return cmd_verify(argparse.Namespace(scope="transform", k=k, n_max=n_max, format="text"))


# name -> (call(k, n), whether n is a size the call refuses below 0) for
# every entry point that needs arity k >= 2.  The others take no size, or
# refuse small ones with their own out-of-range.  Each refusal is raised by
# tables._check_arity or tables._check_size.
_GUARDED = {
    "diagonal_sequence": (lambda k, n: diagonal_sequence("relaxed", k, n), True),
    "build_table": (lambda k, n: build_table("dfa", k, n), True),
    "exact_transform_diagonal": (exact_transform_diagonal, True),
    "p_ratio_check": (lambda k, n: p_ratio_check(k, 2), False),
    "build_scaled_table": (build_scaled_table, True),
    "profile_check": (profile_check, True),
    "generate_paths": (generate_paths, True),
    "enumerate_relaxed": (lambda k, n: next(enumerate_relaxed(k, n)), True),
    "min_eta": (lambda k, n: min_eta(k), False),
    "BoundParams": (lambda k, n: BoundParams(k, 1.0, 0.1), False),
    "s_factor": (lambda k, n: s_factor("upper", k, 5), False),
    "predictor_log": (lambda k, n: predictor_log(k, 5), False),
    "cmd_verify": (_verify, True),
}
# The arity is refused before the size is read, so the arity cases pass
# n = None, which cmd_verify reads as "the default --n-max".
_REFUSALS = [(name, 1, None, "arity-k: 1") for name in _GUARDED] + [
    (name, 2, -1, "negative-size: -1") for name, (_, sized) in _GUARDED.items() if sized
]


@pytest.mark.parametrize(
    "name,k,n,message", _REFUSALS, ids=[f"{case[0]}-{case[3].split(':')[0]}" for case in _REFUSALS]
)
def test_arity_and_size_refusals(name, k, n, message):
    with pytest.raises(ValueError) as err:
        _GUARDED[name][0](k, n)
    assert str(err.value) == message
