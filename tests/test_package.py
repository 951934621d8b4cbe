"""Package-wide guards: what each command imports, the lazily loaded
package names, and no `assert` statement in the package (`python -O` drops
them)."""

import ast
import json
import pathlib

import dagenum

# Runs main() on each argv in the JSON list sys.argv[1], stdout swallowed,
# then prints which of the modules named in the JSON list sys.argv[2] got
# loaded.  It must run in a fresh interpreter: the test process has numpy
# loaded.
_RUN_COMMANDS = """
import contextlib, io, json, sys
watched = json.loads(sys.argv[2])
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
    # the Fraction-only asym commands load dagenum.asym, but not numpy
    argvs = [
        ["verify", "--scope", "transform", "--k", "2", "--n-max", "5"],
        ["verify", "--scope", "p-ineq", "--k", "2", "--n-max", "3"],
        ["asym", "ratio", "--k", "2", "--ns", "32,64", "--route", "exact"],
    ]
    assert _loaded_after(run_python, argvs) == ["dagenum.asym"]


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
    # what a bare interpreter (site and sitecustomize included) already has
    proc = run_python("-c", "import json, sys; print(json.dumps(sorted(sys.modules)))")
    bare = set(json.loads(proc.stdout))
    for argv in (["--version"], ["count", "--kind", "dfa", "--k", "2", "--n-max", "20"]):
        assert set(_loaded_after(run_python, [argv], _UNUSED_BY_COUNT)) <= bare, argv


def test_asym_command_loads_numpy(run_python):
    argvs = [["asym", "bounds", "--side", "lower", "--k", "3", "--i-max", "20"]]
    assert _loaded_after(run_python, argvs) == ["numpy", "dagenum.asym"]


def test_all_names_resolve():
    for name in dagenum.__all__:
        assert getattr(dagenum, name) is not None, name
    namespace: dict = {}
    exec("from dagenum import *", namespace)
    assert set(dagenum.__all__) <= namespace.keys()
    assert namespace["verify_bounds"] is dagenum.asym.verify_bounds
    assert set(dagenum.__all__) <= set(dir(dagenum))


def test_no_bare_asserts_in_package():
    root = pathlib.Path(dagenum.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "use an explicit raise, which survives python -O"
