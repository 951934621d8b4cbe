"""The rendered bytes of the command line, pinned.

tests/fixtures/cli_golden.json holds the exit code, stdout and stderr of
every `verify` scope in text and json, of `asym ratio|bounds|profile` and of
`count` in each format, at small sizes.  Each command runs in this process
through `main`, so the whole list takes a few seconds.

    PYTHONPATH=src python3 tests/test_cli_golden.py

rewrites the fixture from the checkout's src/; do that only for an output
change that is meant, and say so where the change is recorded.
"""

import contextlib
import functools
import io
import json
import pathlib

import pytest

from dagenum.cli import CACHE_ENV, main

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "cli_golden.json"


def _verify(scope, k, *rest):
    return ["verify", "--scope", scope, "--k", str(k), *rest]


COMMANDS = [
    *(["count", "--kind", kind, "--k", "2", "--n-max", "6", "--format", fmt]
      for kind, fmt in (("relaxed", "plain"), ("compacted", "csv"), ("dfa", "json"))),
    _verify("oracle", 2, "--n-max", "3"),
    _verify("oracle", 2, "--n-max", "3", "--format", "json"),
    _verify("oracle", 4),
    _verify("oracle", 2, "--n-max", "0"),
    _verify("oracle", 1),
    _verify("bijection", 2, "--n-max", "3"),
    _verify("bijection", 2, "--n-max", "3", "--format", "json"),
    _verify("bijection", 4, "--format", "json"),
    _verify("bijection", 2, "--n-max", "-1"),
    _verify("bijection", 1),
    _verify("transform", 2, "--n-max", "6"),
    _verify("transform", 3, "--n-max", "4", "--format", "json"),
    _verify("transform", 2, "--n-max", "40"),
    _verify("p-ineq", 2, "--n-max", "4"),
    _verify("p-ineq", 3, "--n-max", "3", "--format", "json"),
    _verify("p-ineq", 30, "--n-max", "3"),
    _verify("p-ineq", 2, "--n-max", "-4"),
    _verify("ratio", 2, "--n-max", "60"),
    _verify("ratio", 2, "--n-max", "60", "--format", "json"),
    _verify("ratio", 3, "--n-max", "10"),
    _verify("ratio", 2, "--n-max", "-5"),
    _verify("bounds-lower", 3, "--i-max", "60"),
    _verify("bounds-lower", 3, "--i-max", "60", "--format", "json"),
    _verify("bounds-upper", 2, "--i-max", "120", "--i0-limit", "1"),
    _verify("bounds-upper", 2, "--i-max", "120", "--i0-limit", "1", "--format", "json"),
    _verify("bounds-upper", 4, "--i-max", "60", "--eta", "2.5", "--epsilon", "0.2"),
    _verify("bounds-upper", 3, "--i-max", "40", "--eta", "inf"),
    ["asym", "ratio", "--k", "2", "--ns", "32,64", "--route", "exact"],
    ["asym", "ratio", "--k", "3", "--ns", "40", "--route", "scaled"],
    ["asym", "ratio", "--kind", "compacted", "--k", "2", "--ns", "16,8"],
    ["asym", "ratio", "--k", "2", "--ns", "x"],
    ["asym", "bounds", "--side", "lower", "--k", "3", "--i-max", "60"],
    ["asym", "bounds", "--side", "upper", "--k", "2", "--i-min", "10", "--i-max", "80"],
    ["asym", "bounds", "--side", "upper", "--k", "2", "--i-min", "50", "--i-max", "40"],
    ["asym", "profile", "--k", "2", "--i", "100", "--j-limit", "5"],
    ["asym", "profile", "--k", "3", "--i", "120"],
]


def run_command(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_command_list():
    assert [entry["argv"] for entry in _golden()] == COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=[" ".join(argv) for argv in COMMANDS])
def test_output_matches_golden(index, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert run_command(COMMANDS[index]) == _golden()[index]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run_command(argv) for argv in COMMANDS], indent=1) + "\n")
