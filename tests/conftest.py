import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# one line per acceptance criterion, echoed uncaptured at the end of the run
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, name: str, ok: bool) -> bool:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def run_python():
    """Run `python <args>` in a fresh interpreter that imports dagenum from
    this checkout's src/."""

    def run(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
        path = [str(SRC), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
        )

    return run


@pytest.fixture
def cache_writes(monkeypatch):
    """The path of every .ctab file written from here on, in order."""
    from dagenum import tables

    written = []
    real_write = tables._write_ctab

    def write(path, *args):
        written.append(pathlib.Path(path))
        real_write(path, *args)

    monkeypatch.setattr(tables, "_write_ctab", write)
    return written


@pytest.fixture(scope="session")
def resign():
    """resign(path, edit) applies edit to the body bytes of a .ctab file and
    signs it again, so that only the structural checks can catch the change."""

    def resign(path: pathlib.Path, edit) -> None:
        *head, _, body = path.read_bytes().split(b"\n", 5)
        body = edit(body)
        checksum = b"checksum " + hashlib.sha256(body).hexdigest().encode("ascii")
        path.write_bytes(b"\n".join([*head, checksum, body]))

    return resign


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
