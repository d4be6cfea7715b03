"""Byte-exact CLI golden corpus.

Each command below runs through ``cli.main`` on ``--random`` pairs and
its stdout must equal the file recorded in ``tests/golden/``; the large
structured ``verify`` record is stored as a sha256 of its bytes.  A
change that moves an output bit on purpose re-records the corpus with

    PYTHONPATH=src python3 tests/test_golden_cli.py

and shows the differences it accepts.
"""
import contextlib
import hashlib
import io
import pathlib
import sys

import pytest

from chaosdet.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

COMMANDS = {
    "report-d5-mc": "report --random --dim 5 --n 4 --m 4 --seed 3 --trials 20000",
    "report-d3-csv": "report --random --dim 3 --n 3 --m 3 --seed 5 --format csv",
    "report-d6-past-guard": "report --random --dim 6 --n 4 --m 4 --seed 1 --trials 3000",
    "report-d6-unsafe": "report --random --dim 6 --n 3 --m 3 --seed 2 --unsafe",
    "report-d2-mixed": "report --random --dim 2 --n 2 --m 3 --seed 4",
    "mc-d6-2w": "mc --random --dim 6 --n 4 --m 4 --seed 6 --trials 20000 --workers 2",
    "density-d3": "density --random --dim 3 --n 3 --m 3 --seed 8",
    "verify-text": "verify --seeds 1 --seed 77",
    "verify-structured": "verify --seeds 2 --format structured",
}
HASHED = {"verify-structured"}


def run(argv: str) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv.split())
    return code, buf.getvalue().encode()


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN / (f"{name}.sha256" if name in HASHED else f"{name}.out")


def stored(name: str, out: bytes) -> bytes:
    return hashlib.sha256(out).hexdigest().encode() + b"\n" if name in HASHED else out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name):
    code, out = run(COMMANDS[name])
    assert code == 0
    assert stored(name, out) == golden_path(name).read_bytes()


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        code, out = run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        golden_path(name).write_bytes(stored(name, out))


if __name__ == "__main__":
    record()
