"""Every report byte of a fixed matrix of CLI runs, pinned.

Each run's exit code, stdout and stderr are hashed with SHA-256 and compared
with ``tests/report_bytes.json``. The pin records the Python and numpy
versions it was made with; under other versions the floats may round
differently, so the test skips there. After an intended change of report
bytes, regenerate the pin with

    PYTHONPATH=src python tests/test_report_bytes.py

and record the change in CHANGES.md.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import fixture_path
from qsodyn.cli import main

PIN = Path(__file__).resolve().parent / "report_bytes.json"
FIXTURES = {
    "attracting_not_unique": "0.2,0.3,0.5",
    "unique_not_contractive_s2": "0.2,0.3,0.5",
    "uniqueness_sufficiency_gap": "0.2,0.3,0.5",
    "va_a0": "0.3,0.7",
    "va_a05": "0.3,0.7",
    "va_a23": "0.3,0.7",
}
PER_FIXTURE = (
    ["validate"],
    ["validate", "--seed", "3"],
    ["classify"],
    ["classify", "--seed", "7", "--symmetrize"],
    ["fixed-points"],
    ["iterate", "--x", "{x}"],
    ["iterate", "--x", "{x}", "--steps", "7"],
    ["markov", "--x", "{x}", "--horizon", "12"],
    ["mixing", "--x", "{x}", "--A", "0:1", "--B", "0:1", "--m-max", "20"],
)
ABSCONT = ["abscont", "--a", "0.5", "--x", "0.3,0.7", "--y", "0.6,0.4"]
DIVERGING = ["abscont", "--a", "0.5", "--x", "0.9,0.1", "--y", "0.1,0.9"]


def runs() -> dict:
    """Run name -> argument list; names use fixture names, never paths."""
    table = {}
    for name, x in FIXTURES.items():
        for template in PER_FIXTURE:
            args = [a.format(x=x) for a in template]
            table[" ".join([args[0], name, *args[1:]])] = [
                args[0], "--spec", fixture_path(name), *args[1:]
            ]
    for args in (
        ABSCONT,
        [*ABSCONT, "--format", "csv"],
        [*ABSCONT, "--a2", "0.6"],
        DIVERGING,  # prints bare Infinity terms, pinned as they are
        [*DIVERGING, "--format", "csv"],
    ):
        table[" ".join(args)] = args
    return table


def digest(args: list) -> dict:
    result = CliRunner().invoke(main, args)
    return {
        "exit_code": result.exit_code,
        "stdout_sha256": hashlib.sha256(result.stdout_bytes).hexdigest(),
        "stderr_sha256": hashlib.sha256(result.stderr_bytes).hexdigest(),
    }


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _pin() -> dict:
    return json.loads(PIN.read_text())


def test_pin_covers_the_matrix():
    assert len(runs()) == 59
    assert sorted(_pin()["runs"]) == sorted(runs())


@pytest.mark.parametrize("name", sorted(runs()))
def test_report_bytes(name):
    pin = _pin()
    if pin["versions"] != versions():
        pytest.skip(f"pinned under {pin['versions']}, running under {versions()}")
    assert digest(runs()[name]) == pin["runs"][name]


if __name__ == "__main__":
    table = {name: digest(args) for name, args in sorted(runs().items())}
    PIN.write_text(json.dumps({"versions": versions(), "runs": table}, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(table)} runs to {PIN}")
