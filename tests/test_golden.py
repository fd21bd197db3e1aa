"""Golden reports: CLI runs at fixed seeds, pinned byte for byte.

Each case runs through ``cli.main`` in a scratch directory, and its stdout,
stderr, exit code and written files must equal the fixture under
``tests/golden/<case>/``.  So a refactor that moves any simulated number
fails here, even when every statistical bound still holds.

numpy promises no stable ``Generator`` stream across releases, so the
fixtures hold on the numpy version named in ``tests/golden/NUMPY_VERSION``
only.  Rewrite them with::

    PYTHONPATH=src python tests/test_golden.py

and name in CHANGES.md which cases moved and why.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from twostage.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
VERSION_FILE = GOLDEN / "NUMPY_VERSION"

_INLINE_AWARE = {
    "scenario": "config2",
    "seed": 5,
    "methods": [
        "nofilter",
        {
            "rule": {"kind": "minp", "threshold": 0.0004},
            "adjustment": {"kind": "filtration_aware", "p0": 0.00079984},
            "id": "minp-aware",
        },
        {"rule": "prod-0.9", "adjustment": {"kind": "filtration_aware", "p0": 0.25}},
    ],
    "out": "report.csv",
}


def _cases() -> dict:
    """Case name -> (argv, input files written before the run)."""
    cases = {}
    for i, scenario in enumerate(("config1", "config2", "config3", "hierarchical")):
        argv = ["simulate", "--scenario", scenario, "--seed", str(10 + i), "--out", "report.csv"]
        cases[f"simulate-{scenario}-csv"] = (argv, {})
    cases["simulate-config2-json"] = (
        ["simulate", "--scenario", "config2", "--seed", "20", "--format", "json", "--out", "report.json"], {}
    )
    cases["simulate-config3-svg"] = (
        ["simulate", "--scenario", "config3", "--seed", "21", "--threads", "4", "--out", "report.csv",
         "--svg", "chart.svg"], {}
    )
    cases["simulate-inline-aware"] = (["simulate", "--config", "config.json"], {"config.json": _INLINE_AWARE})
    for scenario in ("config2", "hierarchical"):
        for rule in ("nofilter", "minp", "chisq2", "prod-0.9"):
            argv = ["fwer-bound", "--scenario", scenario, "--rule", rule, "--seed", "30", "--out", "bound.json"]
            cases[f"fwer-bound-{scenario}-{rule}"] = (argv, {})
    cases["mse-ratio-k-4over3"] = (["mse-ratio", "--preset", "k-4over3", "--seed", "2", "--out", "ratio.csv"], {})
    return cases


CASES = _cases()


def run_case(name: str, workdir: Path) -> dict:
    """Run one case in ``workdir``; return its result and written files as name -> bytes."""
    argv, inputs = CASES[name]
    for file_name, content in inputs.items():
        (workdir / file_name).write_text(json.dumps(content))
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    result = {
        "stdout": stdout.getvalue().encode(),
        "stderr": stderr.getvalue().encode(),
        "exit_code": f"{code}\n".encode(),
    }
    for path in sorted(workdir.iterdir()):
        if path.name not in inputs:
            result[path.name] = path.read_bytes()
    return result


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    recorded = VERSION_FILE.read_text().strip()
    if np.__version__ != recorded:
        pytest.fail(f"the golden reports were written with numpy {recorded}, and this is numpy {np.__version__}")
    want = {path.name: path.read_bytes() for path in sorted((GOLDEN / name).iterdir())}
    got = run_case(name, tmp_path)
    assert sorted(got) == sorted(want)
    for file_name in want:
        assert got[file_name] == want[file_name], f"{name}: {file_name} differs from the golden copy"


def rewrite() -> None:
    """Run every case and replace the fixtures with what it writes."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    VERSION_FILE.write_text(np.__version__ + "\n")
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            result = run_case(name, Path(tmp))
        (GOLDEN / name).mkdir()
        for file_name, content in result.items():
            (GOLDEN / name / file_name).write_bytes(content)
        print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    rewrite()
