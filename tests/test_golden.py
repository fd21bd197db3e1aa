"""Golden reports: CLI runs at fixed seeds, pinned byte for byte.

Each case runs through ``cli.main`` in a scratch directory, and its stdout,
stderr, exit code and written files must equal the fixture under
``tests/golden/<case>/``.  So a refactor that moves any simulated number
fails here, even when every statistical bound still holds.

numpy promises no stable ``Generator`` stream across releases, so the
fixtures of the cases that draw (``simulate-*``) hold on the numpy version
named in ``tests/golden/NUMPY_VERSION`` only.  The other cases
(``fwer-bound-*``, ``mse-ratio-*``, ``classify-*`` and the error cases) draw
nothing, and hold on any numpy.  Rewrite them with::

    PYTHONPATH=src python tests/test_golden.py

which takes no arguments.  It writes every case into a sibling directory
first and swaps that in only when all of them have run, so a run that
stops early leaves the fixtures as they were.  It then prints the cases
whose bytes changed, and any it added or removed: name them in CHANGES.md,
and say why they moved.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from twostage import cli
from twostage.asymptotics import MSE_RATIO_PRESETS

GOLDEN = Path(__file__).resolve().parent / "golden"
# The cases whose reports come from numpy's random streams.
DRAWING = ("simulate-",)
USAGE = "usage: PYTHONPATH=src python tests/test_golden.py  (no arguments: rewrites every fixture)"

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
    for preset in MSE_RATIO_PRESETS:
        cases[f"mse-ratio-{preset}"] = (["mse-ratio", "--preset", preset, "--seed", "2", "--out", "ratio.csv"], {})
    classify = {
        "benchmark": ["n^-0.6", "n^-0.6", "1", "0.8"],
        "interior": ["1.075n^-0.5", "1.075n^-0.5", "2.5", "1"],
        "unreachable": ["n^-1", "n^-1", "2.5", "1.2"],  # delta > 1: A = inf, so region zero
    }
    for name, (gamma, beta, c, delta) in classify.items():
        cases[f"classify-{name}"] = (["classify", "--gamma", gamma, "--beta", beta, "--c", c, "--delta", delta], {})
    cases["error-exit-3-missing-config"] = (["simulate", "--config", "missing.json"], {})
    cases["error-exit-5-plain-mse"] = (
        ["mse-ratio", "--preset", "k-4over3", "--reps", "100", "--seed", "1", "--n-grid", f"100,1000,{10**300}"], {}
    )
    # Nested-schema errors: exit 2, with the dotted path of the fault.
    row = {"proportion": 1.0}
    for name, scenario in {
        "terms-pair": {"rows": [dict(row, gamma={"terms": [[1]]})]},
        "terms-list": {"rows": [dict(row, gamma={"terms": 5})]},
        "assignment": {"rows": [row], "assignment": ["foo"]},
        "inline-size": {"rows": [row], "m": 30},
    }.items():
        cases[f"error-exit-2-{name}"] = (["simulate", "--config", "config.json"], {"config.json": {"scenario": scenario, "seed": 1}})
    cases["error-exit-2-rule-needs-c"] = (
        ["fwer-bound", "--scenario", "config2", "--seed", "1", "--rule", '{"kind": "product", "delta": 0.9}'], {}
    )
    cases["error-exit-2-method-id"] = (
        ["simulate", "--scenario", "config1", "--seed", "1", "--methods", '[{"rule": "minp", "id": "a,b"}]'], {}
    )
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
            code = cli.main(argv)
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
    recorded = (GOLDEN / "NUMPY_VERSION").read_text().strip()
    if name.startswith(DRAWING) and np.__version__ != recorded:
        pytest.fail(f"the golden reports were written with numpy {recorded}, and this is numpy {np.__version__}")
    want = {path.name: path.read_bytes() for path in sorted((GOLDEN / name).iterdir())}
    got = run_case(name, tmp_path)
    assert sorted(got) == sorted(want)
    for file_name in want:
        assert got[file_name] == want[file_name], f"{name}: {file_name} differs from the golden copy"


def _tree(root: Path) -> dict:
    """Every file under ``root``, as relative path -> bytes."""
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def _moved(old: Path, new: Path) -> dict:
    """The cases (and ``NUMPY_VERSION``) whose bytes differ between two fixture trees, by how they moved."""
    before, after = {}, {}
    for tree, root in ((before, old), (after, new)):
        for path, data in _tree(root).items():
            tree.setdefault(path.parts[0], {})[path] = data
    return {
        "changed": sorted(name for name in before.keys() & after.keys() if before[name] != after[name]),
        "added": sorted(after.keys() - before.keys()),
        "removed": sorted(before.keys() - after.keys()),
    }


def rewrite() -> None:
    """Run every case into a sibling directory, then swap it in for the fixtures and name what moved."""
    fresh, old = (GOLDEN.with_name(f"{GOLDEN.name}.{suffix}") for suffix in ("new", "old"))
    for path in (fresh, old):
        shutil.rmtree(path, ignore_errors=True)
    fresh.mkdir()
    (fresh / "NUMPY_VERSION").write_text(np.__version__ + "\n")
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            result = run_case(name, Path(tmp))
        (fresh / name).mkdir()
        for file_name, content in result.items():
            (fresh / name / file_name).write_bytes(content)
    moved = _moved(GOLDEN, fresh)
    GOLDEN.rename(old)
    fresh.rename(GOLDEN)
    shutil.rmtree(old)
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
    for how, names in moved.items():
        if names:
            print(f"{how}: {', '.join(names)}")


def main(argv: list[str]) -> int:
    """Rewrite the fixtures; refuse any argument before touching them."""
    if argv:
        print(USAGE, file=sys.stderr)
        return 2
    rewrite()
    return 0


def _golden_copy(tmp_path: Path, monkeypatch) -> Path:
    """A copy of the fixtures under ``tmp_path``, which ``GOLDEN`` then names."""
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", copy)
    return copy


def test_script_refuses_arguments(tmp_path, monkeypatch, capsys):
    copy = _golden_copy(tmp_path, monkeypatch)
    before = _tree(copy)
    assert main(["--help"]) == 2
    assert capsys.readouterr().err == USAGE + "\n"
    assert _tree(copy) == before
    assert [path.name for path in tmp_path.iterdir()] == ["golden"]


def test_rewrite_swaps_in_the_new_fixtures(tmp_path, monkeypatch, capsys):
    kept = {name: CASES[name] for name in ("classify-benchmark", "error-exit-3-missing-config")}
    copy = _golden_copy(tmp_path, monkeypatch)
    want = {path: data for path, data in _tree(copy).items() if path.parts[0] in {*kept, "NUMPY_VERSION"}}
    # A new case that reruns classify-benchmark under another name.
    again = {Path("classify-again", p.name): data for p, data in want.items() if p.parts[0] == "classify-benchmark"}
    want.update(again)
    dropped = sorted(path.name for path in copy.iterdir() if path.name not in {*kept, "NUMPY_VERSION"})
    (copy / "stale-case").mkdir()
    (copy / "stale-case" / "stdout").write_bytes(b"stale\n")
    (copy / "classify-benchmark" / "stdout").write_bytes(b"stale\n")
    monkeypatch.setattr(sys.modules[__name__], "CASES", {**kept, "classify-again": kept["classify-benchmark"]})
    assert main([]) == 0
    assert _tree(copy) == want
    assert [path.name for path in tmp_path.iterdir()] == ["golden"]
    assert capsys.readouterr().out.splitlines() == [
        f"wrote 3 cases to {copy}",
        "changed: classify-benchmark",
        "added: classify-again",
        f"removed: {', '.join(sorted([*dropped, 'stale-case']))}",
    ]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
