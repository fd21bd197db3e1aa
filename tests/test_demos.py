import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def _repo_files() -> dict:
    """Every file under the checkout but .git, with its size and modification time."""
    files = {}
    for root, dirs, names in os.walk(REPO):
        dirs[:] = [d for d in dirs if d != ".git"]
        for name in names:
            stat = os.stat(os.path.join(root, name))
            files[os.path.join(root, name)] = (stat.st_size, stat.st_mtime_ns)
    return files


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs_and_writes_only_to_its_cwd(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    before = _repo_files()
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout and "Traceback" not in run.stderr
    assert _repo_files() == before
