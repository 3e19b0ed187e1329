import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    done = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_quick_tour_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick tour\n\n```python\n", 1)[1].split("```", 1)[0]
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", block],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "36" in done.stdout.splitlines()
