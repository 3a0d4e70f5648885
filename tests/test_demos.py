"""Every script in demos/, and README's library tour, runs to completion
against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_readme_tour_runs():
    """README's first python block, the library tour, runs as pasted."""
    tour = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(tour, namespace)
    assert namespace["bipartite"].m == namespace["c5"].m + namespace["sr"].internal_x == 6
