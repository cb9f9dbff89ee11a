"""The demos and the README's library quick start run end to end and leave
nothing behind in the working directory.

Demo 05 (the full chi = -1 census report, minutes) is left out.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", [
    "01_admissible_types.py",
    "02_enumerate_census.py",
    "03_symmetry_analysis.py",
    "04_transforms.py",
    "06_files_and_checkpoints.py",
])
def test_demo_runs_clean(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], cwd=tmp_path, capture_output=True,
        text=True, env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_readme_quick_start_runs_clean(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    # the 18 admissible rows, then one line for each of the 3 maps
    assert len(proc.stdout.splitlines()) == 18 + 3
    assert list(tmp_path.iterdir()) == []
