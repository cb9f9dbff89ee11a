"""The demos run end to end and leave nothing behind in the working directory.

Demo 05 (the full chi = -1 census report, minutes) is left out.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
