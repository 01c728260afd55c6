"""Smoke test: every script under demos/ runs to completion."""
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=subprocess_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
