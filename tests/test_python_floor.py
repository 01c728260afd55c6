"""Every module parses under the oldest Python that pyproject.toml declares."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_parses_at_the_declared_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python\s*=\s*">=\s*3\.(\d+)"', pyproject, re.MULTILINE)
    assert floor, "pyproject.toml declares no requires-python floor"
    modules = [*(ROOT / "src" / "born_kernel").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    for path in sorted(modules):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, int(floor[1])))
