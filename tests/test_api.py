"""The public surface: what `gzcut` exports, and what its users import.

The demos and the README quickstart are parsed, not run.
"""

import ast
import re
import types
from pathlib import Path

import pytest

import gzcut
from gzcut import canonical, flags, linalg, orbits, spectra

ROOT = Path(__file__).resolve().parents[1]


def _imported_from_gzcut(source: str) -> set:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "gzcut"
        for alias in node.names
    }


def _readme_quickstart() -> str:
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README has no python example"
    return "\n".join(blocks)


def test_package_exports_exactly_the_module_all_lists():
    declared = set()
    for mod in (linalg, spectra, flags, orbits, canonical):
        assert len(set(mod.__all__)) == len(mod.__all__), mod.__name__
        declared |= set(mod.__all__)
    exported = {
        name
        for name, value in vars(gzcut).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == declared


@pytest.mark.parametrize(
    "name", sorted(p.name for p in (ROOT / "demos").glob("*.py")) + ["README.md"]
)
def test_user_imports_exist(name):
    source = _readme_quickstart() if name == "README.md" else (ROOT / "demos" / name).read_text()
    names = _imported_from_gzcut(source)
    assert names, f"{name} imports nothing from gzcut"
    missing = sorted(n for n in names if not hasattr(gzcut, n))
    assert missing == []
