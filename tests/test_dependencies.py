import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_packages(source: Path) -> set[str]:
    """The top-level names of the absolute imports under source."""
    names = set()
    for path in source.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                .replace("-", "_") for spec in project["dependencies"]}
    third_party = imported_packages(ROOT / "src" / "lyapcert") \
        - set(sys.stdlib_module_names) - {"lyapcert"}
    assert third_party == declared
