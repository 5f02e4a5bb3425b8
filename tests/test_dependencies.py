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


def declared_packages(*extras: str) -> set[str]:
    """The import names of pyproject's dependencies and of its extras."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + [
        spec for extra in extras
        for spec in project["optional-dependencies"][extra]]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
            .replace("-", "_") for spec in specs}


def test_every_third_party_import_is_a_declared_dependency():
    third_party = imported_packages(ROOT / "src" / "lyapcert") \
        - set(sys.stdlib_module_names) - {"lyapcert"}
    assert third_party == declared_packages()


@pytest.mark.parametrize("directory", ["tests", "perfbench"])
def test_every_test_and_benchmark_import_is_declared(directory):
    # a clean `pip install -e ".[test]"` must be enough to collect and run
    # both directories; each imports its own modules by their bare names
    source = ROOT / directory
    third_party = imported_packages(source) - set(sys.stdlib_module_names) \
        - {"lyapcert"} - {path.stem for path in source.glob("*.py")}
    assert third_party <= declared_packages("test")
