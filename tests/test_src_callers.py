"""src/ holds no code that only tests call.

Every function and class that src/lyapcert defines must be named
somewhere in src/lyapcert, as a name or as an attribute.  A name that only
tests (or nothing) call fails here, unless it is on NOT_CALLED_IN_SRC with
the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lyapcert"

NOT_CALLED_IN_SRC = {
    # argparse calls _Parser.error
    "error",
    # the polar-form tensor, which the benchmark's tracer still patches
    "to_tensor", "eval", "diagonal_polynomial",
}


def defined_and_used(root: Path) -> tuple[set[str], set[str]]:
    """The non-dunder def and class names under root, and every Name id
    and Attribute attr."""
    defined, used = set(), set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_definition_in_src_has_a_caller_in_src():
    defined, used = defined_and_used(SRC)
    assert defined - used == NOT_CALLED_IN_SRC

