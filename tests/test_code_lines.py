import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a string
    that is not a docstring"""

    def f(self,
          y):
        """Function docstring."""
        return (y +
                1)
'''


def test_counts_code_lines_without_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, class, x's two lines, def's two lines, return's two lines
    assert code_lines.code_lines(path) == 8


def test_prints_one_row_per_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "8"], ["b.py", "1"], ["total", "9"]]
