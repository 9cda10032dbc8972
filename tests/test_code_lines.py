"""scripts/code_lines.py counts code lines the documented way."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment does not hide code

# a comment line


def f(x):
    """A function docstring."""
    text = """a multi-line string
that is not a docstring"""
    return x, text


class C:
    """A class docstring."""

    y = 1
'''


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, def, the two lines of the string, return, class, y = 1
    assert _load().code_lines(FIXTURE) == 7


def test_prints_one_row_per_module_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert _load().main(["code_lines.py", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.split("\n")
    assert rows[:3] == ["     7  a.py", "     1  b.py", "     8  total"]


def test_count_gives_each_module_and_the_total(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert _load().count(tmp_path) == {"modules": {"a.py": 7, "b.py": 1}, "total": 8}
