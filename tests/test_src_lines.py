"""tools/src_lines.py: total and code lines of a module and of a tree."""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(ROOT, "tools", "src_lines.py")

# 13 lines: a two-line module docstring, a comment, three blank lines, a function
# whose docstring is one line, a three-line call (its string argument no
# docstring) and a trailing comment on a code line
FIXTURE = '''"""Module docstring,
on two lines."""

# a comment on its own line
import math


def f(x):
    """One-line docstring."""
    return math.hypot(
        x,  # a comment inside the expression
        len("not a docstring"),
    )
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blanks(tool):
    # code: import, def, and the four lines of the return statement
    assert tool.count_lines(FIXTURE) == (13, 6)


def test_a_multi_line_string_in_an_expression_counts_every_line(tool):
    assert tool.count_lines('x = """a\nb\nc"""\n"""alone\non two lines"""\n') == (5, 3)


def test_tree_rows_and_sum(tool, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\n\ny = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert tool.tree_counts(str(tmp_path)) == [(os.path.join("pkg", "a.py"), 13, 6),
                                               (os.path.join("pkg", "b.py"), 3, 1)]
    assert tool.main([str(tmp_path)]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last == ["total", "16", "7"]
