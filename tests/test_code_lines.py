from .code_lines import code_lines, count_paths, main

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


def f(x):
    """One-line docstring."""
    # a comment line
    return (
        x
        + 1
    )


class K:
    """Class docstring."""

    text = """a string that is not a docstring,
    so both its lines count"""
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, def, the four lines of the return, class, the two string lines
    assert code_lines(FIXTURE) == 9


def test_the_script_counts_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert list(count_paths([str(tmp_path)]).values()) == [9, 1]
    assert main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "b.py")],
        ["10", "total"],
    ]
