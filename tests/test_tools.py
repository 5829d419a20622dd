"""tools/code_lines.py: the code-line count the ROADMAP tracks per module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_counts_code_lines_only(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring,\n\non three lines."""\n'
        "\n"
        "# a comment\n"
        "import math  # trailing comment\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """One-line docstring."""\n'
        "    text = '''a string\n"
        "    that is not a docstring'''\n"
        "    return (x +\n"
        "            math.pi)\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
    )
    # import, def, the two lines of the string, the two of the return, class
    assert code_lines.code_lines(source) == 7


def test_main_prints_modules_and_total(tmp_path, capsys):
    for name, body in (("a.py", "x = 1\ny = 2\n"), ("b.py", '"""Doc."""\nz = 3\n')):
        (tmp_path / name).write_text(body)
    code_lines.main([str(tmp_path / "a.py"), str(tmp_path / "b.py")])
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["2", "1", "3"]
    assert rows[-1].endswith("total")
