"""Repository tooling and docs: the code-line count the ROADMAP tracks per module,
and the README's entry-point table against the package it documents."""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import hlq

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"
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


def readme_entry_points() -> list[str]:
    """The backticked names in the first column of the README's entry-point table,
    call parentheses stripped, ``dataclasses.replace`` left out."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| entry point | error class |") + 2  # past the header rule
    names = []
    for row in lines[start:]:
        if not row.startswith("|"):
            break
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            name = name.split("(")[0]
            if name != "dataclasses.replace":
                names.append(name)
    return names


def resolves(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_readme_entry_point_table_names_real_entry_points():
    names = readme_entry_points()
    assert "SimConfig.validate" in names and "husimi_window" in names
    submodules = [importlib.import_module(f"hlq.{info.name}")
                  for info in pkgutil.iter_modules(hlq.__path__)]
    missing = [name for name in names
               if not any(resolves(owner, name) for owner in (hlq, *submodules))]
    assert not missing, f"README entry points with no hlq name: {missing}"
