"""tools/loc.py counts code lines: no blank, comment-only or docstring line."""

import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"


def _loc():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blank_comment_and_docstring_lines():
    source = (
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # counted: code before the comment\n"
        "def f():\n"
        '    """Function docstring."""\n'
        "    return (x,\n"
        "            2)\n"
        'y = """a string that is not a docstring\n'
        'spans two code lines"""\n'
    )
    assert _loc().code_lines(source) == 6
