"""The README's Library example runs as written and prints what it shows."""

import re
from itertools import takewhile
from pathlib import Path

import versalp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_what_it_shows():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    lines = re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()
    # Each print is followed by the line or lines "# ..." that show its output.
    expected = [
        "\n".join(shown[2:] for shown in takewhile(lambda s: s.startswith("# "), lines[i + 1:]))
        for i, line in enumerate(lines) if line.startswith("print(")
    ]
    printed = []
    exec("\n".join(lines), {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert expected and all(expected)
    assert printed == expected
    assert [name for name in versalp.__all__ if not hasattr(versalp, name)] == []
