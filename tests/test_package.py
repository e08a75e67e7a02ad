"""Package-wide properties: the README's library example runs, and only the
tabular module touches the record arrays."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import subscan

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(subscan.__file__).resolve().parent


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md#library", "exec"), namespace)
    assert namespace["result"].panel.score > 0
    assert namespace["ranking"]


def test_only_tabular_reads_record_arrays():
    """Every stage sees the data through tabular's counting functions, so a
    new record layout (such as a cell table) is a change to tabular.py alone."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tabular.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("rows", "outcomes"):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert offenders == []
