"""The README's "Public API" section lists exactly what the package exports.

``src/orthoball/__init__.py`` is parsed with ``ast``: its exports are the entries
of the ``_EXPORTS`` table, each a public name and the module it is read from.
The README section lists one name per bullet (``- `name`: ...``) under a heading
naming its module (``### `orthoball.module` ``).  A name exported but not listed,
listed but not exported, listed twice or listed under another module fails, and
so does a name that the table itself holds twice.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "orthoball" / "__init__.py"
README = ROOT / "README.md"
HEADING = re.compile(r"^### `orthoball\.(\w+)`$")
ITEM = re.compile(r"^- `(\w+)`")


def _exports() -> list[tuple[str, str]]:
    """(module, name) for each entry of the ``_EXPORTS`` table, in source order."""
    tree = ast.parse(INIT.read_text(), filename=str(INIT))
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_EXPORTS"]
    ]
    return [(module.value, name.value) for name, module in zip(table.keys, table.values)]


def _documented() -> list[tuple[str, str]]:
    lines = README.read_text().splitlines()
    start = lines.index("## Public API")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("## ")), len(lines))
    module, out = None, []
    for line in lines[start:end]:
        if heading := HEADING.match(line):
            module = heading[1]
        elif item := ITEM.match(line):
            assert module is not None, f"{item[1]} is listed before any module heading"
            out.append((module, item[1]))
    return out


def test_exports_found():
    exports = _exports()
    assert ("operators", "fourth_order_op") in exports
    names = [name for _, name in exports]
    assert len(names) == len(set(names)), "the table holds a name twice"


def test_readme_lists_each_export_once_under_its_module():
    documented = _documented()
    assert len(documented) == len(set(documented)), "a name is listed twice"
    assert sorted(documented) == sorted(_exports())
