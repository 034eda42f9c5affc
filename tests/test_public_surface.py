"""The top-level names of the package are the ones README.md documents."""
import ast
import re
from pathlib import Path

import mparray

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_every_export_resolves_and_is_named_in_the_readme():
    undocumented = [name for name in mparray.__all__
                    if not re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", README)]
    assert undocumented == []
    for name in mparray.__all__:
        getattr(mparray, name)


def test_readme_examples_import_only_exports():
    imported = set()
    for block in re.findall(r"```python\n(.*?)```", README, re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "mparray":
                imported.update(alias.name for alias in node.names)
    assert imported  # the README shows the library in use
    assert sorted(imported - set(mparray.__all__)) == []
