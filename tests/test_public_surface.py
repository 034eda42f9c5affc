"""The top-level names and the CLI options are the ones README.md documents."""
import argparse
import ast
import re
from pathlib import Path

import mparray
from mparray.cli import _build_parser

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


# Every option of every subcommand; a new one has to be added here and to README.md.
CLI_OPTIONS = {
    "design": {"--spec", "--out", "--max-n"},
    "reproduce": {"--out", "--max-n"},
    "analyze": {"--weights", "--spec", "--out"},
}


def test_cli_options_are_the_documented_set():
    (commands,) = [a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = {name: {s for a in sub._actions for s in a.option_strings
                      if s not in ("-h", "--help")}
               for name, sub in commands.choices.items()}
    assert options == CLI_OPTIONS
    named = set().union(*CLI_OPTIONS.values())
    assert sorted(s for s in named if not re.search(rf"`[^`]*{s}(?![\w-])", README)) == []
