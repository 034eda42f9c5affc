"""The top-level names and the CLI options are the ones README.md documents."""
import argparse
import ast
import math
import re
from pathlib import Path

import pytest

import mparray
from mparray import (BandSpec, DesignSpec, PrototypeBand, SpecValidationError,
                     builtin_spec, design_pencil, remez_design)
from mparray.cli import _build_parser
from mparray.equiripple import estimate_order
from mparray.prototype import design_prototype

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


_PASS = BandSpec(0.0, 1.0, "pass", ripple_db=0.5)
_PLAN = (PrototypeBand(0.0, 1.0, 1.0), PrototypeBand(2.0, math.pi, 0.0))


# Each call, the exception it raises and that exception's message.
@pytest.mark.parametrize("call, error, message", [
    (lambda: PrototypeBand(0.0, 1.0, 1.0, weight=0.0), ValueError,
     "band weight must be positive, got 0.0"),
    (lambda: estimate_order((PrototypeBand(0.0, 1.0, 0.0), PrototypeBand(2.0, 3.0, 0.0))),
     ValueError, "no transition between distinct targets to size the design"),
    (lambda: remez_design((), 3), ValueError, "at least one band is required"),
    (lambda: remez_design((PrototypeBand(0.0, 1.5, 1.0), PrototypeBand(1.0, 3.0, 0.0)), 3),
     ValueError, "bands overlap"),
    (lambda: remez_design(_PLAN, -1), ValueError, "half_order must be non-negative"),
    (lambda: design_pencil(28), ValueError, "pencil design wants an odd element count >= 3"),
    (lambda: design_prototype(_PLAN, 0), ValueError, "order must be at least 1"),
    (lambda: builtin_spec("design4"), KeyError,
     "unknown built-in design 'design4'; choose from "
     "['design1', 'design2', 'design3', 'pencil']"),
    (lambda: DesignSpec(0.5, (_PASS, BandSpec(2.0, 4.0, "stop", max_level_db=-20.0))),
     SpecValidationError, "band 1: edges must lie in [0, pi], got [2, 4]"),
    (lambda: DesignSpec(0.5, ()), SpecValidationError, "spec has no bands"),
], ids=["band-weight", "no-transition", "no-bands", "overlap", "negative-half-order",
        "even-pencil", "order-zero", "unknown-builtin", "edge-past-pi", "empty-spec"])
def test_public_entry_points_reject_malformed_input(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and info.value.args[0] == message
