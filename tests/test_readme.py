"""The README's quick example runs as written and its results hold, and its
command-line synopsis matches the parser."""
import argparse
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from obtusewalk import PredictableProcess, cli, integrate_predictable

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope: dict = {}
    exec(blocks[0], scope)
    walk, f, mean, xi = scope["walk"], scope["f"], scope["mean"], scope["xi"]
    assert isinstance(xi, PredictableProcess)
    rebuilt = mean + integrate_predictable(walk, xi).values
    assert np.max(np.abs(rebuilt - f.values)) < 1e-12
    assert abs(scope["coeffs"].mean - mean) < 1e-15
    assert scope["var"] <= scope["bound"] + 1e-12


def _parser_forms(parser: argparse.ArgumentParser, prefix=()):
    """Every command form of the parser, as its tuple of subcommand words."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parser_forms(sub, prefix + (name,))
            return
    yield prefix


def _flags(text: str) -> set[str]:
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text)) - {"--out", "--cap", "--help"}


def test_cli_synopsis_lists_the_flags_of_each_form(capsys):
    """Each synopsis line names exactly the flags its form's --help shows,
    beyond the common --out and --cap."""
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    synopsis = {}
    for line in block.group(1).splitlines():
        words = line.split("#")[0].split()[1:]
        form = tuple(itertools.takewhile(lambda w: re.fullmatch(r"[a-z][a-z-]*", w), words))
        synopsis[form] = _flags(" ".join(words))
    forms = list(_parser_forms(cli.build_parser()))
    assert sorted(synopsis) == sorted(forms)
    for form in forms:
        with pytest.raises(SystemExit):
            cli.main(list(form) + ["--help"])
        assert synopsis[form] == _flags(capsys.readouterr().out), form
