"""The README's Python examples run as written, and its CLI lines parse."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from cpcapp.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
CLI_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(),
                                          flags=re.M | re.S)
             for line in block.splitlines() if line.startswith("cpcapp ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # anything a block writes lands here
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_cli_lines():
    assert CLI_LINES


@pytest.mark.parametrize("index", range(len(CLI_LINES)))
def test_cli_line_names_real_subcommand_and_flags(index):
    tokens = shlex.split(CLI_LINES[index], comments=True)
    parser = _build_parser()
    subparsers = next(action.choices for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert tokens[1] in subparsers, CLI_LINES[index]
    accepted = subparsers[tokens[1]]._option_string_actions
    for flag in (token.split("=")[0] for token in tokens[2:] if token.startswith("-")):
        assert flag in accepted, f"{tokens[1]} has no {flag}"
    parser.parse_args(tokens[1:])  # values and required flags too
