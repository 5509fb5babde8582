"""The README's Python examples run as written, its CLI lines parse, and the
library names its prose quotes exist."""

import argparse
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import cpcapp
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
    command, depth = parser, 1
    while subparsers := [action.choices for action in command._actions
                         if isinstance(action, argparse._SubParsersAction)]:
        # a command with sub-commands of its own (generate's kinds): descend
        assert tokens[depth] in subparsers[0], CLI_LINES[index]
        command, depth = subparsers[0][tokens[depth]], depth + 1
    accepted = command._option_string_actions
    for flag in (token.split("=")[0] for token in tokens[depth:] if token.startswith("-")):
        assert flag in accepted, f"{' '.join(tokens[1:depth])} has no {flag}"
    parser.parse_args(tokens[1:])  # values and required flags too


MODULES = {"cpcapp": cpcapp} | {info.name: importlib.import_module(f"cpcapp.{info.name}")
                                for info in pkgutil.iter_modules(cpcapp.__path__)}


def _quoted_api(text: str) -> list[tuple[str, str | None]]:
    """``(name, module)`` for each library name quoted in ``text``'s prose.

    Fenced blocks are dropped first, since their backticks would pair with
    the prose's. In each one-line backtick span left, a name qualified by a
    ``cpcapp`` submodule (``reducers.fit_cpcapp``) comes with that module, and
    an unqualified snake_case call (``sample_table(kind, ...)``) with None.
    A name qualified by anything else (``np.linalg.eigh``, ``os.fork``,
    ``scipy.linalg.eigh``, ``pair.r_f``) is not the library's and is skipped.
    """
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    found = []
    for span in re.findall(r"`([^`]+)`", prose):
        if "\n" in span:
            continue
        found += [(name, module) for module, name in
                  re.findall(r"(?<![\w.])(\w+)\.(\w+)", span) if module in MODULES]
        found += [(name, None) for name in
                  re.findall(r"(?<![\w.])(_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+)\(", span)]
    return found


def _resolves(name: str, module: str | None) -> bool:
    modules = MODULES.values() if module is None else [MODULES[module]]
    return any(hasattr(m, name) for m in modules)


def test_quoted_api_exists():
    quoted = _quoted_api(README.read_text())
    assert quoted
    assert [(n, m) for n, m in quoted if not _resolves(n, m)] == []


@pytest.mark.parametrize("text, quoted", [
    ("`reducers.fit_cpcapp_` and `sample_tables(kind, seed)`",
     [("fit_cpcapp_", "reducers"), ("sample_tables", None)]),
    ("`np.linalg.eigh`, `os.fork()`, `scipy.linalg.eigh(a, b)`, `pair.r_f`, `x.mean(axis=1)`",
     []),
    ("```python\nx = `linalg.gone`\n```\nthen `linalg.q_eig(r_b,\nr_f)` and `stats.center`",
     [("center", "stats")]),
], ids=["names", "foreign-names", "fences-and-broken-spans"])
def test_check_finds_each_quoted_name(text, quoted):
    assert _quoted_api(text) == quoted
