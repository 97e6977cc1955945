"""README.md is the user's reference, and these checks hold it to the code:
its commands parse, every flag it names exists, its Layout block names
every module and script, every citation of it in the source still finds
its text, and it quotes no measured figure (those live in CHANGES.md,
under the change that measured them).

Each check takes README text and returns the faults it finds, so the
tests below also feed it mutated copies and require every fault reported.
Scripts and benchmark files are read, never imported.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from aurelab import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# a measured figure: a size or a time, a multiple, or a count of won pairs
FIGURE = re.compile(r"\d+(\.\d+)? ?(MB|KB|ms|s)\b|\d+(\.\d+)?×|\d+/\d+ pairs")
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
CITATION = re.compile(r'README,\s+"([^"]+)"')
# commands of other programs, whose flags are theirs
OTHER_PROGRAMS = {"pip", "pytest"}


def fenced_commands(text: str) -> list[tuple[int, int, str]]:
    """(first line index, last line index, joined text) of every command in
    a fenced block, with its ``\\`` continuations joined."""
    commands, inside, start, parts = [], False, 0, []
    for i, line in enumerate(text.splitlines()):
        if line.startswith("```"):
            inside = not inside
            continue
        if not inside:
            continue
        if not parts:
            start = i
        parts.append(line.rstrip().removesuffix("\\").strip())
        if not line.rstrip().endswith("\\"):
            commands.append((start, i, " ".join(parts)))
            parts = []
    return commands


def _program(command: str) -> str:
    """The program a command line runs: ``python -m X`` runs X, and
    leading ``NAME=value`` assignments are skipped."""
    words = [w for w in command.split() if not re.match(r"\w+=", w)] or [""]
    if words[:2] == ["python", "-m"] and len(words) > 2:
        return words[2]
    return words[0]


def command_faults(text: str) -> list[str]:
    """Every fenced ``aurelab ...`` command that ``cli.build_parser()``
    does not parse, read as ``cli.main`` reads its arguments."""
    parser, faults = cli.build_parser(), []
    for start, _, command in fenced_commands(text):
        if _program(command) != "aurelab":
            continue
        said = io.StringIO()
        try:
            with contextlib.redirect_stderr(said), \
                    contextlib.redirect_stdout(said):
                parser.parse_args(
                    cli._negative_values_joined(shlex.split(command)[1:]))
        except SystemExit as exc:
            faults.append(f"line {start + 1}: {command!r} exits {exc.code}: "
                          f"{said.getvalue().strip()}")
    return faults


def _subparser_options() -> set[str]:
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {option for p in subparsers.choices.values()
            for option in p._option_string_actions}


def _script_options() -> set[str]:
    """The options of every ``add_argument`` call in ``scripts/*.py`` and
    ``perfbench/*.py``."""
    options = set()
    for path in (*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                options.update(a.value for a in node.args
                               if isinstance(a, ast.Constant)
                               and str(a.value).startswith("--"))
    return options


def flag_faults(text: str) -> list[str]:
    """Every ``--flag`` README names that is no option of an ``aurelab``
    subparser or of a script or benchmark file; the flags of another
    program's fenced command line (``pip``, ``pytest``) are its own."""
    known = _subparser_options() | _script_options()
    lines = text.splitlines()
    for start, end, command in fenced_commands(text):
        if _program(command) in OTHER_PROGRAMS:
            lines[start:end + 1] = [""] * (end + 1 - start)
    return [f"line {i}: unknown flag {flag}"
            for i, line in enumerate(lines, 1)
            for flag in FLAG.findall(line) if flag not in known]


def figure_faults(text: str) -> list[str]:
    """Every line that quotes a measured figure."""
    return [f"line {i}: {m.group(0)!r} in {line.strip()!r}"
            for i, line in enumerate(text.splitlines(), 1)
            for m in FIGURE.finditer(line)]


def _layout_block(text: str) -> str:
    """The first fenced block after the ``## Layout`` heading."""
    _, heading, rest = text.partition("\n## Layout\n")
    blocks = rest.split("```")
    return blocks[1] if heading and len(blocks) > 2 else ""


def layout_faults(text: str) -> list[str]:
    """Every package module (but ``__init__`` and ``__main__``) and every
    entry of ``scripts/`` that the Layout block does not name."""
    block = _layout_block(text)
    modules = [p.name for p in (ROOT / "src" / "aurelab").glob("*.py")
               if p.stem not in ("__init__", "__main__")]
    scripts = [p.name + "/" if p.is_dir() else p.name
               for p in (ROOT / "scripts").iterdir()
               if p.name != "__pycache__" and not p.name.startswith(".")]
    return [f"Layout does not name {name}"
            for name in sorted(modules) + sorted(scripts)
            if not re.search(rf"(?<![\w.-]){re.escape(name)}(?![\w])", block)]


def citations() -> list[tuple[str, str]]:
    """(file, phrase) of every ``README, "<phrase>"`` in ``src/`` or
    ``scripts/``."""
    found = []
    for top in ("src", "scripts"):
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            source = path.read_text(encoding="utf-8", errors="replace")
            found += [(str(path.relative_to(ROOT)), " ".join(p.split()))
                      for p in CITATION.findall(source)]
    return found


def citation_faults(text: str) -> list[str]:
    held = " ".join(text.split())
    return [f"{where} cites README, {phrase!r}, which README does not hold"
            for where, phrase in citations() if phrase not in held]


CHECKS = (command_faults, flag_faults, figure_faults, layout_faults,
          citation_faults)


@pytest.fixture(scope="module")
def readme() -> str:
    return README.read_text(encoding="utf-8")


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_readme_passes(readme, check):
    assert check(readme) == []


def test_the_checks_have_something_to_check(readme):
    assert any(_program(c) == "aurelab" for *_, c in fenced_commands(readme))
    assert FLAG.search(readme)
    assert ("scripts/specs/reference.spec", "Default protocol") in citations()


class TestMutatedReadmeIsReported:
    """Each fault that a later edit could bring in is reported."""

    def test_a_misspelled_flag_in_a_fenced_command(self, readme):
        lines = readme.splitlines()
        start, end, _ = next(
            c for c in fenced_commands(readme)
            if _program(c[2]) == "aurelab" and "--batch-size" in c[2])
        lines[start:end + 1] = [line.replace("--batch-size", "--batch-sise")
                                for line in lines[start:end + 1]]
        mutated = "\n".join(lines)
        assert any("--batch-sise" in f for f in command_faults(mutated))
        assert any("--batch-sise" in f for f in flag_faults(mutated))

    def test_an_unknown_inline_flag(self, readme):
        mutated = readme + "\nPass `--no-such-flag` to see more.\n"
        assert flag_faults(mutated) == [
            f"line {len(mutated.splitlines())}: unknown flag --no-such-flag"]

    def test_a_measured_figure(self, readme):
        mutated = readme + "\nThe peak fell by a little (1.23 MB)\n"
        assert [f for f in figure_faults(mutated) if "'1.23 MB'" in f]

    def test_a_layout_without_a_module(self, readme):
        block = _layout_block(readme)
        without = "".join(line for line in block.splitlines(keepends=True)
                          if "cli.py" not in line)
        mutated = readme.replace(block, without)
        assert "Layout does not name cli.py" in layout_faults(mutated)

    def test_a_cited_phrase_that_is_gone(self, readme):
        mutated = readme.replace("Default protocol", "Protocol")
        assert any("'Default protocol'" in f for f in citation_faults(mutated))
