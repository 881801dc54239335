"""The values the README documents: its command examples and library calls."""

import ast
import io
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The lines of the first ```language block after the given heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    body = section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]
    return body.splitlines()


def _code_and_comment(line):
    """A one-line statement's code and its trailing comment (None if none)."""
    for token in tokenize.generate_tokens(io.StringIO(line).readline):
        if token.type == tokenize.COMMENT:
            return line[: token.start[1]].rstrip(), token.string[1:].strip()
    return line, None


def _documented_commands():
    commands = []
    for line in _block("## Command line", "sh"):
        argv, _, comment = line.partition("#")
        if argv.startswith("flatcount ") and re.fullmatch(r"[0-9 ]+", comment.strip()):
            commands.append((shlex.split(argv)[1:], comment.strip()))
    return commands


def test_readme_commands_print_their_comments():
    commands = _documented_commands()
    assert len(commands) >= 5
    for argv, expected in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "flatcount", *argv], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected + "\n", ""), argv


def test_readme_library_values():
    namespace, pending, checked = {}, "", 0
    for line in _block("## Library", "python"):
        pending += line + "\n"
        try:
            ast.parse(pending)
        except SyntaxError:  # a statement continued on the next line
            continue
        statement, pending = pending.rstrip("\n"), ""
        code, comment = (statement, None) if "\n" in statement else _code_and_comment(statement)
        try:
            expected = ast.literal_eval(comment) if comment else None
        except (ValueError, SyntaxError):  # a comment in words
            expected = None
        if expected is None:
            exec(code, namespace)
        else:
            assert eval(code, namespace) == expected, code
            checked += 1
    assert checked >= 3
