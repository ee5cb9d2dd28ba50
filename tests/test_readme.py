"""Every ``$ coble ...`` example in README.md, run through ``cli.main``.

An example's output is the block of lines after its command, up to the
next command or the end of the code block.  Output with no ``...`` must
equal what the tool prints.  Output with ``...`` must show its lines in
order: a line that is only ``...`` stands for any lines, and a line that
ends in `` ...`` for any line that starts with the text before it.  A
command may read stdin from ``echo '...' |``; an ``--input FILE`` other
than ``-`` reads the JSON block shown before the example.
"""

import io
import re
import shlex
from pathlib import Path

import pytest

from coble.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(line number, argv, stdin, input file text, expected lines) per example."""
    out = []
    json_block = None
    text = README.read_text()
    for block in re.finditer(r"^```(\w*)\n(.*?)^```", text, re.M | re.S):
        lang, body = block.group(1), block.group(2)
        if lang == "json":
            json_block = body
            continue
        lineno = text.count("\n", 0, block.start()) + 2
        lines = body.splitlines()
        i = 0
        while i < len(lines):
            if not lines[i].startswith(("$ coble", "$ echo")):
                i += 1
                continue
            start, command = i, lines[i][2:]
            while True:  # a quoted argument may run over several lines
                try:
                    words = shlex.split(command)
                    break
                except ValueError:
                    i += 1
                    command += "\n" + lines[i]
            i += 1
            expected = []
            while i < len(lines) and not lines[i].startswith("$ "):
                expected.append(lines[i])
                i += 1
            stdin = None
            if "|" in words:
                cut = words.index("|")
                assert words[0] == "echo", command
                stdin, words = words[1] + "\n", words[cut + 1 :]
            assert words[0] == "coble", command
            out.append((lineno + start, words[1:], stdin, json_block, expected))
    return out


EXAMPLES = _examples()


def _shows(actual, expected):
    """Whether ``actual`` shows the ``...`` pattern ``expected`` in order."""
    rest = iter(actual)
    for want in expected:
        if want.strip() == "...":
            continue
        if want.endswith(" ..."):
            prefix = want[: -len("...")]
            found = any(line.startswith(prefix) for line in rest)
        else:
            found = any(line == want for line in rest)
        if not found:
            return False
    return True


def test_readme_has_examples_of_every_subcommand():
    assert {argv[0] for _, argv, _, _, _ in EXAMPLES} == {
        "reduce", "genus", "classify", "enumerate", "verify-example", "check-config", "catalog",
    }


def _ids():
    seen = {}
    for _, argv, _, _, _ in EXAMPLES:
        seen[argv[0]] = seen.get(argv[0], 0) + 1
        yield f"{argv[0]}-{seen[argv[0]]}"


@pytest.mark.parametrize("example", EXAMPLES, ids=list(_ids()))
def test_readme_example(example, capsys, monkeypatch, tmp_path):
    lineno, argv, stdin, json_block, expected = example
    monkeypatch.chdir(tmp_path)
    if "--input" in argv and argv[argv.index("--input") + 1] != "-":
        (tmp_path / argv[argv.index("--input") + 1]).write_text(json_block)
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    main(argv)
    actual = capsys.readouterr().out.splitlines()
    if any("..." in line for line in expected):
        assert _shows(actual, expected), f"README.md line {lineno}:\n" + "\n".join(actual)
    else:
        assert actual == expected, f"README.md line {lineno}"
