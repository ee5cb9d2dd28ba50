"""One parser serves every ``main()`` call of a process: nothing carries over."""

import io
import json

from coble.cli import build_parser, main

CASE9_INPUT = {
    "y_min": "P2",
    "k": 1,
    "m": 4,
    "components": [
        {"role": "M1", "g": 1, "class": [2]},
        {"role": "G", "g": 4, "class": [1]},
    ],
}

# (argv, stdin, exit code).  Each command would go wrong if an option of
# the one before it stayed set: a kept --param list makes the second
# verify-example refuse n, t and b, and a kept --force lets (4;2,2) reduce.
COMMANDS = [
    (["classify"], "", 2),  # usage error: --input is required
    (["verify-example", "scroll-fiber-tower", "--param", "n=3", "--param", "t=1", "--param", "b=6"], "", 0),
    (["verify-example", "sections-to-minus-four", "--param", "m=2", "--json"], "", 0),
    (["reduce", "(4;2,2)", "--force"], "", 0),
    (["reduce", "(4;2,2)"], "", 2),
    (["classify", "--input", "-"], json.dumps(CASE9_INPUT), 0),
    (["catalog", "--json"], "", 0),
    (["frobnicate"], "", 2),  # usage error: no such subcommand
    (["classify", "--input", "-", "--json"], json.dumps(CASE9_INPUT), 0),
]


def run(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_gives_each_command_its_output_alone(capsys, monkeypatch):
    alone = []
    for argv, stdin, _ in COMMANDS:
        build_parser.cache_clear()  # a new parser, as in a new process
        alone.append(run(capsys, monkeypatch, argv, stdin))
    build_parser.cache_clear()
    in_sequence = [run(capsys, monkeypatch, argv, stdin) for argv, stdin, _ in COMMANDS]
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(COMMANDS) - 1)
    assert [code for code, _, _ in alone] == [code for _, _, code in COMMANDS]
    for (argv, _, _), seq, solo in zip(COMMANDS, in_sequence, alone):
        assert seq == solo, argv
    # the usage errors print argparse's usage line on stderr
    assert all(alone[i][2].startswith("usage: coble") for i in (0, 7))
