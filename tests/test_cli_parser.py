"""The CLI's argument surface, pinned against a recorded fixture.

The fixture lists the subcommands in order and, for every action of the
top-level parser and of each subparser, the attributes argparse acts on.
Help text is not compared: its layout differs between Python versions.
To re-record after a deliberate change to the surface:

    PYTHONPATH=src:tests python -c "import test_cli_parser as t; t.record()"
"""

import argparse
import json
from pathlib import Path

import pytest

from metriclogic.cli import build_parser, main

FIXTURE = Path(__file__).resolve().parent / "cli_parser.json"


def _action(a: argparse.Action) -> dict:
    return {"option_strings": list(a.option_strings), "dest": a.dest,
            "nargs": a.nargs, "const": a.const, "default": a.default,
            "type": a.type.__name__ if a.type is not None else None,
            "choices": list(a.choices) if a.choices is not None else None,
            "required": a.required, "metavar": a.metavar}


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


def describe() -> dict:
    top = build_parser()
    sub = _subparsers(top)
    return {"top": [_action(a) for a in top._actions if a is not sub],
            "subcommands": list(sub.choices),
            "actions": {name: [_action(a) for a in p._actions]
                        for name, p in sub.choices.items()}}


def record():
    """Write the fixture, one action per line."""
    d = describe()
    rows = lambda actions: ",\n".join(f"  {json.dumps(a)}" for a in actions)  # noqa: E731
    subs = ",\n".join(f' {json.dumps(name)}: [\n{rows(actions)}]'
                      for name, actions in d["actions"].items())
    FIXTURE.write_text(f'{{"top": [\n{rows(d["top"])}],\n'
                       f'"subcommands": {json.dumps(d["subcommands"])},\n'
                       f'"actions": {{\n{subs}}}}}\n')


def test_parser_matches_the_recorded_surface():
    want = json.loads(FIXTURE.read_text())
    got = json.loads(json.dumps(describe()))
    assert got["subcommands"] == want["subcommands"]
    assert got["top"] == want["top"]
    for name in want["subcommands"]:
        assert got["actions"][name] == want["actions"][name], name


@pytest.mark.parametrize("argv", [["--help"]] + [
    [name, "--help"] for name in _subparsers(build_parser()).choices])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: metriclogic")
