"""The examples in README.md: each shown text appears there verbatim and
is what the code gives now."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from jumpstat.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# "Library overview": its import, then one call per line with its value
LIBRARY = README.split("```python\n", 1)[1].split("```", 1)[0]


def _shown_output(command: str) -> list[str]:
    """The lines README.md shows below ``$ jumpstat <command>``."""
    prompt = f"$ jumpstat {command}\n"
    assert prompt in README
    return README.split(prompt, 1)[1].split("\n\n", 1)[0].splitlines()


def _run(capsys, command: str) -> str:
    assert main(shlex.split(command)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("call, shown, render", [
    ('compute_stats(parse_tree("[[.,.],.]"))',
     "TreeStats(internal=2, jumps=1, depth=1, jumpdist=1)", repr),
    ("solve_H(6).coefficient(3)", "1 + 3*q + q^2", str),
    ('verify_theorem("2", 40).passed', "True", repr),
    ('moment_table("jumps", max_moment=4, n_max=60).row(3)'
     '.central_moment(2)', "Fraction(2, 5)", repr),
], ids=["compute_stats", "solve_H", "verify_theorem", "moment_table"])
def test_a_library_overview_line_shows_what_its_call_returns(call, shown,
                                                             render):
    # the value opens the comment, followed by the line's end, ":" or two
    # spaces of explanation
    assert re.search(rf"^{re.escape(call)} +# {re.escape(shown)}($|:|  )",
                     LIBRARY, re.M)
    names = {}
    exec(LIBRARY.split("\n\n", 1)[0], names)
    assert render(eval(call, names)) == shown


@pytest.mark.parametrize("command", ["stats '[[.,.],[.,[.,.]]]'",
                                     "verify 2 --order 40"])
def test_a_shown_command_prints_its_shown_lines(capsys, command):
    assert _run(capsys, command).splitlines() == _shown_output(command)


def test_the_csv_example_opens_with_its_shown_rows(capsys):
    command = "moments jumps --max-moment 2 --nmax 5 --format csv"
    *rows, more = _shown_output(command)
    assert more == "..."
    assert _run(capsys, command).splitlines()[:len(rows)] == rows == [
        "n,b_n,m_1,m_2,mu_2,scaled_2", "0,1,0,0,0,"]


@pytest.mark.parametrize("command", [
    "guess jumps --moment variance --n-to 30",
    "guess jumpdist --moment scaled:4 --n-to 40"])
def test_a_shown_guess_gives_its_shown_formula(capsys, command):
    shown = re.findall(r'"text": "([^"]+)"', "\n".join(_shown_output(command)))
    assert shown == [json.loads(_run(capsys, command))["formula"]["text"]]
