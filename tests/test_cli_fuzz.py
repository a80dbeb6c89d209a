"""Seeded token-level fuzzing of the command line.

Each mutant is a fixture tower with one to three of its tokens deleted,
duplicated, swapped or replaced by a token of some fixture, so no number
past the fixtures' own appears.  Every mutant goes through ``cli.run`` in
process with each command below: nothing may escape ``run``, and the exit
code must be a documented one.
"""

import collections
import json
import random
import re
from pathlib import Path

import pytest

from oretower.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
MUTANTS = 1000
SEED = 20
COMMANDS = ("validate", "mul", "pi-check", "gr", "erase-all")
# a name, a run of digits, a run of blanks, a newline or one other character
_TOKEN = re.compile(r"[A-Za-z_]\w*|\d+|[ \t]+|\n|.")
_VAR = re.compile(r"^[ \t]*var[ \t]*=[ \t]*(\S+)", re.M)


def _mutants(count: int, seed: int):
    rng = random.Random(seed)
    sources = [
        _TOKEN.findall(path.read_text(encoding="utf-8"))
        for path in sorted(FIXTURES.glob("*.tw"))
    ]
    pool = sorted({tok for toks in sources for tok in toks if not tok.isspace()})
    for _ in range(count):
        toks = list(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            spots = [i for i, tok in enumerate(toks) if not tok.isspace()]
            i = rng.choice(spots)
            edit = rng.choice(("delete", "duplicate", "swap", "replace"))
            if edit == "delete":
                del toks[i]
            elif edit == "duplicate":
                toks.insert(i, toks[i])
            elif edit == "swap":
                j = rng.choice(spots)
                toks[i], toks[j] = toks[j], toks[i]
            else:
                toks[i] = rng.choice(pool)
        yield "".join(toks)


def test_token_mutants_end_in_documented_exit_codes(tmp_path, capsys):
    path = tmp_path / "mutant.tw"
    codes = collections.Counter()
    for text in _mutants(MUTANTS, SEED):
        path.write_text(text, encoding="utf-8")
        names = _VAR.findall(text) or ["x"]
        for command in COMMANDS:
            argv = [command, "--tower", str(path), "--json"]
            if command == "mul":
                argv += [names[0], names[-1]]
            try:
                code = run(argv)
            except (Exception, SystemExit) as exc:
                pytest.fail(f"{argv[0]} raised {exc!r} on the mutant\n{text}")
            out = capsys.readouterr().out
            assert code in (0, 1, 2), (argv[0], code, text)
            if code == 1 and command != "validate":
                # a failure past parsing is reported, not just signalled
                assert json.loads(out)["status"] == "error", (argv[0], text)
            codes[code] += 1
    # the mutants reach the commands, not only the parser's refusals
    assert set(codes) == {0, 1, 2}, codes
