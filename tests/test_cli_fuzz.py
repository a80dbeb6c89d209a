"""Seeded token-level fuzzing of the command line.

Each mutant is a fixture tower with one to three of its tokens deleted,
duplicated, swapped or replaced by a token of some fixture, so no number
past the fixtures' own appears.  Every mutant goes through ``cli.run`` in
process with each command below: nothing may escape ``run``, and the exit
code must be a documented one.  The expression tokenizer meets every value
of the mutants, and must agree there with the character loop it replaced.
"""

import collections
import json
import random
import re
from pathlib import Path

import pytest

from oretower.cli import MAX_LITERAL_DIGITS, _tokenize, _Token, run
from oretower.errors import ParseError

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


def _reference_tokenize(text: str, line: int, col_offset: int = 0) -> list:
    """The character loop that the regex tokenizer replaced."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1 + col_offset
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ParseError(
                    line, col, f"integer literal longer than {MAX_LITERAL_DIGITS} digits"
                )
            tokens.append(_Token("num", int(text[i:j]), line, col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            i = j
        elif ch in "+-*/^()[],":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
        else:
            raise ParseError(line, col, f"unexpected character {ch!r}")
    tokens.append(_Token("end", None, line, len(text) + 1 + col_offset))
    return tokens


def _tokens_or_error(tokenize, text: str, line: int, col_offset: int):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in tokenize(text, line, col_offset)]
    except ParseError as exc:
        return str(exc)


def _assert_tokenizers_agree(text: str, line: int, col_offset: int) -> bool:
    """Whether ``text`` tokenizes, after both tokenizers agree on it."""
    got = _tokens_or_error(_tokenize, text, line, col_offset)
    assert got == _tokens_or_error(_reference_tokenize, text, line, col_offset), text
    return not isinstance(got, str)


def test_tokenizer_matches_the_character_loop_on_mutant_values():
    """Every value of every fuzz mutant, as the reader finds it after its
    key and '=', gives the reference's tokens or its error."""
    outcomes = collections.Counter()
    for text in _mutants(MUTANTS, SEED):
        for line, raw in enumerate(text.splitlines(), start=1):
            key, eq, value = raw.partition("#")[0].partition("=")
            if eq:
                outcomes[_assert_tokenizers_agree(value, line, len(key) + 1)] += 1
    longest = "9" * MAX_LITERAL_DIGITS
    for value in (longest, f"x {longest}9", "1\u00b2", "x\u0661"):
        outcomes[_assert_tokenizers_agree(value, 1, 0)] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 10, outcomes


def test_tokenizer_matches_the_character_loop_on_drawn_text():
    """ASCII with a superscript digit, an Arabic-Indic digit, a letter and
    two blanks outside ASCII: neither digit starts a number or a name."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    others = st.sampled_from("\u00b2\u0661\u00e9\u00a0\x1c")
    chars = st.one_of(st.characters(max_codepoint=127), others)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(chars, max_size=30), col_offset=st.integers(0, 20))
    def check(text, col_offset):
        _assert_tokenizers_agree(text, 3, col_offset)

    check()
