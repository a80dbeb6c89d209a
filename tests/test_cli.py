import ast
import errno
import gc
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oretower.cli import (
    parse_tower_file,
    parse_tower_text,
    render_tower_file,
    run,
)
from oretower.errors import ParseError, UnknownVariableReference
from oretower.scalars import CyclotomicField, Matrix, Scalar, parse_field
from oretower.skewpoly import SkewPoly
from oretower.tower import BaseMap, OreTower, validate_tower

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def test_parse_minimal_quantum_plane():
    tower = parse_tower_file(fixture("qplane_zeta3.tw"))
    assert tower.height == 2
    assert tower.base.field.n == 3
    a, c = tower.sigma_var(1, 0)
    assert a == CyclotomicField(3).gen and not c
    assert "validation" not in vars(tower)


def test_parse_matrix_base():
    tower = parse_tower_file(fixture("mat2_inner.tw"))
    assert tower.base.kind == "matrix" and tower.base.size == 2
    assert validate_tower(tower).ok


def test_parse_rejects_forward_reference():
    text = """\
[base]
kind = field
field = Q

[[level]]
var = x1
sigma x3 = 2 * x3

[[level]]
var = x2
"""
    with pytest.raises(UnknownVariableReference):
        parse_tower_text(text)


def test_parse_unknown_variable_name_anywhere():
    text = """\
[base]
kind = field
field = Q

[[level]]
var = x1

[[level]]
var = x2
sigma x3 = 2 * x3
"""
    with pytest.raises(UnknownVariableReference):
        parse_tower_text(text)


def test_parse_unknown_variable_in_expression():
    text = """\
[base]
kind = field
field = Q

[[level]]
var = x1

[[level]]
var = x2
delta x1 = x2 + 1
"""
    with pytest.raises(UnknownVariableReference):
        parse_tower_text(text)


def test_parse_unknown_key_rejected():
    text = """\
[base]
kind = field
field = Q
flavour = sour

[[level]]
var = x1
"""
    with pytest.raises(ParseError):
        parse_tower_text(text)


def test_parse_error_carries_position():
    text = """\
[base]
kind = field
field = Q

[[level]]
var = x1
q = 1 +
"""
    with pytest.raises(ParseError) as excinfo:
        parse_tower_text(text)
    assert excinfo.value.line == 7


def test_field_mismatch_for_matrix_literal_on_field_base():
    from oretower.errors import FieldMismatch

    text = """\
[base]
kind = field
field = Q

[[level]]
var = x1
q = [[1, 0], [0, 1]]
"""
    with pytest.raises(FieldMismatch):
        parse_tower_text(text)


def test_scalar_literal_grammar():
    text = """\
[base]
kind = field
field = Q(q)

[[level]]
var = x1

[[level]]
var = x2
sigma x1 = (-3/2) * x1
q = -3/2
"""
    tower = parse_tower_text(text)
    from fractions import Fraction

    minus_three_halves = tower.base.field.coerce(Fraction(-3, 2))
    assert tower.levels[1].q == minus_three_halves != Fraction(-3, 2)
    a, _ = tower.sigma_var(1, 0)
    assert a == minus_three_halves


@pytest.mark.parametrize(
    "name",
    [
        "qplane_lambda2.tw",
        "qplane_zeta3.tw",
        "qweyl_zeta3.tw",
        "qweyl_q.tw",
        "mat2_inner.tw",
        "weyl_gf5.tw",
        "three_level.tw",
    ],
)
def test_render_parse_round_trip(name):
    tower = parse_tower_file(fixture(name))
    text = render_tower_file(tower)
    again = parse_tower_text(text)
    assert again == tower
    assert render_tower_file(again) == text


_FIELD_BASE = "[base]\nkind = field\nfield = Q(q)\n\n"
_MATRIX_BASE = "[base]\nkind = matrix\nfield = Q(q)\nsize = 2\n\n"
_LEVEL = "[[level]]\nvar = x1\n"
_LEVEL_2 = "[[level]]\nvar = x2\n"


def _one_level_file(tmp_path, sigma_base: str) -> str:
    path = tmp_path / "one_level.tw"
    path.write_text(f"{_FIELD_BASE}{_LEVEL}sigma_base = {sigma_base}\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "text, message",
    [
        (_LEVEL, "file must start with a [base] section"),
        (_FIELD_BASE + "[extra]\n", "unexpected section [extra]"),
        (_FIELD_BASE + "[[level]]\nq = 2\n", "level section missing 'var'"),
        (_FIELD_BASE + "[[level]]\nvar = 1x\n", "bad variable name '1x'"),
        (_FIELD_BASE + _LEVEL + _LEVEL, "duplicate variable names"),
        (_FIELD_BASE + "[[level]\nvar = x1\n", "unterminated section header"),
        ("[base\nfield = Q\n", "unterminated section header"),
        ("field = Q\n[base]\n", "content before the first section"),
        ("[base]\njunk\n", "expected 'key = value'"),
        ("[base]\nkind = ring\nfield = Q\n", "unknown base kind 'ring'"),
        ("[base]\nfield = R\n", "unrecognised field descriptor 'R'"),
        ("[base]\nkind = matrix\nfield = Q\nsize = 2x\n", "bad matrix size '2x'"),
        ("[base]\nkind = matrix\nfield = Q\nsize = 0\n", "bad matrix size '0'"),
        ("[base]\nfield = Q\nflavour = sour\n", "unknown base key 'flavour'"),
        ("[base]\nkind = field\n", "base section missing 'field'"),
        ("[base]\nkind = matrix\nfield = Q\n", "matrix base missing 'size'"),
        ("[base]\nfield = Q\nsize = 2\n", "'size' is only valid for matrix bases"),
        (_FIELD_BASE + _LEVEL + "sigma x3 = x3\n", "unknown variable 'x3'"),
        (_FIELD_BASE + _LEVEL + _LEVEL_2 + "sigma x2 = x2\n", "variable 'x2' is not below level 2"),
        (_FIELD_BASE + _LEVEL + "flavour = sour\n", "unknown level key 'flavour'"),
        (
            _FIELD_BASE + _LEVEL + _LEVEL_2 + "sigma x1 = x1^2\n",
            "sigma image must be a * x1 + (terms below x1)",
        ),
        # a delta image sees only lower variables, and q and field base
        # images see no variables and no matrices
        (_FIELD_BASE + _LEVEL + _LEVEL_2 + "delta x1 = x2\n", "variable 'x2' is not in scope here"),
        (_FIELD_BASE + _LEVEL + "q = x1\n", "variable 'x1' is not in scope here"),
        (_FIELD_BASE + _LEVEL + "sigma_base = [[1]]\n", "matrix literal where a scalar is required"),
        (_FIELD_BASE + _LEVEL + "sigma_base = conj([[1]])\n", "conj(...) requires a matrix base"),
        (_MATRIX_BASE + _LEVEL + "sigma_base = conj(q)\n", "conj(...) takes a matrix"),
        (
            _MATRIX_BASE + _LEVEL + "delta_base = conj([[1, 0], [0, 1]])\n",
            "conj(...) is a sigma form",
        ),
        (
            _MATRIX_BASE + _LEVEL + "sigma_base = conj([[1, q], [2, 2 * q]])\n",
            "line 8, column 14: conj(...) needs an invertible matrix",
        ),
        (
            _MATRIX_BASE + _LEVEL + "sigma_base = inner([[1, 0], [0, 1]])\n",
            "inner(...) is a delta form",
        ),
        (
            _MATRIX_BASE + _LEVEL + "sigma_base = linear([[1, 0], [0, 1]])\n",
            "linear(...) needs a 4x4 matrix",
        ),
        (
            _MATRIX_BASE + _LEVEL + "sigma_base = q\n",
            "sigma_base on a matrix base must be id/zero, conj(...), inner(...) or linear(...)",
        ),
        (
            "[base]\nfield = Q\n\n" + _LEVEL + "sigma_base = 2\n",
            "Q has no generator; only id/zero base maps exist",
        ),
    ],
)
def test_malformed_tower_files_exit_two(text, message, capsys, tmp_path):
    path = tmp_path / "bad.tw"
    path.write_text(text, encoding="utf-8")
    assert run(["validate", "--tower", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_field_base_map_expressions_round_trip(capsys, tmp_path):
    path = tmp_path / "scaled.tw"
    path.write_text(
        f"{_FIELD_BASE}{_LEVEL}sigma_base = 2 * q\ndelta_base = zero\n", encoding="utf-8"
    )
    tower = parse_tower_file(str(path))
    q = tower.base.field.gen
    assert tower.levels[0].sigma_base.field_action == 2 * q
    assert tower.levels[0].delta_base.is_trivial()
    assert validate_tower(tower).ok
    text = render_tower_file(tower)
    assert parse_tower_text(text) == tower
    identity = parse_tower_text(f"{_FIELD_BASE}{_LEVEL}sigma_base = id\n")
    assert identity.levels[0].sigma_base.is_trivial()


# x1 -> y1 would name the field generator; x2 -> y2 would name level 1
_ERASED_NAME_CLASHES = {
    "field_generator": "[base]\nkind = field\nfield = Q(y1)\n\n"
    "[[level]]\nvar = x1\n\n[[level]]\nvar = x2\nsigma x1 = 2 * x1\n",
    "level_name": f"{_FIELD_BASE}[[level]]\nvar = y2\n\n"
    "[[level]]\nvar = x2\nsigma y2 = q * y2\ndelta y2 = 1\nq = q\n",
}


@pytest.mark.parametrize(
    "clash, command, names",
    [
        ("field_generator", "gr", ["y1_", "y2"]),
        ("field_generator", "erase-all", ["y1_", "y2"]),
        ("level_name", "gr", ["y_y2", "y2"]),
        ("level_name", "erase-all", ["y_y2", "y2"]),
        ("level_name", "erase", ["y2", "y2_"]),
    ],
)
def test_erased_names_parse_back(capsys, tmp_path, clash, command, names):
    path = tmp_path / "clash.tw"
    path.write_text(_ERASED_NAME_CLASHES[clash], encoding="utf-8")
    assert run([command, "--json", "--tower", str(path)]) == 0
    rendered = json.loads(capsys.readouterr().out)["tower"]
    tower = parse_tower_text(rendered)
    assert tower.level_names() == names
    assert render_tower_file(tower) == rendered
    assert validate_tower(tower).ok


def test_validate_command_exit_codes(capsys):
    assert run(["validate", "--tower", fixture("qweyl_zeta3.tw")]) == 0
    out = capsys.readouterr().out
    assert "valid" in out

    assert run(["validate", "--tower", fixture("broken_qskew.tw")]) == 1
    out = capsys.readouterr().out
    assert "q-skew" in out


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"], ids=["superscript_two", "arabic_three"])
def test_only_ascii_digits_are_numbers(digit, capsys, tmp_path):
    """A character that ``str.isdigit`` accepts but that is no ASCII digit
    is an unexpected character, on the command line and in a tower file,
    and no field descriptor reads it as a number."""
    assert run(["mul", "--tower", fixture("qweyl_q.tw"), f"x1^{digit}", "x2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: line 1, column 4: unexpected character {digit!r}\n"
    assert captured.out == ""
    path = tmp_path / "digit.tw"
    path.write_text(_FIELD_BASE + _LEVEL + _LEVEL_2 + f"delta x1 = x1^{digit}\n", encoding="utf-8")
    assert run(["validate", "--tower", str(path)]) == 2
    # the column counts from the start of the line, not of the value
    assert capsys.readouterr().err == f"error: line 9, column 15: unexpected character {digit!r}\n"
    for descriptor in (f"gf({digit})", f"cyclotomic({digit})", f"gf(1{digit})"):
        with pytest.raises(ValueError, match="unrecognised field descriptor"):
            parse_field(descriptor)
        path.write_text(f"[base]\nkind = field\nfield = {descriptor}\n", encoding="utf-8")
        assert run(["validate", "--tower", str(path)]) == 2
        assert "unrecognised field descriptor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (_FIELD_BASE + _LEVEL + "q =  q $ 2\n", "line 7, column 8: unexpected character '$'"),
        (
            _FIELD_BASE + _LEVEL + "sigma_base = q +\n",
            "line 7, column 17: unexpected end of expression",
        ),
        (
            _MATRIX_BASE + _LEVEL + "sigma_base = conj([[1, 0], [0, q)])\n",
            "line 8, column 33: expected ']', found ')'",
        ),
        (
            _MATRIX_BASE + _LEVEL + "delta_base   =   inner([[0, 1], [0, ?]])\n",
            "line 8, column 37: unexpected character '?'",
        ),
        (
            _FIELD_BASE + _LEVEL + _LEVEL_2 + "sigma x1 = q * x1 ^ y\n",
            "line 9, column 21: expected an integer exponent, found 'y'",
        ),
        (
            _FIELD_BASE + _LEVEL + "q = q ^\n",
            "line 7, column 8: expected an integer exponent, found end of expression",
        ),
        # checks on a whole value point at its first character
        (
            _MATRIX_BASE + _LEVEL + "sigma_base =  conj(q)\n",
            "line 8, column 15: conj(...) takes a matrix",
        ),
        (
            _MATRIX_BASE + _LEVEL + "delta_base = conj([[1, 0], [0, 1]])\n",
            "line 8, column 14: conj(...) is a sigma form",
        ),
        (
            _MATRIX_BASE + _LEVEL + "sigma_base=inner([[1, 0], [0, 1]])\n",
            "line 8, column 12: inner(...) is a delta form",
        ),
        (
            _MATRIX_BASE + _LEVEL + "delta_base = inner([[1]])\n",
            "line 8, column 14: inner(...) needs a 2x2 matrix",
        ),
        (
            _FIELD_BASE + _LEVEL + _LEVEL_2 + "sigma x1 =   x1^2\n",
            "line 9, column 14: sigma image must be a * x1 + (terms below x1)",
        ),
        # a variable name is placed by its value, not by the [[level]] header
        (
            _FIELD_BASE + "[[level]]\n# the first level\nvar = 1x\n",
            "line 7, column 7: bad variable name '1x'",
        ),
        (
            _FIELD_BASE.replace("Q(q)", "Q(t)") + "[[level]]\n\nvar =   t\n",
            "line 7, column 9: variable 't' names a generator of the field",
        ),
    ],
    ids=[
        "q", "sigma_base", "conj", "inner", "sigma", "end", "matrix",
        "sigma_form", "delta_form", "size", "sigma_image", "var", "var_generator",
    ],
)
def test_tower_file_errors_give_line_columns(text, message, capsys, tmp_path):
    """An error in a tower-file value is placed by its column in the line."""
    path = tmp_path / "column.tw"
    path.write_text(text, encoding="utf-8")
    assert run(["validate", "--tower", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_tower_file_is_utf8_with_any_newline(capsys, tmp_path):
    """CRLF and CR end lines as LF does; a byte that is not UTF-8 exits 2."""
    path = tmp_path / "bytes.tw"
    text = _FIELD_BASE + _LEVEL + "q =  q $ 2\n"
    for newline in ("\r\n", "\r"):
        path.write_bytes(text.replace("\n", newline).encode())
        assert run(["validate", "--tower", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 7, column 8: unexpected character '$'\n"
    path.write_bytes(b"[base]\nfield = Q # \xe9\xff\n")
    assert run(["validate", "--tower", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: 'utf-8' codec can't decode byte 0xe9 in position 19: invalid continuation byte\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["swap", "--level", "2"],
            "level 2 out of range: swap needs a tower of height at least 2, "
            "and this one has height 1",
        ),
        (["order", "--level", "2"], "level 2 out of range 1..1"),
        (["order", "--level", "0"], "level 0 out of range 1..1"),
    ],
    ids=["swap", "order_high", "order_zero"],
)
def test_level_errors_have_no_position(argv, message, capsys):
    """A --level that the tower rules out is a usage error with no parse
    position; a swap on a tower of one level says what it needs."""
    assert run([*argv, "--tower", fixture("mat2_inner.tw"), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_usage_and_parse_errors_exit_two(capsys, tmp_path):
    assert run(["validate"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.tw"
    bad.write_text("[base]\nkind = field\nfield = Q\njunk\n", encoding="utf-8")
    assert run(["validate", "--tower", str(bad)]) == 2
    capsys.readouterr()
    missing = str(tmp_path / "missing.tw")
    assert run(["validate", "--tower", missing]) == 2
    assert capsys.readouterr().err == f"error: no such file: {missing}\n"
    assert run(["validate", "--tower", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}")
    # a swap moves level k below level k - 1, so level 1 has nothing below it
    assert run(["swap", "--tower", fixture("qplane_zeta3.tw"), "--level", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "level 1 out of range" in captured.err
    assert captured.out == ""
    # deep nesting is a parse error, not a RecursionError
    minus_chain = "0 + " + "-" * 1200 + "x1"
    assert run(["mul", "--tower", fixture("qweyl_zeta3.tw"), minus_chain, "x1"]) == 2
    assert "expression nested too deeply" in capsys.readouterr().err
    deep = tmp_path / "deep.tw"
    deep.write_text(
        "[base]\nkind = field\nfield = Q\n\n[[level]]\nvar = x1\n\n[[level]]\nvar = x2\n"
        "delta x1 = " + "(" * 400 + "1" + ")" * 400 + "\n",
        encoding="utf-8",
    )
    assert run(["validate", "--tower", str(deep)]) == 2
    assert "expression nested too deeply" in capsys.readouterr().err
    # an over-long literal is refused before int() sees it
    long_literal = "x1^" + "9" * 5000
    assert run(["mul", "--tower", fixture("qweyl_zeta3.tw"), "x1", long_literal]) == 2
    assert "integer literal longer than 1000 digits" in capsys.readouterr().err
    # exponents are capped before any power is taken, also where a power
    # or a product of polynomials adds them up
    for power in ("x1^10001", "x2^-10001", "z^10001", "(x1^10000)^2", "x1^6000 x1^6000"):
        assert run(["mul", "--tower", fixture("qweyl_zeta3.tw"), "x1", power]) == 2
        assert "exponent larger than 10000" in capsys.readouterr().err
    assert run(["mul", "--tower", fixture("qweyl_zeta3.tw"), "x2", "x1^10000"]) == 0
    assert capsys.readouterr().out == "z * x1^10000 x2 + x1^9999\n"
    # conj/inner matrices are checked against the base before they are used
    mat2 = Path(fixture("mat2_inner.tw")).read_text(encoding="utf-8")
    for edited, message in (
        (mat2.replace("[[1, 0], [0, q]]", "[[0, 0], [0, q]]"), "conj(...) needs an invertible"),
        (mat2.replace("size = 2", "size = 3"), "conj(...) needs a 3x3 matrix"),
        (
            mat2.replace("size = 2", "size = 3").replace(
                "[[1, 0], [0, q]]", "[[1, 0, 0], [0, q, 0], [0, 0, 1]]"
            ),
            "inner(...) needs a 3x3 matrix",
        ),
    ):
        path = tmp_path / "edited.tw"
        path.write_text(edited, encoding="utf-8")
        assert run(["validate", "--tower", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line ") and message in captured.err
        assert captured.out == ""


def test_failed_reverification_is_a_typed_error(capsys, monkeypatch):
    from oretower import OreError, VerificationFailed, erase

    assert issubclass(VerificationFailed, OreError)
    verify = erase._verify_relations
    monkeypatch.setattr(
        erase, "_verify_relations", lambda tower, ys: verify(tower, ys[::-1])
    )
    rc = run(["erase-all", "--tower", fixture("qweyl_zeta3.tw"), "--json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "error"
    assert payload["kind"] == "VerificationFailed"


def test_mul_deep_power_returns(capsys):
    rc = run(["mul", "--tower", fixture("qweyl_zeta3.tw"), "--json", "x2^1500", "x1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["product"] == "x1 x2^1500"


def test_erase_all_json_report(capsys):
    rc = run(["erase-all", "--tower", fixture("qweyl_zeta3.tw"), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "erase-all"
    assert payload["polynomials"]["y2"] == "(z - 1) * x1 x2 + 1"
    assert payload["polynomials"]["y1"] == "x1"
    assert payload["warnings"] == []
    branches = [w["branch"] for w in payload["witnesses"]]
    assert branches == ["trivial_delta", "center_moving"]


def test_pi_check_negative_verdict_is_success(capsys):
    rc = run(["pi-check", "--tower", fixture("qplane_lambda2.tw"), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "NotPI"
    assert payload["lambda_orders"] == {"2,1": None}


def test_pi_check_positive_with_witnesses(capsys):
    rc = run(
        [
            "pi-check",
            "--tower",
            fixture("qplane_zeta3.tw"),
            "--json",
            "--witness-bound",
            "3",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "PI"
    assert payload["lambda_orders"] == {"2,1": 3}
    elements = {w["element"] for w in payload["witnesses"]}
    assert {"x1^3", "x2^3"} <= elements


def test_swap_command(capsys):
    rc = run(["swap", "--tower", fixture("qplane_lambda2.tw"), "--level", "2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    swapped = parse_tower_text(payload["tower"])
    assert swapped.level_names() == ["x2", "x1"]
    a, _ = swapped.sigma_var(1, 0)
    assert a == swapped.base.field.coerce(1) / 2


_QT_BASE = "[base]\nkind = field\nfield = Q(t)\n\n"


def test_swap_command_reports_a_dropped_q(capsys, tmp_path):
    # delta1(-t^2) = -2t != 0, so x1 loses its q when it moves up
    path = tmp_path / "dropq.tw"
    path.write_text(
        f"{_QT_BASE}{_LEVEL}delta_base = 1\nq = 1\n\n"
        f"{_LEVEL_2}sigma_base = 1/t\nsigma x1 = -t^2 * x1\n",
        encoding="utf-8",
    )
    assert run(["validate", "--tower", str(path)]) == 0
    capsys.readouterr()
    rc = run(["swap", "--tower", str(path), "--level", "2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["warnings"] == [
        "q of level 1 dropped: delta(-t^2) != 0 so the moved map is no longer q-skew"
    ]
    swapped = parse_tower_text(payload["tower"])
    assert swapped.level_names() == ["x2", "x1"]
    assert swapped.levels[1].q is None
    assert "q =" not in payload["tower"]


def test_swap_command_checks_the_field_generator(capsys, tmp_path):
    # sigma2 delta1(t) = 1 but t * delta1(sigma2(t)) = t: a check on the
    # field basis {1} alone would let this swap through
    path = tmp_path / "ratfunc.tw"
    path.write_text(
        f"{_QT_BASE}{_LEVEL}delta_base = 1\n\n{_LEVEL_2}sigma x1 = t * x1\n",
        encoding="utf-8",
    )
    rc = run(["swap", "--tower", str(path), "--level", "2", "--json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "CompatibilityFailed"
    assert payload["error"].endswith("witness t")


def test_mul_and_central_commands(capsys):
    rc = run(["mul", "--tower", fixture("qweyl_zeta3.tw"), "x2", "x1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "z * x1 x2 + 1"

    rc = run(["central", "--tower", fixture("qplane_zeta3.tw"), "x1^3"])
    assert rc == 0
    assert "central" in capsys.readouterr().out

    rc = run(["central", "--tower", fixture("qplane_zeta3.tw"), "x1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["central"] is False
    assert payload["witness"] == "x2"


def test_order_command(capsys):
    rc = run(["order", "--tower", fixture("qweyl_zeta3.tw"), "--level", "2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 1  # identity on the base field


@pytest.mark.parametrize(
    "sigma_base, valid, order",
    [
        ("2 * q", True, None),
        ("1/q", True, 2),
        ("(q + 1)/(q - 1)", True, 2),
        ("q + 1", True, None),
        ("q^2", False, None),
    ],
)
def test_moebius_base_maps(sigma_base, valid, order, capsys, tmp_path):
    """Q(q) has the automorphisms q -> (a q + b)/(c q + d), a d != b c;
    validate and order agree on which images are automorphisms."""
    path = _one_level_file(tmp_path, sigma_base)
    assert run(["validate", "--tower", path, "--json"]) == (0 if valid else 1)
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[0]["name"] == "sigma_base automorphism" and checks[0]["ok"] is valid
    rc = run(["order", "--tower", path, "--level", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    if valid:
        assert rc == 0 and payload["order"] == order
    else:
        assert rc == 1 and payload["kind"] == "HypothesisViolation"
        assert "not an automorphism" in payload["error"]


def test_non_automorphism_fails_fast(capsys, tmp_path):
    """sigma(q) = q^2 gives sigma^k(q) = q^(2^k): order, mul and central
    refuse it with exit 1 instead of computing those powers."""
    order_path = _one_level_file(tmp_path, "q^2")
    start = time.perf_counter()
    for bound in ("60", "1000"):
        assert run(["order", "--tower", order_path, "--level", "1", "--order-bound", bound]) == 1
        assert "error[HypothesisViolation]" in capsys.readouterr().out
    path = tmp_path / "square.tw"
    path.write_text(
        "[base]\nkind = field\nfield = Q(t)\n\n" + _LEVEL + "sigma_base = t^2\n",
        encoding="utf-8",
    )
    assert run(["mul", "--tower", str(path), "x1^16", "t"]) == 1
    assert "sigma_1 is not an automorphism" in capsys.readouterr().out
    assert run(["central", "--tower", str(path), "x1^16", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["kind"] == "HypothesisViolation"
    assert time.perf_counter() - start < 1.0


def test_long_power_run_time_gate(capsys):
    """x2^10000 x1 = q^10000 x1 x2^10000 + [10000]_q x2^9999 on the
    q-Weyl tower over Q(q), by square and multiply in under 2 s."""
    start = time.perf_counter()
    assert run(["mul", "--tower", fixture("qweyl_q.tw"), "x2^10000", "x1"]) == 0
    elapsed = time.perf_counter() - start
    q_integer = " + ".join([f"q^{j}" for j in range(9999, 1, -1)] + ["q", "1"])
    expected = f"q^10000 * x1 x2^10000 + ({q_integer}) * x2^9999\n"
    assert capsys.readouterr().out == expected
    assert elapsed < 2.0


def _mat6_conj_tower(tmp_path):
    """Mat_6(Q(q)) with sigma = conj(u), u ones on and above the diagonal
    and q in the bottom-left corner: conj(u) has infinite order."""
    rows = [["1" if j >= i else "0" for j in range(6)] for i in range(6)]
    rows[5][0] = "q"
    u = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    path = tmp_path / "mat6.tw"
    text = "[base]\nkind = matrix\nfield = Q(q)\nsize = 6\n\n"
    path.write_text(f"{text}[[level]]\nvar = x\nsigma_base = conj({u})\n", encoding="utf-8")
    return str(path)


def test_matrix_order_time_gate(capsys, tmp_path):
    """order on the Mat_6(Q(q)) conj(u) tower finds no order within 200
    in under 10 s (stepping the 36 x 36 powers took about 110 s on a
    2-vCPU x86-64 VM)."""
    start = time.perf_counter()
    argv = ["order", "--tower", _mat6_conj_tower(tmp_path), "--level", "1", "--order-bound", "200"]
    assert run(argv) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == "no order within bound 200\n"
    assert elapsed < 10.0


def test_matrix_order_time_gate_at_the_cap(capsys, tmp_path):
    """The same tower at the cap of 1000 in under 20 s (screening the
    36 x 36 action by one column took about 80 s on a 2-vCPU x86-64 VM;
    stepping the 6 x 6 powers of u takes about 6 s)."""
    start = time.perf_counter()
    argv = ["order", "--tower", _mat6_conj_tower(tmp_path), "--level", "1", "--order-bound", "1000"]
    assert run(argv) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == "no order within bound 1000\n"
    assert elapsed < 20.0


def test_order_refuses_a_sigma_that_is_no_conjugation(capsys, tmp_path):
    """A linear(...) sigma on Mat_2(Q) that is invertible but not
    multiplicative, diag(1, 2, 3, 4) on the units (sigma(e12) sigma(e21)
    = 6 e11, sigma(e11) = e11), is no automorphism: validate rejects it,
    and order refuses it as validation does instead of stepping it."""
    path = tmp_path / "linear.tw"
    path.write_text(
        "[base]\nkind = matrix\nfield = Q\nsize = 2\n\n[[level]]\nvar = x\n"
        "sigma_base = linear([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])\n",
        encoding="utf-8",
    )
    assert run(["validate", "--tower", str(path)]) == 1
    capsys.readouterr()
    assert run(["order", "--tower", str(path), "--level", "1", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "HypothesisViolation"
    assert "no conjugation" in payload["error"]


def test_commands_leave_no_oretower_cycles(capsys):
    """Every command on every fixture frees its towers, polynomials,
    scalars, matrices and base maps by reference counting: with the
    collector off, a collection under DEBUG_SAVEALL finds none of them
    in a reference cycle (json's indent encoder and argparse leave
    cycles of their own, which are not counted here)."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for path in sorted(FIXTURES.glob("*.tw")):
            names = re.findall(r"^var *= *(\w+)", path.read_text(encoding="utf-8"), re.M)
            for args in (
                ["validate"],
                ["mul", f"{names[-1]}^3", names[0]],
                ["central", names[-1]],
                ["order", "--level", "1"],
                ["erase"],
                ["erase-all"],
                ["swap", "--level", "2"],
                ["gr"],
                ["pi-check", "--witness-bound", "6"],
            ):
                run([args[0], "--tower", str(path), "--json", *args[1:]])
        capsys.readouterr()
        gc.collect()
        kept = [o for o in gc.garbage if isinstance(o, (OreTower, SkewPoly, Scalar, Matrix, BaseMap))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert kept == []


def test_gr_command(capsys):
    rc = run(["gr", "--tower", fixture("three_level.tw"), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    graded = parse_tower_text(payload["tower"])
    a, c = graded.sigma_var(2, 1)
    assert a == graded.base.field.coerce(5) and not c
    assert all(check["ok"] for check in payload["closure_checks"])


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-decimal digit limit"
)
def test_result_past_the_int_digit_limit_fails_cleanly(capsys):
    """lambda^15000 = 2^15000 has 4,516 digits, past CPython's default
    limit of 4,300: ``mul`` exits 1 with a ResultTooLarge report instead of
    a traceback, while lambda^14000 still prints."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        tower = fixture("qplane_lambda2.tw")
        assert run(["mul", "--tower", tower, "--json", "x2^1000", "x1^15"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error" and payload["kind"] == "ResultTooLarge"
        assert "4300 digits" in payload["error"]
        assert run(["mul", "--tower", tower, "x2^1000", "x1^15"]) == 1
        assert capsys.readouterr().out.startswith("error[ResultTooLarge]: ")
        assert run(["mul", "--tower", tower, "--json", "x2^1000", "x1^14"]) == 0
        assert str(2**14000) in json.loads(capsys.readouterr().out)["product"]
    finally:
        sys.set_int_max_str_digits(limit)


def test_erase_error_exit_code(capsys, tmp_path):
    # delta without q cannot be erased: mathematical failure, exit 1
    no_q = tmp_path / "noq.tw"
    no_q.write_text(
        "[base]\nkind = field\nfield = Q\n\n"
        "[[level]]\nvar = x1\n\n"
        "[[level]]\nvar = x2\ndelta x1 = 1\n",
        encoding="utf-8",
    )
    rc = run(["erase", "--tower", str(no_q), "--json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "error"
    assert payload["kind"] == "UnsupportedErasure"


def test_json_reports_are_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["erase-all", "--tower", fixture("qweyl_zeta3.tw"), "--out", str(out1)]) == 0
    assert run(["erase-all", "--tower", fixture("qweyl_zeta3.tw"), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_matrix_erase_command(capsys):
    rc = run(["erase", "--tower", fixture("mat2_inner.tw"), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["branch"] == "inner"
    assert payload["witness"]["b"] == "[[0, 1], [0, 0]]"


def test_rendered_polynomials_parse_back():
    import random

    from oretower.cli import _Context, _eval_expr

    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import ARITHMETIC_FIXTURES, random_poly

    rng = random.Random(55)
    for name in ("qplane_z3", "qweyl_q", "weyl_gf5", "mat2_inner", "three_level"):
        tower = ARITHMETIC_FIXTURES[name]()
        names = tower.level_names()
        ctx = _Context(
            tower.base.field,
            tower=tower,
            allowed_vars=names,
            all_vars=names,
            allow_matrix=tower.base.kind == "matrix",
        )
        for _ in range(10):
            p = random_poly(tower, rng, max_degree=2)
            if p.is_zero():
                continue
            value = _eval_expr(str(p), 1, ctx)
            from oretower.skewpoly import SkewPoly

            if not isinstance(value, SkewPoly):
                value = SkewPoly.from_base(tower, tower.base.coerce(value))
            assert value == p, f"{name}: {p}"


def test_matrix_literal_parsing_in_expressions(capsys):
    rc = run(
        [
            "mul",
            "--tower",
            fixture("mat2_inner.tw"),
            "[[0, 1], [0, 0]] * x",
            "[[0, 0], [1, 0]]",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.strip()
    # e12 x e21 = e12 (sigma(e21) = q e21, delta(e21) = e11 q - ... ) -- just
    # re-parse and verify against direct computation
    tower = parse_tower_file(fixture("mat2_inner.tw"))
    from oretower.skewpoly import SkewPoly

    field = tower.base.field
    e12 = Matrix.unit(field, 2, 0, 1)
    e21 = Matrix.unit(field, 2, 1, 0)
    expected = (SkewPoly.from_base(tower, e12) * tower.var(0)) * SkewPoly.from_base(
        tower, e21
    )
    assert out == str(expected)


@pytest.mark.parametrize(
    "base, message",
    [
        ("field = cyclotomic(1001)", "cyclotomic order exceeds 1000"),
        ("field = cyclotomic(" + "9" * 5000 + ")", "cyclotomic order exceeds 1000"),
        ("kind = matrix\nfield = Q\nsize = 7", "matrix size larger than 6"),
        ("kind = matrix\nfield = Q\nsize = " + "9" * 5000, "matrix size larger than 6"),
        ("field = gf(1" + "0" * 23 + ")", "gf(p) takes p of at most 23 digits"),
        ("field = gf(" + "9" * 5000 + ")", "gf(p) takes p of at most 23 digits"),
    ],
    ids=[
        "order_cap_plus_one",
        "order_5000_digits",
        "size_cap_plus_one",
        "size_5000_digits",
        "prime_24_digits",
        "prime_5000_digits",
    ],
)
def test_resource_caps_refuse_before_allocation(base, message, capsys, tmp_path, monkeypatch):
    from oretower import cli, scalars
    from oretower.tower import BaseRing

    assert scalars.MAX_CYCLOTOMIC_ORDER == 1000 and cli.MAX_MATRIX_SIZE == 6
    assert scalars.MAX_PRIME_DIGITS == 23

    def refuse(*args):
        raise AssertionError("built past a cap")

    monkeypatch.setattr(scalars, "cyclotomic_polynomial", refuse)
    monkeypatch.setattr(scalars, "is_prime", refuse)
    monkeypatch.setattr(BaseRing, "matrix_ring", classmethod(refuse))
    path = tmp_path / "capped.tw"
    path.write_text(f"[base]\n{base}\n\n[[level]]\nvar = x1\n", encoding="utf-8")
    assert run(["validate", "--tower", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line ") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, flag, cap",
    [
        ("order", "--order-bound", 1000),
        ("pi-check", "--order-bound", 1000),
        ("erase", "--search-degree", 12),
        ("erase-all", "--search-degree", 12),
        ("pi-check", "--witness-bound", 64),
    ],
)
def test_integer_flags_are_capped(command, flag, cap, capsys, monkeypatch):
    from oretower import cli

    assert getattr(cli, "MAX_" + flag[2:].replace("-", "_").upper()) == cap

    def refuse(path):
        raise AssertionError("work started past a cap")

    monkeypatch.setattr(cli, "parse_tower_file", refuse)
    argv = [command, "--tower", fixture("three_level.tw")]
    if command == "order":
        argv += ["--level", "2"]
    for value in (str(cap + 1), "-1", "9" * 5000):
        assert run(argv + [flag, value]) == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: must be an integer from 0 to {cap}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("validate", "--sample-budget", "5"),
        ("gr", "--rees-degree", "4"),
        ("erase-all", "--verify-degree", "4"),
    ],
)
def test_removed_flags_are_usage_errors(command, flag, value, capsys):
    assert run([command, "--tower", fixture("three_level.tw"), flag, value]) == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert captured.out == ""


# each command's required arguments past --tower, and its capped integer flag
_ARGV_REQUIRED = {
    "validate": [], "mul": ["x", "y"], "central": ["x"], "order": ["--level", "1"],
    "erase": [], "erase-all": [], "swap": ["--level", "2"], "gr": [], "pi-check": [],
}
_ARGV_CAPPED = {
    "order": "--order-bound", "erase": "--search-degree", "erase-all": "--search-degree",
    "pi-check": "--witness-bound",
}


class _Parsed(Exception):
    """Raised in place of a command's work, with the arguments it was given."""


def _argv_outcome(call, capsys):
    try:
        outcome = call()
    except _Parsed as exc:
        outcome = vars(exc.args[0])
    except SystemExit as exc:
        outcome = int(exc.code or 0)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("command", [None, *_ARGV_REQUIRED])
def test_run_parses_argv_as_the_top_level_parser(command, capsys, monkeypatch):
    """Whichever parser reads argv, run gives the top-level parser's
    arguments, exit code, stdout and stderr."""
    from oretower import cli

    def parsed(args, tower):
        raise _Parsed(args)

    monkeypatch.setattr(cli, "_dispatch", parsed)
    tower = fixture("qweyl_q.tw")
    if command is None:
        cases = [[], ["frobnicate", "--tower", tower], ["--help"]]
    else:
        rest = _ARGV_REQUIRED[command]
        cases = [
            [command, "--help"],
            [command],
            [command, "--tower", tower, *rest, "extra"],
            [command, "--tow", tower, *rest],
        ]
        if command in _ARGV_CAPPED:
            cases.append([command, "--tower", tower, *rest, _ARGV_CAPPED[command], "1001"])
    parser, _commands = cli._build_parser()
    for argv in cases:
        expected = _argv_outcome(lambda: vars(parser.parse_args(argv)), capsys)
        assert _argv_outcome(lambda: run(argv), capsys) == expected, argv
        assert expected[0] in (0, 2) or expected[0]["tower"] == tower, argv


def test_readme_command_line_matches_the_parser():
    """Each synopsis line under the README's "## Command line" lists the
    subcommand's options other than --tower, --json and --out, and the
    integer-flags paragraph gives every capped flag with the value of the
    ``cli.MAX_*`` constant it names."""
    from oretower import cli

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    synopsis = section.split("```")[1].strip().splitlines()
    _parser, commands = cli._build_parser()
    assert sorted(line.split()[1] for line in synopsis) == sorted(commands)
    for line in synopsis:
        sub = commands[line.split()[1]]
        options = {opt for action in sub._actions for opt in action.option_strings}
        assert set(re.findall(r"--[a-z-]+", line)) - {"--tower"} == options - {
            "-h", "--help", "--tower", "--json", "--out"
        }, line

    caps = " ".join(section.split("Integer flags take values", 1)[1].split("\n\n")[0].split())
    stated = re.findall(r"`(--[a-z-]+)` (\d+)", caps)
    names = re.findall(r"`cli\.(MAX_[A-Z_]+)`", caps)
    assert names == ["MAX_" + flag[2:].replace("-", "_").upper() for flag, _ in stated]
    for name, (_flag, value) in zip(names, stated):
        assert getattr(cli, name) == int(value), name
    capped = {
        opt
        for sub in commands.values()
        for action in sub._actions
        if getattr(action.type, "__qualname__", "").startswith("_count.")
        for opt in action.option_strings
    }
    assert {flag for flag, _ in stated} == capped


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    no_q = tmp_path / "noq.tw"
    no_q.write_text(
        "[base]\nkind = field\nfield = Q\n\n"
        "[[level]]\nvar = x1\n\n"
        "[[level]]\nvar = x2\ndelta x1 = 1\n",
        encoding="utf-8",
    )
    missing = tmp_path / "missing" / "x.json"
    validate = ["validate", "--tower", fixture("qplane_zeta3.tw")]
    cases = [
        (validate, missing, errno.ENOENT),
        (validate, tmp_path, errno.EISDIR),
        # an OreError report (exit 1 when written) meets the same check
        (["erase", "--tower", str(no_q), "--json"], missing, errno.ENOENT),
    ]
    for argv, out, code in cases:
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {os.strerror(code)}\n"
        assert captured.out == ""


@pytest.mark.parametrize(
    "base, name",
    [
        ("kind = field\nfield = Q(t)", "t"),
        ("kind = field\nfield = cyclotomic(3)", "z"),
        ("kind = field\nfield = cyclotomic(3)(t)", "z"),
        ("kind = matrix\nsize = 2\nfield = Q(q)", "q"),
    ],
)
def test_tower_variable_cannot_shadow_a_field_generator(base, name, capsys, tmp_path):
    text = f"[base]\n{base}\n\n[[level]]\nvar = x1\n\n[[level]]\nvar = {name}\n"
    line = text.splitlines().index(f"var = {name}") + 1
    with pytest.raises(ParseError) as exc:
        parse_tower_text(text)
    # the error points at the name, the value of "var = "
    assert (exc.value.line, exc.value.column) == (line, 7)
    path = tmp_path / "shadow.tw"
    path.write_text(text + "delta_base = 1\n", encoding="utf-8")
    assert run(["central", "--tower", str(path), name]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: line {line}, column 7: variable {name!r} names a generator of the field\n"
    )
    assert captured.out == ""


def test_cached_parser_carries_no_state(capsys):
    from oretower import cli

    argv = ["erase-all", "--tower", fixture("qweyl_zeta3.tw"), "--json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(["validate"]) == 2
    capsys.readouterr()
    assert run(["erase-all", "--tower", fixture("qweyl_zeta3.tw"), "--search-degree", "0"]) == 1
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert cli._build_parser() is cli._build_parser()


def test_matrix_literal_divided_by_scalar(capsys, tmp_path):
    tower = fixture("mat2_inner.tw")
    assert run(["mul", "--tower", tower, "[[1, 0], [0, q]] / 2", "x"]) == 0
    divided = capsys.readouterr().out
    assert run(["mul", "--tower", tower, "[[1/2, 0], [0, q/2]]", "x"]) == 0
    assert divided == capsys.readouterr().out
    assert run(["mul", "--tower", tower, "[[1, 0], [0, q]] / 0", "x"]) == 2
    assert "division by zero" in capsys.readouterr().err
    mat2 = Path(tower).read_text(encoding="utf-8")
    halved = mat2.replace("conj([[1, 0], [0, q]])", "conj([[1, 0], [0, q]] / 2)")
    assert halved != mat2
    path = tmp_path / "halved.tw"
    path.write_text(halved, encoding="utf-8")
    assert run(["validate", "--tower", str(path)]) == 0
    assert capsys.readouterr().out.startswith("valid")


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    argv = ["validate", "--tower", "tests/fixtures/qplane_zeta3.tw", "--json"]
    monkeypatch.chdir(ROOT)
    code = run(argv)
    out = capsys.readouterr().out
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "oretower", *argv],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and json.loads(out)["valid"] is True


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
def test_closed_stdout_exits_one_without_traceback(flags):
    """A reader that closed the pipe before the command writes to it ends
    the command with exit 1 and nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "oretower", "validate", "--tower", fixture("qweyl_q.tw"), *flags],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": path},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_every_private_helper_has_a_caller():
    """A private module-level function or class of the package is named
    somewhere in the package outside its own definition."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in (ROOT / "src" / "oretower").glob("*.py")
    }
    uses = []  # (module, line, name) of every name, attribute and import
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                uses.append((module, node.lineno, node.name))
    dead = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(
            name == node.name and not (mod == module and node.lineno <= line <= node.end_lineno)
            for mod, line, name in uses
        )
    ]
    assert dead == []


def test_only_skewpoly_and_tower_name_the_trusted_constructor():
    """``SkewPoly._of`` stores a term dict unchecked, for ring results that
    are clean by construction; cli, erase, graded and pi, which handle
    parsed or user input, go through the checking ``SkewPoly(tower, terms)``."""
    named = {
        path.name
        for path in (ROOT / "src" / "oretower").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "_of")
        or (isinstance(node, ast.Name) and node.id == "_of")
        or (isinstance(node, ast.Constant) and node.value == "_of")
    }
    assert "skewpoly.py" in named  # the gate looks for the right name
    assert named <= {"skewpoly.py", "tower.py"}


def test_only_scalars_reads_the_matrix_layout():
    """A Matrix stores its entries as field reps in ``_rows``, and
    ``Matrix._from_reps`` stores reps unchecked; the row-major order in
    which a map on Mat_m acts is built from ``kron``.  Only scalars names
    any of the three, and tower takes only public names from scalars."""
    layout = ("_rows", "_from_reps", "kron")
    named, tower_imports = set(), set()
    for path in (ROOT / "src" / "oretower").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and path.name == "tower.py":
                if node.module == "scalars":
                    tower_imports.update(alias.name for alias in node.names)
            elif (
                (isinstance(node, ast.Attribute) and node.attr in layout)
                or (isinstance(node, ast.Name) and node.id in layout)
                or (isinstance(node, ast.Constant) and node.value in layout)
            ):
                named.add(path.name)
    assert named == {"scalars.py"}  # the gate looks for the right names
    assert "Matrix" in tower_imports
    assert not any(name.startswith("_") for name in tower_imports), tower_imports


def test_traced_names_resolve():
    """Every (module, attribute) the benchmark tracer patches by name
    exists, and every field class takes add, mul and inv from a class
    holding all three in its own ``__dict__``, where the tracer patches
    them.  The tracer file is read, not imported."""
    import importlib

    from oretower import scalars

    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text(encoding="utf-8"))
    consts = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("TARGETS", "FIELD_METHODS")
    }
    assert consts["TARGETS"]
    for module_name, path, _span in consts["TARGETS"]:
        owner = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), path
        else:
            assert callable(getattr(owner, path, None)), f"{module_name}.{path}"

    methods = [method for method, _span in consts["FIELD_METHODS"]]
    field_classes = [
        cls
        for cls in vars(scalars).values()
        if isinstance(cls, type) and issubclass(cls, scalars._FieldBase)
    ]
    assert len(field_classes) >= 5
    for cls in field_classes:
        for method in methods:
            holder = next(k for k in cls.__mro__ if method in vars(k))
            assert all(m in vars(holder) for m in methods), (cls, method)
            assert getattr(scalars, holder.__name__) is holder

