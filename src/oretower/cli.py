"""Tower-definition files, expression parsing, and the command driver.

Tower files are line-oriented with a ``[base]`` section and one
``[[level]]`` section per variable::

    [base]
    kind = field            # or: matrix (with size = m)
    field = cyclotomic(3)   # Q | gf(p) | cyclotomic(n) | Q(t) | ...

    [[level]]
    var = x1

    [[level]]
    var = x2
    sigma x1 = z * x1       # sigma of this level on a lower variable
    delta x1 = 1            # delta of this level on a lower variable
    q = z                   # optional quantisation value

Base maps take ``sigma_base`` / ``delta_base`` values: ``id`` / ``zero``,
a scalar expression (the image of the field generator), or for matrix
bases ``conj(M)``, ``inner(M)`` and the raw ``linear(L)`` form.

Expressions use + - * / ^, parentheses, integer literals, the field
generator by name, matrix literals ``[[...], [...]]``, and tower
variables; adjacency multiplies, so rendered polynomials such as
``(q - 1) * x1 x2 + 1`` parse back.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys

from .errors import (
    DivisionByZero,
    FieldMismatch,
    HypothesisViolation,
    OreError,
    ParseError,
    ScalarError,
    UnknownVariableReference,
)
from .erase import DEFAULT_SEARCH_DEGREE, _swap_collect, erase_all, erase_top
from .graded import associated_graded_tower
from .pi import DEFAULT_ORDER_BOUND, centrality_witness, pi_report
from .scalars import Matrix, Scalar, _wrap, parse_field
from .skewpoly import SkewPoly, check_ring_map, is_central
from .tower import (
    NO_MAP,
    BaseMap,
    BaseRing,
    OreTower,
    TowerLevel,
    map_order,
    require_base_automorphism,
)


class UsageError(Exception):
    """A flag value that the tower rules out, such as a ``--level`` above
    its height; exits 2 as a parse error does, but has no position."""


# ---------------------------------------------------------------------------
# expression tokens


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


_SYMBOLS = "+-*/^()[],"
# blanks, then an ASCII number, a word or one other character; \s is
# exactly str.isspace(), and \w exactly str.isalnum() or "_"
_TOKEN_RE = re.compile(r"(\s*)([0-9]+|\w+|\S)")

# nesting of parentheses, matrix brackets and unary minus signs in one
# expression; the parser recurses once per level
MAX_EXPR_NESTING = 64
# digits in one integer literal; checked before int() converts it
MAX_LITERAL_DIGITS = 1000
# |k| in a power a^k, and each variable's exponent in the top monomial of a
# polynomial product or power the parser computes; products memoise
# x_i * x^lower for every exponent up to k, so the bound caps that table
MAX_EXPR_EXPONENT = 10_000
# m of a Mat_m base; a base map is an m^2 x m^2 matrix, validation checks
# its read with about 2m^2 products of m x m matrices (2m^5 field products),
# and order steps m x m powers of the conjugator, m^3 field products each
MAX_MATRIX_SIZE = 6
# upper bounds of the integer flags, checked by argparse on the digit
# string before any tower is read; at each cap a command on the test
# fixtures takes about 2 s at most
# steps of a base map; above the order of every automorphism of Q(zeta_n)
# for n up to scalars.MAX_CYCLOTOMIC_ORDER
MAX_ORDER_BOUND = 1000
# total degree of the erase candidate search
MAX_SEARCH_DEGREE = 12
# powers of each variable tested for centrality
MAX_WITNESS_BOUND = 64


def _tokenize(text: str, line: int, col_offset: int = 0) -> list[_Token]:
    tokens = []
    col = col_offset + 1
    for blanks, value in _TOKEN_RE.findall(text):
        col += len(blanks)
        ch = value[0]
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
        elif "0" <= ch <= "9":
            if len(value) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    line, col, f"integer literal longer than {MAX_LITERAL_DIGITS} digits"
                )
            tokens.append(_Token("num", int(value), line, col))
        elif ch.isalpha() or ch == "_":
            tokens.append(_Token("ident", value, line, col))
        else:
            raise ParseError(line, col, f"unexpected character {ch!r}")
        col += len(value)
    tokens.append(_Token("end", None, line, len(text) + 1 + col_offset))
    return tokens


def _shown(tok: _Token) -> str:
    return "end of expression" if tok.kind == "end" else repr(tok.value)


class _ExprParser:
    """Recursive-descent evaluator for scalar / matrix / polynomial values."""

    def __init__(self, tokens, context):
        self.tokens = tokens
        self.pos = 0
        self.ctx = context
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, name=None) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise ParseError(
                tok.line, tok.col, f"expected {name or repr(kind)}, found {_shown(tok)}"
            )
        return tok

    @contextlib.contextmanager
    def nested(self, tok: _Token):
        self.depth += 1
        if self.depth > MAX_EXPR_NESTING:
            raise ParseError(tok.line, tok.col, "expression nested too deeply")
        yield
        self.depth -= 1

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.line, tok.col, f"unexpected {_shown(tok)}")
        return value

    # expr := term (('+'|'-') term)*
    def expr(self):
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = self._add(value, rhs, op) if op.kind == "+" else self._sub(value, rhs, op)
        return value

    # term := unary (('*'|'/') unary | <adjacent unary>)*
    def term(self):
        value = self.unary()
        while True:
            tok = self.peek()
            if tok.kind in ("*", "/"):
                op = self.take()
                rhs = self.unary()
                value = self._mul(value, rhs, op) if op.kind == "*" else self._div(value, rhs, op)
            elif tok.kind in ("num", "ident", "(", "["):
                rhs = self.unary()
                value = self._mul(value, rhs, tok)
            else:
                return value

    def unary(self):
        tok = self.peek()
        if tok.kind == "-":
            self.take()
            with self.nested(tok):
                return self._neg(self.unary())
        return self.power()

    def power(self):
        value = self.primary()
        if self.peek().kind == "^":
            op = self.take()
            sign = 1
            if self.peek().kind == "-":
                self.take()
                sign = -1
            num = self.expect("num", "an integer exponent")
            if num.value > MAX_EXPR_EXPONENT:
                raise ParseError(
                    num.line, num.col, f"exponent larger than {MAX_EXPR_EXPONENT}"
                )
            value = self._pow(value, sign * num.value, op)
        return value

    def primary(self):
        tok = self.take()
        if tok.kind == "num":
            return self.ctx.field.coerce(tok.value)
        if tok.kind == "(":
            with self.nested(tok):
                value = self.expr()
                self.expect(")")
            return value
        if tok.kind == "[":
            with self.nested(tok):
                return self.matrix(tok)
        if tok.kind == "ident":
            return self.ctx.resolve(tok)
        raise ParseError(tok.line, tok.col, f"unexpected {_shown(tok)}")

    def matrix(self, opening: _Token) -> Matrix:
        if not self.ctx.allow_matrix:
            raise FieldMismatch("matrix literal where a scalar is required")
        rows = []
        while True:
            self.expect("[")
            row = []
            while True:
                entry = self.expr()
                if not isinstance(entry, Scalar):
                    raise ParseError(opening.line, opening.col, "matrix entries must be scalars")
                row.append(entry)
                if self.peek().kind == ",":
                    self.take()
                    continue
                break
            self.expect("]")
            rows.append(row)
            if self.peek().kind == ",":
                self.take()
                continue
            break
        self.expect("]")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError(opening.line, opening.col, "ragged matrix literal")
        return Matrix(self.ctx.field, rows)

    # -- operations over the scalar/matrix/poly union ---------------------

    def _promote_pair(self, a, b):
        if isinstance(a, SkewPoly) or isinstance(b, SkewPoly):
            return self.ctx.as_poly(a), self.ctx.as_poly(b)
        return a, b

    def _add(self, a, b, op):
        a, b = self._promote_pair(a, b)
        if isinstance(a, Matrix) != isinstance(b, Matrix):
            raise ParseError(op.line, op.col, "cannot add a matrix and a scalar")
        return a + b

    def _sub(self, a, b, op):
        a, b = self._promote_pair(a, b)
        if isinstance(a, Matrix) != isinstance(b, Matrix):
            raise ParseError(op.line, op.col, "cannot subtract a matrix and a scalar")
        return a - b

    def _mul(self, a, b, op):
        a, b = self._promote_pair(a, b)
        if isinstance(a, SkewPoly):
            self._cap_exponents(map(sum, zip(_top_exponents(a), _top_exponents(b))), op)
        return a * b

    def _div(self, a, b, op):
        if isinstance(b, SkewPoly) or isinstance(b, Matrix):
            raise ParseError(op.line, op.col, "division only by scalars")
        if b.is_zero():
            raise ParseError(op.line, op.col, "division by zero")
        return a * b.inverse()

    def _neg(self, a):
        return -a

    def _cap_exponents(self, exponents, op):
        """Refuse, before it is computed, a product or power of polynomials
        whose top monomial has a variable exponent above MAX_EXPR_EXPONENT."""
        if any(e > MAX_EXPR_EXPONENT for e in exponents):
            raise ParseError(op.line, op.col, f"exponent larger than {MAX_EXPR_EXPONENT}")

    def _pow(self, a, k, op):
        if isinstance(a, SkewPoly):
            if k < 0:
                raise ParseError(op.line, op.col, "negative powers of polynomials")
            self._cap_exponents((k * e for e in _top_exponents(a)), op)
        try:
            return a ** k
        except (ScalarError, ValueError) as exc:
            raise ParseError(op.line, op.col, str(exc)) from exc


def _top_exponents(p: SkewPoly) -> list[int]:
    """The highest exponent of each variable in p (empty for zero)."""
    return [max(column) for column in zip(*p.terms)]


class _Context:
    """Name resolution for one expression in ``tower``: its field generator
    and the variables of its levels below ``below``; the others are out of scope."""

    def __init__(self, tower: OreTower, below: int, allow_matrix: bool = False):
        self.tower = tower
        self.field = tower.base.field
        self.names = tower.level_names()
        self.in_scope = self.names[:below]
        self.allow_matrix = allow_matrix

    def resolve(self, tok: _Token):
        name = tok.value
        if name in self.in_scope:
            return SkewPoly.variable(self.tower, self.in_scope.index(name))
        gen = self.field.generator_named(name)
        if gen is not None:
            return gen
        if name in self.names:
            raise UnknownVariableReference(
                tok.line, tok.col, f"variable {name!r} is not in scope here"
            )
        if name[-1].isdigit():
            raise UnknownVariableReference(
                tok.line, tok.col, f"unknown variable {name!r}"
            )
        raise ParseError(tok.line, tok.col, f"unknown name {name!r}")

    def as_poly(self, value) -> SkewPoly:
        """``value`` in the context's tower."""
        if isinstance(value, SkewPoly):
            return value
        return SkewPoly.from_base(self.tower, value)


def _eval_expr(text, line, context, col_offset=0):
    return _ExprParser(_tokenize(text, line, col_offset), context).parse()


# ---------------------------------------------------------------------------
# tower files


def parse_tower_text(text: str) -> OreTower:
    """Parse a tower definition; returns an unvalidated tower."""
    sections = _split_sections(text)
    if not sections or sections[0][0] != "base":
        raise ParseError(1, 1, "file must start with a [base] section")
    base = _parse_base(sections[0][1])
    level_sections = sections[1:]
    for kind, _items, line in level_sections:
        if kind != "level":
            raise ParseError(line, 1, f"unexpected section [{kind}]")

    names = []
    for _kind, items, line in level_sections:
        var_entry = next(((v, l, c) for k, v, l, c in items if k == "var"), None)
        if var_entry is None:
            raise ParseError(line, 1, "level section missing 'var'")
        name, var_line, offset = var_entry
        if not name.isidentifier():
            raise ParseError(var_line, offset + 1, f"bad variable name {name!r}")
        if base.field.generator_named(name) is not None:
            raise ParseError(
                var_line, offset + 1, f"variable {name!r} names a generator of the field"
            )
        names.append(name)
    if len(set(names)) != len(names):
        raise ParseError(1, 1, "duplicate variable names")

    # level i is parsed in the tower of the levels parsed so far, with bare
    # levels above; each level is normalised once, when it goes in; q and
    # base-map values see no variables, and only matrix_ctx sees matrices
    tower = OreTower.bare(base, names)
    scalar_ctx = _Context(tower, 0)
    matrix_ctx = _Context(tower, 0, allow_matrix=True)
    for i, (_kind, items, _line) in enumerate(level_sections):
        level = _parse_level(tower, i, items, scalar_ctx, matrix_ctx)
        tower = tower.with_level(i, level)
    return tower


def parse_tower_file(path: str) -> OreTower:
    with open(path, "rb") as fh:
        return parse_tower_text(fh.read().decode("utf-8"))


def _split_sections(text: str):
    """The sections of a tower file as (name, items, line), where each item
    is (key, value, line, offset) and ``offset`` is the number of
    characters before the stripped value on its line."""
    sections = []
    items = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        stripped = line.lstrip()
        if not stripped:
            continue
        if stripped[0] == "[":
            width = 2 if stripped.startswith("[[") else 1
            if not stripped.endswith("]" * width):
                raise ParseError(lineno, 1, "unterminated section header")
            items = []
            sections.append((stripped[width:-width].strip(), items, lineno))
            continue
        if items is None:
            raise ParseError(lineno, 1, "content before the first section")
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(lineno, 1, "expected 'key = value'")
        value = value.lstrip()
        items.append((key.strip(), value, lineno, len(line) - len(value)))
    return sections


def _parse_base(items) -> BaseRing:
    kind = "field"
    field = None
    size = None
    for key, value, line, _col in items:
        if key == "kind":
            if value not in ("field", "matrix"):
                raise ParseError(line, 1, f"unknown base kind {value!r}")
            kind = value
        elif key == "field":
            try:
                field = parse_field(value)
            except ValueError as exc:
                raise ParseError(line, 1, str(exc)) from exc
        elif key == "size":
            digits = value.lstrip("0")
            if not (value.isascii() and value.isdigit() and digits):
                raise ParseError(line, 1, f"bad matrix size {value!r}")
            # the length is checked before int() converts the digits
            if len(digits) > len(str(MAX_MATRIX_SIZE)) or int(digits) > MAX_MATRIX_SIZE:
                raise ParseError(line, 1, f"matrix size larger than {MAX_MATRIX_SIZE}")
            size = int(digits)
        else:
            raise ParseError(line, 1, f"unknown base key {key!r}")
    if field is None:
        raise ParseError(1, 1, "base section missing 'field'")
    if kind == "matrix":
        if size is None:
            raise ParseError(1, 1, "matrix base missing 'size'")
        return BaseRing.matrix_ring(field, size)
    if size is not None:
        raise ParseError(1, 1, "'size' is only valid for matrix bases")
    return BaseRing.field_ring(field)


def _parse_level(shell, index, items, scalar_ctx, matrix_ctx) -> TowerLevel:
    sigma_base = delta_base = NO_MAP
    sigma_vars: dict = {}
    delta_vars: dict = {}
    q = None
    delta_base_entry = None

    names = shell.level_names()
    poly_ctx = _Context(shell, index, allow_matrix=shell.base.kind == "matrix")

    for key, value, line, col in items:
        if key == "var":
            continue
        if key == "sigma_base":
            sigma_base = _parse_base_map("sigma", value, line, col, scalar_ctx, matrix_ctx)
        elif key == "delta_base":
            delta_base_entry = (value, line, col)
        elif key == "q":
            q = _eval_expr(value, line, scalar_ctx, col)
        elif key.startswith("sigma ") or key.startswith("delta "):
            target = key.split(None, 1)[1].strip()
            if target not in names:
                raise UnknownVariableReference(
                    line, 1, f"unknown variable {target!r}"
                )
            j = names.index(target)
            if j >= index:
                raise UnknownVariableReference(
                    line, 1, f"variable {target!r} is not below level {index + 1}"
                )
            val = poly_ctx.as_poly(_eval_expr(value, line, poly_ctx, col))
            if key.startswith("sigma "):
                sigma_vars[j] = _split_sigma_image(val, j, line, col)
            else:
                # poly_ctx resolves only the variables below this level
                delta_vars[j] = val.terms
        else:
            raise ParseError(line, 1, f"unknown level key {key!r}")

    if delta_base_entry is not None:
        value, line, col = delta_base_entry
        delta_base = _parse_base_map(
            "delta", value, line, col, scalar_ctx, matrix_ctx, sigma_base
        )
    return TowerLevel(
        name=names[index],
        sigma_base=sigma_base,
        delta_base=delta_base,
        sigma_vars=sigma_vars,
        delta_vars=delta_vars,
        q=q,
    )


def _split_sigma_image(poly: SkewPoly, j: int, line: int, col: int):
    """Decompose sigma(x_j) = a * x_j + c with c below x_j."""
    height = poly.tower.height
    unit = tuple(1 if k == j else 0 for k in range(height))
    a = poly.terms.get(unit, poly.tower.base.zero)
    c_terms = {}
    for exp, coeff in poly.terms.items():
        if exp == unit:
            continue
        if any(exp[k] for k in range(j, height)):
            raise ParseError(
                line, col + 1, f"sigma image must be a * x{j + 1} + (terms below x{j + 1})"
            )
        c_terms[exp] = coeff
    return a, c_terms


def _parse_base_map(kind, text, line, col, scalar_ctx, matrix_ctx, sigma_base=NO_MAP):
    """The base map of a ``sigma_base``/``delta_base`` value ``text``,
    which starts after ``col`` characters of line ``line``."""
    base = scalar_ctx.tower.base
    if text == ("id" if kind == "sigma" else "zero"):
        return NO_MAP
    for head in ("conj", "inner", "linear"):
        if text.startswith(head + "(") and text.endswith(")"):
            if base.kind != "matrix":
                raise FieldMismatch(f"{head}(...) requires a matrix base")
            inner_text = text[len(head) + 1 : -1]
            m = _eval_expr(inner_text, line, matrix_ctx, col + len(head) + 1)
            if not isinstance(m, Matrix):
                raise ParseError(line, col + 1, f"{head}(...) takes a matrix")
            if head == "conj" and kind != "sigma":
                raise ParseError(line, col + 1, "conj(...) is a sigma form")
            if head == "inner" and kind != "delta":
                raise ParseError(line, col + 1, "inner(...) is a delta form")
            # linear(...) acts on the size^2 matrix units, conj/inner multiply
            expected = base.size * base.size if head == "linear" else base.size
            if m.nrows != expected or m.ncols != expected:
                raise ParseError(
                    line, col + 1, f"{head}(...) needs a {expected}x{expected} matrix"
                )
            if head == "conj":
                try:
                    return BaseMap.conjugation(m)
                except DivisionByZero:
                    raise ParseError(
                        line, col + 1, "conj(...) needs an invertible matrix"
                    ) from None
            if head == "inner":
                return BaseMap.inner_derivation(m, sigma_base)
            return BaseMap(m)
    if base.kind == "matrix":
        raise FieldMismatch(
            f"{kind}_base on a matrix base must be id/zero, conj(...), "
            f"inner(...) or linear(...)"
        )
    image = _eval_expr(text, line, scalar_ctx, col)
    if base.field.gen is None:
        raise FieldMismatch(
            f"{base.field.name} has no generator; only id/zero base maps exist"
        )
    return BaseMap(image)


# ---------------------------------------------------------------------------
# rendering towers back to file text


def render_tower_file(tower: OreTower) -> str:
    base = tower.base
    lines = ["[base]"]
    lines.append(f"kind = {base.kind}")
    lines.append(f"field = {base.field.name}")
    if base.kind == "matrix":
        lines.append(f"size = {base.size}")
    names = tower.level_names()
    for i, lvl in enumerate(tower.levels):
        lines.append("")
        lines.append("[[level]]")
        lines.append(f"var = {lvl.name}")
        sb = _render_base_map(lvl.sigma_base)
        if sb is not None:
            lines.append(f"sigma_base = {sb}")
        db = _render_base_map(lvl.delta_base)
        if db is not None:
            lines.append(f"delta_base = {db}")
        for j in range(i):
            a, c = tower.sigma_var(i, j)
            if a != tower.base.one or c:
                coeff = str(a) if isinstance(a, Matrix) else _wrap(str(a))
                entry = f"{coeff} * {names[j]}"
                if c:
                    entry += f" + {c}"
                lines.append(f"sigma {names[j]} = {entry}")
            d = tower.delta_var(i, j)
            if d:
                lines.append(f"delta {names[j]} = {d}")
        if lvl.q is not None:
            lines.append(f"q = {lvl.q}")
    return "\n".join(lines) + "\n"


def _render_base_map(bmap: BaseMap) -> str | None:
    action = bmap.action
    if action is None:
        return None
    return f"linear({action})" if isinstance(action, Matrix) else str(action)


# ---------------------------------------------------------------------------
# command driver


def _count(cap: int):
    """argparse type: an integer from 0 to ``cap``, refused on its digit
    string before int() converts it."""

    def parse(text: str) -> int:
        digits = text.lstrip("0")
        too_long = len(digits) > len(str(cap))
        if not (text.isascii() and text.isdigit()) or too_long or int(text) > cap:
            raise argparse.ArgumentTypeError(f"must be an integer from 0 to {cap}")
        return int(text)

    return parse


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser and its subparser for each command name; built
    once, since parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="oretower",
        description="exact computations in iterated Ore extension towers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, help):
        p = commands[name] = sub.add_parser(name, help=help)
        p.add_argument("--tower", required=True, help="tower definition file")
        p.add_argument("--json", action="store_true", help="print the JSON report")
        p.add_argument("--out", help="also write the JSON report to this file")
        return p

    # the flags that two commands share, each with its one type and default
    order_bound = {"type": _count(MAX_ORDER_BOUND), "default": DEFAULT_ORDER_BOUND}
    search_degree = {"type": _count(MAX_SEARCH_DEGREE), "default": DEFAULT_SEARCH_DEGREE}

    command("validate", "run the tower axiom checks")

    p = command("mul", "multiply two polynomial expressions")
    p.add_argument("left")
    p.add_argument("right")

    p = command("central", "test whether an expression is central")
    p.add_argument("expr")

    p = command("order", "order of a level's base automorphism")
    p.add_argument("--level", type=int, required=True, help="1-based level")
    p.add_argument("--order-bound", **order_bound)

    p = command("erase", "erase the top level's delta")
    p.add_argument("--search-degree", **search_degree)

    p = command("erase-all", "erase every delta in the tower")
    p.add_argument("--search-degree", **search_degree)

    p = command("swap", "exchange a sigma-only level with the one below")
    p.add_argument("--level", type=int, required=True, help="1-based upper level")

    command("gr", "degenerate to the associated graded tower")

    p = command("pi-check", "finite-order identity criteria")
    p.add_argument("--order-bound", **order_bound)
    p.add_argument("--witness-bound", type=_count(MAX_WITNESS_BOUND), default=0,
                   help="also search central variable powers up to this bound")
    return parser, commands


def run(argv) -> int:
    """Execute one command; returns the process exit code.

    0 on success (negative verdicts included), 1 on mathematical failure
    (invalid tower, unsupported erasure) or a result too long to print, 2
    on usage or parse errors.  A stdout closed by its reader raises
    :class:`BrokenPipeError` out of here; ``main`` turns it into exit 1
    with no traceback.
    """
    parser, commands = _build_parser()
    # a command's subparser reads the rest of argv as the top level hands it
    # over, and leftovers are refused in the top level's words
    subparser = commands.get(argv[0]) if argv else None
    try:
        if subparser is None:
            args = parser.parse_args(argv)
        else:
            args, extra = subparser.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        tower = parse_tower_file(args.tower)
    except FileNotFoundError:
        print(f"error: no such file: {args.tower}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read {args.tower}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (ParseError, FieldMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report, exit_code, human = _dispatch(args, tower)
    except (ParseError, FieldMismatch, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # str() refuses ints past sys.get_int_max_str_digits() digits, and the
        # limit stays: CPython's int-to-decimal conversion is quadratic
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        kind, error = "ResultTooLarge", f"the result holds an integer of more than {limit} digits"
    except OreError as exc:
        kind, error = type(exc).__name__, str(exc)
    else:
        return _emit(args, report, human, exit_code)
    report = {"command": args.command, "status": "error", "kind": kind, "error": error}
    return _emit(args, report, f"error[{kind}]: {error}", 1)


def _emit(args, report: dict, human: str, exit_code: int) -> int:
    """Write the report to ``--out`` and stdout; returns the exit code, 2
    when ``--out`` cannot be written."""
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    if args.json:
        sys.stdout.write(payload)
    else:
        print(human)
    return exit_code


def _dispatch(args, tower: OreTower):
    command = args.command
    if command == "validate":
        rep = tower.validation
        report = {
            "command": command,
            "valid": rep.ok,
            "checks": [
                {"level": c.level + 1, "name": c.name, "ok": c.ok, "detail": c.detail}
                for c in rep.checks
            ],
        }
        if rep.ok:
            return report, 0, f"valid: all {len(rep.checks)} checks passed"
        return report, 1, f"invalid: {rep.failure_text}"

    if command in ("mul", "central") and tower.base.kind == "field":
        # a field map that is no automorphism can blow up the degree of
        # sigma^k(gen) in k; matrix-base maps are linear and cannot
        for i, lvl in enumerate(tower.levels):
            require_base_automorphism(tower.base, lvl.sigma_base, f"sigma_{i + 1}")

    if command == "mul":
        ctx = _Context(tower, tower.height, allow_matrix=tower.base.kind == "matrix")
        left = ctx.as_poly(_eval_expr(args.left, 1, ctx))
        right = ctx.as_poly(_eval_expr(args.right, 1, ctx))
        product = str(left * right)
        return {"command": command, "product": product}, 0, product

    if command == "central":
        ctx = _Context(tower, tower.height, allow_matrix=tower.base.kind == "matrix")
        poly = ctx.as_poly(_eval_expr(args.expr, 1, ctx))
        ok, witness = is_central(poly)
        if witness is not None:
            witness = str(witness)
        report = {"command": command, "central": ok, "witness": witness}
        human = "central" if ok else f"not central; fails against {witness}"
        return report, 0, human

    if command == "order":
        level = _level_arg(args, tower)
        order = map_order(tower.base, tower.levels[level].sigma_base, args.order_bound)
        report = {"command": command, "level": level + 1, "order": order}
        human = (
            f"sigma_{level + 1} restricted to the base has order {order}"
            if order is not None
            else f"no order within bound {args.order_bound}"
        )
        return report, 0, human

    if command == "erase":
        y, new_tower, wit = erase_top(tower, args.search_degree)
        y = str(y)
        report = {
            "command": command,
            "y": y,
            "branch": wit.branch,
            "witness": _witness_json(wit),
            "tower": render_tower_file(new_tower),
        }
        human = f"branch {wit.branch}: y = {y}"
        return report, 0, human

    if command == "erase-all":
        result = erase_all(tower, args.search_degree)
        polys = {
            new_name: str(poly)
            for new_name, poly in zip(result.new_tower.level_names(), result.y_elements)
        }
        report = {
            "command": command,
            "polynomials": polys,
            "witnesses": [_witness_json(w) for w in result.witnesses],
            "warnings": list(result.warnings),
            "tower": render_tower_file(result.new_tower),
        }
        lines = [f"{name} = {expr}" for name, expr in polys.items()]
        lines.append(f"result tower: {result.new_tower!r}")
        lines.extend(f"warning: {w}" for w in result.warnings)
        return report, 0, "\n".join(lines)

    if command == "swap":
        level = _level_arg(args, tower, lowest=2)
        caught: list[str] = []
        swapped = _swap_collect(tower, level, caught)
        # the swap conditions hold on every valid tower
        # (check_swap_compatibility), so an invalid one is refused here
        if not tower.validation.ok:
            raise HypothesisViolation(f"tower is invalid: {tower.validation.failure_text}")
        images = [tower.var(k) for k in range(tower.height)]
        images[level - 1], images[level] = images[level], images[level - 1]
        check_ring_map(swapped, tower, images)
        report = {
            "command": command,
            "tower": render_tower_file(swapped),
            "warnings": caught,
        }
        human = f"swapped: {swapped!r}" + "".join(f"\nwarning: {w}" for w in caught)
        return report, 0, human

    if command == "gr":
        pres = associated_graded_tower(tower)
        report = {
            "command": command,
            "tower": render_tower_file(pres.result),
            "steps": [
                {
                    "level": s.level + 1,
                    "dropped_delta_base": s.dropped_delta_base,
                    "dropped_delta_vars": [j + 1 for j in s.dropped_delta_vars],
                    "dropped_c": [[k + 1, j + 1] for k, j in s.dropped_c],
                }
                for s in pres.step_log
            ],
            # every sigma_i keeps every x_l-filtration below it, as the graded
            # module docstring proves; the tests check it with rees_closure_check
            "closure_checks": [
                {"sigma": i + 1, "filtration": lvl + 1, "ok": True, "witness": None}
                for i in range(tower.height)
                for lvl in range(i)
            ],
        }
        return report, 0, f"graded tower: {pres.result!r}"

    if command == "pi-check":
        rep = pi_report(tower, args.order_bound)
        witnesses = []
        if args.witness_bound > 0:
            witnesses = [
                {"element": str(p), "exponent": n}
                for p, n in centrality_witness(tower, args.witness_bound)
            ]
        report = {
            "command": command,
            "verdict": rep.verdict,
            "reason": rep.reason,
            "lambda_orders": {
                f"{i + 1},{j + 1}": order
                for (i, j), order in sorted(rep.lambda_orders.items())
            },
            "base_orders": {str(i + 1): order for i, order in sorted(rep.base_orders.items())},
            "witnesses": witnesses,
            "notes": list(rep.notes),
        }
        human = f"verdict: {rep.verdict}"
        if rep.reason:
            human += f" ({rep.reason})"
        return report, 0, human

    raise AssertionError(f"unhandled command {command}")


def _level_arg(args, tower: OreTower, lowest: int = 1) -> int:
    """The 0-based index of the 1-based ``--level``, checked against [lowest, height]."""
    level, height = args.level, tower.height
    if lowest <= level <= height:
        return level - 1
    if lowest > height:
        raise UsageError(
            f"level {level} out of range: {args.command} needs a tower of height "
            f"at least {lowest}, and this one has height {height}"
        )
    raise UsageError(f"level {level} out of range {lowest}..{height}")


def _witness_json(wit) -> dict:
    return {
        "branch": wit.branch,
        "c": None if wit.c is None else str(wit.c),
        "u": None if wit.u is None else str(wit.u),
        "a": None if wit.a is None else str(wit.a),
        "v": None if wit.v is None else str(wit.v),
        "b": None if wit.b is None else str(wit.b),
    }


def main() -> None:
    try:
        code = run(sys.argv[1:])
        # a closed stdout shows here, inside the try, and not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: send what Python flushes at exit to devnull,
        # as the signal module's documentation does, and fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)
