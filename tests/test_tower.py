import dataclasses
import functools
import random
import re
import time
from pathlib import Path

import pytest

from oretower import tower as tower_module
from oretower.cli import parse_tower_file, parse_tower_text, render_tower_file
from oretower.erase import erase_all
from oretower.errors import HypothesisViolation, OreError
from oretower.graded import associated_graded_tower
from oretower.scalars import GF, QQ, CyclotomicField, FunctionField, Matrix
from oretower.skewpoly import SkewPoly, apply_level_map
from oretower.tower import (
    BaseMap,
    BaseRing,
    OreTower,
    TowerLevel,
    ValidationReport,
    _base_map_valid,
    _level_generators,
    _relation_pairs,
    check_swap_compatibility,
    map_order,
    validate_tower,
)

from test_cli_fuzz import _mutants

from conftest import (
    count_calls,
    mat2_inner_tower,
    qplane,
    qweyl,
    ratfunc_deriv_tower,
    three_level_graded,
    weyl_gf5,
    zeta5_deriv_tower,
)


def test_quantum_plane_is_valid():
    report = validate_tower(qplane(QQ, 2))
    assert report.ok
    assert report.first_failure is None


def test_quantum_weyl_is_valid_and_q_skew():
    field = FunctionField(QQ, "q")
    q = field.gen
    tower = qweyl(field, q)
    report = validate_tower(tower)
    assert report.ok
    assert tower.validation.ok
    # the two sides of the q-skew identity on x1, evaluated directly
    x1 = tower.var(0)
    ds = apply_level_map("delta", 1, apply_level_map("sigma", 1, x1))
    sd = apply_level_map("sigma", 1, apply_level_map("delta", 1, x1))
    assert ds == tower.from_base(q)
    assert sd == tower.one()
    assert ds == tower.from_base(q) * sd


def test_wrong_q_skew_is_reported():
    # delta2(x1) = x1 with q2 = q: delta sigma gives q x1, q sigma delta gives q^2 x1
    field = FunctionField(QQ, "q")
    q = field.gen
    tower = OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel("x1"),
            TowerLevel(
                "x2",
                sigma_vars={0: (q, {})},
                delta_vars={0: {(1, 0): field.one}},
                q=q,
            ),
        ],
    )
    report = validate_tower(tower)
    assert not report.ok
    assert not tower.validation.ok
    failure = report.first_failure
    assert failure.name == "q-skew identity"
    assert "q * x1" in failure.detail and "q^2 * x1" in failure.detail


def test_leibniz_failure_is_reported():
    # a linear action that is not a sigma-derivation: delta(e11) = e11, rest 0
    field = QQ
    action = Matrix.zero(field, 4, 4) + Matrix(
        field, [[1 if (i, j) == (0, 0) else 0 for j in range(4)] for i in range(4)]
    )
    tower = OreTower(
        BaseRing.matrix_ring(field, 2),
        [TowerLevel("x", delta_base=BaseMap.linear("delta", action))],
    )
    report = validate_tower(tower)
    assert not report.ok
    assert report.first_failure.name == "delta twisted Leibniz"


def test_non_invertible_a_is_reported():
    tower = OreTower(
        BaseRing.field_ring(QQ),
        [TowerLevel("x1"), TowerLevel("x2", sigma_vars={0: (QQ.zero, {})})],
    )
    report = validate_tower(tower)
    assert not report.ok
    assert "invertible" in report.first_failure.name


def test_field_action_must_be_a_root_image():
    field = CyclotomicField(3)
    tower = OreTower(
        BaseRing.field_ring(field),
        [TowerLevel("x", sigma_base=BaseMap.field_auto(field.gen + 1))],
    )
    report = validate_tower(tower)
    assert not report.ok
    assert report.first_failure.name == "sigma_base automorphism"


def test_invalid_cyclotomic_derivation_rejected():
    # sigma = id admits no nonzero derivation on Q(zeta3)
    field = CyclotomicField(3)
    tower = OreTower(
        BaseRing.field_ring(field),
        [TowerLevel("x", delta_base=BaseMap.field_deriv(field.one), q=QQ.coerce(-1))],
    )
    report = validate_tower(tower)
    assert not report.ok
    assert report.first_failure.name == "delta_base well-defined"


def test_zeta5_derivation_tower_valid():
    report = validate_tower(zeta5_deriv_tower())
    assert report.ok


def test_matrix_tower_valid():
    report = validate_tower(mat2_inner_tower())
    assert report.ok


def test_q_fixed_check():
    # q = z but sigma moves z: sigma(q) != q must be flagged
    field = CyclotomicField(5)
    z = field.gen
    w = z - z**2 - z**3 + z**4
    tower = OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel(
                "x",
                sigma_base=BaseMap.field_auto(z**2),
                delta_base=BaseMap.field_deriv(w * (z**2 - z)),
                q=z,
            )
        ],
    )
    report = validate_tower(tower)
    assert not report.ok
    names = {c.name for c in report.checks if not c.ok}
    assert "q fixed by maps" in names or "q-skew identity" in names


def test_validation_is_deterministic_and_idempotent():
    tower = qweyl(CyclotomicField(3), CyclotomicField(3).gen)
    r1 = validate_tower(tower)
    r2 = validate_tower(tower)
    assert [(c.level, c.name, c.ok) for c in r1.checks] == [
        (c.level, c.name, c.ok) for c in r2.checks
    ]


FIXTURES = Path(__file__).parent / "fixtures"
# an integer literal that is not part of a name such as x1
_LITERAL = re.compile(r"(?<![\w.])\d+")
# level 3 must respect the level-2 relation x2 x1 = l x1 x2, which only the
# pair (x2, x1) tests; no fixture has a level above such a relation
_THREE_LEVEL_SEED = """\
[base]
kind = field
field = Q

[[level]]
var = x1

[[level]]
var = x2
sigma x1 = 1 * x1

[[level]]
var = x3
sigma x1 = 3 * x1
sigma x2 = 5 * x2 + 1 * x1
delta x2 = 0 * x1
"""


def _numeric_mutants(count: int, seed: int):
    """Seeded tower texts: a fixture or the seed above with one or two
    integer literals replaced by small integers; texts that fail to parse
    are skipped."""
    rng = random.Random(seed)
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tw"))]
    texts = [text for text in texts if _LITERAL.search(text)] + [_THREE_LEVEL_SEED]
    made = 0
    while made < count:
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 2)):
            spans = [m.span() for m in _LITERAL.finditer(text)]
            start, end = rng.choice(spans)
            text = text[:start] + str(rng.randint(0, 6)) + text[end:]
        try:
            parse_tower_text(text)
        except (OreError, ValueError):
            continue
        made += 1
        yield text


def _random_product(tower, gens, rng):
    """A product of one or two generators, plus a generator half the time."""
    acc = tower.one()
    for _ in range(rng.randint(1, 2)):
        acc = acc * rng.choice(gens)
    if rng.random() < 0.5:
        acc = acc + rng.choice(gens)
    return acc


def test_relation_pairs_decide_validity():
    """A level whose relation pairs pass "sigma multiplicative" or "delta
    twisted Leibniz" satisfies that identity on 25 seeded pairs of random
    products below the level as well."""
    verdicts, products_checked = set(), 0
    for text in _numeric_mutants(200, seed=6):
        tower = parse_tower_text(text)
        report = validate_tower(tower)
        verdicts.add(report.ok)
        passed = {(c.level, c.name) for c in report.checks if c.ok}
        for i in range(tower.height):
            mult = (i, "sigma multiplicative") in passed
            leib = (i, "delta twisted Leibniz") in passed
            if not (mult or leib):
                continue
            rng = random.Random(20_000 + i)
            gens = _level_generators(tower, i)
            for _ in range(25):
                u = _random_product(tower, gens, rng)
                v = _random_product(tower, gens, rng)
                su, sv = apply_level_map("sigma", i, u), apply_level_map("sigma", i, v)
                if mult:
                    assert apply_level_map("sigma", i, u * v) == su * sv, text
                if leib:
                    du, dv = apply_level_map("delta", i, u), apply_level_map("delta", i, v)
                    assert apply_level_map("delta", i, u * v) == su * dv + du * v, text
                products_checked += 1
    assert verdicts == {True, False}
    assert products_checked > 0


@pytest.mark.parametrize(
    "name, per_level",
    # three_level over Q: the base generator 1 and (x_k, v) for v before x_k;
    # mat2_inner: the 4 x 4 pairs of matrix units
    [("three_level", [1, 2, 4]), ("mat2_inner", [16])],
)
def test_relation_pair_counts(name, per_level):
    tower = parse_tower_file(str(FIXTURES / f"{name}.tw"))
    n_base = len(tower.base.generators())
    counts = [
        len(_relation_pairs(_level_generators(tower, i), n_base)) for i in range(tower.height)
    ]
    assert counts == per_level


# ---------------------------------------------------------------------------
# the reference validator


def _reference_checks(tower) -> list:
    """[(level, name, ok, detail)] from the generic pair loop: every case
    of (a), (c) and (d) is computed on polynomials through
    ``apply_level_map`` and the rewriting engine, and nothing is shared
    between cases or checks.  It is the oracle for ``validate_tower``."""
    report = ValidationReport()
    for i in range(tower.height):
        lvl = tower.levels[i]
        if not _base_map_valid(tower, i, report):
            continue
        for j in range(i):
            a, _c = tower.sigma_var_raw(i, j)
            ok = tower.base.is_invertible(a)
            report.add(i, f"a[{i + 1},{j + 1}] invertible", ok, "" if ok else f"a = {a}")
        sigma = functools.partial(apply_level_map, "sigma", i)
        delta = functools.partial(apply_level_map, "delta", i)
        gens = _level_generators(tower, i)
        pairs = _relation_pairs(gens, len(gens) - i)
        checks = [
            ("sigma multiplicative", ((sigma(u * v), sigma(u) * sigma(v)) for u, v in pairs)),
            (
                "delta twisted Leibniz",
                ((delta(u * v), sigma(u) * delta(v) + delta(u) * v) for u, v in pairs),
            ),
        ]
        if lvl.q is not None:
            q_poly = tower.from_base(lvl.q)
            q_skew = ((delta(sigma(g)), q_poly * sigma(delta(g))) for g in gens)
            checks.append(("q-skew identity", q_skew))
        for name, cases in checks:
            failure = next((f"lhs = {l} ; rhs = {r}" for l, r in cases if l != r), None)
            report.add(i, name, failure is None, failure or "")
        if lvl.q is not None:
            q_elem = tower.base.scalar(lvl.q)
            sq, dq = tower.apply_sigma0(i, q_elem), tower.apply_delta0(i, q_elem)
            ok_fix = sq == q_elem and dq.is_zero()
            detail = "" if ok_fix else f"sigma(q) = {sq}, delta(q) = {dq}"
            report.add(i, "q fixed by maps", ok_fix, detail)
    return [(c.level, c.name, c.ok, c.detail) for c in report.checks]


_MAT2 = "[base]\nkind = matrix\nfield = Q(q)\nsize = 2\n\n[[level]]\nvar = x\n"
# Mat_2 towers whose first failure is a case that base arithmetic decides;
# linear(...) acts on e11, e12, e21, e22 in that order
BASE_CASE_FAILURES = {
    # swaps e11 and e12, so sigma(e11 e11) = e12 but sigma(e11)^2 = 0
    "sigma multiplicative": _MAT2
    + "sigma_base = linear([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])\n",
    # the delta of test_leibniz_failure_is_reported: e11 -> e11, the rest -> 0
    "delta twisted Leibniz": _MAT2
    + "delta_base = linear([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])\n",
    # mat2_inner's maps with q = 2 in place of q
    "q-skew identity": _MAT2
    + "sigma_base = conj([[1, 0], [0, q]])\ndelta_base = inner([[0, 1], [0, 0]])\nq = 2\n",
}


def _matrix_text(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in rows) + "]"


def _unit_action(m: int, extra: tuple = ()) -> str:
    """linear(...) of the identity on Mat_m plus a 1 at each (row, column)
    of ``extra``: that entry adds E_row to the image of E_column."""
    return _matrix_text(
        [[int(k == l or (k, l) in extra) for l in range(m * m)] for k in range(m * m)]
    )


def _unit_base(m: int, field: str = "Q") -> str:
    return f"[base]\nkind = matrix\nfield = {field}\nsize = {m}\n\n[[level]]\nvar = x\n"


# Mat_m towers whose reads fail, so that their block of unit pairs is
# scanned, and whose first failing pair lies past the pairs (E_r0, E_0c),
# (E_0c, E_r0): the failing checks and their details
READ_FAILURE_SCANS = {
    # sigma(e22) = e11 + e22: first fails at (e11, e22)
    _unit_base(2) + f"sigma_base = linear({_unit_action(2, [(0, 3)])})\n": [
        ("sigma multiplicative", "lhs = 0 ; rhs = ([[1, 0], [0, 0]])"),
    ],
    # delta(e22) = e11, the rest -> 0: first fails at (e11, e22)
    _unit_base(2)
    + "delta_base = linear([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])\n": [
        ("delta twisted Leibniz", "lhs = 0 ; rhs = ([[1, 0], [0, 0]])"),
    ],
    # sigma(e33) = e11 + e33: first fails at (e11, e33)
    _unit_base(3) + f"sigma_base = linear({_unit_action(3, [(0, 8)])})\n": [
        ("sigma multiplicative", "lhs = 0 ; rhs = ([[1, 0, 0], [0, 0, 0], [0, 0, 0]])"),
    ],
    # sigma is not multiplicative, and delta (e21 -> e21, e22 -> e22, the
    # rest -> 0) passes the pairs (E_r0, E_0c), (E_0c, E_r0) but not the
    # block: with no conjugator, the Leibniz block is scanned too
    _unit_base(2)
    + "sigma_base = linear([[2, -1, 0, 0], [0, 0, 1, 0], [1, 1, 1, -1], [0, 0, 0, 1]])\n"
    + "delta_base = linear([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])\n": [
        ("sigma multiplicative", "lhs = ([[2, 0], [1, 0]]) ; rhs = ([[4, 0], [2, 0]])"),
        ("delta twisted Leibniz", "lhs = 0 ; rhs = ([[1, 0], [0, 0]])"),
    ],
}

MATRIX_BASE_TOWERS = 200


def _matrix_base_towers(count: int, seed: int):
    """Seeded one- and two-level tower texts over Mat_2 and Mat_3 of Q,
    gf(5) and cyclotomic(3), for the reads that decide a block of unit
    pairs.  Each level's sigma is conj(a), the identity, the identity with
    one action entry changed or a random linear map; its delta is inner(b)
    against that sigma, the same with one action entry changed, the
    commutator [b, .] (inner(b) against the identity), a random linear map
    or zero.  A second level maps x1 to x1 or 2 x1."""
    rng = random.Random(seed)
    fields = [QQ, GF(5), CyclotomicField(3)]

    def entry(field):
        value = field.coerce(rng.randint(-2, 2))
        if field.gen is not None and rng.random() < 0.3:
            value = value + field.gen * rng.randint(-1, 1)
        return value

    def matrix(field, n):
        return Matrix(field, [[entry(field) for _ in range(n)] for _ in range(n)])

    def changed(action):
        rows = [list(row) for row in action.rows]
        row, col = rng.randrange(len(rows)), rng.randrange(len(rows))
        rows[row][col] = rows[row][col] + rng.choice([-2, -1, 1, 2])
        return Matrix(action.field, rows)

    def maps(field, m):
        kind = rng.choice(["conj", "identity", "changed identity", "linear"])
        if kind == "conj":
            a = matrix(field, m)
            while not a.is_invertible():
                a = matrix(field, m)
            sigma = BaseMap.conjugation(a)
        elif kind == "identity":
            sigma = BaseMap.identity()
        elif kind == "changed identity":
            sigma = BaseMap.linear("sigma", changed(Matrix.identity(field, m * m)))
        else:
            sigma = BaseMap.linear("sigma", matrix(field, m * m))
        kind = rng.choice(["inner", "changed inner", "commutator", "linear", "zero"])
        if kind == "zero":
            return sigma, BaseMap.zero()
        if kind == "linear":
            return sigma, BaseMap.linear("delta", matrix(field, m * m))
        twist = BaseMap.identity() if kind == "commutator" else sigma
        delta = BaseMap.inner_derivation(matrix(field, m), twist)
        if kind == "changed inner":
            delta = BaseMap.linear("delta", changed(delta.linear_action))
        return sigma, delta

    for _ in range(count):
        field, m = rng.choice(fields), rng.choice([2, 3])
        base = BaseRing.matrix_ring(field, m)
        levels = [TowerLevel("x1", *maps(field, m))]
        if rng.random() < 0.4:
            lam = base.scalar(rng.choice([1, 2]))
            levels.append(TowerLevel("x2", *maps(field, m), sigma_vars={0: (lam, {})}))
        yield render_tower_file(OreTower(base, levels))


def _validation_corpus():
    """Tower texts: every fixture, 400 numeric mutants, the first 300 token
    mutants of the CLI fuzzer that parse (about one in 17 does), the
    base-case failures and read-failure scans above and the seeded
    matrix-base towers."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tw"))]
    texts += _numeric_mutants(400, seed=11)
    token_mutants = []
    for text in _mutants(10_000, seed=21):
        try:
            parse_tower_text(text)
        except (OreError, ValueError):
            continue
        token_mutants.append(text)
        if len(token_mutants) == 300:
            break
    texts += token_mutants + list(BASE_CASE_FAILURES.values()) + list(READ_FAILURE_SCANS)
    return texts + list(_matrix_base_towers(MATRIX_BASE_TOWERS, seed=31))


def test_validation_matches_the_reference_validator():
    """validate_tower gives the reference's checks, details included, on
    towers parsed apart, so that neither reads the other's caches."""
    verdicts = set()
    texts = _validation_corpus()
    for text in texts:
        report = validate_tower(parse_tower_text(text))
        checks = [(c.level, c.name, c.ok, c.detail) for c in report.checks]
        assert checks == _reference_checks(parse_tower_text(text)), text
        verdicts.add(all(ok for _level, _name, ok, _detail in checks))
    assert verdicts == {True, False}
    fixtures = len(list(FIXTURES.glob("*.tw")))
    extra = len(BASE_CASE_FAILURES) + len(READ_FAILURE_SCANS) + MATRIX_BASE_TOWERS
    assert len(texts) == fixtures + 400 + 300 + extra


def test_matrix_base_towers_reach_every_read_outcome():
    """The seeded matrix-base towers include valid ones, a singular
    sigma, an invertible sigma with no conjugator, and a delta that fails
    its read where sigma passes, each as the first failure of a level."""
    first = set()
    for text in _matrix_base_towers(MATRIX_BASE_TOWERS, seed=31):
        report = validate_tower(parse_tower_text(text))
        first.add("valid" if report.ok else report.first_failure.name)
    assert first >= {
        "valid",
        "sigma_base invertible",
        "sigma multiplicative",
        "delta twisted Leibniz",
    }


def test_rendered_towers_parse_back():
    """The reader inverts the renderer on every tower of the corpus."""
    for text in _validation_corpus():
        tower = parse_tower_text(text)
        assert parse_tower_text(render_tower_file(tower)) == tower, text


@pytest.mark.parametrize("name", sorted(BASE_CASE_FAILURES))
def test_base_case_failures_come_first(name):
    report = validate_tower(parse_tower_text(BASE_CASE_FAILURES[name]))
    assert report.first_failure.name == name
    assert [c.name for c in report.checks if not c.ok] == [name]


@pytest.mark.parametrize(
    "text", list(READ_FAILURE_SCANS), ids=map(str, range(len(READ_FAILURE_SCANS)))
)
def test_failed_read_reports_the_first_failing_pair(text):
    """A block whose read fails is reported at its first failing pair, as
    scanning every pair reports it."""
    report = validate_tower(parse_tower_text(text))
    failures = [(c.name, c.detail) for c in report.checks if not c.ok]
    assert failures == READ_FAILURE_SCANS[text]


def _count_gate_towers(m: int) -> dict:
    """Valid one-level Mat_m towers and their numbers of nontrivial base
    maps: conj(u) and conj(u) with inner(E_12) over Q, and conj(diag(d))
    over gf(5) written as a raw linear(...)."""
    u = _matrix_text([[int(j >= i) for j in range(m)] for i in range(m)])
    b = _matrix_text([[int((i, j) == (0, 1)) for j in range(m)] for i in range(m)])
    d = [1 + r % 4 for r in range(m)]
    units = [(r, c) for r in range(m) for c in range(m)]
    diag = _matrix_text(
        [
            [d[r] * pow(d[c], -1, 5) % 5 if k == l else 0 for l in range(m * m)]
            for k, (r, c) in enumerate(units)
        ]
    )
    return {
        _unit_base(m) + f"sigma_base = conj({u})\n": 1,
        _unit_base(m) + f"sigma_base = conj({u})\ndelta_base = inner({b})\n": 2,
        _unit_base(m, "gf(5)") + f"sigma_base = linear({diag})\n": 1,
    }


@pytest.mark.parametrize("m", [2, 3, 6])
def test_matrix_base_validation_count_gate(monkeypatch, m):
    """Validating a valid Mat_m tower takes at most 4 m^2 matrix products
    per nontrivial base map (its read, checked on the m^2 units), where
    checking every pair of units took 4 m^4; no clock is read."""
    for text, n_maps in _count_gate_towers(m).items():
        tower = parse_tower_text(text)
        products = count_calls(monkeypatch, Matrix, "__mul__")
        assert validate_tower(tower).ok
        monkeypatch.undo()
        assert 0 < len(products) <= 4 * m * m * n_maps, text


def test_zero_delta_levels_compute_no_delta_image(monkeypatch):
    """The erase-all and gr results are sigma-only towers: validating them
    applies sigma_i to polynomials but never delta_i."""
    results = []
    for path in sorted(FIXTURES.glob("*.tw")):
        tower = parse_tower_file(str(path))
        for derive in (lambda t: erase_all(t).new_tower, lambda t: associated_graded_tower(t).result):
            try:
                results.append(derive(tower))
            except OreError:
                pass
    assert len(results) >= 10
    assert all(lvl.delta_is_zero() for result in results for lvl in result.levels)
    calls = count_calls(monkeypatch, tower_module, "apply_level_map")
    for result in results:
        assert validate_tower(OreTower(result.base, result.levels)).ok
    kinds = [kind for kind, _level, _p in calls]
    assert "sigma" in kinds and "delta" not in kinds


def test_matrix_base_failure_detail():
    """A failing case that base arithmetic decides prints its sides as
    the polynomials they are, as the generic loop printed them."""
    report = validate_tower(parse_tower_text(BASE_CASE_FAILURES["q-skew identity"]))
    assert report.first_failure.detail == (
        "lhs = ([[0, -1], [0, 0]]) ; rhs = ([[0, (-2)/(q)], [0, 0]])"
    )


# ---------------------------------------------------------------------------
# swap compatibility


def test_swap_compatibility_quantum_plane():
    tower = qplane(QQ, 2)
    result = check_swap_compatibility(tower, 1, QQ.coerce(2))
    assert result.ok
    assert result.q_preserved


def test_swap_compatibility_matrix_failure():
    # sigma2 = conjugation by diag(1, 2), sigma1 = conjugation by the
    # permutation matrix, lambda = 1: the commutation identity fails; the
    # first failing unit in row-major order is e12 (e11 commutes through).
    field = QQ
    base = BaseRing.matrix_ring(field, 2)
    diag = BaseMap.conjugation(Matrix(field, [[1, 0], [0, 2]]))
    perm = BaseMap.conjugation(Matrix(field, [[0, 1], [1, 0]]))
    tower = OreTower(
        base,
        [
            TowerLevel("x1", sigma_base=perm),
            TowerLevel("x2", sigma_base=diag, sigma_vars={0: (base.one, {})}),
        ],
    )
    result = check_swap_compatibility(tower, 1, base.one)
    assert not result.ok
    assert result.witness == SkewPoly.from_base(tower, Matrix.unit(field, 2, 0, 1))


def test_swap_compatibility_ratfunc_derivation():
    # on the field generator t, sigma2 delta1(t) = 1 but t delta1(sigma2(t))
    # = t, so the check fails with witness t; the q-preservation flag
    # reports delta(lambda) = d/dt(t) = 1 != 0
    tower = ratfunc_deriv_tower()
    t = tower.base.field.gen
    result = check_swap_compatibility(tower, 1, t)
    assert not result.ok
    assert result.witness == SkewPoly.from_base(tower, t)
    assert not result.q_preserved


def _one_level_tower(field, sigma_image=None, d=None) -> OreTower:
    return OreTower(
        BaseRing.field_ring(field),
        [TowerLevel("x", BaseMap("sigma", sigma_image), BaseMap("delta", d))],
    )


@pytest.mark.parametrize(
    "make_tower, name, detail",
    [
        (
            lambda: _one_level_tower(CyclotomicField(3), CyclotomicField(3).gen + 1),
            "sigma_base automorphism",
            "generator image z + 1 is not a primitive root",
        ),
        (
            lambda: _one_level_tower(FunctionField(QQ, "t"), FunctionField(QQ, "t").gen ** 2),
            "sigma_base automorphism",
            "generator image t^2 is not a unit fraction",
        ),
        (
            lambda: _one_level_tower(QQ, QQ.coerce(2)),
            "sigma_base automorphism",
            "this field admits only the identity",
        ),
        (
            lambda: _one_level_tower(CyclotomicField(3), d=CyclotomicField(3).one),
            "delta_base well-defined",
            "delta(minimal polynomial) = 2*z + 1 != 0",
        ),
        (
            lambda: _one_level_tower(GF(5), d=GF(5).one),
            "delta_base well-defined",
            "prime fields admit no nonzero derivations",
        ),
    ],
)
def test_base_map_failure_details(make_tower, name, detail):
    report = validate_tower(make_tower())
    assert not report.ok
    failures = [(c.name, c.detail) for c in report.checks if not c.ok]
    assert failures == [(name, detail)]


# ---------------------------------------------------------------------------
# matrix-base actions


def _vec_entries(m: Matrix) -> list:
    return [entry for row in m.rows for entry in row]


def _unit_by_unit(field, m: int, image_of) -> Matrix:
    """The m^2 x m^2 matrix whose columns are vec(image_of(e_kl)), the
    units e_kl taken in row-major order."""
    cols = [
        _vec_entries(image_of(Matrix.unit(field, m, k, l)))
        for k in range(m)
        for l in range(m)
    ]
    return Matrix(field, zip(*cols))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("field_name", ["QQ", "gf5", "Qq"])
def test_matrix_base_actions_match_unit_images(field_name, m):
    field = {"QQ": QQ, "gf5": GF(5), "Qq": FunctionField(QQ, "q")}[field_name]
    gen = field.gen if field.gen is not None else field.one
    rng = random.Random(f"{field_name}-{m}")

    def random_matrix():
        return Matrix(
            field,
            [
                [field.coerce(rng.randint(-3, 3)) + gen * rng.randint(-2, 2) for _ in range(m)]
                for _ in range(m)
            ],
        )

    a = random_matrix()
    while not a.is_invertible():
        a = random_matrix()
    a_inv = a.inverse()
    b = random_matrix()

    conj = BaseMap.conjugation(a)
    assert conj.linear_action == _unit_by_unit(field, m, lambda e: a * e * a_inv)
    for sigma, sigma_of in (
        (BaseMap.identity(), lambda e: e),
        (conj, lambda e: a * e * a_inv),
    ):
        delta = BaseMap.inner_derivation(b, sigma)
        expected = _unit_by_unit(field, m, lambda e: b * e - sigma_of(e) * b)
        assert delta.linear_action == expected


# ---------------------------------------------------------------------------
# map orders


def test_map_order_identity():
    assert map_order(BaseRing.field_ring(QQ), BaseMap.identity(), 10) == 1


def test_map_order_conjugation():
    base = BaseRing.matrix_ring(QQ, 2)
    conj = BaseMap.conjugation(Matrix(QQ, [[1, 0], [0, -1]]))
    assert map_order(base, conj, 10) == 2


def test_map_order_cyclotomic_square():
    field = CyclotomicField(5)
    base = BaseRing.field_ring(field)
    assert map_order(base, BaseMap.field_auto(field.gen ** 2), 10) == 4


def test_map_order_infinite_returns_none():
    base = BaseRing.matrix_ring(QQ, 2)
    shear = BaseMap.conjugation(Matrix(QQ, [[1, 1], [0, 1]]))
    assert map_order(base, shear, 12) is None
    gf_base = BaseRing.field_ring(FunctionField(QQ, "t"))
    shift = BaseMap.field_auto(FunctionField(QQ, "t").gen + 1)
    assert map_order(gf_base, shift, 12) is None


def test_map_order_requires_an_automorphism():
    """map_order refuses a base map that is no automorphism before taking
    any power.  The projection P (P^2 = P) on Mat_6(Q(q)) would otherwise
    run all 1000 steps, each a product of two 36 x 36 matrices."""
    qq = FunctionField(QQ, "q")
    q = qq.gen
    with pytest.raises(HypothesisViolation, match="generator image q\\^2 is not a unit fraction"):
        map_order(BaseRing.field_ring(qq), BaseMap.field_auto(q ** 2), 60)
    with pytest.raises(HypothesisViolation, match="this field admits only the identity"):
        map_order(BaseRing.field_ring(QQ), BaseMap.field_auto(QQ.coerce(2)), 60)
    proj = Matrix.identity(qq, 36) - Matrix.unit(qq, 36, 35, 35) + Matrix.unit(qq, 36, 0, 35) * q
    assert proj * proj == proj
    start = time.perf_counter()
    with pytest.raises(HypothesisViolation, match="linear action is singular"):
        map_order(BaseRing.matrix_ring(qq, 6), BaseMap.linear("sigma", proj), 1000)
    assert time.perf_counter() - start < 1.0


def _order_by_full_powers(action: Matrix, bound: int):
    """The least n <= bound with action^n = 1, stepping full powers."""
    identity = Matrix.identity(action.field, action.nrows)
    power = action
    for n in range(1, bound + 1):
        if power == identity:
            return n
        power = action * power
    return None


def _permutation(field, images):
    size = len(images)
    return Matrix(field, [[int(images[i] == j) for j in range(size)] for i in range(size)])


Z3, Z5, GF7, QQ_Q = CyclotomicField(3), CyclotomicField(5), GF(7), FunctionField(QQ, "q")
# conjugators whose conj(...) has finite order; conj by [[1, 2], [3, 4]]
# fixes [[1, 2], [3, 4]] without being the identity
FINITE_ORDER_CONJUGATORS = {
    "3-cycle over Q": lambda: _permutation(QQ, [1, 2, 0]),
    "4-cycle over gf(7)": lambda: _permutation(GF7, [1, 2, 3, 0]),
    "diag(1, z) over cyclotomic(5)": lambda: Matrix(Z5, [[1, 0], [0, Z5.gen]]),
    "antidiag(z, 1) over cyclotomic(3)": lambda: Matrix(Z3, [[0, Z3.gen], [1, 0]]),
    "diag(1, 2, 4) over gf(7)": lambda: Matrix(GF7, [[1, 0, 0], [0, 2, 0], [0, 0, 4]]),
    "3-cycle times diag(1, 1, z) over cyclotomic(3)": lambda: _permutation(Z3, [1, 2, 0])
    * Matrix(Z3, [[1, 0, 0], [0, 1, 0], [0, 0, Z3.gen]]),
    "commutes with the screen over gf(7)": lambda: Matrix(GF7, [[1, 2], [3, 4]]),
    # its square is q, so conj by it has order 2; the trace of the
    # action is 0, a constant, so the trace screen lets it through
    "antidiag(q, 1) over Q(q)": lambda: Matrix(QQ_Q, [[0, QQ_Q.gen], [1, 0]]),
}


@pytest.mark.parametrize("name", sorted(FINITE_ORDER_CONJUGATORS))
def test_map_order_matches_full_powers(name):
    a = FINITE_ORDER_CONJUGATORS[name]()
    conj = BaseMap.conjugation(a)
    base = BaseRing.matrix_ring(a.field, a.nrows)
    order = _order_by_full_powers(conj.linear_action, 60)
    assert order is not None
    for bound in (order - 1, order, 60):
        assert map_order(base, conj, bound) == _order_by_full_powers(conj.linear_action, bound)


def test_trace_screen_answers_without_products(monkeypatch):
    """The action of conj(diag(1, q)), mat2_inner's sigma, has trace
    2 + q + 1/q, which is no constant, so map_order returns None before
    it steps any power of the conjugator: once the conjugator is read,
    no matrix product or power is computed."""
    tower = parse_tower_file(str(FIXTURES / "mat2_inner.tw"))
    sigma = tower.levels[0].sigma_base
    assert sigma == BaseMap.conjugation(Matrix(QQ_Q, [[1, 0], [0, QQ_Q.gen]]))
    assert sigma.linear_action.trace() == 2 + QQ_Q.gen + 1 / QQ_Q.gen
    assert sigma.conjugator == Matrix(QQ_Q, [[1 / QQ_Q.gen, 0], [0, 1]])
    products = count_calls(monkeypatch, Matrix, "__mul__")
    powers = count_calls(monkeypatch, Matrix, "__pow__")
    assert map_order(tower.base, sigma, 60) is None
    assert map_order(tower.base, sigma, 1000) is None
    assert products == [] and powers == []


def _matrix_sigmas():
    """(base, sigma) for every level with a matrix base and an invertible
    sigma, over the fixtures and 400 numeric mutants (all of infinite
    order, as each keeps a q on the diagonal), then conj by each of
    FINITE_ORDER_CONJUGATORS."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tw"))]
    for text in texts + list(_numeric_mutants(400, seed=11)):
        tower = parse_tower_text(text)
        if tower.base.kind != "matrix":
            continue
        for lvl in tower.levels:
            action = lvl.sigma_base.linear_action
            if action is None or lvl.sigma_base.action_is_invertible:
                yield tower.base, lvl.sigma_base
    for make in FINITE_ORDER_CONJUGATORS.values():
        a = make()
        yield BaseRing.matrix_ring(a.field, a.nrows), BaseMap.conjugation(a)


def test_map_order_matches_full_powers_on_matrix_bases():
    """map_order, trace screen included, agrees with stepping full powers
    at bounds 5 and 60 on every matrix-base sigma of the corpus; field
    bases take no screen."""
    seen = set()
    for base, sigma in _matrix_sigmas():
        action = sigma.linear_action
        for bound in (5, 60):
            full = 1 if action is None else _order_by_full_powers(action, bound)
            assert map_order(base, sigma, bound) == full, sigma
            seen.add(full)
    assert None in seen and len(seen) > 2


def test_matrix_base_inverses_are_computed_once(monkeypatch):
    """Parsing conj(diag(1, q)) inverts the 2 x 2 matrix once; validation,
    map_order and the cli's automorphism check share one inverse of the
    4 x 4 action."""
    inverses = count_calls(monkeypatch, Matrix, "inverse")
    tower = parse_tower_file(str(FIXTURES / "mat2_inner.tw"))
    assert [m.nrows for (m,) in inverses] == [2]
    assert tower.validation.ok
    sigma = tower.levels[0].sigma_base
    assert map_order(tower.base, sigma, 5) is None
    assert map_order(tower.base, sigma, 5) is None
    assert [m.nrows for (m,) in inverses] == [2, 4]


def test_parse_normalises_each_level_once(monkeypatch):
    """Parsing builds one tower of bare levels, which are built normalised,
    and replaces its levels one at a time with ``with_level``: each parsed
    level is normalised once, and the result equals a tower built in one
    go."""
    calls = count_calls(monkeypatch, tower_module, "_normalised_level")
    tower = parse_tower_file(str(FIXTURES / "three_level.tw"))
    assert [i for _base, _height, i, _lvl in calls] == [0, 1, 2]
    monkeypatch.undo()
    assert OreTower(tower.base, tower.levels) == tower


def test_with_level_checks_the_new_level():
    tower = qplane(QQ, 2)
    x2 = TowerLevel("x2", sigma_vars={0: (QQ.coerce(3), {})})
    replaced = tower.with_level(1, x2)
    assert replaced.levels[0] is tower.levels[0]
    assert replaced == OreTower(tower.base, [tower.levels[0], x2])
    assert replaced._engine_table == {} and replaced._engine_table is not tower._engine_table
    with pytest.raises(ValueError, match="duplicate level names"):
        tower.with_level(0, TowerLevel("x2"))
    with pytest.raises(ValueError, match="outside its scope"):
        tower.with_level(0, TowerLevel("x1", sigma_vars={0: (QQ.one, {})}))


def test_base_generators_are_built_once(monkeypatch):
    units = count_calls(monkeypatch, Matrix, "unit")
    base = BaseRing.matrix_ring(QQ, 3)
    gens = base.generators()
    assert isinstance(gens, tuple) and len(gens) == 9
    assert base.generators() is gens and base.basis() is gens
    assert len(units) == 9
    field_base = BaseRing.field_ring(CyclotomicField(3))
    assert field_base.generators() == (CyclotomicField(3).gen,)
    assert field_base.basis() == (field_base.one,)


def test_tower_structure_errors():
    with pytest.raises(ValueError):
        OreTower(
            BaseRing.field_ring(QQ),
            [TowerLevel("x1"), TowerLevel("x1")],
        )
    with pytest.raises(ValueError):
        OreTower(
            BaseRing.field_ring(QQ),
            [TowerLevel("x1", sigma_vars={0: (QQ.one, {})})],
        )
    with pytest.raises(ValueError):
        # delta image at or above its own level
        OreTower(
            BaseRing.field_ring(QQ),
            [
                TowerLevel("x1"),
                TowerLevel("x2", delta_vars={0: {(0, 1): QQ.one}}),
            ],
        )


def test_weyl_gf5_valid_without_q():
    report = validate_tower(weyl_gf5())
    assert report.ok


def test_tower_copies_levels_and_leaves_caller_dicts_alone():
    field = CyclotomicField(3)
    z = field.gen
    sigma_vars = {1: (z, {})}
    delta_vars = {}
    top = TowerLevel("x3", sigma_vars=sigma_vars, delta_vars=delta_vars)
    tower = OreTower(BaseRing.field_ring(field), [TowerLevel("x1"), TowerLevel("x2"), top])
    assert sigma_vars == {1: (z, {})} and delta_vars == {}
    assert top.sigma_vars is sigma_vars and top.delta_vars is delta_vars
    # the tower's own copy maps every lower variable
    assert tower.levels[2].sigma_vars == {1: (z, {}), 0: (field.one, {})}
    assert tower.levels[2].delta_vars == {0: {}, 1: {}}


def test_tower_levels_are_frozen():
    tower = qplane(QQ, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tower.levels[1].q = QQ.one
    with pytest.raises(dataclasses.FrozenInstanceError):
        tower.levels[1].sigma_base.field_action = QQ.one
