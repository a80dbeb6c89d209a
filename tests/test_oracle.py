"""Cross-checks against independent brute-force computations.

The word normalizer below multiplies by leftmost-first reduction over a
worklist of words, sharing nothing with the engine's structured recursion
or its memo cache; agreement on random inputs checks the whole rewriting
path.  The cyclotomic checks confirm the modulus construction against
divisibility facts it must satisfy.
"""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oretower import skewpoly
from oretower.scalars import QQ, Matrix, cyclotomic_polynomial, _pdivmod, _pmul
from oretower.skewpoly import SkewPoly, apply_level_map
from oretower.tower import BaseRing, OreTower, TowerLevel, validate_tower
from oretower.cli import parse_tower_file, parse_tower_text, render_tower_file

from conftest import (
    ARITHMETIC_FIXTURES,
    E12,
    E21,
    UNVALIDATED_SIGMA_X1,
    count_calls,
    mat2_twolevel,
    mat2_unvalidated,
    mat2_unvalidated_three,
    random_base_element,
    random_poly,
    random_poly_below,
)

ORACLE_FIXTURES = dict(ARITHMETIC_FIXTURES, mat2_twolevel=mat2_twolevel)


def _is_zero(coeff):
    return coeff.is_zero() if hasattr(coeff, "is_zero") else not coeff


def naive_product(tower, left: SkewPoly, right: SkewPoly) -> dict:
    """Normal form of left*right by leftmost-first word rewriting.

    Words are lists of ("b", element) / ("v", level) factors; the first
    out-of-order adjacent pair is rewritten using only the tower's raw
    presentation data, branching into one word per summand.
    """

    def term_word(exp, coeff):
        word = [("b", coeff)]
        for j, e in enumerate(exp):
            word.extend([("v", j)] * e)
        return word

    worklist = []
    for exp_l, cl in left.terms.items():
        for exp_r, cr in right.terms.items():
            worklist.append(term_word(exp_l, cl) + term_word(exp_r, cr))

    total: dict = {}
    guard = 0
    while worklist:
        guard += 1
        assert guard < 200_000, "oracle reduction did not terminate"
        word = worklist.pop()
        idx = _first_illegal(word)
        if idx is None:
            exp = [0] * tower.height
            coeff = tower.base.one
            for kind, value in word:
                if kind == "b":
                    coeff = coeff * value
                else:
                    exp[value] += 1
            # all base factors of a normal word sit in front, so the fold
            # above is plain left multiplication
            if not _is_zero(coeff):
                key = tuple(exp)
                acc = total.get(key)
                acc = coeff if acc is None else acc + coeff
                if _is_zero(acc):
                    total.pop(key, None)
                else:
                    total[key] = acc
            continue
        head, (k1, v1), (k2, v2), tail = (
            word[:idx],
            word[idx],
            word[idx + 1],
            word[idx + 2 :],
        )
        if k1 == "b" and k2 == "b":
            worklist.append(head + [("b", v1 * v2)] + tail)
        elif k1 == "v" and k2 == "b":
            sig = tower.apply_sigma0(v1, v2)
            if not _is_zero(sig):
                worklist.append(head + [("b", sig), ("v", v1)] + tail)
            dlt = tower.apply_delta0(v1, v2)
            if not _is_zero(dlt):
                worklist.append(head + [("b", dlt)] + tail)
        else:  # two variables out of order: v1 > v2
            a, c_poly = tower.sigma_var(v1, v2)
            worklist.append(head + [("b", a), ("v", v2), ("v", v1)] + tail)
            for exp, coeff in c_poly.terms.items():
                worklist.append(head + term_word(exp, coeff) + [("v", v1)] + tail)
            for exp, coeff in tower.delta_var(v1, v2).terms.items():
                worklist.append(head + term_word(exp, coeff) + tail)
    return total


def _first_illegal(word):
    for i in range(len(word) - 1):
        (k1, v1), (k2, v2) = word[i], word[i + 1]
        if k1 == "b" and k2 == "b":
            return i
        if k1 == "v" and k2 == "b":
            return i
        if k1 == "v" and k2 == "v" and v1 > v2:
            return i
    return None


@pytest.mark.parametrize("name", sorted(ORACLE_FIXTURES))
def test_engine_matches_naive_word_reduction(name):
    tower = ORACLE_FIXTURES[name]()
    rng = random.Random(99)
    for _ in range(12):
        p = random_poly(tower, rng, max_degree=2)
        q = random_poly(tower, rng, max_degree=2)
        assert (p * q).terms == naive_product(tower, p, q)


VALID_ORACLE_FIXTURES = sorted(
    name for name, build in ORACLE_FIXTURES.items() if validate_tower(build()).ok
)


@pytest.mark.parametrize("name", VALID_ORACLE_FIXTURES)
def test_level_maps_match_naive_word_reduction(name):
    """x_i p = sigma_i(p) x_i + delta_i(p) for p below level i, with the
    left side reduced word by word from the presentation alone."""
    tower = ORACLE_FIXTURES[name]()
    rng = random.Random(41)
    for i in range(tower.height):
        xi = tower.var(i)
        for _ in range(10):
            p = random_poly_below(tower, i, rng)
            image = apply_level_map("sigma", i, p) * xi + apply_level_map("delta", i, p)
            assert naive_product(tower, xi, p) == image.terms


def mat2_scalar_lambda() -> OreTower:
    """Mat2(Q)[x1][x2; sigma2] with identity base maps and sigma2(x1) = 3 x1.

    lambda_21 = 3 * 1 is a scalar matrix, so the power step takes it to
    the k-th power as a matrix.
    """
    field = QQ
    return OreTower(
        BaseRing.matrix_ring(field, 2),
        [
            TowerLevel("x1"),
            TowerLevel("x2", sigma_vars={0: (Matrix.identity(field, 2) * 3, {})}),
        ],
    )


@pytest.mark.parametrize("name", sorted(ORACLE_FIXTURES) + ["mat2_scalar_lambda"])
def test_variable_powers_match_naive_word_reduction(name):
    tower = ORACLE_FIXTURES.get(name, mat2_scalar_lambda)()
    rng = random.Random(7)
    xs = [tower.var(i) for i in range(tower.height)]
    # mixes terms the power step moves with terms it does not: on
    # three_level, x3 x1 = 2 x1 x3 but x3 x2 = 5 x2 x3 + x1 x3; x_i^2 and
    # 3 have the empty lower part, which power runs keep no row for
    mixed = sum(xs[1:], xs[0]) + 4 * math.prod(xs)
    for i in range(tower.height):
        for k in range(2, 13):
            power = xs[i] ** k
            for p in (mixed + xs[i] ** 2 + 3, random_poly(tower, rng, max_degree=2)):
                assert (power * p).terms == naive_product(tower, power, p)


# the towers whose term products factor as (c d)(x^a x^b): every level has
# an identity sigma and a zero delta on the base
FIXED_BASE_FIXTURES = {
    name: build
    for name, build in dict(ORACLE_FIXTURES, mat2_scalar_lambda=mat2_scalar_lambda).items()
    if build()._fixes_base
}


def _noncommuting_pair(tower):
    """Two products whose left coefficients do not commute with the right
    ones on a matrix base: e12 e21 = e11 but e21 e12 = e22."""
    one = tower.base.one
    if tower.base.kind == "field":
        e12 = e21 = tower.base.scalar(3)
    else:
        e12, e21 = E12, E21
    top, bottom = [0] * tower.height, [0] * tower.height
    top[-1], bottom[0] = 2, 1
    left = tower.poly({tuple(top): e12, (0,) * tower.height: one + e21})
    right = tower.poly({tuple(bottom): e21, tuple(top): e12 + e21})
    return left, right


def test_factored_products_cover_the_towers_that_fix_the_base():
    assert sorted(FIXED_BASE_FIXTURES) == sorted(
        set(ORACLE_FIXTURES) - {"mat2_inner", "mat2_twolevel"} | {"mat2_scalar_lambda"}
    )


@pytest.mark.parametrize("name", sorted(FIXED_BASE_FIXTURES))
def test_factored_products_match_naive_word_reduction(name):
    tower = FIXED_BASE_FIXTURES[name]()
    rng = random.Random(31)
    pairs = [_noncommuting_pair(tower)]
    pairs += [(random_poly(tower, rng), random_poly(tower, rng)) for _ in range(10)]
    for _ in range(2):  # cold engine table, then warm
        for p, q in pairs:
            assert (p * q).terms == naive_product(tower, p, q)


# Q(t)[x1; t -> 2t][x2; x1 -> 3 x1, delta x1 = x1]: x2 fixes the base and
# x1 does not, so products share the left-word walk and run x2^k in it
MIXED_WALK_TOWER = """[base]
kind = field
field = Q(t)

[[level]]
var = x1
sigma_base = 2 * t

[[level]]
var = x2
sigma x1 = 3 * x1
delta x1 = x1
"""

WALK_TOWERS = {
    "mat2_inner": ORACLE_FIXTURES["mat2_inner"],
    "mat2_twolevel": mat2_twolevel,
    "mixed_walk": lambda: parse_tower_text(MIXED_WALK_TOWER),
}


def _walk_operands(tower, rng):
    """A left operand on every word of a box, so that the words share
    prefixes, and a right operand of three terms; on a matrix base their
    coefficients include e12 and e21, which do not commute."""
    field = tower.base.field
    if tower.base.kind == "matrix":
        e12, e21 = Matrix.unit(field, 2, 0, 1), Matrix.unit(field, 2, 1, 0)
        coeffs = [e12, e21, e12 + tower.base.one, e21 * 3]
    else:
        coeffs = [tower.base.scalar(c) for c in (1, -2, 3, field.gen)]
    box = itertools.product(range(3), repeat=tower.height)
    left = tower.poly({w: rng.choice(coeffs) for w in box})
    words = [(0,) * tower.height, (1,) * tower.height, (2,) + (0,) * (tower.height - 1)]
    right = tower.poly({w: rng.choice(coeffs) for w in words})
    return left, right


@pytest.mark.parametrize("name", sorted(WALK_TOWERS))
def test_shared_walk_matches_naive_word_reduction(name, monkeypatch):
    runs = count_calls(monkeypatch, skewpoly, "_power_times_terms")
    tower = WALK_TOWERS[name]()
    assert not tower._fixes_base
    rng = random.Random(53)
    pairs = [_walk_operands(tower, rng) for _ in range(3)]
    pairs += [(random_poly(tower, rng), random_poly(tower, rng)) for _ in range(6)]
    for _ in range(2):  # cold engine table, then warm
        for p, q in pairs:
            assert (p * q).terms == naive_product(tower, p, q)
    assert bool(runs) == (name == "mixed_walk")


def test_shared_walk_steps_once_per_left_word(monkeypatch):
    """On Mat2(Q(q))[x; conj(diag(1, q)), inner(e12)], x + x^2 + x^3 times
    a right term takes three x steps (x^3 d = x (x (x d))), not 1 + 2 + 3."""
    steps = count_calls(monkeypatch, skewpoly, "_var_times_terms")
    tower = WALK_TOWERS["mat2_inner"]()
    e12 = Matrix.unit(tower.base.field, 2, 0, 1)
    left = tower.poly({(1,): tower.base.one, (2,): e12, (3,): tower.base.one})
    right = tower.poly({(0,): e12, (2,): tower.base.one + e12})
    product = left * right
    assert len(steps) == 3 * len(right.terms)
    assert product.terms == naive_product(tower, left, right)


def _one_variable_at_a_time(tower, left: SkewPoly, right: SkewPoly) -> dict:
    """left * right, applying the factors of each x^a to right one variable
    at a time, top level first, then the left coefficient."""
    total = tower.zero()
    for exp, coeff in left.terms.items():
        moved = right
        for i in reversed(range(tower.height)):
            for _ in range(exp[i]):
                moved = tower.var(i) * moved
        total = total + tower.from_base(coeff) * moved
    return total.terms


@pytest.mark.parametrize("name", sorted(UNVALIDATED_SIGMA_X1))
def test_factored_products_match_single_steps_on_unvalidated_towers(name):
    tower = mat2_unvalidated(name)
    assert not validate_tower(tower).ok
    assert tower._fixes_base
    rng = random.Random(17)
    pairs = [_noncommuting_pair(tower)]
    pairs += [(random_poly(tower, rng), random_poly(tower, rng)) for _ in range(10)]
    for _ in range(2):
        for p, q in pairs:
            assert (p * q).terms == _one_variable_at_a_time(tower, p, q)


# ---------------------------------------------------------------------------
# power runs x_i^k on levels that fix the base: square and multiply against
# one factor at a time

FIXTURE_DIR = Path(__file__).parent / "fixtures"
HALVING_K = (2, 3, 5, 16, 33, 64, 1000)
# the single-step reference slows with the size of its coefficients (Q(q)
# powers, and three_level's integer binomials in x3^k x2^40), so there it
# stops early; on qweyl_zeta3 and weyl_gf5 both right factors run to 1000
REFERENCE_CAP = {
    ("broken_qskew", 1): 64,
    ("broken_qskew", 40): 16,
    ("qweyl_q", 40): 16,
    ("three_level", 40): 64,
}
# the cases where some run halves; elsewhere the table entries are single
# monomials (the quantum planes, three_level's x3 x1 and x2 x1, and x^40,
# central in weyl_gf5), or x_j^40 reaches 41 lower parts, too many for the
# k that the reference reaches (qweyl_q, three_level's x3 x2^40)
HALVED = {
    ("broken_qskew", 1, 1),
    ("broken_qskew", 1, 40),
    ("qweyl_q", 1, 1),
    ("qweyl_zeta3", 1, 1),
    ("qweyl_zeta3", 1, 40),
    ("three_level", 2, 1),
    ("weyl_gf5", 1, 1),
}
BASE_FIXING_LEVELS = [
    (path.stem, i)
    for path in sorted(FIXTURE_DIR.glob("*.tw"))
    for i, maps in enumerate(parse_tower_file(str(path))._trivial_maps)
    if i and maps == (True, True)
]


@pytest.mark.parametrize("exponent", [1, 40], ids=["x_j", "x_j^40"])
@pytest.mark.parametrize("name, level", BASE_FIXING_LEVELS)
def test_halved_runs_match_single_steps(name, level, exponent, monkeypatch):
    """x_i^k (x_j^e + x_j^e x_i + x_i^3 + 2) by the power run against x_i
    applied k times; the run halves wherever the closure of x_j^e is small
    for k.  x_i^3 and 2 have the empty lower part, which the run table
    keeps no row for, and x_j^e x_i shares x_j^e's row."""
    composed = count_calls(monkeypatch, skewpoly, "_compose_runs")
    tower = parse_tower_file(str(FIXTURE_DIR / f"{name}.tw"))
    cap = REFERENCE_CAP.get((name, exponent), max(HALVING_K))
    x = tower.var(level)
    for j in range(level):
        lower = tower.var(j) ** exponent
        right = lower + lower * x + x**3 + 2
        stepped = right
        for k in range(1, cap + 1):
            stepped = x * stepped
            if k in HALVING_K:
                assert (x**k * right).terms == stepped.terms, (j, k)
    assert bool(composed) == ((name, level, exponent) in HALVED)


def test_degree_raising_derivation_steps_one_factor_at_a_time(monkeypatch):
    """delta(x1) = x1^2 sends x1^a to a x1^(a+1), so the closure of x1
    under the table entries never ends and the run must step."""
    text = "[base]\nkind = field\nfield = Q\n\n[[level]]\nvar = x1\n\n"
    text += "[[level]]\nvar = x2\ndelta x1 = x1^2\n"
    composed = count_calls(monkeypatch, skewpoly, "_compose_runs")
    stepped_tower, tower = parse_tower_text(text), parse_tower_text(text)
    x2 = stepped_tower.var(1)
    stepped = stepped_tower.var(0)
    # x2^k x1 has about k^2 / 2 terms, so the check stops at k = 33
    for k in range(1, 34):
        stepped = x2 * stepped
        if k in HALVING_K:
            product = tower.var(1) ** k * tower.var(0)
            assert product.terms == stepped.terms
            assert len(tower._engine_table) <= len(stepped_tower._engine_table)
    assert not composed
    assert naive_product(tower, tower.var(1) ** 5, tower.var(0)) == (
        tower.var(1) ** 5 * tower.var(0)
    ).terms


def test_monomial_moves_keep_the_coefficient_order():
    # x3^k moves x1 by A^k = (1 + e21)^k and then x2^m by B^m = (1 + e12)^m;
    # these do not commute, so a move that took a^k c for c a^k would
    # differ here.  AB != BA also breaks the overlap x3 x2 x1, so a word
    # through x1^2 depends on the order of rewriting; with x1 to the first
    # power on the right every order gives c d A^k B^m x^{a+b}
    tower = mat2_unvalidated_three()
    assert tower._fixes_base
    rng = random.Random(3232)

    def poly(exps):
        return tower.poly({exp: random_base_element(tower, rng) for exp in exps})

    for _ in range(10):
        left = poly((rng.randint(0, 1), rng.randint(1, 2), rng.randint(1, 2)) for _ in range(2))
        right = poly((1, rng.randint(0, 2), rng.randint(0, 1)) for _ in range(2))
        assert (left * right).terms == naive_product(tower, left, right)


def test_cyclotomic_polynomial_divisibility():
    # phi_n has degree totient(n) and divides x^n - 1 exactly; the
    # product of phi_d over d | n reassembles x^n - 1
    from oretower.scalars import divisors

    sympy = pytest.importorskip("sympy")
    for n in range(1, 21):
        phi = cyclotomic_polynomial(n)
        assert len(phi) - 1 == sympy.totient(n)
        x_n_minus_1 = (Fraction(-1),) + (Fraction(0),) * (n - 1) + (Fraction(1),)
        _quot, rem = _pdivmod(x_n_minus_1, phi, QQ)
        assert not rem
        product = (Fraction(1),)
        for d in divisors(n):
            product = _pmul(product, cyclotomic_polynomial(d), QQ)
        assert product == x_n_minus_1


def test_random_tower_file_round_trips():
    rng = random.Random(4242)
    fields = ["Q", "gf(7)", "cyclotomic(4)", "Q(s)"]
    for _ in range(20):
        field = rng.choice(fields)
        height = rng.randint(1, 3)
        lines = ["[base]", "kind = field", f"field = {field}"]
        for i in range(height):
            lines.extend(["", "[[level]]", f"var = v{i + 1}"])
            for j in range(i):
                scale = rng.choice(["2", "3", "-1"])
                lines.append(f"sigma v{j + 1} = {scale} * v{j + 1}")
                if rng.random() < 0.4 and j + 1 < i + 1:
                    lines.append(f"delta v{j + 1} = {rng.randint(-2, 2)}")
        text = "\n".join(lines) + "\n"
        tower = parse_tower_text(text)
        assert parse_tower_text(render_tower_file(tower)) == tower
