import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oretower import skewpoly, tower as tower_module
from oretower.cli import parse_tower_file
from oretower.errors import ScalarError, SupportTooHigh, TowerMismatch
from oretower.scalars import GF, QQ, CyclotomicField, FunctionField, Matrix, Scalar
from oretower.skewpoly import NEG_INF, SkewPoly, apply_level_map, degree_leading, is_central
from oretower.tower import BaseRing, OreTower, TowerLevel

from conftest import (
    ARITHMETIC_FIXTURES,
    E21,
    count_calls,
    mat2_twolevel,
    mat2_unvalidated,
    qplane,
    qweyl,
    random_base_element,
    random_poly,
    random_poly_below,
)
from test_oracle import naive_product


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def weyl():
    field = FunctionField(QQ, "q")
    return qweyl(field, field.gen), field


def test_quantum_plane_commutation():
    tower = qplane(QQ, 2)
    x1, x2 = tower.var(0), tower.var(1)
    assert x2 * x1 == 2 * (x1 * x2)

    field = CyclotomicField(3)
    tower = qplane(field, field.gen)
    x1, x2 = tower.var(0), tower.var(1)
    assert x2 * x1 == tower.from_base(field.gen) * (x1 * x2)


def test_multiplication_by_one(any_tower):
    rng = random.Random(1)
    p = random_poly(any_tower, rng)
    assert p * any_tower.one() == p
    assert any_tower.one() * p == p


def test_weyl_two_step_rewriting(weyl):
    # x2 x1^2, by hand: x2 x1 = q x1 x2 + 1, then once more:
    # (q x1 x2 + 1) x1 = q x1 (q x1 x2 + 1) + x1 = q^2 x1^2 x2 + (1 + q) x1
    tower, field = weyl
    q = field.gen
    x1, x2 = tower.var(0), tower.var(1)
    expected = tower.poly({(2, 1): q**2, (1, 0): 1 + q})
    assert x2 * x1**2 == expected


def test_apply_sigma_on_generator(weyl):
    tower, field = weyl
    q = field.gen
    x1 = tower.var(0)
    assert apply_level_map("sigma", 1, x1) == tower.from_base(q) * x1
    assert apply_level_map("sigma", 1, x1**2) == tower.from_base(q**2) * x1**2


def test_apply_delta_twisted_leibniz_by_hand(weyl):
    # delta(x1^2) = sigma(x1) delta(x1) + delta(x1) x1 = q x1 + x1
    tower, field = weyl
    q = field.gen
    x1 = tower.var(0)
    assert apply_level_map("delta", 1, x1**2) == tower.from_base(1 + q) * x1


def test_apply_level_map_rejects_high_support(weyl):
    tower, _ = weyl
    with pytest.raises(SupportTooHigh):
        apply_level_map("sigma", 1, tower.var(1))


def test_is_central_examples():
    tower = qplane(QQ, 2)
    assert is_central(tower.one()) == (True, None)
    ok, witness = is_central(tower.var(0))
    assert not ok
    assert witness == tower.var(1)

    field = CyclotomicField(3)
    t3 = qplane(field, field.gen)
    ok, _ = is_central(t3.var(0) ** 3)
    assert ok
    ok, _ = is_central(t3.var(0) ** 2)
    assert not ok


def test_degree_leading_examples(weyl):
    tower, field = weyl
    q = field.gen
    p = tower.poly({(1, 1): q - 1, (0, 0): field.one})
    deg, lead = degree_leading(p, 1)
    assert deg == 1
    assert lead == tower.poly({(1, 1): q - 1})

    deg, lead = degree_leading(tower.zero(), 0)
    assert deg == NEG_INF
    assert lead.is_zero()
    assert NEG_INF < 0 and not NEG_INF >= 0

    p = tower.poly({(2, 1): field.one, (1, 1): field.one})
    deg, lead = degree_leading(p, 0)
    assert deg == 2
    assert lead == tower.poly({(2, 1): field.one})


def test_defining_relations(any_tower):
    # x_i * b - sigma_i(b) x_i = delta_i(b) for base elements b
    rng = random.Random(3)
    tower = any_tower
    for i in range(tower.height):
        x = tower.var(i)
        for b in list(tower.base.generators()) + [random_base_element(tower, rng)]:
            bp = SkewPoly.from_base(tower, b)
            lhs = x * bp - SkewPoly.from_base(tower, tower.apply_sigma0(i, b)) * x
            assert lhs == SkewPoly.from_base(tower, tower.apply_delta0(i, b))
        for j in range(i):
            a, c = tower.sigma_var(i, j)
            xj = tower.var(j)
            assert x * xj == (SkewPoly.from_base(tower, a) * xj + c) * x + tower.delta_var(i, j)


def test_associativity_and_distributivity(any_tower):
    rng = random.Random(5)
    for _ in range(25):
        p = random_poly(any_tower, rng)
        q = random_poly(any_tower, rng)
        r = random_poly(any_tower, rng)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r


def test_left_base_linearity(any_tower):
    rng = random.Random(6)
    for _ in range(10):
        b = random_base_element(any_tower, rng)
        p = random_poly(any_tower, rng)
        q = random_poly(any_tower, rng)
        bp = SkewPoly.from_base(any_tower, b)
        assert bp * (p + q) == bp * p + bp * q


def test_degree_subadditivity(any_tower):
    if any_tower.base.kind == "matrix":
        pytest.skip("degree equality needs a domain base")
    if any(
        c for i in range(any_tower.height) for j in range(i)
        for c in [any_tower.sigma_var_raw(i, j)[1]]
    ):
        pytest.skip("c terms in sigma raise lower-variable degrees")
    rng = random.Random(8)
    for _ in range(15):
        p = random_poly(any_tower, rng)
        q = random_poly(any_tower, rng)
        if p.is_zero() or q.is_zero():
            continue
        prod = p * q
        for j in range(any_tower.height):
            dp, _ = degree_leading(p, j)
            dq, _ = degree_leading(q, j)
            dprod, _ = degree_leading(prod, j)
            assert dprod == dp + dq


def test_twisted_leibniz_property(any_tower):
    rng = random.Random(9)
    tower = any_tower
    for i in range(tower.height):
        for _ in range(8):
            u = random_poly_below(tower, i, rng)
            v = random_poly_below(tower, i, rng)
            lhs = apply_level_map("delta", i, u * v)
            rhs = (
                apply_level_map("sigma", i, u) * apply_level_map("delta", i, v)
                + apply_level_map("delta", i, u) * v
            )
            assert lhs == rhs


def test_noncentral_scaling_coefficient_order():
    # sigma2(x1) = lam x1 with noncentral lam: x2 x1 must come out as
    # lam * x1 x2 with lam multiplying from the left
    tower = mat2_twolevel()
    lam, _ = tower.sigma_var(1, 0)
    x1, x2 = tower.var(0), tower.var(1)
    assert x2 * x1 == SkewPoly.from_base(tower, lam) * x1 * x2
    rng = random.Random(14)
    for _ in range(15):
        p = random_poly(tower, rng, max_degree=2)
        q = random_poly(tower, rng, max_degree=2)
        r = random_poly(tower, rng, max_degree=2)
        assert (p * q) * r == p * (q * r)


def test_tower_mismatch():
    t1 = qplane(QQ, 2)
    t2 = qplane(QQ, 3)
    with pytest.raises(TowerMismatch):
        t1.var(0) * t2.var(0)
    # equality answers across towers instead of raising
    assert t1.var(0) != t2.var(0) and not t1.var(0) == t2.var(0)


def test_equality_with_a_value_outside_the_base_is_false():
    """A value that does not coerce into the base equals no polynomial, as
    a Scalar equals no Scalar of another field; ==, != and ``in`` answer
    without raising, from either side."""
    tower = parse_tower_file(str(FIXTURES / "qplane_lambda2.tw"))
    gf5 = parse_tower_file(str(FIXTURES / "weyl_gf5.tw"))
    cases = [
        (tower, GF(7).coerce(1)),
        (tower, Matrix(QQ, [[1]])),
        (tower, CyclotomicField(3).gen),
        (gf5, Fraction(1, 5)),
        (gf5, QQ.coerce(Fraction(2, 5))),
    ]
    for t, value in cases:
        for p in (t.var(0), t.one()):
            assert not p == value and not value == p
            assert p != value and value != p
            assert value not in [p] and p not in [value]


def test_equality_with_base_elements_and_equal_towers():
    tower = parse_tower_file(str(FIXTURES / "qplane_lambda2.tw"))
    one, x = tower.one(), tower.var(0)
    assert one == 1 and 1 == one and one == QQ.coerce(1) and 2 * one == Fraction(2)
    assert x - x == 0 and x != 1 and one in [1]
    # a second parse is another tower object that compares equal
    again = parse_tower_file(str(FIXTURES / "qplane_lambda2.tw"))
    assert again is not tower and again.var(0) == x and again.one() == one
    gf5 = parse_tower_file(str(FIXTURES / "weyl_gf5.tw"))
    assert gf5.one() == 6 and gf5.one() == Fraction(1, 6) and gf5.one() == GF(5).one


def test_polynomials_are_unhashable():
    """A constant equals its int and its base value, whose hashes no hash of
    the terms could match, so a polynomial has no hash; equality is as
    before."""
    tower = parse_tower_file(str(FIXTURES / "qplane_lambda2.tw"))
    for p in (tower.one(), tower.var(0), tower.zero()):
        with pytest.raises(TypeError):
            hash(p)
        with pytest.raises(TypeError):
            {p}
    one = tower.one()
    assert one == 1 and one == QQ.coerce(1) and tower.var(1) == tower.var(1)
    assert parse_tower_file(str(FIXTURES / "qplane_lambda2.tw")).one() == one


def test_normal_form_uniqueness(any_tower):
    rng = random.Random(10)
    p = random_poly(any_tower, rng)
    q = random_poly(any_tower, rng)
    assert (p == q) == (p.terms == q.terms)
    assert (p - p).is_zero()
    assert not (p - p).terms


def test_rendering_shape():
    field = CyclotomicField(3)
    tower = qweyl(field, field.gen)
    y = tower.poly({(1, 1): field.gen - 1, (0, 0): field.one})
    assert str(y) == "(z - 1) * x1 x2 + 1"
    assert str(tower.zero()) == "0"
    assert str(tower.var(0) ** 2) == "x1^2"


@pytest.mark.parametrize(
    "name, left, right, expected",
    [
        # x2 x1 = z x1 x2 + 1 with z^3 = 1: the 1 + z + ... + z^1499 terms cancel
        ("qweyl_zeta3.tw", ((0, 1500),), ((1, 0),), {(1, 1500): 1}),
        ("qweyl_zeta3.tw", ((0, 1),), ((1500, 0),), {(1500, 1): 1}),
        # x3 x1 = 2 x1 x3
        ("three_level.tw", ((0, 0, 1000),), ((1, 0, 0),), {(1, 0, 1000): 2**1000}),
    ],
    ids=["x2^1500*x1", "x2*x1^1500", "x3^1000*x1"],
)
def test_deep_products_at_default_recursion_limit(name, left, right, expected):
    assert sys.getrecursionlimit() <= 1000
    tower = parse_tower_file(str(FIXTURES / name))
    one = tower.base.one
    lhs = tower.poly({exp: one for exp in left})
    rhs = tower.poly({exp: one for exp in right})
    assert lhs * rhs == tower.poly(expected)


@pytest.mark.parametrize(
    "name, top, k, expected",
    [
        # x2 x1 = z x1 x2 with z^3 = 1, so z^5000 = z^2 = -z - 1
        ("qplane_zeta3.tw", 1, 5000, lambda f: -f.gen - 1),
        # x3 x1 = 2 x1 x3, although x3 x2 = 5 x2 x3 + x1 x3 is not diagonal
        ("three_level.tw", 2, 1000, lambda f: f.coerce(2**1000)),
    ],
    ids=["qplane_zeta3", "three_level"],
)
def test_power_step_moves_monomials_in_one_step(name, top, k, expected, monkeypatch):
    steps = count_calls(monkeypatch, skewpoly, "_var_times_terms")

    def table_size_after(power):
        tower = parse_tower_file(str(FIXTURES / name))
        product = tower.var(top) ** power * tower.var(0)
        return tower, product, len(tower._engine_table)

    tower, product, size = table_size_after(k)
    exp = [0] * tower.height
    exp[0], exp[top] = 1, k
    assert product == tower.poly({tuple(exp): expected(tower.base.field)})
    # one step each for x_top x_top and for filling the table entry x_top x1;
    # applying x_top^k one factor at a time would take k steps
    assert len(steps) <= 2
    assert size == table_size_after(2)[2]


@pytest.mark.parametrize(
    "name, right",
    [
        ("other_lower_monomial", {(2, 0): Matrix.identity(QQ, 2)}),
        # a coefficient that does not commute with lambda = 1 + e12
        ("noncentral_lambda", {(1, 0): E21}),
    ],
    ids=["other_lower_monomial", "noncentral_lambda"],
)
def test_power_step_agrees_with_single_steps_on_unvalidated_towers(name, right, monkeypatch):
    # validate rejects both towers, but mul does not validate, so the power
    # step must give what applying x2 one factor at a time gives
    composed = count_calls(monkeypatch, skewpoly, "_compose_runs")
    tower = mat2_unvalidated(name)
    x2, p = tower.var(1), tower.poly(right)
    one_at_a_time = p
    for k in range(1, 41):
        one_at_a_time = x2 * one_at_a_time
        assert x2**k * p == one_at_a_time
    # x2 x1^2 = x1 x2 and x2 x1 = e12 x1 x2 + e21 x2 reach three lower
    # parts, so runs from k = 12 halve; x2 x1 = (1 + e12) x1 x2 is a single
    # monomial and moves in one step
    assert bool(composed) == (name == "other_lower_monomial")


def _engine_calls(monkeypatch) -> list:
    """Call lists of the engine steps and of the base-map images."""
    return [
        count_calls(monkeypatch, skewpoly, "_var_times_terms"),
        count_calls(monkeypatch, skewpoly, "_power_times_terms"),
        count_calls(monkeypatch, tower_module.OreTower, "_base_map_image"),
    ]


@pytest.mark.parametrize("name", ["qplane_zeta3.tw", "qplane_lambda2.tw"])
def test_diagonal_products_take_monomial_moves_only(name, monkeypatch):
    # every table entry x2 x1^j = lambda^j x1^j x2 is a single monomial, so
    # once the table is warm each term pair moves as one term, at one table
    # read per level: no engine step and no base-map call
    tower = parse_tower_file(str(FIXTURES / name))
    c = tower.base.field.gen if tower.base.field.gen is not None else tower.base.scalar(3)
    left = tower.poly({(2, 1): c, (0, 3): tower.base.scalar(2), (1, 1): tower.base.one})
    right = tower.poly({(1, 2): tower.base.scalar(-1), (3, 0): c, (0, 1): tower.base.one})
    warm = left * right
    assert warm.terms == naive_product(tower, left, right)
    calls = _engine_calls(monkeypatch)
    assert left * right == warm
    assert calls == [[], [], []]


def test_two_term_entries_fall_back_to_engine_steps(monkeypatch):
    # x3 x2 = 5 x2 x3 + x1 x3 has two terms, so a word that meets it turns
    # the moving term into a term dict; the levels still fix the base, so
    # the steps call no base map
    tower = parse_tower_file(str(FIXTURES / "three_level.tw"))
    one = tower.base.one
    left = tower.poly({(0, 1, 2): one, (1, 0, 1): tower.base.scalar(3)})
    right = tower.poly({(1, 1, 0): one, (0, 2, 0): tower.base.scalar(2)})
    warm = left * right
    assert warm.terms == naive_product(tower, left, right)
    steps, runs, base_maps = _engine_calls(monkeypatch)
    assert left * right == warm
    assert steps and runs
    assert not base_maps


def _q_integer(field, k: int):
    """[k]_q = 1 + q + ... + q^(k-1) in ``field``, whose generator is q."""
    return field.from_polys([1] * k)


@pytest.mark.parametrize(
    "name, expected",
    [
        # x2 x1 = q x1 x2 + 1, so x2^k x1 = q^k x1 x2^k + [k]_q x2^(k-1)
        ("qweyl_q.tw", lambda f, k: (f.gen**k, _q_integer(f, k))),
        # with q = z, z^3 = 1 and 1024 = 1 mod 3: z^1024 = z, [1024]_z = 1
        ("qweyl_zeta3.tw", lambda f, k: (f.gen, f.one)),
        # y x = x y + 1 in characteristic 5: y^k x = x y^k + k y^(k-1)
        ("weyl_gf5.tw", lambda f, k: (f.one, f.coerce(k))),
    ],
    ids=["qweyl_q", "qweyl_zeta3", "weyl_gf5"],
)
def test_power_runs_halve_on_levels_with_a_derivation(name, expected, monkeypatch):
    composed = count_calls(monkeypatch, skewpoly, "_compose_runs")
    steps = count_calls(monkeypatch, skewpoly, "_var_times_terms")
    tower = parse_tower_file(str(FIXTURES / name))
    k = 1024
    product = tower.poly({(0, k): tower.base.one}) * tower.var(0)
    lead, lower = expected(tower.base.field, k)
    assert product == tower.poly({(1, k): lead, (0, k - 1): lower})
    # 1024 = 2^10: ten squarings, where k single steps would take 1024
    assert len(composed) <= 2 * k.bit_length()
    assert all(args[1] != 1 for args in steps)


def test_big_closure_steps_and_fills_the_table_as_single_steps_do(monkeypatch):
    # x2 x1^40 reaches x1^40, ..., x1, 1: 41 lower parts, and
    # 41 * bit_length(40) > 40, so the run steps one factor at a time
    composed = count_calls(monkeypatch, skewpoly, "_compose_runs")
    tower = parse_tower_file(str(FIXTURES / "qweyl_q.tw"))
    product = tower.poly({(0, 40): tower.base.one}) * tower.poly({(40, 0): tower.base.one})
    assert not composed
    q = tower.base.field.gen
    assert product.terms[(40, 40)] == q**1600 and len(product.terms) == 41
    # x1 itself and x2 x1^j for j = 0..40, the entries stepping fills
    assert sorted(tower._engine_table) == [(0, ())] + [(1, (j,)) for j in range(41)]


def _random_pairs(tower, seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [(random_poly(tower, rng, 2), random_poly(tower, rng, 2)) for _ in range(count)]


def test_base_map_memo_stops_storing_at_its_bound(monkeypatch):
    def load():
        return parse_tower_file(str(FIXTURES / "mat2_inner.tw"))

    reference = load()
    expected = [(p * q).terms for p, q in _random_pairs(reference, 8, 6)]
    assert len(reference._base_map_memo) > 10

    monkeypatch.setattr(tower_module, "BASE_MAP_MEMO_ENTRIES", 10)
    tower = load()
    for _ in range(2):
        got = [(p * q).terms for p, q in _random_pairs(tower, 8, 6)]
        assert got == expected
        assert len(tower._base_map_memo) == 10


@pytest.mark.parametrize("exp", [(-1, 0), (1.5, 0)], ids=["negative", "fractional"])
def test_exponents_must_be_non_negative_integers(exp):
    field = FunctionField(QQ, "q")
    tower = qweyl(field, field.gen)
    for build in (tower.poly, lambda terms: SkewPoly(tower, terms)):
        with pytest.raises(ValueError, match=re.escape(str(exp))):
            build({exp: 1})
    # sigma_3(x_2) = x_2 + c with c below x_2
    c_exp = exp + (0,)
    with pytest.raises(ValueError, match=re.escape(str(c_exp))):
        OreTower(
            BaseRing.field_ring(QQ),
            [TowerLevel("x1"), TowerLevel("x2"), TowerLevel("x3", sigma_vars={1: (1, {c_exp: 1})})],
        )


CLEAN_TERM_TOWERS = {
    **ARITHMETIC_FIXTURES,
    **{path.name: lambda path=path: parse_tower_file(str(path)) for path in FIXTURES.glob("*.tw")},
    # unvalidated: sigma_2(x_1) = 0
    "zero_a": lambda: OreTower(
        BaseRing.field_ring(QQ), [TowerLevel("x1"), TowerLevel("x2", sigma_vars={0: (0, {})})]
    ),
}


def _assert_clean(tower, p):
    """p holds no zero coefficient, int tuple keys of the tower's height and
    coefficients of the base, and is what the checking constructor builds."""
    base = tower.base
    assert isinstance(p, SkewPoly) and p.tower is tower
    for exp, coeff in p.terms.items():
        assert type(exp) is tuple and len(exp) == tower.height
        assert all(type(e) is int and e >= 0 for e in exp)
        if base.kind == "field":
            assert isinstance(coeff, Scalar) and coeff.field == base.field
        else:
            assert isinstance(coeff, Matrix) and coeff.field == base.field
            assert coeff.nrows == coeff.ncols == base.size
        assert not coeff.is_zero()
    assert SkewPoly(tower, p.terms).terms == p.terms


def test_from_base_builds_what_the_checking_constructor_builds(monkeypatch):
    """``from_base`` coerces through ``base.coerce``, so it takes and
    refuses what ``SkewPoly(tower, {zero: x})`` takes and refuses, and it
    builds the one term without a ``_clean_terms`` pass."""
    field = FunctionField(QQ, "q")
    towers = [qplane(QQ, 2), qweyl(field, field.gen), mat2_twolevel()]
    cleans = count_calls(monkeypatch, skewpoly, "_clean_terms")
    for tower in towers:
        zero_exp = (0,) * tower.height
        values = [3, -1, 0, Fraction(1, 3), tower.base.field.gen or QQ.coerce(5)]
        values += [tower.base.zero, tower.base.one]
        if tower.base.kind == "matrix":
            values += [E21, Matrix.unit(QQ, 2, 0, 1) + 2 * Matrix.identity(QQ, 2)]
        for x in values:
            before = len(cleans)
            p = SkewPoly.from_base(tower, x)
            assert len(cleans) == before
            assert p.terms == SkewPoly(tower, {zero_exp: x}).terms
            assert p == tower.from_base(x)
            _assert_clean(tower, p)
    wrong = [
        (towers[1], CyclotomicField(3).gen),
        (towers[1], Matrix.identity(field, 2)),
        (towers[2], Matrix.identity(QQ, 3)),
        (towers[2], Matrix.identity(field, 2)),
    ]
    for tower, x in wrong:
        with pytest.raises(ScalarError) as checked:
            SkewPoly(tower, {(0,) * tower.height: x})
        with pytest.raises(ScalarError) as cheap:
            SkewPoly.from_base(tower, x)
        assert type(cheap.value) is type(checked.value)
        assert str(cheap.value) == str(checked.value)


@pytest.mark.parametrize("name", sorted(CLEAN_TERM_TOWERS))
def test_ring_results_hold_clean_terms(name):
    tower = CLEAN_TERM_TOWERS[name]()
    rng = random.Random(21)
    for _ in range(4):
        p = random_poly(tower, rng, max_degree=2)
        q = random_poly(tower, rng, max_degree=2)
        results = [p + q, p - q, p - p, -p, p * q, q * p, p**2, p**0]
        results += [p + 1, 1 + p, p - 1, 1 - p, 2 * p, p * 0, p * Fraction(1, 3)]
        results += [degree_leading(p, level)[1] for level in range(tower.height)]
        for level in range(tower.height):
            u = random_poly_below(tower, level, rng)
            results += [apply_level_map(kind, level, u) for kind in ("sigma", "delta")]
        for result in results:
            _assert_clean(tower, result)
        assert (p - p == 0) and (p * 0 == 0) and (p == 0) == p.is_zero()
    for i in range(tower.height):
        for j in range(i):
            _assert_clean(tower, tower.sigma_var(i, j)[1])
            _assert_clean(tower, tower.delta_var(i, j))
            # copies: writing into them leaves the tower as it was
            c_before, d_before = dict(tower.sigma_var_raw(i, j)[1]), dict(tower.delta_var_raw(i, j))
            tower.sigma_var(i, j)[1].terms[(0,) * tower.height] = tower.base.one
            tower.delta_var(i, j).terms[(0,) * tower.height] = tower.base.one
            assert tower.sigma_var_raw(i, j)[1] == c_before
            assert tower.delta_var_raw(i, j) == d_before
