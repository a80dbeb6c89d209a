import ast
import inspect
import itertools
import operator
import random
from fractions import Fraction

import pytest

from oretower import scalars
from oretower.errors import DivisionByZero, ScalarError, ZeroInput
from oretower.tower import BaseRing
from oretower.scalars import (
    GF,
    QQ,
    CyclotomicField,
    FunctionField,
    Matrix,
    cyclotomic_polynomial,
    divisors,
    parse_field,
    root_of_unity_order,
)

from conftest import random_scalar

FIELDS = [
    QQ,
    GF(5),
    GF(7),
    CyclotomicField(3),
    CyclotomicField(5),
    FunctionField(QQ, "t"),
]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_field_axioms_on_samples(field):
    rng = random.Random(7)
    for _ in range(40):
        a = random_scalar(field, rng)
        b = random_scalar(field, rng)
        c = random_scalar(field, rng)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == field.one
        assert a + field.zero == a
        assert a * field.one == a


def test_canonical_form_examples():
    half = QQ.coerce(Fraction(2, 4))
    assert half == QQ.coerce(Fraction(1, 2)) and half.rep == Fraction(1, 2)
    assert half != Fraction(1, 2)

    z = CyclotomicField(3).gen
    assert z**3 == CyclotomicField(3).one

    t = FunctionField(QQ, "t").gen
    assert (t**2 - 1) / (t - 1) == t + 1


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.one / QQ.zero
    with pytest.raises(DivisionByZero):
        CyclotomicField(3).zero.inverse()


def test_root_of_unity_examples():
    assert root_of_unity_order(CyclotomicField(3).gen) == 3
    assert root_of_unity_order(QQ.coerce(-1)) == 2
    assert root_of_unity_order(QQ.coerce(1)) == 1
    assert root_of_unity_order(QQ.coerce(2)) is None
    assert root_of_unity_order(FunctionField(QQ, "t").gen) is None
    assert root_of_unity_order(FunctionField(QQ, "t").coerce(-1)) == 2
    assert root_of_unity_order(CyclotomicField(2).gen) == 2
    assert root_of_unity_order(-CyclotomicField(3).gen) == 6
    with pytest.raises(ZeroInput):
        root_of_unity_order(QQ.zero)


def test_root_of_unity_order_in_rational_function_fields():
    """A root of unity of F(t) is a constant, of an order dividing the
    inner field's exponent, nested fields included."""
    gf7_t = FunctionField(GF(7), "t")
    assert gf7_t.roots_of_unity_exponent == 6
    assert root_of_unity_order(gf7_t.coerce(3)) == 6
    assert root_of_unity_order(gf7_t.gen) is None
    assert root_of_unity_order(gf7_t.gen / gf7_t.gen) == 1
    q_t = FunctionField(QQ, "t")
    q_t_s = FunctionField(q_t, "s")
    assert root_of_unity_order(q_t_s.coerce(-1)) == 2
    assert root_of_unity_order(q_t_s.coerce(q_t.gen)) is None
    assert root_of_unity_order(q_t_s.gen) is None
    cyc3_t = FunctionField(CyclotomicField(3), "t")
    z = CyclotomicField(3).gen
    assert root_of_unity_order(cyc3_t.coerce(z)) == 3
    assert root_of_unity_order(cyc3_t.coerce(-z)) == 6
    assert root_of_unity_order(cyc3_t.coerce(z) * cyc3_t.gen) is None


def test_root_of_unity_minimality():
    # order N means s^N = 1 and s^d != 1 for every proper divisor d of N
    samples = [
        CyclotomicField(5).gen,
        CyclotomicField(5).gen ** 2,
        -CyclotomicField(3).gen,
        CyclotomicField(12).gen,
        GF(7).coerce(3),
        GF(7).coerce(2),
    ]
    for s in samples:
        n = root_of_unity_order(s)
        assert n is not None
        assert s**n == s.field.one
        for d in divisors(n)[:-1]:
            assert s**d != s.field.one


def test_prime_field_orders_divide_p_minus_1():
    p = 11
    field = GF(p)
    for a in range(1, p):
        n = root_of_unity_order(field.coerce(a))
        assert n is not None and (p - 1) % n == 0


def test_cyclotomic_polynomials():
    def poly(*coeffs):
        return tuple(Fraction(c) for c in coeffs)

    assert cyclotomic_polynomial(1) == poly(-1, 1)
    assert cyclotomic_polynomial(2) == poly(1, 1)
    assert cyclotomic_polynomial(3) == poly(1, 1, 1)
    assert cyclotomic_polynomial(4) == poly(1, 0, 1)
    assert cyclotomic_polynomial(6) == poly(1, -1, 1)
    assert cyclotomic_polynomial(12) == poly(1, 0, -1, 0, 1)


def test_matrix_inverse_round_trip():
    rng = random.Random(17)
    field = FunctionField(QQ, "q")
    for _ in range(10):
        m = Matrix(field, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        if not m.is_invertible():
            continue
        assert m * m.inverse() == Matrix.identity(field, 2)
        assert m.inverse() * m == Matrix.identity(field, 2)


def test_equal_matrices_hash_equal():
    field = FunctionField(QQ, "q")
    q = field.gen
    m = Matrix(field, [[q, 1], [0, q + 1]])
    built = [
        Matrix(field, [[q, field.one], [field.zero, 1 + q]]),
        m.transpose().transpose(),
        (m * m) * m.inverse(),
        m + Matrix.zero(field, 2, 2),
        Matrix.identity(field, 2) * q + Matrix.unit(field, 2, 0, 1) + Matrix.unit(field, 2, 1, 1),
    ]
    # m keeps its hash from the first call; each other matrix computes its own
    first = hash(m)
    for other in built:
        assert other == m and hash(other) == first
    memo = {m: "m"}
    assert all(memo[other] == "m" for other in built)


def test_matrix_scalar_part():
    ident = Matrix.identity(QQ, 2)
    three = (ident * QQ.coerce(3)).scalar_part()
    assert three == QQ.coerce(3) and three != 3
    assert Matrix.unit(QQ, 2, 0, 1).scalar_part() is None


def test_matrix_trace():
    qq = FunctionField(QQ, "q")
    q = qq.gen
    assert Matrix(qq, [[1, 2], [3, q]]).trace() == q + 1
    assert Matrix.zero(GF(5), 3, 3).trace() == GF(5).zero
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2]]).trace()


def test_constants_are_the_algebraic_elements():
    """is_constant holds for every element of Q, gf(p) and cyclotomic(n),
    and on F(t) exactly for the elements of F that are constant there,
    through every nested rational function field."""
    z = CyclotomicField(5).gen
    assert all(f.is_constant(f.one) for f in FIELDS)
    assert CyclotomicField(5).is_constant(z + z**3)
    qq = FunctionField(QQ, "q")
    q = qq.gen
    assert qq.is_constant(qq.coerce(Fraction(-3, 2))) and qq.is_constant(qq.zero)
    assert not qq.is_constant(q) and not qq.is_constant(1 / q)
    assert not qq.is_constant(2 + q + 1 / q)
    nested = FunctionField(FunctionField(GF(5), "t"), "s")
    t, s = nested.coerce(FunctionField(GF(5), "t").gen), nested.gen
    assert nested.is_constant(nested.coerce(3))
    assert not nested.is_constant(t) and not nested.is_constant(s / t)
    over_cyclotomic = FunctionField(CyclotomicField(3), "t")
    assert over_cyclotomic.is_constant(over_cyclotomic.coerce(CyclotomicField(3).gen))


def test_parse_field_descriptors():
    assert parse_field("Q") is QQ
    assert parse_field("gf(5)").p == 5
    assert parse_field("cyclotomic(3)").n == 3
    assert parse_field("Q(t)").var == "t"
    assert parse_field("gf(5)(t)").inner.p == 5
    with pytest.raises(ValueError):
        parse_field("R")


def test_cross_field_coercion():
    # ints and Fractions coerce into the field they meet; a Scalar of
    # another field moves only through that field's coerce
    field = FunctionField(QQ, "t")
    t = field.gen
    assert t + 1 == field.from_polys([1, 1])
    with pytest.raises(TypeError):
        QQ.coerce(2) * t
    assert field.coerce(QQ.coerce(2)) * t == field.from_polys([0, 2])
    z = CyclotomicField(3).gen
    assert z + Fraction(1, 2) == CyclotomicField(3).coerce([Fraction(1, 2), 1])


def test_coefficient_lists_take_rationals_only():
    """cyclotomic(n) coerces a list, and Q(t) reads one in from_polys, the
    same way: ints, Fractions and Q scalars are taken, and a float or a
    string raises ScalarError rather than being converted."""
    cyc, qt = CyclotomicField(3), FunctionField(QQ, "t")
    for bad in (0.5, "1/3"):
        with pytest.raises(ScalarError):
            cyc.coerce([bad, 1])
        with pytest.raises(ScalarError):
            qt.from_polys([bad, 1])
        with pytest.raises(ScalarError):
            qt.from_polys([1], [1, bad])
    two = QQ.coerce(2)
    assert cyc.coerce([two, 1]) == cyc.coerce([2, 1])
    assert qt.from_polys([two, Fraction(1, 2)]) == qt.from_polys([2, Fraction(1, 2)])


ONE_FIELD_FIELDS = [
    QQ,
    GF(5),
    CyclotomicField(3),
    FunctionField(QQ, "t"),
    FunctionField(CyclotomicField(3), "t"),
]
# values each field may embed: a constant embeds in every field that
# coerces it, zeta_3 in cyclotomic(3) and its function field
EMBEDDED = [-1, 0, 1, 2, Fraction(1, 2), CyclotomicField(3).gen]


def _embedded(field, value, gen_power):
    """value coerced into field, times the field's generator to gen_power
    when it has one; None when field does not take value."""
    try:
        s = field.coerce(value)
    except ScalarError:
        return None
    return s if field.gen is None else s * field.gen**gen_power


def test_equal_scalars_hash_equal():
    """Python's rule a == b => hash(a) == hash(b), on pairs that include
    one value embedded in several fields, and ints and Fractions."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    field_elements = st.builds(
        _embedded,
        st.sampled_from(ONE_FIELD_FIELDS),
        st.sampled_from(EMBEDDED),
        st.integers(min_value=0, max_value=2),
    ).filter(lambda s: s is not None)
    numbers = st.sampled_from([-1, 0, 1, 2, 7, Fraction(2), Fraction(1, 2)])
    elements = st.one_of(field_elements, numbers)

    @settings(max_examples=300, deadline=None)
    @given(a=elements, b=elements)
    def check(a, b):
        if a == b:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
        else:
            assert len({a, b}) == 2

    check()


def test_embedded_constants_of_different_fields_differ():
    two = [field.coerce(2) for field in ONE_FIELD_FIELDS]
    assert len(set(two)) == len(two)
    for a, b in itertools.combinations(two, 2):
        assert a != b and a == a.field.one + a.field.one and b == b.field.one + b.field.one
    # an int or Fraction equals no Scalar, as their hashes differ
    assert all(s != 2 and s != Fraction(2) for s in two)
    assert QQ.coerce(2) != 2 and GF(5).coerce(2) != 7
    assert len({QQ.coerce(2), 2, Fraction(2)}) == 2 and len({GF(5).coerce(2), 7}) == 2


CROSS_FIELD_PAIRS = [
    (QQ.coerce(2), FunctionField(QQ, "t").gen),
    (GF(5).coerce(2), QQ.coerce(2)),
    (GF(5).one, GF(7).one),
    (CyclotomicField(3).gen, FunctionField(CyclotomicField(3), "t").gen),
    (CyclotomicField(3).one, CyclotomicField(5).one),
]


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
@pytest.mark.parametrize("a, b", CROSS_FIELD_PAIRS, ids=lambda s: s.field.name)
def test_scalar_arithmetic_across_fields_raises(op, a, b):
    with pytest.raises(TypeError):
        op(a, b)
    with pytest.raises(TypeError):
        op(b, a)


@pytest.mark.parametrize(
    "op",
    [operator.add, operator.sub, operator.mul, Matrix.kron, Matrix.two_sided_action],
)
def test_matrix_arithmetic_across_fields_raises(op):
    qt = FunctionField(QQ, "t")
    m_q = Matrix(QQ, [[1, 2], [3, 4]])
    m_qt = Matrix(qt, [[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        op(m_q, m_qt)
    with pytest.raises(TypeError):
        op(m_qt, m_q)
    assert op(m_qt, Matrix(qt, m_q.rows)) == op(m_qt, m_qt)
    if op is operator.mul:
        for s, m in ((qt.gen, m_q), (QQ.coerce(2), m_qt), (GF(5).one, m_q)):
            with pytest.raises(TypeError):
                s * m
            with pytest.raises(TypeError):
                m * s


def test_scalar_times_matrix_commutes():
    field = FunctionField(QQ, "q")
    q = field.gen
    m = Matrix(field, [[q, 1], [0, q + 1]])
    for s in (q + 1, field.one / q, field.zero, 3, Fraction(-1, 2)):
        product = Matrix(field, [[s * a for a in row] for row in m.rows])
        assert s * m == m * s == product
    zeta = CyclotomicField(3).gen
    m3 = Matrix(CyclotomicField(3), [[zeta, 2], [1, zeta * zeta]])
    assert zeta * m3 == m3 * zeta


def test_render_pins():
    # rendering reads coefficients through the inner field, so a gf(5)
    # coefficient 4 prints as a minus sign
    for inner, expected in (
        (GF(5), "(-t)/(t + 1)"),
        (CyclotomicField(3), "((3/2)*t)/(t + 1)"),
        (FunctionField(QQ, "q"), "(((3/2))*t)/(t + 1)"),
    ):
        t = FunctionField(inner, "t").gen
        assert str(3 * t / (2 * t + 2)) == expected
    t = FunctionField(GF(5), "t").gen
    assert str(4 * t**2 + 4) == "-t^2 + 4"
    c5 = CyclotomicField(5).coerce([Fraction(1, 2), Fraction(-3, 4), 0, Fraction(5, 6)])
    assert str(c5) == "5/6*z^3 - 3/4*z + 1/2"
    assert str(c5.inverse()) == (
        "27828/66361*z^3 + 60060/66361*z^2 + 32148/66361*z + 44460/66361"
    )
    t = FunctionField(CyclotomicField(3), "t").gen
    z = t.field.generator_named("z")
    assert str((z * t + 1) / (t * t - z)) == "(z)/(t + (z + 1))"
    t = FunctionField(FunctionField(QQ, "q"), "t").gen
    q = t.field.generator_named("q")
    assert str((q * t + 1) / (q * t * t - 1)) == "(t + ((1)/(q)))/(t^2 + ((-1)/(q)))"


def test_rational_functions_over_q_render_with_monic_denominator():
    t = FunctionField(QQ, "t").gen
    assert str(3 * t / (2 * t + 2)) == "((3/2)*t)/(t + 1)"
    assert str(t / (-2 * t**2 + 4)) == "((-1/2)*t)/(t^2 - 2)"
    assert str((t**2 - 1) / (3 * t)) == "((1/3)*t^2 + (-1/3))/(t)"
    assert str(Fraction(-3, 4) / (t**3 - Fraction(1, 2))) == "((-3/4))/(t^3 + (-1/2))"
    assert str((2 * t + 2) / (4 * t + 4)) == "(1/2)"


def test_dense_cyclotomic_inverse():
    field = CyclotomicField(97)
    rng = random.Random(1)
    a = field.coerce([rng.randint(-3, 3) for _ in range(field.degree)])
    assert a * a.inverse() == field.one


def test_integer_kernels_hold_no_fraction():
    """The arithmetic of cyclotomic(n) and of Q(t) over Q runs on ints;
    Fraction belongs to the parse and render boundaries only."""
    tree = ast.parse(inspect.getsource(scalars))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    for cls in ("CyclotomicFieldImpl", "RationalFunctionFieldOverQ"):
        methods = {f.name: f for f in classes[cls].body if isinstance(f, ast.FunctionDef)}
        for name in ("rep_add", "rep_mul", "rep_inv", "_make"):
            used = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(methods[name])
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            assert "Fraction" not in used, f"{cls}.{name} computes with Fraction"


NESTED_FIELDS = [
    FunctionField(GF(5), "t"),
    FunctionField(CyclotomicField(3), "t"),
    FunctionField(FunctionField(QQ, "q"), "t"),
]


@pytest.mark.parametrize("field", FIELDS + NESTED_FIELDS, ids=lambda f: f.name)
def test_reps_are_canonical_on_every_field(field):
    """A stored rep is its field's canonical form: rebuilding it gives it back."""
    rng = random.Random(13)
    for _ in range(20):
        s = random_scalar(field, rng)
        if not s.is_zero():
            s = s + field.one / s  # a nontrivial denominator
        if isinstance(field, (scalars.CyclotomicFieldImpl, scalars.RationalFunctionField)):
            assert field._make(*s.rep) == s.rep
        else:
            assert field.coerce(s.rep).rep == s.rep


@pytest.mark.parametrize("field", FIELDS + NESTED_FIELDS, ids=lambda f: f.name)
def test_matrix_constants_match_coerced_entries(field):
    """identity, zero, unit and a base ring's scalar, built from the field's
    reps, store what coercing int entries and multiplying stores."""
    n = 3

    def coerced(entry) -> Matrix:
        return Matrix(field, [[entry(r, c) for c in range(n)] for r in range(n)])

    identity = coerced(lambda r, c: int(r == c))
    assert Matrix.identity(field, n)._rows == identity._rows
    assert Matrix.zero(field, n, n)._rows == coerced(lambda r, c: 0)._rows
    assert Matrix.unit(field, n, 1, 2)._rows == coerced(lambda r, c: int((r, c) == (1, 2)))._rows
    s = random_scalar(field, random.Random(5))
    assert BaseRing.matrix_ring(field, n).scalar(s)._rows == (identity * s)._rows


def test_cyclotomic_order_cap(monkeypatch):
    from oretower import scalars

    def refuse(n):
        raise AssertionError("cyclotomic polynomial built past the cap")

    monkeypatch.setattr(scalars, "cyclotomic_polynomial", refuse)
    with pytest.raises(ValueError, match="exceeds 1000"):
        scalars.CyclotomicFieldImpl(scalars.MAX_CYCLOTOMIC_ORDER + 1)
    for digits in (str(scalars.MAX_CYCLOTOMIC_ORDER + 1), "9" * 5000):
        with pytest.raises(ValueError, match="exceeds 1000"):
            parse_field(f"cyclotomic({digits})")


def test_function_field_normal_form():
    field = FunctionField(QQ, "t")
    t = field.gen
    a = (t**2 + 2 * t + 1) / (t + 1)
    assert a == t + 1
    # integer coefficients, positive leading denominator, joint content 1
    b = field.one / (-2 * t - 2)
    assert b.rep == ((-1,), (2, 2))


def test_prime_field_cap(monkeypatch):
    from oretower import scalars

    largest = 99999999999999999999977  # the largest prime below 10^23
    assert 10**scalars.MAX_PRIME_DIGITS <= scalars._MR_EXACT_BELOW
    assert parse_field(f"gf({largest})").p == largest
    with pytest.raises(ValueError, match="not prime"):
        parse_field(f"gf({largest + 2})")
    with pytest.raises(ValueError, match="exact only below"):
        scalars.PrimeFieldImpl(scalars._MR_EXACT_BELOW + 2)

    def refuse(n):
        raise AssertionError("primality tested past the cap")

    monkeypatch.setattr(scalars, "is_prime", refuse)
    for digits in ("1" + "0" * 23, "9" * 5000):
        with pytest.raises(ValueError, match="at most 23 digits"):
            parse_field(f"gf({digits})")


@pytest.mark.parametrize("inner", [QQ, CyclotomicField(3)], ids=lambda f: f.name)
def test_rational_function_derive_is_twisted_leibniz(inner):
    """delta(a b) = sigma(a) delta(b) + delta(a) b for the sigma-derivation
    of F(t) with sigma(t) a Moebius image and delta(t) = d, on quotients
    with non-constant denominators."""
    field = FunctionField(inner, "t")
    t = field.gen
    rng = random.Random(29)

    def sample():
        """A quotient whose reduced denominator has degree >= 1."""
        while True:
            num = [random_scalar(inner, rng) for _ in range(rng.randint(1, 3))]
            den = [random_scalar(inner, rng) for _ in range(rng.randint(1, 2))] + [inner.one]
            value = field.from_polys(num, den)
            if len(value.rep[1]) > 1:
                return value

    images = [None, 2 * t, field.one / t, (t + 1) / (t - 1), t + 1]
    for image in images:
        assert field.automorphism_defect(image) is None
        for _ in range(6):
            a, b, d = sample(), sample(), sample()
            sigma_a = field.substitute(a, image)
            lhs = field.derive(a * b, image, d)
            rhs = sigma_a * field.derive(b, image, d) + field.derive(a, image, d) * b
            assert lhs == rhs, (image, a, b, d)
