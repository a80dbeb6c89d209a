"""Field arithmetic against sympy on hypothesis-drawn elements.

Products, sums and inverses in cyclotomic(n) are compared with sympy's
remainder modulo the n-th cyclotomic polynomial, and in Q(t) with
``cancel``; primality, factorisation and multiplicative orders in gf(p)
with ``isprime``, ``factorint`` and ``n_order``; root-of-unity orders in
cyclotomic(n) with the factored characteristic polynomial and in Q(t)
with ``cancel``; powers ``x ** k`` in every field with repeated products;
Q's rep operations with ``Fraction`` arithmetic, and the Z[t] product and
the reduction modulo the n-th cyclotomic polynomial with the generic
polynomial helpers.  Every result is also checked for the rep
invariants: a Q rep is an int exactly when the value is integral, a
cyclotomic rep is phi(n) integers over a positive denominator coprime to
their content, and a rational-function rep holds inner-field reps (never
a Scalar) with a monic denominator, and over Q integers with a positive
leading denominator coefficient and joint content 1.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from oretower.errors import DivisionByZero  # noqa: E402
from oretower.scalars import (  # noqa: E402
    GF,
    QQ,
    CyclotomicField,
    CyclotomicFieldImpl,
    FunctionField,
    Matrix,
    RationalFunctionField,
    RationalFunctionFieldOverQ,
    Scalar,
    _ZZ,
    _factorize,
    _padd,
    _pdivmod,
    _pmul,
    _pneg,
    _ptrim,
    _zadd,
    _zmul,
    _zmul_loop,
    _MR_EXACT_BELOW,
    MAX_KERNEL_MATRIX_SIZE,
    is_prime,
    root_of_unity_order,
)

X = sympy.Symbol("x")
# 1 and 2 give degree-1 fields, whose generated product is one int product
ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12)
QT = FunctionField(QQ, "t")

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)
small_ints = st.integers(min_value=-9, max_value=9)


def _sym(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def _sym_poly(coeffs):
    return sum((_sym(Fraction(c)) * X**k for k, c in enumerate(coeffs)), sympy.Integer(0))


# ---------------------------------------------------------------------------
# Q: an int for an integral value, otherwise a Fraction in lowest terms

q_values = st.one_of(
    small_ints,
    st.integers(-(10**30), 10**30),
    rationals,
    st.sampled_from([1, -1, Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]),
)


def _assert_q_rep(rep, value):
    """rep is the canonical Q rep of the rational ``value``."""
    assert type(rep) is (int if Fraction(value).denominator == 1 else Fraction)
    assert rep == value


@settings(max_examples=300, deadline=None)
@given(a=q_values, b=q_values, k=st.integers(1, 7))
def test_rational_reps_are_canonical(a, b, k):
    fa, fb = Fraction(a), Fraction(b)
    x, y = QQ.coerce(a).rep, QQ.coerce(b).rep
    _assert_q_rep(x, fa)
    _assert_q_rep(y, fb)
    _assert_q_rep(QQ.rep_add(x, y), fa + fb)
    _assert_q_rep(QQ.rep_mul(x, y), fa * fb)
    _assert_q_rep(QQ.rep_neg(x), -fa)
    _assert_q_rep(QQ.rep_pow(x, k), fa**k)
    # values that cancel to integers: x - x, x * (1/x), and a/b * b/a
    _assert_q_rep(QQ.rep_add(x, QQ.rep_neg(x)), 0)
    if fa:
        _assert_q_rep(QQ.rep_inv(x), 1 / fa)
        _assert_q_rep(QQ.rep_mul(x, QQ.rep_inv(x)), 1)
        if fb:
            ratio = QQ.coerce(fa / fb).rep
            _assert_q_rep(QQ.rep_mul(ratio, QQ.coerce(fb / fa).rep), 1)
            _assert_q_rep(QQ.rep_pow(ratio, k), (fa / fb) ** k)


def test_rational_reps_that_cancel_to_integers():
    half = QQ.coerce(Fraction(1, 2)).rep
    _assert_q_rep(QQ.rep_add(half, half), 1)
    _assert_q_rep(QQ.rep_mul(QQ.coerce(Fraction(2, 3)).rep, QQ.coerce(Fraction(9, 2)).rep), 3)
    for unit in (1, -1, Fraction(1), Fraction(-1)):
        _assert_q_rep(QQ.rep_inv(QQ.coerce(unit).rep), unit)
    _assert_q_rep(QQ.rep_inv(QQ.coerce(Fraction(-1, 7)).rep), -7)
    _assert_q_rep(QQ.rep_pow(QQ.coerce(Fraction(-2, 3)).rep, 3), Fraction(-8, 27))
    assert (QQ.zero.rep, QQ.one.rep) == (0, 1) and type(QQ.coerce(True).rep) is int
    # an int rep and a Fraction of one value are one Scalar and print alike
    three = QQ.coerce(Fraction(9, 3))
    assert three == QQ.coerce(3) and hash(three) == hash(QQ.coerce(3)) and str(three) == "3"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rational_matrices_compare_and_hash_by_value(data):
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rect = st.lists(st.lists(q_values, min_size=n, max_size=n), min_size=m, max_size=m)
    raw, other = data.draw(rect), data.draw(rect)
    a, b = Matrix(QQ, raw), Matrix(QQ, other)
    for row, values in zip(a.rows, raw):
        for x, v in zip(row, values):
            _assert_q_rep(x.rep, v)
    assert a.is_zero() == all(v == 0 for row in raw for v in row)
    assert (a == b) == (raw == other)
    # the same values through products whose denominators cancel
    r = data.draw(rationals.filter(bool))
    scaled = a * r * (1 / r)
    assert scaled == a and hash(scaled) == hash(a) and scaled.is_zero() == a.is_zero()
    assert hash(a) == hash(Matrix(QQ, [[Fraction(v) for v in row] for row in raw]))
    assert (a - a).is_zero() and (a - a) == Matrix.zero(QQ, m, n)


# ---------------------------------------------------------------------------
# cyclotomic(n)


def cyclotomic_elements(n):
    coeffs = st.lists(
        st.one_of(small_ints, rationals), min_size=1, max_size=2 * int(sympy.totient(n))
    )
    return coeffs.map(CyclotomicField(n).coerce)


def _cyc_sym(s: Scalar):
    nums, den = s.rep
    return _sym_poly([Fraction(c, den) for c in nums])


def _reduced(expr, n):
    return sympy.Poly(sympy.rem(sympy.expand(expr), sympy.cyclotomic_poly(n, X), X), X, domain="QQ")


def _assert_cyclotomic_rep(s: Scalar, n: int):
    nums, den = s.rep
    assert len(nums) == sympy.totient(n)
    assert all(type(c) is int for c in nums) and type(den) is int
    assert den > 0 and math.gcd(den, *nums) == 1


# 25 has degree 20, above MAX_KERNEL_DEGREE, so its products keep _zmul
@pytest.mark.parametrize("n", ORDERS + (25,))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cyclotomic_arithmetic_matches_sympy(n, data):
    a = data.draw(cyclotomic_elements(n))
    b = data.draw(cyclotomic_elements(n))
    for s in (a, b, a * b, a + b, a - b):
        _assert_cyclotomic_rep(s, n)
    assert _reduced(_cyc_sym(a * b), n) == _reduced(_cyc_sym(a) * _cyc_sym(b), n)
    assert _reduced(_cyc_sym(a + b), n) == _reduced(_cyc_sym(a) + _cyc_sym(b), n)
    if not a.is_zero():
        inv = a.inverse()
        _assert_cyclotomic_rep(inv, n)
        assert _reduced(_cyc_sym(inv) * _cyc_sym(a), n) == sympy.Poly(1, X, domain="QQ")


@functools.lru_cache(maxsize=None)
def _cyclotomic_orders(search=200):
    """{coefficients of Phi_N: N} for N < search, from sympy."""
    return {
        tuple(sympy.Poly(sympy.cyclotomic_poly(N, X), X).all_coeffs()): N
        for N in range(1, search)
    }


def _sympy_root_order(charpoly):
    """N when the irreducible factors of ``charpoly`` are all the N-th
    cyclotomic polynomial, else None: a root of unity of order N has
    minimal polynomial Phi_N."""
    _, factors = sympy.factor_list(charpoly, X)
    if len({f for f, _ in factors}) != 1:
        return None
    coeffs = tuple(sympy.Poly(factors[0][0], X).all_coeffs())
    return _cyclotomic_orders().get(coeffs)


def roots_of_unity_or_not(n):
    field = CyclotomicField(n)
    roots = st.tuples(st.sampled_from((1, -1)), st.integers(0, 2 * n - 1)).map(
        lambda e: e[0] * field.gen ** e[1]
    )
    return st.one_of(roots, cyclotomic_elements(n).filter(lambda s: not s.is_zero()))


@pytest.mark.parametrize("n", ORDERS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cyclotomic_root_of_unity_order_matches_sympy(n, data):
    s = data.draw(roots_of_unity_or_not(n))
    nums, den = s.rep
    y = sympy.Symbol("y")
    # the characteristic polynomial of s = nums(z) / den, a power of its
    # minimal polynomial: Res_y(Phi_n(y), den * x - nums(y))
    numer = sum((c * y**k for k, c in enumerate(nums)), sympy.Integer(0))
    charpoly = sympy.resultant(sympy.cyclotomic_poly(n, y), den * X - numer, y)
    assert root_of_unity_order(s) == _sympy_root_order(charpoly)


def test_cyclotomic_coerce_reduces_integer_lists():
    field = CyclotomicField(5)
    # z^4 = -1 - z - z^2 - z^3 and z^5 = 1
    assert field.coerce([0, 0, 0, 0, 1]).rep == ((-1, -1, -1, -1), 1)
    assert field.coerce([0, 0, 0, 0, 0, 2]).rep == ((2, 0, 0, 0), 1)
    assert field.coerce([Fraction(2, 4), 3]).rep == ((1, 6, 0, 0), 2)
    assert field.zero.rep == ((0, 0, 0, 0), 1)


# ---------------------------------------------------------------------------
# Q(t)


def _qt_element(num, den_shape):
    kind, payload = den_shape
    if kind == "monomial":  # c t^k
        c, k = payload
        return QT.from_polys(num, [0] * k + [c])
    return QT.from_polys(num, payload)


nonzero_rationals = rationals.filter(bool)
qt_elements = st.builds(
    _qt_element,
    st.lists(rationals, min_size=0, max_size=4),
    st.one_of(
        st.tuples(st.just("monomial"), st.tuples(nonzero_rationals, st.integers(0, 4))),
        st.tuples(
            st.just("dense"),
            st.lists(rationals, min_size=1, max_size=3).filter(lambda cs: any(cs)),
        ),
    ),
)


def _qt_sym(s: Scalar):
    num, den = s.rep
    return _sym_poly(num) / _sym_poly(den)


def _assert_qt_rep(s: Scalar):
    num, den = s.rep
    assert all(type(c) is int for c in num + den)
    assert den and den[-1] > 0
    assert not num or num[-1] != 0
    assert math.gcd(*num, *den) == 1
    assert sympy.degree(sympy.gcd(_sym_poly(num), _sym_poly(den)), X) <= 0


def _same(lhs, rhs) -> bool:
    return sympy.cancel(lhs - rhs) == 0


@settings(max_examples=60, deadline=None)
@given(a=qt_elements, b=qt_elements)
def test_rational_functions_match_sympy(a, b):
    for s in (a, b, a * b, a + b, a - b):
        _assert_qt_rep(s)
    assert _same(_qt_sym(a * b), _qt_sym(a) * _qt_sym(b))
    assert _same(_qt_sym(a + b), _qt_sym(a) + _qt_sym(b))
    if not a.is_zero():
        inv = a.inverse()
        _assert_qt_rep(inv)
        assert _same(_qt_sym(inv) * _qt_sym(a), 1)


qt_constants = st.builds(
    lambda c, p: QT.from_polys([c * a for a in p], p),
    st.sampled_from((1, -1, 2, Fraction(-1, 3))),
    st.lists(rationals, min_size=1, max_size=3).filter(any),
)


@settings(max_examples=25, deadline=None)
@given(s=st.one_of(qt_elements, qt_constants).filter(lambda s: not s.is_zero()))
def test_rational_function_root_of_unity_order_matches_sympy(s):
    expr = _qt_sym(s)
    expected = next((N for N in range(1, 7) if sympy.cancel(expr**N - 1) == 0), None)
    assert root_of_unity_order(s) == expected


def test_monomial_denominators_cancel_exactly():
    t = QT.gen
    a = (3 * t**5 + t**2) / (2 * t**4)
    assert a.rep == ((1, 0, 0, 3), (0, 0, 2))
    assert (t**3 / (5 * t**3)).rep == ((1,), (5,))
    assert ((t + 1) / t**2).rep == ((1, 1), (0, 0, 1))


int_polys = st.lists(
    st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30)), max_size=6
).map(lambda cs: _ptrim(cs, _ZZ))


@settings(max_examples=200, deadline=None)
@given(a=int_polys, b=int_polys)
def test_integer_kernels_match_the_generic_helpers(a, b):
    assert _zmul(a, b) == _zmul_loop(a, b) == _pmul(a, b, _ZZ)
    assert _zadd(a, b) == _padd(a, b, _ZZ)
    # a sum whose top terms cancel is trimmed
    assert _zadd(_zadd(a, b), _pneg(b, _ZZ)) == a


@st.composite
def shaped_int_polys(draw):
    """Int tuples of length 1-60: dense, after leading zeros (a Q(q)
    numerator such as q^40), with one nonzero entry, or before trailing
    zeros (a padded cyclotomic numerator)."""
    n = draw(st.integers(1, 60))
    shape = draw(st.sampled_from(["dense", "leading", "one", "trailing"]))
    nonzero_run = st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=n)
    if shape == "dense":
        return tuple(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    if shape == "one":
        cs = [0] * n
        cs[draw(st.integers(0, n - 1))] = draw(st.integers(-9, 9).filter(bool))
        return tuple(cs)
    body = draw(nonzero_run)
    zeros = (0,) * (n - len(body))
    return zeros + tuple(body) if shape == "leading" else tuple(body) + zeros


@settings(max_examples=200, deadline=None)
@given(a=shaped_int_polys(), b=shaped_int_polys())
def test_integer_product_on_sparse_and_padded_operands(a, b):
    expected = _pmul(a, b, _ZZ)
    for product in (_zmul, _zmul_loop):
        assert _ptrim(product(a, b), _ZZ) == expected
        assert _ptrim(product(b, a), _ZZ) == expected


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 7, 8, 12))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cyclotomic_fold_is_the_remainder_modulo_phi(n, data):
    field = CyclotomicField(n)
    d = field.degree
    coeffs = data.draw(
        st.lists(st.integers(-(10**6), 10**6), min_size=d, max_size=3 * d + 2)
    )
    before = list(coeffs)
    rem = _pdivmod(tuple(coeffs), field.modulus, QQ)[1]
    assert field._fold_top(coeffs) == list(rem) + [0] * (d - len(rem))
    assert field._fold_top(tuple(coeffs)) == field._fold_top(coeffs)
    assert coeffs == before


@settings(max_examples=100, deadline=None)
@given(a=qt_elements, b=qt_elements)
def test_rational_function_kernels_match_the_dense_formulas(a, b):
    """Sums and products on the integer kernels give the canonical rep of
    the generic dense formulas, over monomial and dense denominators."""
    (an, ad), (bn, bd) = a.rep, b.rep
    cross = _padd(_pmul(an, bd, _ZZ), _pmul(bn, ad, _ZZ), _ZZ)
    assert (a + b).rep == QT._make(cross, _pmul(ad, bd, _ZZ))
    assert (a * b).rep == QT._make(_pmul(an, bn, _ZZ), _pmul(ad, bd, _ZZ))


# t^j num / (c t^k): j and k up to 6 so that t^min(j, k) cancels, contents
# and denominators that share factors, and zero when num is empty
laurent_elements = st.builds(
    lambda j, num, f, c, k: QT.from_polys([0] * j + [f * a for a in num], [0] * k + [c]),
    st.integers(0, 6),
    st.lists(st.integers(-9, 9), max_size=4),
    st.sampled_from((1, 2, 3, 6)),
    st.sampled_from((1, -2, 3, 4, 6, -12, 18, 5)),
    st.integers(0, 6),
)


@settings(max_examples=200, deadline=None)
@given(a=laurent_elements, b=laurent_elements)
def test_laurent_kernels_match_the_dense_formulas(a, b):
    """Sums and products of two c t^k denominators, which shift numerators
    instead of cross-multiplying, give the canonical rep of the dense
    formulas and the value sympy gives."""
    (an, ad), (bn, bd) = a.rep, b.rep
    assert not any(ad[:-1]) and not any(bd[:-1])
    cross = _padd(_pmul(an, bd, _ZZ), _pmul(bn, ad, _ZZ), _ZZ)
    sums = (a + b, QT._make(cross, _pmul(ad, bd, _ZZ)), _qt_sym(a) + _qt_sym(b))
    products = (a * b, QT._make(_pmul(an, bn, _ZZ), _pmul(ad, bd, _ZZ)), _qt_sym(a) * _qt_sym(b))
    for got, dense, value in (sums, products):
        _assert_qt_rep(got)
        assert got.rep == dense
        assert _same(_qt_sym(got), value)
    assert (a - a).rep == QT.rep_zero
    assert (a + b - b).rep == a.rep


# Matrix arithmetic and linear algebra run on the entries' reps; the
# oracle is entrywise Scalar arithmetic and the Leibniz determinant
MATRIX_FIELDS = {
    "Q": (QQ, rationals.map(QQ.coerce)),
    "gf5": (GF(5), st.integers(0, 4).map(GF(5).coerce)),
    "cyclotomic3": (CyclotomicField(3), cyclotomic_elements(3)),
    "Qt": (QT, qt_elements),
}


def _product(field, xs, ys):
    """The entrywise Scalar product of two lists of rows."""
    return [
        [sum((row[k] * ys[k][j] for k in range(len(ys))), field.zero) for j in range(len(ys[0]))]
        for row in xs
    ]


def _det(field, rows):
    """The determinant by the Leibniz formula, in Scalars."""
    total = field.zero
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        term = field.one if inversions % 2 == 0 else -field.one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


@pytest.mark.parametrize("name", sorted(MATRIX_FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matrix_arithmetic_matches_entrywise_scalars(name, data):
    field, elements = MATRIX_FIELDS[name]
    entries = st.one_of(st.just(field.zero), elements)
    m = data.draw(st.integers(1, 3))
    square = st.lists(st.lists(entries, min_size=m, max_size=m), min_size=m, max_size=m)
    a, b = Matrix(field, data.draw(square)), Matrix(field, data.draw(square))
    s = data.draw(entries)
    # an n x k by k x p product: a generated product for square shapes up to
    # MAX_KERNEL_MATRIX_SIZE, and _rep_dot for every other shape
    n, k, p = (data.draw(st.integers(1, MAX_KERNEL_MATRIX_SIZE + 1)) for _ in range(3))
    left = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    right = data.draw(st.lists(st.lists(entries, min_size=p, max_size=p), min_size=k, max_size=k))
    ra, rb = a.rows, b.rows
    identity = [[field.one if i == j else field.zero for j in range(m)] for i in range(m)]
    expected = {
        "sum": [[x + y for x, y in zip(r, t)] for r, t in zip(ra, rb)],
        "difference": [[x - y for x, y in zip(r, t)] for r, t in zip(ra, rb)],
        "negation": [[-x for x in r] for r in ra],
        "product": _product(field, ra, rb),
        "n x k by k x p product": _product(field, left, right),
        "kron": [[x * y for x in r for y in t] for r in ra for t in rb],
        "transpose": [list(col) for col in zip(*ra)],
        "left multiple": [[s * x for x in r] for r in ra],
        "right multiple": [[x * s for x in r] for r in ra],
        "two-sided action": _product(field, _product(field, ra, rb), ra),
    }
    got = {
        "sum": a + b,
        "difference": a - b,
        "negation": -a,
        "product": a * b,
        "n x k by k x p product": Matrix(field, left) * Matrix(field, right),
        "kron": a.kron(b),
        "transpose": a.transpose(),
        "left multiple": s * a,
        "right multiple": a * s,
        "two-sided action": Matrix.two_sided_action(a, a).act_on(b),
        "unvec": Matrix.unvec(field, a.vec()),
    }
    assert a.vec() == [x for row in ra for x in row] and got["unvec"] == a
    if _det(field, ra).is_zero():
        with pytest.raises(DivisionByZero):
            a.inverse()
    else:
        got["inverse"] = inverse = a.inverse()
        assert _product(field, ra, inverse.rows) == _product(field, inverse.rows, ra) == identity
    for what, matrix in got.items():
        if what in expected:
            assert [list(row) for row in matrix.rows] == expected[what], what
        assert all(type(x) is Scalar and x.field is field for row in matrix.rows for x in row)
        checked = Matrix(field, matrix.rows)
        assert matrix == checked and hash(matrix) == hash(checked)
    # for m > 1 rows 0 and 1 are equal, so the matrix is singular
    repeated = Matrix(field, [ra[0], *ra[:-1]])
    if m > 1:
        with pytest.raises(DivisionByZero):
            repeated.inverse()
        assert not repeated.is_invertible()
    assert a.is_zero() == all(x.is_zero() for row in ra for x in row)
    z = ra[0][0]
    central = Matrix.identity(field, m) * z
    assert central.scalar_part() == z
    assert (a.scalar_part() is not None) == (a == central)


def _holds_scalar(rep) -> bool:
    if isinstance(rep, Scalar):
        return True
    return isinstance(rep, tuple) and any(_holds_scalar(part) for part in rep)


@pytest.mark.parametrize(
    "inner",
    [QQ, GF(5), CyclotomicField(3), FunctionField(QQ, "q")],
    ids=lambda f: f.name,
)
def test_no_scalar_inside_rational_function_reps(inner):
    field = FunctionField(inner, "t")
    t = field.gen
    c = field.coerce(inner.gen if inner.gen is not None else inner.coerce(2))
    values = [t, c, (c * t + 1) / (t**2 - c), (3 * t) / (2 * t + 2), t**3 / (c * t)]
    for s in values + [v.inverse() for v in values] + [v * v + v for v in values]:
        assert not _holds_scalar(s.rep)
        num, den = s.rep
        if inner == QQ:
            assert all(type(c) is int for c in num + den)
            assert den[-1] > 0 and math.gcd(*num, *den) == 1
        else:
            assert den[-1] == inner.one.rep


# ---------------------------------------------------------------------------
# powers: x ** k (rep_pow, with inverse() first for k < 0) against the
# repeated product, k in [-12, 40]


def one_term_cyclotomic(n):
    """c z^j / d, whose powers take the closed form c^k z^(jk mod n) / d^k;
    with k up to 40, jk passes n for every j > 0."""
    field = CyclotomicField(n)
    return st.builds(
        lambda c, j: field.coerce([0] * j + [c]),
        nonzero_rationals,
        st.integers(0, field.degree - 1),
    )


def function_field_elements(field, coeffs):
    """num / den with num and den of at most two terms, so the 40th power
    stays quick to cancel."""
    return st.builds(
        field.from_polys,
        st.lists(coeffs, max_size=2),
        st.lists(coeffs, min_size=1, max_size=2).filter(
            lambda cs: any(not field.inner.coerce(c).is_zero() for c in cs)
        ),
    )


GF5_T, CYC3_T = FunctionField(GF(5), "t"), FunctionField(CyclotomicField(3), "t")
POWER_FIELDS = {
    "Q": (QQ, rationals.map(QQ.coerce)),
    "gf5": (GF(5), st.integers(0, 4).map(GF(5).coerce)),
    "gf67": (GF(67), st.integers(0, 66).map(GF(67).coerce)),
    "Q(q)": (FunctionField(QQ, "q"), function_field_elements(FunctionField(QQ, "q"), rationals)),
    "gf5(t)": (GF5_T, function_field_elements(GF5_T, st.integers(0, 4))),
    "cyclotomic3(t)": (CYC3_T, function_field_elements(CYC3_T, cyclotomic_elements(3))),
}
POWER_FIELDS.update(
    (f"cyclotomic{n}", (CyclotomicField(n), st.one_of(one_term_cyclotomic(n), cyclotomic_elements(n))))
    for n in (3, 5, 12)
)


# Matrix.is_zero compares entries with rep_zero and Matrix.__hash__ hashes
# the reps, so both hold only while every field's zero has one rep
HASH_FIELDS = {name: POWER_FIELDS[name] for name in ("gf5(t)", "cyclotomic3(t)")}
HASH_FIELDS.update(MATRIX_FIELDS)


@pytest.mark.parametrize("name", sorted(HASH_FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matrix_zero_test_and_hash_match_the_entries(name, data):
    field, elements = HASH_FIELDS[name]
    entries = st.one_of(st.just(field.zero), elements)
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rect = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)
    a, b = Matrix(field, data.draw(rect)), Matrix(field, data.draw(rect))
    assert a.is_zero() == all(x.is_zero() for row in a.rows for x in row)
    assert bool(a) == (not a.is_zero())
    assert hash(a) == hash(Matrix(field, a.rows))
    assert (a == b) == (a.rows == b.rows)
    zero = Matrix.zero(field, m, n)
    cancelled = [a - a, a + -a, (a + b) - b - a, a * Matrix.zero(field, n, 2)]
    for z in cancelled:
        assert z.is_zero() and all(x.is_zero() for row in z.rows for x in row)
    for z in cancelled[:3]:
        assert z == zero and hash(z) == hash(zero)
    assert ((a + b) - b) == a and hash((a + b) - b) == hash(a)


def _assert_canonical(field, s: Scalar):
    if field == QQ:
        _assert_q_rep(s.rep, Fraction(s.rep))
    elif isinstance(field, CyclotomicFieldImpl):
        _assert_cyclotomic_rep(s, field.n)
    elif isinstance(field, RationalFunctionFieldOverQ):
        _assert_qt_rep(s)
    elif isinstance(field, RationalFunctionField):
        assert not _holds_scalar(s.rep) and s.rep[1][-1] == field.inner.one.rep


# equal reps are equal elements, so a power equal to the repeated product
# has its canonical rep; the rep checks (sympy's gcd over Q) run at these k
CHECKED_K = {1, 2, 3, 5, 17, 40, -1, -2, -12}


def _assert_powers_match_products(field, x: Scalar):
    assert x**0 == field.one
    ladders = [(x, range(1, 41))]
    if x.is_zero():
        with pytest.raises(DivisionByZero):
            x**-1
    else:
        ladders.append((x.inverse(), range(-1, -13, -1)))
    for factor, ks in ladders:
        acc = field.one
        for k in ks:
            acc = acc * factor
            power = x**k
            assert power == acc, k
            if k in CHECKED_K:
                _assert_canonical(field, power)


@pytest.mark.parametrize("name", sorted(POWER_FIELDS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_powers_match_repeated_products(name, data):
    field, elements = POWER_FIELDS[name]
    _assert_powers_match_products(field, data.draw(elements))


@pytest.mark.parametrize("name", sorted(POWER_FIELDS))
def test_powers_of_zero_one_and_generators(name):
    field, _ = POWER_FIELDS[name]
    values = [field.zero, field.one, -field.one, field.coerce(2)]
    if field.gen is not None:
        values += [field.gen, -field.gen / 3, field.gen + 1]
    if isinstance(field, CyclotomicFieldImpl):
        # one-term numerators at the top index, where jk >= n soonest
        z = field.gen
        values += [z ** (field.degree - 1), Fraction(-2, 3) * z ** (field.degree - 1)]
    if type(field) is RationalFunctionField:
        # c t^k denominators, which the generic class cancels without a gcd:
        # each value has the rep its fraction gets through the gcd, over the
        # dense denominator (t + 1) c t^k, and a and b are powered below
        t = field.gen
        a, b = (t + 2) / (3 * t**2), (2 * t**3 + 1) / (4 * t)
        for s in (a, b, a + b, a - b, a * b, a * b - b, a * a * t**3):
            num, den = (field.from_polys(field._inner_scalars(p)) * (t + 1) for p in s.rep)
            assert (num / den).rep == s.rep
        values += [a, b]
    for x in values:
        _assert_powers_match_products(field, x)


# ---------------------------------------------------------------------------
# gf(p): primality, factorisation and orders up to the 23-digit cap

below_bound = st.integers(min_value=-3, max_value=_MR_EXACT_BELOW - 1)
up_to_cap = st.integers(min_value=2, max_value=10**23 - 1)


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(st.integers(min_value=-3, max_value=10**6), below_bound))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(min_value=2, max_value=10**11), b=st.integers(min_value=2, max_value=10**11))
def test_is_prime_on_primes_and_their_products(a, b):
    p, q = sympy.nextprime(a), sympy.nextprime(b)
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q)


def test_is_prime_strong_pseudoprimes_and_bound():
    # the least strong pseudoprimes to the bases 2..7 and to 2..23; the
    # bound itself is the least one to the bases 2..37
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n)
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(_MR_EXACT_BELOW)
    assert not sympy.isprime(_MR_EXACT_BELOW)


@settings(max_examples=40, deadline=None)
@given(n=up_to_cap)
def test_factorize_matches_sympy(n):
    assert _factorize(n) == sympy.factorint(n)


@settings(max_examples=20, deadline=None)
@given(n=up_to_cap, a=st.integers(min_value=1, max_value=10**6))
def test_root_of_unity_order_in_large_prime_fields(n, a):
    p = sympy.prevprime(n + 1)
    a %= p
    if a:
        assert root_of_unity_order(GF(p).coerce(a)) == sympy.n_order(a, p)
