"""Exact arithmetic in the supported coefficient fields.

Four fields are available, all with decidable equality through canonical
forms and no floating point anywhere:

* ``QQ`` -- the rationals, an int for an integral value and otherwise a
  :class:`fractions.Fraction` in lowest terms;
* ``GF(p)`` -- the prime field, residues in ``[0, p)``;
* ``CyclotomicField(n)`` -- Q(zeta_n), an element ``(nums, den)`` being
  phi(n) integer numerators over one positive common denominator, with
  ``gcd(den, *nums) == 1`` (the ``nf_elem`` layout of ANTIC); a product
  is the Z[t] product of the numerators reduced from the top by the monic
  integer n-th cyclotomic polynomial, written out as one generated
  straight-line function per field when phi(n) <= ``MAX_KERNEL_DEGREE``;
* ``FunctionField(inner, name)`` -- univariate rational functions over an
  inner field, ``(num, den)`` tuples of the inner field's reps, coprime,
  with monic denominator; over Q, ``(num, den)`` tuples of ints, coprime,
  with ``den[-1] > 0`` and joint content 1.

Each field computes on its own reps (``rep_add``, ``rep_mul``, ...); the
polynomial helpers below take the coefficient field and call those, so a
rational function never wraps its coefficients in :class:`Scalar`.  Q
builds a Fraction only for a value that is not an integer.  The
cyclotomic fields and Q(t) over Q compute on ints alone: they share one
Z[t] product (which the small cyclotomic fields replace by their generated
product) and one intake of rationals, their gcds and inverses are
fraction-free remainder sequences in Z[t], and :class:`fractions.Fraction`
appears only where values are parsed or rendered.  The Z[t] product runs
a generated straight-line product per pair of operand lengths up to
``MAX_KERNEL_LENGTH`` and the schoolbook loop ``_zmul_loop`` above them.
Elements are immutable :class:`Scalar` values carrying a reference to
their field; the usual operators are overloaded.  :class:`Matrix` holds
exact matrices over any of these fields as tuples of their entries' reps,
computes and runs Gauss-Jordan elimination on those reps, and backs both
matrix-algebra coefficients and linear-system solving; an m x m product
with m up to ``MAX_KERNEL_MATRIX_SIZE`` runs a generated straight-line
product per m.  Only this module reads that storage, and only
:class:`Matrix` knows the row-major order in which a linear map on m x m
matrices acts on their entries.

Fields are made only by ``QQ`` and the factories ``GF``,
``CyclotomicField`` and ``FunctionField`` (which ``parse_field`` calls),
each returning one cached object per field, so a field compares and
hashes by identity.  Values combine within one field: Scalar and Matrix
arithmetic coerces ints and Fractions into the field and raises
:class:`TypeError` on a value of another field.  A Scalar equals only a
Scalar of the same field, never an int or Fraction, so equal values hash
equal.  ``field.coerce`` is the one way a value moves between fields: Q
into cyclotomic(n) or gf(p), an inner field into F(t).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .errors import DivisionByZero, ScalarError, ZeroInput

# largest n accepted for Q(zeta_n); a product there costs O(phi(n)^2)
MAX_CYCLOTOMIC_ORDER = 1000
# largest phi(n) whose cyclotomic(n) multiplies by a generated straight-line
# product; above it a one-term operand multiplies faster through _zmul
MAX_KERNEL_DEGREE = 16
# largest operand length whose Z[t] products run through a generated
# straight-line product; above it a one-term operand (q^k, a lambda^k move)
# multiplies faster through _zmul_loop's sparse loop
MAX_KERNEL_LENGTH = 10
# largest m whose m x m matrix products run through a generated straight-line
# product; each size costs a compile of O(m^3) lines on first use
MAX_KERNEL_MATRIX_SIZE = 3
# digits of p accepted for gf(p); every such p is below _MR_EXACT_BELOW,
# where is_prime is exact
MAX_PRIME_DIGITS = 23


# ---------------------------------------------------------------------------
# integer helpers


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _factorize(n: int) -> dict[int, int]:
    """Prime factorisation of 0 < n < _MR_EXACT_BELOW: trial division by
    d < 1000, then Pollard's rho on the cofactors that are not prime."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d < 1000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho_factor(m)
            pending += [f, m // f]
    return out


def _rho_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor below 1000:
    Pollard's rho in Brent's form, gcds taken over batches of 128 steps
    (Brent, BIT 20, 1980)."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def mobius(n: int) -> int:
    f = _factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


# Miller-Rabin with the first 12 primes as bases is exact below the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86,
# 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact, and refused, from _MR_EXACT_BELOW."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BELOW}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers
#
# Polynomials are tuples of coefficient reps of one field F, constant term
# first, with a nonzero leading coefficient (() is the zero polynomial).
# Every helper takes F and computes with its rep-level operations.


def _ptrim(cs, F) -> tuple:
    n = len(cs)
    while n and F.rep_is_zero(cs[n - 1]):
        n -= 1
    return tuple(cs[:n])


def _padd(a, b, F) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    add = F.rep_add
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return _ptrim(out, F)


def _pneg(a, F) -> tuple:
    return tuple(map(F.rep_neg, a))


def _pmul(a, b, F) -> tuple:
    if not a or not b:
        return ()
    add, mul, is_zero = F.rep_add, F.rep_mul, F.rep_is_zero
    right = [(j, d) for j, d in enumerate(b) if not is_zero(d)]
    out = [F.rep_zero] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if is_zero(c):
            continue
        for j, d in right:
            out[i + j] = add(out[i + j], mul(c, d))
    return _ptrim(out, F)


def _pdivmod(a, b, F) -> tuple[tuple, tuple]:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    add, mul, is_zero = F.rep_add, F.rep_mul, F.rep_is_zero
    lead_inv = F.rep_inv(b[-1])
    db = len(b) - 1
    # rem[k + i] -= factor * b[i] for the nonzero lower coefficients of b
    lower = [(i, F.rep_neg(c)) for i, c in enumerate(b[:db]) if not is_zero(c)]
    rem = list(a)
    quot = [F.rep_zero] * max(0, len(a) - db)
    for k in range(len(a) - len(b), -1, -1):
        top = rem[k + db]
        if is_zero(top):
            continue
        factor = mul(top, lead_inv)
        quot[k] = factor
        for i, c in lower:
            rem[k + i] = add(rem[k + i], mul(factor, c))
    return _ptrim(quot, F), _ptrim(rem[:db], F)


def _pmonic(a, F) -> tuple:
    if not a or a[-1] == F.rep_one:
        return a
    inv = F.rep_inv(a[-1])
    return tuple(F.rep_mul(c, inv) for c in a)


def _pgcd(a, b, F) -> tuple:
    while b:
        a, b = b, _pdivmod(a, b, F)[1]
    return _pmonic(a, F)


class _IntegerRing:
    """Z as a coefficient domain of the helpers above (a ring: no rep_inv)."""

    rep_zero = 0
    rep_add = staticmethod(operator.add)
    rep_neg = staticmethod(operator.neg)
    rep_mul = staticmethod(operator.mul)
    rep_is_zero = staticmethod(operator.not_)


_ZZ = _IntegerRing()

# ---------------------------------------------------------------------------
# generated straight-line products
#
# A product of small fixed shape (two int tuples of given lengths, two m x m
# matrices) runs fastest as one function that unpacks its operands into
# locals and writes each result out as one expression.  The source is built
# from integers alone and compiled once per shape, on first use.


def _convolution(la: int, lb: int) -> tuple[list[str], list[str]]:
    """Source of a function ``f(a, b)`` of an la-tuple and an lb-tuple:
    its lines up to the unpacking of both operands into the locals
    ``a0, a1, ...`` and ``b0, b1, ...``, and the expression of each
    coefficient of their product, ``a0*b2 + a1*b1 + a2*b0`` for the third."""
    head = [
        "def f(a, b):",
        f"    {''.join(f'a{i}, ' for i in range(la))}= a",
        f"    {''.join(f'b{i}, ' for i in range(lb))}= b",
    ]
    sums = [
        " + ".join(f"a{i}*b{m - i}" for i in range(max(0, m - lb + 1), min(m, la - 1) + 1))
        for m in range(la + lb - 1)
    ]
    return head, sums


def _compile(lines: list[str], label: str):
    """The function ``f`` defined by the source ``lines``, compiled under the
    filename ``<label>``."""
    namespace = {}
    exec(compile("\n".join(lines), f"<{label}>", "exec"), namespace)
    return namespace["f"]


# Z[t] helpers on int tuples, shared by Q(t) and cyclotomic(n): plain integer
# loops (the generic helpers with _ZZ are their test oracle), fraction-free
# remainder sequences (Knuth, TAOCP vol. 2, 4.6.1), and the intake of rationals.
# _zmul multiplies Q(t) numerators and denominators and, with _fold_top, the
# numerators of cyclotomic(n) for phi(n) > MAX_KERNEL_DEGREE.  Operands of
# lengths up to MAX_KERNEL_LENGTH go through a generated product per pair of
# lengths, and longer ones through _zmul_loop, the schoolbook loop, which is
# the oracle of every generated product.


def _zadd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# the generated Z[t] products, by the pair of operand lengths
_ZMUL_KERNELS: dict = {}


def _zmul(a, b) -> tuple:
    kernel = _ZMUL_KERNELS.get((len(a), len(b)))
    if kernel is None:
        if not a or not b:
            return ()
        if len(a) > MAX_KERNEL_LENGTH or len(b) > MAX_KERNEL_LENGTH:
            return _zmul_loop(a, b)
        kernel = _ZMUL_KERNELS[len(a), len(b)] = _zmul_kernel(len(a), len(b))
    return kernel(a, b)


def _zmul_kernel(la: int, lb: int):
    """A straight-line product of an la-tuple and an lb-tuple of ints: every
    coefficient of the product is one sum of int products."""
    head, sums = _convolution(la, lb)
    body = f"    return ({''.join(f'{c}, ' for c in sums)})"
    return _compile([*head, body], f"Z[t] product {la}x{lb}")


def _zmul_loop(a, b) -> tuple:
    if not a or not b:
        return ()
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return tuple([c * d for d in b])
    # the outer loop runs over the operand with fewer nonzero entries, so a
    # sparse operand such as q^40 costs its length, not a product of lengths
    if len(a) - a.count(0) > len(b) - b.count(0):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                if d:
                    out[j] += c * d
    # Z is a domain, so trimmed operands give a trimmed product; the padded
    # numerators of cyclotomic(n) give top zeros, which _fold_top absorbs
    return tuple(out)


def _zreduce(a, b, sa=(), sb=()) -> tuple[tuple, tuple]:
    """(r, s) with r = c*a - q*b of degree below deg b, for a nonzero int c
    and q in Z[t]; s = c*sa - q*sb by the same row operations.  Both are
    divided by their joint content, so s*x = r modulo m whenever sa*x = a
    and sb*x = b modulo m."""
    lead, db = b[-1], len(b) - 1
    r, s = list(a), list(sa)
    while len(r) > db:
        top = r[-1]
        g = math.gcd(lead, top)
        m, f = lead // g, top // g
        k = len(r) - 1 - db
        if m != 1:
            r = [m * c for c in r]
            s = [m * c for c in s]
        for i, c in enumerate(b):
            r[k + i] -= f * c
        if sb:
            s += [0] * (len(sb) + k - len(s))
            for i, c in enumerate(sb):
                s[k + i] -= f * c
        while r and not r[-1]:
            r.pop()
    while s and not s[-1]:
        s.pop()
    g = math.gcd(*r, *s)
    if g > 1:
        return tuple(c // g for c in r), tuple(c // g for c in s)
    return tuple(r), tuple(s)


def _zgcd(a, b) -> tuple:
    """A primitive gcd of nonzero a and b in Z[t], of either sign."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _zreduce(a, b)[0]
    g = math.gcd(*a)
    return a if g == 1 else tuple(c // g for c in a)


def _zexquo(a, b) -> tuple:
    """a / b in Z[t], for a primitive b that divides a in Q[t] (Gauss's
    lemma makes the quotient integral)."""
    rem = list(a)
    lead, db = b[-1], len(b) - 1
    quot = [0] * (len(a) - db)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + db] // lead
        if c:
            quot[k] = c
            for i in range(db):
                rem[k + i] -= c * b[i]
    return tuple(quot)


def _integral(coeffs) -> tuple[list, int]:
    """(ints, m) with ints / m == coeffs, for ints, Fractions or rational
    scalars; any other value raises :class:`ScalarError`."""
    if all(type(c) is int for c in coeffs):
        return list(coeffs), 1
    fracs = [QQ.coerce(c).rep for c in coeffs]
    m = math.lcm(*(c.denominator for c in fracs))
    return [c.numerator * (m // c.denominator) for c in fracs], m


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant term first.

    Phi_n = prod over d | n of (x^d - 1)^mu(n/d): the factors with mu = 1
    are multiplied in first, then those with mu = -1 divided out exactly.
    """
    if n < 1:
        raise ValueError("order must be positive")
    factors = [(d, mobius(n // d)) for d in divisors(n)]
    poly = (1,)
    for d, mu in factors:
        if mu == 1:
            poly = _zmul(poly, (-1,) + (0,) * (d - 1) + (1,))
    for d, mu in factors:
        if mu == -1:
            poly = _zexquo(poly, (-1,) + (0,) * (d - 1) + (1,))
    return poly


# ---------------------------------------------------------------------------
# fields and scalars


class Scalar:
    """Immutable element of one of the supported fields."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    # -- arithmetic ----------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, (int, Fraction)):
            return op(self, self.field.coerce(other))
        if isinstance(other, Scalar) and other.field is self.field:
            return op(self, other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is Scalar and other.field is self.field:
            return self.field.add(self, other)
        return self._binary(other, lambda a, b: a.field.add(a, b))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Scalar and other.field is self.field:
            return self.field.add(self, self.field.neg(other))
        return self._binary(other, lambda a, b: a.field.add(a, b.field.neg(b)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is Scalar and other.field is self.field:
            return self.field.mul(self, other)
        return self._binary(other, lambda a, b: a.field.mul(a, b))

    # fields are commutative
    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a.field.mul(a, b.inverse()))

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __neg__(self):
        return self.field.neg(self)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if not k:
            return self.field.one
        x = self.inverse() if k < 0 else self
        return Scalar(x.field, x.field.rep_pow(x.rep, abs(k)))

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero(f"inverse of zero in {self.field}")
        return self.field.inv(self)

    def is_zero(self) -> bool:
        return self.field.rep_is_zero(self.rep)

    def __bool__(self):
        return not self.is_zero()

    # -- structure -----------------------------------------------------

    def __eq__(self, other):
        # only a Scalar of the same field can be equal, as only its hash
        # agrees; compare an int or Fraction through field.coerce
        if isinstance(other, Scalar):
            return other.field is self.field and self.rep == other.rep
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.rep))

    def __repr__(self):
        return self.field.rep_str(self.rep)

    __str__ = __repr__


class _FieldBase:
    """Shared behaviour of the concrete field classes.

    A field computes on its reps through ``rep_zero``, ``rep_one``,
    ``rep_add``, ``rep_neg``, ``rep_mul``, ``rep_pow``, ``rep_inv``,
    ``rep_is_zero`` and ``rep_str``; Scalar and the operations here wrap
    them.  ``rep_pow(x, k)`` (k >= 1) squares and multiplies through
    ``rep_mul`` unless the field has a closed form.  Only the factories
    build fields, one object each, so two fields are equal exactly when
    they are the same object; scalars are immutable, so ``zero`` and ``one``
    are built once.
    """

    gen_name: str | None = None
    # every root of unity in the field has an order dividing this: 2 for Q
    roots_of_unity_exponent = 2

    @functools.cached_property
    def zero(self) -> Scalar:
        return Scalar(self, self.rep_zero)

    @functools.cached_property
    def one(self) -> Scalar:
        return Scalar(self, self.rep_one)

    @property
    def gen(self) -> Scalar | None:
        return None

    def coerce(self, value) -> Scalar:
        raise NotImplementedError

    def add(self, a, b):
        return Scalar(self, self.rep_add(a.rep, b.rep))

    def neg(self, a):
        return Scalar(self, self.rep_neg(a.rep))

    def mul(self, a, b):
        return Scalar(self, self.rep_mul(a.rep, b.rep))

    def inv(self, a):
        return Scalar(self, self.rep_inv(a.rep))

    def rep_pow(self, x, k: int):
        return _power(x, k, self.rep_mul)

    def generator_named(self, name: str) -> Scalar | None:
        """The generator called ``name`` of this field or of a field it is
        built over, as an element of this field; None when there is none."""
        return self.gen if name == self.gen_name else None

    # -- maps given by the image of the generator ----------------------------
    # sigma sends the generator to ``image`` (None: the identity), delta to d
    # (None: zero).  Q and GF(p) have no generator and admit only those two.

    def substitute(self, s: Scalar, image: Scalar | None) -> Scalar:
        """sigma(s)."""
        return s

    def derive(self, s: Scalar, image: Scalar | None, d: Scalar | None) -> Scalar:
        """delta(s) for the sigma-derivation sending the generator to d."""
        return self.zero

    def automorphism_defect(self, image: Scalar | None) -> str | None:
        """Why ``image`` defines no automorphism, or None when it does."""
        return None if image is None else "this field admits only the identity"

    def derivation_defect(self, image: Scalar | None, d: Scalar | None) -> str | None:
        """Why d defines no sigma-derivation, or None when it does."""
        if d is None or d.is_zero():
            return None
        return "prime fields admit no nonzero derivations"

    def is_constant(self, s: Scalar) -> bool:
        """Whether s is algebraic over the prime field.  Q, GF(p) and
        cyclotomic(n) are algebraic, so every element is."""
        return True

    def __repr__(self):
        return self.name


def _horner(field, coeffs, x: Scalar) -> Scalar:
    """sum_k coeffs[k] x^k in ``field``; the coefficients are coerced into it."""
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * x + field.coerce(c)
    return acc


def _power_rule(field, coeffs, image: Scalar | None, d: Scalar) -> Scalar:
    """delta of a polynomial in the generator, by the twisted power rule.

    delta(g^k) = sigma(g) delta(g^{k-1}) + d g^{k-1}; constants from the
    prime field (or the inner field) are killed.
    """
    gen = field.gen
    sigma_gen = gen if image is None else image
    total = field.zero
    power_deriv = field.zero  # delta(g^0)
    gen_pow = field.one  # g^{k-1} tracker
    for k, c in enumerate(coeffs):
        if k > 0:
            power_deriv = sigma_gen * power_deriv + d * gen_pow
            gen_pow = gen_pow * gen
        if c:
            total = total + field.coerce(c) * power_deriv
    return total


class RationalField(_FieldBase):
    """Q.  A rep is an int when the value is integral and otherwise a
    :class:`fractions.Fraction` in lowest terms, so each value has one rep;
    integer arithmetic, the common case, never builds a Fraction.  An int
    and a Fraction of equal value compare and hash alike."""

    name = "Q"
    rep_zero = 0
    rep_one = 1
    rep_neg = staticmethod(operator.neg)
    # k >= 1 keeps an int an int and a non-integral Fraction non-integral
    rep_pow = staticmethod(operator.pow)
    rep_is_zero = staticmethod(operator.not_)
    rep_str = staticmethod(str)

    @staticmethod
    def rep_add(x, y):
        z = x + y
        return z if type(z) is int or z.denominator != 1 else z.numerator

    @staticmethod
    def rep_mul(x, y):
        z = x * y
        return z if type(z) is int or z.denominator != 1 else z.numerator

    @staticmethod
    def rep_inv(x):
        z = Fraction(1) / x
        return z if z.denominator != 1 else z.numerator

    def coerce(self, value) -> Scalar:
        if isinstance(value, Scalar):
            if value.field is self:
                return value
            raise ScalarError(f"cannot coerce {value!r} into Q")
        if isinstance(value, int):
            return Scalar(self, int(value))
        if isinstance(value, Fraction):
            return Scalar(self, value if value.denominator != 1 else value.numerator)
        raise ScalarError(f"cannot coerce {value!r} into Q")


QQ = RationalField()


class PrimeFieldImpl(_FieldBase):
    rep_zero = 0
    rep_one = 1
    rep_is_zero = staticmethod(operator.not_)
    rep_str = staticmethod(str)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"gf({p})"
        self.roots_of_unity_exponent = p - 1

    def rep_add(self, x, y):
        return (x + y) % self.p

    def rep_neg(self, x):
        return -x % self.p

    def rep_mul(self, x, y):
        return x * y % self.p

    def rep_inv(self, x):
        return pow(x, -1, self.p)

    def coerce(self, value) -> Scalar:
        if isinstance(value, Scalar):
            if value.field is self:
                return value
            if value.field is QQ:
                value = value.rep
            else:
                raise ScalarError(f"cannot coerce {value!r} into {self.name}")
        if isinstance(value, int):
            return Scalar(self, value % self.p)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ScalarError(f"denominator of {value} vanishes in {self.name}")
            return Scalar(self, value.numerator * pow(den, -1, self.p) % self.p)
        raise ScalarError(f"cannot coerce {value!r} into {self.name}")


@functools.lru_cache(maxsize=None)
def GF(p: int, /) -> PrimeFieldImpl:
    return PrimeFieldImpl(p)


class CyclotomicFieldImpl(_FieldBase):
    """Q(zeta_n); an element is (nums, den), sum_k nums[k] z^k / den.

    ``nums`` holds phi(n) ints, ``den > 0`` and ``gcd(den, *nums) == 1``,
    so equal elements have equal reps.  ``_mul_nums`` multiplies two
    numerator tuples modulo Phi_n: a straight-line function generated once
    per field when phi(n) <= ``MAX_KERNEL_DEGREE``, and ``_zmul`` followed
    by ``_fold_top`` above that, where a one-term operand (a lambda^k
    move) costs less through ``_zmul``'s sparse loop.
    """

    gen_name = "z"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("order must be positive")
        if n > MAX_CYCLOTOMIC_ORDER:
            raise ValueError(f"cyclotomic order {n} exceeds {MAX_CYCLOTOMIC_ORDER}")
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        self.name = f"cyclotomic({n})"
        # the roots of unity of Q(zeta_n) are the +-zeta_n^k
        self.roots_of_unity_exponent = math.lcm(2, n)
        # z^degree = sum_j -modulus[j] z^j over the nonzero lower coefficients
        self._fold = tuple((j, -c) for j, c in enumerate(self.modulus[:-1]) if c)
        self.rep_zero = ((0,) * self.degree, 1)
        self.rep_one = ((1,) + (0,) * (self.degree - 1), 1)
        if self.degree <= MAX_KERNEL_DEGREE:
            self._mul_nums = self._product_kernel()
        else:
            self._mul_nums = self._zmul_fold

    @functools.cached_property
    def gen(self) -> Scalar:
        return Scalar(self, self._make([0, 1], 1))

    def _fold_top(self, coeffs) -> list:
        """Reduce a sequence of at least degree ints modulo Phi_n: each top
        coefficient is popped off one working list as it folds."""
        d = self.degree
        fold = self._fold
        coeffs = list(coeffs)
        pop = coeffs.pop
        for base in range(len(coeffs) - 1 - d, -1, -1):
            c = pop()
            if c:
                for j, m in fold:
                    coeffs[base + j] += c * m
        return coeffs

    def _zmul_fold(self, a, b) -> tuple:
        return tuple(self._fold_top(_zmul(a, b)))

    def _product_kernel(self):
        """A straight-line product of two numerator tuples modulo Phi_n.

        Each convolution coefficient c_m is written out as a sum of int
        products, and each c_m with m >= degree is added into the low
        coefficients by the reduction of z^m, read off :meth:`_fold_top`.
        """
        d = self.degree
        lines, sums = _convolution(d, d)
        low = sums[:d]
        for m in range(d, 2 * d - 1):
            lines.append(f"    c{m} = {sums[m]}")
            for k, r in enumerate(self._fold_top([0] * m + [1])):
                if r:
                    sign = "-" if r < 0 else "+"
                    low[k] += f" {sign} c{m}" if abs(r) == 1 else f" {sign} {abs(r)}*c{m}"
        lines.append(f"    return ({''.join(f'{e}, ' for e in low)})")
        return _compile(lines, f"{self.name} product")

    @staticmethod
    def _normal(nums, den: int) -> tuple:
        """(nums, den) over a positive denominator coprime to the content."""
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            return tuple(c // g for c in nums), den // g
        return tuple(nums), den

    def _make(self, nums, den: int) -> tuple:
        """The rep of (sum_k nums[k] z^k) / den, for ints nums and den."""
        if not den:
            raise DivisionByZero(f"zero denominator in {self.name}")
        padding = [0] * (self.degree - len(nums))
        return self._normal(self._fold_top([*nums, *padding]), den)

    def coerce(self, value) -> Scalar:
        if isinstance(value, Scalar):
            if value.field is self:
                return value
            if value.field is QQ:
                value = value.rep
            else:
                raise ScalarError(f"cannot coerce {value!r} into {self.name}")
        if isinstance(value, (int, Fraction)):
            return Scalar(self, self._make([value.numerator], value.denominator))
        if isinstance(value, (tuple, list)):
            return Scalar(self, self._make(*_integral(value)))
        raise ScalarError(f"cannot coerce {value!r} into {self.name}")

    def rep_add(self, x, y):
        (an, ad), (bn, bd) = x, y
        if ad == bd:
            nums = [a + b for a, b in zip(an, bn)]
            return (tuple(nums), 1) if ad == 1 else self._normal(nums, ad)
        return self._normal([a * bd + b * ad for a, b in zip(an, bn)], ad * bd)

    def rep_neg(self, x):
        nums, den = x
        return tuple(-c for c in nums), den

    def rep_mul(self, x, y):
        """The product rep: ``_mul_nums`` on the numerators, over ad * bd."""
        (an, ad), (bn, bd) = x, y
        nums = self._mul_nums(an, bn)
        den = ad * bd
        return (nums, 1) if den == 1 else self._normal(nums, den)

    def rep_pow(self, x, k):
        nums, den = x
        terms = [(j, c) for j, c in enumerate(nums) if c]
        if len(terms) != 1:
            return _power(x, k, self.rep_mul)
        # (c z^j / den)^k = c^k z^(jk mod n) / den^k, as z^n = 1; z^m is a
        # unit of Z[z], so its reduction has content 1 and gcd(c, den) = 1
        # leaves the rep canonical
        (j, c), = terms
        m = j * k % self.n
        nums = [0] * max(self.degree, m + 1)
        nums[m] = c**k
        return tuple(self._fold_top(nums)), den**k

    def rep_inv(self, x):
        nums, den = x
        # a fraction-free extended remainder sequence from (Phi_n, nums)
        # that tracks only the cofactor of nums: s * nums = r modulo Phi_n
        r0, s0 = self.modulus, ()
        r1, s1 = _ptrim(nums, _ZZ), (1,)
        while len(r1) > 1:
            r0, s0, (r1, s1) = r1, s1, _zreduce(r0, r1, s0, s1)
        if not r1:
            raise DivisionByZero(f"{self.rep_str(x)} is not invertible in {self.name}")
        # s * nums = c modulo Phi_n for the int c, so den * s / c inverts nums / den
        return self._make([den * c for c in s1], r1[0])

    def rep_is_zero(self, x):
        return not any(x[0])

    def rep_str(self, x):
        nums, den = x
        return _render_poly([Fraction(c, den) for c in nums], "z", QQ, str)

    def substitute(self, s, image):
        if image is None:
            return s
        nums, den = s.rep
        value = _horner(self, nums, image)
        return value if den == 1 else value * Fraction(1, den)

    def derive(self, s, image, d):
        if d is None or d.is_zero():
            return self.zero
        nums, den = s.rep
        value = _power_rule(self, nums, image, d)
        return value if den == 1 else value * Fraction(1, den)

    def automorphism_defect(self, image):
        if image is None or _horner(self, self.modulus, image).is_zero():
            return None
        return f"generator image {image} is not a primitive root"

    def derivation_defect(self, image, d):
        if d is None or d.is_zero():
            return None
        value = _power_rule(self, self.modulus, image, d)
        return None if value.is_zero() else f"delta(minimal polynomial) = {value} != 0"


@functools.lru_cache(maxsize=None)
def CyclotomicField(n: int, /) -> CyclotomicFieldImpl:
    return CyclotomicFieldImpl(n)


class RationalFunctionField(_FieldBase):
    """Univariate rational functions over an inner field.

    An element is a (numerator, denominator) pair of coefficient tuples of
    inner-field reps, coprime, with monic denominator.  Over Q the field is
    :class:`RationalFunctionFieldOverQ`, which stores integer polynomials.
    """

    def __init__(self, inner, name: str):
        if not name.isidentifier():
            raise ValueError(f"bad indeterminate name {name!r}")
        self.inner = inner
        self.var = name
        self.name = f"{inner.name}({name})"
        self.gen_name = name
        # a root of unity is algebraic, so a constant: one of the inner field
        self.roots_of_unity_exponent = inner.roots_of_unity_exponent
        self._one_poly = (inner.rep_one,)
        self.rep_zero = ((), self._one_poly)
        self.rep_one = (self._one_poly, self._one_poly)

    @functools.cached_property
    def gen(self) -> Scalar:
        return Scalar(self, ((self.inner.rep_zero, self.inner.rep_one), self._one_poly))

    def _make(self, num, den) -> tuple:
        """The rep of num/den: cancelled, with monic denominator."""
        F = self.inner
        num = _ptrim(num, F)
        den = _ptrim(den, F)
        if not den:
            raise DivisionByZero(f"zero denominator in {self.name}")
        if not num:
            return self.rep_zero
        if den == self._one_poly:
            return num, den
        if all(map(F.rep_is_zero, den[:-1])):
            # den = c t^k: the gcd is t^min(k, v), v the order of num at 0
            v = next(i for i, c in enumerate(num) if not F.rep_is_zero(c))
            m = min(len(den) - 1, v)
            num = num[m:]
            den = (F.rep_zero,) * (len(den) - 1 - m) + (den[-1],)
        else:
            g = _pgcd(num, den, F)
            if len(g) > 1:
                num = _pdivmod(num, g, F)[0]
                den = _pdivmod(den, g, F)[0]
        lead = den[-1]
        if lead == F.rep_one:
            return num, den
        inv = F.rep_inv(lead)
        return tuple(F.rep_mul(c, inv) for c in num), tuple(F.rep_mul(c, inv) for c in den)

    def from_polys(self, num_coeffs, den_coeffs=None) -> Scalar:
        coerce = self.inner.coerce
        num = tuple(coerce(c).rep for c in num_coeffs)
        den = self._one_poly if den_coeffs is None else tuple(coerce(c).rep for c in den_coeffs)
        return Scalar(self, self._make(num, den))

    def coerce(self, value) -> Scalar:
        if isinstance(value, Scalar):
            if value.field is self:
                return value
            rep = self.inner.coerce(value).rep
            if self.inner.rep_is_zero(rep):
                return self.zero
            return Scalar(self, ((rep,), self._one_poly))
        if isinstance(value, (int, Fraction)):
            return self.coerce(self.inner.coerce(value))
        raise ScalarError(f"cannot coerce {value!r} into {self.name}")

    def rep_add(self, x, y):
        (an, ad), (bn, bd) = x, y
        F = self.inner
        if ad == bd:
            num = _padd(an, bn, F)
            return (num, ad) if ad == self._one_poly else self._make(num, ad)
        return self._make(_padd(_pmul(an, bd, F), _pmul(bn, ad, F), F), _pmul(ad, bd, F))

    def rep_neg(self, x):
        num, den = x
        return _pneg(num, self.inner), den

    def rep_mul(self, x, y):
        (an, ad), (bn, bd) = x, y
        F = self.inner
        one = self._one_poly
        if ad == one and bd == one:
            if len(an) == 1 and len(bn) == 1:
                return (F.rep_mul(an[0], bn[0]),), one
            return _pmul(an, bn, F), one
        return self._make(_pmul(an, bn, F), _pmul(ad, bd, F))

    def rep_inv(self, x):
        num, den = x
        return self._make(den, num)

    def rep_is_zero(self, x):
        return not x[0]

    def _view(self, x) -> tuple:
        """(num, den) as inner-field reps with monic den: the rep itself."""
        return x

    def rep_str(self, x):
        num, den = self._view(x)
        F = self.inner

        def coeff_str(c):
            return _wrap(F.rep_str(c))

        num_str = _render_poly(num, self.var, F, coeff_str)
        if den == self._one_poly:
            return num_str
        return f"({num_str})/({_render_poly(den, self.var, F, coeff_str)})"

    def _inner_scalars(self, poly) -> list[Scalar]:
        return [Scalar(self.inner, c) for c in poly]

    def generator_named(self, name):
        if name == self.gen_name:
            return self.gen
        inner = self.inner.generator_named(name)
        return None if inner is None else self.coerce(inner)

    def substitute(self, s, image):
        if image is None:
            return s
        num, den = self._view(s.rep)
        return _horner(self, self._inner_scalars(num), image) / _horner(
            self, self._inner_scalars(den), image
        )

    def derive(self, s, image, d):
        if d is None or d.is_zero():
            return self.zero
        num, den = self._view(s.rep)
        d_num = _power_rule(self, self._inner_scalars(num), image, d)
        if den == self._one_poly:
            return d_num
        d_den = _power_rule(self, self._inner_scalars(den), image, d)
        den_val = self.from_polys(self._inner_scalars(den))
        return (d_num - self.substitute(s, image) * d_den) / den_val

    def automorphism_defect(self, image):
        if image is None:
            return None
        num, den = image.rep
        if len(num) <= 2 and len(den) <= 2 and (len(num) == 2 or len(den) == 2):
            a, b, c, d = self._moebius(image)
            if not (a * d - b * c).is_zero():
                return None
        return f"generator image {image} is not a unit fraction"

    def derivation_defect(self, image, d):
        # t is transcendental over the inner field, so every image d extends
        return None

    def is_constant(self, s):
        # the inner field is algebraically closed in F(t), so the algebraic
        # elements are the constants that are algebraic in the inner field
        num, den = self._view(s.rep)
        if len(num) > 1 or len(den) > 1:
            return False
        return all(self.inner.is_constant(c) for c in self._inner_scalars(num))

    def _moebius(self, image: Scalar) -> tuple:
        """(a, b, c, d) in the inner field with image = (a t + b) / (c t + d),
        for image of degree <= 1."""
        num, den = self._view(image.rep)
        zero = self.inner.rep_zero
        return tuple(
            self._inner_scalars((
                num[1] if len(num) == 2 else zero,
                num[0] if num else zero,
                den[1] if len(den) == 2 else zero,
                den[0],
            ))
        )


class RationalFunctionFieldOverQ(RationalFunctionField):
    """Q(t), computed on integer polynomials.

    An element is a (num, den) pair of int tuples, constant term first,
    trimmed, with ``den[-1] > 0``, joint content ``gcd(*num, *den) == 1``
    and num, den coprime in Q[t]; zero is ``((), (1,))``.  So equal
    elements have equal reps.  Cancellation takes a primitive remainder
    sequence gcd in Z[t], except over a Laurent denominator c t^k, where
    ``_laurent`` cancels a power of t and the content and takes no
    polynomial gcd; ``_make`` hands it every such denominator.  A sum of
    two Laurent reps with one c shifts the numerators over c t^max(k), and
    a product of two Laurent reps goes over c_a c_b t^(k_a + k_b), instead
    of cross-multiplying.  :class:`fractions.Fraction` appears only where
    values enter (``coerce``, ``from_polys``) and in ``_view``, the
    monic-denominator rep of the generic class, which rendering and the
    generator maps read.
    """

    def __init__(self, name: str):
        super().__init__(QQ, name)
        self._one_poly = (1,)
        self.rep_zero = ((), (1,))
        self.rep_one = ((1,), (1,))

    @functools.cached_property
    def gen(self) -> Scalar:
        return Scalar(self, ((0, 1), (1,)))

    def _make(self, num, den) -> tuple:
        """The rep of num/den for int coefficient sequences num and den."""
        num = _ptrim(num, _ZZ)
        den = _ptrim(den, _ZZ)
        if not den:
            raise DivisionByZero(f"zero denominator in {self.name}")
        if not num:
            return self.rep_zero
        if den == (1,):
            return num, den
        if not any(den[:-1]):
            return self._laurent(num, den[-1], len(den) - 1)
        g = _zgcd(num, den)
        if len(g) > 1:
            num, den = _zexquo(num, g), _zexquo(den, g)
        g = math.gcd(*num, *den)
        if den[-1] < 0:
            g = -g
        if g != 1:
            return tuple(c // g for c in num), tuple(c // g for c in den)
        return num, den

    @staticmethod
    def _laurent(num, c: int, k: int) -> tuple:
        """The rep of num / (c t^k), for a trimmed nonzero int tuple num and
        a nonzero int c: the gcd with c t^k is t^min(k, v), v the order of
        num at 0, times the joint content, so no polynomial gcd is taken."""
        if k and not num[0]:
            v = 1
            while not num[v]:
                v += 1
            m = min(k, v)
            num, k = num[m:], k - m
        g = math.gcd(c, *num)
        if c < 0:
            g = -g
        if g != 1:
            num, c = tuple([a // g for a in num]), c // g
        return num, (0,) * k + (c,)

    def from_polys(self, num_coeffs, den_coeffs=None) -> Scalar:
        num, m = _integral(num_coeffs)
        den, k = ([1], 1) if den_coeffs is None else _integral(den_coeffs)
        # (num / m) / (den / k) = (k num) / (m den)
        return Scalar(self, self._make([k * c for c in num], [m * c for c in den]))

    def coerce(self, value) -> Scalar:
        if isinstance(value, Scalar) and value.field is self:
            return value
        if isinstance(value, (int, Fraction, Scalar)):
            c = QQ.coerce(value).rep
            return Scalar(self, ((c.numerator,), (c.denominator,)) if c else self.rep_zero)
        raise ScalarError(f"cannot coerce {value!r} into {self.name}")

    def rep_add(self, x, y):
        (an, ad), (bn, bd) = x, y
        if not an:
            return y
        if not bn:
            return x
        if ad == bd:
            num = _zadd(an, bn)
            return (num, ad) if ad == (1,) else self._make(num, ad)
        c = ad[-1]
        if c != bd[-1] or any(ad[:-1]) or any(bd[:-1]):
            return self._make(_zadd(_zmul(an, bd), _zmul(bn, ad)), _zmul(ad, bd))
        # c t^ka and c t^kb: both numerators over c t^max(ka, kb)
        ka, kb = len(ad) - 1, len(bd) - 1
        if ka < kb:
            an, k = (0,) * (kb - ka) + an, kb
        else:
            bn, k = (0,) * (ka - kb) + bn, ka
        num = _zadd(an, bn)
        return self._laurent(num, c, k) if num else self.rep_zero

    def rep_neg(self, x):
        num, den = x
        return _pneg(num, _ZZ), den

    def rep_mul(self, x, y):
        (an, ad), (bn, bd) = x, y
        if not an or not bn:
            return self.rep_zero
        if ad == (1,) and bd == (1,):
            return _zmul(an, bn), ad
        if any(ad[:-1]) or any(bd[:-1]):
            return self._make(_zmul(an, bn), _zmul(ad, bd))
        return self._laurent(_zmul(an, bn), ad[-1] * bd[-1], len(ad) + len(bd) - 2)

    def rep_inv(self, x):
        num, den = x
        if not num:
            raise DivisionByZero(f"zero denominator in {self.name}")
        # num and den stay coprime with joint content 1; only the sign moves
        if num[-1] < 0:
            return _pneg(den, _ZZ), _pneg(num, _ZZ)
        return den, num

    def _view(self, x) -> tuple:
        """(num, den) as Q reps with monic den, the generic rep."""
        num, den = x
        lead = den[-1]
        if lead == 1:
            return x
        inv, mul = Fraction(1, lead), QQ.rep_mul
        return tuple(mul(c, inv) for c in num), tuple(mul(c, inv) for c in den)


@functools.lru_cache(maxsize=None)
def FunctionField(inner, name: str, /) -> RationalFunctionField:
    if inner is QQ:
        return RationalFunctionFieldOverQ(name)
    return RationalFunctionField(inner, name)


def _wrap(s: str) -> str:
    """A printed coefficient, in parentheses when it holds a sum, a space or a
    quotient, so that it reads as one factor."""
    if any(ch in s[1:] for ch in "+- ") or "/" in s:
        return f"({s})"
    return s


def _render_poly(coeffs, var: str, F, coeff_str) -> str:
    """coeffs are reps of F; a coefficient 1 or -1 prints as a bare monomial."""
    one = F.rep_one
    minus_one = F.rep_neg(one)
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if F.rep_is_zero(c):
            continue
        if k == 0:
            piece = coeff_str(c)
        else:
            mono = var if k == 1 else f"{var}^{k}"
            if c == one:
                piece = mono
            elif c == minus_one:
                piece = f"-{mono}"
            else:
                piece = f"{coeff_str(c)}*{mono}"
        terms.append(piece)
    if not terms:
        return "0"
    out = terms[0]
    for piece in terms[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def _bounded_order(digits: str) -> int:
    """The cyclotomic order spelled by ``digits``, checked against the cap
    before the string is converted."""
    too_long = len(digits.lstrip("0")) > len(str(MAX_CYCLOTOMIC_ORDER))
    if too_long or int(digits) > MAX_CYCLOTOMIC_ORDER:
        raise ValueError(f"cyclotomic order exceeds {MAX_CYCLOTOMIC_ORDER}")
    return int(digits)


def parse_field(descriptor: str):
    """Field from a descriptor like ``Q``, ``gf(5)``, ``cyclotomic(3)``, ``Q(t)``."""
    text = descriptor.strip()
    if text in ("Q", "QQ"):
        return QQ
    if text.endswith(")") and "(" in text:
        # split at the last top-level '(' so nested heads like gf(5)(t) work
        depth = 0
        split = None
        for i in range(len(text) - 1, -1, -1):
            if text[i] == ")":
                depth += 1
            elif text[i] == "(":
                depth -= 1
                if depth == 0:
                    split = i
                    break
        if split is not None:
            head = text[:split].strip()
            arg = text[split + 1 : -1].strip()
            digits = arg.isascii() and arg.isdigit()
            if head.lower() == "gf" and digits:
                # the length is checked before int() converts the digits
                if len(arg.lstrip("0")) > MAX_PRIME_DIGITS:
                    raise ValueError(f"gf(p) takes p of at most {MAX_PRIME_DIGITS} digits")
                return GF(int(arg))
            if head.lower() == "cyclotomic" and digits:
                return CyclotomicField(_bounded_order(arg))
            if arg.isidentifier():
                return FunctionField(parse_field(head), arg)
    raise ValueError(f"unrecognised field descriptor {descriptor!r}")


# ---------------------------------------------------------------------------
# roots of unity


def root_of_unity_order(s: Scalar) -> int | None:
    """Smallest N with s**N == 1, or None when s is not a root of unity.

    The search bound is the field's ``roots_of_unity_exponent``: 2 for Q,
    lcm(2, n) for Q(zeta_n), p - 1 for GF(p), and the inner field's for
    F(t), whose roots of unity are algebraic and so constants
    (``is_constant``).
    """
    if s.is_zero():
        raise ZeroInput("0 is not a root of unity")
    if not s.field.is_constant(s):
        return None
    return _order_dividing(s, s.field.roots_of_unity_exponent)


def _order_dividing(s: Scalar, bound: int) -> int | None:
    """The order of s when it divides ``bound``, else None; divides out
    the prime factors of ``bound`` one at a time."""
    one = s.field.one
    if s ** bound != one:
        return None
    order = bound
    for r in _factorize(bound):
        while order % r == 0 and s ** (order // r) == one:
            order //= r
    return order


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable exact matrix over one field, its entries stored as reps.

    A product of two m x m matrices with m <= ``MAX_KERNEL_MATRIX_SIZE``
    runs a straight-line product generated once per m; every other product,
    and ``act_on``, takes :func:`_rep_dot` of each row and column.  Both
    skip the same zero terms and add in the same order.
    """

    # _hash is None until the first __hash__ stores the hash: the base-map
    # memo hashes its matrix keys on every lookup, and most other matrices
    # are never hashed
    __slots__ = ("field", "_rows", "_hash")

    def __init__(self, field, rows):
        self.field = field
        self._rows = tuple(
            tuple(
                c.rep if type(c) is Scalar and c.field is field else field.coerce(c).rep
                for c in row
            )
            for row in rows
        )
        if self._rows:
            width = len(self._rows[0])
            if any(len(row) != width for row in self._rows):
                raise ValueError("ragged matrix")
        self._hash = None

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls._scalar(field, n, field.rep_one)

    @classmethod
    def _scalar(cls, field, n: int, rep) -> "Matrix":
        """The n x n matrix with the rep ``rep`` of ``field`` on the
        diagonal and zero elsewhere."""
        zero = field.rep_zero
        return cls._from_reps(field, [[rep if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls._from_reps(field, [[field.rep_zero] * ncols for _ in range(nrows)])

    @classmethod
    def unit(cls, field, n: int, i: int, j: int) -> "Matrix":
        """The matrix unit e_{ij} (0-based indices) in Mat_n."""
        one, zero = field.rep_one, field.rep_zero
        return cls._from_reps(
            field, [[one if (r, c) == (i, j) else zero for c in range(n)] for r in range(n)]
        )

    @property
    def rows(self) -> tuple:
        """The entries as Scalars, row by row."""
        field = self.field
        return tuple(tuple(Scalar(field, a) for a in row) for row in self._rows)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @classmethod
    def _from_reps(cls, field, rows) -> "Matrix":
        """The matrix whose rows hold the reps ``rows`` of ``field``,
        stored as they are and not checked; for results of rep arithmetic."""
        m = object.__new__(cls)
        m.field = field
        m._rows = tuple(map(tuple, rows))
        m._hash = None
        return m

    def _same_field(self, other) -> bool:
        """Whether ``other`` is a Matrix over this field, the one operand
        that ``+``, ``-``, the matrix product and ``kron`` take."""
        return isinstance(other, Matrix) and other.field is self.field

    def __add__(self, other):
        if not self._same_field(other):
            return NotImplemented
        rows, other_rows = self._rows, other._rows
        if len(rows) != len(other_rows) or (rows and len(rows[0]) != len(other_rows[0])):
            raise ValueError("matrix dimension mismatch")
        field = self.field
        add, zero = field.rep_add, field.rep_zero
        return Matrix._from_reps(
            field,
            [
                [b if a == zero else a if b == zero else add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(rows, other_rows)
            ],
        )

    def __sub__(self, other):
        if not self._same_field(other):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return Matrix._from_reps(self.field, [map(self.field.rep_neg, row) for row in self._rows])

    def __mul__(self, other):
        field = self.field
        if self._same_field(other):
            rows, other_rows = self._rows, other._rows
            if self.ncols != len(other_rows):
                raise ValueError("matrix dimension mismatch")
            mul, add, zero = field.rep_mul, field.rep_add, field.rep_zero
            # self is m x m when its m columns are the m rows of other
            m = len(rows)
            if m == len(other_rows) and 0 < m <= MAX_KERNEL_MATRIX_SIZE and len(other_rows[0]) == m:
                kernel = _MATRIX_KERNELS.get(m)
                if kernel is None:
                    kernel = _MATRIX_KERNELS[m] = _matrix_kernel(m)
                return Matrix._from_reps(field, kernel(rows, other_rows, mul, add, zero))
            cols = list(zip(*other_rows))
            return Matrix._from_reps(
                field, [[_rep_dot(row, col, mul, add, zero) for col in cols] for row in rows]
            )
        if isinstance(other, (int, Fraction)) or (
            isinstance(other, Scalar) and other.field is field
        ):
            s, mul = field.coerce(other).rep, field.rep_mul
            return Matrix._from_reps(field, [[mul(a, s) for a in row] for row in self._rows])
        return NotImplemented

    # the scalars are central: a field is commutative
    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k < 0:
            return _power(self.inverse(), -k)
        return _power(self, k) if k else Matrix.identity(self.field, self.nrows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field is other.field and self._rows == other._rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self._rows))
        return self._hash

    def transpose(self) -> "Matrix":
        return Matrix._from_reps(self.field, zip(*self._rows))

    def kron(self, other: "Matrix") -> "Matrix":
        """The Kronecker product, the block matrix [self[i][j] * other]."""
        if not self._same_field(other):
            raise TypeError(f"Kronecker product of {self.field} and {other.field} matrices")
        mul = self.field.rep_mul
        return Matrix._from_reps(
            self.field,
            [
                [mul(a, b) for a in row_a for b in row_b]
                for row_a in self._rows
                for row_b in other._rows
            ],
        )

    # vec, unvec, act_on and two_sided_action share the row-major layout
    def vec(self) -> list[Scalar]:
        """The entries as Scalars in row-major order."""
        return [Scalar(self.field, a) for row in self._rows for a in row]

    @classmethod
    def unvec(cls, field, entries) -> "Matrix":
        """The square matrix whose entries in row-major order are ``entries``."""
        n = math.isqrt(len(entries))
        return cls(field, [entries[i : i + n] for i in range(0, n * n, n)])

    def act_on(self, m: "Matrix") -> "Matrix":
        """The image of the square matrix m under this matrix read as a
        linear map on m's entries."""
        field, n = self.field, m.nrows
        mul, add, zero = field.rep_mul, field.rep_add, field.rep_zero
        vec = [a for row in m._rows for a in row]
        image = [_rep_dot(row, vec, mul, add, zero) for row in self._rows]
        return Matrix._from_reps(field, [image[i : i + n] for i in range(0, n * n, n)])

    @staticmethod
    def two_sided_action(left: "Matrix", right: "Matrix") -> "Matrix":
        """The matrix of X -> left X right on square X: left (x) right^T."""
        return left.kron(right.transpose())

    def trace(self) -> Scalar:
        """The sum of the diagonal entries of a square matrix."""
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        field, acc = self.field, self.field.rep_zero
        for i, row in enumerate(self._rows):
            acc = field.rep_add(acc, row[i])
        return Scalar(field, acc)

    def is_zero(self) -> bool:
        # every field's zero has one rep, so an entry is zero when it equals it
        zero = self.field.rep_zero
        for row in self._rows:
            for a in row:
                if a != zero:
                    return False
        return True

    def __bool__(self):
        return not self.is_zero()

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        field, n = self.field, self.nrows
        aug = [[*row, *unit] for row, unit in zip(self._rows, Matrix.identity(field, n)._rows)]
        if len(_reduce_rows(field, aug, n)) < n:
            raise DivisionByZero("matrix is singular")
        return Matrix._from_reps(field, [row[n:] for row in aug])

    def is_invertible(self) -> bool:
        try:
            self.inverse()
        except DivisionByZero:
            return False
        return True

    def scalar_part(self) -> Scalar | None:
        """The z with self == z*I, or None when self is not central."""
        if not self.is_square() or self.nrows == 0:
            return None
        z = self._rows[0][0]
        is_zero = self.field.rep_is_zero
        for i, row in enumerate(self._rows):
            for j, a in enumerate(row):
                if a != z if i == j else not is_zero(a):
                    return None
        return Scalar(self.field, z)

    def __repr__(self):
        rep_str = self.field.rep_str
        inner = ", ".join("[" + ", ".join(map(rep_str, row)) + "]" for row in self._rows)
        return f"[{inner}]"

    __str__ = __repr__


def _reduce_rows(field, rows: list, ncols: int) -> list[int]:
    """Bring ``rows`` (lists of reps of ``field``, changed in place) to
    reduced row echelon form in their first ``ncols`` columns by
    Gauss-Jordan elimination; the pivot columns, in order."""
    is_zero, add, mul = field.rep_is_zero, field.rep_add, field.rep_mul
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if not is_zero(rows[i][col])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.rep_inv(rows[r][col])
        rows[r] = prow = [mul(v, inv) for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not is_zero(row[col]):
                factor = field.rep_neg(row[col])
                rows[i] = [v if is_zero(w) else add(v, mul(factor, w)) for v, w in zip(row, prow)]
        pivots.append(col)
    return pivots


def _power(x, k: int, mul=operator.mul):
    """x ** k for k >= 1 by square-and-multiply with ``mul``: the product
    starts from the first factor needed, and nothing is squared after the
    top bit."""
    acc = None
    while True:
        if k & 1:
            acc = x if acc is None else mul(acc, x)
        k >>= 1
        if not k:
            return acc
        x = mul(x, x)


# the generated m x m matrix products, by m
_MATRIX_KERNELS: dict = {}


def _matrix_kernel(m: int):
    """A straight-line product ``f(x, y, mul, add, zero)`` of two m x m
    matrices given as tuples of rows of reps, for the field's rep_mul,
    rep_add and canonical rep_zero: each entry is :func:`_rep_dot` of a row
    and a column written out, the same terms skipped and added in the same
    order."""
    idx = [(i, j) for i in range(m) for j in range(m)]
    lines = ["def f(x, y, mul, add, zero):"]
    for name in "xy":
        rows = "".join(f"({''.join(f'{name}{i}_{j}, ' for j in range(m))}), " for i in range(m))
        lines.append(f"    {rows}= {name}")
        lines += [f"    n{name}{i}_{j} = {name}{i}_{j} != zero" for i, j in idx]
    for i, j in idx:
        lines.append(f"    s = mul(x{i}_0, y0_{j}) if nx{i}_0 and ny0_{j} else None")
        for k in range(1, m):
            lines += [
                f"    if nx{i}_{k} and ny{k}_{j}:",
                f"        t = mul(x{i}_{k}, y{k}_{j})",
                "        s = t if s is None else add(s, t)",
            ]
        lines.append(f"    c{i}_{j} = zero if s is None else s")
    rows = "".join(f"({''.join(f'c{i}_{j}, ' for j in range(m))}), " for i in range(m))
    lines.append(f"    return ({rows})")
    return _compile(lines, f"{m}x{m} matrix product")


def _rep_dot(xs, ys, mul, add, zero):
    """sum_k xs[k] ys[k] for reps of one field, given its rep_mul, rep_add
    and canonical rep_zero; zero factors are skipped."""
    acc = None
    for a, b in zip(xs, ys):
        if a == zero or b == zero:
            continue
        term = mul(a, b)
        acc = term if acc is None else add(acc, term)
    return zero if acc is None else acc
