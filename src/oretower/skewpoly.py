"""Normal-form arithmetic for iterated skew polynomial towers.

Elements are stored in the unique normal form

    sum of  coeff * x_1^{e_1} x_2^{e_2} ... x_n^{e_n}

with coefficients written on the left and exponent vectors as dict keys.
Multiplication rewrites products into this form using the tower's
defining relations

    x_i * b   = sigma_i(b) x_i + delta_i(b)          (b a base element)
    x_i * x_j = (a_ij x_j + c_ij) x_i + delta_i(x_j)  (j < i)

Each rewrite strictly decreases the multidegree read lexicographically
from the top variable (ties broken by inversion count), so the recursion
terminates; expansions of x_i times a lower monomial recur constantly and
are memoised per tower.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SupportTooHigh, TowerMismatch
from .scalars import Matrix, Scalar


class _MinusInfinity:
    """Degree of the zero polynomial; compares below every integer."""

    def __lt__(self, other):
        return not isinstance(other, _MinusInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _MinusInfinity)

    def __eq__(self, other):
        return isinstance(other, _MinusInfinity)

    def __hash__(self):
        return hash("-inf")

    def __repr__(self):
        return "-inf"


NEG_INF = _MinusInfinity()


class SkewPoly:
    """Normal-form element of an iterated Ore extension tower."""

    __slots__ = ("tower", "terms")

    def __init__(self, tower, terms):
        cleaned = {}
        height = tower.height
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != height:
                raise ValueError(f"exponent vector {exp} does not match tower height {height}")
            coeff = tower.base.coerce(coeff)
            if _is_zero_elem(coeff):
                continue
            if exp in cleaned:
                coeff = cleaned[exp] + coeff
                if _is_zero_elem(coeff):
                    del cleaned[exp]
                    continue
            cleaned[exp] = coeff
        self.tower = tower
        self.terms = cleaned

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls, tower) -> "SkewPoly":
        return cls(tower, {})

    @classmethod
    def one(cls, tower) -> "SkewPoly":
        return cls(tower, {(0,) * tower.height: tower.base.one})

    @classmethod
    def variable(cls, tower, level: int) -> "SkewPoly":
        exp = [0] * tower.height
        exp[level] = 1
        return cls(tower, {tuple(exp): tower.base.one})

    @classmethod
    def from_base(cls, tower, element) -> "SkewPoly":
        return cls(tower, {(0,) * tower.height: element})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def support_levels(self) -> set[int]:
        return {i for exp in self.terms for i, e in enumerate(exp) if e}

    def constant_coefficient(self):
        """Coefficient of the empty monomial (the base ring component)."""
        zero_exp = (0,) * self.tower.height
        return self.terms.get(zero_exp, self.tower.base.zero)

    def is_base_element(self) -> bool:
        return all(not any(exp) for exp in self.terms)

    # -- ring operations --------------------------------------------------

    def _coerce_operand(self, other):
        if isinstance(other, SkewPoly):
            if other.tower is not self.tower and other.tower != self.tower:
                raise TowerMismatch("operands live in different towers")
            return other
        if isinstance(other, (int, Fraction, Scalar, Matrix)):
            return SkewPoly.from_base(self.tower, other)
        return None

    def __add__(self, other):
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        terms = dict(self.terms)
        for exp, coeff in rhs.terms.items():
            _add_term(terms, exp, coeff)
        return SkewPoly(self.tower, terms)

    __radd__ = __add__

    def __neg__(self):
        return SkewPoly(self.tower, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        return SkewPoly(self.tower, _mul_terms(self.tower, self.terms, rhs.terms))

    def __rmul__(self, other):
        lhs = self._coerce_operand(other)
        if lhs is None:
            return NotImplemented
        return lhs * self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        acc = SkewPoly.one(self.tower)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def __eq__(self, other):
        rhs = self._coerce_operand(other) if not isinstance(other, SkewPoly) else other
        if rhs is None:
            return NotImplemented
        if isinstance(rhs, SkewPoly) and rhs.tower != self.tower:
            return False
        return self.terms == rhs.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- rendering ---------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.tower.level_names()
        pieces = []
        for exp in sorted(self.terms, key=lambda e: tuple(reversed(e)), reverse=True):
            coeff = self.terms[exp]
            mono = " ".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exp)
                if e
            )
            cs = str(coeff)
            if not mono:
                pieces.append(_paren(cs))
            elif cs == "1":
                pieces.append(mono)
            else:
                pieces.append(f"{_paren(cs)} * {mono}")
        out = pieces[0]
        for piece in pieces[1:]:
            out += " + " + piece
        return out

    __str__ = __repr__


def _paren(cs: str) -> str:
    if any(ch in cs[1:] for ch in "+-") or " " in cs or "/" in cs:
        return f"({cs})"
    return cs


def _is_zero_elem(coeff) -> bool:
    return coeff.is_zero() if hasattr(coeff, "is_zero") else not coeff


def _add_term(acc: dict, exp: tuple, coeff) -> None:
    if exp in acc:
        total = acc[exp] + coeff
        if _is_zero_elem(total):
            del acc[exp]
        else:
            acc[exp] = total
    elif not _is_zero_elem(coeff):
        acc[exp] = coeff


# ---------------------------------------------------------------------------
# the rewriting engine (term dicts in, term dicts out)


def _mul_terms(tower, left: dict, right: dict) -> dict:
    acc: dict = {}
    for exp_l, cl in left.items():
        for exp_r, cr in right.items():
            moved = _word_times_term(tower, exp_l, cr, exp_r)
            for exp, coeff in moved.items():
                _add_term(acc, exp, cl * coeff)
    return acc


def _word_times_term(tower, word: tuple, coeff, mono: tuple) -> dict:
    """Normal form of x^word * (coeff x^mono)."""
    top = _top_level(word)
    if top is None:
        return {mono: coeff}
    inner = _var_times_term(tower, top, coeff, mono)
    rest = _dec(word, top)
    acc: dict = {}
    for exp, c in inner.items():
        for exp2, c2 in _word_times_term(tower, rest, c, exp).items():
            _add_term(acc, exp2, c2)
    return acc


def _var_times_term(tower, i: int, coeff, mono: tuple) -> dict:
    """Normal form of x_i * (coeff x^mono)."""
    acc: dict = {}
    sig = tower.apply_sigma0(i, coeff)
    for exp, c in _var_times_monomial(tower, i, mono).items():
        _add_term(acc, exp, sig * c)
    dlt = tower.apply_delta0(i, coeff)
    if not _is_zero_elem(dlt):
        _add_term(acc, mono, dlt)
    return acc


def _var_times_monomial(tower, i: int, mono: tuple) -> dict:
    lower = tuple(e if j < i else 0 for j, e in enumerate(mono))
    upper = tuple(e if j >= i else 0 for j, e in enumerate(mono))
    acc: dict = {}
    for exp, c in _var_times_lower(tower, i, lower).items():
        shifted = tuple(a + b for a, b in zip(exp, upper))
        _add_term(acc, shifted, c)
    return acc


def _var_times_lower(tower, i: int, lower: tuple) -> dict:
    """Memoised normal form of x_i * x^lower with support(lower) < i."""
    cache = tower._mul_cache
    key = (i, lower)
    hit = cache.get(key)
    if hit is not None:
        return hit
    j = _bottom_level(lower)
    if j is None:
        exp = tuple(1 if k == i else 0 for k in range(len(lower)))
        result = {exp: tower.base.one}
    else:
        rest = _dec(lower, j)
        tail = _var_times_lower(tower, i, rest)
        a, c_terms = tower.sigma_var_raw(i, j)
        result = {}
        # a_ij * x_j * (x_i x^rest)
        for exp, coeff in _var_times_term_dict(tower, j, tail).items():
            _add_term(result, exp, a * coeff)
        # c_ij * (x_i x^rest)
        if c_terms:
            for exp, coeff in _mul_terms(tower, c_terms, tail).items():
                _add_term(result, exp, coeff)
        # delta_i(x_j) * x^rest
        d_terms = tower.delta_var_raw(i, j)
        if d_terms:
            for exp, coeff in _mul_terms(tower, d_terms, {rest: tower.base.one}).items():
                _add_term(result, exp, coeff)
    cache[key] = result
    return result


def _var_times_term_dict(tower, i: int, terms: dict) -> dict:
    acc: dict = {}
    for exp, coeff in terms.items():
        for exp2, c2 in _var_times_term(tower, i, coeff, exp).items():
            _add_term(acc, exp2, c2)
    return acc


def _top_level(exp: tuple):
    for i in range(len(exp) - 1, -1, -1):
        if exp[i]:
            return i
    return None


def _bottom_level(exp: tuple):
    for i, e in enumerate(exp):
        if e:
            return i
    return None


def _dec(exp: tuple, i: int) -> tuple:
    out = list(exp)
    out[i] -= 1
    return tuple(out)


# ---------------------------------------------------------------------------
# level maps on polynomials


def apply_level_map(kind: str, level: int, p: SkewPoly) -> SkewPoly:
    """Apply sigma_level or delta_level to a polynomial supported below it.

    sigma is extended multiplicatively monomial by monomial; delta by the
    twisted Leibniz rule delta(uv) = sigma(u) delta(v) + delta(u) v applied
    left to right over each monomial's factor sequence.
    """
    if kind not in ("sigma", "delta"):
        raise ValueError(f"unknown map kind {kind!r}")
    tower = p.tower
    too_high = [i for i in p.support_levels() if i >= level]
    if too_high:
        raise SupportTooHigh(
            f"polynomial involves level {min(too_high)} but the map lives at level {level}"
        )
    if kind == "sigma":
        return _apply_sigma(tower, level, p)
    return _apply_delta(tower, level, p)


def _sigma_var_poly(tower, i: int, j: int) -> SkewPoly:
    a, c_terms = tower.sigma_var_raw(i, j)
    exp = [0] * tower.height
    exp[j] = 1
    terms = dict(c_terms)
    _add_term(terms, tuple(exp), a)
    return SkewPoly(tower, terms)


def _apply_sigma(tower, level: int, p: SkewPoly) -> SkewPoly:
    total = SkewPoly.zero(tower)
    for exp, coeff in p.terms.items():
        acc = SkewPoly.from_base(tower, tower.apply_sigma0(level, coeff))
        for j, e in enumerate(exp):
            if e:
                acc = acc * _sigma_var_poly(tower, level, j) ** e
        total = total + acc
    return total


def _apply_delta(tower, level: int, p: SkewPoly) -> SkewPoly:
    total = SkewPoly.zero(tower)
    for exp, coeff in p.terms.items():
        factors = [("base", coeff)]
        for j, e in enumerate(exp):
            factors.extend([("var", j)] * e)
        suffix = [SkewPoly.one(tower)]
        for kind_f, val in reversed(factors[1:]):
            f_poly = (
                SkewPoly.variable(tower, val)
                if kind_f == "var"
                else SkewPoly.from_base(tower, val)
            )
            suffix.append(f_poly * suffix[-1])
        suffix.reverse()  # suffix[t] == product of factors[t+1:]
        sigma_prefix = SkewPoly.one(tower)
        for t, (kind_f, val) in enumerate(factors):
            if kind_f == "base":
                d = SkewPoly.from_base(tower, tower.apply_delta0(level, val))
                s = SkewPoly.from_base(tower, tower.apply_sigma0(level, val))
            else:
                d = tower.delta_var(level, val)
                s = _sigma_var_poly(tower, level, val)
            if d:
                total = total + sigma_prefix * d * suffix[t]
            sigma_prefix = sigma_prefix * s
    return total


# ---------------------------------------------------------------------------
# structural queries


def is_central(p: SkewPoly, top_level: int | None = None) -> tuple[bool, SkewPoly | None]:
    """Whether p commutes with every generator of the (sub)tower.

    Checks the base-ring generators and each variable x_i for i below
    ``top_level`` (the whole tower by default).  Returns the first
    non-commuting generator as the witness on failure.
    """
    tower = p.tower
    limit = tower.height if top_level is None else top_level
    for elem in tower.base.generators():
        gen = SkewPoly.from_base(tower, elem)
        if p * gen != gen * p:
            return False, gen
    for i in range(limit):
        gen = SkewPoly.variable(tower, i)
        if p * gen != gen * p:
            return False, gen
    return True, None


def degree_leading(p: SkewPoly, level: int):
    """Degree in x_level and the sum of terms attaining it.

    The zero polynomial reports the explicit minus-infinity sentinel.
    """
    if not p.terms:
        return NEG_INF, SkewPoly.zero(p.tower)
    deg = max(exp[level] for exp in p.terms)
    lead = {exp: c for exp, c in p.terms.items() if exp[level] == deg}
    return deg, SkewPoly(p.tower, lead)
