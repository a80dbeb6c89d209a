"""Normal-form arithmetic for iterated skew polynomial towers.

Elements are stored in the unique normal form

    sum of  coeff * x_1^{e_1} x_2^{e_2} ... x_n^{e_n}

with coefficients written on the left and exponent vectors as dict keys.
Multiplication rewrites products into this form using the tower's
defining relations

    x_i * b   = sigma_i(b) x_i + delta_i(b)          (b a base element)
    x_i * x_j = (a_ij x_j + c_ij) x_i + delta_i(x_j)  (j < i)

A product of two terms is rewritten by a loop over the left word: its
factors are applied to the right term from the right, top level first and
one x_i at a time, merging like terms after every step.  Each step reads
x_i * x^lower (lower supported below i) from a table the engine fills
bottom-up, one lower factor at a time, and keeps in
``OreTower._engine_table``; filling an entry at level i only multiplies
by variables below i, so the call depth is bounded by the tower height and
never by a degree.  Images of base elements under sigma_i and delta_i are
memoised separately by ``OreTower.apply_sigma0`` / ``apply_delta0``.

The level maps on polynomials are read off the same table:
x_i x^e = sigma_i(x^e) x_i + delta_i(x^e), so ``apply_level_map`` takes
sigma_i(x^e) from the entry's terms with x_i-exponent 1 and delta_i(x^e)
from those with exponent 0.

A run x_i^k (k >= 2) on a level whose sigma is the identity and whose
delta is zero on the base takes one step for every term whose table entry
is a single monomial, x_i x^lower = a x^lower x_i:

    x_i^k * c x^e = c a^k x^{e + k e_i}

This covers the diagonal sigma-only towers that erasing ends in, and the
diagonal pairs of other towers.  On such a level x_i commutes with the
base, so x_i^k acts on the remaining terms through x_i^k x^lower for the
few lower parts R the table entries reach from theirs (on the q-Weyl and
Weyl levels delta lowers degrees, so x2^k x1 reaches x1 and 1 only).  The
empty lower part is left out of R, as x_i^k 1 = x_i^k on every tower, so
x2^k x1 has R = {x1}.  The run builds x_i^k x^lower for R by square and
multiply, in O(log k) compositions of a table local to the run, when
|R| * k.bit_length() <= k, so that this costs less than k single steps;
otherwise the terms take the one-x_i-at-a-time loop.

When every level has an identity sigma and a zero delta on the base
(``OreTower._fixes_base``), base elements commute with the variables, so

    (c x^a)(d x^b) = (c d)(x^a x^b)

and the word loop runs on x^b with coefficient one; c d multiplies each
term of the result once.  No engine step multiplies by the base's one.
The loop carries x^b as one term b x^e while each run x_i^k meets a
single-monomial entry x_i x^lower = a x^lower x_i, which moves it to
b a^k x^{e + k e_i}: on a diagonal tower this is the closed form
c d prod_{i>j} lambda_ij^{a_i b_j} x^{a+b}, one table read per level.
A step x_i on a level that fixes the base calls no base map.

On the other towers (a matrix base with conj and inner maps, or a field
automorphism) d must pass through x^a, so the left words of one right
term d x^b share one walk: x^w (d x^b) = x_j (x^{w - e_j} (d x^b)) for
the lowest level j of w, filled iteratively into a dict that lives for
one product and keeps only the left operand's words, and c x^a (d x^b)
is c times the stored x^a (d x^b).  A left
operand x + x^2 + x^3 then takes three x steps per right term, not six.
The towers that fix the base keep one walk per term pair, as measured
(``benchmarks/run.py --workload products``, 8 s runs in alternating
order, Python 3.11, 2 vCPU): the shared walk on every tower lowered
products ops_per_s from a median of 3,001 to 2,697 (4 of 4 pairs) and
was 1.2-1.46x slower per op on weyl_gf5, three_level and the qweyl
towers; a peel loop with no generator or slicing still lost, 2,960 to
2,885 (6 of 6 pairs).

``SkewPoly(tower, terms)`` coerces and checks: keys become tuples of the
tower's height of non-negative ints, coefficients are coerced into the
base, like keys merge and zero terms drop (``_clean_terms``).  Ring
operations build clean term dicts by construction and return them through
``SkewPoly._of``, which does not check them again.  A base element enters
through ``SkewPoly.from_base``, which coerces it with ``base.coerce`` and
builds its one term directly; every int, Fraction, Scalar or Matrix operand
of a ring operation goes that way, so callers multiply by base elements
without wrapping them.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SupportTooHigh, TowerMismatch
from .scalars import Matrix, Scalar, _power, _wrap


# degree of the zero polynomial; below every integer
NEG_INF = float("-inf")


class SkewPoly:
    """Normal-form element of an iterated Ore extension tower."""

    __slots__ = ("tower", "terms")

    def __init__(self, tower, terms):
        self.tower = tower
        self.terms = _clean_terms(tower.base, tower.height, terms)

    @classmethod
    def _of(cls, tower, terms: dict) -> "SkewPoly":
        """The polynomial with ``terms``, a dict that is already clean (see
        ``_clean_terms``), stored as it is; for ring results only."""
        p = object.__new__(cls)
        p.tower = tower
        p.terms = terms
        return p

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls, tower) -> "SkewPoly":
        return cls._of(tower, {})

    @classmethod
    def one(cls, tower) -> "SkewPoly":
        return cls._of(tower, {(0,) * tower.height: tower.base.one})

    @classmethod
    def variable(cls, tower, level: int) -> "SkewPoly":
        exp = [0] * tower.height
        exp[level] = 1
        return cls._of(tower, {tuple(exp): tower.base.one})

    @classmethod
    def from_base(cls, tower, element) -> "SkewPoly":
        """element, coerced into the base by ``tower.base.coerce``, as a
        polynomial of degree 0; the one term needs no ``_clean_terms``."""
        x = tower.base.coerce(element)
        return cls._of(tower, {} if x.is_zero() else {(0,) * tower.height: x})

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
        return SkewPoly._of(self.tower, terms)

    __radd__ = __add__

    def __neg__(self):
        return SkewPoly._of(self.tower, {e: -c for e, c in self.terms.items()})

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
        return SkewPoly._of(self.tower, _mul_terms(self.tower, self.terms, rhs.terms))

    def __rmul__(self, other):
        lhs = self._coerce_operand(other)
        if lhs is None:
            return NotImplemented
        return lhs * self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        return _power(self, k) if k else SkewPoly.one(self.tower)

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
                pieces.append(_wrap(cs))
            elif cs == "1":
                pieces.append(mono)
            else:
                pieces.append(f"{_wrap(cs)} * {mono}")
        out = pieces[0]
        for piece in pieces[1:]:
            out += " + " + piece
        return out

    __str__ = __repr__


def _clean_terms(base, height: int, terms: dict) -> dict:
    """``terms`` as a clean term dict: keys are tuples of ``height``
    non-negative ints, coefficients are coerced into ``base``, like keys
    are merged and zero coefficients dropped."""
    out: dict = {}
    for exp, coeff in terms.items():
        exp = tuple(exp)
        if len(exp) != height or not all(type(e) is int and e >= 0 for e in exp):
            raise ValueError(f"exponent vector {exp} is not {height} non-negative integers")
        _add_term(out, exp, base.coerce(coeff))
    return out


def _add_term(acc: dict, exp: tuple, coeff) -> None:
    if exp in acc:
        total = acc[exp] + coeff
        if total.is_zero():
            del acc[exp]
        else:
            acc[exp] = total
    elif not coeff.is_zero():
        acc[exp] = coeff


# ---------------------------------------------------------------------------
# the rewriting engine (term dicts in, term dicts out)


def _times(a, b, one):
    """a * b, skipping the product when a factor is the base's one."""
    if a is one:
        return b
    if b is one:
        return a
    return a * b


def _mul_terms(tower, left: dict, right: dict) -> dict:
    one = tower.base.one
    acc: dict = {}
    if tower._fixes_base:
        # c x^a * d x^b = (c d)(x^a x^b), as base elements commute with the
        # variables
        for exp_l, cl in left.items():
            for exp_r, cr in right.items():
                _word_times_term(tower, exp_l, exp_r, _times(cl, cr, one), acc)
        return acc
    # c x^a * d x^b = c (x^a d x^b): every left word of one right term
    # shares the walk, and the order c, e keeps a matrix base right
    for exp_r, cr in right.items():
        walk = {(0,) * tower.height: {exp_r: cr}}
        for exp_l, cl in left.items():
            for exp, e in _walk_word(tower, walk, exp_l, left).items():
                _add_term(acc, exp, _times(cl, e, one))
    return acc


def _walk_word(tower, walk: dict, word: tuple, keep) -> dict:
    """x^word * T, where ``walk`` maps words w to x^w * T and holds the
    empty word; the words on the way that are in ``keep`` are added to it.

    x^w = x_j x^{w - e_j} for the lowest level j of w, so a miss peels
    x_j off until it reaches a word in ``walk``, then steps back up one
    move at a time.  A run x_j^k (k >= 2) on a level that fixes the base
    goes in one move through ``_power_times_terms``, as in
    ``_word_times_term``.  Only the words of ``keep`` (the left operand's)
    are stored, so the walk holds at most one term dict per left word.
    """
    hit = walk.get(word)
    if hit is not None:
        return hit
    trivial = tower._trivial_maps
    pending = []
    w = word
    while w not in walk:
        j = next(k for k, e in enumerate(w) if e)
        k = w[j] if w[j] > 1 and trivial[j] == (True, True) else 1
        pending.append((w, j, k))
        w = w[:j] + (w[j] - k,) + w[j + 1:]
    terms = walk[w]
    for w, j, k in reversed(pending):
        if k > 1:
            terms = _power_times_terms(tower, j, k, terms)
        else:
            terms = _var_times_terms(tower, j, terms)
        if w in keep:
            walk[w] = terms
    return terms


def _word_times_term(tower, word: tuple, mono: tuple, c, acc: dict) -> None:
    """Add c (x^word * x^mono) to ``acc``, on a tower that fixes the base.

    The factors of x^word = x_1^{w_1} ... x_n^{w_n} are applied from the
    right, top level first, to the one term b x^e = x^mono.  While each
    run x_i^k meets a single-monomial entry x_i x^lower = a x^lower x_i,
    the term moves in place to b a^k x^{e + k e_i} (a can be a matrix, so
    the order is b a^k).  At the first other entry (on an unvalidated
    tower, also one that sends x^lower to another monomial) it becomes a
    term dict, which takes x_i one at a time, so like terms merge after
    every step, or a run x_i^k (k >= 2) through ``_power_times_terms``.
    """
    one = tower.base.one
    table = tower._engine_table
    exp, coeff = mono, one
    for i in range(len(word) - 1, -1, -1):
        k = word[i]
        if not k:
            continue
        lower = exp[:i]
        entry = table.get((i, lower)) or _var_times_lower(tower, i, lower)
        if len(entry) != 1:
            break
        (e, a), = entry.items()
        # an unvalidated tower can send x^lower to another monomial
        if e[:i] != lower or e[i] != 1:
            break
        if a is not one:
            coeff = _times(coeff, a if k == 1 else a**k, one)
        exp = lower + (exp[i] + k,) + exp[i + 1:]
    else:
        _add_term(acc, exp, _times(c, coeff, one))
        return
    terms = {exp: coeff}
    for i in range(i, -1, -1):
        k = word[i]
        if k > 1:
            terms = _power_times_terms(tower, i, k, terms)
            continue
        for _ in range(k):
            terms = _var_times_terms(tower, i, terms)
    for exp, e in terms.items():
        _add_term(acc, exp, _times(c, e, one))


def _power_times_terms(tower, i: int, k: int, terms: dict) -> dict:
    """Normal form of x_i^k * terms, for a level that fixes the base.

    With sigma_i the identity and delta_i zero on the base, x_i c = c x_i
    for every base element c, so left multiplication by x_i is a
    left-base-linear map L on term dicts, and L commutes with the right
    shift by x_i^t x^upper (t >= 0, upper above i):

        x_i^k (c x^lower x_i^t x^upper) = c (L^k(x^lower)) x_i^t x^upper.

    A term c x^e whose table entry x_i x^{e[:i]} is a single monomial
    a x^{e[:i]} x_i goes to c a^k x^{e + k e_i} (a can be a matrix, so
    the order is c a^k).  The other terms share one run table
    ``_power_run_table``: L^k(x^w) for every lower part w in R, the
    non-empty lower parts the table entries reach from theirs.  It is
    built by square and multiply when that is cheaper than stepping;
    otherwise the terms are collected into one dict and take the
    one-x_i-at-a-time loop, so their like terms still merge.  Either way
    the result is L^k term for term, on unvalidated towers too.
    """
    one = tower.base.one
    acc: dict = {}
    rest: dict = {}
    for exp, coeff in terms.items():
        lower = exp[:i]
        entry = _var_times_lower(tower, i, lower)
        if len(entry) == 1:
            (e, a), = entry.items()
            # an unvalidated tower can send x^lower to another monomial
            if e[:i] == lower and e[i] == 1:
                moved = coeff if a is one else _times(coeff, a**k, one)
                _add_term(acc, lower + (exp[i] + k,) + exp[i + 1:], moved)
                continue
        rest[exp] = coeff
    if not rest:
        return acc
    run = _power_run_table(tower, i, k, {exp[:i] for exp in rest})
    if run is None:
        for _ in range(k):
            rest = _var_times_terms(tower, i, rest)
        for exp, coeff in rest.items():
            _add_term(acc, exp, coeff)
        return acc
    for exp, coeff in rest.items():
        t, tail = exp[i], exp[i + 1:]
        for (u, s), c in run[exp[:i]].items():
            _add_term(acc, u + (s + t,) + tail, _times(coeff, c, one))
    return acc


def _power_run_table(tower, i: int, k: int, lowers: set) -> dict | None:
    """L^k(x^w) for w in R, by square and multiply, or None when stepping
    is cheaper.

    L is left multiplication by x_i on a level that fixes the base (see
    ``_power_times_terms``), and R is the closure of ``lowers`` under the
    table entries x_i x^w = sum c x^u (w -> u[:i]), without the empty
    lower part: x_i x^0 = x_i with coefficient one on every tower, so
    L^m(x^0) = x_i^m needs no row.  With T_m(w) = L^m(x^w), supported at
    levels <= i,

        T_{m+n}(w) = sum over c x^u in T_m(w) of c T_n(u[:i]) x_i^{u[i]},

    so T_k follows from T_1 (the table entries) over the bits of k, as
    ``scalars._power`` does, in about |R|^2 term products per bit.
    Stepping costs about |R| term steps per factor, k in all, so the
    table is built only when |R| * k.bit_length() <= k.  The search for R
    gives up once R passes that size.  Until then each layer of the search
    adds a lower part, so it reads only entries within the k layers that
    stepping would read too.  A row maps (u[:i], u[i]) to c for each term
    c x^u, and the caller builds the exponent tuples.  The table is a
    local of the run.
    """
    limit = k // k.bit_length()
    if len(lowers) > limit:
        return None
    # reach holds R and the empty lower part
    reach = {(0,) * i, *lowers}
    queue = list(lowers)
    step = {}
    for w in queue:
        step[w] = row = {}
        for u, c in _var_times_lower(tower, i, w).items():
            v = u[:i]
            row[v, u[i]] = c
            if v not in reach:
                if len(reach) > limit:
                    return None
                reach.add(v)
                queue.append(v)
    one = tower.base.one
    run, m = step, 1
    for bit in bin(k)[3:]:
        run = _compose_runs(run, run, m, one)
        m *= 2
        if bit == "1":
            run = _compose_runs(run, step, 1, one)
            m += 1
    return run


def _compose_runs(first: dict, then: dict, n: int, one) -> dict:
    """T_{m+n} from T_m (``first``) and T_n (``then``), both keyed by
    every lower part of R; a term c x^0 x_i^t, whose lower part has no
    row, shifts to c x_i^{t+n}."""
    out = {}
    for w, terms in first.items():
        acc: dict = {}
        for (u, t), c in terms.items():
            row = then.get(u)
            if row is None:
                _add_term(acc, (u, t + n), c)
                continue
            for (v, s), d in row.items():
                _add_term(acc, (v, s + t), _times(c, d, one))
        out[w] = acc
    return out


def _var_times_terms(tower, i: int, terms: dict) -> dict:
    """Normal form of x_i * terms, by x_i c = sigma_i(c) x_i + delta_i(c);
    a map that ``_trivial_maps[i]`` marks trivial on the base is not called."""
    one = tower.base.one
    sigma_is_identity, delta_is_zero = tower._trivial_maps[i]
    acc: dict = {}
    for exp, coeff in terms.items():
        sig = coeff if sigma_is_identity else tower.apply_sigma0(i, coeff)
        # x_i x^exp = (x_i x^lower) x^upper, and x_i x^lower lives at levels <= i
        upper = exp[i:]
        for e, c in _var_times_lower(tower, i, exp[:i]).items():
            shifted = e[:i] + (e[i] + upper[0],) + upper[1:]
            _add_term(acc, shifted, _times(sig, c, one))
        if delta_is_zero:
            continue
        dlt = tower.apply_delta0(i, coeff)
        if not dlt.is_zero():
            _add_term(acc, exp, dlt)
    return acc


def _var_times_lower(tower, i: int, lower: tuple) -> dict:
    """Normal form of x_i * x^lower, where lower holds the exponents below i.

    Entries live in ``tower._engine_table`` under ``(i, lower)``.  A miss
    peels the bottom variable off ``lower`` until it reaches a tail already
    in the table (the empty tail gives x_i itself), then fills the table
    back up one factor at a time with

        x_i x_j x^rest = a_ij x_j (x_i x^rest) + c_ij (x_i x^rest) + delta_i(x_j) x^rest.
    """
    table = tower._engine_table
    hit = table.get((i, lower))
    if hit is not None:
        return hit
    one = tower.base.one
    height = tower.height
    pending = []
    tail = lower
    while (i, tail) not in table:
        if not any(tail):
            table[(i, tail)] = {tail + (1,) + (0,) * (height - i - 1): one}
            break
        j = next(k for k, e in enumerate(tail) if e)
        rest = tail[:j] + (tail[j] - 1,) + tail[j + 1:]
        pending.append((tail, j, rest))
        tail = rest
    for cur, j, rest in reversed(pending):
        prev = table[(i, rest)]
        a, c_terms = tower.sigma_var_raw(i, j)
        result: dict = {}
        for exp, coeff in _var_times_terms(tower, j, prev).items():
            _add_term(result, exp, _times(a, coeff, one))
        if c_terms:
            for exp, coeff in _mul_terms(tower, c_terms, prev).items():
                _add_term(result, exp, coeff)
        d_terms = tower.delta_var_raw(i, j)
        if d_terms:
            rest_mono = {rest + (0,) * (height - i): one}
            for exp, coeff in _mul_terms(tower, d_terms, rest_mono).items():
                _add_term(result, exp, coeff)
        table[(i, cur)] = result
    return table[(i, lower)]


# ---------------------------------------------------------------------------
# level maps on polynomials


def apply_level_map(kind: str, level: int, p: SkewPoly) -> SkewPoly:
    """Apply sigma_level or delta_level to a polynomial supported below it.

    Both maps are read off the engine table: x_i x^e = sigma_i(x^e) x_i +
    delta_i(x^e), so the terms of ``_var_times_lower(tower, i, e)`` with
    x_i-exponent 1 give sigma_i(x^e) and those with exponent 0 give
    delta_i(x^e).  On a term c x^e,

        sigma_i(c x^e) = sigma_i(c) sigma_i(x^e)
        delta_i(c x^e) = delta_i(c) x^e + sigma_i(c) delta_i(x^e).
    """
    if kind not in ("sigma", "delta"):
        raise ValueError(f"unknown map kind {kind!r}")
    tower = p.tower
    too_high = [i for i in p.support_levels() if i >= level]
    if too_high:
        raise SupportTooHigh(
            f"polynomial involves level {min(too_high)} but the map lives at level {level}"
        )
    one = tower.base.one
    wanted = 1 if kind == "sigma" else 0
    acc: dict = {}
    for exp, coeff in p.terms.items():
        if kind == "delta":
            _add_term(acc, exp, tower.apply_delta0(level, coeff))
        sig = tower.apply_sigma0(level, coeff)
        for e, c in _var_times_lower(tower, level, exp[:level]).items():
            if e[level] == wanted:
                _add_term(acc, e[:level] + (0,) + e[level + 1:], _times(sig, c, one))
    return SkewPoly._of(tower, acc)


def _substitute(target, p: SkewPoly, var_image) -> SkewPoly:
    """The image of p in ``target`` under the ring map that fixes the base
    and sends x_j to var_image(j).

    Each term c x^e goes to c * prod_j var_image(j)^{e_j}; var_image is
    called only for the variables that occur.
    """
    total = SkewPoly.zero(target)
    for exp, coeff in p.terms.items():
        acc = SkewPoly.from_base(target, coeff)
        for j, e in enumerate(exp):
            if e:
                acc = acc * var_image(j) ** e
        total = total + acc
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
    for gen in _level_generators(tower, limit):
        if p * gen != gen * p:
            return False, gen
    return True, None


def central_powers(tower, n_bound: int) -> list[tuple[SkewPoly, int]]:
    """Every central power (x_i^N, N) with 1 <= N <= n_bound, by level
    and then by N: the powers that ``is_central`` accepts, found at one
    engine step per generator and power instead of two products with
    x_i^N.

    Write L_i for left multiplication by x_i, ``_var_times_terms(tower,
    i, .)``.  The engine defines (c x_i^a) T as c L_i^a(T), and a run
    x_i^a that ``_power_times_terms`` takes in one move equals L_i^a term
    for term.  x_i^N is supported at level i, a sum of terms c x_i^a, so
    for each generator g

        x_i^N g = sum of c L_i^a(g) over the terms c x_i^a of x_i^N,

    read off the run L_i^0(g), L_i^1(g), ... that is kept for g and
    stepped once when N passes its end; x_i^N = x_i^{N-1} x_i is read off
    the run of x_i the same way.  On the other side x_j x_i^N is one step
    L_j(x_i^N), and b x_i^N is the sum of (b c) x_i^a for a base
    generator b.  None of this assumes a valid tower, so the hits are
    those of direct products on every tower.  When the maps fix 1, x_i^N
    is one monomial with coefficient one and x_i^N g is the run entry
    itself.  The runs live for one level.
    """
    one = tower.base.one
    height = tower.height
    gens = [g.terms for g in _level_generators(tower, height)]
    n_base = len(gens) - height
    hits: list[tuple[SkewPoly, int]] = []
    for i in range(height):
        runs = [[terms] for terms in gens]
        power = {(0,) * height: one}
        for n in range(1, n_bound + 1):
            power = _times_run(tower, i, power, runs[n_base + i], one)
            for k, run in enumerate(runs):
                if k >= n_base:
                    left = _var_times_terms(tower, k - n_base, power)
                else:
                    # b x_i^N, b the generator's one term
                    left = {}
                    for b in gens[k].values():
                        for exp, c in power.items():
                            _add_term(left, exp, _times(b, c, one))
                if left != _times_run(tower, i, power, run, one):
                    break
            else:
                hits.append((SkewPoly._of(tower, power), n))
    return hits


def _times_run(tower, i: int, terms: dict, run: list, one) -> dict:
    """(sum of c x_i^a) g as the sum of c run[a], where ``terms`` is
    supported at level i and run[a] = L_i^a(g); steps ``run`` on to the
    highest a.  A lone coefficient one takes the run entry itself."""
    top = max((exp[i] for exp in terms), default=0)
    while len(run) <= top:
        run.append(_var_times_terms(tower, i, run[-1]))
    if len(terms) == 1:
        (exp, c), = terms.items()
        if c is one or c == one:
            return run[exp[i]]
    acc: dict = {}
    for exp, c in terms.items():
        for e, d in run[exp[i]].items():
            _add_term(acc, e, _times(c, d, one))
    return acc


def _level_generators(tower, i: int) -> list[SkewPoly]:
    """Generators of the subring R_{i-1}: base generators and lower variables."""
    gens = [SkewPoly.from_base(tower, g) for g in tower.base.generators()]
    gens.extend(SkewPoly.variable(tower, j) for j in range(i))
    return gens


def degree_leading(p: SkewPoly, level: int):
    """Degree in x_level and the sum of terms attaining it.

    The zero polynomial reports the explicit minus-infinity sentinel.
    """
    if not p.terms:
        return NEG_INF, SkewPoly.zero(p.tower)
    deg = max(exp[level] for exp in p.terms)
    lead = {exp: c for exp, c in p.terms.items() if exp[level] == deg}
    return deg, SkewPoly._of(p.tower, lead)
