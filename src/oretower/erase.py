"""Erasing derivations from quantised towers.

The single-level engine removes the top level's delta, producing an
element y with y r = sigma(r) y for everything below.  Three branches, in
order:

* trivial delta: the top delta already vanishes, y = x.
* center moving: a central element c of the ring below with
  u = sigma(c) - c nonzero, central and regular yields y = u x + delta(c)
  (the commutator [x, c]); when u is invertible in the base the
  uncleared shift y = x + u^{-1} delta(c) is used instead.
* inner conjugator (height-1 matrix bases only): sigma is inner via some
  a, a^{-1} delta is an inner derivation via some v, and y = x - a v.

In the center-moving branch with u outside the base, the powers of y are
left-independent over the ring below: deg y^k = k in x for every k.  This
is proved, not sampled:

* leading form: x r = sigma(r) x + delta(r) with delta(r) below x, so
  y^k = E_k x^k + (lower in x) with E_k = u sigma(u) ... sigma^{k-1}(u),
  by the ring law alone;
* E_k != 0: u = g x^m with g invertible (``_is_regular_monomial``), the
  base maps are automorphisms (validation), and every working tower is
  diagonal with invertible central lambda (``_check_erase_hypotheses``; a
  swap only adds lambda^{-1} with no c part).  Reading degrees from the
  top level down, the leading coefficient of a product P Q is
  lc(P) theta(lc(Q)) mu, with theta a base automorphism and mu a product
  of lambdas.  So each sigma^j(u) has an invertible leading coefficient,
  and so does E_k; hence E_k != 0 and deg y^k = k.

When u is in the base, y = x + u^{-1} delta(c) is monic in x and the same
holds with E_k = 1.  ``tests/test_erase.py`` checks the leading forms of
y^k on every center-moving step over a corpus of towers as an oracle.

The full pass repeatedly erases the current top level and swaps the new
automorphism-only variable below the remaining delta levels.  There is no
final reorder: the output tower, y_1 ... y_n bottom to top, is
``tower.sigma_only(qs)`` of the input, with qs the q values that the swaps
left.  Every claimed relation is re-verified by explicit multiplication in
the original tower.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field, replace

from .errors import (
    CompatibilityFailed,
    HypothesisViolation,
    NotDiagonal,
    QEqualsOne,
    UnsupportedErasure,
    VerificationFailed,
)
from .pi import pi_report
from .scalars import Matrix
from .skewpoly import (
    SkewPoly,
    _substitute,
    apply_level_map,
    is_central,
)
from .tower import (
    BaseMap,
    OreTower,
    _erased_names,
    _level_generators,
    check_swap_compatibility,
)


@dataclass
class ErasureWitness:
    """Re-verifiable data backing one erasure step."""

    branch: str  # "trivial_delta" | "center_moving" | "inner"
    c: SkewPoly | None = None
    u: SkewPoly | None = None
    a: Matrix | None = None
    v: Matrix | None = None
    b: object | None = None  # base element shift in y = x - b, when it exists


@dataclass
class ErasureResult:
    y_elements: list[SkewPoly]
    new_tower: OreTower
    witnesses: list[ErasureWitness]
    warnings: list[str] = dc_field(default_factory=list)


# ---------------------------------------------------------------------------
# single-level erasure


# central candidates c are searched up to this total degree unless a bound is given
DEFAULT_SEARCH_DEGREE = 4


def erase_top(tower: OreTower, search_degree_bound: int = DEFAULT_SEARCH_DEGREE):
    """Erase the top level's delta; returns (y, new_tower, witness)."""
    if tower.height == 0:
        raise UnsupportedErasure("tower has no levels")
    top = tower.height - 1
    lvl = tower.levels[top]

    if lvl.delta_is_zero():
        return SkewPoly.variable(tower, top), tower, ErasureWitness("trivial_delta")

    q = lvl.q
    if q is None:
        raise UnsupportedErasure(
            f"level {top + 1} has a nonzero delta but declares no q value"
        )
    if q == tower.base.field.one:
        raise QEqualsOne(f"level {top + 1} declares q = 1")

    found = _center_moving(tower, top, search_degree_bound)
    if found is not None:
        return found
    if tower.height == 1 and tower.base.kind == "matrix":
        return _inner_branch(tower)
    raise UnsupportedErasure(
        f"no central c with regular u = sigma(c) - c up to total degree "
        f"{search_degree_bound}, and the inner-conjugator branch needs a "
        f"height-1 matrix-algebra base"
    )


def _candidates(tower: OreTower, top: int, bound: int):
    """Candidate central elements: generator powers times lower monomials,
    ordered by total degree then lexicographically."""
    gen = tower.base.field.gen if tower.base.kind == "field" else None
    max_gen = bound if gen is not None else 0
    for total in range(bound + 1):
        seen = []
        for gen_pow in range(min(total, max_gen) + 1):
            var_deg = total - gen_pow
            for exp in _exponents(top, var_deg, tower.height):
                seen.append((gen_pow, exp))
        for gen_pow, exp in sorted(seen):
            coeff = tower.base.scalar(gen ** gen_pow) if gen_pow else tower.base.one
            yield SkewPoly(tower, {exp: coeff})


def _exponents(nvars: int, total: int, height: int):
    if nvars == 0:
        if total == 0:
            yield (0,) * height
        return
    for split in itertools.combinations(range(total + nvars - 1), nvars - 1):
        exp = []
        prev = -1
        for s in split:
            exp.append(s - prev - 1)
            prev = s
        exp.append(total + nvars - 2 - prev)
        yield tuple(exp) + (0,) * (height - nvars)


def _center_moving(tower: OreTower, top: int, bound: int):
    for c in _candidates(tower, top, bound):
        ok, _ = is_central(c, top_level=top)
        if not ok:
            continue
        u = apply_level_map("sigma", top, c) - c
        if u.is_zero():
            continue
        ok, _ = is_central(u, top_level=top)
        if not ok:
            continue
        if not _is_regular_monomial(tower, u):
            continue
        dc = apply_level_map("delta", top, c)
        x_top = SkewPoly.variable(tower, top)
        shift = None
        if u.is_base_element():
            u0 = u.constant_coefficient()
            u0_inv = u0.inverse()
            y = x_top + u0_inv * dc
            if dc.is_base_element():
                shift = -(u0_inv * dc.constant_coefficient())
        else:
            y = u * x_top + dc
        _assert_sigma_relation(tower, top, y)
        new_tower = _zero_top_delta(tower)
        return y, new_tower, ErasureWitness("center_moving", c=c, u=u, b=shift)
    return None


def _is_regular_monomial(tower: OreTower, p: SkewPoly) -> bool:
    if len(p.terms) != 1:
        return False
    coeff = next(iter(p.terms.values()))
    return tower.base.is_invertible(coeff)


def _assert_sigma_relation(tower: OreTower, top: int, y: SkewPoly) -> None:
    for g in _level_generators(tower, top):
        if y * g != apply_level_map("sigma", top, g) * y:
            raise UnsupportedErasure(
                f"internal check failed: y r != sigma(r) y for r = {g}"
            )


def _zero_top_delta(tower: OreTower) -> OreTower:
    top = tower.height - 1
    name = _erased_names(tower, [top])[top]
    erased = replace(tower.levels[top], name=name, delta_base=BaseMap.zero(), delta_vars={})
    return tower.with_level(top, erased)


def _inner_branch(tower: OreTower):
    """y = x - a v on a height-1 tower over Mat_m, where sigma = conj(a)
    (``BaseMap.conjugator``) and delta(r) = b' r - sigma(r) b'
    (``BaseMap.inner_shift``), so that a^{-1} delta = [v, .] with v =
    a^{-1} b' up to a scalar, fixed by v_{m-1,m-1} = 0."""
    base = tower.base
    m = base.size

    # delta must kill the center F*I (forced by q != 1; a failure here
    # means the declared maps were never a valid q-skew pair)
    d_one = tower.apply_delta0(0, base.one)
    if not d_one.is_zero():
        raise HypothesisViolation(
            "delta does not vanish on the center; the q-skew hypothesis fails"
        )

    sigma = tower.levels[0].sigma_base
    a = base.one if sigma.linear_action is None else sigma.conjugator
    if a is None:
        raise UnsupportedErasure(
            "no invertible conjugator a with sigma(r) a = a r exists; "
            "sigma is not an inner automorphism of the matrix base"
        )
    shift = tower.levels[0].delta_base.inner_shift(sigma)
    if shift is None:
        raise UnsupportedErasure(
            "a^{-1} delta is not an inner derivation of the matrix base"
        )
    v = a.inverse() * shift
    v -= base.scalar(v.rows[m - 1][m - 1])
    b = a * v
    y = SkewPoly.variable(tower, 0) - b
    _assert_sigma_relation(tower, 0, y)
    return y, _zero_top_delta(tower), ErasureWitness("inner", a=a, v=v, b=b)


# ---------------------------------------------------------------------------
# adjacent swaps


def swap_adjacent(tower: OreTower, upper: int) -> OreTower:
    """Exchange levels upper and upper-1 (0-based; the upper level moves down).

    The upper level must be automorphism-only with a diagonal action
    sigma(x_below) = lam * x_below; the moved-up level acquires
    sigma(x_moved) = lam^{-1} * x_moved and delta(x_moved) = 0.  Its q is
    dropped when delta_lower(lam) != 0, which shows as
    ``levels[upper].q is None`` in the result; no Python warning is issued.
    """
    if not 1 <= upper < tower.height:
        raise ValueError("swap index out of range")
    hi = tower.levels[upper]
    lo = tower.levels[upper - 1]
    if not hi.delta_is_zero():
        raise NotDiagonal(f"level {upper + 1} still carries a delta; cannot move it down")
    lam, c = tower.sigma_var(upper, upper - 1)
    if c:
        raise NotDiagonal(
            f"sigma of level {upper + 1} sends x_{upper} to {lam} * x_{upper} + {c}"
        )
    if not tower.base.is_invertible(lam):
        raise NotDiagonal(f"lambda = {lam} is not invertible in the base")
    compat = check_swap_compatibility(tower, upper, lam)
    if not compat.ok:
        raise CompatibilityFailed(
            f"levels {upper} and {upper + 1} do not commute as required; "
            f"witness {compat.witness}",
            witness=compat.witness,
        )

    p = upper - 1

    def remap_exp(exp: tuple) -> tuple:
        out = list(exp)
        out[p], out[p + 1] = out[p + 1], out[p]
        return tuple(out)

    def remap_terms(terms: dict) -> dict:
        return {remap_exp(e): coeff for e, coeff in terms.items()}

    new_levels = list(tower.levels[:p])

    moved_down = replace(
        hi,
        sigma_vars={j: v for j, v in hi.sigma_vars.items() if j < p},
        delta_vars={j: v for j, v in hi.delta_vars.items() if j < p},
    )
    moved_up = replace(
        lo,
        sigma_vars={**lo.sigma_vars, p: (lam.inverse(), {})},
        delta_vars={**lo.delta_vars, p: {}},
        q=lo.q if compat.q_preserved else None,
    )
    new_levels.extend([moved_down, moved_up])

    for old in tower.levels[upper + 1 :]:
        sigma_vars, delta_vars = {}, {}
        for j, (a, ct) in old.sigma_vars.items():
            nj = p + 1 if j == p else (p if j == p + 1 else j)
            sigma_vars[nj] = (a, remap_terms(ct))
        for j, dt in old.delta_vars.items():
            nj = p + 1 if j == p else (p if j == p + 1 else j)
            delta_vars[nj] = remap_terms(dt)
        new_levels.append(replace(old, sigma_vars=sigma_vars, delta_vars=delta_vars))
    try:
        return OreTower(tower.base, new_levels)
    except ValueError as exc:
        raise CompatibilityFailed(
            f"swap produced an ill-formed presentation: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# the full pass


def erase_all(tower: OreTower, search_degree_bound: int = DEFAULT_SEARCH_DEGREE) -> ErasureResult:
    """Erase every delta, returning the automorphism-only subtower data.

    Requires the diagonal quantised shape: sigma_i(x_j) = lam_ij x_j with
    lam_ij central invertible and fixed by all higher maps, and every
    level with a nonzero delta declaring q != 1.  The result tower is
    ``tower.sigma_only(qs)``, qs the q values that the swaps left, so tau_i
    = sigma_i on the base and tau_i(y_j) = lam_ij y_j; all of it is
    re-verified by multiplication inside the original tower.
    """
    _check_erase_hypotheses(tower)
    n = tower.height
    collected_warnings: list[str] = []

    # round k erases original level n-1-k, then pushes it down to position
    # k, so the working tower ends with the original levels in reverse
    working = tower
    embed = [SkewPoly.variable(tower, i) for i in range(n)]
    y_elements: list[SkewPoly | None] = [None] * n
    witnesses: list[ErasureWitness | None] = [None] * n
    top = n - 1
    for k in range(n):
        level = top - k
        try:
            y_w, new_working, wit = erase_top(working, search_degree_bound)
        except (UnsupportedErasure, QEqualsOne) as exc:
            raise type(exc)(f"erasing level {level + 1}: {exc}") from exc
        y_orig = _substitute(tower, y_w, embed.__getitem__)
        y_elements[level] = y_orig
        witnesses[level] = wit
        embed[top] = y_orig
        working = new_working
        for pos in range(top, k, -1):
            working = _swap_collect(working, pos, collected_warnings)
            embed[pos - 1], embed[pos] = embed[pos], embed[pos - 1]

    result_tower = tower.sigma_only([working.levels[top - i].q for i in range(n)])
    report = result_tower.validation
    if not report.ok:
        raise VerificationFailed(
            f"erasure produced an invalid tower: {report.first_failure}"
        )

    _verify_relations(tower, y_elements)

    result = ErasureResult(
        y_elements=list(y_elements),
        new_tower=result_tower,
        witnesses=list(witnesses),
        warnings=collected_warnings,
    )
    _attach_quantisation_warning(tower, result)
    return result


def _swap_collect(working: OreTower, upper: int, sink: list[str]) -> OreTower:
    """``swap_adjacent``, appending a note to ``sink`` when the level moved
    up loses its q."""
    swapped = swap_adjacent(working, upper)
    if working.levels[upper - 1].q is not None and swapped.levels[upper].q is None:
        lam, _ = working.sigma_var(upper, upper - 1)
        sink.append(
            f"q of level {upper} dropped: delta({lam}) != 0 so the moved map "
            f"is no longer q-skew"
        )
    return swapped


def _check_erase_hypotheses(tower: OreTower) -> None:
    report = tower.validation
    if not report.ok:
        raise HypothesisViolation(f"tower is invalid: {report.first_failure}")
    base = tower.base
    n = tower.height
    for i in range(n):
        lvl = tower.levels[i]
        for j in range(i):
            lam, c = tower.sigma_var(i, j)
            if c:
                raise HypothesisViolation(
                    f"sigma_{i + 1}(x_{j + 1}) has a nonzero c part; the "
                    f"diagonal hypothesis fails"
                )
            if base.as_scalar(lam) is None:
                raise HypothesisViolation(f"lambda[{i + 1},{j + 1}] is not central")
            for k in range(i, n):
                if tower.apply_sigma0(k, lam) != lam:
                    raise HypothesisViolation(
                        f"sigma_{k + 1} moves lambda[{i + 1},{j + 1}]"
                    )
                if not tower.apply_delta0(k, lam).is_zero():
                    raise HypothesisViolation(
                        f"delta_{k + 1} does not kill lambda[{i + 1},{j + 1}]"
                    )
        if lvl.q is not None and lvl.q == base.field.one:
            raise HypothesisViolation(f"level {i + 1} declares q = 1")
        if not lvl.delta_is_zero() and lvl.q is None:
            raise HypothesisViolation(
                f"level {i + 1} has a nonzero delta but declares no q"
            )


def _verify_relations(tower: OreTower, ys: list[SkewPoly]) -> None:
    base = tower.base
    n = tower.height
    for i in range(n):
        y_i = ys[i]
        for g in base.generators():
            if y_i * g != tower.apply_sigma0(i, g) * y_i:
                raise VerificationFailed(
                    f"relation y_{i + 1} r = tau(r) y_{i + 1} fails for r = {g}"
                )
        for j in range(i):
            lam, _ = tower.sigma_var(i, j)
            if y_i * ys[j] != lam * ys[j] * y_i:
                raise VerificationFailed(
                    f"relation y_{i + 1} y_{j + 1} = lambda y_{j + 1} y_{i + 1} fails"
                )


def _attach_quantisation_warning(tower: OreTower, result: ErasureResult) -> None:
    report = pi_report(tower)
    if report.verdict != "PI":
        result.warnings.append(
            "finite-order criteria fail: the quotient-ring equivalence is "
            "outside the supported scope (verdict "
            f"{report.verdict})"
        )
