"""Shared fixture towers and random-element helpers."""

from __future__ import annotations

import random

import pytest

from oretower.scalars import (
    GF,
    QQ,
    CyclotomicField,
    CyclotomicFieldImpl,
    FunctionField,
    Matrix,
    PrimeFieldImpl,
    RationalFunctionField,
    Scalar,
    _reduce_rows,
)
from oretower.skewpoly import SkewPoly
from oretower.tower import BaseMap, BaseRing, OreTower, TowerLevel


def qplane(field, lam) -> OreTower:
    """k[x1][x2; sigma] with sigma(x1) = lam * x1."""
    return OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel("x1"),
            TowerLevel("x2", sigma_vars={0: (field.coerce(lam), {})}),
        ],
    )


def qweyl(field, qval) -> OreTower:
    """k[x1][x2; sigma, delta] with sigma(x1) = q x1, delta(x1) = 1."""
    qval = field.coerce(qval)
    return OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel("x1"),
            TowerLevel(
                "x2",
                sigma_vars={0: (qval, {})},
                delta_vars={0: {(0, 0): field.one}},
                q=qval,
            ),
        ],
    )


def mat2_inner_tower() -> OreTower:
    """Mat2(Q(q)) with sigma = conjugation by diag(1, q), delta inner by e12."""
    field = FunctionField(QQ, "q")
    q = field.gen
    sigma = BaseMap.conjugation(Matrix(field, [[1, 0], [0, q]]))
    delta = BaseMap.inner_derivation(Matrix.unit(field, 2, 0, 1), sigma)
    return OreTower(
        BaseRing.matrix_ring(field, 2),
        [TowerLevel("x", sigma_base=sigma, delta_base=delta, q=q)],
    )


def mat2_twolevel() -> OreTower:
    """Two-level tower over Mat2(Q) with a noncentral scaling element.

    sigma1 = conj(P), sigma2 = conj(D); the compatibility condition forces
    sigma2(x1) = lam * x1 with lam = D P D^{-1} P^{-1}, which is
    invertible but not central, so coefficient order genuinely matters.
    """
    field = QQ
    p_mat = Matrix(field, [[0, 1], [1, 0]])
    d_mat = Matrix(field, [[1, 0], [0, 2]])
    lam = d_mat * p_mat * d_mat.inverse() * p_mat.inverse()
    return OreTower(
        BaseRing.matrix_ring(field, 2),
        [
            TowerLevel("x1", sigma_base=BaseMap.conjugation(p_mat)),
            TowerLevel(
                "x2",
                sigma_base=BaseMap.conjugation(d_mat),
                sigma_vars={0: (lam, {})},
            ),
        ],
    )


E12, E21 = Matrix.unit(QQ, 2, 0, 1), Matrix.unit(QQ, 2, 1, 0)

# sigma2(x1) = (a, c part) of Mat2(Q)[x1][x2; sigma2] towers with identity
# base maps that validate rejects; mul does not validate, so the engine's
# fast paths must still agree with applying x2 one factor at a time
UNVALIDATED_SIGMA_X1 = {
    # x2 x1 = e12 x1 x2 + e21, so x2 x1^2 = x1 x2: a single monomial with
    # another lower part
    "other_lower_monomial": (E12, {(0, 0): E21}),
    # x2 x1 = (1 + e12) x1 x2, with 1 + e12 not central
    "noncentral_lambda": (Matrix.identity(QQ, 2) + E12, {}),
}


def mat2_unvalidated(name: str) -> OreTower:
    return OreTower(
        BaseRing.matrix_ring(QQ, 2),
        [TowerLevel("x1"), TowerLevel("x2", sigma_vars={0: UNVALIDATED_SIGMA_X1[name]})],
    )


def mat2_unvalidated_three() -> OreTower:
    """Mat2(Q)[x1][x2][x3] with identity base maps, x2 x1 = (1 + e12) x1 x2,
    x3 x1 = (1 + e21) x1 x3 and x3 x2 = x2 x3; validate rejects it, but
    every table entry is a single monomial, so a product moves one term
    through both levels and picks up non-commuting coefficients whose order
    matters: (1 + e21)(1 + e12) != (1 + e12)(1 + e21)."""
    one = Matrix.identity(QQ, 2)
    return OreTower(
        BaseRing.matrix_ring(QQ, 2),
        [
            TowerLevel("x1"),
            TowerLevel("x2", sigma_vars={0: (one + E12, {})}),
            TowerLevel("x3", sigma_vars={0: (one + E21, {}), 1: (one, {})}),
        ],
    )


def weyl_gf5() -> OreTower:
    """GF(5)[x][y; delta = d/dx]; no q declared."""
    field = GF(5)
    return OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel("x"),
            TowerLevel("y", delta_vars={0: {(0, 0): field.one}}),
        ],
    )


def three_level_graded() -> OreTower:
    """Q[x1][x2][x3; sigma3] with sigma3(x2) = 5 x2 + x1, sigma3(x1) = 2 x1."""
    return OreTower(
        BaseRing.field_ring(QQ),
        [
            TowerLevel("x1"),
            TowerLevel("x2"),
            TowerLevel(
                "x3",
                sigma_vars={
                    1: (QQ.coerce(5), {(1, 0, 0): QQ.one}),
                    0: (QQ.coerce(2), {}),
                },
            ),
        ],
    )


def zeta5_deriv_tower() -> OreTower:
    """Q(zeta5)[x; sigma, delta] with sigma(z) = z^2 and the matching q = -1 delta.

    delta = w (sigma - id) with sigma(w) = -w makes delta a q-skew
    sigma-derivation for q = -1.
    """
    field = CyclotomicField(5)
    z = field.gen
    w = z - z**2 - z**3 + z**4
    d = w * (z**2 - z)
    return OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel(
                "x",
                sigma_base=BaseMap(z**2),
                delta_base=BaseMap(d),
                q=field.coerce(-1),
            )
        ],
    )


def ratfunc_deriv_tower() -> OreTower:
    """Q(t)[x1; id, d/dt][x2; sigma2] with sigma2(x1) = t * x1.

    Used for the swap-compatibility report; the tower itself is not valid
    (sigma2 does not extend), which is exactly what the checks document.
    """
    field = FunctionField(QQ, "t")
    t = field.gen
    return OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel("x1", delta_base=BaseMap(field.one)),
            TowerLevel("x2", sigma_vars={0: (t, {})}),
        ],
    )


def weyl_sigma_top_tower() -> OreTower:
    """Quantum Weyl with a diagonal sigma-only level on top.

    sigma3(x2) = q x2 and sigma3(x1) = q^{-1} x1 keep sigma3 multiplicative
    across the Weyl relation x2 x1 = q x1 x2 + 1.
    """
    field = FunctionField(QQ, "q")
    q = field.gen
    return OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel("x1"),
            TowerLevel(
                "x2",
                sigma_vars={0: (q, {})},
                delta_vars={0: {(0, 0, 0): field.one}},
                q=q,
            ),
            TowerLevel(
                "x3",
                sigma_vars={1: (q, {}), 0: (q.inverse(), {})},
            ),
        ],
    )


ARITHMETIC_FIXTURES = {
    "qplane_2": lambda: qplane(QQ, 2),
    "qplane_z3": lambda: qplane(CyclotomicField(3), CyclotomicField(3).gen),
    "qplane_z5": lambda: qplane(CyclotomicField(5), CyclotomicField(5).gen),
    "qweyl_q": lambda: qweyl(FunctionField(QQ, "q"), FunctionField(QQ, "q").gen),
    "qweyl_z3": lambda: qweyl(CyclotomicField(3), CyclotomicField(3).gen),
    "qweyl_z5": lambda: qweyl(CyclotomicField(5), CyclotomicField(5).gen),
    "qweyl_t": lambda: qweyl(FunctionField(QQ, "t"), FunctionField(QQ, "t").gen),
    "weyl_gf5": weyl_gf5,
    "mat2_inner": mat2_inner_tower,
    "three_level": three_level_graded,
}


@pytest.fixture(params=sorted(ARITHMETIC_FIXTURES))
def any_tower(request) -> OreTower:
    return ARITHMETIC_FIXTURES[request.param]()


def count_calls(monkeypatch, module, name: str) -> list:
    """Patch ``module.name`` to record the arguments of each call in the
    returned list."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


# ---------------------------------------------------------------------------
# random sampling (seeded; no floats anywhere)


def random_scalar(field, rng: random.Random) -> Scalar:
    if field is QQ:
        return QQ.coerce(rng.randint(-6, 6))
    if isinstance(field, PrimeFieldImpl):
        return field.coerce(rng.randrange(field.p))
    if isinstance(field, CyclotomicFieldImpl):
        coeffs = [rng.randint(-3, 3) for _ in range(field.degree)]
        return field.coerce(coeffs)
    if isinstance(field, RationalFunctionField):
        num = [random_scalar(field.inner, rng) for _ in range(rng.randint(1, 2))]
        return field.from_polys(num)
    raise AssertionError(f"no sampler for {field!r}")


def random_base_element(tower: OreTower, rng: random.Random):
    if tower.base.kind == "field":
        return random_scalar(tower.base.field, rng)
    size = tower.base.size
    return Matrix(
        tower.base.field,
        [
            [rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(size)]
            for _ in range(size)
        ],
    )


def random_poly(tower: OreTower, rng: random.Random, max_degree: int = 3) -> SkewPoly:
    terms: dict = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * tower.height
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exp[rng.randrange(tower.height)] += 1
        terms[tuple(exp)] = random_base_element(tower, rng)
    return SkewPoly(tower, terms)


def random_poly_below(tower: OreTower, level: int, rng: random.Random) -> SkewPoly:
    """One or two terms of degree at most 2 in the variables below ``level``."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exp = [0] * tower.height
        for _ in range(rng.randint(0, 2)):
            if level > 0:
                exp[rng.randrange(level)] += 1
        terms[tuple(exp)] = random_base_element(tower, rng)
    return SkewPoly(tower, terms)


# ---------------------------------------------------------------------------
# reference linear solver


def solve_linear_system(a: Matrix, b) -> list[Scalar] | None:
    """One exact solution of A x = b, or None when the system is inconsistent.

    The reference solver of the erasure tests: ``erase._inner_branch``
    reads its conjugator and inner derivation off sigma and delta, and the
    kernel solves it replaced are kept as the oracle it must reproduce.
    Free variables are set to 0, except on a homogeneous system with a free
    variable: there the first free variable is set to 1, so the solution is
    nonzero.
    """
    field = a.field
    b = [field.coerce(c).rep for c in b]
    if len(b) != a.nrows:
        raise ValueError("right-hand side length does not match row count")
    ncols, is_zero = a.ncols, field.rep_is_zero
    aug = [[*(c.rep for c in row), rhs] for row, rhs in zip(a.rows, b)]
    pivots = _reduce_rows(field, aug, ncols)
    if any(not is_zero(row[ncols]) for row in aug[len(pivots):]):
        return None
    x = [field.rep_zero] * ncols
    free = next((c for c in range(ncols) if c not in pivots), None)
    homogeneous = free is not None and all(map(is_zero, b))
    if homogeneous:
        x[free] = field.rep_one
    for row, col in zip(aug, pivots):
        x[col] = field.rep_neg(row[free]) if homogeneous else row[ncols]
    return [Scalar(field, v) for v in x]
