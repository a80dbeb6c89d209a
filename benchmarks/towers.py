"""Tower presentations and seeded input samplers shared by the workloads.

Towers are given as tower-file text and built with the package's own
parser, so the benchmark depends only on the file format and the public
element API, not on how presentations are constructed internally.
"""

from __future__ import annotations

import random

_Q_LEVELS = """
[[level]]
var = x1

[[level]]
var = x2
"""


def _qplane(field: str, lam: str) -> str:
    return f"[base]\nkind = field\nfield = {field}\n{_Q_LEVELS}sigma x1 = {lam} * x1\n"


def _qweyl(field: str, q: str) -> str:
    return (
        f"[base]\nkind = field\nfield = {field}\n{_Q_LEVELS}"
        f"sigma x1 = {q} * x1\ndelta x1 = 1\nq = {q}\n"
    )


TOWER_TEXT = {
    "qplane_lambda2": _qplane("Q", "2"),
    "qplane_zeta3": _qplane("cyclotomic(3)", "z"),
    "qplane_zeta5": _qplane("cyclotomic(5)", "z"),
    "qweyl_q": _qweyl("Q(q)", "q"),
    "qweyl_t": _qweyl("Q(t)", "t"),
    "qweyl_zeta3": _qweyl("cyclotomic(3)", "z"),
    "qweyl_zeta5": _qweyl("cyclotomic(5)", "z"),
    "weyl_gf5": (
        "[base]\nkind = field\nfield = gf(5)\n\n[[level]]\nvar = x\n\n"
        "[[level]]\nvar = y\ndelta x = 1\n"
    ),
    "mat2_inner": (
        "[base]\nkind = matrix\nfield = Q(q)\nsize = 2\n\n[[level]]\nvar = x\n"
        "sigma_base = conj([[1, 0], [0, q]])\n"
        "delta_base = inner([[0, 1], [0, 0]])\nq = q\n"
    ),
    "three_level": (
        "[base]\nkind = field\nfield = Q\n\n[[level]]\nvar = x1\n\n"
        "[[level]]\nvar = x2\n\n[[level]]\nvar = x3\n"
        "sigma x1 = 2 * x1\nsigma x2 = 5 * x2 + x1\n"
    ),
}

# The ten arithmetic towers of the products workload: Q, gf(5),
# cyclotomic(3) and (5), Q(q), Q(t), Mat2(Q(q)) and the three-level tower.
PRODUCT_TOWERS = (
    "qplane_lambda2",
    "qplane_zeta3",
    "qplane_zeta5",
    "qweyl_q",
    "qweyl_t",
    "qweyl_zeta3",
    "qweyl_zeta5",
    "weyl_gf5",
    "mat2_inner",
    "three_level",
)


def build(ot, name: str):
    """Parse one named tower with the freshly imported package ``ot``."""
    return ot.parse_tower_text(TOWER_TEXT[name])


# ---------------------------------------------------------------------------
# seeded samplers (no floats reach the program)


def _field_kind(field) -> str:
    if getattr(field, "inner", None) is not None:
        return "ratfunc"
    if getattr(field, "modulus", None) is not None:
        return "cyclotomic"
    if getattr(field, "p", None) is not None:
        return "prime"
    return "rational"


def random_scalar(field, rng: random.Random, shape: int | None = None):
    """A nonzero scalar with small coefficients.

    ``shape`` fixes the number of numerator terms of a rational function
    (1 + shape % 2); without it the number is drawn too.
    """
    kind = _field_kind(field)
    if kind == "rational":
        return field.coerce(rng.choice((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)))
    if kind == "prime":
        return field.coerce(rng.randrange(1, field.p))
    if kind == "cyclotomic":
        while True:
            coeffs = [rng.randint(-3, 3) for _ in range(field.degree)]
            if any(coeffs):
                return field.coerce(coeffs)
    length = rng.randint(1, 2) if shape is None else 1 + shape % 2
    return field.from_polys([random_scalar(field.inner, rng) for _ in range(length)])


# Sparsity patterns of the 2x2 matrix coefficients: diagonal, anti-diagonal,
# upper and lower triangular.
_PATTERNS = ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1))


def random_base_element(ot, tower, rng: random.Random, shape: int):
    """A nonzero base element whose shape (matrix sparsity pattern, number
    of numerator terms) is fixed by ``shape`` and whose values are drawn."""
    base = tower.base
    if base.kind == "field":
        return random_scalar(base.field, rng, shape)
    pattern = _PATTERNS[shape % len(_PATTERNS)]
    entries = [rng.choice((-3, -2, -1, 1, 2, 3)) if used else 0 for used in pattern]
    return ot.Matrix(base.field, [entries[:2], entries[2:]])


def _compositions(total: int, parts: int) -> list:
    """Exponent vectors of the given total degree, in a fixed order."""
    if parts == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total, -1, -1)
        for rest in _compositions(total - first, parts - 1)
    ]


def design_triple(ot, tower, rng: random.Random, k: int):
    """Triple number ``k``: three polynomials of 1-3 terms, each of degree <= 3.

    The shapes follow a fixed design: term counts rotate through 1, 2, 3,
    total degrees cycle through 0-3, and the split of each degree over the
    variables and the shape of each coefficient cycle through every option.
    Only the coefficient values come from the seed, so every seed draws the
    same mix of cheap and costly products and runs with different seeds
    differ little.
    """
    polys = []
    element = 6 * k  # every triple holds 1 + 2 + 3 terms
    for j in range(3):
        terms = {}
        for t in range(1 + (k + j) % 3):
            exps = _compositions((k // 3 + j + t) % 4, tower.height)
            terms[exps[element % len(exps)]] = random_base_element(ot, tower, rng, element)
            element += 1
        polys.append(tower.poly(terms))
    return tuple(polys)
