"""Degeneration of a tower to its associated graded presentation.

Filtering by degree in a variable and passing to leading forms kills that
level's delta and the lower-order c parts of every higher sigma acting on
it.  Repeating from the top variable downward leaves the automorphism-only
tower with sigma'_i(y_j) = a_ij y_j.  The degeneration is computed
presentation to presentation; the element-level leading-form map is
``skewpoly.degree_leading``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

from .erase import _erased_name, _exponents
from .errors import HypothesisViolation
from .skewpoly import SkewPoly, apply_level_map, degree_leading
from .tower import BaseMap, OreTower


@dataclass
class GradedStep:
    level: int  # 0-based level degenerated at this step
    dropped_delta_base: bool
    dropped_delta_vars: list[int]
    dropped_c: list[tuple[int, int]]  # (higher level, this level)


@dataclass
class GradedPresentation:
    source: OreTower
    result: OreTower
    step_log: list[GradedStep] = dc_field(default_factory=list)


def associated_graded_tower(tower: OreTower) -> GradedPresentation:
    """Drop every delta and every c part, keeping the a data.

    Requires each sigma_i to restrict to an automorphism of the base and
    each a_ij to be invertible; the result is validated before returning.
    """
    base = tower.base
    for i in range(tower.height):
        for j in range(i):
            a, _c = tower.sigma_var_raw(i, j)
            if not base.is_invertible(a):
                raise HypothesisViolation(
                    f"a[{i + 1},{j + 1}] = {a} is not invertible in the base"
                )

    steps: list[GradedStep] = []
    for idx in range(tower.height - 1, -1, -1):
        lvl = tower.levels[idx]
        dropped_vars = [j for j, terms in lvl.delta_vars.items() if terms]
        dropped_c = [
            (k, idx)
            for k in range(idx + 1, tower.height)
            if tower.sigma_var_raw(k, idx)[1]
        ]
        steps.append(
            GradedStep(
                level=idx,
                dropped_delta_base=not lvl.delta_base.is_trivial(),
                dropped_delta_vars=sorted(dropped_vars),
                dropped_c=dropped_c,
            )
        )

    new_levels = [
        replace(
            lvl,
            name=_erased_name(lvl.name),
            delta_base=BaseMap.zero(),
            sigma_vars={j: (a, {}) for j, (a, _c) in lvl.sigma_vars.items()},
            delta_vars={},
            q=None,
        )
        for lvl in tower.levels
    ]
    result = OreTower(base, new_levels)
    report = result.validation
    if not report.ok:
        raise HypothesisViolation(
            f"degenerated presentation is not a valid tower: {report.first_failure}"
        )
    return GradedPresentation(source=tower, result=result, step_log=steps)


@dataclass
class ReesCheck:
    ok: bool
    witness: SkewPoly | None = None


def rees_closure_check(
    tower: OreTower,
    level: int,
    the_map: Callable[[SkewPoly], SkewPoly],
    degree_bound: int,
) -> ReesCheck:
    """Whether a map respects the degree-in-x_level filtration.

    Every monomial in the variables up to ``level`` with total degree at
    most ``degree_bound`` must map to something of no larger x_level
    degree.  The first violating monomial in lexicographic exponent order
    is returned as the witness.
    """
    totals = range(degree_bound + 1)
    for exp in sorted(e for t in totals for e in _exponents(level + 1, t, tower.height)):
        mono = SkewPoly(tower, {exp: tower.base.one})
        image = the_map(mono)
        deg, _ = degree_leading(image, level)
        if deg > exp[level]:
            return ReesCheck(False, mono)
    return ReesCheck(True)


def level_sigma(tower: OreTower, level: int) -> Callable[[SkewPoly], SkewPoly]:
    """The sigma of a tower level as a polynomial map, for closure checks."""
    return lambda p: apply_level_map("sigma", level, p)
