"""Degeneration of a tower to its associated graded presentation.

Filtering by degree in a variable and passing to leading forms kills that
level's delta and the lower-order c parts of every higher sigma acting on
it.  Repeating from the top variable downward leaves the automorphism-only
tower with sigma'_i(y_j) = a_ij y_j, computed presentation to presentation
as ``tower.sigma_only()``; the element-level leading-form map is
``skewpoly.degree_leading``.

Each sigma_i (i > l) respects the degree-in-x_l filtration of R_l, so the
degeneration is well defined.  The engine table fills
sigma_i(x_j x^rest) = a_ij x_j sigma_i(x^rest) + c_ij sigma_i(x^rest),
also on towers that fail validation; c_ij lies below x_j, and in R_l,
where x_l is the top variable, deg(ab) <= deg a + deg b (Goodearl-Warfield,
ch. 2).  By induction on the monomial, deg sigma_i(x^e) <= e_l.  The same
argument shows the generators always pass: sigma_i(x_j) = a_ij x_j + c_ij
and sigma_i maps the base into itself.  So ``gr`` reports every pair
(sigma_i, x_l) as closed without computing; ``rees_closure_check``, which
checks a map on the generators of R_l and so decides every degree, is the
tests' oracle for that report.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

from .errors import HypothesisViolation
from .skewpoly import SkewPoly, _level_generators, degree_leading
from .tower import NO_MAP, OreTower


@dataclass
class GradedStep:
    level: int  # 0-based level degenerated at this step
    dropped_delta_base: bool
    dropped_delta_vars: list[int]
    dropped_c: list[tuple[int, int]]  # (higher level, this level)


@dataclass
class GradedPresentation:
    result: OreTower
    step_log: list[GradedStep] = dc_field(default_factory=list)


def associated_graded_tower(tower: OreTower) -> GradedPresentation:
    """Drop every delta and every c part, keeping the a data (``OreTower.sigma_only``).

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
        dropped_c = [
            (k, idx)
            for k in range(idx + 1, tower.height)
            if tower.sigma_var_raw(k, idx)[1]
        ]
        steps.append(
            GradedStep(
                level=idx,
                dropped_delta_base=lvl.delta_base is not NO_MAP,
                dropped_delta_vars=sorted(lvl.delta_vars),
                dropped_c=dropped_c,
            )
        )

    result = tower.sigma_only()
    report = result.validation
    if not report.ok:
        raise HypothesisViolation(
            f"degenerated presentation is not a valid tower: {report.failure_text}"
        )
    return GradedPresentation(result=result, step_log=steps)


def rees_closure_check(
    tower: OreTower, level: int, the_map: Callable[[SkewPoly], SkewPoly]
) -> SkewPoly | None:
    """The first generator of R_level that a map sends up the x_level filtration.

    The generators are the base generators and x_1..x_level, in that
    order; the image of x_level may have x_level-degree at most 1, every
    other image degree 0.  ``None`` means no generator is raised.  For a
    level map (``apply_level_map("sigma", i, .)``) this decides closure at
    every degree, as the module docstring argues.
    """
    for g in _level_generators(tower, level + 1):
        if degree_leading(the_map(g), level)[0] > degree_leading(g, level)[0]:
            return g
    return None
