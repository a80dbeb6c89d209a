"""Finite-order criteria for polynomial identities, with witnesses.

For towers of the diagonal quantised shape the verdict reduces to
root-of-unity checks: the tower satisfies a polynomial identity exactly
when every lambda_ij is a root of unity (equivalently, every sigma_i has
finite order).  When the shape hypotheses fail the verdict is Undecided
rather than guessed.  ``centrality_witness`` corroborates PI verdicts by
finding the central powers x_i^N of the variables, N up to a bound.  With
L_i left multiplication by x_i, the engine defines x_i^a g as L_i^a(g), so
x_i^N g is read off the run L_i^0(g), L_i^1(g), ... of each generator g,
stepped once per power, and g x_i^N is one step on x_i^N.  That is how
the direct products are computed, so the answer matches them on every
tower, an invalid one included.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .scalars import root_of_unity_order
from .skewpoly import SkewPoly, central_powers
from .tower import OreTower, map_order

_QUOTIENT_NOTE = (
    "quotient-ring isomorphism and identity-degree claims carry no finite "
    "certificate here; verdicts state finite-order data only"
)


@dataclass
class PIReport:
    lambda_orders: dict = dc_field(default_factory=dict)  # (i, j) -> int | None
    base_orders: dict = dc_field(default_factory=dict)  # i -> int | None
    verdict: str = "Undecided"  # "PI" | "NotPI" | "Undecided"
    reason: str | None = None
    notes: list = dc_field(default_factory=list)


# each sigma_i's order on the base is searched up to this unless a bound is given
DEFAULT_ORDER_BOUND = 60


def pi_report(tower: OreTower, order_bound: int = DEFAULT_ORDER_BOUND) -> PIReport:
    """Decide the finite-order PI criteria for a diagonal quantised tower.

    Re-checks the hypotheses first: each sigma_i restricted to the base
    has finite order within ``order_bound``, each sigma_i(x_j) is a
    nonzero scalar multiple of x_j, and each nonzero delta_i is quantised
    by some q_i != 1.  A failed hypothesis yields Undecided with the
    failure named; otherwise the verdict is PI exactly when every lambda
    is a root of unity.
    """
    report = PIReport(notes=[_QUOTIENT_NOTE])
    if not tower.validation.ok:
        report.reason = f"tower invalid: {tower.validation.first_failure}"
        return report

    base = tower.base
    for i, lvl in enumerate(tower.levels):
        order = map_order(base, lvl.sigma_base, order_bound)
        report.base_orders[i] = order
        if order is None:
            report.reason = (
                f"sigma_{i + 1} restricted to the base has no order within "
                f"{order_bound}"
            )
            return report
        if not lvl.delta_is_zero():
            if lvl.q is None:
                report.reason = f"level {i + 1} has a nonzero delta but no q"
                return report
            if lvl.q == base.field.one:
                report.reason = f"level {i + 1} declares q = 1"
                return report
        for j in range(i):
            lam_elem, c = tower.sigma_var(i, j)
            if c:
                report.reason = (
                    f"sigma_{i + 1}(x_{j + 1}) is not a scalar multiple of x_{j + 1}"
                )
                return report
            lam = base.as_scalar(lam_elem)
            if lam is None:
                report.reason = f"lambda[{i + 1},{j + 1}] is not a nonzero scalar"
                return report
            report.lambda_orders[(i, j)] = root_of_unity_order(lam)

    if all(order is not None for order in report.lambda_orders.values()):
        report.verdict = "PI"
    else:
        report.verdict = "NotPI"
    return report


def centrality_witness(tower: OreTower, n_bound: int) -> list[tuple[SkewPoly, int]]:
    """All central powers x_i^N with N <= n_bound, as (x_i^N, N) by level
    and then by N (``skewpoly.central_powers``)."""
    return central_powers(tower, n_bound)
