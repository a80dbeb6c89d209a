"""Acceptance suite: one test per criterion, exact checks, timed.

Each test prints a single PASS line with its runtime; run with ``-s`` to
see them.  All comparisons are exact equalities of normal forms or
canonical scalars; the runtime limits are asserted.
"""

import functools
import random
import time

from oretower.erase import erase_all, erase_top, swap_adjacent
from oretower.graded import associated_graded_tower, rees_closure_check
from oretower.pi import centrality_witness, pi_report
from oretower.scalars import QQ, CyclotomicField, FunctionField, Matrix
from oretower.skewpoly import SkewPoly, apply_level_map, degree_leading, is_central
from oretower.tower import validate_tower

from conftest import (
    ARITHMETIC_FIXTURES,
    mat2_inner_tower,
    qplane,
    qweyl,
    random_poly,
    three_level_graded,
    weyl_gf5,
)


class _Timer:
    def __init__(self, number: int, label: str, limit: float):
        self.number = number
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            status = "PASS" if elapsed < self.limit else "FAIL (over time)"
            print(
                f"ACCEPTANCE {self.number} ({self.label}): {status} "
                f"in {elapsed:.2f}s (limit {self.limit:g}s)"
            )
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        else:
            print(f"ACCEPTANCE {self.number} ({self.label}): FAIL after {elapsed:.2f}s")
        return False


def test_criterion_1_quantum_plane_swap():
    with _Timer(1, "quantum-plane swap", 1.0):
        for field, lam in ((QQ, QQ.coerce(2)), (CyclotomicField(3), CyclotomicField(3).gen)):
            tower = qplane(field, lam)
            swapped = swap_adjacent(tower, 1)
            assert swapped.level_names() == ["x2", "x1"]
            a, c = swapped.sigma_var(1, 0)
            assert a == lam.inverse() and not c
            for presentation in (tower, swapped):
                x1 = presentation.var("x1")
                x2 = presentation.var("x2")
                assert x2 * x1 == presentation.from_base(lam) * (x1 * x2)


def test_criterion_2_center_moving_erasure():
    with _Timer(2, "center-moving erasure", 1.0):
        field = FunctionField(QQ, "q")
        q = field.gen
        tower = qweyl(field, q)
        y, _new_tower, wit = erase_top(tower)
        assert y == tower.poly({(1, 1): q - 1, (0, 0): field.one})
        x1 = tower.var(0)
        assert y * x1 == tower.from_base(q) * x1 * y

        # leading coefficient of y^k is u sigma(u) ... sigma^{k-1}(u) != 0
        u = tower.poly({(1, 0): q - 1})
        assert wit.u == u
        expected = tower.one()
        factor = u
        power = tower.one()
        for k in range(1, 5):
            expected = expected * factor
            factor = apply_level_map("sigma", 1, factor)
            power = power * y
            deg, lead = degree_leading(power, 1)
            assert deg == k
            assert not lead.is_zero()
            assert lead == expected * tower.var(1) ** k


def test_criterion_3_inner_conjugator_erasure():
    with _Timer(3, "inner-conjugator erasure", 1.0):
        tower = mat2_inner_tower()
        field = tower.base.field
        q = field.gen
        # declared q-skewness holds on the full unit basis
        report = validate_tower(tower)
        assert report.ok

        y, _new_tower, wit = erase_top(tower)
        e12 = Matrix.unit(field, 2, 0, 1)
        assert y == tower.var(0) - SkewPoly.from_base(tower, e12)
        for unit in tower.base.basis():
            lhs = y * SkewPoly.from_base(tower, unit)
            rhs = SkewPoly.from_base(tower, tower.apply_sigma0(0, unit)) * y
            assert lhs == rhs

        # a proportional to diag(1, q); v proportional to a^{-1} e12 up to center
        scale = wit.a.rows[0][0]
        assert not scale.is_zero()
        assert wit.a == Matrix(field, [[1, 0], [0, q]]) * scale
        assert (wit.v - wit.a.inverse() * e12).scalar_part() is not None


def test_criterion_4_full_erasure():
    with _Timer(4, "full erasure", 5.0):
        field = CyclotomicField(3)
        z = field.gen
        tower = qweyl(field, z)
        result = erase_all(tower)

        out = result.new_tower
        assert out.validation.ok
        a, c = out.sigma_var(1, 0)
        assert a == z and not c

        y1, y2 = result.y_elements
        assert y2 * y1 == tower.from_base(z) * y1 * y2
        for i, y in enumerate(result.y_elements):
            for g in tower.base.generators():
                lhs = y * SkewPoly.from_base(tower, g)
                rhs = SkewPoly.from_base(tower, tower.apply_sigma0(i, g)) * y
                assert lhs == rhs


def test_criterion_5_finite_order_verdicts():
    cases = [
        ("qplane zeta3", qplane(CyclotomicField(3), CyclotomicField(3).gen), "PI"),
        ("qplane 2", qplane(QQ, 2), "NotPI"),
        ("qweyl zeta5", qweyl(CyclotomicField(5), CyclotomicField(5).gen), "PI"),
        ("qweyl t", qweyl(FunctionField(QQ, "t"), FunctionField(QQ, "t").gen), "NotPI"),
    ]
    for label, tower, expected in cases:
        with _Timer(5, f"verdict {label}", 1.0):
            assert pi_report(tower).verdict == expected

    with _Timer(5, "verdict stable under erasure", 1.0):
        for _label, tower, expected in cases:
            erased = erase_all(tower).new_tower
            assert pi_report(erased).verdict == expected


def test_criterion_6_centrality_witnesses():
    with _Timer(6, "centrality witnesses", 2.0):
        for n in (2, 3, 5):
            field = CyclotomicField(n)
            tower = qplane(field, field.gen)
            hits = {(str(p), k) for p, k in centrality_witness(tower, n)}
            assert (str(tower.var(0) ** n), n) in hits
            assert (str(tower.var(1) ** n), n) in hits

        tower = weyl_gf5()
        x, y = tower.var(0), tower.var(1)
        assert y * x - x * y == tower.one()
        hits = {(str(p), k) for p, k in centrality_witness(tower, 5)}
        assert (str(y**5), 5) in hits
        ok, _ = is_central(y**5)
        assert ok


def test_criterion_7_graded_degeneration():
    with _Timer(7, "graded degeneration", 5.0):
        tower = three_level_graded()
        pres = associated_graded_tower(tower)
        out = pres.result
        assert out.validation.ok
        field = out.base.field
        a32, c32 = out.sigma_var(2, 1)
        assert a32 == field.coerce(5) and a32 != 5 and not c32
        a31, c31 = out.sigma_var(2, 0)
        assert a31 == field.coerce(2) and not c31
        assert all(out.levels[i].delta_is_zero() for i in range(out.height))

        rng = random.Random(2024)
        for name in sorted(ARITHMETIC_FIXTURES):
            fixture = ARITHMETIC_FIXTURES[name]()
            top = fixture.height - 1
            checked = 0
            attempts = 0
            while checked < 100 and attempts < 300:
                attempts += 1
                p = random_poly(fixture, rng, max_degree=2)
                q = random_poly(fixture, rng, max_degree=2)
                if p.is_zero() or q.is_zero():
                    continue
                dp, lead_p = degree_leading(p, top)
                dq, lead_q = degree_leading(q, top)
                lead_prod = lead_p * lead_q
                d_lead, top_of_lead = degree_leading(lead_prod, top)
                if lead_prod.is_zero() or d_lead < dp + dq:
                    continue
                dpq, lead_pq = degree_leading(p * q, top)
                assert dpq == dp + dq
                assert lead_pq == top_of_lead
                checked += 1
            assert checked == 100, f"not enough usable pairs for {name}"

        for name in sorted(ARITHMETIC_FIXTURES):
            fixture = ARITHMETIC_FIXTURES[name]()
            for i in range(fixture.height):
                for j in range(i):
                    sigma = functools.partial(apply_level_map, "sigma", i)
                    assert rees_closure_check(fixture, j, sigma) is None


def test_criterion_8_arithmetic_property_suite():
    with _Timer(8, "arithmetic properties", 30.0):
        rng = random.Random(777)
        for name in sorted(ARITHMETIC_FIXTURES):
            fixture = ARITHMETIC_FIXTURES[name]()
            for _ in range(200):
                p = random_poly(fixture, rng)
                q = random_poly(fixture, rng)
                r = random_poly(fixture, rng)
                assert (p * q) * r == p * (q * r)
                assert p * (q + r) == p * q + p * r
                assert (p + q) * r == p * r + q * r
            # twisted Leibniz and the q-skew identity on all generator pairs
            report = validate_tower(fixture)
            for check in report.checks:
                if check.name in ("delta twisted Leibniz", "q-skew identity"):
                    assert check.ok, check
