import pytest

from oretower.cli import parse_tower_file, parse_tower_text
from oretower.erase import erase_all
from oretower.pi import centrality_witness, pi_report
from oretower.scalars import QQ, CyclotomicField, FunctionField
from oretower.skewpoly import SkewPoly, is_central
from oretower.tower import BaseRing, OreTower, TowerLevel, validate_tower

from test_tower import FIXTURES, _validation_corpus

from conftest import count_calls, mat2_inner_tower, qplane, qweyl, weyl_gf5, zeta5_deriv_tower


def test_quantum_plane_verdicts():
    field = CyclotomicField(3)
    report = pi_report(qplane(field, field.gen))
    assert report.verdict == "PI"
    assert report.lambda_orders == {(1, 0): 3}

    report2 = pi_report(qplane(QQ, 2))
    assert report2.verdict == "NotPI"
    assert report2.lambda_orders == {(1, 0): None}


def test_quantum_weyl_verdicts():
    field5 = CyclotomicField(5)
    assert pi_report(qweyl(field5, field5.gen)).verdict == "PI"
    field_t = FunctionField(QQ, "t")
    assert pi_report(qweyl(field_t, field_t.gen)).verdict == "NotPI"


def test_base_orders_recorded():
    tower = zeta5_deriv_tower()
    report = pi_report(tower)
    assert report.base_orders == {0: 4}
    assert report.verdict == "PI"  # height 1: no lambda conditions remain


def test_undecided_when_delta_unquantised():
    report = pi_report(weyl_gf5())
    assert report.verdict == "Undecided"
    assert "no q" in report.reason


def test_undecided_when_sigma_not_diagonal():
    field = QQ
    tower = OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel("x1"),
            TowerLevel("x2", sigma_vars={0: (QQ.coerce(2), {(0, 0): QQ.one})}),
        ],
    )
    report = pi_report(tower)
    assert report.verdict == "Undecided"
    assert "scalar multiple" in report.reason


def test_undecided_when_base_order_unbounded():
    tower = mat2_inner_tower()  # conjugation by diag(1, q) has infinite order
    report = pi_report(tower, order_bound=8)
    assert report.verdict == "Undecided"
    assert "order" in report.reason


def test_verdict_matches_erasure():
    fixtures = [
        qplane(CyclotomicField(3), CyclotomicField(3).gen),
        qplane(QQ, 2),
        qweyl(CyclotomicField(5), CyclotomicField(5).gen),
        qweyl(FunctionField(QQ, "t"), FunctionField(QQ, "t").gen),
    ]
    for tower in fixtures:
        before = pi_report(tower).verdict
        after = pi_report(erase_all(tower).new_tower).verdict
        assert before == after


@pytest.mark.parametrize("order", [2, 3, 5])
def test_central_powers_in_quantum_planes(order):
    field = CyclotomicField(order)
    tower = qplane(field, field.gen)
    hits = centrality_witness(tower, order)
    expected = {(str(tower.var(0) ** order), order), (str(tower.var(1) ** order), order)}
    assert {(str(p), n) for p, n in hits} >= expected
    for p, _n in hits:
        assert is_central(p)[0]


def test_no_central_powers_for_lambda_two():
    tower = qplane(QQ, 2)
    assert centrality_witness(tower, 4) == []


def test_weyl_gf5_fifth_powers_central():
    tower = weyl_gf5()
    x, y = tower.var(0), tower.var(1)
    assert y * x - x * y == tower.one()
    hits = centrality_witness(tower, 5)
    assert (str(y**5), 5) in {(str(p), n) for p, n in hits}
    assert (str(x**5), 5) in {(str(p), n) for p, n in hits}
    # smaller powers of y are not central
    assert not any(n < 5 and str(p).startswith("y") for p, n in hits)


def test_report_carries_quotient_note():
    report = pi_report(qplane(QQ, 2))
    assert any("certificate" in note for note in report.notes)


def test_invalid_tower_is_undecided():
    field = FunctionField(QQ, "q")
    q = field.gen
    broken = OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel("x1"),
            TowerLevel(
                "x2",
                sigma_vars={0: (q, {})},
                delta_vars={0: {(1, 0): field.one}},
                q=q,
            ),
        ],
    )
    validate_tower(broken)
    report = pi_report(broken)
    assert report.verdict == "Undecided"
    assert "invalid" in report.reason


def _reference_witness(tower, n_bound):
    """The central powers by direct products: x_i^N = x_i^{N-1} * x_i,
    tested by ``is_central``."""
    hits = []
    for i in range(tower.height):
        x = SkewPoly.variable(tower, i)
        power = SkewPoly.one(tower)
        for n in range(1, n_bound + 1):
            power = power * x
            if is_central(power)[0]:
                hits.append((power, n))
    return hits


# invalid Mat_2(gf(2)) towers whose sigma does not fix 1, so that x^N
# carries a coefficient other than one, and their central powers' exponents;
# linear(...) acts on e11, e12, e21, e22 in that order
_NON_UNITAL = {
    # x^2 = sigma(1) x^2, and the powers from x^3 on are zero
    "sigma_base = linear([[0, 0, 0, 1], [1, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1]])\n": [3, 4, 5, 6],
    # the coefficients are not scalars, so that b c and c b differ for a
    # matrix unit b
    "sigma_base = linear([[0, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 1], [0, 0, 0, 1]])\n": [],
}
_GF2_MAT2 = "[base]\nkind = matrix\nfield = gf(2)\nsize = 2\n\n[[level]]\nvar = x\n"


def _hits(tower, n_bound, witness):
    return [(p.terms, str(p), n) for p, n in witness(tower, n_bound)]


def test_witness_matches_direct_products():
    """centrality_witness finds the powers that direct products find, in
    the same order and printed alike: at bound 6 on every tower of the
    validation corpus and on the towers above, whose powers have
    coefficients other than one, and at the cap on every fixture.  Towers
    are parsed apart, so that neither reads the other's engine table."""
    non_unital = [_GF2_MAT2 + sigma for sigma in _NON_UNITAL]
    cases = [(text, 6) for text in _validation_corpus() + non_unital]
    cases += [(path.read_text(encoding="utf-8"), 64) for path in sorted(FIXTURES.glob("*.tw"))]
    found = 0
    for text, n_bound in cases:
        hits = _hits(parse_tower_text(text), n_bound, centrality_witness)
        assert hits == _hits(parse_tower_text(text), n_bound, _reference_witness), text
        found += bool(hits)
    assert 0 < found < len(cases)
    for text, exponents in zip(non_unital, _NON_UNITAL.values()):
        assert [n for _p, n in centrality_witness(parse_tower_text(text), 6)] == exponents


def test_witness_takes_no_polynomial_product(monkeypatch):
    """centrality_witness steps the engine and never multiplies two
    polynomials: a spy on SkewPoly.__mul__ sees no call on any fixture."""
    towers = [parse_tower_file(str(path)) for path in sorted(FIXTURES.glob("*.tw"))]
    products = count_calls(monkeypatch, SkewPoly, "__mul__")
    hits = [centrality_witness(tower, 64) for tower in towers]
    monkeypatch.undo()
    assert products == []
    assert any(hits)
