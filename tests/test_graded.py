import functools
import json
import random
from pathlib import Path

import pytest

from oretower.cli import parse_tower_file, parse_tower_text, render_tower_file, run
from oretower.erase import _exponents, erase_all
from oretower.errors import HypothesisViolation, OreError
from oretower.graded import associated_graded_tower, rees_closure_check
from oretower.pi import pi_report
from oretower.scalars import GF, QQ, CyclotomicField
from oretower.skewpoly import SkewPoly, apply_level_map, degree_leading
from oretower.tower import BaseRing, OreTower, TowerLevel, validate_tower

from conftest import (
    ARITHMETIC_FIXTURES,
    qplane,
    random_poly,
    three_level_graded,
    weyl_gf5,
)
from test_tower import _numeric_mutants

FIXTURES = Path(__file__).parent / "fixtures"


def test_three_level_degeneration():
    tower = three_level_graded()
    assert validate_tower(tower).ok
    pres = associated_graded_tower(tower)
    out = pres.result

    field = out.base.field
    a32, c32 = out.sigma_var(2, 1)
    assert a32 == field.coerce(5) and not c32
    a31, c31 = out.sigma_var(2, 0)
    assert a31 == field.coerce(2) and a31 != 2 and not c31
    for i in range(out.height):
        assert out.levels[i].delta_is_zero()
    assert out.validation.ok

    # a data preserved entrywise
    for i in range(tower.height):
        for j in range(i):
            assert out.sigma_var(i, j)[0] == tower.sigma_var(i, j)[0]

    # the degeneration log walks from the top level down
    assert [s.level for s in pres.step_log] == [2, 1, 0]
    assert pres.step_log[1].dropped_c == [(2, 1)]


def test_weyl_gf5_degenerates_to_commutative():
    tower = weyl_gf5()
    pres = associated_graded_tower(tower)
    out = pres.result
    assert out.sigma_var(1, 0)[0] == GF(5).one
    assert out.levels[1].delta_is_zero()
    y1, y2 = out.var(0), out.var(1)
    assert y2 * y1 == y1 * y2


def test_zero_a_is_rejected():
    tower = OreTower(
        BaseRing.field_ring(QQ),
        [TowerLevel("x1"), TowerLevel("x2", sigma_vars={0: (QQ.zero, {})})],
    )
    with pytest.raises(HypothesisViolation):
        associated_graded_tower(tower)


@pytest.mark.parametrize("name", sorted(ARITHMETIC_FIXTURES))
def test_leading_form_multiplicativity(name):
    # top-variable leading forms multiply to the leading form of the product
    # whenever that product is nonzero
    tower = ARITHMETIC_FIXTURES[name]()
    rng = random.Random(31)
    top = tower.height - 1
    checked = 0
    for _ in range(40):
        p = random_poly(tower, rng)
        q = random_poly(tower, rng)
        if p.is_zero() or q.is_zero():
            continue
        dp, lead_p = degree_leading(p, top)
        dq, lead_q = degree_leading(q, top)
        lead_prod = lead_p * lead_q
        d_lead, top_of_lead = degree_leading(lead_prod, top)
        if lead_prod.is_zero() or d_lead < dp + dq:
            continue  # leading coefficients annihilated (matrix bases)
        dpq, lead_pq = degree_leading(p * q, top)
        assert dpq == dp + dq
        assert lead_pq == top_of_lead
        checked += 1
    assert checked > 10


def _sigma(i):
    return functools.partial(apply_level_map, "sigma", i)


def _sweep_witness(tower, level, the_map, degree_bound=4):
    """Reference check: the first monomial in the lowest level + 1
    variables of total degree at most ``degree_bound``, in lexicographic
    exponent order, whose image has larger degree in variable ``level``
    than itself; None when there is none."""
    totals = range(degree_bound + 1)
    for exp in sorted(e for t in totals for e in _exponents(level + 1, t, tower.height)):
        mono = SkewPoly(tower, {exp: tower.base.one})
        if degree_leading(the_map(mono), level)[0] > exp[level]:
            return mono
    return None


def test_rees_closure_diagonal_sigma():
    tower = three_level_graded()
    assert rees_closure_check(tower, 0, _sigma(2)) is None
    assert rees_closure_check(tower, 1, _sigma(2)) is None


def test_rees_closure_with_c_term():
    # sigma3(x2) = 5 x2 + x1 does not raise the x2 degree
    tower = three_level_graded()
    assert rees_closure_check(tower, 1, _sigma(2)) is None


def test_rees_closure_detects_degree_raise():
    tower = three_level_graded()
    square = lambda p: p * p
    assert rees_closure_check(tower, 0, square) == tower.var(0)
    assert _sweep_witness(tower, 0, square, 2) == tower.var(0)


def test_rees_closure_agrees_with_the_sweep():
    """The generator check and the degree-4 monomial sweep give the same
    verdict on every (sigma_i, filtration l) pair of the fixtures and of
    400 seeded numeric mutants."""
    towers = [parse_tower_file(path) for path in sorted(FIXTURES.glob("*.tw"))]
    towers += [parse_tower_text(text) for text in _numeric_mutants(400, seed=11)]
    pairs = 0
    for tower in towers:
        for i in range(tower.height):
            for level in range(i):
                exact = rees_closure_check(tower, level, _sigma(i))
                sweep = _sweep_witness(tower, level, _sigma(i))
                assert (exact is None) == (sweep is None), (tower, i, level)
                pairs += 1
    assert pairs > 500


def test_gr_closure_entries_match_the_check(capsys, tmp_path):
    """``gr`` takes its ``closure_checks`` from the proof in the ``graded``
    docstring; wherever it exits 0 on a fixture or a numeric mutant, they
    equal what ``rees_closure_check`` computes, pair by pair."""
    paths = sorted(FIXTURES.glob("*.tw"))
    for k, text in enumerate(_numeric_mutants(400, seed=11)):
        paths.append(tmp_path / f"mutant{k}.tw")
        paths[-1].write_text(text, encoding="utf-8")
    answered = 0
    for path in paths:
        code = run(["gr", "--tower", str(path), "--json"])
        report = json.loads(capsys.readouterr().out)
        if code:
            continue
        tower = parse_tower_file(path)
        expected = []
        for i in range(tower.height):
            for level in range(i):
                witness = rees_closure_check(tower, level, _sigma(i))
                expected.append({
                    "sigma": i + 1,
                    "filtration": level + 1,
                    "ok": witness is None,
                    "witness": None if witness is None else str(witness),
                })
        assert report["closure_checks"] == expected, path
        answered += 1
    assert answered > 350


def test_pi_transfer_source_to_result():
    # wherever both source and degenerated tower get a verdict, a PI source
    # forces a PI result (the converse direction is false in general)
    fixtures = [
        qplane(CyclotomicField(3), CyclotomicField(3).gen),
        qplane(QQ, 2),
        three_level_graded(),
        weyl_gf5(),
    ]
    for tower in fixtures:
        source = pi_report(tower)
        result = pi_report(associated_graded_tower(tower).result)
        if source.verdict == "PI":
            assert result.verdict == "PI"


def test_weyl_char_zero_one_way_only():
    # the degenerated Weyl tower is commutative (PI) while the source gets
    # no PI verdict: the transfer is one-directional
    field = QQ
    tower = OreTower(
        BaseRing.field_ring(field),
        [TowerLevel("x"), TowerLevel("y", delta_vars={0: {(0, 0): field.one}})],
    )
    source = pi_report(tower)
    assert source.verdict == "Undecided"
    result = pi_report(associated_graded_tower(tower).result)
    assert result.verdict == "PI"


def test_graded_keeps_sigma_base():
    tower = three_level_graded()
    pres = associated_graded_tower(tower)
    gen_poly = tower.from_base(QQ.coerce(7))
    for i in range(tower.height):
        assert pres.result.apply_sigma0(i, QQ.coerce(7)) == tower.apply_sigma0(
            i, QQ.coerce(7)
        )


def _without_q_lines(text):
    return [line for line in text.splitlines() if not line.startswith("q = ")]


def test_gr_and_erase_all_give_one_sigma_only_tower():
    """``OreTower.sigma_only`` builds its levels in normal form, and on every
    fixture and numeric mutant where both succeed, ``gr`` and ``erase-all``
    render the same tower but for erase-all's q lines."""
    corpus = [(path.stem, parse_tower_file(path)) for path in sorted(FIXTURES.glob("*.tw"))]
    corpus += [(None, parse_tower_text(text)) for text in _numeric_mutants(400, seed=11)]
    agreed, fixtures_agreed = 0, []
    for name, tower in corpus:
        only = tower.sigma_only()
        assert only == OreTower(tower.base, only.levels), name
        try:
            graded = associated_graded_tower(tower).result
            erased = erase_all(tower).new_tower
        except OreError:
            continue
        assert _without_q_lines(render_tower_file(graded)) == _without_q_lines(
            render_tower_file(erased)
        ), name
        agreed += 1
        if name is not None:
            fixtures_agreed.append(name)
    assert fixtures_agreed == [
        "mat2_inner",
        "qplane_lambda2",
        "qplane_zeta3",
        "qweyl_q",
        "qweyl_zeta3",
    ]
    assert agreed > 200

    tower = parse_tower_file(FIXTURES / "three_level.tw")
    field = tower.base.field
    assert tower.sigma_var_raw(2, 1)[1]
    assert tower.sigma_only().sigma_var_raw(2, 1) == (field.coerce(5), {})
