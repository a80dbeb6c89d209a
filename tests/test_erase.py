import random
from pathlib import Path

import pytest

from oretower import erase
from oretower.cli import parse_tower_file, parse_tower_text
from oretower.errors import (
    HypothesisViolation,
    NotDiagonal,
    OreError,
    QEqualsOne,
    UnsupportedErasure,
)
from oretower.erase import erase_all, erase_top, swap_adjacent
from oretower.scalars import GF, QQ, CyclotomicField, FunctionField, Matrix, Scalar
from oretower.skewpoly import SkewPoly, apply_level_map, degree_leading, is_central
from oretower.tower import (
    BaseMap,
    BaseRing,
    OreTower,
    TowerLevel,
    validate_tower,
)

from conftest import (
    mat2_inner_tower,
    qplane,
    qweyl,
    random_scalar,
    solve_linear_system,
    weyl_sigma_top_tower,
    zeta5_deriv_tower,
)
from test_tower import _numeric_mutants, _unit_by_unit

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# erase_top, center-moving branch


def test_erase_top_quantum_weyl():
    field = FunctionField(QQ, "q")
    q = field.gen
    tower = qweyl(field, q)
    y, new_tower, wit = erase_top(tower)

    assert wit.branch == "center_moving"
    assert wit.c == tower.var(0)
    assert wit.u == tower.poly({(1, 0): q - 1})
    assert y == tower.poly({(1, 1): q - 1, (0, 0): field.one})

    x1 = tower.var(0)
    assert y * x1 == tower.from_base(q) * x1 * y

    assert new_tower.levels[1].delta_is_zero()
    assert validate_tower(new_tower).ok


def test_center_moving_witness_recheck():
    field = FunctionField(QQ, "q")
    tower = qweyl(field, field.gen)
    y, _nt, wit = erase_top(tower)
    top = tower.height - 1
    assert wit.u == apply_level_map("sigma", top, wit.c) - wit.c
    assert is_central(wit.c, top_level=top)[0]
    assert is_central(wit.u, top_level=top)[0]
    assert y == wit.u * SkewPoly.variable(tower, top) + apply_level_map("delta", top, wit.c)


# x1 central in Mat_2(Q)[x1], so u = sigma(x1) - x1 = x1 lies outside the base
_MAT2_CENTER_MOVING = """\
[base]
kind = matrix
field = Q
size = 2

[[level]]
var = x1

[[level]]
var = x2
sigma x1 = 2 * x1
delta x1 = 1
q = 2
"""


def test_erase_top_power_leading_coefficients(monkeypatch):
    """Oracle for the proof in the ``erase`` docstring: on every
    center-moving step of ``erase_all`` over the fixtures, 400 seeded
    numeric mutants, a Mat_2(Q) tower and a tower whose u is in the base
    (``zeta5_deriv_tower``), y^k for k <= 8 has degree k in the top
    variable and leading form E_k x^k with E_k = u sigma(u) ...
    sigma^{k-1}(u) nonzero (E_k = 1 when u is in the base and y is
    monic)."""
    steps = []

    def spy(working, *args):
        found = erase_top(working, *args)
        if found[2].branch == "center_moving":
            steps.append((working, found[0], found[2].u))
        return found

    monkeypatch.setattr(erase, "erase_top", spy)
    towers = [parse_tower_file(path) for path in sorted(FIXTURES.glob("*.tw"))]
    towers += [parse_tower_text(text) for text in _numeric_mutants(400, seed=11)]
    towers += [parse_tower_text(_MAT2_CENTER_MOVING), zeta5_deriv_tower()]
    for tower in towers:
        try:
            erase_all(tower)
        except OreError:
            pass
    non_base = [step for step in steps if not step[2].is_base_element()]
    assert len(non_base) > 80
    assert any(working.base.kind == "matrix" for working, _y, _u in non_base)
    assert len(non_base) < len(steps)
    for working, y, u in steps:
        top = working.height - 1
        e_k = working.one()
        factor = working.one() if u.is_base_element() else u
        power = working.one()
        for k in range(1, 9):
            e_k = e_k * factor
            factor = apply_level_map("sigma", top, factor)
            power = power * y
            deg, lead = degree_leading(power, top)
            assert not e_k.is_zero(), (working, k)
            assert deg == k and lead == e_k * working.var(top) ** k, (working, k)


def test_erase_top_trivial_delta_is_fixed_point():
    tower = qplane(QQ, 2)
    y, t1, wit = erase_top(tower)
    assert wit.branch == "trivial_delta"
    assert y == tower.var(1)
    assert t1 is tower
    y2, t2, wit2 = erase_top(t1)
    assert wit2.branch == "trivial_delta" and t2 is t1 and y2 == y


def test_erase_top_q_equals_one():
    tower = qweyl(QQ, 1)  # the classical Weyl algebra, q = 1
    assert validate_tower(tower).ok
    with pytest.raises(QEqualsOne):
        erase_top(tower)


def test_erase_top_missing_q():
    field = QQ
    tower = OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel("x1"),
            TowerLevel("x2", delta_vars={0: {(0, 0): field.one}}),
        ],
    )
    with pytest.raises(UnsupportedErasure):
        erase_top(tower)


def test_erase_top_zeta5_field_derivation():
    tower = zeta5_deriv_tower()
    assert validate_tower(tower).ok
    field = tower.base.field
    z = field.gen
    w = z - z**2 - z**3 + z**4
    y, new_tower, wit = erase_top(tower)

    assert wit.branch == "center_moving"
    assert wit.c == tower.from_base(z)
    assert wit.u == tower.from_base(z**2 - z)
    assert wit.b == -w
    assert y == tower.var(0) + tower.from_base(w)
    # y z = z^2 y
    assert y * tower.from_base(z) == tower.from_base(z**2) * y
    assert validate_tower(new_tower).ok


# ---------------------------------------------------------------------------
# erase_top, inner branch


def test_erase_top_matrix_inner():
    tower = mat2_inner_tower()
    assert validate_tower(tower).ok
    field = tower.base.field
    q = field.gen
    y, new_tower, wit = erase_top(tower)

    assert wit.branch == "inner"
    e12 = Matrix.unit(field, 2, 0, 1)
    assert wit.b == e12
    assert y == tower.var(0) - SkewPoly.from_base(tower, e12)

    # relation on all four matrix units
    for unit in tower.base.basis():
        lhs = y * SkewPoly.from_base(tower, unit)
        rhs = SkewPoly.from_base(tower, tower.apply_sigma0(0, unit)) * y
        assert lhs == rhs

    # a is proportional to diag(1, q)
    scale = wit.a.rows[0][0]
    assert not scale.is_zero()
    assert wit.a == Matrix(field, [[1, 0], [0, q]]) * scale
    # v equals a^{-1} e12 up to a central summand
    diff = wit.v - wit.a.inverse() * e12
    assert diff.scalar_part() is not None

    # witness recheck: sigma(r) = a r a^{-1}, a^{-1} delta(r) = v r - r v
    a_inv = wit.a.inverse()
    for unit in tower.base.basis():
        assert tower.apply_sigma0(0, unit) == wit.a * unit * a_inv
        assert a_inv * tower.apply_delta0(0, unit) == wit.v * unit - unit * wit.v

    assert new_tower.levels[0].delta_is_zero()
    assert validate_tower(new_tower).ok


def test_inner_branch_not_available_above_height_one():
    field = FunctionField(QQ, "q")
    q = field.gen
    sigma = BaseMap.conjugation(Matrix(field, [[1, 0], [0, q]]))
    delta = BaseMap.inner_derivation(Matrix.unit(field, 2, 0, 1), sigma)
    tower = OreTower(
        BaseRing.matrix_ring(field, 2),
        [
            TowerLevel("x0"),
            TowerLevel(
                "x",
                sigma_base=sigma,
                delta_base=delta,
                sigma_vars={0: (tower_one := Matrix.identity(field, 2), {})},
                q=q,
            ),
        ],
    )
    del tower_one
    with pytest.raises(UnsupportedErasure):
        erase_top(tower, search_degree_bound=2)


# The inner branch solved for a and v as two kernel problems; these
# solves are kept here as the reference that the read of a and v in
# erase._inner_branch must reproduce, witness and error alike.


def _commutator_action(left: Matrix, right: Matrix) -> Matrix:
    """The matrix of the F-linear map X -> left X - X right on m x m
    matrices, in the layout of ``Matrix.act_on``."""
    one = Matrix.identity(left.field, left.nrows)
    return Matrix.two_sided_action(left, one) - Matrix.two_sided_action(one, right)


def _stacked(field, blocks) -> Matrix:
    """The rows of ``blocks`` in order, one linear system."""
    return Matrix(field, [row for block in blocks for row in block.rows])


def _inner_branch_by_solves(tower: OreTower):
    """y and the witness of the inner branch with a and v solved for:
    sigma(r) a = a r as a homogeneous system in a, and a^{-1} delta(r) =
    v r - r v as an inhomogeneous one in v."""
    base, field, units = tower.base, tower.base.field, tower.base.basis()
    if not tower.apply_delta0(0, base.one).is_zero():
        raise HypothesisViolation(
            "delta does not vanish on the center; the q-skew hypothesis fails"
        )
    system = _stacked(field, [_commutator_action(tower.apply_sigma0(0, e), e) for e in units])
    a_vec = solve_linear_system(system, [field.zero] * system.nrows)
    a = a_inv = None
    if a_vec:
        a = Matrix.unvec(field, a_vec)
        if a.is_invertible():
            a_inv = a.inverse()
    if a_inv is None:
        raise UnsupportedErasure(
            "no invertible conjugator a with sigma(r) a = a r exists; "
            "sigma is not an inner automorphism of the matrix base"
        )
    for e in units:
        if tower.apply_sigma0(0, e) != a * e * a_inv:
            raise UnsupportedErasure("conjugator solution does not reproduce sigma")
    system = _stacked(field, [_commutator_action(-e, -e) for e in units])
    rhs = [c for e in units for c in (a_inv * tower.apply_delta0(0, e)).vec()]
    v_vec = solve_linear_system(system, rhs)
    if v_vec is None:
        raise UnsupportedErasure(
            "a^{-1} delta is not an inner derivation of the matrix base"
        )
    v = Matrix.unvec(field, v_vec)
    b = a * v
    y = SkewPoly.variable(tower, 0) - b
    erase._assert_sigma_relation(tower, 0, y)
    return y, erase.ErasureWitness("inner", a=a, v=v, b=b)


def _inner_outcome(branch, tower):
    """("witness", y, a, v, b) as printed, or the error's type and text."""
    try:
        y, wit = branch(tower)
    except OreError as exc:
        return type(exc).__name__, str(exc)
    return "witness", str(y), str(wit.a), str(wit.v), str(wit.b)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("field_name", ["QQ", "gf5", "Qq"])
def test_commutator_action_matches_unit_images(field_name, m):
    field = {"QQ": QQ, "gf5": GF(5), "Qq": FunctionField(QQ, "q")}[field_name]
    gen = field.gen if field.gen is not None else field.one
    rng = random.Random(f"{field_name}-{m}")

    def random_matrix():
        return Matrix(
            field,
            [
                [field.coerce(rng.randint(-3, 3)) + gen * rng.randint(-2, 2) for _ in range(m)]
                for _ in range(m)
            ],
        )

    a = random_matrix()
    while not a.is_invertible():
        a = random_matrix()
    a_inv = a.inverse()
    b = random_matrix()
    for left, right in ((a, b), (b, a_inv), (a * b * a_inv, b)):
        expected = _unit_by_unit(field, m, lambda x: left * x - x * right)
        assert _commutator_action(left, right) == expected


def _crafted_inner_towers(count: int, seed: int):
    """Seeded height-1 towers over Mat_2 and Mat_3 of Q, gf(7),
    cyclotomic(3) and Q(q): sigma is conj(a) or an invertible linear map,
    and delta is inner(b) against sigma or a linear map that kills 1."""
    rng = random.Random(seed)
    fields = [QQ, GF(7), CyclotomicField(3), FunctionField(QQ, "q")]

    def entry(field):
        value = field.coerce(rng.randint(-2, 2))
        if field.gen is not None and rng.random() < 0.3:
            value = value + field.gen * rng.randint(-1, 1)
        return value

    def invertible(field, n):
        while True:
            m = Matrix(field, [[entry(field) for _ in range(n)] for _ in range(n)])
            if m.is_invertible():
                return m

    for _ in range(count):
        field, m = rng.choice(fields), rng.choice([2, 3])
        if rng.random() < 0.7:
            sigma = BaseMap.conjugation(invertible(field, m))
        else:
            sigma = BaseMap.linear("sigma", invertible(field, m * m))
        if rng.random() < 0.6:
            delta = BaseMap.inner_derivation(
                Matrix(field, [[entry(field) for _ in range(m)] for _ in range(m)]), sigma
            )
        else:
            # column 0 of the action is the image of E_00; it is set so
            # that the image of 1 = E_00 + ... + E_{m-1,m-1} is 0
            rows = [[entry(field) for _ in range(m * m)] for _ in range(m * m)]
            diagonal = range(m + 1, m * m, m + 1)
            for row in rows:
                row[0] = -sum((row[k] for k in diagonal), field.zero)
            delta = BaseMap.linear("delta", Matrix(field, rows))
        if delta.is_trivial():
            continue
        level = TowerLevel("x", sigma_base=sigma, delta_base=delta, q=field.coerce(2))
        yield OreTower(BaseRing.matrix_ring(field, m), [level])


def test_inner_branch_matches_the_kernel_solves():
    """The read of a and v gives the same y, a, v and b as the two kernel
    solves, or the same error, on every height-1 matrix tower among the
    fixtures and their mutants, on a zero sigma and on a seeded corpus
    reaching a witness, a sigma with no conjugator and a delta that is no
    inner derivation."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tw"))]
    towers = [parse_tower_text(text) for text in texts + list(_numeric_mutants(400, seed=11))]
    towers = [t for t in towers if t.base.kind == "matrix" and t.height == 1]
    assert towers
    # a zero sigma, which no read can turn into a conjugator
    zero_sigma = BaseMap.linear("sigma", Matrix.zero(QQ, 4, 4))
    delta = BaseMap.inner_derivation(Matrix.unit(QQ, 2, 0, 1), BaseMap.identity())
    level = TowerLevel("x", sigma_base=zero_sigma, delta_base=delta, q=QQ.coerce(2))
    towers.append(OreTower(BaseRing.matrix_ring(QQ, 2), [level]))
    outcomes = set()
    for tower in towers + list(_crafted_inner_towers(300, seed=29)):
        expected = _inner_outcome(_inner_branch_by_solves, tower)
        got = _inner_outcome(lambda t: erase._inner_branch(t)[::2], tower)
        assert got == expected, tower
        outcomes.add(expected[1][:28] if expected[0] != "witness" else "witness")
    assert outcomes >= {
        "witness",
        "no invertible conjugator a w",
        "a^{-1} delta is not an inner",
    }


# ---------------------------------------------------------------------------
# the reference solver, conftest.solve_linear_system


def test_solve_identity():
    ident = Matrix.identity(QQ, 3)
    b = [QQ.coerce(4), QQ.coerce(-1), QQ.coerce(0)]
    assert solve_linear_system(ident, b) == b


def test_solve_inconsistent():
    a = Matrix(QQ, [[1, 1], [2, 2]])
    assert solve_linear_system(a, [1, 3]) is None


def test_solve_hand_elimination():
    a = Matrix(QQ, [[1, 1], [0, 1]])
    assert solve_linear_system(a, [3, 1]) == [QQ.coerce(2), QQ.coerce(1)]


def test_solve_homogeneous_returns_nonzero():
    a = Matrix(QQ, [[1, 1], [2, 2]])
    x = solve_linear_system(a, [0, 0])
    assert x is not None and any(not v.is_zero() for v in x)
    # and it really solves the system
    for row in a.rows:
        acc = QQ.zero
        for coeff, val in zip(row, x):
            acc = acc + coeff * val
        assert acc.is_zero()


def test_solve_free_variables_default_to_zero():
    # one pivot, one free column: particular solution keeps the free var at 0
    a = Matrix(QQ, [[1, 1]])
    assert solve_linear_system(a, [5]) == [QQ.coerce(5), QQ.zero]


def test_solve_exactness_on_random_systems():
    rng = random.Random(13)
    for _ in range(25):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        a = Matrix(QQ, [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)])
        b = [QQ.coerce(rng.randint(-4, 4)) for _ in range(nrows)]
        x = solve_linear_system(a, b)
        if x is None:
            continue
        for row, rhs in zip(a.rows, b):
            acc = QQ.zero
            for coeff, val in zip(row, x):
                acc = acc + coeff * val
            assert acc == rhs


def _apply(field, rows, x) -> list:
    """The entrywise Scalar image of the vector x under the rows ``rows``."""
    return [sum((c * v for c, v in zip(row, x)), field.zero) for row in rows]


@pytest.mark.parametrize(
    "field", [QQ, GF(5), CyclotomicField(3), FunctionField(QQ, "t")], ids=lambda f: f.name
)
def test_solve_kernels_and_consistent_systems(field):
    """A square matrix with two equal rows gets a nonzero kernel vector, and
    b = A x0 is solved, for A with and without the repeated row."""
    rng = random.Random(29)

    def entry():
        if rng.random() < 0.25:
            return field.zero
        d = random_scalar(field, rng)
        return random_scalar(field, rng) / (d if not d.is_zero() else field.one)

    for _ in range(40):
        m = rng.randint(1, 3)
        rows = [[entry() for _ in range(m)] for _ in range(m)]
        repeated = [rows[0], *rows[:-1]]
        if m > 1:
            kernel = solve_linear_system(Matrix(field, repeated), [0] * m)
            assert any(not v.is_zero() for v in kernel)
            assert _apply(field, repeated, kernel) == [field.zero] * m
        x0 = [entry() for _ in range(m)]
        for system in (rows, repeated):
            rhs = _apply(field, system, x0)
            x = solve_linear_system(Matrix(field, system), rhs)
            assert all(type(v) is Scalar and v.field is field for v in x)
            assert _apply(field, system, x) == rhs


# ---------------------------------------------------------------------------
# swaps


@pytest.mark.parametrize("lam_field", ["rational", "cyclotomic"])
def test_swap_quantum_plane(lam_field):
    if lam_field == "rational":
        field, lam = QQ, QQ.coerce(2)
    else:
        field = CyclotomicField(3)
        lam = field.gen
    tower = qplane(field, lam)
    swapped = swap_adjacent(tower, 1)

    assert swapped.level_names() == ["x2", "x1"]
    a, c = swapped.sigma_var(1, 0)
    assert a == lam.inverse() and not c
    assert validate_tower(swapped).ok

    # x2 x1 = lam x1 x2 holds in both presentations (variables by name)
    for t in (tower, swapped):
        x1, x2 = t.var("x1"), t.var("x2")
        assert x2 * x1 == t.from_base(lam) * (x1 * x2)


def test_swap_not_diagonal():
    tower = OreTower(
        BaseRing.field_ring(QQ),
        [
            TowerLevel("x1"),
            TowerLevel("x2", sigma_vars={0: (QQ.coerce(2), {(0, 0): QQ.one})}),
        ],
    )
    with pytest.raises(NotDiagonal):
        swap_adjacent(tower, 1)


def test_swap_requires_sigma_only_level():
    field = FunctionField(QQ, "q")
    tower = qweyl(field, field.gen)
    with pytest.raises(NotDiagonal):
        swap_adjacent(tower, 1)


def test_swap_weyl_with_sigma_top():
    tower = weyl_sigma_top_tower()
    assert validate_tower(tower).ok
    swapped = swap_adjacent(tower, 2)
    assert swapped.level_names() == ["x1", "x3", "x2"]
    assert validate_tower(swapped).ok

    # the Weyl level moved up keeps its delta on x1 and kills x3
    lvl = swapped.levels[2]
    assert swapped.delta_var(2, 0) == swapped.one()
    assert not swapped.delta_var(2, 1)
    a, c = swapped.sigma_var(2, 1)
    assert a == tower.base.field.gen.inverse() and not c
    assert lvl.q is not None  # delta(lambda) = delta(q) = 0, so q survives

    # relations re-verified by multiplication: x2 x1 = q x1 x2 + 1 still holds
    q = tower.base.field.gen
    x1, x2 = swapped.var("x1"), swapped.var("x2")
    assert x2 * x1 == swapped.from_base(q) * x1 * x2 + swapped.one()


def test_swap_compatibility_failure_raises():
    field = QQ
    base = BaseRing.matrix_ring(field, 2)
    diag = BaseMap.conjugation(Matrix(field, [[1, 0], [0, 2]]))
    perm = BaseMap.conjugation(Matrix(field, [[0, 1], [1, 0]]))
    tower = OreTower(
        base,
        [
            TowerLevel("x1", sigma_base=perm),
            TowerLevel("x2", sigma_base=diag, sigma_vars={0: (base.one, {})}),
        ],
    )
    from oretower.errors import CompatibilityFailed

    with pytest.raises(CompatibilityFailed):
        swap_adjacent(tower, 1)


# ---------------------------------------------------------------------------
# erase_all


def test_erase_all_two_level_weyl_zeta3():
    field = CyclotomicField(3)
    z = field.gen
    tower = qweyl(field, z)
    result = erase_all(tower)

    assert result.y_elements[0] == tower.var(0)
    assert result.y_elements[1] == tower.poly({(1, 1): z - 1, (0, 0): field.one})
    assert result.new_tower.level_names() == ["y1", "y2"]
    a, c = result.new_tower.sigma_var(1, 0)
    assert a == z and not c
    assert result.new_tower.validation.ok
    assert result.warnings == []

    # relations inside the original tower
    y1, y2 = result.y_elements
    assert y2 * y1 == tower.from_base(z) * y1 * y2
    for g in tower.base.generators():
        gp = tower.from_base(g)
        assert y2 * gp == tower.from_base(tower.apply_sigma0(1, g)) * y2

    # the new maps restrict to the original ones on the base
    for i in range(tower.height):
        assert result.new_tower.levels[i].sigma_base == tower.levels[i].sigma_base


def test_erase_all_trivial_tower_is_unchanged():
    field = CyclotomicField(3)
    tower = qplane(field, field.gen)
    result = erase_all(tower)
    assert result.y_elements == [tower.var(0), tower.var(1)]
    for wit in result.witnesses:
        assert wit.branch == "trivial_delta"
    # identical presentation data up to the y renaming
    out = result.new_tower
    assert out.sigma_var(1, 0) == (field.gen, out.zero())
    assert out.level_names() == ["y1", "y2"]


def test_erase_all_transcendental_q_warns():
    field = FunctionField(QQ, "t")
    tower = qweyl(field, field.gen)
    result = erase_all(tower)
    assert result.y_elements[1] == tower.poly(
        {(1, 1): field.gen - 1, (0, 0): field.one}
    )
    assert any("finite-order" in w for w in result.warnings)


def test_erase_all_three_level_delta_on_top():
    # commutative plane below a quantised top level: the center search has
    # room to move, and the full pass goes through
    field = CyclotomicField(3)
    z = field.gen
    tower = OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel("x1"),
            TowerLevel("x2"),
            TowerLevel(
                "x3",
                sigma_vars={1: (z, {}), 0: (field.one, {})},
                delta_vars={1: {(0, 0, 0): field.one}},
                q=z,
            ),
        ],
    )
    assert validate_tower(tower).ok
    result = erase_all(tower)
    assert result.new_tower.level_names() == ["y1", "y2", "y3"]
    assert result.new_tower.validation.ok
    y1, y2, y3 = result.y_elements
    assert y1 == tower.var(0) and y2 == tower.var(1)
    assert y3 == tower.poly({(0, 1, 1): z - 1, (0, 0, 0): field.one})
    assert y3 * y2 == tower.from_base(z) * y2 * y3
    assert y3 * y1 == y1 * y3
    assert y2 * y1 == y1 * y2


def test_erase_all_middle_delta_is_out_of_fragment():
    # moving the sigma-only top below the Weyl level leaves the Weyl level
    # over a genuinely noncommutative quantum plane whose central monomials
    # are all sigma-fixed: no commutator candidate exists at any degree,
    # and the honest outcome is an explicit failure
    tower = weyl_sigma_top_tower()
    assert validate_tower(tower).ok
    with pytest.raises(UnsupportedErasure):
        erase_all(tower, search_degree_bound=3)


def test_erase_all_hypothesis_violations():
    field = FunctionField(QQ, "q")
    q = field.gen
    # q = 1 level
    with pytest.raises(HypothesisViolation):
        erase_all(qweyl(QQ, 1))
    # non-diagonal sigma
    bad = OreTower(
        BaseRing.field_ring(field),
        [
            TowerLevel("x1"),
            TowerLevel(
                "x2",
                sigma_vars={0: (q, {(0, 0): field.one})},
                delta_vars={0: {(0, 0): field.one}},
                q=q,
            ),
        ],
    )
    with pytest.raises(HypothesisViolation):
        erase_all(bad)
    # delta without q
    no_q = OreTower(
        BaseRing.field_ring(QQ),
        [TowerLevel("x1"), TowerLevel("x2", delta_vars={0: {(0, 0): QQ.one}})],
    )
    with pytest.raises(HypothesisViolation):
        erase_all(no_q)


def test_erase_all_witness_field_patterns():
    field = CyclotomicField(3)
    result = erase_all(qweyl(field, field.gen))
    trivial, moving = result.witnesses
    assert trivial.branch == "trivial_delta"
    assert trivial.c is None and trivial.u is None and trivial.b is None
    assert moving.branch == "center_moving"
    assert moving.c is not None and moving.u is not None
    assert moving.a is None and moving.v is None


def test_erase_all_matrix_height_one():
    tower = mat2_inner_tower()
    result = erase_all(tower)
    field = tower.base.field
    e12 = Matrix.unit(field, 2, 0, 1)
    assert result.y_elements[0] == tower.var(0) - SkewPoly.from_base(tower, e12)
    assert result.new_tower.validation.ok


def test_erase_all_four_level_quantum_space():
    # all-sigma tower with mixed scaling constants: every erasure is
    # trivial but the pass runs 6 swap-downs plus the final resort, so the
    # permutation bookkeeping gets a real workout
    field = CyclotomicField(6)
    z = field.gen
    lam = {(1, 0): z, (2, 0): z**2, (2, 1): z**5, (3, 0): z**3, (3, 1): z, (3, 2): z**4}
    levels = [TowerLevel("x1")]
    for i in range(1, 4):
        levels.append(
            TowerLevel(
                f"x{i + 1}",
                sigma_vars={j: (lam[(i, j)], {}) for j in range(i)},
            )
        )
    tower = OreTower(BaseRing.field_ring(field), levels)
    assert validate_tower(tower).ok

    result = erase_all(tower)
    assert result.new_tower.level_names() == ["y1", "y2", "y3", "y4"]
    assert result.new_tower.validation.ok
    for i in range(4):
        assert result.y_elements[i] == tower.var(i)
        for j in range(i):
            a, c = result.new_tower.sigma_var(i, j)
            assert a == lam[(i, j)] and not c
            lhs = result.y_elements[i] * result.y_elements[j]
            rhs = tower.from_base(lam[(i, j)]) * result.y_elements[j] * result.y_elements[i]
            assert lhs == rhs

    from oretower.pi import pi_report

    assert pi_report(tower).verdict == "PI"
    assert pi_report(result.new_tower).verdict == "PI"


def test_erase_all_validates_each_tower_once(monkeypatch):
    import oretower.tower
    from oretower.pi import pi_report

    calls = []
    original = oretower.tower.validate_tower

    def counting(tower, *args, **kwargs):
        calls.append(tower)
        return original(tower, *args, **kwargs)

    monkeypatch.setattr(oretower.tower, "validate_tower", counting)
    field = CyclotomicField(3)
    tower = qweyl(field, field.gen)
    result = erase_all(tower)
    assert calls == [tower, result.new_tower]
    assert pi_report(tower).verdict == "PI"
    assert len(calls) == 2
