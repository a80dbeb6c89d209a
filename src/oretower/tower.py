"""Data model and validation for iterated Ore extension presentations.

A tower is a base ring (a field or a matrix algebra over a field) plus an
ordered list of levels.  Level i carries the action of its maps on the
base ring (:class:`BaseMap`) and on every lower variable:

    sigma_i(x_j) = a_ij * x_j + c_ij        (a_ij in the base, c_ij below x_j)
    delta_i(x_j) = a polynomial below level i

together with an optional central q value declaring the level's
quantisation.  Validation checks the automorphism / twisted-derivation
axioms and the q-skew identity as exact polynomial identities on a
generating set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from types import MappingProxyType

from .errors import HypothesisViolation, NotDiagonal, ScalarError
from .scalars import Matrix, Scalar
from .skewpoly import SkewPoly, _clean_terms, apply_level_map


# ---------------------------------------------------------------------------
# base rings


class BaseRing:
    """The coefficient ring: a field, or a matrix algebra over one."""

    def __init__(self, field, matrix_size: int | None = None):
        self.field = field
        self.kind = "matrix" if matrix_size else "field"
        self.size = matrix_size or 1

    @classmethod
    def field_ring(cls, field) -> "BaseRing":
        return cls(field)

    @classmethod
    def matrix_ring(cls, field, size: int) -> "BaseRing":
        if size < 1:
            raise ValueError("matrix size must be positive")
        return cls(field, size)

    # -- elements --------------------------------------------------------

    # cached: both are immutable, and a matrix base would build a new one
    # on every access
    @functools.cached_property
    def one(self):
        if self.kind == "field":
            return self.field.one
        return Matrix.identity(self.field, self.size)

    @functools.cached_property
    def zero(self):
        if self.kind == "field":
            return self.field.zero
        return Matrix.zero(self.field, self.size, self.size)

    def scalar(self, s):
        """Embed a field scalar as a base element."""
        s = self.field.coerce(s)
        if self.kind == "field":
            return s
        return Matrix._scalar(self.field, self.size, s.rep)

    def coerce(self, value):
        if isinstance(value, Matrix):
            if self.kind != "matrix" or value.nrows != self.size or value.ncols != self.size:
                raise ScalarError(f"{value!r} is not an element of {self!r}")
            if value.field is not self.field:
                raise ScalarError(f"{value!r} lives over the wrong field")
            return value
        return self.scalar(value)

    # built once per base ring, as one and zero are; tuples, so no caller
    # can change them for the next
    @functools.cached_property
    def _basis(self) -> tuple:
        if self.kind == "field":
            return (self.one,)
        return tuple(_units(self.field, self.size))

    def basis(self) -> tuple:
        """The standard field basis: {1} for a field, matrix units for Mat_m."""
        return self._basis

    def generators(self) -> tuple:
        """Ring generators used by identity checks.

        For a field base the field generator (when one exists) is the only
        element that can detect a failure; matrix bases use all units.
        """
        if self.kind == "field" and self.field.gen is not None:
            return (self.field.gen,)
        return self._basis

    def is_invertible(self, el) -> bool:
        if self.kind == "field":
            return not el.is_zero()
        return el.is_invertible()

    def as_scalar(self, el) -> Scalar | None:
        """The field scalar z with el == z * 1, or None."""
        if self.kind == "field":
            return el
        return el.scalar_part()

    def __eq__(self, other):
        return (
            isinstance(other, BaseRing)
            and other.kind == self.kind
            and other.field is self.field
            and other.size == self.size
        )

    def __hash__(self):
        return hash((self.kind, self.field, self.size))

    def __repr__(self):
        if self.kind == "field":
            return self.field.name
        return f"Mat_{self.size}({self.field.name})"


# ---------------------------------------------------------------------------
# maps on the base ring


@dataclass(frozen=True)
class BaseMap:
    """Action of a level map on the base ring.

    The slot a map sits in says whether it is sigma or delta:
    ``TowerLevel.sigma_base`` holds the automorphism sigma,
    ``TowerLevel.delta_base`` the sigma-derivation delta.  The base says
    how ``action`` acts, and a tower refuses an action of the other kind.
    A tower stores a map that acts trivially in its slot (the identity in
    a sigma slot, zero in a delta slot) as the one shared empty map
    ``NO_MAP``.

    On a field base the action is a Scalar, the image of the field
    generator: sigma maps gen to it and extends as a field homomorphism;
    delta maps gen to it and extends by the twisted Leibniz and quotient
    rules against the level's sigma.

    On a matrix-algebra base the map is F-linear and the action is an
    m^2 x m^2 Matrix acting on the units in row-major order.  In that
    layout r -> l r is the Kronecker product l (x) 1 and r -> r l is
    1 (x) l^T, so r -> l r l' is l (x) l'^T (Horn and Johnson, *Topics in
    Matrix Analysis*, 1991, section 4.3).
    """

    action: Scalar | Matrix | None = None

    @classmethod
    def conjugation(cls, a: Matrix) -> "BaseMap":
        """sigma(r) = a r a^{-1} on Mat_m."""
        return cls(Matrix.two_sided_action(a, a.inverse()))

    @classmethod
    def inner_derivation(cls, b: Matrix, sigma: "BaseMap") -> "BaseMap":
        """delta(r) = b r - sigma(r) b on Mat_m, an inner sigma-derivation."""
        one = Matrix.identity(b.field, b.nrows)
        right_b = Matrix.two_sided_action(one, b)
        if sigma.action is not None:
            right_b = right_b * sigma.action
        return cls(Matrix.two_sided_action(b, one) - right_b)

    # validation, map_order and the commands all ask; a frozen dataclass
    # keeps the answer in its __dict__, outside the compared fields
    @functools.cached_property
    def action_is_invertible(self) -> bool:
        """Whether the matrix ``action`` is invertible, decided once per map."""
        return self.action.is_invertible()

    @functools.cached_property
    def unit_images(self) -> tuple:
        """The images of the matrix units E_ij of Mat_m in row-major order,
        read once per map: column i m + j of ``action`` is the image of
        E_ij."""
        action = self.action
        return tuple(Matrix.unvec(action.field, col) for col in action.transpose().rows)

    @functools.cached_property
    def conjugator(self) -> Matrix | None:
        """The a with ``action`` = conj(a) on Mat_m, its last nonzero
        entry in row-major order 1, read once per map; None when sigma is no
        conjugation, so not multiplicative (Skolem-Noether).

        If sigma = conj(a), column j of sigma(E_k0) = (a e_k)(e_0^T a^{-1})
        is (a^{-1})_0j a e_k, nonzero for the first nonzero column j of
        sigma(E_00).  a is accepted when nonzero with a r = sigma(r) a on every
        unit r: every r maps the kernel of a into itself, so it is 0.
        """
        images = self.unit_images
        field, m = images[0].field, images[0].nrows
        cols = [images[k * m].transpose().rows for k in range(m)]
        j = next((j for j, col in enumerate(cols[0]) if any(col)), 0)
        a = Matrix(field, [col[j] for col in cols]).transpose()
        if not a or any(a * e != image * a for e, image in zip(_units(field, m), images)):
            return None
        return a * next(c for c in reversed(a.vec()) if c).inverse()

    def inner_shift(self, sigma: "BaseMap") -> Matrix | None:
        """A b with delta(r) = b r - sigma(r) b on Mat_m, read as sum_k
        delta(E_k0) E_0k and accepted when this holds on every unit (sigma(E)
        is E for the identity sigma); None when delta is no such map.  For
        delta(r) = b' r - sigma(r) b' with sigma = conj(a) the sum is b' -
        (a^{-1} b')_00 a, which gives the same delta.  No inverse is taken."""
        images = self.unit_images
        field, m = images[0].field, images[0].nrows
        units = _units(field, m)
        sigma_images = units if sigma.action is None else sigma.unit_images
        b = sum((images[k * m] * units[k] for k in range(m)), Matrix.zero(field, m, m))
        if any(d != b * e - s * b for d, e, s in zip(images, units, sigma_images)):
            return None
        return b


# the map of every slot in which a level's map acts trivially; a frozen map
# needs no copies, and the tower's readers test for it by identity
NO_MAP = BaseMap()


def _units(field, m: int) -> list:
    """The m^2 matrix units of Mat_m in row-major order, E_rc at r m + c."""
    return [Matrix.unit(field, m, r, c) for r in range(m) for c in range(m)]


def _apply_base_map(base: BaseRing, lvl: TowerLevel, is_delta: bool, element):
    """Apply the base map in slot ``is_delta`` of ``lvl``, which acts
    nontrivially there, to a base element: delta when ``is_delta``, else
    sigma.

    On Mat_m the matrix action acts on the entries in row-major order
    (``Matrix.act_on``).  On a field the field applies the map from the
    generator's image, a delta twisted by the level's sigma.
    """
    action = (lvl.delta_base if is_delta else lvl.sigma_base).action
    if base.kind == "matrix":
        return action.act_on(element)
    if is_delta:
        return base.field.derive(element, lvl.sigma_base.action, action)
    return base.field.substitute(element, action)


def _sigma_base_defect(base: BaseRing, sigma: BaseMap) -> str | None:
    """Why ``sigma`` is not an automorphism of the base, or None when it is."""
    if isinstance(sigma.action, Matrix):
        return None if sigma.action_is_invertible else "linear action is singular"
    return base.field.automorphism_defect(sigma.action)


def require_base_automorphism(base: BaseRing, sigma: BaseMap, name: str = "sigma") -> None:
    """Raise HypothesisViolation unless ``sigma`` is an automorphism of the base."""
    defect = _sigma_base_defect(base, sigma)
    if defect is not None:
        raise HypothesisViolation(f"{name} is not an automorphism of the base: {defect}")


# ---------------------------------------------------------------------------
# levels and towers

# the terms of a zero map, shared by every default that OreTower supplies
_NO_TERMS = MappingProxyType({})

# most images OreTower._base_map_memo stores; past it, images are computed
# and not stored
BASE_MAP_MEMO_ENTRIES = 50_000


@dataclass(frozen=True)
class TowerLevel:
    """One level of the tower: its maps on the base and on lower variables.

    ``sigma_base`` acts as sigma and ``delta_base`` as delta.  A level
    stores only the maps it declares; a lower variable with no entry has
    sigma(x_j) = x_j and delta(x_j) = 0, and a tower stores a base map
    that acts as the identity (sigma) or as zero (delta) as ``NO_MAP``.
    Levels are frozen; derive a changed level with
    ``dataclasses.replace``.  A tower never writes into the dicts of the
    levels it is given.
    """

    name: str
    sigma_base: BaseMap = NO_MAP
    delta_base: BaseMap = NO_MAP
    sigma_vars: dict = dc_field(default_factory=dict)  # j -> (a_ij, c_ij term dict)
    delta_vars: dict = dc_field(default_factory=dict)  # j -> term dict
    q: Scalar | None = None

    def delta_is_zero(self) -> bool:
        # a map with no nonzero action is zero, NO_MAP or not, so this also
        # holds on a level that no tower has normalised
        return not self.delta_base.action and not any(self.delta_vars.values())


class OreTower:
    """Presentation of an iterated Ore extension over its base ring.

    ``levels`` is a tuple of normalised copies of the given levels: entries
    coerced into the base, zero terms dropped, and only the declared maps
    kept (a sigma other than x_j -> x_j, a nonzero delta).  The identity
    and zero defaults come from ``sigma_var_raw`` and ``delta_var_raw``.
    """

    def __init__(self, base: BaseRing, levels):
        levels = list(levels)
        self._set_levels(
            base, [_normalised_level(base, len(levels), i, lvl) for i, lvl in enumerate(levels)]
        )

    @classmethod
    def bare(cls, base: BaseRing, names) -> "OreTower":
        """The tower on ``names`` whose every level has the identity sigma
        and zero delta, on the base and on each lower variable; a level
        that declares nothing is normalised already."""
        return cls._of_normalised(base, [TowerLevel(name) for name in names])

    def with_level(self, i: int, level: TowerLevel) -> "OreTower":
        """This tower with level i replaced by ``level``, normalised as the
        constructor normalises it; the other levels are this tower's own,
        which are normalised already, and are not normalised again."""
        levels = list(self.levels)
        levels[i] = _normalised_level(self.base, self.height, i, level)
        return self._of_normalised(self.base, levels)

    def sigma_only(self, qs=None) -> "OreTower":
        """This tower with every delta and c part dropped and every sigma_base
        and a_ij kept, its levels given their erased names and level i
        declaring ``qs[i]`` (no q when ``qs`` is None); built normalised and
        not validated, since the result need not be a tower."""
        names = _erased_names(self, range(self.height))
        qs = qs or [None] * self.height
        one = self.base.one
        return self._of_normalised(
            self.base,
            [
                TowerLevel(
                    name,
                    lvl.sigma_base,
                    sigma_vars={j: (a, {}) for j, (a, _c) in lvl.sigma_vars.items() if a != one},
                    q=q,
                )
                for lvl, name, q in zip(self.levels, names, qs, strict=True)
            ],
        )

    @classmethod
    def _of_normalised(cls, base: BaseRing, levels: list) -> "OreTower":
        tower = object.__new__(cls)
        tower._set_levels(base, levels)
        return tower

    def _set_levels(self, base: BaseRing, levels: list) -> None:
        """Install normalised ``levels`` and empty caches."""
        names = [lvl.name for lvl in levels]
        if len(set(names)) != len(names):
            raise ValueError("duplicate level names")
        self.base = base
        self.levels = tuple(levels)
        # (i, exponents below i) -> x_i * x^lower; read and filled only by
        # the rewriting engine in skewpoly
        self._engine_table: dict = {}
        # (i, is_delta, element) -> image under sigma_i or delta_i; owned by
        # apply_sigma0 / apply_delta0, which store at most
        # BASE_MAP_MEMO_ENTRIES images
        self._base_map_memo: dict = {}
        # per level, (sigma is the identity, delta is zero) on the base,
        # indexed by is_delta: apply_sigma0 / apply_delta0 then skip the
        # memo, and the rewriting engine in skewpoly calls neither map there
        self._trivial_maps = tuple(
            (lvl.sigma_base is NO_MAP, lvl.delta_base is NO_MAP) for lvl in self.levels
        )
        # every level has an identity sigma and a zero delta on the base, so
        # (c x^a)(d x^b) = (c d)(x^a x^b); read by the rewriting engine in
        # skewpoly, which then multiplies the coefficients once per term pair
        self._fixes_base = all(maps == (True, True) for maps in self._trivial_maps)
        self._base_zero = base.zero
        self._identity_sigma_var = (base.one, _NO_TERMS)

    @functools.cached_property
    def validation(self) -> "ValidationReport":
        """``validate_tower(self)`` computed once."""
        return validate_tower(self)

    # -- structure ---------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.levels)

    def level_names(self) -> list[str]:
        return [lvl.name for lvl in self.levels]

    def level_index(self, name: str) -> int:
        for i, lvl in enumerate(self.levels):
            if lvl.name == name:
                return i
        raise KeyError(name)

    def __eq__(self, other):
        return (
            isinstance(other, OreTower)
            and other.base == self.base
            and other.levels == self.levels
        )

    def __repr__(self):
        vars_part = "".join(f"[{name}]" for name in self.level_names())
        return f"{self.base!r}{vars_part}"

    # -- polynomial factories ----------------------------------------------

    def zero(self) -> SkewPoly:
        return SkewPoly.zero(self)

    def one(self) -> SkewPoly:
        return SkewPoly.one(self)

    def var(self, i) -> SkewPoly:
        if isinstance(i, str):
            i = self.level_index(i)
        return SkewPoly.variable(self, i)

    def poly(self, terms: dict) -> SkewPoly:
        return SkewPoly(self, terms)

    def from_base(self, element) -> SkewPoly:
        return SkewPoly.from_base(self, element)

    # -- map access ----------------------------------------------------------

    def apply_sigma0(self, i: int, element):
        return self._base_map_image(i, False, element)

    def apply_delta0(self, i: int, element):
        return self._base_map_image(i, True, element)

    def _base_map_image(self, i: int, is_delta: bool, element):
        if self._trivial_maps[i][is_delta]:
            return self._base_zero if is_delta else element
        key = (i, is_delta, element)
        image = self._base_map_memo.get(key)
        if image is None:
            image = _apply_base_map(self.base, self.levels[i], is_delta, element)
            if len(self._base_map_memo) < BASE_MAP_MEMO_ENTRIES:
                self._base_map_memo[key] = image
        return image

    # a level stores only the maps it declares; these two supply the
    # identity sigma_i(x_j) = x_j and the zero delta_i(x_j) for the rest,
    # as read-only maps that no caller can write through
    def sigma_var_raw(self, i: int, j: int):
        return self.levels[i].sigma_vars.get(j, self._identity_sigma_var)

    def delta_var_raw(self, i: int, j: int):
        return self.levels[i].delta_vars.get(j, _NO_TERMS)

    # the level dicts are clean; a copy keeps callers from writing into them
    def sigma_var(self, i: int, j: int):
        a, c_terms = self.sigma_var_raw(i, j)
        return a, SkewPoly._of(self, dict(c_terms))

    def delta_var(self, i: int, j: int) -> SkewPoly:
        return SkewPoly._of(self, dict(self.delta_var_raw(i, j)))


def _erased_names(tower: OreTower, renamed) -> list[str]:
    """The level names of ``tower`` with the levels in ``renamed`` given
    their erased names (x1 -> y1, v -> y_v), each followed by as many
    underscores as it takes to name no field generator and no other level,
    so the rendered tower parses back."""
    names = tower.level_names()
    field = tower.base.field
    taken = {name for i, name in enumerate(names) if i not in renamed}
    for i in renamed:
        name = names[i]
        new = "y" + name[1:] if name.startswith("x") else "y_" + name
        while new in taken or field.generator_named(new) is not None:
            new += "_"
        taken.add(new)
        names[i] = new
    return names


def _normalised_level(base: BaseRing, height: int, i: int, lvl: TowerLevel) -> TowerLevel:
    """``lvl`` with its entries coerced into the base and cleaned, keeping
    only the sigma entries other than x_j -> x_j and the nonzero deltas,
    and each base map that acts trivially in its slot stored as ``NO_MAP``."""
    sigma_vars, delta_vars = {}, {}
    for j, (a, c_terms) in lvl.sigma_vars.items():
        if not 0 <= j < i:
            raise ValueError(f"level {i} maps variable {j} outside its scope")
        a = base.coerce(a)
        c_terms = _level_terms(base, height, c_terms, j, f"c part of sigma_{i + 1}(x_{j + 1})")
        if c_terms or a != base.one:
            sigma_vars[j] = (a, c_terms)
    for j, d_terms in lvl.delta_vars.items():
        if not 0 <= j < i:
            raise ValueError(f"level {i} maps variable {j} outside its scope")
        d_terms = _level_terms(base, height, d_terms, i, f"delta_{i + 1}(x_{j + 1})")
        if d_terms:
            delta_vars[j] = d_terms
    q = None if lvl.q is None else base.field.coerce(lvl.q)
    sigma_base = _slot_map(base, lvl.sigma_base, False, f"sigma_base of level {i + 1}")
    delta_base = _slot_map(base, lvl.delta_base, True, f"delta_base of level {i + 1}")
    return TowerLevel(lvl.name, sigma_base, delta_base, sigma_vars, delta_vars, q)


def _slot_map(base: BaseRing, bmap: BaseMap, is_delta: bool, what: str) -> BaseMap:
    """``bmap`` as slot ``is_delta`` of a level stores it: ``NO_MAP`` when
    it acts there as zero (a delta) or as the identity (a sigma).  An
    action that is a Matrix on a field base, or no Matrix on Mat_m, raises
    ValueError naming ``what``."""
    action = bmap.action
    if action is None:
        return NO_MAP
    if isinstance(action, Matrix) != (base.kind == "matrix"):
        raise ValueError(f"{what} has a {type(action).__name__} action on the base {base!r}")
    if is_delta:
        trivial = not action
    elif base.kind == "matrix":
        trivial = action.scalar_part() == base.field.one
    else:
        trivial = action == base.field.gen
    return NO_MAP if trivial else bmap


def _level_terms(base: BaseRing, height: int, terms: dict, max_level: int, what: str) -> dict:
    """``terms`` cleaned as ``SkewPoly`` cleans them, supported below ``max_level``."""
    out = _clean_terms(base, height, terms)
    if any(any(exp[max_level:]) for exp in out):
        raise ValueError(f"{what} involves a level >= {max_level + 1}")
    return out


# ---------------------------------------------------------------------------
# validation


@dataclass
class CheckResult:
    level: int
    name: str
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckResult] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.ok), None)

    @property
    def failure_text(self) -> str | None:
        """The first failure as ``validate`` prints it, its level 1-based
        ("level 2 q-skew identity: lhs = q ; rhs = 2"); None when valid."""
        ff = self.first_failure
        return None if ff is None else f"level {ff.level + 1} {ff.name}: {ff.detail}"

    def add(self, level: int, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(level, name, ok, detail))


def _base_map_valid(tower: OreTower, i: int, report: ValidationReport) -> bool:
    """Well-formedness of the level's base maps; field actions must define
    genuine automorphisms / derivations of the base field."""
    base = tower.base
    lvl = tower.levels[i]
    sigma_defect = _sigma_base_defect(base, lvl.sigma_base)
    if base.kind == "matrix":
        report.add(i, "sigma_base invertible", sigma_defect is None, sigma_defect or "")
        return sigma_defect is None

    report.add(i, "sigma_base automorphism", sigma_defect is None, sigma_defect or "")
    delta_defect = base.field.derivation_defect(lvl.sigma_base.action, lvl.delta_base.action)
    report.add(i, "delta_base well-defined", delta_defect is None, delta_defect or "")
    return sigma_defect is None and delta_defect is None


def validate_tower(tower: OreTower) -> ValidationReport:
    """Run every level's axiom checks; exact identities throughout.

    The report is returned, never stored on the tower; ``tower.validation``
    memoises it.

    Checks per level i: (a) sigma_i is multiplicative on generator pairs,
    (b) sigma_i is bijective (invertible base action, invertible a_ij),
    (c) delta_i satisfies the twisted Leibniz rule on generator pairs,
    (d) the q-skew identity delta sigma = q sigma delta when q is declared,
    (e) sigma_i(q) = q and delta_i(q) = 0.

    The generator pairs of (a) and (c) are those of ``_relation_pairs``,
    and they decide validity.  ``apply_level_map`` reads sigma_i and
    delta_i off the engine table: the entry x_i x^e = sigma_i(x^e) x_i +
    delta_i(x^e) is filled one normal-order factor of x^e at a time, so
    sigma_i(x^e) is the product of the generator images sigma_i(x_j) and
    delta_i(x^e) follows the twisted Leibniz rule left to right.  Maps so
    defined on normal forms are a ring endomorphism and a
    sigma_i-derivation of R_{i-1} exactly when they act as such on the base
    and respect each defining relation x_k g = sigma_k(g) x_k + delta_k(g)
    of R_{i-1}: this is the universal property of skew polynomial rings
    (Goodearl and Warfield, *An Introduction to Noncommutative Noetherian
    Rings*, 2nd ed., 2004, ch. 2), and it applies because normal forms
    are unique (Bergman's diamond lemma, Adv. Math. 29, 1978).

    The cases of (a), (c) and (d) come from ``_identity_cases``: a base
    generator, and the base-by-base pairs that come first in
    ``_relation_pairs``, are checked in the base ring, and every generator
    image and pair product is computed once per level.  A level whose
    delta is zero passes (c) and (d) with no case computed, and on Mat_m
    the reads ``BaseMap.conjugator`` and ``BaseMap.inner_shift`` decide the
    m^4 base-by-base pairs of (a) and (c) when they succeed; the arguments
    are in ``_identity_cases``.  A failure is reported as polynomials, so
    its text does not depend on which ring computed it, and it is the
    first failing pair of ``_relation_pairs`` in every case.
    """
    report = ValidationReport()
    for i in range(tower.height):
        lvl = tower.levels[i]
        if not _base_map_valid(tower, i, report):
            continue
        for j in range(i):
            a, _c = tower.sigma_var_raw(i, j)
            ok = tower.base.is_invertible(a)
            report.add(i, f"a[{i + 1},{j + 1}] invertible", ok, "" if ok else f"a = {a}")

        q_elem = None if lvl.q is None else tower.base.scalar(lvl.q)
        mult, leibniz, q_skew = _identity_cases(tower, i, q_elem)
        _check_identity(report, tower, i, "sigma multiplicative", mult)
        _check_identity(report, tower, i, "delta twisted Leibniz", leibniz)

        if q_elem is not None:
            _check_identity(report, tower, i, "q-skew identity", q_skew)
            sq = tower.apply_sigma0(i, q_elem)
            dq = tower.apply_delta0(i, q_elem)
            ok_fix = sq == q_elem and dq.is_zero()
            report.add(
                i,
                "q fixed by maps",
                ok_fix,
                "" if ok_fix else f"sigma(q) = {sq}, delta(q) = {dq}",
            )

    return report


def _identity_cases(tower: OreTower, i: int, q_elem):
    """The lazy (lhs, rhs) cases of (a), (c) and, for a declared q (the
    base element ``q_elem``), (d) at level i.

    The generators of R_{i-1} are the base generators, kept as base
    elements, then x_1 ... x_i as polynomials.  sigma_i and delta_i send a
    base element to a base element (``apply_sigma0``, ``apply_delta0``),
    and products of base elements stay in the base ring, so the cases of a
    base generator and of a base-by-base pair take no rewriting.  Each
    generator's sigma_i and delta_i image and each pair product is
    computed once, when a case first asks for it, and shared by the three
    checks; in a pair (x_k, g) a base value of g is multiplied as it is,
    and the polynomial operation takes it in through ``SkewPoly.from_base``.

    Zero delta.  When delta_i is zero on the base and on every x_j, (c)
    and (d) have no cases: both sides of each are 0, on invalid towers
    too.  apply_delta0 then returns 0, and no term of a table entry
    x_i x^e has x_i-degree 0: x_i itself has degree 1, and the fill

        x_i x_j x^rest = a_ij x_j (x_i x^rest) + c_ij (x_i x^rest) + delta_i(x_j) x^rest

    multiplies x_i x^rest on the left by x_j and by c_ij, which lie below
    x_i and leave every term's x_i-exponent as it is, while its last
    summand is 0.  So delta_i(x^e), the degree-0 part, is 0, and
    delta_i(c x^e) = delta_i(c) x^e + sigma_i(c) delta_i(x^e) = 0.

    Matrix units.  On Mat_m the block of base-by-base pairs of (a) and
    (c), all m^4 pairs of units, is decided by reading the maps.  (a) is
    reached only once sigma is invertible, and an invertible F-linear
    sigma is multiplicative on the units exactly when it is an
    automorphism, by Skolem-Noether conj(a) for some a, that is when
    ``BaseMap.conjugator`` is not None.  Given that, delta satisfies (c)
    on the units exactly when a^{-1} delta is a derivation.  Every
    derivation of Mat_m is inner (Leroy and Matczuk, J. Algebra 145,
    1992), so a^{-1} delta = [v, .], delta(r) = b r - sigma(r) b with b =
    a v, and ``BaseMap.inner_shift`` reads such a b; conversely every such
    delta is a sigma-derivation.  A block that its read decides has no
    cases; any other block is scanned in ``_relation_pairs`` order, so the
    first failing pair is reported.  On a field base the block is one
    pair, and it is scanned.
    """
    base = tower.base
    base_gens = base.generators()
    n_base = len(base_gens)
    gens = [*base_gens, *(SkewPoly.variable(tower, j) for j in range(i))]

    def image(kind: str, x):
        if isinstance(x, SkewPoly):
            return apply_level_map(kind, i, x)
        return tower.apply_sigma0(i, x) if kind == "sigma" else tower.apply_delta0(i, x)

    # (kind, k) -> the sigma_i or delta_i image of gens[k]
    value = _memoised(lambda kind, k: image(kind, gens[k]))
    product = _memoised(lambda k, l: gens[k] * gens[l])

    def mult(pair):
        k, l = pair
        return image("sigma", product(k, l)), value("sigma", k) * value("sigma", l)

    def leibniz(pair):
        k, l = pair
        rhs = value("sigma", k) * value("delta", l) + value("delta", k) * gens[l]
        return image("delta", product(k, l)), rhs

    pairs = _relation_pairs(range(len(gens)), n_base)
    relations = pairs[n_base * n_base :]
    lvl = tower.levels[i]
    sigma, delta = lvl.sigma_base, lvl.delta_base
    sigma_read = base.kind == "matrix" and (sigma.action is None or sigma.conjugator is not None)
    mult_cases = map(mult, relations if sigma_read else pairs)
    if lvl.delta_is_zero():
        return mult_cases, (), ()
    delta_read = sigma_read and (delta.action is None or delta.inner_shift(sigma) is not None)
    leibniz_cases = map(leibniz, relations if delta_read else pairs)
    q_skew = (
        (image("delta", value("sigma", k)), q_elem * image("sigma", value("delta", k)))
        for k in range(len(gens))
    )
    return mult_cases, leibniz_cases, q_skew


def _memoised(compute):
    """``compute`` with each result kept under its arguments for the life
    of the returned function.  Validation makes three of these a level;
    ``functools.cache`` costs several times more to make."""
    memo = {}

    def once(*args):
        if args not in memo:
            memo[args] = compute(*args)
        return memo[args]

    return once


def _check_identity(report: ValidationReport, tower: OreTower, i: int, name: str, cases) -> None:
    """Record check ``name`` of level i: a failure with the first (lhs, rhs)
    of ``cases`` whose sides differ, else a pass.  ``cases`` is lazy, so
    no case after the first failure is computed.  Sides that are base
    elements are printed as the polynomials they are."""
    for lhs, rhs in cases:
        if lhs != rhs:
            lhs, rhs = (
                x if isinstance(x, SkewPoly) else SkewPoly.from_base(tower, x) for x in (lhs, rhs)
            )
            report.add(i, name, False, f"lhs = {lhs} ; rhs = {rhs}")
            return
    report.add(i, name, True)


def _relation_pairs(gens, n_base: int) -> list:
    """The generator pairs checked by (a) and (c), in the order of the full
    product gens x gens: base by base, which tests the base maps, and
    (x_k, v) for each v listed before x_k, which tests the defining
    relation x_k v = sigma_k(v) x_k + delta_k(v).

    ``gens`` lists the generators of R_{i-1} as ``_level_generators``
    does, or their positions there, its ``n_base`` base generators first.
    The pairs left out, (g, x_k), (x_j, x_k) with j < k and (x_j, x_j),
    multiply to normal forms, on which the maps read off the engine table
    satisfy (a) and (c) by construction.  On Mat_m the n_base^2 = m^4
    base-by-base pairs are decided by reading sigma and delta (see
    ``_identity_cases``), and scanned only when a read fails; this order
    is the one in which a failure is looked for.
    """
    return [(u, v) for pos, u in enumerate(gens) for v in gens[: max(pos, n_base)]]


# ---------------------------------------------------------------------------
# swap compatibility and map orders


def check_swap_compatibility(tower: OreTower, i: int) -> bool:
    """Whether level i can be exchanged with level i-1 (0-based upper
    index i); returns whether delta_{i-1}(lam) = 0, the condition for the
    lower level to keep its q when it moves up.

    Raises NotDiagonal unless level i is automorphism-only with
    sigma_i(x_{i-1}) = lam * x_{i-1}, lam = a_{i,i-1} invertible, read off
    the tower.  Nothing else needs checking on a valid tower.  There
    x_i x_{i-1} = lam x_{i-1} x_i and x_i r = sigma_i(r) x_i for r below
    x_{i-1}, so the normal forms of (x_i x_{i-1}) r and x_i (x_{i-1} r),
    equal by associativity, give

        sigma_i sigma_{i-1}(r) lam = lam sigma_{i-1} sigma_i(r)
        sigma_i delta_{i-1}(r) = lam delta_{i-1} sigma_i(r),

    the commutation identities under which the swapped presentation is
    the same ring.  They are "sigma multiplicative" of level i on the
    pairs (x_{i-1}, r), so only an invalid tower can fail them; callers
    that may hold one check ``tower.validation``.
    """
    if i < 1 or i >= tower.height:
        raise ValueError("swap index out of range")
    if not tower.levels[i].delta_is_zero():
        raise NotDiagonal(f"level {i + 1} still carries a delta; cannot move it down")
    lam, c = tower.sigma_var(i, i - 1)
    if c:
        raise NotDiagonal(f"sigma of level {i + 1} sends x_{i} to {lam} * x_{i} + {c}")
    if not tower.base.is_invertible(lam):
        raise NotDiagonal(f"lambda = {lam} is not invertible in the base")
    return tower.apply_delta0(i - 1, lam).is_zero()


def map_order(base: BaseRing, bmap: BaseMap, bound: int) -> int | None:
    """Least N <= bound with bmap^N = identity on the base, else None.

    bmap must be an automorphism of the base (validation's "sigma_base
    invertible" / "sigma_base automorphism" check); HypothesisViolation is
    raised otherwise, before any power is computed.  The powers of an
    automorphism form a cyclic group, so bmap^m = bmap^n with m < n gives
    bmap^(n-m) = identity: the first repeated power is the identity
    itself, and the loop needs no record of the powers it has seen.  On a
    matrix base the powers of the conjugator are stepped (``_matrix_order``).
    """
    require_base_automorphism(base, bmap)
    image = bmap.action
    if image is None:
        return 1
    if isinstance(image, Matrix):
        return _matrix_order(bmap, bound)
    # the image passed the precondition, so the field has a generator:
    # Q and GF(p) admit only the identity
    identity = base.field.gen
    step = functools.partial(base.field.substitute, image=image)
    current = image
    for n in range(1, bound + 1):
        if current == identity:
            return n
        current = step(current)
    return None


def _matrix_order(bmap: BaseMap, bound: int) -> int | None:
    """Least n <= bound with bmap^n = 1, else None, for bmap = conj(a) on
    Mat_m (HypothesisViolation when bmap is no conjugation).

    A trace of its matrix ``action`` that is not a constant of the field
    rules out every n at once.  If bmap^n = 1, the eigenvalues of
    ``action`` are n-th roots of unity, so its trace, their sum, is
    algebraic over the prime field; and the elements of F(t) algebraic
    over the prime field are the constants, since a field is
    algebraically closed in a rational function field over it, nested or
    not (``is_constant``).  So conj(diag(1, q)) on Mat_2(Q(q)), with trace
    2 + q + 1/q, gets None at once, while conj(antidiag(q, 1)), with trace
    0, goes on to the steps: bmap^n = conj(a^n) is 1 exactly when the
    m x m power a^n is a scalar.
    """
    a, action = bmap.conjugator, bmap.action
    if a is None:
        raise HypothesisViolation(
            "sigma is not an automorphism of the base: linear action is no conjugation"
        )
    if not a.field.is_constant(action.trace()):
        return None
    power = a
    for n in range(1, bound + 1):
        if power.scalar_part() is not None:
            return n
        power = a * power
    return None
