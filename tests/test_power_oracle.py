"""Power runs x_i^k * p against leftmost-first word reduction.

On a level that fixes the base the engine builds x_i^k from the table
entries by square and multiply when the right factor reaches few lower
parts; ``test_oracle.naive_product`` shares nothing with that path.  The
right factors hold some x_j and x_j x_i with x_j below x_i, whose lower
part reaches one or two others on the q-Weyl and Weyl levels, next to
x_i^t and a constant, whose lower part is empty and has no row in the run
table; the rest is random of degree at most 1.  k stays at most 12, where
the word reduction (which never merges like words) is still quick.  The
towers are every one that fixes the base, and the invalid broken_qskew,
where delta_2(x1) = x1 keeps the lower part.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from oretower.cli import parse_tower_file  # noqa: E402

from conftest import random_base_element, random_poly  # noqa: E402
from test_oracle import FIXED_BASE_FIXTURES, FIXTURE_DIR, naive_product  # noqa: E402

TOWERS = dict(
    FIXED_BASE_FIXTURES,
    broken_qskew=lambda: parse_tower_file(str(FIXTURE_DIR / "broken_qskew.tw")),
)
# (tower, level) for every level above the first of a tower that fixes the base
LEVELS = [(name, i) for name in sorted(TOWERS) for i in range(1, TOWERS[name]().height)]


@settings(max_examples=100, deadline=None)
@given(
    case=st.sampled_from(LEVELS),
    k=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_power_runs_match_naive_word_reduction(case, k, seed):
    name, level = case
    tower = TOWERS[name]()
    exp = [0] * tower.height
    exp[level] = k
    power = tower.poly({tuple(exp): tower.base.one})
    rng = random.Random(seed)
    x, lower = tower.var(level), tower.var(rng.randrange(level))
    p = random_poly(tower, rng, max_degree=1) + lower + lower * x
    p = p + x ** rng.randint(1, 3) + random_base_element(tower, rng)
    assert (power * p).terms == naive_product(tower, power, p)
