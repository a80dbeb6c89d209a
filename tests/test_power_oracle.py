"""Power runs x_i^k * p against leftmost-first word reduction.

On a level that fixes the base the engine builds x_i^k from the table
entries by square and multiply when the right factor reaches few lower
parts; ``test_oracle.naive_product`` shares nothing with that path.  The
right factors have degree at most 1 and hold some x_j below x_i, so on the
q-Weyl and Weyl levels they reach two or three lower parts and runs from
k = 6 or 12 halve; k stays at most 12, where the word reduction (which
never merges like words) is still quick.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import random_poly  # noqa: E402
from test_oracle import FIXED_BASE_FIXTURES, naive_product  # noqa: E402

# (tower, level) for every level above the first of a tower that fixes the base
LEVELS = [
    (name, i)
    for name in sorted(FIXED_BASE_FIXTURES)
    for i in range(1, FIXED_BASE_FIXTURES[name]().height)
]


@settings(max_examples=100, deadline=None)
@given(
    case=st.sampled_from(LEVELS),
    k=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_power_runs_match_naive_word_reduction(case, k, seed):
    name, level = case
    tower = FIXED_BASE_FIXTURES[name]()
    exp = [0] * tower.height
    exp[level] = k
    power = tower.poly({tuple(exp): tower.base.one})
    rng = random.Random(seed)
    p = random_poly(tower, rng, max_degree=1) + tower.var(rng.randrange(level))
    assert (power * p).terms == naive_product(tower, power, p)
