"""Property tests: the affiliation generator's bounded sampler against
numpy's own ``Generator.integers``.

``_below(_words(rng), high)`` must return what ``rng.integers(0, high)``
returns, draw for draw, whether numpy is called one value at a time or
for a block of values, since both consume the same 32-bit words.

hypothesis is a test-only dependency; without it the module is skipped.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from richclub.generators import _below, _words  # noqa: E402

# 3 * 2**30 + 7 rejects about a quarter of all words
EDGE_BOUNDS = [1, 2, 3, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30 + 7,
               2**32 - 1, 2**32]
bounds = st.sampled_from(EDGE_BOUNDS) | st.integers(1, 2**32)
# None: one scalar call; k: one call with size=k
calls = st.lists(st.tuples(bounds, st.none() | st.integers(0, 40)),
                 max_size=60)


def assert_same_draws(seed, plan, block=1 << 12):
    rng = np.random.default_rng(seed)
    words = _words(np.random.default_rng(seed), block)
    for high, size in plan:
        if size is None:
            assert _below(words, high) == int(rng.integers(0, high))
        else:
            expected = rng.integers(0, high, size=size).tolist()
            assert [_below(words, high) for _ in range(size)] == expected


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**64 - 1), plan=calls,
       block=st.sampled_from([1, 2, 3, 1 << 12]))
def test_below_equals_numpy_integers(seed, plan, block):
    assert_same_draws(seed, plan, block)


def test_below_equals_numpy_across_blocks():
    """Long mixed runs cross many blocks of the default size."""
    pick = np.random.default_rng(20261019)
    for seed in range(3):
        plan = [(int(high), None if size < 0 else int(size))
                for high, size in zip(
                    pick.choice(EDGE_BOUNDS + [5, 600_001, 10**9], 5000),
                    pick.integers(-3, 12, 5000))]
        assert_same_draws(seed, plan)


@pytest.mark.parametrize("high", [0, -1, 2**32 + 1])
def test_below_rejects_bounds_outside_32_bits(high):
    with pytest.raises(ValueError):
        _below(_words(np.random.default_rng(0)), high)
