"""Bounded draws against ``random.Random``: the same values, and the
generator left in the same state, on the Python that runs the tests."""

import random
from array import array

from hypothesis import given
from hypothesis import strategies as st

from icmpstamp.draws import below, shuffle

seeds = st.integers(0, 2**64)


# Small widths are the ones used (a normal host's 1-5 ms processing time,
# a path's jitter); large ones cross many powers of two, where the
# redraw rate changes.
@given(seeds, st.integers(-(2**40), 2**40),
       st.one_of(st.integers(0, 20), st.integers(0, 2**70)), st.integers(1, 20))
def test_below_draws_as_randint(seed, a, width, times):
    rng, stdlib = random.Random(seed), random.Random(seed)
    for _ in range(times):
        assert a + below(rng.getrandbits, width + 1) == stdlib.randint(a, a + width)
    assert rng.getstate() == stdlib.getstate()


@given(seeds, st.integers(0, 300))
def test_shuffle_permutes_as_random_shuffle(seed, n):
    rng, stdlib = random.Random(seed), random.Random(seed)
    mine, theirs = array("I", range(n)), list(range(n))
    shuffle(rng.getrandbits, mine)
    stdlib.shuffle(theirs)
    assert mine.tolist() == theirs
    assert rng.getstate() == stdlib.getstate()
