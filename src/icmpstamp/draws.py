"""Bounded draws with the same results and generator state as ``random.Random``.

``Random.randint(a, b)`` is ``a + below(rng.getrandbits, b - a + 1)`` and
``Random.shuffle(x)`` is ``shuffle(rng.getrandbits, x)``: both draw below
a bound as CPython's ``Random._randbelow_with_getrandbits`` does, so a
fixed seed gives the same values and leaves the generator in the same
state.  They save the stdlib's Python frames around each draw (``randint``
runs three: itself, ``randrange`` and ``_randbelow``), which the scan and
the simulator pay once per probe.
"""

from __future__ import annotations


def below(getrandbits, n: int) -> int:
    """A uniform draw from ``range(n)``, for ``n >= 1``: ``n``'s bit length
    in bits, drawn again until the value is below ``n``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def shuffle(getrandbits, x) -> None:
    """Shuffle the sequence ``x`` in place, as ``Random.shuffle`` does."""
    for i in range(len(x) - 1, 0, -1):
        j = below(getrandbits, i + 1)
        x[i], x[j] = x[j], x[i]
