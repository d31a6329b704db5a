"""Day-circle time arithmetic and the candidate UTC-offset table.

Timestamps count milliseconds since the most recent UTC midnight, so all
comparisons live on a circle of 86,400,000 ms.  Instants inside the
program are integer microseconds since the Unix epoch, which, like Unix
time, does not represent leap seconds: the day is always exactly
86,400,000 ms long, which is far below the 200 ms correctness margin used
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from icmpstamp.textfile import numbered_lines

DAY_MS = 86_400_000
HALF_DAY_MS = DAY_MS // 2
MS_PER_HOUR = 3_600_000

# The 29 candidate UTC offsets observed in timezone-relative replies.
# Zero is deliberately absent: a zero-offset reply is simply correct.
DEFAULT_OFFSET_HOURS = (
    -12.0, -11.0, -10.0, -9.0, -8.0, -7.0, -6.0, -5.0, -4.0, -3.5,
    -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 3.5, 4.0, 4.5, 5.0,
    5.5, 6.0, 6.5, 7.0, 8.0, 9.0, 9.5, 10.0, 11.0,
)


def ms_since_utc_midnight(instant_us: int) -> int:
    """Milliseconds elapsed since the most recent UTC midnight.

    ``instant_us`` counts microseconds since the Unix epoch; sub-millisecond
    precision is floored away.
    """
    return instant_us // 1000 % DAY_MS


def circular_diff(a: int, b: int) -> int:
    """Signed ``a - b`` on the day circle, in (-43,200,000, +43,200,000].

    Makes receive-vs-originate comparisons behave across the UTC-midnight
    wrap; ``abs(circular_diff(a, b))`` is a metric on the circle.
    """
    if not 0 <= a < DAY_MS:
        raise ValueError(f"not a day-milliseconds value: {a}")
    if not 0 <= b < DAY_MS:
        raise ValueError(f"not a day-milliseconds value: {b}")
    d = (a - b) % DAY_MS
    return d if d <= HALF_DAY_MS else d - DAY_MS


def offset_millis(offset_hours: float) -> int:
    """Convert a UTC offset in hours (multiple of 0.5) to milliseconds."""
    doubled = offset_hours * 2
    if not math.isfinite(doubled) or doubled != int(doubled):
        raise ValueError(f"offset must be a finite multiple of 0.5 hours: {offset_hours}")
    return int(doubled) * (MS_PER_HOUR // 2)


def normalize_offset(raw_hours: float) -> float:
    """Reduce a raw hour offset modulo 24 into (-12, +12].

    A responder nine hours ahead can look fifteen hours behind depending
    on where the originate timestamp fell in the day; both describe the
    same clock, so -15 normalizes to +9.
    """
    r = raw_hours % 24.0
    return r - 24.0 if r > 12.0 else r


def offsets_equal(a: float, b: float) -> bool:
    """Offset equality on the day circle (+12 and -12 are the same point)."""
    return normalize_offset(a) % 24.0 == normalize_offset(b) % 24.0


def _parse_offset(text: str) -> float:
    try:
        offset = float(text)
    except ValueError:
        raise ValueError(f"not an hour offset: {text!r}") from None
    offset_millis(offset)
    return offset


@dataclass(frozen=True)
class OffsetTable:
    """Ordered candidate UTC offsets for timezone inference.

    The default holds the 29 offsets seen in the wild; pass your own tuple
    (or load one from a file) to widen or narrow the search.

    A margin is usable with a table only when it is at most half the
    day-circle distance between the table's two closest entries, so that no
    point is within the margin of two entries (``check_margin``).

    The table builds one index when it is made: the day-circle point of
    every entry (its offset in milliseconds modulo a day), sorted.
    ``CorrectnessPolicy.offset_near`` answers a lookup from it with one
    binary search, not a pass over every entry.
    """

    offsets: tuple[float, ...] = DEFAULT_OFFSET_HOURS
    # The entries' day-circle points in ascending order, then the same points
    # one day on, so that a window across midnight is one contiguous run;
    # ``_entries[k]`` is the table index of ``_points[k]``.
    _points: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _entries: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # The day-circle distance between the two closest entries; a whole day
    # for a table of fewer than two.
    _closest_ms: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ring = sorted((offset_millis(o) % DAY_MS, i) for i, o in enumerate(self.offsets))
        ring += [(point + DAY_MS, i) for point, i in ring]
        points = tuple(point for point, _ in ring)
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_entries", tuple(i for _, i in ring))
        # points[n] is points[0] one day on: the gap across midnight.
        gaps = (points[k + 1] - points[k] for k in range(len(self.offsets)))
        object.__setattr__(self, "_closest_ms", min(gaps, default=DAY_MS))

    @classmethod
    def from_file(cls, path) -> "OffsetTable":
        """Load a table from a text file of one decimal hour offset per line;
        a line at an earlier line's day-circle point raises ValueError."""
        by_point: dict[int, tuple[int, float]] = {}
        for lineno, offset in numbered_lines(path, _parse_offset):
            first, _ = by_point.setdefault(offset_millis(offset) % DAY_MS, (lineno, offset))
            if first != lineno:
                raise ValueError(f"{path}:{lineno}: offset {offset:g} repeats the point "
                                 f"of line {first} on the day circle")
        return cls(tuple(offset for _, offset in by_point.values()))

    def check_margin(self, margin_ms: int) -> None:
        """Raise ValueError unless ``margin_ms`` is usable with this table:
        at most half the day-circle distance between its two closest
        entries."""
        if 2 * margin_ms > self._closest_ms:
            raise ValueError(
                f"margin {margin_ms} ms is more than half the {self._closest_ms} ms "
                "between the closest candidate offsets; narrow the margin or thin the table"
            )
