"""Day-circle arithmetic and offset-table tests."""

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from builders import epoch_us, margin_refusal
from icmpstamp.classify import CorrectnessPolicy
from icmpstamp.clock import (
    DAY_MS,
    DEFAULT_OFFSET_HOURS,
    HALF_DAY_MS,
    OffsetTable,
    circular_diff,
    ms_since_utc_midnight,
    normalize_offset,
    offset_millis,
    offsets_equal,
)

day_values = st.integers(0, DAY_MS - 1)
half_hours = st.integers(-47, 47).map(lambda n: n / 2)


class TestMsSinceMidnight:
    def test_midnight(self):
        assert ms_since_utc_midnight(epoch_us(datetime(2018, 10, 6, tzinfo=timezone.utc))) == 0

    def test_example_instant(self):
        instant = epoch_us(datetime(2018, 10, 6, 12, 34, 56, 789000, tzinfo=timezone.utc))
        assert ms_since_utc_midnight(instant) == 45_296_789

    def test_last_millisecond(self):
        instant = epoch_us(datetime(2018, 10, 6, 23, 59, 59, 999999, tzinfo=timezone.utc))
        assert ms_since_utc_midnight(instant) == 86_399_999

    def test_non_utc_zone_converted(self):
        zone = timezone(timedelta(hours=2))
        instant = epoch_us(datetime(2018, 10, 6, 14, 34, 56, 789000, tzinfo=zone))
        assert ms_since_utc_midnight(instant) == 45_296_789

    def test_monotone_within_day_and_resets(self):
        base = datetime(2018, 10, 6, tzinfo=timezone.utc)
        previous = -1
        for hour in range(24):
            value = ms_since_utc_midnight(epoch_us(base + timedelta(hours=hour, minutes=1)))
            assert value > previous
            previous = value
        assert ms_since_utc_midnight(epoch_us(base + timedelta(days=1))) == 0


class TestCircularDiff:
    def test_wrap_across_midnight(self):
        assert circular_diff(100, 86_399_950) == 150

    def test_identity(self):
        assert circular_diff(12345, 12345) == 0

    def test_plain_subtraction(self):
        assert circular_diff(45_296_900, 45_296_789) == 111

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            circular_diff(DAY_MS, 0)
        with pytest.raises(ValueError):
            circular_diff(0, -1)

    @given(day_values, day_values)
    def test_result_in_interval(self, a, b):
        d = circular_diff(a, b)
        assert -HALF_DAY_MS < d <= HALF_DAY_MS

    @given(day_values, day_values)
    def test_antisymmetry_except_antipode(self, a, b):
        d = circular_diff(a, b)
        if d != HALF_DAY_MS:
            assert circular_diff(b, a) == -d

    @given(day_values, day_values, day_values)
    def test_triangle_inequality(self, a, b, c):
        assert abs(circular_diff(a, c)) <= abs(circular_diff(a, b)) + abs(
            circular_diff(b, c)
        )


class TestOffsetMillis:
    def test_plus_nine(self):
        assert offset_millis(9) == 32_400_000

    def test_minus_three_and_a_half(self):
        assert offset_millis(-3.5) == -12_600_000

    def test_zero(self):
        assert offset_millis(0) == 0

    def test_quarter_hour_rejected(self):
        with pytest.raises(ValueError):
            offset_millis(5.75)


class TestNormalizeOffset:
    def test_minus_fifteen_is_plus_nine(self):
        assert normalize_offset(-15) == 9

    def test_already_in_range(self):
        assert normalize_offset(9) == 9

    def test_minus_twelve_maps_to_plus_twelve(self):
        assert normalize_offset(-12) == 12

    def test_oracle_sweep(self):
        # Modular-reduction oracle over every half-hour offset in (-24, 24).
        for n in range(-47, 48):
            raw = n / 2
            reduced = normalize_offset(raw)
            assert -12 < reduced <= 12
            assert (raw - reduced) % 24 == 0

    @given(half_hours)
    def test_idempotent(self, h):
        assert normalize_offset(normalize_offset(h)) == normalize_offset(h)


class TestOffsetTable:
    def test_default_is_the_29_candidates(self):
        table = OffsetTable()
        assert len(table.offsets) == 29
        assert table.offsets == DEFAULT_OFFSET_HOURS

    def test_quarter_hour_entry_rejected(self):
        with pytest.raises(ValueError):
            OffsetTable((5.75,))

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e308"])
    def test_non_finite_entry_rejected(self, tmp_path, text):
        path = tmp_path / "offsets.txt"
        path.write_text(f"9\n{text}\n")
        with pytest.raises(ValueError, match="finite"):
            OffsetTable.from_file(path)

    def test_min_spacing_on_the_day_circle(self):
        # A table admits margins up to half the day-circle distance between
        # its two closest entries, and names that distance when it refuses.
        for offsets, closest in [
            (DEFAULT_OFFSET_HOURS, 1_800_000),
            ((11.0, -11.0), 7_200_000),
            ((12.0, -12.0), 0),
        ]:
            table = OffsetTable(offsets)
            if closest:
                table.check_margin(closest // 2)
            with pytest.raises(ValueError) as info:
                table.check_margin(closest // 2 + 1)
            assert str(info.value) == margin_refusal(closest // 2 + 1, closest)
        # Fewer than two entries admit any margin up to half a day.
        for offsets in [(9.0,), ()]:
            OffsetTable(offsets).check_margin(DAY_MS // 2)

    def test_near_refuses_a_margin_the_table_does_not_admit(self):
        # The policy that would look an offset up is refused when it is made.
        with pytest.raises(ValueError, match="margin 900001 ms"):
            CorrectnessPolicy(900_001, OffsetTable())
        policy = CorrectnessPolicy(900_000, OffsetTable())
        assert policy.offset_near(offset_millis(3.0)) == 3.0
        assert policy.offset_near(offset_millis(3.0) + 900_000) is None

    def test_wraparound_invariant(self):
        for o in OffsetTable().offsets:
            for k in (-1, 0, 1):
                assert offsets_equal(o + 24 * k, o)

    def test_from_file(self, tmp_path):
        path = tmp_path / "offsets.txt"
        path.write_text("# two candidates\n9\n-3.5\n")
        assert OffsetTable.from_file(path).offsets == (9.0, -3.5)

    def test_from_file_bad_line(self, tmp_path):
        path = tmp_path / "offsets.txt"
        path.write_text("9\nnope\n")
        with pytest.raises(ValueError, match="offsets.txt:2"):
            OffsetTable.from_file(path)

    @pytest.mark.parametrize("text", ["5.75", "inf"])
    def test_from_file_unusable_entry_names_line(self, tmp_path, text):
        path = tmp_path / "offsets.txt"
        path.write_text(f"9\n# a comment\n{text}\n")
        with pytest.raises(ValueError) as info:
            OffsetTable.from_file(path)
        assert str(info.value) == (
            f"{path}:3: offset must be a finite multiple of 0.5 hours: {float(text)}"
        )

    def test_offsets_in_milliseconds(self):
        # Each entry sits at its offset in milliseconds on the day circle.
        policy = CorrectnessPolicy(1, OffsetTable((9.0, -3.5, 12.0)))
        assert policy.offset_near(32_400_000) == 9.0
        assert policy.offset_near(DAY_MS - 12_600_000) == -3.5
        assert policy.offset_near(43_200_000) == 12.0
        default = CorrectnessPolicy(1)
        for o in DEFAULT_OFFSET_HOURS:
            assert default.offset_near(offset_millis(o) % DAY_MS) == o


def test_offsets_equal_identifies_circle_points():
    assert offsets_equal(12, -12)
    assert offsets_equal(-15, 9)
    assert not offsets_equal(9, 8.5)
