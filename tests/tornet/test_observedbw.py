"""Tests for the observed-bandwidth heuristic (tor-spec §2.1.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tornet.observedbw import HISTORY_DAYS, WINDOW_SECONDS, ObservedBandwidth
from repro.units import DAY


def test_empty_history_reports_zero():
    assert ObservedBandwidth().observed() == 0.0


def test_needs_full_window_to_register():
    ob = ObservedBandwidth()
    for _ in range(WINDOW_SECONDS - 1):
        ob.record_second(100.0)
    assert ob.observed() == 0.0
    ob.record_second(100.0)
    assert ob.observed() == pytest.approx(100.0)


def test_max_of_window_means():
    ob = ObservedBandwidth()
    # A single 1-second spike inside a window of 100s raises the mean by
    # spike/10, not to the spike value.
    for _ in range(WINDOW_SECONDS):
        ob.record_second(100.0)
    ob.record_second(1100.0)
    expected = (9 * 100 + 1100) / WINDOW_SECONDS
    assert ob.observed() == pytest.approx(expected)


def test_observation_expires_after_five_days():
    ob = ObservedBandwidth()
    ob.record_span(500.0, start=0, duration=60)
    assert ob.observed(t=60) == pytest.approx(500.0)
    # Still visible within 5 days.
    assert ob.observed(t=4 * DAY) == pytest.approx(500.0)
    # Gone after the 5-day horizon passes.
    assert ob.observed(t=(HISTORY_DAYS + 1) * DAY) == 0.0


def test_record_span_short_duration_uses_window_path():
    ob = ObservedBandwidth()
    ob.record_span(300.0, start=0, duration=5)
    # 5 seconds is less than the 10-second window: no observation yet.
    assert ob.observed() == 0.0


def test_record_span_long_duration():
    ob = ObservedBandwidth()
    ob.record_span(250.0, start=100, duration=30)
    assert ob.observed(t=130) == pytest.approx(250.0)


def test_idle_gap_clears_window():
    ob = ObservedBandwidth()
    for t in range(1, 6):
        ob.record_second(1000.0, t=t)
    # Jump forward: the partial window must not combine across the gap.
    for t in range(100, 100 + WINDOW_SECONDS):
        ob.record_second(10.0, t=t)
    assert ob.observed() == pytest.approx(10.0)


def test_time_cannot_go_backwards():
    ob = ObservedBandwidth()
    ob.record_second(1.0, t=100)
    with pytest.raises(ValueError):
        ob.record_second(1.0, t=50)


def test_keeps_maximum_across_days():
    ob = ObservedBandwidth()
    ob.record_span(100.0, start=0, duration=60)
    ob.record_span(700.0, start=DAY, duration=60)
    ob.record_span(50.0, start=2 * DAY, duration=60)
    assert ob.observed(t=2 * DAY + 60) == pytest.approx(700.0)


@given(
    rates=st.lists(
        st.floats(min_value=0, max_value=1e9), min_size=10, max_size=100
    )
)
@settings(max_examples=60, deadline=None)
def test_observed_never_exceeds_max_rate(rates):
    ob = ObservedBandwidth()
    for rate in rates:
        ob.record_second(rate)
    assert ob.observed() <= max(rates) + 1e-6


@given(
    rate=st.floats(min_value=1, max_value=1e9),
    duration=st.integers(min_value=WINDOW_SECONDS, max_value=5000),
)
@settings(max_examples=60, deadline=None)
def test_constant_rate_observed_exactly(rate, duration):
    ob = ObservedBandwidth()
    ob.record_span(rate, start=0, duration=duration)
    assert ob.observed(t=duration) == pytest.approx(rate)


_RATES = st.floats(min_value=0, max_value=1e9) | st.sampled_from(
    [0.0, 1.0, 0.1, 1e9]
)


@st.composite
def _observed_states(draw):
    """An ObservedBandwidth mid-history, and the series to record next.

    Day maxima are seeded on earlier days so that some are about to
    expire past ``HISTORY_DAYS`` when the series crosses the next
    ``DAY`` boundary; ``now`` sits just before that boundary; the window
    starts empty, partial or full.
    """
    old_days = draw(
        st.lists(st.integers(min_value=0, max_value=HISTORY_DAYS + 1),
                 unique=True, max_size=4)
    )
    ob = ObservedBandwidth()
    for day in sorted(old_days):
        ob.record_span(draw(_RATES), start=day * DAY, duration=60)
    boundary_day = draw(
        st.integers(min_value=HISTORY_DAYS, max_value=2 * HISTORY_DAYS + 2)
    )
    before_boundary = draw(st.integers(min_value=1, max_value=3 * WINDOW_SECONDS))
    start = max(ob.now + WINDOW_SECONDS, boundary_day * DAY - before_boundary)
    prefill = draw(st.lists(_RATES, max_size=WINDOW_SECONDS + 3))
    if not prefill:
        # A long span ends at ``start`` and leaves the window empty.
        ob.record_span(draw(_RATES), start=start - WINDOW_SECONDS,
                       duration=WINDOW_SECONDS)
    else:
        ob.record_second(prefill[0], t=start)
        for rate in prefill[1:]:
            ob.record_second(rate)
    series = draw(st.lists(_RATES, max_size=4 * WINDOW_SECONDS))
    return ob, series


@given(state=_observed_states())
@settings(max_examples=200, deadline=None)
def test_record_series_matches_record_second_loop(state):
    """record_series leaves exactly the state per-second recording does."""
    import copy

    ob, series = state
    expected = copy.deepcopy(ob)
    for rate in series:
        expected.record_second(rate)
    ob.record_series(series)
    assert list(ob._window) == list(expected._window)
    assert ob._window_sum == expected._window_sum
    assert ob._day_max == expected._day_max
    assert ob._now == expected._now
    assert ob.observed() == expected.observed()
