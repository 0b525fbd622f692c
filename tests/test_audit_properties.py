"""Property tests of the ordered-pair audit kernel against a brute-force
oracle over every ordered pair."""

from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from eulerlab.solver import admissibility_check, ordered_pair_audit  # noqa: E402

# Multiples of 1/8 of modest size: every difference is exact, so ties in the
# series are ties in the gain and both sides must break them identically.
dyadic = st.integers(-64, 64).map(lambda k: k / 8.0)
series = st.lists(dyadic, min_size=1, max_size=24)
budgets = st.integers(0, 40).map(lambda k: k / 8.0)
tolerances = st.integers(0, 40).map(lambda k: k / 8.0)


def oracle(times, values, budget):
    """Worst ``(values[j] - values[i]) - budget`` over all i < j, clamped at
    0; ties go to the earliest j, then to the earliest minimum before it."""
    worst, worst_pair = 0.0, None
    for j in range(1, len(values)):
        i = min(range(j), key=lambda k: (values[k], k))
        gain = (values[j] - values[i]) - budget
        if gain > worst:
            worst, worst_pair = gain, (times[i], times[j])
    assert worst == max(
        [0.0] + [(values[j] - values[i]) - budget
                 for j in range(len(values)) for i in range(j)]
    )
    return worst, worst_pair


@given(series, budgets)
def test_kernel_matches_oracle(values, budget):
    times = [0.5 * k for k in range(len(values))]
    assert ordered_pair_audit(times, values, budget) == oracle(times, values, budget)


@given(series, tolerances)
def test_admissibility_matches_oracle(ledger, tolerance):
    traj = SimpleNamespace(times=[0.25 * k for k in range(len(ledger))], energy_ledger=ledger)
    report = admissibility_check(traj, tolerance)
    worst, worst_pair = oracle(traj.times, ledger, 0.0)
    assert report.max_violation == worst
    assert report.worst_pair == worst_pair
    assert report.passed == (worst <= tolerance)


@given(series, budgets, budgets)
def test_violation_shrinks_with_budget(values, a, b):
    times = list(range(len(values)))
    lo, hi = sorted((a, b))
    assert ordered_pair_audit(times, values, hi)[0] <= ordered_pair_audit(times, values, lo)[0]
