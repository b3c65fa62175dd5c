"""CU arithmetic on synthetic timings."""

import pytest

from perfbench import calibrate


def test_headline_divides_total_wall_by_mean_calibration():
    walls = [0.1, 0.2, 0.3]
    cals = [1e-6, 1e-6, 1e-6, 1e-6]
    ops = [1000, 1000, 1000]
    assert calibrate.cu_seconds(cals) == pytest.approx(1e-6)
    assert calibrate.cu_per_op(walls, cals, ops) == pytest.approx(200.0)


def test_each_slice_is_measured_against_its_own_bracket():
    # Slice 0 sits between samples 1 and 3 (yardstick 2), slice 1
    # between 3 and 5 (yardstick 4).
    values = calibrate.slice_cu_per_op([8.0, 8.0], [1.0, 3.0, 5.0], [2, 2])
    assert values == pytest.approx([2.0, 1.0])
    assert calibrate.cu_per_op_p50([8.0, 8.0], [1.0, 3.0, 5.0], [2, 2]) \
        == pytest.approx(1.5)


def test_a_uniformly_slower_machine_changes_nothing():
    walls = [0.11, 0.19, 0.32, 0.20]
    cals = [1.0e-6, 1.2e-6, 0.9e-6, 1.1e-6, 1.0e-6]
    ops = [5000] * 4
    slow = 1.7
    for fn in (calibrate.cu_per_op, calibrate.cu_per_op_p50):
        assert fn([w * slow for w in walls], [c * slow for c in cals], ops) \
            == pytest.approx(fn(walls, cals, ops))


def test_a_slow_second_moves_the_median_less_than_the_headline():
    walls = [0.1] * 9
    cals = [1e-6] * 10
    ops = [1000] * 9
    # The machine halves its speed during slice 4 and its two samples.
    walls[4] *= 2
    cals[4] *= 2
    cals[5] *= 2
    p50 = calibrate.cu_per_op_p50(walls, cals, ops)
    assert p50 == pytest.approx(100.0)
    assert calibrate.cu_per_op(walls, cals, ops) != pytest.approx(100.0)


def test_bracket_count_is_checked():
    with pytest.raises(ValueError, match="calibration samples"):
        calibrate.slice_cu_per_op([1.0, 1.0], [1.0, 1.0], [1, 1])


def test_calibration_pass_times_a_fixed_loop():
    wall, cpu = calibrate.calibration_pass(iterations=2000)
    assert 0 < wall < 1e-3 and 0 < cpu < 1e-3
