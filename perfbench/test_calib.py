"""Tests of the machine-speed calibration.  Run with ``python3 -m pytest perfbench``."""

import time

import pytest

import calib


def test_calibrated_time_is_wall_time_at_step_speed():
    # the machine ran at half the step's defined speed
    assert calib.calibrated(2.0, [2 * calib.SMALL_STEP_S, 2 * calib.SMALL_STEP_S]) == pytest.approx(1.0)
    # the speed is the mean over the samples
    assert calib.calibrated(1.0, [calib.SMALL_STEP_S, 3 * calib.SMALL_STEP_S]) == pytest.approx(0.5)


def test_dense_steps_calibrate_to_their_own_nominal():
    assert calib.calibrated(1.0, [2 * calib.DENSE_STEP_S], calib.DENSE_STEP_S) == pytest.approx(0.5)
    ref = calib.Reference()
    with ref.timed("dense") as t:
        time.sleep(0.01)
    assert len(ref.per_step) == 2
    assert t.seconds == pytest.approx(calib.calibrated(t.wall, ref.per_step, calib.DENSE_STEP_S))


def test_start_is_rescaled_by_its_own_reference_import():
    assert calib.calibrated_start(1.0, 2 * calib.IMPORT_S) == pytest.approx(0.5)


def test_sampled_steps_are_taken_out_of_the_wall_time():
    ref = calib.Reference()
    with ref.timed("sampled") as t:
        end = time.perf_counter() + 4 * calib.SAMPLE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(ref.per_step) >= 4  # one at each end and at least two while the body ran
    assert t.wall < 4 * calib.SAMPLE_EVERY_S
    assert t.seconds > 0


def test_child_work_is_bracketed():
    ref = calib.Reference()
    with ref.timed("bracketed") as t:
        time.sleep(0.01)
    assert t.wall >= 0.01 and len(ref.per_step) == 2


def test_uncalibrated_time_is_the_wall_time():
    ref = calib.Reference()
    with ref.timed("none") as t:
        time.sleep(0.01)
    assert t.seconds == t.wall >= 0.01
    assert ref.per_step == [] and ref.median_step() == 0.0


def test_unknown_mode_is_refused():
    with pytest.raises(ValueError):
        with calib.Reference().timed("fastest"):
            pass
