"""Depth-gated announcement trigger, debounce, and describer plumbing."""

import numpy as np
import pytest

from crossnav.geometry import FrameId
from crossnav.sentinel import (
    HAZARD_PROMPT,
    ObstacleSighting,
    RoiOutOfBounds,
    RoiSpec,
    SentinelConfig,
    TemplateDescriber,
    Trigger,
    check_trigger,
    default_roi,
    describe,
    roi_min_depth,
)
from crossnav.world import CameraIntrinsics, DepthImage


INTR = CameraIntrinsics.from_fov(64, 48, 60.0, 5.0)


def image(depth):
    return DepthImage(INTR, depth, FrameId.OPTICAL_HUMAN)


def sighting(obstacle_id="lamp", kind="overhead", bearing_deg=0.0, range_m=1.0):
    return ObstacleSighting(obstacle_id, kind, bearing_deg, range_m)


class TestRoiMinDepth:
    def test_matches_nanmin_oracle(self, rng):
        roi = RoiSpec(10, 50, 8, 40)
        for _ in range(20):
            depth = rng.uniform(0.2, 5.0, (48, 64))
            depth[rng.random((48, 64)) < 0.3] = np.nan
            depth[rng.random((48, 64)) < 0.05] = np.inf
            depth[rng.random((48, 64)) < 0.05] = 0.0
            window = depth[8:40, 10:50]
            valid = np.isfinite(window) & (window > 0)
            expect = float(window[valid].min()) if valid.any() else None
            assert roi_min_depth(image(depth), roi) == expect

    def test_empty_window_returns_none(self):
        depth = np.full((48, 64), np.nan)
        assert roi_min_depth(image(depth), RoiSpec(10, 50, 8, 40)) is None

    def test_nonpositive_depths_are_not_returns(self):
        depth = np.full((48, 64), np.nan)
        depth[20, 20] = 0.0
        depth[20, 21] = -1.0
        depth[20, 22] = 2.5
        assert roi_min_depth(image(depth), RoiSpec(10, 50, 8, 40)) == 2.5

    def test_bounds_are_half_open(self):
        depth = np.full((48, 64), 5.0)
        depth[8, 50] = 0.5  # one column past u_max: excluded
        depth[40, 10] = 0.5  # one row past v_max: excluded
        roi = RoiSpec(10, 50, 8, 40)
        assert roi_min_depth(image(depth), roi) == 5.0
        depth[8, 49] = 0.7  # last included column
        assert roi_min_depth(image(depth), roi) == 0.7

    def test_scans_only_the_overlap_with_the_return_box(self):
        # pixels outside the box are never read: a box that misses them hides them
        depth = np.full((48, 64), 3.0)
        depth[20, 30] = 0.4
        roi = RoiSpec(10, 50, 8, 40)
        assert roi_min_depth(DepthImage(INTR, depth, FrameId.OPTICAL_DOG, (20, 21, 30, 31)), roi) == 0.4
        assert roi_min_depth(DepthImage(INTR, depth, FrameId.OPTICAL_DOG, (0, 8, 0, 64)), roi) is None
        assert roi_min_depth(DepthImage(INTR, depth, FrameId.OPTICAL_DOG, (0, 0, 0, 0)), roi) is None
        assert roi_min_depth(DepthImage(INTR, depth, FrameId.OPTICAL_DOG, (39, 48, 49, 64)), roi) == 3.0
        with pytest.raises(RoiOutOfBounds):  # the fit is checked even when the box is empty
            roi_min_depth(DepthImage(INTR, depth, FrameId.OPTICAL_DOG, (0, 0, 0, 0)), RoiSpec(10, 65, 8, 40))

    def test_roi_must_fit_image(self):
        depth = np.full((48, 64), 1.0)
        with pytest.raises(RoiOutOfBounds):
            roi_min_depth(image(depth), RoiSpec(10, 65, 8, 40))
        with pytest.raises(RoiOutOfBounds):
            roi_min_depth(image(depth), RoiSpec(10, 50, 8, 49))

    def test_degenerate_roi_rejected(self):
        with pytest.raises(RoiOutOfBounds):
            RoiSpec(10, 10, 8, 40)
        with pytest.raises(RoiOutOfBounds):
            RoiSpec(-1, 10, 8, 40)


class TestDefaultRoi:
    def test_covers_central_forward_band(self):
        roi = default_roi(INTR)
        assert roi == RoiSpec(19, 45, 24, 38)
        roi.check_fits(INTR)

    def test_scales_with_image_size(self):
        intr = CameraIntrinsics.from_fov(128, 96, 60.0, 5.0)
        roi = default_roi(intr)
        assert (roi.u_min, roi.u_max) == (38, 90)
        assert (roi.v_min, roi.v_max) == (48, 77)


class TestCheckTrigger:
    CFG = SentinelConfig(d_crit=1.2, debounce=0.375)

    def test_fires_below_threshold(self):
        trig = check_trigger(0.9, 1.0, self.CFG, None)
        assert trig == Trigger(1.0, 0.9)

    def test_threshold_is_strict(self):
        assert check_trigger(1.2, 0.0, self.CFG, None) is None
        assert check_trigger(1.2 - 1e-9, 0.0, self.CFG, None) is not None

    def test_no_returns_never_fires(self):
        assert check_trigger(None, 0.0, self.CFG, None) is None

    def test_debounce_window(self):
        assert check_trigger(0.9, 1.0, self.CFG, last_fire=0.8) is None
        # an elapsed window equal to the debounce is enough
        assert check_trigger(0.9, 1.175, self.CFG, last_fire=0.8) is not None

    def test_zero_debounce_fires_every_tick(self):
        cfg = SentinelConfig(d_crit=1.2, debounce=0.0)
        assert check_trigger(0.9, 1.0, cfg, last_fire=1.0) is not None

    def test_timeline_replay(self):
        cfg = SentinelConfig(d_crit=1.2, debounce=0.375)
        dips = [(0.5, 1.25), (2.25, 3.0)]  # closed intervals of close approach

        def depth_at(t):
            return 0.8 if any(a <= t <= b for a, b in dips) else 2.0

        fired = []
        last = None
        for k in range(25):
            t = k * 0.125
            trig = check_trigger(depth_at(t), t, cfg, last)
            if trig is not None:
                fired.append(t)
                last = trig.stamp
        assert fired == [0.5, 0.875, 1.25, 2.25, 2.625, 3.0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SentinelConfig(d_crit=0.0)
        with pytest.raises(ValueError):
            SentinelConfig(debounce=-0.1)


class TestTemplateDescriber:
    def test_reports_nearest_sighting(self):
        text = TemplateDescriber()(
            [
                sighting("bin", "ground", bearing_deg=-20.0, range_m=2.0),
                sighting("lamp", "overhead", bearing_deg=2.0, range_m=1.1),
            ],
            HAZARD_PROMPT,
        )
        assert text == "overhead obstacle lamp ahead, 1.1 meters, center"

    def test_side_words(self):
        def word(bearing):
            return TemplateDescriber()([sighting(bearing_deg=bearing)], "").split()[-1]

        assert word(15.0) == "left"
        assert word(-15.0) == "right"
        assert word(10.0) == "center"  # boundary counts as center
        assert word(-10.0) == "center"
        assert word(0.0) == "center"


class TestDescribe:
    TRIG = Trigger(stamp=4.2, min_depth=0.93)

    def test_empty_frustum_falls_back_to_range_phrase(self):
        event = describe(self.TRIG, [], None)
        assert event.announcement == "obstacle ahead, 0.9 meters"
        assert event.stamp == 4.2 and event.min_depth == 0.93
        assert event.scene_summary == ()

    def test_default_describer_is_the_template(self):
        event = describe(self.TRIG, [sighting("lamp", range_m=0.9)], None)
        assert "lamp" in event.announcement

    def test_describer_receives_the_hazard_prompt(self):
        seen = {}

        def spy(sightings, prompt):
            seen["prompt"] = prompt
            return "ok"

        describe(self.TRIG, [sighting()], spy)
        assert seen["prompt"] == HAZARD_PROMPT

    def test_failing_describer_never_blocks(self):
        def broken(sightings, prompt):
            raise RuntimeError("model offline")

        event = describe(self.TRIG, [sighting()], broken)
        assert event.announcement == ""
        assert event.min_depth == 0.93
