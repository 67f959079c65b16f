import numpy as np
import pytest

import oracles
from irmap import simulator
from irmap.errors import ParameterError
from irmap.features import WINDOW_PAD
from irmap.geometry import box_mesh, layer_mask, voxelize
from irmap.radiometry import forward_counts
from irmap.simulator import (
    ScanParameters,
    ScanPath,
    SpatterEvent,
    SpatterSchedule,
    ThermalParams,
    first_visit_frames,
    generate_scan_path,
    make_spatter_schedule,
    render_frames,
)
from irmap.spatial import PixelGridFrame


def small_mask(size_mm=3.6, layer=0, origin_px=(32.0, 24.0)):
    vox = voxelize(box_mesh((size_mm, size_mm, 0.4)), (360.0, 360.0, 40.0))
    reg = PixelGridFrame(pitch_um=360.0, origin_px=origin_px, dims=(64, 48))
    return layer_mask(vox, layer, reg)


class TestScanPath:
    def test_covers_mask(self):
        mask = small_mask()
        path = generate_scan_path(mask, ScanParameters(), 0)
        dense = mask.pixel_mask()
        visited = np.zeros_like(dense)
        ix = np.clip(np.round(path.x_px).astype(int), 0, 63)
        iy = np.clip(np.round(path.y_px).astype(int), 0, 47)
        visited[iy, ix] = True
        covered = (visited & dense).sum() / dense.sum()
        assert covered > 0.99

    def test_time_accrues_uniformly(self):
        mask = small_mask()
        path = generate_scan_path(mask, ScanParameters(), 0)
        dt = np.diff(path.t_s)
        assert np.allclose(dt, dt[0])
        # speed recovered from step / dt
        assert path.step_mm / dt[0] == pytest.approx(960.0, rel=1e-9)

    def test_rotation_per_layer(self):
        mask = small_mask()
        p0 = generate_scan_path(mask, ScanParameters(), 0)
        p3 = generate_scan_path(small_mask(layer=3), ScanParameters(), 3)
        expect = (p0.orientation_deg + 3 * 66.7) % 180.0
        assert p3.orientation_deg == pytest.approx(expect % 180.0)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            ScanParameters(scan_speed_mm_s=0.0)

    @pytest.mark.parametrize("dx, dy", [(1, 0), (0, 1), (3, -5)])
    def test_pixels_move_with_origin(self, dx, dy):
        # layer 0 hatches along x, so many samples sit on half-pixel ties
        vox = voxelize(box_mesh((3.6, 3.6, 0.4)), (360.0, 360.0, 40.0))
        paths = [
            generate_scan_path(
                layer_mask(vox, 0, PixelGridFrame(360.0, (32.0 + d[0], 24.0 + d[1]), (64, 48))),
                ScanParameters(),
                0,
            )
            for d in ((0, 0), (dx, dy))
        ]
        assert (paths[0].x_px % 1 == 0.5).any()
        (x0, y0), (x1, y1) = (p.pixels() for p in paths)
        assert np.array_equal(x1, x0 + dx) and np.array_equal(y1, y0 + dy)


class TestThermalParams:
    def test_footprint_floor(self):
        with pytest.raises(ParameterError):
            ThermalParams(footprint_px=0.5)

    def test_sigma_from_fwhm(self):
        tp = ThermalParams(footprint_px=2.355)
        assert tp.sigma_px == pytest.approx(1.0, abs=0.01)


class TestRender:
    def test_prescan_frames_are_ambient(self, profile):
        mask = small_mask()
        path = generate_scan_path(mask, ScanParameters(), 0)
        stack, truth = render_frames(
            path, (64, 48), ThermalParams(), profile, noise_percent=0.0
        )
        amb_counts = forward_counts(80.0, profile.emissivity_powder, profile)
        for t in range(3):
            assert np.allclose(stack.frames[t], amb_counts, rtol=1e-6)

    def test_reproducible(self, profile):
        mask = small_mask()
        path = generate_scan_path(mask, ScanParameters(), 0)
        a, _ = render_frames(
            path, (64, 48), ThermalParams(), profile, noise_percent=25.0, seed=7
        )
        b, _ = render_frames(
            path, (64, 48), ThermalParams(), profile, noise_percent=25.0, seed=7
        )
        assert np.array_equal(a.frames, b.frames)
        c, _ = render_frames(
            path, (64, 48), ThermalParams(), profile, noise_percent=25.0, seed=8
        )
        assert not np.array_equal(a.frames, c.frames)

    def test_truth_scan_order_within_stack(self, profile):
        mask = small_mask()
        path = generate_scan_path(mask, ScanParameters(), 0)
        stack, truth = render_frames(path, (64, 48), ThermalParams(), profile)
        s = truth.true_scan_order
        dense = mask.pixel_mask()
        assert (s[dense] >= 3).all()
        assert (s[dense] < len(stack)).all()
        assert (s[~dense] == -1).all()

    def test_peak_normalization(self, profile):
        mask = small_mask()
        path = generate_scan_path(mask, ScanParameters(), 0)
        stack, truth = render_frames(path, (64, 48), ThermalParams(), profile)
        peak = stack.frames.max()
        hot = forward_counts(1200.0, profile.emissivity_powder, profile)
        assert peak <= 65535.0
        assert peak > 0.5 * hot

    def test_window_matches_whole_frame(self, profile):
        mask = small_mask(size_mm=7.2)
        path = generate_scan_path(mask, ScanParameters(), 0)
        sched = make_spatter_schedule(path, mask, 2, seed=5, min_lead_frames=5, clearance_px=4.0)
        rows, cols = mask.window(WINDOW_PAD)
        assert (rows, cols) == (slice(3, 47), slice(11, 55))  # inside the 64x48 frame
        whole, whole_truth = render_frames(
            path, (64, 48), ThermalParams(), profile, spatters=sched, noise_percent=0.0
        )
        part, part_truth = render_frames(
            path, (64, 48), ThermalParams(), profile, spatters=sched, window=(rows, cols)
        )
        assert part.origin == (3, 11)
        assert np.array_equal(part.frames, whole.frames[:, rows, cols])
        assert np.array_equal(part_truth.true_scan_order, whole_truth.true_scan_order)
        assert np.array_equal(part_truth.emissivity_map, whole_truth.emissivity_map)

    def test_emissivity_flips_after_scan(self, profile):
        mask = small_mask()
        path = generate_scan_path(mask, ScanParameters(), 0)
        stack, truth = render_frames(path, (64, 48), ThermalParams(), profile)
        dense = mask.pixel_mask()
        # by the final (tail) frame the whole part has been scanned over
        assert (truth.emissivity_map[dense] == profile.emissivity_printed).all()
        assert (truth.emissivity_map[~dense] == profile.emissivity_powder).all()


class TestSpatterSchedule:
    def test_empty_path_is_a_parameter_error(self, tmp_path):
        from irmap import cli

        cfg = cli.load_config(cli.write_demo(str(tmp_path)))
        vox = cli._voxelize_config(cfg)
        top = vox.dims[2] - 1  # the grid's top layer holds no part
        mask = layer_mask(vox, top, cfg.registration())
        path = generate_scan_path(mask, cfg.scan_params(), top)
        assert len(mask) == 0 and len(path) == 0
        with pytest.raises(ParameterError, match=f"layer {top}: the scan path is empty"):
            make_spatter_schedule(path, mask, cfg.spatter_count)
        assert make_spatter_schedule(path, mask, 0).events == []

    def test_events_land_ahead_of_laser(self, profile):
        mask = small_mask(size_mm=7.2)
        path = generate_scan_path(mask, ScanParameters(), 0)
        sched = make_spatter_schedule(path, mask, 3, seed=5, min_lead_frames=5, clearance_px=4.0)
        assert len(sched.events) == 3
        first = first_visit_frames(path, (64, 48))
        for ev in sched.events:
            x, y = ev.landing_px
            assert first[y, x] >= ev.emit_frame + 5

    def test_spike_visible_in_frames(self, profile):
        mask = small_mask(size_mm=7.2)
        path = generate_scan_path(mask, ScanParameters(), 0)
        sched = make_spatter_schedule(path, mask, 1, peak_dt_c=400.0, seed=5, min_lead_frames=5, clearance_px=4.0)
        with_sp, _ = render_frames(
            path, (64, 48), ThermalParams(), profile, spatters=sched
        )
        without, _ = render_frames(path, (64, 48), ThermalParams(), profile)
        ev = sched.events[0]
        x, y = ev.landing_px
        delta = with_sp.frames[ev.emit_frame, y, x] - without.frames[ev.emit_frame, y, x]
        assert delta > 0

    def test_bad_event_rejected(self):
        with pytest.raises(ParameterError):
            SpatterEvent(emit_frame=0, landing_px=(1, 1), peak_dt_c=-5.0, decay_s=0.1)


def _oracle_cases():
    """name -> (path, render_frames keywords): each covers one way a bump or a
    spatter square meets the edge of what is rendered."""
    mask = small_mask(size_mm=7.2)
    path = generate_scan_path(mask, ScanParameters(), 0)
    n = 3 + int(np.ceil(path.duration_s * 30.0 - 1e-12)) + 35
    x, y = (int(v) for v in np.argwhere(mask.pixel_mask())[40][::-1])
    pair = SpatterSchedule(  # 6 px apart: their 9x9 squares overlap
        [SpatterEvent(9, (x, y), 250.0, 0.15), SpatterEvent(12, (x + 6, y), 400.0, 0.1)]
    )
    last = SpatterSchedule([SpatterEvent(n - 1, (x, y), 250.0, 0.15)])
    corner = small_mask(origin_px=(4.0, 5.0))  # the part touches the frame's corner
    empty = ScanPath(np.empty(0), np.empty(0), np.empty(0), 0.09, 0.0)
    # a frame whose two samples' squares miss the frame, then one half off it
    off = ScanPath(
        np.array([-20.0, -20.5, 3.0]), np.array([5.0, 5.0, 49.0]), np.array([0.001, 0.002, 0.05]), 0.09, 0.0
    )
    return {
        "whole frame": (path, {}),
        "window": (path, {"window": mask.window(WINDOW_PAD), "spatters": pair}),
        "clipped at the window edge": (path, {"window": mask.window(0), "spatters": last}),
        "clipped at the frame edge": (generate_scan_path(corner, ScanParameters(), 1), {}),
        "overlapping spatters": (path, {"spatters": pair}),
        "spatter on the last frame": (path, {"spatters": last}),
        "empty path": (empty, {"spatters": pair}),
        "squares off the frame": (off, {}),
    }


class TestRenderOracle:
    """The array renderer matches the one-deposit-per-sample loop byte for byte."""

    @pytest.mark.parametrize("noise_percent", [0.0, 1.0])
    @pytest.mark.parametrize("case", list(_oracle_cases()))
    def test_matches_loop_renderer(self, profile, monkeypatch, case, noise_percent):
        path, kw = _oracle_cases()[case]
        runs = []
        for temperatures in (simulator._true_temperatures, oracles.true_temperatures):
            kept = []

            def spy(*args, temperatures=temperatures, kept=kept):
                kept.append(temperatures(*args))
                return kept[-1].copy()  # render_frames turns it into counts

            monkeypatch.setattr(simulator, "_true_temperatures", spy)
            stack, gt = render_frames(
                path, (64, 48), ThermalParams(), profile, noise_percent=noise_percent, seed=3, **kw
            )
            runs.append((kept[0], stack, gt))
        (truth, stack, gt), (want_truth, want_stack, want_gt) = runs
        assert truth.dtype == np.float32 and truth.tobytes() == want_truth.tobytes()
        assert stack.frames.tobytes() == want_stack.frames.tobytes()
        assert gt.true_scan_order.tobytes() == want_gt.true_scan_order.tobytes()
        assert gt.emissivity_map.tobytes() == want_gt.emissivity_map.tobytes()

    def test_first_visit_matches_reverse_loop(self):
        path = generate_scan_path(small_mask(size_mm=7.2), ScanParameters(), 2)
        ix, iy = path.pixels()
        assert len(np.unique(iy * 64 + ix)) < len(path)  # pixels are revisited
        want = oracles.first_visit_frames(path, (64, 48))
        assert first_visit_frames(path, (64, 48)).tobytes() == want.tobytes()
