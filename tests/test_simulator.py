import numpy as np
import pytest

import oracles
from irmap import imageops, simulator
from irmap.errors import ParameterError
from irmap.features import WINDOW_PAD
from irmap.geometry import PixelGridFrame, box_mesh, layer_mask, voxelize
from irmap.radiometry import forward_counts
from irmap.simulator import (
    SAMPLES_PER_PIXEL,
    ScanParameters,
    ScanPath,
    SpatterEvent,
    ThermalParams,
    generate_scan_path,
    make_spatter_schedule,
    render_frames,
)
from irmap.store import quantize_counts


WHOLE = (slice(0, 48), slice(0, 64))  # every pixel of the 64x48 camera frame


def small_mask(size_mm=3.6, layer=0, origin_px=(32.0, 24.0)):
    vox = voxelize(box_mesh((size_mm, size_mm, 0.4)), (360.0, 360.0, 40.0))
    reg = PixelGridFrame(pitch_um=360.0, origin_px=origin_px, dims=(64, 48))
    return layer_mask(vox, layer, reg)


@pytest.fixture
def near_spatter(monkeypatch):
    """Spatter allowed 5 frames ahead of and 4 px from the laser, so a small
    part has room for it."""
    monkeypatch.setattr(simulator, "MIN_LEAD_FRAMES", 5)
    monkeypatch.setattr(simulator, "CLEARANCE_PX", 4.0)


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
        """Each layer's hatch lines turn by rotation_per_layer_deg (mod 180):
        consecutive samples of one line are one step apart along it, and no
        jump between lines is that long."""

        def hatch_deg(layer):
            path = generate_scan_path(small_mask(layer=layer), ScanParameters(), layer)
            dx, dy = np.diff(path.x_px), np.diff(path.y_px)
            along = np.isclose(np.hypot(dx, dy), 1.0 / SAMPLES_PER_PIXEL)
            assert along.mean() > 0.5
            return np.degrees(np.arctan2(dy[along], dx[along]))

        for layer in (1, 3):
            turn = hatch_deg(layer) - hatch_deg(0)[0] - layer * 66.7
            assert np.allclose((turn + 90.0) % 180.0 - 90.0, 0.0, atol=1e-6), layer

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

    @pytest.mark.parametrize(
        "ambient, peak", [(80.0, 50.0), (80.0, 80.0), (80.0, -300.0), (np.array([[20.0, 1200.0]]), 1200.0)]
    )
    def test_peak_above_ambient(self, ambient, peak):
        with pytest.raises(ParameterError, match="peak_c must be above ambient_c"):
            ThermalParams(ambient_c=ambient, peak_c=peak)

    def test_sigma_from_fwhm(self):
        tp = ThermalParams(footprint_px=2.355)
        assert tp.sigma_px == pytest.approx(1.0, abs=0.01)


class TestRender:
    def test_prescan_frames_are_ambient(self, profile):
        mask = small_mask()
        path = generate_scan_path(mask, ScanParameters(), 0)
        stack, truth = render_frames(
            path, (64, 48), ThermalParams(), profile, [], WHOLE, noise_percent=0.0
        )
        amb_counts = quantize_counts(forward_counts(80.0, profile.emissivity_powder, profile))
        for t in range(3):
            assert np.array_equal(stack.frames[t], np.full(stack.shape, amb_counts))

    def test_reproducible(self, profile):
        mask = small_mask()
        path = generate_scan_path(mask, ScanParameters(), 0)
        a, _ = render_frames(
            path, (64, 48), ThermalParams(), profile, [], WHOLE, noise_percent=25.0, seed=7
        )
        b, _ = render_frames(
            path, (64, 48), ThermalParams(), profile, [], WHOLE, noise_percent=25.0, seed=7
        )
        assert np.array_equal(a.frames, b.frames)
        c, _ = render_frames(
            path, (64, 48), ThermalParams(), profile, [], WHOLE, noise_percent=25.0, seed=8
        )
        assert not np.array_equal(a.frames, c.frames)

    def test_truth_scan_order_within_stack(self, profile):
        mask = small_mask()
        path = generate_scan_path(mask, ScanParameters(), 0)
        stack, truth = render_frames(path, (64, 48), ThermalParams(), profile, [], WHOLE)
        s = truth.true_scan_order
        dense = mask.pixel_mask()
        assert (s[dense] >= 3).all()
        assert (s[dense] < len(stack)).all()
        assert (s[~dense] == -1).all()

    def test_peak_normalization(self, profile):
        mask = small_mask()
        path = generate_scan_path(mask, ScanParameters(), 0)
        stack, truth = render_frames(path, (64, 48), ThermalParams(), profile, [], WHOLE)
        peak = stack.frames.max()
        hot = forward_counts(1200.0, profile.emissivity_powder, profile)
        assert peak <= 65535.0
        assert peak > 0.5 * hot

    def test_window_matches_whole_frame(self, profile, near_spatter):
        mask = small_mask(size_mm=7.2)
        path = generate_scan_path(mask, ScanParameters(), 0)
        sched = make_spatter_schedule(path, mask, 2, 250.0, 0.15, seed=5)
        rows, cols = mask.window(WINDOW_PAD)
        assert (rows, cols) == (slice(3, 47), slice(11, 55))  # inside the 64x48 frame
        whole, whole_truth = render_frames(
            path, (64, 48), ThermalParams(), profile, sched, WHOLE, noise_percent=0.0
        )
        part, part_truth = render_frames(
            path, (64, 48), ThermalParams(), profile, sched, (rows, cols)
        )
        assert part.origin == (3, 11)
        assert np.array_equal(part.frames, whole.frames[:, rows, cols])
        assert np.array_equal(part_truth.true_scan_order, whole_truth.true_scan_order)

    def test_emissivity_flips_after_scan(self, profile):
        """By the final (tail) frame the whole part has been scanned over and
        has cooled to ambient: at noise 0 it reads the as-printed ambient
        count, and the powder around it the powder ambient count."""
        mask = small_mask()
        path = generate_scan_path(mask, ScanParameters(), 0)
        stack, _ = render_frames(path, (64, 48), ThermalParams(), profile, [], WHOLE, noise_percent=0.0)
        dense = mask.pixel_mask()
        last = stack.frames[-1]
        assert last.shape == dense.shape  # a whole-frame render's window is the frame
        for eps, pixels in ((profile.emissivity_printed, dense), (profile.emissivity_powder, ~dense)):
            assert (last[pixels] == quantize_counts(forward_counts(80.0, eps, profile))).all()


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
            make_spatter_schedule(path, mask, cfg.spatter_count, 250.0, 0.15)
        assert make_spatter_schedule(path, mask, 0, 250.0, 0.15) == []

    def test_unplaceable_schedule_fails_before_drawing(self, monkeypatch):
        mask = small_mask()  # scanned in a few frames: no pixel is 20 frames ahead of any emit frame
        path = generate_scan_path(mask, ScanParameters(), 0)
        fr = 3 + np.floor(path.t_s * 30.0)
        assert fr.max() < 3 + 2 + 20
        with pytest.raises(ParameterError, match="could only place 0 of 4 spatter events"):
            oracles.make_spatter_schedule(path, mask, 4)

        class NoDraws:
            def __init__(self, seed):
                pass

            def integers(self, *args):
                raise AssertionError("a spatter draw was made")

        monkeypatch.setattr(np.random, "default_rng", NoDraws)
        with pytest.raises(ParameterError, match="^layer 0: could only place 0 of 4 spatter events$"):
            make_spatter_schedule(path, mask, 4, 250.0, 0.15)

    def test_events_land_ahead_of_laser(self, profile, near_spatter):
        mask = small_mask(size_mm=7.2)
        path = generate_scan_path(mask, ScanParameters(), 0)
        sched = make_spatter_schedule(path, mask, 3, 250.0, 0.15, seed=5)
        assert len(sched) == 3
        first = oracles.first_visit_frames(path, (64, 48))
        for ev in sched:
            x, y = ev.landing_px
            assert first[y, x] >= ev.emit_frame + 5

    def test_spike_visible_in_frames(self, profile, near_spatter):
        mask = small_mask(size_mm=7.2)
        path = generate_scan_path(mask, ScanParameters(), 0)
        sched = make_spatter_schedule(path, mask, 1, 400.0, 0.15, seed=5)
        with_sp, _ = render_frames(path, (64, 48), ThermalParams(), profile, sched, WHOLE)
        without, _ = render_frames(path, (64, 48), ThermalParams(), profile, [], WHOLE)
        ev = sched[0]
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
    # 6 px apart: their 9x9 squares overlap
    pair = [SpatterEvent(9, (x, y), 250.0, 0.15), SpatterEvent(12, (x + 6, y), 400.0, 0.1)]
    last = [SpatterEvent(n - 1, (x, y), 250.0, 0.15)]
    corner = small_mask(origin_px=(4.0, 5.0))  # the part touches the frame's corner
    empty = ScanPath(np.empty(0), np.empty(0), np.empty(0), 0.09)
    # a frame whose two samples' squares miss the frame, then one half off it
    off = ScanPath(
        np.array([-20.0, -20.5, 3.0]), np.array([5.0, 5.0, 49.0]), np.array([0.001, 0.002, 0.05]), 0.09
    )
    cases = {
        "whole frame": (path, {}),
        "window": (path, {"window": mask.window(WINDOW_PAD), "spatters": pair}),
        "clipped at the window edge": (path, {"window": mask.window(0), "spatters": last}),
        "clipped at the frame edge": (generate_scan_path(corner, ScanParameters(), 1), {}),
        "overlapping spatters": (path, {"spatters": pair}),
        "spatter on the last frame": (path, {"spatters": last}),
        "empty path": (empty, {"spatters": pair}),
        "squares off the frame": (off, {}),
    }
    return {name: (p, {"spatters": [], "window": WHOLE, **kw}) for name, (p, kw) in cases.items()}


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
        assert gt.origin == want_gt.origin


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The demo build's config and voxel grid."""
    from irmap import cli

    cfg = cli.load_config(cli.write_demo(str(tmp_path_factory.mktemp("demo"))))
    return cfg, cli._voxelize_config(cfg)


def _scan_cases(demo):
    """name -> (mask, layer): the 20 demo layers, then one mask for each way a
    part meets the stripes, the registration origin or the frame edge."""
    cfg, vox = demo
    cases = {f"demo layer {k}": (layer_mask(vox, k, cfg.registration()), k) for k in range(20)}
    top = vox.dims[2] - 1  # the grid's top layer holds no part
    cases["empty mask"] = (layer_mask(vox, top, cfg.registration()), top)
    for layer in (0, 1, 5):
        for kind, origin in (("odd", (33.0, 25.0)), ("fractional", (32.5, 23.25))):
            cases[f"{kind} origin, layer {layer}"] = (small_mask(7.2, layer, origin), layer)
    cases["narrower than a stripe"] = (small_mask(size_mm=3.6), 0)
    wide = voxelize(box_mesh((36.0, 7.2, 0.4)), (360.0, 360.0, 40.0))
    cases["wider than three stripes"] = (layer_mask(wide, 0, PixelGridFrame(360.0, (64.0, 24.0), (128, 48))), 0)
    cases["touching the frame edge"] = (small_mask(7.2, 1, (9.0, 9.0)), 1)
    return cases


class TestScanPathOracle:
    """The array scan path matches the one-line-at-a-time loop byte for byte."""

    def test_matches_line_loop(self, demo):
        stripes = {}
        for name, (mask, layer) in _scan_cases(demo).items():
            params = ScanParameters()
            path, want = generate_scan_path(mask, params, layer), oracles.generate_scan_path(mask, params, layer)
            for got, exp in ((path.x_px, want.x_px), (path.y_px, want.y_px), (path.t_s, want.t_s)):
                assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes(), name
            assert (path.step_mm, path.origin_px) == (want.step_mm, want.origin_px), name
            stripes[name] = np.ptp(path.x_px) * mask.registration.pitch_um / 1000 if len(path) else 0.0
        # layer 0 hatches along x, so its stripes split the part's x extent
        assert stripes["narrower than a stripe"] < 10.0 < 30.0 < stripes["wider than three stripes"]
        assert stripes["empty mask"] == 0.0
        edge, _ = _scan_cases(demo)["touching the frame edge"]
        assert edge.pixel_mask()[0].any() and edge.pixel_mask()[:, 0].any()


class TestFrameBlocks:
    """Counts and noise converted a block of frames at a time match the
    one-frame-at-a-time loop, whatever the block size."""

    @pytest.mark.parametrize("noise_percent", [0.0, 1.0])
    @pytest.mark.parametrize("case", list(_oracle_cases()))
    def test_matches_frame_loop(self, profile, monkeypatch, case, noise_percent):
        path, kw = _oracle_cases()[case]
        args = (path, (64, 48), ThermalParams(), profile)
        kw = dict(kw, noise_percent=noise_percent, seed=3)
        want, want_gt = oracles.render_frames(*args, **kw)
        n = len(want)
        divisor = next(d for d in range(2, n + 1) if n % d == 0)
        other = next(d for d in range(2, n) if n % d)
        for block in sorted({1, divisor, other, imageops.CHUNK_FRAMES, n + 5}):
            monkeypatch.setattr(imageops, "CHUNK_FRAMES", block)
            stack, gt = render_frames(*args, **kw)
            assert stack.frames.tobytes() == want.frames.tobytes(), block
            assert (stack.origin, stack.fps, stack.layer) == (want.origin, want.fps, want.layer)
            assert gt.scan_order.tobytes() == want_gt.scan_order.tobytes()
            assert gt.spatter_events == want_gt.spatter_events


class TestSpatterScheduleOracle:
    """Candidates taken from the visited pixels pick the same events as the
    camera-frame candidate list."""

    def test_demo_layers(self, demo):
        cfg, vox = demo
        for layer in range(20):
            mask = layer_mask(vox, layer, cfg.registration())
            path = generate_scan_path(mask, cfg.scan_params(), layer)
            kw = dict(
                peak_dt_c=cfg.spatter_peak_dt_c,
                decay_s=cfg.spatter_decay_s,
                seed=cfg.seed + 7919 * layer,
            )
            assert make_spatter_schedule(path, mask, 10, **kw) == oracles.make_spatter_schedule(
                path, mask, 10, **kw
            ), layer

    def test_small_masks(self, demo, near_spatter):
        placed = 0
        for name, (mask, layer) in _scan_cases(demo).items():
            if name.startswith("demo") or not len(mask):
                continue
            path = generate_scan_path(mask, ScanParameters(), layer)
            for seed in range(4):
                try:
                    want = oracles.make_spatter_schedule(
                        path, mask, 3, seed=seed, min_lead_frames=5, clearance_px=4.0
                    )
                except ParameterError as exc:
                    with pytest.raises(ParameterError, match=str(exc)):
                        make_spatter_schedule(path, mask, 3, 250.0, 0.15, seed=seed)
                else:
                    assert make_spatter_schedule(path, mask, 3, 250.0, 0.15, seed=seed) == want, name
                    placed += 1
        assert placed >= 30  # of 40
