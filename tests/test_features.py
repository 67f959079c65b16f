from collections import Counter

import numpy as np
import pytest

import oracles
from irmap import imageops
from irmap.errors import NoPrescanError, ParameterError
from irmap.features import (
    WINDOW_PAD,
    FeatureId,
    FeatureParams,
    LayerStack,
    activity_threshold,
    asprinted_laplacian,
    cooling_rate,
    extract_layer,
    heat_intensity_and_scan_order,
    interpass,
    interpass_laplacian,
    local_predeposition,
    max_predeposition,
    melt_pool_area,
    melt_threshold,
)
from irmap.geometry import PixelGridFrame, box_mesh, layer_mask, map_layer_feature, voxelize
from irmap.radiometry import (
    background_counts,
    forward_counts,
    invert_counts,
    invert_counts_array,
)
from irmap.simulator import ScanParameters, ThermalParams, generate_scan_path, render_frames
from irmap.store import read_layer_stack, write_layer_stack


def counts(t_c, profile, eps=None):
    e = eps if eps is not None else profile.emissivity_powder
    return forward_counts(t_c, e, profile)


def ambient_stack(profile, n=50, shape=(16, 16), ambient=80.0):
    c = counts(ambient, profile)
    return np.full((n,) + shape, c)


def box_layer(size_mm, origin_px, dims):
    """Layer 0 mask of a one-layer box part registered at `origin_px`."""
    vox = voxelize(box_mesh((size_mm, size_mm, 0.04)), (360.0, 360.0, 40.0))
    return layer_mask(vox, 0, PixelGridFrame(pitch_um=360.0, origin_px=origin_px, dims=dims))


def rendered_window(profile, noise_percent=1.0):
    """A 7.2 mm box layer rendered with camera noise: its mask and part-window stack."""
    mask = box_layer(7.2, (32.0, 24.0), (64, 48))
    path = generate_scan_path(mask, ScanParameters(), 0)
    stack, _ = render_frames(
        path, (64, 48), ThermalParams(), profile, [], mask.window(WINDOW_PAD),
        noise_percent=noise_percent, seed=3,
    )
    return mask, stack


class TestInterpass:
    def test_prescan_mean_recovers_temperature(self, profile):
        frames = ambient_stack(profile, n=10)
        stack = LayerStack(frames=frames, fps=30.0)
        out = interpass(stack, profile)
        assert np.allclose(out.grid, 80.0, atol=0.01)
        assert out.validity.all()

    def test_caps_at_three_frames(self, profile):
        frames = ambient_stack(profile, n=10)
        frames[3:] = counts(90.0, profile)  # warm drift after the cap
        stack = LayerStack(frames=frames, fps=30.0)
        out = interpass(stack, profile)
        assert np.allclose(out.grid, 80.0, atol=0.01)

    def test_laser_in_frame_zero_rejected(self, profile):
        frames = ambient_stack(profile, n=5)
        frames[0, 8, 8] = counts(1200.0, profile)
        with pytest.raises(NoPrescanError):
            interpass(LayerStack(frames=frames, fps=30.0), profile)


class TestScanOrder:
    def test_peak_frame_recovered(self, profile):
        frames = ambient_stack(profile, n=20)
        hot = counts(1200.0, profile)
        frames[7, 4, 4] = hot
        frames[12, 9, 9] = hot
        stack = LayerStack(frames=frames, fps=30.0)
        intensity, order = heat_intensity_and_scan_order(stack, profile)
        assert order.grid[4, 4] == 7
        assert order.grid[9, 9] == 12
        assert intensity.grid[4, 4] == hot
        assert not order.validity[0, 0]  # never above activity threshold

    def test_unscanned_pixels_flagged(self, profile):
        frames = ambient_stack(profile, n=5)
        _, order = heat_intensity_and_scan_order(
            LayerStack(frames=frames, fps=30.0), profile
        )
        assert not order.validity.any()


class TestPredeposition:
    def make_stack(self, profile):
        frames = ambient_stack(profile, n=40)
        hot = counts(1200.0, profile)
        frames[25, 8, 8] = hot  # scan at frame 25
        # pre-deposition spike at frame 10, gone by frame 14 (decays < 10 frames)
        frames[10:14, 8, 8] = counts(300.0, profile)
        stack = LayerStack(frames=frames, fps=30.0)
        _, order = heat_intensity_and_scan_order(stack, profile)
        return stack, order

    def test_local_misses_early_spike(self, profile):
        stack, order = self.make_stack(profile)
        local = local_predeposition(stack, order, profile, offset=10)
        # frame 25 - 10 = 15: spike already decayed
        assert local.grid[8, 8] == pytest.approx(80.0, abs=0.1)

    def test_max_catches_early_spike(self, profile):
        stack, order = self.make_stack(profile)
        mx = max_predeposition(stack, order, profile, offset=10)
        assert mx.grid[8, 8] == pytest.approx(300.0, abs=0.1)

    def test_max_dominates_local(self, profile):
        # a rendered window also holds the scanned pixels around the part
        for stack in (self.make_stack(profile)[0], rendered_window(profile)[1]):
            _, order = heat_intensity_and_scan_order(stack, profile)
            local = local_predeposition(stack, order, profile, offset=10)
            mx = max_predeposition(stack, order, profile, offset=10)
            both = local.validity & mx.validity
            assert both.any()
            assert (mx.grid[both] >= local.grid[both] - 1e-9).all()

    def test_scan_before_offset_reads_frame_0(self, profile):
        """A pixel scanned before frame `offset` reads frame 0 in both
        extractors, not the warmer frames between frame 0 and its scan."""
        frames = ambient_stack(profile, n=40)
        frames[0, 2, 2] = counts(95.0, profile)
        frames[1:4, 2, 2] = counts(120.0, profile)
        frames[4, 2, 2] = counts(1200.0, profile)
        stack = LayerStack(frames=frames, fps=30.0)
        _, order = heat_intensity_and_scan_order(stack, profile)
        assert order.grid[2, 2] == 4
        frame_0 = invert_counts(frames[0, 2, 2], profile.emissivity_powder, profile)
        for extractor in (local_predeposition, max_predeposition):
            assert extractor(stack, order, profile, offset=10).grid[2, 2] == frame_0


class TestMatchLoopOracles:
    """The gather extractors equal `oracles`' per-frame loops byte for byte."""

    @staticmethod
    def assert_same(stack, profile):
        _, order = heat_intensity_and_scan_order(stack, profile)
        pairs = (
            (local_predeposition, oracles.local_predeposition, 10),
            (cooling_rate, oracles.cooling_rate, 30),
        )
        for extractor, oracle, arg in pairs:
            got = extractor(stack, order, profile, arg)
            want = oracle(stack, order, profile, arg)
            assert got.validity.any() and not got.validity.all()
            assert np.array_equal(got.validity, want.validity)
            assert got.grid.tobytes() == want.grid.tobytes()

    @pytest.mark.parametrize("noise_percent", [0.0, 1.0])
    def test_rendered_window(self, profile, noise_percent):
        self.assert_same(rendered_window(profile, noise_percent)[1], profile)

    def test_u16_stack_read_back(self, profile, tmp_path):
        path = str(tmp_path / "layer_0000.irfs")
        window = rendered_window(profile)[1]
        write_layer_stack(path, window.frames, window.fps)
        (h, w) = window.shape
        frames, fps = read_layer_stack(path, (slice(0, h), slice(0, w)), (w, h))
        assert frames.dtype == np.dtype("<u2")
        self.assert_same(LayerStack(frames, fps), profile)


def random_u16_stack(rng, profile):
    """A small u16 stack with a few scanned pixels over a background of
    counts below the powder floor (0-198), counts that invert below the
    reflected temperature (199-375) or warmer powder; some stacks use few
    levels, so counts repeat across frames, and some have no lit frame."""
    n, h, w = int(rng.integers(1, 25)), int(rng.integers(2, 7)), int(rng.integers(2, 7))
    frames = rng.integers(0, rng.choice([199, 376, 1000]), size=(n, h, w))
    if rng.random() < 0.3:
        frames = frames // 60 * 60
    hot = int(activity_threshold(profile)) + 1
    scanned = int(rng.integers(0, h * w)) if rng.random() < 0.8 else 0
    for _ in range(scanned):
        t, y, x = rng.integers(0, n), rng.integers(0, h), rng.integers(0, w)
        frames[t, y, x] = rng.choice([hot, 40000])
    return frames.astype(np.uint16)


class TestWholeStackReductions:
    """The whole-stack heat intensity, interpass and maximum pre-deposition
    equal `oracles`' per-frame loops byte for byte."""

    def test_inversion_increases_with_counts(self, profile):
        # the premise of `max_predeposition`: the maximum count inverts to
        # the maximum temperature
        temps, valid = invert_counts_array(np.arange(65536), profile.emissivity_powder, profile)
        assert valid.argmax() == 199 and (np.diff(temps[valid]) > 0).all()

    def test_random_u16_stacks(self, profile, rng):
        eps = profile.emissivity_powder
        floor = background_counts(eps, profile)
        reflected = forward_counts(profile.reflected_temperature_c, eps, profile)
        seen = Counter()
        for _ in range(300):
            stack = LayerStack(random_u16_stack(rng, profile), layer=int(rng.integers(0, 20)))
            got = imageops.fold_max_argmax(stack.frames)
            want = oracles.fold_max_argmax(stack.frames)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

            _, order = heat_intensity_and_scan_order(stack, profile)
            offset = int(rng.choice([0, 3, 10]))
            pairs = [
                (
                    max_predeposition(stack, order, profile, offset),
                    oracles.max_predeposition(stack, order, profile, offset),
                )
            ]
            try:
                want_interpass = oracles.interpass(stack, profile)
            except NoPrescanError:
                with pytest.raises(NoPrescanError, match=f"^layer {stack.layer}: laser"):
                    interpass(stack, profile)
                seen["lit in frame 0"] += 1
            else:
                pairs.append((interpass(stack, profile), want_interpass))
            for new, old in pairs:
                assert np.array_equal(new.validity, old.validity)
                assert new.grid.tobytes() == old.grid.tobytes()

            f, s = stack.frames, order.grid[order.validity]
            seen["below floor"] += bool((f <= floor).any())
            seen["below reflected"] += bool(((f > floor) & (f < reflected)).any())
            seen["tie"] += bool(((f == f.max(axis=0)).sum(axis=0) > 1).any())
            seen["target frame 0"] += bool((s - offset <= 0).any())
            seen["unscanned"] += not order.validity.all()
            seen["no lit frame"] += not order.validity.any()
        assert len(seen) == 7 and min(seen.values()) >= 20, seen


class TestMeltPool:
    def test_area_written_at_laser_pixels(self, profile):
        frames = ambient_stack(profile, n=20)
        hot = counts(1600.0, profile)
        frames[6, 4, 4] = hot
        frames[6, 4, 5] = hot
        frames[9, 10, 10] = hot
        stack = LayerStack(frames=frames, fps=30.0)
        _, order = heat_intensity_and_scan_order(stack, profile)
        area = melt_pool_area(stack, order, profile)
        assert area.grid[4, 4] == 2.0
        assert area.grid[4, 5] == 2.0
        assert area.grid[10, 10] == 1.0

    def test_isolated_hot_pixel_not_counted(self, profile):
        frames = ambient_stack(profile, n=20)
        frames[6, 4:6, 4:6] = counts(1600.0, profile)  # melt spot scanned in frame 6
        # far from the spot, above the melt threshold but never "scanned"
        frames[6, 12, 12] = 0.5 * (melt_threshold(profile) + activity_threshold(profile))
        stack = LayerStack(frames=frames, fps=30.0)
        _, order = heat_intensity_and_scan_order(stack, profile)
        area = melt_pool_area(stack, order, profile)
        assert area.grid[4, 4] == 4.0
        assert not area.validity[12, 12]


class TestCoolingRate:
    def test_exponential_closed_form(self, profile):
        n, fps, window = 70, 30.0, 30
        t0, tau_s, amb = 25, 0.4, 80.0
        peak_dt = 900.0
        k = np.arange(n, dtype=np.float64)
        eps = profile.emissivity_printed
        temp = amb + peak_dt * np.exp(-np.maximum(k - t0, 0.0) / (tau_s * fps))
        temp[:t0] = amb
        frames = np.empty((n, 8, 8))
        for i in range(n):
            frames[i] = counts(temp[i], profile, eps=eps)
        # make the peak cross the activity threshold at powder emissivity too
        stack = LayerStack(frames=frames, fps=fps)
        _, order = heat_intensity_and_scan_order(stack, profile)
        assert order.validity.all()
        out = cooling_rate(stack, order, profile, window=window)
        expect = (temp[t0] - temp[t0 + window]) * fps / window
        assert out.validity.all()
        assert np.allclose(out.grid, expect, rtol=0.005)

    def test_incomplete_window_invalid_not_zero(self, profile):
        frames = ambient_stack(profile, n=20)
        frames[15, 3, 3] = counts(1200.0, profile)
        stack = LayerStack(frames=frames, fps=30.0)
        _, order = heat_intensity_and_scan_order(stack, profile)
        out = cooling_rate(stack, order, profile, window=30)
        assert not out.validity[3, 3]
        assert np.isnan(out.grid[3, 3])


class TestLaplacians:
    def test_streak_stands_out(self, profile):
        rngl = np.random.default_rng(3)
        grid = 80.0 + rngl.normal(0.0, 0.05, size=(48, 48))
        grid[20:23, 5:43] += 40.0  # bare-metal streak reads hot
        from irmap.features import FeatureMap

        ip = FeatureMap(
            feature_id=FeatureId.INTERPASS,
            layer=0,
            grid=grid,
            validity=np.ones_like(grid, dtype=bool),
        )
        out = interpass_laplacian(ip)
        streak = np.zeros_like(grid, dtype=bool)
        streak[19:24, 6:42] = True
        bg = np.abs(out.grid[~streak])
        assert np.abs(out.grid[streak]).max() >= 10.0 * np.median(bg)

    def test_constant_offset_rejected(self, profile):
        rngl = np.random.default_rng(4)
        temp = 150.0 + 30.0 * rngl.random((24, 24))
        eps = profile.emissivity_printed
        f1 = np.vectorize(lambda t: forward_counts(t, eps, profile))(temp)
        f2 = np.vectorize(lambda t: forward_counts(t, eps, profile))(temp + 50.0)
        s1 = LayerStack(frames=f1[None], fps=30.0)
        s2 = LayerStack(frames=f2[None], fps=30.0)
        g1 = asprinted_laplacian(s1, profile).grid
        g2 = asprinted_laplacian(s2, profile).grid
        assert np.abs(g2 - g1).max() <= 1e-6


class TestExtractLayer:
    def test_all_feature_ids_present(self, profile):
        frames = ambient_stack(profile, n=60)
        hot = counts(1200.0, profile)
        for t, (y, x) in enumerate([(4, 4), (4, 5), (5, 4), (5, 5)]):
            frames[10 + t, y, x] = hot
        stack = LayerStack(frames=frames, fps=30.0)
        result = extract_layer(stack, profile, box_layer(0.72, (4.0, 4.0), (16, 16)), FeatureParams())
        assert set(result.maps) == set(FeatureId)

    def test_values_kept_at_part_pixels(self, profile):
        mask, stack = rendered_window(profile)
        result = extract_layer(stack, profile, mask, FeatureParams())
        part = mask.pixel_mask()
        for fid, values in result.values.items():
            assert values.shape == (len(mask),) and values.dtype == np.float64
            fmap = result.maps[fid]
            assert fmap.grid.shape == part.shape
            assert np.isnan(fmap.grid[~part]).all() and not fmap.validity[~part].any()
            assert np.array_equal(fmap.grid[mask.pix_y, mask.pix_x], values, equal_nan=True)
            assert np.array_equal(fmap.validity, ~np.isnan(fmap.grid))

    @pytest.mark.parametrize("shift", [(13, 0), (-13, 0), (0, 13), (0, -13)])
    def test_mask_outside_window_rejected(self, profile, shift):
        mask = box_layer(7.2, (32.0, 24.0), (64, 48))
        rows, cols = mask.window(WINDOW_PAD)
        assert (rows, cols) == (slice(3, 47), slice(11, 55))  # WINDOW_PAD px around the part
        frames = np.zeros((1, rows.stop - rows.start, cols.stop - cols.start))
        origin = (rows.start + shift[0], cols.start + shift[1])
        with pytest.raises(ParameterError, match="outside"):
            extract_layer(LayerStack(frames, origin=origin), profile, mask, FeatureParams())

    # with noise, the interpass field and both Laplacians vary across the part
    @pytest.mark.parametrize("noise_percent", [0.0, 1.0])
    def test_part_window_stores_whole_frame_values(self, profile, noise_percent):
        vox = voxelize(box_mesh((7.2, 7.2, 0.08)), (360.0, 360.0, 40.0))
        reg = PixelGridFrame(pitch_um=360.0, origin_px=(32.0, 24.0), dims=(64, 48))
        mask = layer_mask(vox, 0, reg)
        path = generate_scan_path(mask, ScanParameters(), 0)
        whole, _ = render_frames(
            path, (64, 48), ThermalParams(), profile, [], (slice(0, 48), slice(0, 64)),
            noise_percent=noise_percent, seed=3,
        )
        rows, cols = mask.window(WINDOW_PAD)
        assert (rows, cols) == (slice(3, 47), slice(11, 55))  # inside the 64x48 frame
        part = LayerStack(
            frames=whole.frames[:, rows, cols], fps=whole.fps, origin=(rows.start, cols.start)
        )
        a = extract_layer(whole, profile, mask, FeatureParams()).maps
        b = extract_layer(part, profile, mask, FeatureParams()).maps
        # spatter detection thresholds on statistics of the whole searched area
        spatter = {FeatureId.SPATTER_GENERATION, FeatureId.SPATTER_LANDING}
        for fid in sorted(set(FeatureId) - spatter):
            assert b[fid].grid.shape == (48, 64)
            stored = [
                map_layer_feature(np.where(m[fid].validity, m[fid].grid, np.nan), mask)
                for m in (a, b)
            ]
            assert stored[0].values.tobytes() == stored[1].values.tobytes(), fid.name
