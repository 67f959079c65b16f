"""The spatter detector against `oracles.spatter_layer`, which filters every lit
frame in full and tests each cluster's own 2 px disk against the near-laser
pixels: generation, landing and the records' centroids must be
byte-identical."""

import numpy as np
import pytest

import oracles
from irmap import cli, imageops, simulator
from irmap.errors import DegenerateHistogramError
from irmap.features import (
    NEAR_LASER_FRAMES,
    NEAR_LASER_PX,
    WINDOW_PAD,
    FeatureId,
    FeatureParams,
    FeatureMap,
    LayerStack,
    _scan_frames,
    activity_threshold,
    heat_intensity_and_scan_order,
    near_laser_mask,
    spatter_frame_filter,
    spatter_layer,
)
from irmap.geometry import PixelGridFrame, box_mesh, layer_mask, voxelize
from irmap.radiometry import forward_counts
from irmap.simulator import (
    SPATTER_SIGMA_PX,
    ScanParameters,
    ThermalParams,
    generate_scan_path,
    make_spatter_schedule,
    render_frames,
)


def assert_same_spatter(stack, order, profile):
    """The detector equals the oracle byte for byte; returns its records."""
    gen, land, records = spatter_layer(stack, order, profile, FeatureParams())
    o_gen, o_land, o_records = oracles.spatter_layer(stack, order, profile)
    for got, want in ((gen, o_gen), (land, o_land)):
        assert got.grid.tobytes() == want.grid.tobytes()
        assert np.array_equal(got.validity, want.validity)
    assert [r.centroid for r in records] == [o.centroid for o in o_records]
    return records


def landing_pixels(stack, order, profile):
    """The (y, x) window pixels that the SPATTER_LANDING map marks."""
    _, land, _ = spatter_layer(stack, order, profile, FeatureParams())
    return set(map(tuple, np.argwhere(land.grid > 0).tolist()))


def bump(shape, y, x, amp, sigma):
    yy, xx = np.mgrid[: shape[0], : shape[1]]
    return amp * np.exp(-0.5 * ((yy - y) ** 2 + (xx - x) ** 2) / sigma**2)


def lit_frame(profile, shape, blobs, laser, seed=0):
    """Counts of 80 degC powder with a 1200 degC laser spot, 300 degC spatter
    blobs and a little camera noise."""
    temp = np.full(shape, 80.0) + bump(shape, *laser, 1200.0, 1.5)
    for y, x in blobs:
        temp += bump(shape, y, x, 300.0, SPATTER_SIGMA_PX)
    c = forward_counts(temp, profile.emissivity_powder, profile)
    return c + np.random.default_rng(seed).normal(0.0, 1.0, shape)


def order_map(s):
    s = np.asarray(s, dtype=np.float64)
    return FeatureMap(FeatureId.SCAN_ORDER, 0, s, s >= 0)


def cluster_pixels(frame):
    _, raw = oracles.spatter_frame_filter(frame)
    return [set(map(tuple, np.argwhere(raw.labels == k))) for k in range(1, raw.count + 1)]


class TestRenderedWindows:
    @pytest.mark.parametrize("seed", [0, 1, 3, 7])
    def test_matches_oracle(self, profile, seed, monkeypatch):
        vox = voxelize(box_mesh((10.8, 10.8, 0.4)), (360.0, 360.0, 40.0))
        reg = PixelGridFrame(pitch_um=360.0, origin_px=(48.0, 32.0), dims=(96, 64))
        mask = layer_mask(vox, 0, reg)
        path = generate_scan_path(mask, ScanParameters(), 0)
        monkeypatch.setattr(simulator, "MIN_LEAD_FRAMES", 5)
        monkeypatch.setattr(simulator, "CLEARANCE_PX", 4.0)
        sched = make_spatter_schedule(path, mask, 2, 250.0, 0.15, seed=seed)
        stack, _ = render_frames(
            path, (96, 64), ThermalParams(), profile, sched, mask.window(WINDOW_PAD),
            noise_percent=1.0, seed=seed,
        )
        _, order = heat_intensity_and_scan_order(stack, profile)
        assert assert_same_spatter(stack, order, profile)  # the spatters are found
        stats = {}
        oracles.spatter_layer(stack, order, profile, stats=stats)
        assert stats["near_laser"] > 0  # and the near-laser gate rejected some

        grad_calls = []
        real_grad = imageops.gaussian_gradient_magnitude
        monkeypatch.setattr(
            imageops,
            "gaussian_gradient_magnitude",
            lambda *a: grad_calls.append(1) or real_grad(*a),
        )
        spatter_layer(stack, order, profile, FeatureParams())
        lit = sum(float(f.max()) > activity_threshold(profile) for f in stack.frames)
        assert 0 < len(grad_calls) < lit  # some lit frames exit early, not all

    @pytest.mark.parametrize("layer", [3, 18])
    def test_demo_layer_matches_oracle(self, tmp_path, layer):
        cfg = cli.load_config(cli.write_demo(str(tmp_path)))
        stack, _, _ = cli._simulate_layer(cfg, cli._voxelize_config(cfg), layer)
        _, order = heat_intensity_and_scan_order(stack, cfg.profile)
        assert assert_same_spatter(stack, order, cfg.profile)


class TestNearLaserMask:
    """The near-laser gate is the offset-loop disk dilation of the pixels
    scanned within NEAR_LASER_FRAMES of the frame, on whole windows."""

    def windows(self, profile, tmp_path):
        vox = voxelize(box_mesh((10.8, 10.8, 0.4)), (360.0, 360.0, 40.0))
        mask = layer_mask(vox, 0, PixelGridFrame(pitch_um=360.0, origin_px=(48.0, 32.0), dims=(96, 64)))
        stack, _ = render_frames(
            generate_scan_path(mask, ScanParameters(), 0), (96, 64), ThermalParams(), profile,
            [], mask.window(WINDOW_PAD), noise_percent=1.0,
        )
        yield _scan_frames(heat_intensity_and_scan_order(stack, profile)[1]), len(stack)
        cfg = cli.load_config(cli.write_demo(str(tmp_path)))
        for layer in (3, 18):
            stack, _, _ = cli._simulate_layer(cfg, cli._voxelize_config(cfg), layer)
            yield _scan_frames(heat_intensity_and_scan_order(stack, cfg.profile)[1]), len(stack)
        s = np.full((40, 40), -1)
        s[33, 33], s[10, 13], s[2, 22], s[28, 0], s[20, 23], s[0, 39] = 3, 0, 6, 6, 7, 2
        yield s, 10  # the edge-case window: single pixels, two on its border

    def test_matches_offset_loop_dilation(self, profile, tmp_path):
        checked = 0
        for s, n in self.windows(profile, tmp_path):
            for t in range(n):
                now = (s >= 0) & (np.abs(s - t) <= NEAR_LASER_FRAMES)
                got = near_laser_mask(s, t)
                assert np.array_equal(got, oracles.dilate_disk(now, NEAR_LASER_PX)), t
                checked += bool(now.any())
        assert checked > 100


class TestEdgeCases:
    def test_gate_distances_and_window_border(self, profile):
        """Clusters in the middle and on two borders of the window; a scanned
        pixel 2 px from a cluster rejects it, one at sqrt(5) px does not, and
        so does one scanned 4 frames away."""
        shape, t = (40, 40), 3
        blobs = [(10, 10), (0, 20), (25, 0), (20, 20)]
        frame = lit_frame(profile, shape, blobs, laser=(33, 33))
        clusters = cluster_pixels(frame)
        assert len(clusters) == 4
        mid, top, left, centre = (
            next(c for c in clusters if px in c) for px in ((10, 11), (0, 21), (26, 0), (20, 20))
        )

        s = np.full(shape, -1)
        s[33, 33] = t  # the laser
        s[10, 13] = t - 3  # 2 px right of (10, 11): rejects the middle blob
        s[2, 22] = t + 3  # sqrt(5) px from (0, 21) and (1, 20): keeps the top blob
        s[28, 0] = t + 3  # 2 px down the border from (26, 0): rejects the left blob
        s[20, 23] = t + 4  # 2 px from the centre blob, but 4 frames away
        for blob, (y, x) in ((mid, (10, 13)), (top, (2, 22)), (left, (28, 0))):
            assert min(np.hypot(by - y, bx - x) for by, bx in blob) == (
                np.sqrt(5.0) if blob is top else 2.0
            )
        stack = LayerStack(np.stack([np.full(shape, frame.min())] * t + [frame]))
        records = assert_same_spatter(stack, order_map(s), profile)
        assert landing_pixels(stack, order_map(s), profile) == top | centre
        assert [r.centroid for r in records] == [
            tuple(float(np.mean([px[k] for px in c])) for k in (1, 0)) for c in (top, centre)
        ]

    def test_early_exit_when_every_blob_is_near_the_laser(self, profile):
        shape, t = (40, 40), 1
        frame = lit_frame(profile, shape, [(10, 10)], laser=(30, 30))
        s = np.full(shape, -1)
        s[27:34, 27:34] = t  # the laser spot
        s[8:13, 8:13] = t  # scanned under the blob
        near = near_laser_mask(s, t)
        assert spatter_frame_filter(frame, near)[0] is None
        # found without the gate
        assert spatter_frame_filter(frame, np.zeros(shape, dtype=bool))[1].count == 1
        stack = LayerStack(np.stack([np.full(shape, frame.min()), frame]))
        assert assert_same_spatter(stack, order_map(s), profile) == []

    def test_early_exit_when_every_blob_is_registered(self, profile, monkeypatch):
        """A blob far from the laser, counted in frame 1 and fainter in frame 2:
        only the registry makes frame 2 skip the scan mask."""
        shape = (40, 40)
        frame = lit_frame(profile, shape, [(10, 10)], laser=(30, 30))
        temp = np.full(shape, 80.0) + bump(shape, 30, 30, 1200.0, 1.5)
        cooled = forward_counts(
            temp + bump(shape, 10, 10, 5.0, SPATTER_SIGMA_PX), profile.emissivity_powder, profile
        ) + np.random.default_rng(1).normal(0.0, 1.0, shape)
        s = np.full(shape, -1)
        s[27:34, 27:34] = 1  # the laser spot, still lit in frame 2
        near = near_laser_mask(s, 2)
        _, counted = spatter_frame_filter(frame, near_laser_mask(s, 1))
        assert counted.count == 1
        assert spatter_frame_filter(cooled, near)[1].count == 1
        assert spatter_frame_filter(cooled, near | (counted.labels > 0))[0] is None

        stack = LayerStack(np.stack([np.full(shape, frame.min()), frame, cooled]))
        gen, _, records = spatter_layer(stack, order_map(s), profile, FeatureParams())
        assert_same_spatter(stack, order_map(s), profile)
        assert len(records) == 1 and (gen.grid[s == 1] == 1).all()  # counted once, in frame 1
        assert landing_pixels(stack, order_map(s), profile) == set(
            map(tuple, np.argwhere(counted.labels > 0).tolist())
        )
        grad_calls = []
        real_grad = imageops.gaussian_gradient_magnitude
        monkeypatch.setattr(
            imageops,
            "gaussian_gradient_magnitude",
            lambda *a: grad_calls.append(1) or real_grad(*a),
        )
        spatter_layer(stack, order_map(s), profile, FeatureParams())
        assert len(grad_calls) == 1  # frame 2 exits early

    def test_degenerate_gradient_histogram(self, profile):
        """A uniformly hot frame: its gradient is constant, so Otsu finds no
        threshold and the scan mask is empty."""
        thr = activity_threshold(profile)
        frame = np.full((16, 16), thr + 100.0)
        with pytest.raises(DegenerateHistogramError):
            imageops.otsu_thresholds(imageops.gaussian_gradient_magnitude(frame, 3.0))
        mask, clusters = spatter_frame_filter(frame, np.zeros(frame.shape, dtype=bool))
        assert not mask.any() and clusters.count == 0
        s = np.full((16, 16), -1)
        stack = LayerStack(np.stack([frame, frame]))
        assert assert_same_spatter(stack, order_map(s), profile) == []

    def test_degenerate_blob_histogram(self, profile):
        """A window so small that the excluded laser surroundings cover it:
        the -LoG histogram outside them is all zero."""
        frame = forward_counts(
            np.full((12, 12), 80.0) + bump((12, 12), 6, 6, 1200.0, 1.5),
            profile.emissivity_powder,
            profile,
        )
        mask, clusters = spatter_frame_filter(frame, np.zeros(frame.shape, dtype=bool))
        neg_log = -imageops.gaussian_laplace(frame, 1.0)
        pos = np.where((neg_log > 0) & ~imageops.dilate_disk(mask, 1), neg_log, 0.0)
        with pytest.raises(DegenerateHistogramError):
            imageops.otsu_thresholds(pos)
        assert clusters.count == 0
        s = np.full((12, 12), -1)
        stack = LayerStack(np.stack([frame, frame]))
        assert assert_same_spatter(stack, order_map(s), profile) == []

    def test_layer_without_lit_frames(self, profile):
        c = forward_counts(80.0, profile.emissivity_powder, profile)
        stack = LayerStack(np.full((20, 16, 16), c))
        s = np.full((16, 16), -1)
        s[4:8, 4:8] = 5
        gen, land, records = spatter_layer(stack, order_map(s), profile, FeatureParams())
        assert records == [] and not gen.grid.any() and not land.grid.any()
        assert assert_same_spatter(stack, order_map(s), profile) == []
