import numpy as np
import pytest

from irmap.errors import DegeneracyError, HorizonError, ParameterError
from irmap.spatial import (
    Homography,
    PointCorrespondence,
    PixelGridFrame,
    apply_homography,
    estimate_homography,
    parse_correspondences,
    warp_frame,
)


def project(m, p):
    v = m @ np.array([p[0], p[1], 1.0])
    return (v[0] / v[2], v[1] / v[2])


def random_homography(rng):
    ang = rng.uniform(-0.15, 0.15)
    c, s = np.cos(ang), np.sin(ang)
    m = np.array(
        [
            [c * rng.uniform(0.9, 1.1), -s, rng.uniform(-20, 20)],
            [s, c * rng.uniform(0.9, 1.1), rng.uniform(-20, 20)],
            [rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4), 1.0],
        ]
    )
    return m


class TestEstimate:
    def test_identity_from_four_points(self):
        pts = [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)]
        corr = [PointCorrespondence(p, p) for p in pts]
        h = estimate_homography(corr)
        assert np.abs(h.matrix - np.eye(3)).max() < 1e-12

    def test_synthesize_then_recover(self, rng):
        half = 416.667 / 2  # 150 mm square at 360 um/px
        corners = [(-half, -half), (half, -half), (half, half), (-half, half)]
        for _ in range(100):
            m = random_homography(rng)
            corr = [PointCorrespondence(project(m, p), p) for p in corners]
            h = estimate_homography(corr)
            inv = np.linalg.inv(m)
            inv /= inv[2, 2]
            assert np.abs(h.matrix - inv).max() < 1e-9

    def test_degenerate_collinear(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
        corr = [PointCorrespondence(p, p) for p in pts]
        with pytest.raises(DegeneracyError):
            estimate_homography(corr)

    def test_too_few_points(self):
        corr = [PointCorrespondence((0.0, 0.0), (0.0, 0.0))] * 3
        with pytest.raises(ParameterError):
            estimate_homography(corr)


class TestApply:
    def test_identity(self):
        h = Homography.identity()
        assert apply_homography((3.5, -2.0), h) == (3.5, -2.0)

    def test_pure_translation(self):
        m = np.eye(3)
        m[0, 2], m[1, 2] = 5.0, -3.0
        h = Homography.from_matrix(m)
        assert apply_homography((10.0, 20.0), h) == pytest.approx((15.0, 17.0))

    def test_matches_homogeneous_arithmetic(self, rng):
        for _ in range(20):
            m = random_homography(rng)
            h = Homography.from_matrix(m)
            p = tuple(rng.uniform(-100, 100, 2))
            assert apply_homography(p, h) == pytest.approx(project(m, p), rel=1e-12)

    def test_inverse_round_trip(self, rng):
        m = random_homography(rng)
        h = Homography.from_matrix(m)
        p = (37.0, -11.0)
        q = apply_homography(apply_homography(p, h), h.inverse())
        assert q == pytest.approx(p, abs=1e-9)

    def test_horizon(self):
        m = np.eye(3)
        m[2, 0] = -0.01
        h = Homography.from_matrix(m)
        with pytest.raises(HorizonError):
            apply_homography((100.0, 0.0), h)


class TestWarp:
    def test_identity_preserves_frame(self, rng):
        frame = rng.uniform(0, 100, size=(24, 32))
        out = warp_frame(frame, Homography.identity(), (32, 24))
        assert np.abs(out.values[out.valid] - frame[out.valid]).max() < 1e-9

    def test_constant_frame(self):
        frame = np.full((20, 20), 7.25)
        m = np.eye(3)
        m[0, 2] = 1.5
        out = warp_frame(frame, Homography.from_matrix(m), (20, 20))
        assert np.allclose(out.values[out.valid], 7.25)
        assert (~out.valid).any()  # shifted-out column is flagged, not fabricated

    def test_round_trip_on_smooth_frame(self):
        yy, xx = np.mgrid[0:48, 0:64].astype(float)
        frame = 50 + 20 * np.sin(xx / 9.0) * np.cos(yy / 7.0)
        m = np.array([[1.02, 0.01, 2.0], [-0.01, 0.99, -1.0], [0, 0, 1.0]])
        h = Homography.from_matrix(m)
        once = warp_frame(frame, h, (64, 48))
        back = warp_frame(np.where(once.valid, once.values, 0.0), h.inverse(), (64, 48))
        both = back.valid & once.valid
        both[:3] = both[-3:] = False
        both[:, :3] = both[:, -3:] = False
        span = frame.max() - frame.min()
        assert np.abs(back.values[both] - frame[both]).max() <= 0.02 * span


class TestCorrespondenceFile:
    def test_parse(self):
        text = "# plate markers\n-75.0,-75.0,100.5,88.25\n75.0,75.0, 540, 400\n"
        corr = parse_correspondences(text)
        assert len(corr) == 2
        assert corr[0].world == (-75.0, -75.0)
        assert corr[0].image == (100.5, 88.25)

    def test_bad_line(self):
        with pytest.raises(ParameterError):
            parse_correspondences("1,2,3\n")


class TestPixelGridFrame:
    def test_origin_inside(self):
        with pytest.raises(ParameterError):
            PixelGridFrame(pitch_um=360.0, origin_px=(700.0, 240.0), dims=(640, 480))
