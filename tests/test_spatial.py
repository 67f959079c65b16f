import numpy as np
import pytest

from irmap.errors import DegeneracyError, HorizonError, ParameterError
from irmap.geometry import PixelGridFrame
from irmap.spatial import (
    Homography,
    PointCorrespondence,
    apply_homography,
    estimate_homography,
    parse_correspondences,
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


def plate_markers():
    """Corners of the 50/100/150 mm calibration squares, in mm, smallest first."""
    corners = ((-1, -1), (1, -1), (1, 1), (-1, 1))
    return [(sx * h, sy * h) for h in (25.0, 50.0, 75.0) for sx, sy in corners]


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

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_recover_from_plate_markers(self, rng, n):
        # plate mm -> ideal pixels (0.36 mm/px, plate center at (320, 240)) -> raw pixels
        to_px = np.array([[1 / 0.36, 0.0, 320.0], [0.0, 1 / 0.36, 240.0], [0.0, 0.0, 1.0]])
        for _ in range(20):
            m = random_homography(rng) @ to_px
            corr = [PointCorrespondence(project(m, p), p) for p in plate_markers()[:n]]
            h = estimate_homography(corr)
            inv = np.linalg.inv(m)
            inv /= inv[2, 2]
            assert np.abs(h.matrix - inv).max() < 1e-9
            assert h.max_residual <= 1e-9

    def test_degenerate_collinear(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
        corr = [PointCorrespondence(p, p) for p in pts]
        with pytest.raises(DegeneracyError):
            estimate_homography(corr)

    def test_degenerate_collinear_five(self):
        pts = [(10.0 * k, 5.0 + 20.0 * k) for k in range(5)]
        corr = [PointCorrespondence(p, p) for p in pts]
        with pytest.raises(DegeneracyError):
            estimate_homography(corr)

    def test_too_few_points(self):
        corr = [PointCorrespondence((0.0, 0.0), (0.0, 0.0))] * 3
        with pytest.raises(ParameterError):
            estimate_homography(corr)


class TestApply:
    def test_identity(self):
        h = Homography.from_matrix(np.eye(3))
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
        q = apply_homography(apply_homography(p, h), Homography.from_matrix(np.linalg.inv(m)))
        assert q == pytest.approx(p, abs=1e-9)

    def test_horizon(self):
        m = np.eye(3)
        m[2, 0] = -0.01
        h = Homography.from_matrix(m)
        with pytest.raises(HorizonError):
            apply_homography((100.0, 0.0), h)


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
