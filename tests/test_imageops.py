import numpy as np
import pytest

from irmap import imageops
from irmap.errors import DegenerateHistogramError, ParameterError
from irmap.imageops import (
    dilate_disk,
    fold_max_argmax,
    gaussian_gradient_magnitude,
    gaussian_kernel_1d,
    gaussian_laplace,
    label_components,
    otsu_thresholds,
)
import oracles
from oracles import gaussian_blur


def dense_separable(img, ky, kx):
    """Direct O(n^2 k^2) correlation with reflect-101 borders."""
    a = np.asarray(img, dtype=np.float64)
    ry, rx = len(ky) // 2, len(kx) // 2
    p = np.pad(a, ((ry, ry), (rx, rx)), mode="reflect")
    h, w = a.shape
    out = np.zeros_like(a)
    for i in range(h):
        for j in range(w):
            patch = p[i : i + 2 * ry + 1, j : j + 2 * rx + 1]
            out[i, j] = float(np.sum(patch * np.outer(ky, kx)))
    return out


class TestGaussianBlur:
    def test_constant_preserved(self):
        for sigma in (0.5, 1.0, 3.0, 5.0):
            img = np.full((17, 23), 42.5)
            out = gaussian_blur(img, sigma)
            assert np.abs(out - 42.5).max() < 1e-9

    def test_impulse_matches_dense_oracle(self):
        img = np.zeros((33, 33))
        img[16, 16] = 1.0
        g = gaussian_kernel_1d(3.0, 0)
        oracle = dense_separable(img, g, g)
        out = gaussian_blur(img, 3.0)
        assert np.abs(out - oracle).max() < 1e-12
        assert abs(out[16, 16] - g[len(g) // 2] ** 2) < 1e-12

    def test_ramp_preserved_on_interior(self):
        x = np.arange(40, dtype=np.float64)
        img = np.tile(x, (40, 1))
        out = gaussian_blur(img, 2.0)
        r = int(np.ceil(4 * 2.0))
        inner = out[:, r:-r]
        assert np.abs(inner - img[:, r:-r]).max() < 1e-9

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_blur(np.ones((4, 4)), 0.0)


class TestGradientMagnitude:
    def test_constant_is_zero(self):
        out = gaussian_gradient_magnitude(np.full((20, 20), 7.0), 2.0)
        assert np.abs(out).max() < 1e-9

    def test_ramp_slope_recovered(self):
        a = 3.25
        x = np.arange(48, dtype=np.float64)
        img = a * np.tile(x, (48, 1))
        out = gaussian_gradient_magnitude(img, 3.0)
        r = int(np.ceil(4 * 3.0))
        inner = out[r:-r, r:-r]
        assert np.abs(inner - a).max() < 1e-6

    def test_nonnegative_everywhere(self, rng):
        img = rng.normal(size=(31, 29))
        assert (gaussian_gradient_magnitude(img, 1.5) >= 0).all()

    def test_disk_rim_matches_dense_oracle(self, rng):
        yy, xx = np.mgrid[0:41, 0:41]
        img = ((yy - 20) ** 2 + (xx - 20) ** 2 <= 64).astype(np.float64) * 100
        g = gaussian_kernel_1d(2.0, 0)
        d = gaussian_kernel_1d(2.0, 1)
        gx = dense_separable(img, g, d)
        gy = dense_separable(img, d, g)
        oracle = np.hypot(gx, gy)
        out = gaussian_gradient_magnitude(img, 2.0)
        assert np.abs(out - oracle).max() < 1e-9
        peak = np.unravel_index(np.argmax(out), out.shape)
        rad = np.hypot(peak[0] - 20, peak[1] - 20)
        assert 6.0 <= rad <= 10.0


class TestLaplacian:
    def test_constant_is_zero(self):
        out = gaussian_laplace(np.full((20, 20), 123.0), 1.0)
        assert np.abs(out).max() < 1e-9

    def test_linearity(self, rng):
        f = rng.normal(size=(24, 24))
        g = rng.normal(size=(24, 24))
        a, b = 2.5, 100.0
        lhs = gaussian_laplace(a * f + b * g, 1.5)
        rhs = a * gaussian_laplace(f, 1.5) + b * gaussian_laplace(g, 1.5)
        assert np.abs(lhs - rhs).max() < 1e-6

    def test_offset_invariance(self, rng):
        f = rng.normal(size=(24, 24))
        assert np.abs(
            gaussian_laplace(2.5 * f + 100.0, 1.0) - 2.5 * gaussian_laplace(f, 1.0)
        ).max() < 1e-6

    def test_hot_pixel_matches_dense_oracle(self):
        img = np.zeros((21, 21))
        img[10, 10] = 50.0
        g = gaussian_kernel_1d(1.0, 0)
        h = gaussian_kernel_1d(1.0, 2)
        oracle = dense_separable(img, g, h) + dense_separable(img, h, g)
        out = gaussian_laplace(img, 1.0)
        assert np.abs(out - oracle).max() < 1e-9
        assert out[10, 10] < 0
        assert out[10, 13] > 0


def exhaustive_otsu(img):
    """Brute-force between-class-variance maximizer on the 256-bin histogram."""
    a = np.asarray(img, dtype=np.float64)
    hist, edges = np.histogram(a, bins=256, range=(float(a.min()), float(a.max())))
    p = hist / hist.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    mu_t = float((p * centers).sum())
    best_t, best_v = None, -np.inf
    for t in range(255):
        w0 = float(np.cumsum(p)[t])
        w1 = 1.0 - w0
        if w0 <= 0 or w1 <= 0:
            continue
        m0 = float(np.cumsum(p * centers)[t])
        v = (mu_t * w0 - m0) ** 2 / (w0 * w1)
        if v > best_v:
            best_v, best_t = v, t
    return float(edges[best_t + 1])


class TestOtsu:
    def test_bimodal(self):
        img = np.concatenate([np.full(50, 10.0), np.full(50, 200.0)]).reshape(10, 10)
        (thr,) = otsu_thresholds(img)
        assert 10.0 < thr < 200.0
        assert abs(thr - exhaustive_otsu(img)) < 1e-12

    def test_two_point_histogram(self):
        img = np.array([[0.0, 255.0], [255.0, 0.0]])
        (thr,) = otsu_thresholds(img)
        assert 0.0 < thr < 255.0

    def test_constant_image_degenerate(self):
        with pytest.raises(DegenerateHistogramError):
            otsu_thresholds(np.full((8, 8), 3.0))

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(100):
            img = rng.normal(100, 40, size=(32, 32))
            if rng.random() < 0.5:
                img[: rng.integers(1, 31)] += rng.uniform(50, 300)
            (thr,) = otsu_thresholds(img)
            assert abs(thr - exhaustive_otsu(img)) < 1e-12

    def test_multiclass_rejected(self):
        with pytest.raises(ParameterError):
            otsu_thresholds(np.arange(16.0).reshape(4, 4), classes=3)


def flood_fill_count(b, connectivity):
    """Iterative flood-fill component counter, the labeling oracle."""
    b = np.asarray(b)
    seen = np.zeros(b.shape, dtype=bool)
    if connectivity == 4:
        nbrs = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        nbrs = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
    count = 0
    h, w = b.shape
    for i in range(h):
        for j in range(w):
            if b[i, j] != 1 or seen[i, j]:
                continue
            count += 1
            stack = [(i, j)]
            seen[i, j] = True
            while stack:
                ci, cj = stack.pop()
                for di, dj in nbrs:
                    ni, nj = ci + di, cj + dj
                    if 0 <= ni < h and 0 <= nj < w and b[ni, nj] == 1 and not seen[ni, nj]:
                        seen[ni, nj] = True
                        stack.append((ni, nj))
    return count


class TestLabelComponents:
    def test_all_zero(self):
        out = label_components(np.zeros((6, 6), dtype=int))
        assert out.count == 0
        assert (out.labels == 0).all()

    def test_diagonal_connectivity(self):
        b = np.zeros((4, 4), dtype=int)
        b[1, 1] = b[2, 2] = 1
        assert label_components(b, 4).count == 2
        assert label_components(b, 8).count == 1

    def test_labels_contiguous_and_raster_ordered(self, rng):
        b = (rng.random((16, 16)) < 0.4).astype(int)
        out = label_components(b, 8)
        present = np.unique(out.labels)
        assert set(present.tolist()) <= set(range(out.count + 1))
        if out.count:
            firsts = [np.argwhere(out.labels == k)[0] for k in range(1, out.count + 1)]
            keys = [tuple(f) for f in firsts]
            assert keys == sorted(keys)

    def test_matches_flood_fill_oracle(self, rng):
        for _ in range(60):
            b = (rng.random((24, 24)) < rng.uniform(0.2, 0.6)).astype(int)
            for conn in (4, 8):
                assert label_components(b, conn).count == flood_fill_count(b, conn)

    def test_non_binary_rejected(self):
        with pytest.raises(ParameterError):
            label_components(np.full((3, 3), 2))


class TestFoldMaxArgmax:
    def test_single_frame(self):
        f = np.arange(9.0).reshape(1, 3, 3)
        peak, frame = fold_max_argmax(f)
        assert peak.dtype == np.float64 and (peak == f[0]).all()
        assert (frame == 0).all()

    def test_tie_keeps_earlier_frame(self):
        stack = np.array([5, 9, 9, 3], dtype=np.uint16).reshape(4, 1, 1)
        peak, frame = fold_max_argmax(stack)
        assert peak[0, 0] == 9.0
        assert frame[0, 0] == 1

    def test_matches_dense_stack_oracle(self, rng):
        for _ in range(50):
            n = rng.integers(1, 8)
            # few levels, so most pixels reach their maximum in several frames
            for stack in (rng.random((n, 9, 9)), rng.integers(0, 4, (n, 9, 9), dtype=np.uint16)):
                got, want = fold_max_argmax(stack), oracles.fold_max_argmax(stack)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()

    def test_dim_mismatch_rejected(self):
        for shape in [(3, 3), (2, 2, 2, 2), (0, 2, 2), (2, 0, 2)]:
            with pytest.raises(ParameterError, match="stack"):
                fold_max_argmax(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        stack = np.ones((3, 2, 2))
        stack[1, 0, 1] = bad  # -inf never reaches the maximum, and is still rejected
        with pytest.raises(ParameterError, match="non-finite"):
            fold_max_argmax(stack)


class TestDilateDisk:
    def test_single_pixel_radius_two(self):
        b = np.zeros((9, 9), dtype=bool)
        b[4, 4] = True
        out = dilate_disk(b, 2)
        yy, xx = np.mgrid[0:9, 0:9]
        expect = (yy - 4) ** 2 + (xx - 4) ** 2 <= 4
        assert np.array_equal(out, expect)

    def test_zero_radius_is_copy(self):
        b = np.eye(5, dtype=bool)
        out = dilate_disk(b, 0)
        assert np.array_equal(out, b)
        out[0, 1] = True
        assert not b[0, 1]
