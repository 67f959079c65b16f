"""Perspective correction: homography estimation, warping, and the pixel grid frame.

The homography maps raw image coordinates to metric plate coordinates
(plate center at the origin). Estimation uses the exact 8x8 solve for four
correspondences and a normalized direct linear transform for more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, HorizonError, ParameterError

FILL_VALUE = np.nan


@dataclass(frozen=True)
class Homography:
    """3x3 projective map, normalized so h[2,2] = 1."""

    matrix: np.ndarray
    max_residual: float | None = None

    @classmethod
    def from_matrix(cls, m, max_residual=None) -> "Homography":
        a = np.asarray(m, dtype=np.float64)
        if a.shape != (3, 3):
            raise ParameterError(f"homography must be 3x3, got {a.shape}")
        if abs(a[2, 2]) < 1e-300:
            raise DegeneracyError("cannot normalize: h[2,2] is zero")
        a = a / a[2, 2]
        if abs(np.linalg.det(a)) <= 1e-12:
            raise DegeneracyError("homography is singular after normalization")
        return cls(matrix=a, max_residual=max_residual)

    @classmethod
    def identity(cls) -> "Homography":
        return cls(matrix=np.eye(3))

    def inverse(self) -> "Homography":
        return Homography.from_matrix(np.linalg.inv(self.matrix))


@dataclass(frozen=True)
class PointCorrespondence:
    image: tuple[float, float]  # pixels in the raw frame
    world: tuple[float, float]  # mm on the build plate, center = (0, 0)


@dataclass(frozen=True)
class PixelGridFrame:
    """Registration of the corrected pixel grid to the plate."""

    pitch_um: float
    origin_px: tuple[int, int]  # pixel coordinates of the plate center
    dims: tuple[int, int]  # (width, height) in pixels

    def __post_init__(self):
        if self.pitch_um <= 0:
            raise ParameterError("pitch must be positive")
        x, y = self.origin_px
        w, h = self.dims
        if not (0 <= x < w and 0 <= y < h):
            raise ParameterError("origin pixel outside frame dims")


def _normalization(points: np.ndarray) -> np.ndarray:
    """Similarity moving the centroid to 0 with mean distance sqrt(2)."""
    centroid = points.mean(axis=0)
    d = np.linalg.norm(points - centroid, axis=1).mean()
    if d < 1e-12:
        raise DegeneracyError("coincident points")
    s = np.sqrt(2.0) / d
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def estimate_homography(correspondences) -> Homography:
    """Estimate the image-to-world homography from >= 4 correspondences.

    Exactly 4 points: solves the 8x8 linear system. More: least squares on
    the normalized DLT system. The result carries the max reprojection
    residual over the inputs (world units).
    """
    corr = list(correspondences)
    if len(corr) < 4:
        raise ParameterError(f"need at least 4 correspondences, got {len(corr)}")
    src = np.asarray([c.image for c in corr], dtype=np.float64)
    dst = np.asarray([c.world for c in corr], dtype=np.float64)
    if not (np.isfinite(src).all() and np.isfinite(dst).all()):
        raise ParameterError("non-finite coordinates in correspondences")

    if len(corr) == 4:
        a = np.zeros((8, 8))
        b = np.zeros(8)
        for k, ((x, y), (xp, yp)) in enumerate(zip(src, dst)):
            a[2 * k] = [x, y, 1, 0, 0, 0, -xp * x, -xp * y]
            a[2 * k + 1] = [0, 0, 0, x, y, 1, -yp * x, -yp * y]
            b[2 * k] = xp
            b[2 * k + 1] = yp
        try:
            h = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as e:
            raise DegeneracyError(f"degenerate 4-point configuration: {e}") from e
        m = np.append(h, 1.0).reshape(3, 3)
    else:
        ts = _normalization(src)
        td = _normalization(dst)
        sn = (ts @ np.c_[src, np.ones(len(src))].T).T
        dn = (td @ np.c_[dst, np.ones(len(dst))].T).T
        rows = []
        for (x, y, _), (xp, yp, _) in zip(sn, dn):
            rows.append([x, y, 1, 0, 0, 0, -xp * x, -xp * y, -xp])
            rows.append([0, 0, 0, x, y, 1, -yp * x, -yp * y, -yp])
        a = np.asarray(rows)
        _, s, vt = np.linalg.svd(a)
        if s[-2] < 1e-10 * s[0]:
            raise DegeneracyError("rank-deficient DLT system")
        m = np.linalg.inv(td) @ vt[-1].reshape(3, 3) @ ts

    hom = Homography.from_matrix(m)
    proj = np.array([apply_homography(p, hom) for p in src])
    residual = float(np.linalg.norm(proj - dst, axis=1).max())
    return Homography(matrix=hom.matrix, max_residual=residual)


def apply_homography(p, h: Homography) -> tuple[float, float]:
    """Homogeneous multiply then perspective divide."""
    x, y = float(p[0]), float(p[1])
    m = h.matrix
    w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    if abs(w) < 1e-12:
        raise HorizonError(f"point ({x}, {y}) lies on the horizon line")
    return (
        (m[0, 0] * x + m[0, 1] * y + m[0, 2]) / w,
        (m[1, 0] * x + m[1, 1] * y + m[1, 2]) / w,
    )


@dataclass
class WarpedFrame:
    values: np.ndarray  # NaN where no source coverage
    valid: np.ndarray


def warp_frame(frame, h: Homography, out_dims: tuple[int, int]) -> WarpedFrame:
    """Inverse-mapped bilinear resampling of a frame through h.

    Each output pixel (x, y) samples the input at h^-1 (x, y). out_dims is
    (width, height). Out-of-source samples are NaN with valid=False.
    """
    a = np.asarray(frame, dtype=np.float64)
    if a.ndim != 2:
        raise ParameterError(f"expected 2D frame, got shape {a.shape}")
    w_out, h_out = out_dims
    hi, wi = a.shape
    inv = np.linalg.inv(h.matrix)

    xs, ys = np.meshgrid(np.arange(w_out, dtype=np.float64), np.arange(h_out, dtype=np.float64))
    denom = inv[2, 0] * xs + inv[2, 1] * ys + inv[2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        sx = (inv[0, 0] * xs + inv[0, 1] * ys + inv[0, 2]) / denom
        sy = (inv[1, 0] * xs + inv[1, 1] * ys + inv[1, 2]) / denom
    finite = np.isfinite(sx) & np.isfinite(sy) & (np.abs(denom) > 1e-12)
    inside = finite & (sx >= 0) & (sx <= wi - 1) & (sy >= 0) & (sy <= hi - 1)

    sx_c = np.clip(np.where(inside, sx, 0.0), 0, wi - 1)
    sy_c = np.clip(np.where(inside, sy, 0.0), 0, hi - 1)
    x0 = np.floor(sx_c).astype(np.int64)
    y0 = np.floor(sy_c).astype(np.int64)
    x1 = np.minimum(x0 + 1, wi - 1)
    y1 = np.minimum(y0 + 1, hi - 1)
    fx = sx_c - x0
    fy = sy_c - y0
    values = (
        a[y0, x0] * (1 - fx) * (1 - fy)
        + a[y0, x1] * fx * (1 - fy)
        + a[y1, x0] * (1 - fx) * fy
        + a[y1, x1] * fx * fy
    )
    values = np.where(inside, values, FILL_VALUE)
    return WarpedFrame(values=values, valid=inside)


def parse_correspondences(text: str) -> list[PointCorrespondence]:
    """Parse `world_x_mm,world_y_mm,image_x_px,image_y_px` lines; # comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParameterError(
                f"line {lineno}: expected 4 comma-separated values, got {len(parts)}"
            )
        try:
            wx, wy, ix, iy = (float(v) for v in parts)
        except ValueError as e:
            raise ParameterError(f"line {lineno}: {e}") from e
        out.append(PointCorrespondence(image=(ix, iy), world=(wx, wy)))
    return out
