"""Spatial calibration for `irmap calibrate-spatial`: the image-to-plate homography.

The homography maps raw image coordinates to metric plate coordinates
(plate center at the origin), fitted from plate-marker correspondences by
one normalized direct linear transform. The extraction pipeline does not
apply it yet; voxels register to the pixel grid `geometry.PixelGridFrame`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, HorizonError, ParameterError


@dataclass(frozen=True)
class Homography:
    """3x3 projective map, normalized so h[2,2] = 1."""

    matrix: np.ndarray
    max_residual: float | None = None

    @classmethod
    def from_matrix(cls, m) -> "Homography":
        a = np.asarray(m, dtype=np.float64)
        if a.shape != (3, 3):
            raise ParameterError(f"homography must be 3x3, got {a.shape}")
        if abs(a[2, 2]) < 1e-300:
            raise DegeneracyError("cannot normalize: h[2,2] is zero")
        a = a / a[2, 2]
        if abs(np.linalg.det(a)) <= 1e-12:
            raise DegeneracyError("homography is singular after normalization")
        return cls(matrix=a)


@dataclass(frozen=True)
class PointCorrespondence:
    image: tuple[float, float]  # pixels in the raw frame
    world: tuple[float, float]  # mm on the build plate, center = (0, 0)


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

    One normalized direct linear transform for every point count (Hartley &
    Zisserman, ch. 4): exact for four points in general position, least
    squares for more. The result carries the max reprojection residual over
    the inputs (world units).
    """
    corr = list(correspondences)
    if len(corr) < 4:
        raise ParameterError(f"need at least 4 correspondences, got {len(corr)}")
    src = np.asarray([c.image for c in corr], dtype=np.float64)
    dst = np.asarray([c.world for c in corr], dtype=np.float64)
    if not (np.isfinite(src).all() and np.isfinite(dst).all()):
        raise ParameterError("non-finite coordinates in correspondences")

    ts = _normalization(src)
    td = _normalization(dst)
    sn = (ts @ np.c_[src, np.ones(len(src))].T).T
    dn = (td @ np.c_[dst, np.ones(len(dst))].T).T
    rows = []
    for (x, y, _), (xp, yp, _) in zip(sn, dn):
        rows.append([x, y, 1, 0, 0, 0, -xp * x, -xp * y, -xp])
        rows.append([0, 0, 0, x, y, 1, -yp * x, -yp * y, -yp])
    _, s, vt = np.linalg.svd(np.asarray(rows))
    # rank 8 fixes the 9 entries up to scale; four points give s only 8 values
    if s[7] < 1e-10 * s[0]:
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
