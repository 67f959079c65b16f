"""Reference implementations the array kernels in `irmap` must match byte for byte.

Each is the straightforward one-pixel / one-ray / one-call version that the
package used before its kernels worked on whole arrays. `gaussian_blur`, which
only tests use, lives here too.
"""

from __future__ import annotations

import numpy as np

from irmap.errors import DegenerateHistogramError, ParameterError
from irmap.imageops import (
    OTSU_BINS,
    LabelGrid,
    _as_grid,
    gaussian_kernel_1d,
)

_OFFSETS_4 = ((-1, 0), (0, -1))
_OFFSETS_8 = ((-1, 0), (0, -1), (-1, -1), (-1, 1))


def label_components(binary, connectivity: int = 4) -> LabelGrid:
    """Union-find labelling of a 2D binary grid, labels in raster order of each
    cluster's first pixel."""
    b = np.asarray(binary)
    if b.ndim != 2:
        raise ParameterError(f"expected a 2D grid, got shape {b.shape}")
    coords = [tuple(c) for c in np.argwhere(b == 1)]
    index = {c: n for n, c in enumerate(coords)}
    parent = list(range(len(coords)))

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    offsets = _OFFSETS_4 if connectivity == 4 else _OFFSETS_8
    for n, (i, j) in enumerate(coords):
        for di, dj in offsets:
            m = index.get((i + di, j + dj))
            if m is not None:
                ra, rb = find(n), find(m)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    labels = np.zeros(b.shape, dtype=np.int32)
    remap: dict[int, int] = {}
    for n, c in enumerate(coords):  # coords are raster-ordered
        root = find(n)
        if root not in remap:
            remap[root] = len(remap) + 1
        labels[c] = remap[root]
    return LabelGrid(labels=labels, count=len(remap))


def otsu_thresholds(img) -> list[float]:
    """Two-class Otsu threshold over `np.histogram`'s 256 bins."""
    a = _as_grid(img)
    lo, hi = float(a.min()), float(a.max())
    hist, edges = np.histogram(a, bins=OTSU_BINS, range=(lo, hi))
    if np.count_nonzero(hist) < 2:
        raise DegenerateHistogramError(
            "histogram has a single occupied bin; no threshold separates two classes"
        )
    p = hist / hist.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    w0 = np.cumsum(p)[:-1]
    mu0 = np.cumsum(p * centers)[:-1]
    mu_t = float(np.sum(p * centers))
    w1 = 1.0 - w0
    valid = (w0 > 0) & (w1 > 0)
    sigma_b = np.full(OTSU_BINS - 1, -np.inf)
    num = (mu_t * w0[valid] - mu0[valid]) ** 2
    sigma_b[valid] = num / (w0[valid] * w1[valid])
    t = int(np.argmax(sigma_b))
    return [float(edges[t + 1])]


def parity_occupancy(tris, origin, pitch_mm, dims, attempts=None) -> np.ndarray:
    """Parity fill one x-column at a time. `attempts`, a list, receives the
    number of perturbation retries each column needed."""
    nx, ny, nz = dims
    xc = origin[0] + (np.arange(nx) + 0.5) * pitch_mm[0]
    yc = origin[1] + (np.arange(ny) + 0.5) * pitch_mm[1]
    zc = origin[2] + (np.arange(nz) + 0.5) * pitch_mm[2]
    ax, ay, az = tris[:, 0, 0], tris[:, 0, 1], tris[:, 0, 2]
    bx, by, bz = tris[:, 1, 0], tris[:, 1, 1], tris[:, 1, 2]
    cx, cy, cz = tris[:, 2, 0], tris[:, 2, 1], tris[:, 2, 2]
    scale = float(np.abs(tris).max()) + 1.0
    tol = 1e-9 * scale

    occ = np.zeros((nx, ny, nz), dtype=bool)
    for k in range(nz):
        for j in range(ny):
            occ[:, j, k] = _column_parity(
                yc[j], zc[k], xc,
                ax, ay, az, bx, by, bz, cx, cy, cz,
                tol, pitch_mm, attempts,
            )
    return occ


def _column_parity(y, z, xc, ax, ay, az, bx, by, bz, cx, cy, cz, tol, pitch_mm, attempts):
    py, pz = y, z
    for attempt in range(6):
        d = (by - ay) * (cz - az) - (bz - az) * (cy - ay)
        wc = (by - ay) * (pz - az) - (bz - az) * (py - ay)
        wb = (py - ay) * (cz - az) - (pz - az) * (cy - ay)
        nondeg = np.abs(d) > tol
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(nondeg, wb / d, 0.0)
            v = np.where(nondeg, wc / d, 0.0)
        w = 1.0 - u - v
        near_edge = nondeg & (
            (np.abs(u) < 1e-9) | (np.abs(v) < 1e-9) | (np.abs(w) < 1e-9)
            | (np.abs(u - 1) < 1e-9) | (np.abs(v - 1) < 1e-9) | (np.abs(w - 1) < 1e-9)
        )
        degenerate_plane = (~nondeg) & (
            (np.abs(wb) < tol) | (np.abs(wc) < tol)
        )
        inside = nondeg & (u > 0) & (v > 0) & (w > 0)
        if not (near_edge[inside | near_edge].any() or degenerate_plane.any()):
            break
        eps = 1e-4 * (2.0**attempt)
        py = y + eps * pitch_mm[1]
        pz = z + eps * 1.37 * pitch_mm[2]
    if attempts is not None:
        attempts.append(attempt)
    xs = (w * ax + u * bx + v * cx)[inside]
    if xs.size == 0:
        return np.zeros(len(xc), dtype=bool)
    crossings = (xs[None, :] > xc[:, None]).sum(axis=1)
    return (crossings % 2) == 1


def correlate1d(a: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Reflect-101 correlation along one axis of a 2D grid, padding with np.pad."""
    r = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (r, r)
    p = np.pad(a, pad, mode="reflect")
    out = np.zeros_like(a)
    n = a.shape[axis]
    for i, kv in enumerate(kernel):
        if axis == 0:
            out += kv * p[i : i + n, :]
        else:
            out += kv * p[:, i : i + n]
    return out


def separable_filter(img, kernel_y: np.ndarray, kernel_x: np.ndarray) -> np.ndarray:
    a = _as_grid(img)
    return correlate1d(correlate1d(a, kernel_y, 0), kernel_x, 1)


def gaussian_gradient_magnitude(img, sigma: float) -> np.ndarray:
    g, d = gaussian_kernel_1d(sigma, 0), gaussian_kernel_1d(sigma, 1)
    return np.hypot(separable_filter(img, g, d), separable_filter(img, d, g))


def gaussian_laplace(img, sigma: float) -> np.ndarray:
    g, h = gaussian_kernel_1d(sigma, 0), gaussian_kernel_1d(sigma, 2)
    return separable_filter(img, g, h) + separable_filter(img, h, g)


def gaussian_blur(img, sigma: float) -> np.ndarray:
    g = gaussian_kernel_1d(sigma, 0)
    return separable_filter(img, g, g)


def is_watertight(mesh) -> bool:
    """Every edge shared by exactly two triangles, counted in a dict."""
    edges: dict[tuple, int] = {}
    for tri in mesh.vertices:
        keys = [tuple(np.round(v, 9)) for v in tri]
        for a, b in ((0, 1), (1, 2), (2, 0)):
            e = tuple(sorted((keys[a], keys[b])))
            edges[e] = edges.get(e, 0) + 1
    return all(n == 2 for n in edges.values())
