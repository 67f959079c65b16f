"""Pure 2D numerical kernels shared by calibration and feature extraction.

All convolutions use reflect-101 borders (mirror without repeating the edge
pixel) and kernels truncated at ceil(4*sigma). Derivative kernels are
renormalized after sampling so that an affine ramp produces its exact slope
and a constant produces exactly zero; oracle tests rely on both properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateHistogramError, ParameterError

OTSU_BINS = 256


def _as_grid(img) -> np.ndarray:
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ParameterError(f"expected a 2D grid, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ParameterError("grid contains non-finite values")
    return a


def gaussian_kernel_1d(sigma: float, order: int = 0) -> np.ndarray:
    """Sampled 1D Gaussian (or derivative) kernel, radius ceil(4*sigma).

    order 0: unit sum. order 1: zero sum, unit response to a unit ramp.
    order 2: zero sum, unit response to x**2/2.
    """
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    r = math.ceil(4.0 * sigma)
    x = np.arange(-r, r + 1, dtype=np.float64)
    g = np.exp(-0.5 * (x / sigma) ** 2)
    g /= g.sum()
    if order == 0:
        return g
    if order == 1:
        d = -(x / sigma**2) * g
        d -= d.mean()
        d /= np.dot(d, x)  # correlation response to f(i)=i becomes exactly 1
        return d
    if order == 2:
        h = (x**2 / sigma**4 - 1.0 / sigma**2) * g
        h -= h.mean()
        h /= np.dot(h, x**2) / 2.0
        return h
    raise ParameterError(f"unsupported kernel order {order}")


def _correlate1d(a: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
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
    return _correlate1d(_correlate1d(a, kernel_y, 0), kernel_x, 1)


def gaussian_blur(img, sigma: float) -> np.ndarray:
    g = gaussian_kernel_1d(sigma, 0)
    return separable_filter(img, g, g)


def gaussian_gradient_magnitude(img, sigma: float) -> np.ndarray:
    g = gaussian_kernel_1d(sigma, 0)
    d = gaussian_kernel_1d(sigma, 1)
    gx = separable_filter(img, g, d)
    gy = separable_filter(img, d, g)
    return np.hypot(gx, gy)


def gaussian_laplace(img, sigma: float) -> np.ndarray:
    g = gaussian_kernel_1d(sigma, 0)
    h = gaussian_kernel_1d(sigma, 2)
    return separable_filter(img, g, h) + separable_filter(img, h, g)


def otsu_thresholds(img, classes: int = 2) -> list[float]:
    """Thresholds maximizing between-class variance over a 256-bin histogram.

    The histogram spans the image's own [min, max]. Only the two-class case
    is supported; ties resolve to the lowest threshold. Pixels classify as
    high-class when value > threshold.
    """
    if classes != 2:
        raise ParameterError(f"only classes=2 is supported, got {classes}")
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
    t = int(np.argmax(sigma_b))  # argmax takes the first (lowest) maximizer
    return [float(edges[t + 1])]


@dataclass
class LabelGrid:
    """Connected-component labels: 0 = background, labels form {0..count}."""

    labels: np.ndarray
    count: int


_OFFSETS_4 = ((-1, 0), (0, -1))
_OFFSETS_8 = ((-1, 0), (0, -1), (-1, -1), (-1, 1))


def label_components(binary, connectivity: int = 4) -> LabelGrid:
    """Label clusters of 1-pixels under 4- or 8-connectivity.

    Labels are assigned in raster order of each cluster's first pixel, so
    the result is independent of any internal traversal order.
    """
    b = np.asarray(binary)
    if b.ndim != 2:
        raise ParameterError(f"expected a 2D grid, got shape {b.shape}")
    if not np.isin(b, (0, 1)).all():
        raise ParameterError("binary grid must contain only {0, 1}")
    if connectivity not in (4, 8):
        raise ParameterError(f"connectivity must be 4 or 8, got {connectivity}")

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


UNSEEN_FRAME = -1


@dataclass
class ReductionState:
    """Streaming per-pixel running maximum with the frame index attaining it."""

    max_value: np.ndarray
    argmax_frame: np.ndarray
    last_index: int = field(default=UNSEEN_FRAME)

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "ReductionState":
        return cls(
            max_value=np.full(shape, -np.inf, dtype=np.float64),
            argmax_frame=np.full(shape, UNSEEN_FRAME, dtype=np.int64),
        )


def fold_max_argmax(state: ReductionState, frame, frame_idx: int) -> ReductionState:
    """Fold one frame into the running max; ties keep the earlier frame."""
    f = _as_grid(frame)
    if f.shape != state.max_value.shape:
        raise ParameterError(
            f"frame shape {f.shape} does not match state shape {state.max_value.shape}"
        )
    if frame_idx <= state.last_index:
        raise ParameterError(
            f"frame_idx {frame_idx} not greater than last folded index {state.last_index}"
        )
    better = f > state.max_value  # strict: first attainment wins
    state.max_value[better] = f[better]
    state.argmax_frame[better] = frame_idx
    state.last_index = frame_idx
    return state


def dilate_disk(binary: np.ndarray, radius: int) -> np.ndarray:
    """Binary dilation with a Euclidean disk footprint of the given radius."""
    b = np.asarray(binary, dtype=bool)
    if radius <= 0:
        return b.copy()
    out = b.copy()
    h, w = b.shape
    for di in range(-radius, radius + 1):
        for dj in range(-radius, radius + 1):
            if di == 0 and dj == 0 or di * di + dj * dj > radius * radius:
                continue
            src = b[
                max(0, -di) : h - max(0, di),
                max(0, -dj) : w - max(0, dj),
            ]
            out[
                max(0, di) : h - max(0, -di),
                max(0, dj) : w - max(0, -dj),
            ] |= src
    return out
