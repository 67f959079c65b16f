"""Pure 2D numerical kernels shared by calibration and feature extraction.

All convolutions use reflect-101 borders (mirror without repeating the edge
pixel) and kernels truncated at ceil(4*sigma). Derivative kernels are
renormalized after sampling so that an affine ramp produces its exact slope
and a constant produces exactly zero; oracle tests rely on both properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateHistogramError, ParameterError

OTSU_BINS = 256
# frames per pass of a whole-stack step (a reduction here or in `features`,
# or a step of the render): its temporaries are this many frames deep, not as
# deep as the stack
CHUNK_FRAMES = 16


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


@lru_cache(maxsize=64)
def _kernel(sigma: float, order: int) -> np.ndarray:
    k = gaussian_kernel_1d(sigma, order)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=64)
def _reflect_index(n: int, r: int) -> np.ndarray:
    """Source indices of an axis of length n padded by r on both sides, reflect-101."""
    idx = np.pad(np.arange(n), (r, r), mode="reflect")
    idx.flags.writeable = False
    return idx


def _correlate1d(a: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlate a 2D grid with `kernel` along axis 0; C-contiguous result."""
    r = len(kernel) // 2
    n = a.shape[0]
    p = np.take(a, _reflect_index(n, r), axis=0)
    out = np.zeros(a.shape)
    term = np.empty(a.shape)
    for i, kv in enumerate(kernel):
        np.multiply(kv, p[i : i + n], out=term)
        out += term
    return out


def _separable_t(a: np.ndarray, kernel_y: np.ndarray, kernel_x: np.ndarray) -> np.ndarray:
    """The transpose of `a` correlated with kernel_y along y, then kernel_x along x.

    The x pass runs along axis 0 of the transposed y result, so both passes
    slice whole contiguous rows; the arithmetic is the same per element.
    """
    return _correlate1d(_correlate1d(a, kernel_y).T, kernel_x)


def gaussian_gradient_magnitude(img, sigma: float) -> np.ndarray:
    a = _as_grid(img)
    g, d = _kernel(sigma, 0), _kernel(sigma, 1)
    return np.ascontiguousarray(np.hypot(_separable_t(a, g, d), _separable_t(a, d, g)).T)


def gaussian_laplace(img, sigma: float) -> np.ndarray:
    a = _as_grid(img)
    g, h = _kernel(sigma, 0), _kernel(sigma, 2)
    return np.ascontiguousarray((_separable_t(a, g, h) + _separable_t(a, h, g)).T)


def median(a) -> float:
    """`np.median` of all elements, from one partition: the middle element,
    or for an even count the mean of it and the lower half's maximum. A
    zero median is +0.0."""
    a = np.asarray(a, dtype=np.float64).ravel()
    k = a.size // 2
    part = np.partition(a, k)
    if a.size % 2:
        return float(part[k]) + 0.0
    return float((part[:k].max() + part[k]) / 2) + 0.0


def otsu_thresholds(img) -> list[float]:
    """The two-class threshold maximizing between-class variance over a
    256-bin histogram, as a one-element list.

    The histogram spans the image's own [min, max]. Ties resolve to the
    lowest threshold. Pixels classify as high-class when value > threshold.
    """
    a = _as_grid(img).ravel()
    lo, hi = float(a.min()), float(a.max())
    hist, edges = np.histogram(a, OTSU_BINS, range=(lo, hi))
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
    count: int | np.ndarray  # per-plane counts for a (k, h, w) stack


def label_components(binary, connectivity: int = 4) -> LabelGrid:
    """Label clusters of 1-pixels under 4- or 8-connectivity.

    Labels are assigned in raster order of each cluster's first pixel, so
    the result is independent of any internal traversal order. A (k, h, w)
    stack is labelled plane by plane, each plane exactly as on its own;
    `count` is then a (k,) array of per-plane counts.

    Only foreground pixels are visited: neighbour pairs form an edge list,
    and labels merge by min-label hooking plus pointer jumping (Shiloach &
    Vishkin, 1982) until both ends of every edge share a root.
    """
    b = np.asarray(binary)
    if b.ndim not in (2, 3):
        raise ParameterError(f"expected a 2D grid or a 3D stack, got shape {b.shape}")
    if b.dtype != bool and not ((b == 0) | (b == 1)).all():
        raise ParameterError("binary grid must contain only {0, 1}")
    if connectivity not in (4, 8):
        raise ParameterError(f"connectivity must be 4 or 8, got {connectivity}")
    h, w = b.shape[-2:]
    labels = np.zeros(b.shape, dtype=np.int32)
    fg = np.flatnonzero(b)  # raster order, plane by plane
    n = len(fg)
    if n == 0:
        return LabelGrid(labels, 0 if b.ndim == 2 else np.zeros(b.shape[0], dtype=np.intp))

    # edges from each pixel to its foreground neighbours in the row above and
    # to the left; fg is sorted, so one search finds the pixel above and its
    # diagonal neighbours sit next to it
    row, col = (fg // w) % h, fg % w
    up = fg - w
    at = np.searchsorted(fg, up)  # <= own index, as up < fg
    links = [
        ((row > 0) & (fg[at] == up), at),
        ((col > 0) & np.r_[False, np.diff(fg) == 1], np.arange(-1, n - 1)),
    ]
    if connectivity == 8:
        after = at + (fg[at] == up)
        links.append(((row > 0) & (col > 0) & (at > 0) & (fg[at - 1] == up - 1), at - 1))
        links.append(((row > 0) & (col < w - 1) & (fg[after] == up + 1), after))
    heads = [np.flatnonzero(ok) for ok, _ in links]
    a = np.concatenate(heads)
    c = np.concatenate([tail[hd] for hd, (_, tail) in zip(heads, links)])

    # invariant parent[i] <= i, so each root is its cluster's first pixel
    parent = np.arange(n)
    while True:
        ra, rc = parent[a], parent[c]
        split = ra != rc
        if not split.any():
            break
        ra, rc = ra[split], rc[split]
        np.minimum.at(parent, np.maximum(ra, rc), np.minimum(ra, rc))
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand

    is_root = parent == np.arange(n)
    rank = np.cumsum(is_root)  # 1-based over the whole input
    if b.ndim == 2:
        labels.flat[fg] = rank[parent]
        return LabelGrid(labels=labels, count=int(rank[-1]))
    plane_of = fg // (h * w)
    counts = np.bincount(plane_of[is_root], minlength=b.shape[0])
    labels.flat[fg] = rank[parent] - (np.cumsum(counts) - counts)[plane_of]
    return LabelGrid(labels=labels, count=counts)


def fold_max_argmax(frames) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel float64 maximum of a (n, h, w) stack and the first frame
    that reaches it: ties keep the earlier frame.

    Taken over CHUNK_FRAMES frames at a time: a later chunk replaces the
    running maximum only where it is strictly greater, which keeps the tie
    rule, and only those pixels need the chunk's argmax."""
    f = np.asarray(frames)
    if f.ndim != 3 or 0 in f.shape:
        raise ParameterError(f"expected a (frames, h, w) stack, got shape {f.shape}")
    peak = frame = None
    for start in range(0, len(f), CHUNK_FRAMES):
        chunk = f[start : start + CHUNK_FRAMES]
        if f.dtype.kind not in "biu" and not np.isfinite(chunk).all():
            raise ParameterError("stack contains non-finite values")
        top = chunk.max(axis=0)
        if peak is None:
            peak, frame = top, chunk.argmax(axis=0)
            continue
        better = np.flatnonzero(top > peak)
        if len(better):
            peak.flat[better] = top.flat[better]
            frame.flat[better] = chunk.reshape(len(chunk), -1)[:, better].argmax(axis=0) + start
    return peak.astype(np.float64), frame


def dilate_disk(binary: np.ndarray, radius: int) -> np.ndarray:
    """Binary dilation with a Euclidean disk footprint of the given radius.

    The disk is a stack of row spans (chords): row dy holds the offsets
    |dx| <= isqrt(r^2 - dy^2). So the grid is dilated along rows by each
    half-width once, and each row-dilated grid is ORed in at its rows' two
    vertical shifts: 4r slice-ORs for radius r.
    """
    b = np.asarray(binary, dtype=bool)
    spans = [b]  # spans[k]: b dilated by the row span [-k, k]
    for k in range(1, radius + 1):
        s = spans[-1].copy()
        s[:, k:] |= b[:, :-k]
        s[:, :-k] |= b[:, k:]
        spans.append(s)
    out = spans[-1].copy()  # b itself for a radius <= 0
    for dy in range(1, radius + 1):
        s = spans[math.isqrt(radius * radius - dy * dy)]
        out[dy:] |= s[:-dy]
        out[:-dy] |= s[dy:]
    return out
