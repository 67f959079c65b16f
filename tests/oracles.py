"""Reference implementations the array kernels in `irmap` must match byte for byte.

Each is the straightforward one-pixel / one-ray / one-call / one-sample
version that the package used before its kernels worked on whole arrays.
`gaussian_blur`, which only tests use, lives here too, and so does the
spatter detector that gates every cluster on its own after filtering the
whole frame. The calibration fits invert one sample at a time, and the
pre-deposition and cooling extractors one target frame at a time. The
heat-intensity fold, the interpass mean and the maximum pre-deposition walk
the stack one frame at a time. The simulator's scan path is built one hatch
line at a time, its counts and noise one frame at a time, and its spatter
candidates from a whole camera frame; the radiance model and the count
conversion are one expression each, and the disk dilation ORs in every offset
of the footprint. The CSV and VTK exports format one stored value at a time.
The heat-intensity fold, the maximum pre-deposition and the melt-pool area
are also kept as the whole-stack reductions that their chunked versions
replaced (`*_whole`).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from irmap.errors import (
    BelowFloorError,
    DegenerateHistogramError,
    NoPrescanError,
    ParameterError,
)
from irmap import imageops, radiometry, simulator
from irmap.features import (
    INTERPASS_FRAME_CAP,
    SPATTER_BLOB_SIGMA,
    SPATTER_DILATION_PX,
    SPATTER_MASK_SIGMA,
    UNSCANNED,
    FeatureId,
    FeatureMap,
    FeatureParams,
    LayerStack,
    SpatterRecord,
    _scan_frames,
    _to_temperature,
    activity_threshold,
    melt_threshold,
)
from irmap.imageops import (
    OTSU_BINS,
    LabelGrid,
    _as_grid,
    gaussian_kernel_1d,
)
from irmap.radiometry import (
    C2_UM_K,
    KELVIN_OFFSET,
    _check_samples,
    _golden_min,
    _validate_eps,
)
from irmap.simulator import (
    SPATTER_SIGMA_PX,
    GroundTruth,
    ScanPath,
    SpatterEvent,
    _nearest,
    _true_temperatures,
)
from irmap.store import _layer_grid

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


def _on_segment(py, pz, p, q, tol):
    """Whether the point (py, pz) lies within `tol` of the yz segment p-q,
    for each triangle's p and q."""
    (y0, z0), (dy, dz) = p, (q[0] - p[0], q[1] - p[1])
    ry, rz = py - y0, pz - z0
    s = np.clip((ry * dy + rz * dz) / np.maximum(dy * dy + dz * dz, 1e-300), 0.0, 1.0)
    return np.hypot(ry - s * dy, rz - s * dz) <= tol


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
        # an edge-on triangle projects to a segment: the ray is ambiguous on it
        degenerate_plane = (~nondeg) & (
            _on_segment(py, pz, (ay, az), (by, bz), tol)
            | _on_segment(py, pz, (by, bz), (cy, cz), tol)
            | _on_segment(py, pz, (cy, cz), (ay, az), tol)
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


def deposit(field_arr, x: float, y: float, amp: float, sigma: float, origin):
    """Add a Gaussian bump centred on camera pixel (x, y) to a field whose
    [0, 0] element is camera pixel `origin` (row, col)."""
    (oy, ox), (h, w) = origin, field_arr.shape
    r = int(math.ceil(4 * sigma)) + 1
    x0, x1 = max(ox, int(x) - r), min(ox + w, int(x) + r + 1)
    y0, y1 = max(oy, int(y) - r), min(oy + h, int(y) + r + 1)
    if x0 >= x1 or y0 >= y1:
        return
    gx = np.arange(x0, x1) - x
    gy = np.arange(y0, y1) - y
    bump = np.exp(-0.5 * ((gx[None, :] ** 2 + gy[:, None] ** 2) / sigma**2))
    field_arr[y0 - oy : y1 - oy, x0 - ox : x1 - ox] += amp * bump


def true_temperatures(path, thermal, events, amb, window, seen, n, fps, prescan_frames):
    """`simulator._true_temperatures`, one `deposit` per path sample and per
    spatter frame."""
    rows, cols = window
    origin = (rows.start, cols.start)
    sigma = thermal.sigma_px
    src_t = path.t_s + prescan_frames / fps
    decay_per_frame = math.exp(-(1.0 / fps) / thermal.decay_s)

    truth = np.empty((n,) + seen.shape, dtype=np.float32)
    excess = np.zeros(seen.shape, dtype=np.float64)
    cursor = 0
    for k in range(n):
        t_k = k / fps
        if k > 0:
            excess *= decay_per_frame
        while cursor < len(src_t) and src_t[cursor] <= t_k + 1e-12:
            age = t_k - src_t[cursor]
            deposit(
                excess,
                float(path.x_px[cursor]),
                float(path.y_px[cursor]),
                math.exp(-age / thermal.decay_s),
                sigma,
                origin,
            )
            cursor += 1
        truth[k] = excess
    if seen.any():
        typical = float(np.median(truth[:, seen].max(axis=0)))
        if typical > 0:
            truth *= (thermal.peak_c - float(np.mean(amb))) / typical
    truth += amb[rows, cols]
    for ev in events:
        for k in range(ev.emit_frame, n):
            age = (k - ev.emit_frame) / fps
            deposit(
                truth[k],
                float(ev.landing_px[0]),
                float(ev.landing_px[1]),
                ev.peak_dt_c * math.exp(-age / ev.decay_s),
                SPATTER_SIGMA_PX,
                origin,
            )
    return truth


def first_visit_frames(path, dims, fps: float = 30.0, prescan_frames: int = 3) -> np.ndarray:
    """Frame index of each pixel's first laser visit, -1 where never visited,
    writing samples in reverse so the earliest visit is written last."""
    w, h = dims
    first = np.full((h, w), UNSCANNED, dtype=np.int64)
    ix, iy = path.pixels()
    ix, iy = np.clip(ix, 0, w - 1), np.clip(iy, 0, h - 1)
    fr = prescan_frames + np.floor(path.t_s * fps).astype(np.int64)
    for k in range(len(path) - 1, -1, -1):
        first[iy[k], ix[k]] = fr[k]
    return first


def _grown_box(px: np.ndarray, grow: int) -> tuple[slice, slice]:
    """Bounding box of the set pixels grown by `grow` px, clipped to the grid:
    the oracle takes each cluster's isolation ring inside it, where
    `features.spatter_frame_filter` takes it over the whole window."""
    rows, cols = np.flatnonzero(px.any(axis=1)), np.flatnonzero(px.any(axis=0))
    return (
        slice(max(0, int(rows[0]) - grow), int(rows[-1]) + grow + 1),
        slice(max(0, int(cols[0]) - grow), int(cols[-1]) + grow + 1),
    )


def spatter_frame_filter(frame_counts, floor_sigmas: float = 6.0):
    """Ungated one-frame spatter candidates: scan mask, -LoG clusters above
    the Otsu threshold and the MAD noise floor, then the isolation gate."""
    frame = np.asarray(frame_counts, dtype=np.float64)
    empty = LabelGrid(labels=np.zeros(frame.shape, dtype=np.int32), count=0)
    grad = imageops.gaussian_gradient_magnitude(frame, SPATTER_MASK_SIGMA)
    try:
        (g_thr,) = imageops.otsu_thresholds(grad)
    except DegenerateHistogramError:
        return np.zeros(frame.shape, dtype=bool), empty
    scan_mask = dilate_disk(grad > g_thr, SPATTER_DILATION_PX)

    neg_log = -imageops.gaussian_laplace(frame, SPATTER_BLOB_SIGMA)
    mad = float(np.median(np.abs(neg_log - np.median(neg_log))))
    noise_floor = floor_sigmas * mad / 0.6745
    exclude = dilate_disk(scan_mask, 1)
    pos = np.where((neg_log > 0) & ~exclude, neg_log, 0.0)
    try:
        (b_thr,) = imageops.otsu_thresholds(pos)
    except DegenerateHistogramError:
        return scan_mask, empty
    candidates = (neg_log > max(b_thr, noise_floor)) & ~exclude
    raw = imageops.label_components(candidates, 8)
    if not raw.count:
        return scan_mask, raw

    baseline = float(np.median(frame))
    sigma_est = float(np.median(np.abs(frame - baseline))) / 0.6745
    labels = np.zeros(frame.shape, dtype=np.int32)
    kept = 0
    for lbl in range(1, raw.count + 1):
        box = _grown_box(raw.labels == lbl, 3)
        px = raw.labels[box] == lbl
        ring = dilate_disk(px, 3) & ~dilate_disk(px, 1)
        if ring.any() and float(frame[box][ring].mean()) > baseline + 2.0 * sigma_est:
            continue
        kept += 1
        labels[box][px] = kept
    return scan_mask, LabelGrid(labels=labels, count=kept)


def spatter_layer(stack, scan_order, profile, params=None, stats=None):
    """`features.spatter_layer` filtering every lit frame in full, then
    dilating each surviving cluster by 2 px to test it against the pixels
    scanned within 3 frames. With a `stats` dict, counts the clusters the
    near-laser gate rejected under "near_laser"."""
    params = params or FeatureParams()
    s = _scan_frames(scan_order)
    generation = np.zeros(stack.shape)
    landing = np.zeros(stack.shape)
    registry = np.zeros(stack.shape, dtype=bool)
    records = []
    thr = activity_threshold(profile)
    for t in range(len(stack)):
        frame = stack.frames[t]
        if float(frame.max()) <= thr:
            continue
        _, clusters = spatter_frame_filter(frame, params.spatter_floor_sigmas)
        new_count = 0
        for lbl in range(1, clusters.count + 1):
            px = clusters.labels == lbl
            if registry[px].any():
                continue
            near_s = s[dilate_disk(px, 2)]
            if ((near_s >= 0) & (np.abs(near_s - t) <= 3)).any():
                if stats is not None:
                    stats["near_laser"] = stats.get("near_laser", 0) + 1
                continue
            new_count += 1
            landing[px] += 1.0
            registry[px] = True
            coords = np.argwhere(px) + np.array(stack.origin)
            records.append(SpatterRecord((float(coords[:, 1].mean()), float(coords[:, 0].mean()))))
        if new_count:
            generation[s == t] += new_count
    valid = s >= 0
    gen_map = FeatureMap(FeatureId.SPATTER_GENERATION, stack.layer, generation, valid.copy())
    land_map = FeatureMap(
        FeatureId.SPATTER_LANDING, stack.layer, landing, np.ones(stack.shape, dtype=bool)
    )
    return gen_map, land_map, records


def invert_counts(counts: float, eps: float, profile) -> float:
    """One sample's temperature from the background floor and the closed-form
    band-radiance inverse, in Python floats."""
    _validate_eps(eps)
    floor = float(background_counts(eps, profile))
    if counts <= floor:
        raise BelowFloorError(
            f"counts {counts:.3f} at or below background floor {floor:.3f}"
        )
    s_obj = (counts - floor) / (profile.window_transmission * eps)
    return float(profile.model.temperature(s_obj))


def fit_emissivity(samples, profile):
    """`radiometry.fit_emissivity` whose objective inverts one sample at a
    time and adds each squared error, or 1e12 below the floor, to a running
    total."""
    counts = np.asarray([s[0] for s in samples], dtype=np.float64)
    temps = np.asarray([s[1] for s in samples], dtype=np.float64)
    if not np.isfinite(counts).all():
        raise ParameterError("non-finite counts in samples")
    _check_samples(temps)

    def objective(eps):
        total = 0.0
        for c, t in zip(counts, temps):
            try:
                total += (invert_counts(float(c), eps, profile) - t) ** 2
            except BelowFloorError:
                total += 1e12
        return total

    eps = min(1.0, _golden_min(objective, 1e-3, 1.0))
    resid = np.array(
        [invert_counts(float(c), eps, profile) - t for c, t in zip(counts, temps)]
    )
    return eps, float(np.std(resid, ddof=1))


def fit_window_transmission(paired, profile):
    """`radiometry.fit_window_transmission` with the same one-sample objective."""
    with_g = np.asarray([p[0] for p in paired], dtype=np.float64)
    without_g = np.asarray([p[1] for p in paired], dtype=np.float64)
    temps = np.asarray([p[2] for p in paired], dtype=np.float64)
    _check_samples(temps)
    eps = profile.emissivity_powder
    bare = replace(profile, window_transmission=1.0)
    try:
        t_bare = [invert_counts(float(c), eps, bare) for c in without_g]
    except BelowFloorError:
        raise ParameterError("glass-free counts below background floor")

    def objective(tau):
        prof = replace(profile, window_transmission=tau)
        total = 0.0
        for c, t_ref in zip(with_g, t_bare):
            try:
                total += (invert_counts(float(c), eps, prof) - t_ref) ** 2
            except BelowFloorError:
                total += 1e12
        return total

    return min(1.0, _golden_min(objective, 0.05, 1.0))


def local_predeposition(stack, scan_order, profile, offset: int = 10):
    """`features.local_predeposition` inverting each target frame's pixels
    on their own."""
    s = _scan_frames(scan_order)
    valid = s >= 0
    target = np.maximum(s - offset, 0)
    grid = np.full(stack.shape, np.nan)
    for t in np.unique(target[valid]):
        sel = valid & (target == t)
        grid[sel], _ = _to_temperature(stack.frames[t][sel], profile.emissivity_powder, profile)
    return FeatureMap(FeatureId.LOCAL_PREDEPOSITION, stack.layer, grid, valid)


def cooling_rate(stack, scan_order, profile, window: int = 30):
    """`features.cooling_rate` taking the pixels scanned in each frame on
    their own."""
    s = _scan_frames(scan_order)
    valid = (s >= 0) & (s + window < len(stack))
    grid = np.full(stack.shape, np.nan)
    eps = profile.emissivity_printed
    for t in np.unique(s[valid]):
        sel = valid & (s == t)
        hot, _ = _to_temperature(stack.frames[t][sel], eps, profile)
        cooled, _ = _to_temperature(stack.frames[t + window][sel], eps, profile)
        grid[sel] = (hot - cooled) * (stack.fps / window)
    return FeatureMap(FeatureId.COOLING_RATE, stack.layer, grid, valid)


def fold_max_argmax(frames):
    """Running per-pixel maximum folded in one frame at a time; a frame
    replaces it only where strictly greater, so ties keep the earlier frame."""
    peak = np.full(np.shape(frames)[1:], -np.inf)
    frame = np.full(peak.shape, -1, dtype=np.int64)
    for t in range(len(frames)):
        f = _as_grid(frames[t])
        better = f > peak
        peak[better] = f[better]
        frame[better] = t
    return peak, frame


def interpass(stack, profile):
    """`features.interpass` searching for the first lit frame and adding up
    the pre-scan frames one at a time."""
    thr = activity_threshold(profile)
    k = len(stack)
    for t in range(len(stack)):
        if (stack.frames[t] > thr).any():
            k = t
            break
    if k == 0:
        raise NoPrescanError(f"layer {stack.layer}: laser already active in frame 0")
    k = min(k, INTERPASS_FRAME_CAP)
    acc = np.zeros(stack.shape)
    valid = np.ones(stack.shape, dtype=bool)
    for t in range(k):
        values, ok = _to_temperature(stack.frames[t], profile.emissivity_powder, profile)
        acc += values
        valid &= ok
    return FeatureMap(FeatureId.INTERPASS, stack.layer, acc / k, valid)


def max_predeposition(stack, scan_order, profile, offset: int = 10):
    """`features.max_predeposition` keeping a running maximum temperature of
    the scanned pixels, inverted one frame at a time."""
    s = _scan_frames(scan_order)
    valid = s >= 0
    target = np.maximum(s - offset, 0)
    grid = np.full(stack.shape, np.nan)
    part_target = target[valid]
    running = np.full(part_target.shape, -np.inf)
    for t in range(int(part_target.max()) + 1 if valid.any() else 0):
        values, _ = _to_temperature(stack.frames[t][valid], profile.emissivity_powder, profile)
        running = np.maximum(running, values)
        grid[valid & (target == t)] = running[part_target == t]
    return FeatureMap(FeatureId.MAX_PREDEPOSITION, stack.layer, grid, valid)


# The whole-stack versions that the chunked reductions replaced: each holds
# a temporary about as large as the stack.


def fold_max_argmax_whole(frames):
    """`imageops.fold_max_argmax` as one max and one argmax along axis 0."""
    f = np.asarray(frames)
    return f.max(axis=0).astype(np.float64), f.argmax(axis=0)


def max_predeposition_whole(stack, scan_order, profile, offset: int = 10):
    """`features.max_predeposition` from one (frames, pixels) gather and its
    running maximum and minimum along the frames."""
    s = _scan_frames(scan_order)
    valid = s >= 0
    ys, xs = np.nonzero(valid)
    target = np.maximum(s[ys, xs] - offset, 0)
    counts = stack.frames[: target.max(initial=0) + 1, ys, xs]  # (frames, pixels)
    at = (target, np.arange(len(target)))
    high = np.maximum.accumulate(counts)[at]
    low = np.minimum.accumulate(counts)[at]
    eps = profile.emissivity_powder
    temp, _ = _to_temperature(high, eps, profile)
    pinned = np.maximum(temp, profile.reflected_temperature_c)
    grid = np.full(stack.shape, np.nan)
    floor = radiometry.background_counts(eps, profile)
    grid[ys, xs] = np.where(low <= floor, pinned, temp)
    return FeatureMap(FeatureId.MAX_PREDEPOSITION, stack.layer, grid, valid)


def melt_pool_area_whole(stack, scan_order, profile):
    """`features.melt_pool_area` thresholding the whole stack and labelling
    every unique scan frame's plane in one call."""
    thr = melt_threshold(profile)
    s = _scan_frames(scan_order)
    grid = np.full(stack.shape, np.nan)
    valid = s >= 0
    frames = np.unique(s[valid])
    if len(frames):
        hot = imageops.label_components((stack.frames > thr)[frames], 8)
        first = np.concatenate(([0], np.cumsum(hot.count)[:-1]))
        plane, rows, cols = np.nonzero(hot.labels)
        sizes = np.bincount(hot.labels[plane, rows, cols] + first[plane])
        at = np.searchsorted(frames, s[valid])
        lbl = hot.labels[(at,) + np.nonzero(valid)]
        pools = np.unique((lbl + first[at])[lbl > 0])
        plane_of_pool = np.searchsorted(first, pools) - 1
        area = np.bincount(plane_of_pool, weights=sizes[pools], minlength=len(frames))
        grid[valid] = area[at]
    return FeatureMap(FeatureId.MELT_POOL_AREA, stack.layer, grid, valid)


def dilate_disk(binary, radius: int) -> np.ndarray:
    """`imageops.dilate_disk`, ORing in one shifted copy per footprint offset
    (di, dj) with di^2 + dj^2 <= r^2; pixels beyond the border are unset."""
    b = np.asarray(binary, dtype=bool)
    if radius <= 0:
        return b.copy()
    h, w = b.shape
    padded = np.pad(b, radius)
    out = np.zeros_like(b)
    for di in range(-radius, radius + 1):
        for dj in range(-radius, radius + 1):
            if di * di + dj * dj <= radius * radius:
                out |= padded[radius - di : radius - di + h, radius - dj : radius - dj + w]
    return out


def signal(model, t_c):
    """`RadianceModel.signal` as one expression."""
    t_k = np.asarray(t_c, dtype=np.float64) + KELVIN_OFFSET
    if np.any(t_k <= 0):
        raise ParameterError("temperature at or below absolute zero")
    return model.c_counts / np.expm1(C2_UM_K / (model.a_um * t_k + model.b_um_k))


def temperature(model, s_obj):
    """`RadianceModel.temperature` as one expression."""
    s = np.asarray(s_obj, dtype=np.float64)
    if np.any(s <= 0):
        raise ParameterError("signal must be positive to invert")
    return (C2_UM_K / np.log1p(model.c_counts / s) - model.b_um_k) / model.a_um - KELVIN_OFFSET


def background_counts(eps, profile):
    """`radiometry.background_counts`, the reflected signal recomputed per call."""
    tau = profile.window_transmission
    s_refl = signal(profile.model, profile.reflected_temperature_c)
    e = np.asarray(eps, dtype=np.float64)
    return tau * (1.0 - e) * s_refl + (1.0 - tau) * s_refl


def forward_counts(t_obj_c, eps, profile):
    """`radiometry.forward_counts` as one expression."""
    _validate_eps(eps)
    e = np.asarray(eps, dtype=np.float64)
    out = profile.window_transmission * e * signal(profile.model, t_obj_c) + background_counts(eps, profile)
    if np.isscalar(t_obj_c) and np.isscalar(eps):
        return float(out)
    return out


def invert_counts_array(counts, eps, profile):
    """`radiometry.invert_counts_array` with the emissivity broadcast to the
    counts before the floor is taken."""
    _validate_eps(eps)
    c = np.asarray(counts, dtype=np.float64)
    e = np.broadcast_to(np.asarray(eps, dtype=np.float64), c.shape)
    floor = background_counts(e, profile)
    valid = c > floor
    s_obj = np.where(valid, (c - floor) / (profile.window_transmission * e), 1.0)
    return np.where(valid, temperature(profile.model, s_obj), np.nan), valid


def generate_scan_path(mask, params, layer: int, samples_per_pixel: float = 2.0) -> ScanPath:
    """`simulator.generate_scan_path`, one hatch line at a time."""
    pitch_mm = mask.registration.pitch_um / 1000.0
    theta = math.radians((layer * params.rotation_per_layer_deg) % 180.0)
    wdir = np.array([math.cos(theta), math.sin(theta)])
    ldir = np.array([-math.sin(theta), math.cos(theta)])
    ox, oy = mask.registration.origin_px
    dense = mask.pixel_mask()
    step = pitch_mm / samples_per_pixel
    if not dense.any():
        return ScanPath(np.empty(0), np.empty(0), np.empty(0), step, (ox, oy))
    ys, xs = np.nonzero(dense)
    px_mm = (xs - ox) * pitch_mm
    py_mm = (ys - oy) * pitch_mm
    wc = px_mm * wdir[0] + py_mm * wdir[1]
    lc = px_mm * ldir[0] + py_mm * ldir[1]
    w_lo, w_hi = float(wc.min()) - pitch_mm, float(wc.max()) + pitch_mm
    l_lo, l_hi = float(lc.min()) - pitch_mm, float(lc.max()) + pitch_mm
    advance = params.stripe_width_mm - params.stripe_overlap_mm
    n_stripes = max(1, math.ceil((w_hi - w_lo) / params.stripe_width_mm))
    hatch_mm = params.hatch_um / 1000.0
    n_lines = int((l_hi - l_lo) / hatch_mm) + 1
    h, w = dense.shape
    out_x, out_y = [], []
    for m in range(n_stripes):
        band_lo = w_lo + m * advance
        band_hi = min(band_lo + params.stripe_width_mm, w_hi)
        ws = np.arange(band_lo, band_hi, step)
        for i in range(n_lines):
            li = l_lo + i * hatch_mm
            wline = ws if i % 2 == 0 else ws[::-1]
            gx = (wline * wdir[0] + li * ldir[0]) / pitch_mm + ox
            gy = (wline * wdir[1] + li * ldir[1]) / pitch_mm + oy
            ix, iy = _nearest(gx, ox), _nearest(gy, oy)
            ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
            keep = np.zeros(len(wline), dtype=bool)
            keep[ok] = dense[iy[ok], ix[ok]]
            if keep.any():
                out_x.append(gx[keep])
                out_y.append(gy[keep])
    x_all = np.concatenate(out_x) if out_x else np.empty(0)
    y_all = np.concatenate(out_y) if out_y else np.empty(0)
    t_all = (np.arange(len(x_all)) + 1) * (step / params.scan_speed_mm_s)
    return ScanPath(x_all, y_all, t_all, step, (ox, oy))


def render_frames(
    path, dims, thermal, profile, spatters=None, window=None, noise_percent=0.0,
    fps=30.0, prescan_frames=3, tail_frames=35, seed=0, layer=0,
):
    """`simulator.render_frames` converting, and adding noise to, one frame at
    a time, with the one-expression `forward_counts`."""
    w, h = dims
    spatters = list(spatters or [])
    rows, cols = window or (slice(0, h), slice(0, w))
    origin = (rows.start, cols.start)
    amb = np.broadcast_to(np.asarray(thermal.ambient_c, dtype=np.float64), (h, w)).copy()
    n_scan = math.ceil(path.duration_s * fps - 1e-12) if len(path) else 0
    n = prescan_frames + n_scan + tail_frames
    seen = np.zeros(amb[rows, cols].shape, dtype=bool)
    ix, iy = path.pixels()
    seen[np.clip(iy, 0, h - 1) - origin[0], np.clip(ix, 0, w - 1) - origin[1]] = True
    truth = _true_temperatures(path, thermal, spatters, amb, (rows, cols), seen, n, fps, prescan_frames)
    scan_order = np.full(seen.shape, UNSCANNED, dtype=np.int64)
    scan_order[seen] = np.argmax(truth[:, seen], axis=0)
    counts = truth
    for k in range(n):
        eps = np.where(seen & (k > scan_order), profile.emissivity_printed, profile.emissivity_powder)
        counts[k] = forward_counts(truth[k], eps, profile)
    sigma = noise_percent / 100.0 * (float(counts.max()) - float(counts.min()))
    rng = np.random.default_rng(seed)
    frames = np.empty(counts.shape, dtype="<u2")
    for k in range(n):
        noise = rng.normal(0.0, sigma, seen.shape) if noise_percent > 0 else 0.0
        frames[k] = np.clip(np.round(counts[k] + noise), 0, 65535).astype("<u2")
    stack = LayerStack(frames=frames, fps=fps, layer=layer, origin=origin)
    return stack, GroundTruth(scan_order, spatters, origin, dims)


def make_spatter_schedule(
    path, mask, count, peak_dt_c=250.0, decay_s=0.15, fps=30.0, prescan_frames=3, seed=0,
    min_lead_frames=20, clearance_px=9.0, min_separation_px=6.0,
) -> list[SpatterEvent]:
    """`simulator.make_spatter_schedule` drawing its candidates from the
    whole camera frame of first visits."""
    if count > 0 and not len(path):
        raise ParameterError(f"layer {mask.layer}: the scan path is empty, so no spatter event can be placed")
    w, h = mask.registration.dims
    first = first_visit_frames(path, (w, h), fps, prescan_frames)
    fr = prescan_frames + np.floor(path.t_s * fps).astype(np.int64)
    last_frame = int(fr.max()) if len(fr) else prescan_frames
    rng = np.random.default_rng(seed)
    chosen = []
    candidates = np.argwhere(first >= 0)
    attempts = 0
    while len(chosen) < count and attempts < 4000:
        attempts += 1
        emit = int(rng.integers(prescan_frames + 2, max(prescan_frames + 3, last_frame - min_lead_frames - 8)))
        cy, cx = candidates[rng.integers(len(candidates))]
        if first[cy, cx] < emit + min_lead_frames:
            continue
        near = (fr >= emit - 1) & (fr <= emit + 4)
        if near.any() and float(np.hypot(path.x_px[near] - cx, path.y_px[near] - cy).min()) < clearance_px:
            continue
        if any(math.hypot(ev.landing_px[0] - cx, ev.landing_px[1] - cy) < min_separation_px for ev in chosen):
            continue
        chosen.append(SpatterEvent(emit, (int(cx), int(cy)), peak_dt_c, decay_s))
    if len(chosen) < count:
        raise ParameterError(f"could only place {len(chosen)} of {count} spatter events")
    return chosen


def export_csv(store, layer: int, feature_id: int) -> bytes:
    """`store.export_grid(..., "csv")` formatting one entry at a time."""
    sp = store.get(layer, feature_id)
    nx, ny, _ = store.meta.dims
    lines = ["i,j,layer,value"]
    idx = sp.indices.astype(np.int64)
    plane = idx - nx * ny * layer
    for k in range(len(idx)):
        v = float(sp.values[k])
        if np.isnan(v):
            continue
        lines.append(f"{plane[k] % nx},{plane[k] // nx},{layer},{v!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def export_vtk(store, layer: int, feature_id: int) -> bytes:
    """`store.export_grid(..., "vtk")` formatting one voxel at a time."""
    grid = _layer_grid(store, layer, feature_id)
    nx, ny, _ = store.meta.dims
    px, py, pz = store.meta.pitch_um
    header = (
        "# vtk DataFile Version 3.0\n"
        f"irmap feature {feature_id} layer {layer}\n"
        "ASCII\n"
        "DATASET STRUCTURED_POINTS\n"
        f"DIMENSIONS {nx} {ny} 1\n"
        f"ORIGIN 0 0 {layer * pz / 1000.0}\n"
        f"SPACING {px / 1000.0} {py / 1000.0} {pz / 1000.0}\n"
        f"POINT_DATA {nx * ny}\n"
        f"SCALARS feature_{feature_id} float 1\n"
        "LOOKUP_TABLE default\n"
    )
    vals = grid.reshape(-1)  # x-fastest: grid is (ny, nx) row-major
    body = "\n".join(repr(float(v)) for v in vals)
    return (header + body + "\n").encode("utf-8")
