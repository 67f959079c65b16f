"""Reference implementations the array kernels in `irmap` must match byte for byte.

Each is the straightforward one-pixel / one-ray / one-call / one-sample
version that the package used before its kernels worked on whole arrays.
`gaussian_blur`, which only tests use, lives here too, and so does the
spatter detector that gates every cluster on its own after filtering the
whole frame. The calibration fits invert one sample at a time, and the
pre-deposition and cooling extractors one target frame at a time. The
heat-intensity fold, the interpass mean and the maximum pre-deposition walk
the stack one frame at a time.
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
from irmap import imageops
from irmap.features import (
    INTERPASS_FRAME_CAP,
    SPATTER_BLOB_SIGMA,
    SPATTER_DILATION_PX,
    SPATTER_MASK_SIGMA,
    UNSCANNED,
    FeatureId,
    FeatureMap,
    FeatureParams,
    SpatterRecord,
    _grown_box,
    _scan_frames,
    _to_temperature,
    activity_threshold,
)
from irmap.imageops import (
    OTSU_BINS,
    LabelGrid,
    _as_grid,
    gaussian_kernel_1d,
)
from irmap.radiometry import (
    _check_samples,
    _golden_min,
    _validate_eps,
    background_counts,
)
from irmap.simulator import SPATTER_SIGMA_PX

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
    """`simulator.first_visit_frames`, writing samples in reverse so the
    earliest visit is written last."""
    w, h = dims
    first = np.full((h, w), UNSCANNED, dtype=np.int64)
    ix, iy = path.pixels()
    ix, iy = np.clip(ix, 0, w - 1), np.clip(iy, 0, h - 1)
    fr = prescan_frames + np.floor(path.t_s * fps).astype(np.int64)
    for k in range(len(path) - 1, -1, -1):
        first[iy[k], ix[k]] = fr[k]
    return first


def spatter_frame_filter(frame_counts, floor_sigmas: float = 6.0):
    """Ungated one-frame spatter candidates: scan mask, -LoG clusters above
    the Otsu threshold and the MAD noise floor, then the isolation gate."""
    frame = np.asarray(frame_counts, dtype=np.float64)
    empty = LabelGrid(labels=np.zeros(frame.shape, dtype=np.int32), count=0)
    grad = imageops.gaussian_gradient_magnitude(frame, SPATTER_MASK_SIGMA)
    try:
        (g_thr,) = imageops.otsu_thresholds(grad, 2)
    except DegenerateHistogramError:
        return np.zeros(frame.shape, dtype=bool), empty
    scan_mask = imageops.dilate_disk(grad > g_thr, SPATTER_DILATION_PX)

    neg_log = -imageops.gaussian_laplace(frame, SPATTER_BLOB_SIGMA)
    mad = float(np.median(np.abs(neg_log - np.median(neg_log))))
    noise_floor = floor_sigmas * mad / 0.6745
    exclude = imageops.dilate_disk(scan_mask, 1)
    pos = np.where((neg_log > 0) & ~exclude, neg_log, 0.0)
    try:
        (b_thr,) = imageops.otsu_thresholds(pos, 2)
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
        ring = imageops.dilate_disk(px, 3) & ~imageops.dilate_disk(px, 1)
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
            near_s = s[imageops.dilate_disk(px, 2)]
            if ((near_s >= 0) & (np.abs(near_s - t) <= 3)).any():
                if stats is not None:
                    stats["near_laser"] = stats.get("near_laser", 0) + 1
                continue
            new_count += 1
            landing[px] += 1.0
            registry[px] = True
            coords = np.argwhere(px) + np.array(stack.origin)
            records.append(
                SpatterRecord(
                    frame=t,
                    landing_pixels=coords,
                    centroid=(float(coords[:, 1].mean()), float(coords[:, 0].mean())),
                    size=int(px.sum()),
                )
            )
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


def fit_emissivity(samples, profile, tol: float = 1e-4):
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

    eps = min(1.0, _golden_min(objective, 1e-3, 1.0, tol))
    resid = np.array(
        [invert_counts(float(c), eps, profile) - t for c, t in zip(counts, temps)]
    )
    return eps, float(np.std(resid, ddof=1))


def fit_window_transmission(paired, profile, tol: float = 1e-4):
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

    return min(1.0, _golden_min(objective, 0.05, 1.0, tol))


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
