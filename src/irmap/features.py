"""Per-layer IR feature extractors over an ordered frame stack.

Every extractor returns a FeatureMap aligned to the stack's frames, which
hold the layer's part window; `extract_layer` keeps each map's values at the
layer's part pixels only.
A single laser-activity count threshold (counts of a 660 degC blackbody at
unit emissivity) defines "scanned" everywhere: the interpass cutoff, the
unscanned sentinel, and the scalar-assignment target pixels.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import imageops
from .errors import NoPrescanError, ParameterError
from .geometry import LayerMask
from .imageops import LabelGrid
from .radiometry import CalibrationProfile, background_counts, forward_counts, invert_counts_array

UNSCANNED = -1


class FeatureId(IntEnum):
    INTERPASS = 1  # degC
    HEAT_INTENSITY = 2  # counts
    SCAN_ORDER = 3  # frame
    LOCAL_PREDEPOSITION = 4  # degC
    MAX_PREDEPOSITION = 5  # degC
    SPATTER_GENERATION = 6  # count
    SPATTER_LANDING = 7  # count
    MELT_POOL_AREA = 8  # px
    COOLING_RATE = 9  # degC/s
    INTERPASS_LAPLACIAN = 10  # degC/px^2
    ASPRINTED_LAPLACIAN = 11  # degC/px^2


@dataclass
class LayerStack:
    """Ordered radiometric frames of one layer: the camera frame, or a window of it."""

    frames: np.ndarray  # (n, h, w) counts, u16 from the simulator and from disk
    fps: float = 30.0
    layer: int = 0
    origin: tuple[int, int] = (0, 0)  # camera (row, col) of frames[:, 0, 0]

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 3 or self.frames.shape[0] < 1:
            raise ParameterError(
                f"stack needs >= 1 uniform frame, got shape {self.frames.shape}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.frames.shape[1:]

    def __len__(self) -> int:
        return self.frames.shape[0]


@dataclass
class FeatureMap:
    feature_id: FeatureId
    layer: int
    grid: np.ndarray
    validity: np.ndarray


@dataclass
class SpatterRecord:
    centroid: tuple[float, float]  # camera (x, y)


@dataclass
class FeatureParams:
    """Extractor parameters that a run config sets."""

    offset_frames: int = 10
    cooling_window: int = 30
    spatter_floor_sigmas: float = 6.0


MELT_ONSET_C = 660.0
MELT_EMISSIVITY = 0.1
INTERPASS_FRAME_CAP = 3
SPATTER_MASK_SIGMA = 3.0  # px, gradient scale of the scan mask
SPATTER_BLOB_SIGMA = 1.0  # px, LoG scale of a spatter blob
SPATTER_DILATION_PX = 2
LAPLACIAN_SIGMA = 1.0  # px, LoG scale of the interpass and as-printed Laplacians
# a spatter cluster within NEAR_LASER_PX (Euclidean) of a pixel scanned within
# NEAR_LASER_FRAMES of its frame is the melt front's own edge
NEAR_LASER_FRAMES = 3
NEAR_LASER_PX = 2
# the widest extractor kernel radius (the scan-mask gradient): a window this
# far around the part gives every part pixel its whole-frame filter response
WINDOW_PAD = int(np.ceil(4 * SPATTER_MASK_SIGMA))


def activity_threshold(profile: CalibrationProfile) -> float:
    """Counts above which a pixel is being scanned."""
    # melt-onset temperature seen through the low as-printed emissivity:
    # far above any unscanned pixel, below every laser peak
    return forward_counts(MELT_ONSET_C, profile.emissivity_printed, profile)


def melt_threshold(profile: CalibrationProfile) -> float:
    """Counts above which a pixel counts toward the melt-pool area."""
    return forward_counts(MELT_ONSET_C, MELT_EMISSIVITY, profile)


def _to_temperature(frame, eps: float, profile: CalibrationProfile):
    """Counts to degC at a fixed emissivity; below-floor pixels pinned to the
    reflected temperature so downstream filters stay finite."""
    values, valid = invert_counts_array(frame, eps, profile)
    values = np.where(valid, values, profile.reflected_temperature_c)
    return values, valid


def lit_frames(stack: LayerStack, profile: CalibrationProfile) -> np.ndarray:
    """(n,) bool: the frames in which some pixel is above the activity threshold."""
    return stack.frames.max(axis=(1, 2)) > activity_threshold(profile)


def interpass(stack: LayerStack, profile: CalibrationProfile) -> FeatureMap:
    """Mean powder-emissivity temperature of the pre-scan frames."""
    lit = lit_frames(stack, profile)
    k = int(lit.argmax()) if lit.any() else len(stack)
    if k == 0:
        raise NoPrescanError(f"layer {stack.layer}: laser already active in frame 0")
    k = min(k, INTERPASS_FRAME_CAP)
    values, ok = _to_temperature(stack.frames[:k], profile.emissivity_powder, profile)
    return FeatureMap(
        feature_id=FeatureId.INTERPASS,
        layer=stack.layer,
        grid=values.sum(axis=0) / k,
        validity=ok.all(axis=0),
    )


def heat_intensity_and_scan_order(
    stack: LayerStack, profile: CalibrationProfile
) -> tuple[FeatureMap, FeatureMap]:
    """Raw-count running maximum (emissivity treated as 1.0) and its frame index."""
    peak, frame = imageops.fold_max_argmax(stack.frames)
    scanned = peak > activity_threshold(profile)
    intensity = FeatureMap(
        feature_id=FeatureId.HEAT_INTENSITY,
        layer=stack.layer,
        grid=np.where(scanned, peak, np.nan),
        validity=scanned.copy(),
    )
    order = FeatureMap(
        feature_id=FeatureId.SCAN_ORDER,
        layer=stack.layer,
        grid=np.where(scanned, frame, UNSCANNED).astype(np.float64),
        validity=scanned.copy(),
    )
    return intensity, order


def _scan_frames(scan_order: FeatureMap) -> np.ndarray:
    return np.where(scan_order.validity, scan_order.grid, UNSCANNED).astype(np.int64)


def local_predeposition(
    stack: LayerStack,
    scan_order: FeatureMap,
    profile: CalibrationProfile,
    offset: int = 10,
) -> FeatureMap:
    """Powder-emissivity temperature `offset` frames before each pixel's scan
    (frame 0 for a pixel scanned before frame `offset`)."""
    s = _scan_frames(scan_order)
    valid = s >= 0
    ys, xs = np.nonzero(valid)
    target = np.maximum(s[ys, xs] - offset, 0)
    grid = np.full(stack.shape, np.nan)
    grid[ys, xs], _ = _to_temperature(
        stack.frames[target, ys, xs], profile.emissivity_powder, profile
    )
    return FeatureMap(
        feature_id=FeatureId.LOCAL_PREDEPOSITION,
        layer=stack.layer,
        grid=grid,
        validity=valid,
    )


def max_predeposition(
    stack: LayerStack,
    scan_order: FeatureMap,
    profile: CalibrationProfile,
    offset: int = 10,
) -> FeatureMap:
    """Maximum powder-emissivity temperature over frames [0, scan - offset]
    (frame 0 alone for a pixel scanned before frame `offset`).

    Inversion increases with counts, so this is the inverse of the running
    maximum count. `_to_temperature` pins below-floor counts to the reflected
    temperature, so it is raised to that where the running minimum count
    reached the floor. Both running extremes are carried across chunks of
    CHUNK_FRAMES frames, each gathered only at the pixels whose target frame
    it may still reach."""
    s = _scan_frames(scan_order)
    valid = s >= 0
    ys, xs = np.nonzero(valid)
    target = np.maximum(s[ys, xs] - offset, 0)
    order = np.argsort(target, kind="stable")  # pixels leave the gather in target order
    ordered = target[order]
    pixels = (ys * stack.shape[1] + xs)[order]
    frames = stack.frames.reshape(len(stack), -1)
    high, low = np.empty(len(order), frames.dtype), np.empty(len(order), frames.dtype)
    end = int(ordered[-1]) + 1 if len(order) else 0
    done = 0  # pixels whose target frame lies before the chunk
    for start in range(0, end, imageops.CHUNK_FRAMES):
        stop = min(start + imageops.CHUNK_FRAMES, end)
        left = np.searchsorted(ordered, start)
        counts = frames[start:stop, pixels[left:]]  # (chunk frames, pixels still open)
        hi, lo = np.maximum.accumulate(counts), np.minimum.accumulate(counts)
        if start:
            np.maximum(hi, carry_hi[left - done :], out=hi)
            np.minimum(lo, carry_lo[left - done :], out=lo)
        right = np.searchsorted(ordered, stop)
        at = (ordered[left:right] - start, np.arange(right - left))
        high[order[left:right]], low[order[left:right]] = hi[at], lo[at]
        carry_hi, carry_lo, done = hi[-1], lo[-1], left
    eps = profile.emissivity_powder
    temp, _ = _to_temperature(high, eps, profile)
    pinned = np.maximum(temp, profile.reflected_temperature_c)
    grid = np.full(stack.shape, np.nan)
    grid[ys, xs] = np.where(low <= background_counts(eps, profile), pinned, temp)
    return FeatureMap(
        feature_id=FeatureId.MAX_PREDEPOSITION,
        layer=stack.layer,
        grid=grid,
        validity=valid,
    )


def spatter_frame_filter(
    frame_counts: np.ndarray, gate_mask: np.ndarray, floor_sigmas: float = 6.0
) -> tuple[np.ndarray | None, LabelGrid]:
    """One-frame spatter candidates: -LoG blob clusters off the scan mask.

    Runs on raw counts, where camera noise is uniform across the frame. The
    scan mask is the high Otsu class of the Gaussian gradient magnitude,
    dilated; candidates are 8-connected clusters of the -LoG response outside
    the mask, above the larger of the Otsu threshold and a robust noise floor
    (floor_sigmas times the MAD-estimated -LoG noise), so a frame with no
    real blobs yields no clusters instead of thresholding pure noise.

    Clusters touching `gate_mask` are dropped: `spatter_layer` passes
    the near-laser pixels (see `near_laser_mask`) and the pixels its registry
    already counted. Returns the scan mask (None when the early exit skipped
    it) and the surviving clusters.
    """
    frame = np.asarray(frame_counts, dtype=np.float64)
    empty = LabelGrid(labels=np.zeros(frame.shape, dtype=np.int32), count=0)
    neg_log = -imageops.gaussian_laplace(frame, SPATTER_BLOB_SIGMA)
    mad = imageops.median(np.abs(neg_log - imageops.median(neg_log)))
    noise_floor = floor_sigmas * mad / 0.6745
    # exact early exit: every candidate pixel is above the noise floor, and a
    # cluster with any pixel in `gate_mask` is dropped below, so with no
    # above-floor pixel outside the mask no cluster can survive whatever the
    # scan mask and the Otsu thresholds turn out to be
    if not (neg_log[~gate_mask] > noise_floor).any():
        return None, empty

    grad = imageops.gaussian_gradient_magnitude(frame, SPATTER_MASK_SIGMA)
    try:
        (g_thr,) = imageops.otsu_thresholds(grad)
    except imageops.DegenerateHistogramError:
        return np.zeros(frame.shape, dtype=bool), empty
    scan_mask = imageops.dilate_disk(grad > g_thr, SPATTER_DILATION_PX)
    # one extra ring beyond the mask so the melt spot's own -LoG skirt,
    # which is orders of magnitude above any blob, stays out of the search
    exclude = imageops.dilate_disk(scan_mask, 1)
    pos = np.where((neg_log > 0) & ~exclude, neg_log, 0.0)
    try:
        (b_thr,) = imageops.otsu_thresholds(pos)
    except imageops.DegenerateHistogramError:
        return scan_mask, empty
    candidates = (neg_log > max(b_thr, noise_floor)) & ~exclude
    raw = imageops.label_components(candidates, 8)
    hits = np.bincount(raw.labels[gate_mask], minlength=raw.count + 1)
    survivors = np.flatnonzero(hits[1:] == 0) + 1
    if not len(survivors):
        return scan_mask, empty

    # isolation gate: a spatter lands on cold powder, so the ring around a
    # genuine cluster sits at the powder baseline; hot-edge artifacts at line
    # ends and stripe boundaries have glowing neighbors and get rejected
    baseline = imageops.median(frame)
    sigma_est = imageops.median(np.abs(frame - baseline)) / 0.6745
    labels = empty.labels
    kept = 0
    for lbl in survivors:
        px = raw.labels == lbl
        ring = imageops.dilate_disk(px, 3) & ~imageops.dilate_disk(px, 1)
        if ring.any() and float(frame[ring].mean()) > baseline + 2.0 * sigma_est:
            continue
        kept += 1
        labels[px] = kept
    return scan_mask, LabelGrid(labels=labels, count=kept)


def near_laser_mask(scan_frames: np.ndarray, t: int) -> np.ndarray:
    """Pixels within NEAR_LASER_PX of a pixel scanned within NEAR_LASER_FRAMES
    of frame t: a cluster there is the melt front, not a landing on powder.

    Dilating the scanned pixels instead of each cluster gives the same hits,
    because the disk footprint is symmetric."""
    now = (scan_frames >= 0) & (np.abs(scan_frames - t) <= NEAR_LASER_FRAMES)
    return imageops.dilate_disk(now, NEAR_LASER_PX)


def spatter_layer(
    stack: LayerStack,
    scan_order: FeatureMap,
    profile: CalibrationProfile,
    params: FeatureParams,
) -> tuple[FeatureMap, FeatureMap, list[SpatterRecord]]:
    """Spatter generation (credited to the laser location) and landing maps.

    A per-layer registry of already-counted pixels prevents recounting a
    spatter that stays hot across consecutive frames: the filter drops a
    cluster on a registered pixel as it drops one near the laser. Only the
    registry from before the frame matters, because one frame's clusters
    are disjoint, so no pixel is counted twice and the landing map is the
    registry itself, 0 or 1 per pixel.
    """
    s = _scan_frames(scan_order)
    generation = np.zeros(stack.shape)
    registry = np.zeros(stack.shape, dtype=bool)
    records: list[SpatterRecord] = []
    # a frame with no laser in view has nothing emitting spatter
    for t in np.flatnonzero(lit_frames(stack, profile)).tolist():
        frame = stack.frames[t]
        _, clusters = spatter_frame_filter(
            frame, near_laser_mask(s, t) | registry, params.spatter_floor_sigmas
        )
        for lbl in range(1, clusters.count + 1):
            px = clusters.labels == lbl
            registry[px] = True
            coords = np.argwhere(px) + np.array(stack.origin)
            records.append(SpatterRecord((float(coords[:, 1].mean()), float(coords[:, 0].mean()))))
        if clusters.count:
            generation[s == t] += clusters.count
    valid = s >= 0
    gen_map = FeatureMap(
        feature_id=FeatureId.SPATTER_GENERATION,
        layer=stack.layer,
        grid=generation,
        validity=valid.copy(),
    )
    land_map = FeatureMap(
        feature_id=FeatureId.SPATTER_LANDING,
        layer=stack.layer,
        grid=registry.astype(np.float64),
        validity=np.ones(stack.shape, dtype=bool),
    )
    return gen_map, land_map, records


def melt_pool_area(
    stack: LayerStack, scan_order: FeatureMap, profile: CalibrationProfile
) -> FeatureMap:
    """Per frame, the size of the super-threshold region 8-connected to that
    frame's laser pixels (not noise or spatter elsewhere), written to them."""
    thr = melt_threshold(profile)
    s = _scan_frames(scan_order)
    grid = np.full(stack.shape, np.nan)
    valid = s >= 0
    ys, xs = np.nonzero(valid)
    frames, at = np.unique(s[ys, xs], return_inverse=True)
    area = np.empty(len(frames))
    # the unique scan frames' planes, CHUNK_FRAMES at a time: each plane is
    # labelled as on its own, so the chunks give the same areas
    for c0 in range(0, len(frames), imageops.CHUNK_FRAMES):
        planes = frames[c0 : c0 + imageops.CHUNK_FRAMES]
        hot = imageops.label_components(stack.frames[planes] > thr, 8)
        # number every plane's clusters on from the previous plane's, so one
        # bincount sizes them all
        first = np.concatenate(([0], np.cumsum(hot.count)[:-1]))
        plane, rows, cols = np.nonzero(hot.labels)
        sizes = np.bincount(hot.labels[plane, rows, cols] + first[plane])
        # the distinct clusters under each frame's laser pixels
        sel = (at >= c0) & (at < c0 + len(planes))
        lit = at[sel] - c0
        lbl = hot.labels[lit, ys[sel], xs[sel]]
        pools = np.unique((lbl + first[lit])[lbl > 0])
        plane_of_pool = np.searchsorted(first, pools) - 1  # last plane numbered below
        area[c0 : c0 + len(planes)] = np.bincount(
            plane_of_pool, weights=sizes[pools], minlength=len(planes)
        )
    grid[valid] = area[at]
    return FeatureMap(
        feature_id=FeatureId.MELT_POOL_AREA, layer=stack.layer, grid=grid, validity=valid
    )


def cooling_rate(
    stack: LayerStack,
    scan_order: FeatureMap,
    profile: CalibrationProfile,
    window: int = 30,
) -> FeatureMap:
    """(T[scan] - T[scan + window]) * fps / window in degC/s, as-printed emissivity.

    Pixels whose window extends past the stack are invalid, never zero-filled.
    """
    s = _scan_frames(scan_order)
    valid = (s >= 0) & (s + window < len(stack))
    ys, xs = np.nonzero(valid)
    scan = s[ys, xs]
    eps = profile.emissivity_printed
    hot, _ = _to_temperature(stack.frames[scan, ys, xs], eps, profile)
    cooled, _ = _to_temperature(stack.frames[scan + window, ys, xs], eps, profile)
    grid = np.full(stack.shape, np.nan)
    grid[ys, xs] = (hot - cooled) * (stack.fps / window)
    return FeatureMap(
        feature_id=FeatureId.COOLING_RATE, layer=stack.layer, grid=grid, validity=valid
    )


def interpass_laplacian(interpass_map: FeatureMap) -> FeatureMap:
    """Laplacian-of-Gaussian of the interpass field; flags recoat anomalies."""
    return FeatureMap(
        feature_id=FeatureId.INTERPASS_LAPLACIAN,
        layer=interpass_map.layer,
        grid=imageops.gaussian_laplace(interpass_map.grid, LAPLACIAN_SIGMA),
        validity=interpass_map.validity.copy(),
    )


def asprinted_laplacian(stack: LayerStack, profile: CalibrationProfile) -> FeatureMap:
    """LoG of the final frame converted at as-printed emissivity."""
    temp, ok = _to_temperature(stack.frames[-1], profile.emissivity_printed, profile)
    return FeatureMap(
        feature_id=FeatureId.ASPRINTED_LAPLACIAN,
        layer=stack.layer,
        grid=imageops.gaussian_laplace(temp, LAPLACIAN_SIGMA),
        validity=ok,
    )


@dataclass
class LayerFeatures:
    """One layer's features at its part pixels, in `mask` order."""

    layer: int
    mask: LayerMask
    values: dict[FeatureId, np.ndarray]  # float64 per mask pixel, NaN = invalid
    spatter_records: list[SpatterRecord]

    @property
    def maps(self) -> Mapping[FeatureId, FeatureMap]:
        """Read-only camera-frame view; a map is built each time it is read."""
        return _CameraMaps(self)


class _CameraMaps(Mapping):
    def __init__(self, features: LayerFeatures):
        self._features = features

    def __getitem__(self, fid: FeatureId) -> FeatureMap:
        f = self._features
        w, h = f.mask.registration.dims
        grid = np.full((h, w), np.nan)
        grid[f.mask.pix_y, f.mask.pix_x] = f.values[fid]
        return FeatureMap(fid, f.layer, grid, ~np.isnan(grid))

    def __iter__(self):
        return iter(self._features.values)

    def __len__(self) -> int:
        return len(self._features.values)


def extract_layer(
    stack: LayerStack,
    profile: CalibrationProfile,
    mask: LayerMask,
    params: FeatureParams,
) -> LayerFeatures:
    """Run every extractor on the stack's window and keep each feature's
    values at the mask's pixels. All feature ids are always present."""
    (y0, x0), (h, w) = stack.origin, stack.shape
    rows, cols = mask.pix_y - y0, mask.pix_x - x0
    if len(mask) and not (
        rows.min() >= 0 and rows.max() < h and cols.min() >= 0 and cols.max() < w
    ):
        raise ParameterError(
            f"layer {stack.layer}: part pixels fall outside the {w}x{h} px stack "
            f"window at camera (row, col) {stack.origin}"
        )
    intensity, order = heat_intensity_and_scan_order(stack, profile)
    ip = interpass(stack, profile)
    maps = [
        intensity,
        order,
        ip,
        local_predeposition(stack, order, profile, params.offset_frames),
        max_predeposition(stack, order, profile, params.offset_frames),
        melt_pool_area(stack, order, profile),
        cooling_rate(stack, order, profile, params.cooling_window),
        interpass_laplacian(ip),
        asprinted_laplacian(stack, profile),
    ]
    gen, land, records = spatter_layer(stack, order, profile, params)
    values = {
        m.feature_id: np.where(m.validity[rows, cols], m.grid[rows, cols], np.nan)
        for m in (*maps, gen, land)
    }
    return LayerFeatures(stack.layer, mask, values, records)
