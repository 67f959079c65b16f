"""Synthetic build simulator: stripe scan paths, thermal frames, ground truth.

The thermal model is phenomenological: each path sample drops a Gaussian
source that decays exponentially with a shared time constant, so a frame's
excess-temperature field is the previous field decayed plus the new sources.
That makes rendering exact, fast, and reproducible; it is an oracle
generator, not a physics solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .features import UNSCANNED, LayerStack
from .geometry import LayerMask
from .radiometry import CalibrationProfile, forward_counts


@dataclass(frozen=True)
class ScanParameters:
    scan_speed_mm_s: float = 960.0
    hatch_um: float = 110.0
    stripe_width_mm: float = 10.0
    stripe_overlap_mm: float = 0.08
    rotation_per_layer_deg: float = 66.7
    layer_thickness_um: float = 40.0

    def __post_init__(self):
        for name in (
            "scan_speed_mm_s",
            "hatch_um",
            "stripe_width_mm",
            "stripe_overlap_mm",
            "rotation_per_layer_deg",
            "layer_thickness_um",
        ):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")


@dataclass(frozen=True)
class SpatterEvent:
    emit_frame: int
    landing_px: tuple[int, int]  # (x, y)
    peak_dt_c: float
    decay_s: float

    def __post_init__(self):
        if self.peak_dt_c <= 0 or self.decay_s <= 0:
            raise ParameterError("spatter peak and decay must be positive")


@dataclass
class SpatterSchedule:
    events: list[SpatterEvent] = field(default_factory=list)


_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class ThermalParams:
    """footprint_px is the full width at half maximum of the heat spot."""

    ambient_c: float | np.ndarray = 80.0
    peak_c: float = 1200.0
    footprint_px: float = 1.5
    decay_s: float = 0.033

    def __post_init__(self):
        if self.footprint_px < 1.0:
            raise ParameterError("footprint must be at least 1 px")
        if self.decay_s <= 0:
            raise ParameterError("decay must be positive")

    @property
    def sigma_px(self) -> float:
        return self.footprint_px / _FWHM_PER_SIGMA


@dataclass
class ScanPath:
    """Timed laser samples in pixel coordinates; time accrues in-mask only."""

    x_px: np.ndarray
    y_px: np.ndarray
    t_s: np.ndarray
    step_mm: float
    stripe_count: int
    orientation_deg: float
    origin_px: tuple[float, float] = (0.0, 0.0)  # registration origin of the samples

    def __len__(self) -> int:
        return len(self.t_s)

    def pixels(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) index of the pixel nearest each sample."""
        return _nearest(self.x_px, self.origin_px[0]), _nearest(self.y_px, self.origin_px[1])

    @property
    def duration_s(self) -> float:
        return float(self.t_s[-1]) if len(self.t_s) else 0.0

    @property
    def total_length_mm(self) -> float:
        return self.step_mm * len(self.t_s)


def _nearest(px: np.ndarray, origin: float) -> np.ndarray:
    """Nearest pixel index, with half-pixel ties rounded to even about the
    registration origin: a path moved with the origin by whole pixels then
    covers the same pixels, whatever the origin's parity."""
    anchor = math.floor(origin)
    return (np.round(px - anchor) + anchor).astype(np.int64)


def generate_scan_path(
    mask: LayerMask, params: ScanParameters, layer: int, samples_per_pixel: float = 2.0
) -> ScanPath:
    """Bi-directional stripe hatching clipped to the layer mask.

    Stripes are bands of stripe_width along the layer's hatch direction
    (orientation layer * rotation mod 180); hatch lines are spaced hatch_um
    apart and traversed alternately. Gaps outside the mask cost no time.
    """
    pitch_mm = mask.registration.pitch_um / 1000.0
    theta = math.radians((layer * params.rotation_per_layer_deg) % 180.0)
    wdir = np.array([math.cos(theta), math.sin(theta)])
    ldir = np.array([-math.sin(theta), math.cos(theta)])

    ox, oy = mask.registration.origin_px
    dense = mask.pixel_mask()
    if not dense.any():
        return ScanPath(
            x_px=np.empty(0),
            y_px=np.empty(0),
            t_s=np.empty(0),
            step_mm=pitch_mm / samples_per_pixel,
            stripe_count=0,
            orientation_deg=math.degrees(theta),
            origin_px=(ox, oy),
        )
    ys, xs = np.nonzero(dense)
    px_mm = (xs - ox) * pitch_mm
    py_mm = (ys - oy) * pitch_mm
    wc = px_mm * wdir[0] + py_mm * wdir[1]
    lc = px_mm * ldir[0] + py_mm * ldir[1]
    margin = pitch_mm
    w_lo, w_hi = float(wc.min()) - margin, float(wc.max()) + margin
    l_lo, l_hi = float(lc.min()) - margin, float(lc.max()) + margin

    advance = params.stripe_width_mm - params.stripe_overlap_mm
    n_stripes = max(1, math.ceil((w_hi - w_lo) / params.stripe_width_mm))
    hatch_mm = params.hatch_um / 1000.0
    n_lines = int((l_hi - l_lo) / hatch_mm) + 1
    step = pitch_mm / samples_per_pixel
    dt = step / params.scan_speed_mm_s

    h, w = dense.shape
    out_x: list[np.ndarray] = []
    out_y: list[np.ndarray] = []
    counts = 0
    steps_per_band: list[int] = []
    for m in range(n_stripes):
        band_lo = w_lo + m * advance
        band_hi = min(band_lo + params.stripe_width_mm, w_hi)
        ws = np.arange(band_lo, band_hi, step)
        if not len(ws):
            continue
        band_samples = 0
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
                band_samples += int(keep.sum())
        steps_per_band.append(band_samples)
        counts += band_samples
    x_all = np.concatenate(out_x) if out_x else np.empty(0)
    y_all = np.concatenate(out_y) if out_y else np.empty(0)
    t_all = (np.arange(counts) + 1) * dt
    stripe_count = sum(1 for c in steps_per_band if c > 0)
    return ScanPath(
        x_px=x_all,
        y_px=y_all,
        t_s=t_all,
        step_mm=step,
        stripe_count=stripe_count,
        orientation_deg=math.degrees(theta),
        origin_px=(ox, oy),
    )


@dataclass
class GroundTruth:
    true_scan_order: np.ndarray  # frame index per pixel, -1 unscanned
    spatter_events: list[SpatterEvent]
    emissivity_map: np.ndarray  # final per-pixel emissivity


def _deposit(field_arr, x: float, y: float, amp: float, sigma: float, origin):
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


SPATTER_SIGMA_PX = 0.7


def render_frames(
    path: ScanPath,
    dims: tuple[int, int],
    thermal: ThermalParams,
    profile: CalibrationProfile,
    spatters: SpatterSchedule | None = None,
    window: tuple[slice, slice] | None = None,
    noise_percent: float = 0.0,
    fps: float = 30.0,
    prescan_frames: int = 3,
    tail_frames: int = 35,
    seed: int = 0,
    layer: int = 0,
) -> tuple[LayerStack, GroundTruth]:
    """Render a layer's raw count frames plus the matching ground truth.

    The emissivity of each pixel flips from powder to as-printed after the
    frame in which its true temperature peaks. Only the camera pixels in
    `window` (rows, cols; default the whole frame) are rendered, and each
    holds the value a whole-frame render gives it; the ground truth stays on
    the whole camera frame. Camera noise is Gaussian with a standard
    deviation of noise_percent of the rendered count range, drawn from `seed`.
    """
    w, h = dims
    spatters = spatters or SpatterSchedule()
    rows, cols = window or (slice(0, h), slice(0, w))
    origin = (rows.start, cols.start)
    amb = np.broadcast_to(
        np.asarray(thermal.ambient_c, dtype=np.float64), (h, w)
    ).copy()

    n_scan = math.ceil(path.duration_s * fps - 1e-12) if len(path) else 0
    n = prescan_frames + n_scan + tail_frames
    for ev in spatters.events:
        if not (0 <= ev.emit_frame < n):
            raise ParameterError(
                f"spatter emit frame {ev.emit_frame} outside [0, {n})"
            )
        ex, ey = ev.landing_px
        if not (0 <= ex < w and 0 <= ey < h):
            raise ParameterError(f"spatter landing {ev.landing_px} outside frame")

    sigma = thermal.sigma_px
    offset_s = prescan_frames / fps
    src_t = path.t_s + offset_s if len(path) else np.empty(0)
    decay_per_frame = math.exp(-(1.0 / fps) / thermal.decay_s)

    truth = np.empty((n,) + amb[rows, cols].shape, dtype=np.float32)
    excess = np.zeros(truth.shape[1:], dtype=np.float64)
    cursor = 0
    for k in range(n):
        t_k = k / fps
        if k > 0:
            excess *= decay_per_frame
        while cursor < len(src_t) and src_t[cursor] <= t_k + 1e-12:
            age = t_k - src_t[cursor]
            _deposit(
                excess,
                float(path.x_px[cursor]),
                float(path.y_px[cursor]),
                math.exp(-age / thermal.decay_s),
                sigma,
                origin,
            )
            cursor += 1
        truth[k] = excess
    visited = np.zeros((h, w), dtype=bool)
    if len(path):
        ix, iy = path.pixels()
        visited[np.clip(iy, 0, h - 1), np.clip(ix, 0, w - 1)] = True
    seen = visited[rows, cols]
    if seen.sum() != visited.sum():
        raise ParameterError("scan path leaves the render window")
    # overlapping hatch lines stack heat, so normalize the excess history to
    # put the median scanned pixel's peak at peak_c (the hottest overlap
    # regions run hotter, as stripe boundaries do)
    if seen.any():
        typical = float(np.median(truth[:, seen].max(axis=0)))
        if typical > 0:
            truth *= (thermal.peak_c - float(np.mean(amb))) / typical
    truth += amb[rows, cols]
    for ev in spatters.events:
        for k in range(ev.emit_frame, n):
            age = (k - ev.emit_frame) / fps
            _deposit(
                truth[k],
                float(ev.landing_px[0]),
                float(ev.landing_px[1]),
                ev.peak_dt_c * math.exp(-age / ev.decay_s),
                SPATTER_SIGMA_PX,
                origin,
            )

    scan_order = np.full((h, w), UNSCANNED, dtype=np.int64)
    if seen.any():
        scan_order[rows, cols][seen] = np.argmax(truth[:, seen], axis=0)

    frames = np.empty_like(truth)
    eps_final = np.full((h, w), profile.emissivity_powder)
    for k in range(n):
        printed = seen & (k > scan_order[rows, cols])
        eps = np.where(printed, profile.emissivity_printed, profile.emissivity_powder)
        frames[k] = forward_counts(truth[k], eps, profile)
        if k == n - 1:
            eps_final[rows, cols] = eps

    stack = LayerStack(frames=frames, fps=fps, layer=layer, origin=origin)
    del frames  # free the float32 copy before the noise pass allocates
    if noise_percent > 0:
        sigma = noise_percent / 100.0 * float(stack.frames.max() - stack.frames.min())
        rng = np.random.default_rng(seed)
        for k in range(n):  # frame at a time to bound the noise buffer
            noisy = stack.frames[k] + rng.normal(0.0, sigma, stack.shape)
            stack.frames[k] = np.clip(noisy, 1.0, 65535.0)
    gt = GroundTruth(
        true_scan_order=scan_order,
        spatter_events=list(spatters.events),
        emissivity_map=eps_final,
    )
    return stack, gt


def first_visit_frames(
    path: ScanPath, dims: tuple[int, int], fps: float = 30.0, prescan_frames: int = 3
) -> np.ndarray:
    """Frame index of each pixel's first laser visit, -1 where never visited."""
    w, h = dims
    first = np.full((h, w), UNSCANNED, dtype=np.int64)
    ix, iy = path.pixels()
    ix, iy = np.clip(ix, 0, w - 1), np.clip(iy, 0, h - 1)
    fr = prescan_frames + np.floor(path.t_s * fps).astype(np.int64)
    for k in range(len(path) - 1, -1, -1):  # reverse so earliest visit wins
        first[iy[k], ix[k]] = fr[k]
    return first


def make_spatter_schedule(
    path: ScanPath,
    mask: LayerMask,
    count: int,
    peak_dt_c: float = 250.0,
    decay_s: float = 0.15,
    fps: float = 30.0,
    prescan_frames: int = 3,
    seed: int = 0,
    min_lead_frames: int = 20,
    clearance_px: float = 9.0,
    min_separation_px: float = 6.0,
) -> SpatterSchedule:
    """Choose spatter events landing on powder well ahead of the laser.

    Landing pixels are in-part, scanned at least min_lead_frames after the
    emit frame, and at least clearance_px from the laser's position around
    the emit frame, so a detector is not excused by mask overlap.
    """
    w, h = mask.registration.dims
    first = first_visit_frames(path, (w, h), fps, prescan_frames)
    fr = prescan_frames + np.floor(path.t_s * fps).astype(np.int64)
    last_frame = int(fr.max()) if len(fr) else prescan_frames
    rng = np.random.default_rng(seed)
    chosen: list[SpatterEvent] = []
    candidates = np.argwhere(first >= 0)
    attempts = 0
    while len(chosen) < count and attempts < 4000:
        attempts += 1
        emit = int(rng.integers(prescan_frames + 2, max(prescan_frames + 3, last_frame - min_lead_frames - 8)))
        cy, cx = candidates[rng.integers(len(candidates))]
        if first[cy, cx] < emit + min_lead_frames:
            continue
        near = (fr >= emit - 1) & (fr <= emit + 4)
        if near.any():
            d = np.hypot(path.x_px[near] - cx, path.y_px[near] - cy)
            if float(d.min()) < clearance_px:
                continue
        if any(
            math.hypot(ev.landing_px[0] - cx, ev.landing_px[1] - cy)
            < min_separation_px
            for ev in chosen
        ):
            continue
        chosen.append(
            SpatterEvent(
                emit_frame=emit,
                landing_px=(int(cx), int(cy)),
                peak_dt_c=peak_dt_c,
                decay_s=decay_s,
            )
        )
    if len(chosen) < count:
        raise ParameterError(
            f"could only place {len(chosen)} of {count} spatter events"
        )
    return SpatterSchedule(events=chosen)
