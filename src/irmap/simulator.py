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
    t_all = (np.arange(len(x_all)) + 1) * dt
    return ScanPath(
        x_px=x_all,
        y_px=y_all,
        t_s=t_all,
        step_mm=step,
        orientation_deg=math.degrees(theta),
        origin_px=(ox, oy),
    )


@dataclass
class GroundTruth:
    """A layer's ground truth, kept on its render window. `true_scan_order`
    and `emissivity_map` are camera-frame arrays built each time they are
    read; every pixel outside the window is unscanned powder."""

    scan_order: np.ndarray  # frame index per window pixel, -1 unscanned
    emissivity: np.ndarray  # final emissivity per window pixel
    spatter_events: list[SpatterEvent]
    origin: tuple[int, int]  # camera (row, col) of the window's [0, 0] pixel
    dims: tuple[int, int]  # camera (width, height)
    powder_emissivity: float

    @property
    def true_scan_order(self) -> np.ndarray:
        return self._on_camera(self.scan_order, UNSCANNED)

    @property
    def emissivity_map(self) -> np.ndarray:
        return self._on_camera(self.emissivity, self.powder_emissivity)

    def _on_camera(self, window: np.ndarray, fill) -> np.ndarray:
        (y0, x0), (h, w) = self.origin, window.shape
        out = np.full(self.dims[::-1], fill, dtype=window.dtype)
        out[y0 : y0 + h, x0 : x0 + w] = window
        return out


SPATTER_SIGMA_PX = 0.7


def _profiles(centres: np.ndarray, first: int, sigma: float):
    """(px, g), each (samples, 2r + 1), r = ceil(4σ) + 1: each sample's pixels
    int(centre) ± r counted from pixel `first`, and its 1-D Gaussian on them."""
    r = int(math.ceil(4 * sigma)) + 1
    px = centres.astype(np.int64)[:, None] + np.arange(-r, r + 1)
    return px - first, np.exp(-0.5 * ((px - centres[:, None]) ** 2 / sigma**2))


def _banded(px, g, size: int):
    """(lo, G): G[s] holds profile g[s] at columns px[s] - lo, where lo.. are
    the pixels of 0..size-1 that the samples' squares cover."""
    r = px.shape[1] // 2
    lo, hi = np.clip([px[:, 0].min(), px[:, -1].max() + 1], 0, size)
    G = np.zeros((len(px), hi - lo + 2 * r))  # r columns of slack each side take clipped pixels
    G[np.arange(len(px))[:, None], np.clip(px - lo, -r, hi - lo) + r] = g
    return lo, G[:, r : r + hi - lo]


def _true_temperatures(path, thermal, events, amb, window, seen, n, fps, prescan_frames):
    """(n, rows, cols) float32 true temperatures of the camera `window`, whose
    scanned pixels are `seen` (`amb`: whole-frame ambient). A frame's excess
    field is the last one decayed plus the separable bumps of the samples that
    arrived since, added as one product of their banded row and column profiles."""
    rows, cols = window
    (oy, ox), (h, w) = (rows.start, cols.start), seen.shape
    src_t, t = path.t_s + prescan_frames / fps, np.arange(n) / fps
    arrived = np.searchsorted(src_t, t + 1e-12, side="right")  # samples arrived by frame k
    landed = t[np.minimum(np.searchsorted(arrived, np.arange(len(src_t)), side="right"), n - 1)]
    (iy, gy), (ix, gx) = _profiles(path.y_px, oy, thermal.sigma_px), _profiles(path.x_px, ox, thermal.sigma_px)
    gy *= np.exp(-(landed - src_t) / thermal.decay_s)[:, None]  # decayed to the frame it arrives in
    decay_per_frame = math.exp(-(1.0 / fps) / thermal.decay_s)
    truth, excess = np.empty((n, h, w), dtype=np.float32), np.zeros((h, w))
    for k in range(n):
        if k > 0:
            excess *= decay_per_frame
        a, b = arrived[k - 1] if k else 0, arrived[k]
        if b > a:
            (y0, by), (x0, bx) = _banded(iy[a:b], gy[a:b], h), _banded(ix[a:b], gx[a:b], w)
            excess[y0 : y0 + by.shape[1], x0 : x0 + bx.shape[1]] += by.T @ bx
        truth[k] = excess
    # overlapping hatch lines stack heat, so normalize the excess history to
    # put the median scanned pixel's peak at peak_c (the hottest overlap
    # regions run hotter, as stripe boundaries do)
    if seen.any():
        typical = float(np.median(truth[:, seen].max(axis=0)))
        if typical > 0:
            truth *= (thermal.peak_c - float(np.mean(amb))) / typical
    truth += amb[rows, cols]
    r = int(math.ceil(4 * SPATTER_SIGMA_PX)) + 1
    for ev in events:  # one at a time, in order, since their squares may overlap
        (x, y), e = ev.landing_px, ev.emit_frame
        x0, x1, y0, y1 = max(ox, x - r), min(ox + w, x + r + 1), max(oy, y - r), min(oy + h, y + r + 1)
        if x0 < x1 and y0 < y1:
            dx, dy = np.arange(x0, x1) - float(x), np.arange(y0, y1) - float(y)
            bump = np.exp(-0.5 * ((dx[None, :] ** 2 + dy[:, None] ** 2) / SPATTER_SIGMA_PX**2))
            amps = np.array([ev.peak_dt_c * math.exp(-((k - e) / fps) / ev.decay_s) for k in range(e, n)])
            truth[e:, y0 - oy : y1 - oy, x0 - ox : x1 - ox] += amps[:, None, None] * bump
    return truth


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
    holds the value a whole-frame render gives it; the ground truth is kept
    on the window too. Camera noise is Gaussian with a standard deviation of
    noise_percent of the rendered count range, drawn from `seed`.
    """
    w, h = dims
    spatters = spatters or SpatterSchedule()
    rows, cols = window or (slice(0, h), slice(0, w))
    origin = (rows.start, cols.start)
    amb = np.broadcast_to(np.asarray(thermal.ambient_c, dtype=np.float64), (h, w)).copy()

    n_scan = math.ceil(path.duration_s * fps - 1e-12) if len(path) else 0
    n = prescan_frames + n_scan + tail_frames
    for ev in spatters.events:
        if not (0 <= ev.emit_frame < n):
            raise ParameterError(f"spatter emit frame {ev.emit_frame} outside [0, {n})")
        if not (0 <= ev.landing_px[0] < w and 0 <= ev.landing_px[1] < h):
            raise ParameterError(f"spatter landing {ev.landing_px} outside frame")

    seen = np.zeros(amb[rows, cols].shape, dtype=bool)
    ix, iy = path.pixels()
    ix, iy = np.clip(ix, 0, w - 1) - origin[1], np.clip(iy, 0, h - 1) - origin[0]
    if ((ix < 0) | (ix >= seen.shape[1]) | (iy < 0) | (iy >= seen.shape[0])).any():
        raise ParameterError("scan path leaves the render window")
    seen[iy, ix] = True
    truth = _true_temperatures(
        path, thermal, spatters.events, amb, (rows, cols), seen, n, fps, prescan_frames
    )

    scan_order = np.full(seen.shape, UNSCANNED, dtype=np.int64)
    scan_order[seen] = np.argmax(truth[:, seen], axis=0)

    frames = truth  # turned into counts in place, a frame at a time
    for k in range(n):
        eps = np.where(seen & (k > scan_order), profile.emissivity_printed, profile.emissivity_powder)
        frames[k] = forward_counts(truth[k], eps, profile)
    stack = LayerStack(frames=frames, fps=fps, layer=layer, origin=origin)
    del frames, truth  # free the float32 copy before the noise pass allocates
    if noise_percent > 0:
        sigma = noise_percent / 100.0 * float(stack.frames.max() - stack.frames.min())
        rng = np.random.default_rng(seed)
        for k in range(n):  # frame at a time to bound the noise buffer
            noisy = stack.frames[k] + rng.normal(0.0, sigma, stack.shape)
            stack.frames[k] = np.clip(noisy, 1.0, 65535.0)
    return stack, GroundTruth(scan_order, eps, list(spatters.events), origin, dims, profile.emissivity_powder)


def first_visit_frames(
    path: ScanPath, dims: tuple[int, int], fps: float = 30.0, prescan_frames: int = 3
) -> np.ndarray:
    """Frame index of each pixel's first laser visit, -1 where never visited."""
    w, h = dims
    first = np.full((h, w), UNSCANNED, dtype=np.int64)
    ix, iy = path.pixels()
    ix, iy = np.clip(ix, 0, w - 1), np.clip(iy, 0, h - 1)
    fr = prescan_frames + np.floor(path.t_s * fps).astype(np.int64)
    # fr never decreases along the path, so a pixel's first sample is its earliest visit
    pixels, first_sample = np.unique(iy * w + ix, return_index=True)
    first.flat[pixels] = fr[first_sample]
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
    if count > 0 and not len(path):
        raise ParameterError(
            f"layer {mask.layer}: the scan path is empty, so no spatter event can be placed"
        )
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
