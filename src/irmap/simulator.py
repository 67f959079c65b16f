"""Synthetic build simulator: stripe scan paths, thermal frames, ground truth.

The thermal model is phenomenological: each path sample drops a Gaussian
source that decays exponentially with a shared time constant, so a frame's
excess-temperature field is the previous field decayed plus the new sources.
That makes rendering exact, fast, and reproducible; it is an oracle
generator, not a physics solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import imageops
from .errors import ParameterError
from .features import UNSCANNED, LayerStack
from .geometry import LayerMask
from .radiometry import KELVIN_OFFSET, CalibrationProfile, forward_counts
from .store import quantize_counts


@dataclass(frozen=True)
class ScanParameters:
    scan_speed_mm_s: float = 960.0
    hatch_um: float = 110.0
    stripe_width_mm: float = 10.0
    stripe_overlap_mm: float = 0.08
    rotation_per_layer_deg: float = 66.7

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:  # a NaN fails too
                raise ParameterError(f"{f.name} must be positive")


@dataclass(frozen=True)
class SpatterEvent:
    emit_frame: int
    landing_px: tuple[int, int]  # (x, y)
    peak_dt_c: float
    decay_s: float

    def __post_init__(self):
        if self.peak_dt_c <= 0 or self.decay_s <= 0:
            raise ParameterError("spatter peak and decay must be positive")


_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class ThermalParams:
    """footprint_px is the full width at half maximum of the heat spot."""

    ambient_c: float | np.ndarray = 80.0
    peak_c: float = 1200.0
    footprint_px: float = 1.5
    decay_s: float = 0.033

    def __post_init__(self):
        if not np.all(np.asarray(self.ambient_c) > -KELVIN_OFFSET):  # a NaN fails too
            raise ParameterError(f"ambient_c must be above {-KELVIN_OFFSET} degC")
        if not self.peak_c > np.max(self.ambient_c):  # a NaN fails too
            raise ParameterError(f"peak_c must be above ambient_c, got {self.peak_c:g}")
        if self.footprint_px < 1.0:
            raise ParameterError("footprint_px must be at least 1 px")
        if self.decay_s <= 0:
            raise ParameterError("decay_s must be positive")

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


# path samples per pixel pitch along a hatch line
SAMPLES_PER_PIXEL = 2.0


def generate_scan_path(mask: LayerMask, params: ScanParameters, layer: int) -> ScanPath:
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
            step_mm=pitch_mm / SAMPLES_PER_PIXEL,
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
    step = pitch_mm / SAMPLES_PER_PIXEL
    dt = step / params.scan_speed_mm_s

    h, w = dense.shape
    li = (l_lo + np.arange(n_lines) * hatch_mm)[:, None]  # one row per hatch line
    odd = (np.arange(n_lines) % 2 == 1)[:, None]  # odd lines run backwards
    out_x: list[np.ndarray] = []
    out_y: list[np.ndarray] = []
    for m in range(n_stripes):
        band_lo = w_lo + m * advance
        band_hi = min(band_lo + params.stripe_width_mm, w_hi)
        ws = np.arange(band_lo, band_hi, step)
        wline = np.where(odd, ws[::-1], ws)
        gx = (wline * wdir[0] + li * ldir[0]) / pitch_mm + ox
        gy = (wline * wdir[1] + li * ldir[1]) / pitch_mm + oy
        ix, iy = _nearest(gx, ox), _nearest(gy, oy)
        ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
        keep = np.zeros(wline.shape, dtype=bool)
        keep[ok] = dense[iy[ok], ix[ok]]
        out_x.append(gx[keep])  # row-major: line by line, in scan order
        out_y.append(gy[keep])
    x_all, y_all = np.concatenate(out_x), np.concatenate(out_y)
    t_all = (np.arange(len(x_all)) + 1) * dt
    return ScanPath(
        x_px=x_all,
        y_px=y_all,
        t_s=t_all,
        step_mm=step,
        origin_px=(ox, oy),
    )


@dataclass
class GroundTruth:
    """A layer's ground truth, kept on its render window. `true_scan_order`
    is the camera-frame scan order, built each time it is read; every pixel
    outside the window is unscanned powder."""

    scan_order: np.ndarray  # frame index per window pixel, -1 unscanned
    spatter_events: list[SpatterEvent]
    origin: tuple[int, int]  # camera (row, col) of the window's [0, 0] pixel
    dims: tuple[int, int]  # camera (width, height)

    @property
    def true_scan_order(self) -> np.ndarray:
        (y0, x0), (h, w) = self.origin, self.scan_order.shape
        out = np.full(self.dims[::-1], UNSCANNED, dtype=self.scan_order.dtype)
        out[y0 : y0 + h, x0 : x0 + w] = self.scan_order
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
    lo, hi = (min(max(int(v), 0), size) for v in (px[:, 0].min(), px[:, -1].max() + 1))
    G = np.zeros((len(px), hi - lo + 2 * r))  # r columns of slack each side take clipped pixels
    G[np.arange(len(px))[:, None], np.minimum(np.maximum(px - lo, -r), hi - lo) + r] = g
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
    scale = 1.0
    if seen.any():
        typical = float(np.median(truth.max(axis=0)[seen]))
        if typical > 0:
            scale = (thermal.peak_c - float(np.mean(amb))) / typical
    r = int(math.ceil(4 * SPATTER_SIGMA_PX)) + 1
    bumps = []  # (first frame, window slices, amplitude per frame from it, square)
    for ev in events:
        (x, y), e = ev.landing_px, ev.emit_frame
        x0, x1, y0, y1 = max(ox, x - r), min(ox + w, x + r + 1), max(oy, y - r), min(oy + h, y + r + 1)
        if x0 < x1 and y0 < y1:
            dx, dy = np.arange(x0, x1) - float(x), np.arange(y0, y1) - float(y)
            bump = np.exp(-0.5 * ((dx[None, :] ** 2 + dy[:, None] ** 2) / SPATTER_SIGMA_PX**2))
            amps = np.array([ev.peak_dt_c * math.exp(-((k - e) / fps) / ev.decay_s) for k in range(e, n)])
            box = (slice(y0 - oy, y1 - oy), slice(x0 - ox, x1 - ox))
            bumps.append((e, box, amps[:, None, None], bump))
    for a in range(0, n, imageops.CHUNK_FRAMES):
        b = min(a + imageops.CHUNK_FRAMES, n)
        block = truth[a:b]
        block *= scale
        block += amb[rows, cols]
        for e, box, amps, bump in bumps:  # in order, since their squares may overlap
            if e < b:
                block[max(e - a, 0) :, box[0], box[1]] += amps[max(a - e, 0) : b - e] * bump
    return truth


def render_frames(
    path: ScanPath,
    dims: tuple[int, int],
    thermal: ThermalParams,
    profile: CalibrationProfile,
    spatters: list[SpatterEvent],
    window: tuple[slice, slice],
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
    `window` (rows, cols) are rendered, and at noise 0 each holds the value a
    whole-frame render gives it; the ground truth is kept on the window too.
    Camera noise is Gaussian with a standard deviation of noise_percent of
    the rendered count range, drawn from `seed` over the window. The frames
    are the noisy counts quantized once to u16 by `store.quantize_counts`, as
    a stack file holds them.
    """
    w, h = dims
    rows, cols = window
    origin = (rows.start, cols.start)
    amb = np.broadcast_to(np.asarray(thermal.ambient_c, dtype=np.float64), (h, w)).copy()

    n_scan = math.ceil(path.duration_s * fps - 1e-12) if len(path) else 0
    n = prescan_frames + n_scan + tail_frames
    for ev in spatters:
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
        path, thermal, spatters, amb, (rows, cols), seen, n, fps, prescan_frames
    )

    scan_order = np.full(seen.shape, UNSCANNED, dtype=np.int64)
    scan_order[seen] = truth.argmax(axis=0)[seen]

    # a block of frames at a time: its float64 temporaries stay small, and one
    # call per block replaces one per frame
    blocks = [(a, min(a + imageops.CHUNK_FRAMES, n)) for a in range(0, n, imageops.CHUNK_FRAMES)]
    counts = truth  # turned into counts in place
    for a, b in blocks:
        k = np.arange(a, b)[:, None, None]
        eps = np.where(seen & (k > scan_order), profile.emissivity_printed, profile.emissivity_powder)
        counts[a:b] = forward_counts(truth[a:b], eps, profile)
    sigma = noise_percent / 100.0 * (float(counts.max()) - float(counts.min()))
    rng = np.random.default_rng(seed)
    frames = np.empty(counts.shape, dtype="<u2")
    for a, b in blocks:
        noisy = counts[a:b]
        if noise_percent > 0:  # m frames drawn at once are the m per-frame draws in turn
            noisy = rng.normal(0.0, sigma, noisy.shape)
            noisy += counts[a:b]
        frames[a:b] = quantize_counts(noisy)
    stack = LayerStack(frames=frames, fps=fps, layer=layer, origin=origin)
    return stack, GroundTruth(scan_order, spatters, origin, dims)


def _first_visits(path: ScanPath, dims: tuple[int, int], fr: np.ndarray):
    """Flat camera index of each visited pixel, ascending (row-major), and the
    frame of its first visit, from each sample's frame `fr`."""
    w, h = dims
    ix, iy = path.pixels()
    ix, iy = np.clip(ix, 0, w - 1), np.clip(iy, 0, h - 1)
    # fr never decreases along the path, so a pixel's first sample is its earliest visit
    pixels, first_sample = np.unique(iy * w + ix, return_index=True)
    return pixels, fr[first_sample]


# px, the least distance between two landings of one layer
MIN_SEPARATION_PX = 6.0
# frames from an emit frame to the first scan of its landing pixel, at least
MIN_LEAD_FRAMES = 20
# px, the least distance from a landing to the laser around its emit frame
CLEARANCE_PX = 9.0


def make_spatter_schedule(
    path: ScanPath,
    mask: LayerMask,
    count: int,
    peak_dt_c: float,
    decay_s: float,
    fps: float = 30.0,
    prescan_frames: int = 3,
    seed: int = 0,
) -> list[SpatterEvent]:
    """Choose spatter events landing on powder well ahead of the laser.

    Landing pixels are in-part, scanned at least MIN_LEAD_FRAMES after the
    emit frame, at least CLEARANCE_PX from the laser's position around the
    emit frame, so a detector is not excused by mask overlap, and at least
    MIN_SEPARATION_PX from each other.
    """
    if count > 0 and not len(path):
        raise ParameterError(
            f"layer {mask.layer}: the scan path is empty, so no spatter event can be placed"
        )
    w, h = mask.registration.dims
    fr = prescan_frames + np.floor(path.t_s * fps).astype(np.int64)
    # the candidates are the visited pixels in row-major camera order
    candidates, first = _first_visits(path, (w, h), fr)
    last_frame = int(fr.max()) if len(fr) else prescan_frames
    # every emit frame is at least prescan_frames + 2, so when the last first
    # visit comes before that plus the lead, no draw can succeed
    placeable = len(first) and int(first.max()) >= prescan_frames + 2 + MIN_LEAD_FRAMES
    rng = np.random.default_rng(seed)
    chosen: list[SpatterEvent] = []
    attempts = 0
    while placeable and len(chosen) < count and attempts < 4000:
        attempts += 1
        emit = int(rng.integers(prescan_frames + 2, max(prescan_frames + 3, last_frame - MIN_LEAD_FRAMES - 8)))
        j = rng.integers(len(candidates))
        cy, cx = divmod(int(candidates[j]), w)
        if first[j] < emit + MIN_LEAD_FRAMES:
            continue
        near = (fr >= emit - 1) & (fr <= emit + 4)
        if near.any():
            d = np.hypot(path.x_px[near] - cx, path.y_px[near] - cy)
            if float(d.min()) < CLEARANCE_PX:
                continue
        if any(
            math.hypot(ev.landing_px[0] - cx, ev.landing_px[1] - cy)
            < MIN_SEPARATION_PX
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
            f"layer {mask.layer}: could only place {len(chosen)} of {count} spatter events"
        )
    return chosen
