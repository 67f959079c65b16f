"""Command-line workflow: calibrate, voxelize, simulate, extract, export, report.

The pipeline is deterministic given a config file and seed; the run manifest
records every effective parameter plus content hashes so a run can be
reproduced byte-for-byte. Wall-clock timings go to a separate sidecar file so
the manifest itself stays reproducible.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import os
import resource
import sys
import time
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import repeat

import numpy as np

from . import features as feat
from . import geometry, radiometry, simulator, spatial, store
from .errors import ConfigError, DataError, DegeneracyError, GridSizeError, HorizonError, NoPrescanError
from .errors import BelowFloorError, FeatureNotFoundError, IllConditionedError, IrmapError
from .errors import ParameterError, StoreFormatError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _ini(default, section: str, key: str = "", parse=None, at_least=None):
    """A RunConfig field read from `key` (default: the field name) of [section].

    `parse` maps the value text to {field name: value}, for keys that set
    several fields or are not a plain int, float or str. A value below
    `at_least` is a config error.
    """
    return field(default=default, metadata={"ini": (section, key, parse), "at_least": at_least})


def _parse_layers(text: str) -> dict:
    lo, hi = text.split("..")
    return {"layer_lo": int(lo), "layer_hi": int(hi)}


def _parse_features(text: str) -> dict:
    if not text.strip() or text.strip().lower() == "all":
        return {"features": ()}
    ids = []
    for name in text.split(","):
        key = name.strip().upper()
        if key not in feat.FeatureId.__members__:
            raise ValueError(f"unknown feature {name.strip()!r}")
        ids.append(int(feat.FeatureId[key]))
    return {"features": tuple(ids)}


def _parse_pitch(text: str) -> dict:
    x, y, z = (float(p) for p in text.split(","))
    if not all(0 < p < np.inf for p in (x, y, z)):
        raise ValueError("each pitch must be a positive number")
    return {"pitch_x_um": x, "pitch_y_um": y, "pitch_z_um": z}


@dataclass
class RunConfig:
    """Effective parameters of one pipeline run (flags already merged in)."""

    stl: str = _ini("box.stl", "geometry")
    out: str = _ini("features.irvx", "run")
    frames_dir: str = _ini("", "run")  # empty = simulate in memory
    seed: int = _ini(0, "run", at_least=0)
    jobs: int = _ini(1, "run", at_least=1)
    layer_lo: int = _ini(0, "run", "layers", _parse_layers)  # sets layer_hi too
    layer_hi: int = -1  # -1 = all layers of the voxel grid
    features: tuple[int, ...] = _ini((), "run", "features", _parse_features)  # () = all

    pitch_x_um: float = _ini(360.0, "geometry", "pitch_um", _parse_pitch)  # sets y, z too
    pitch_y_um: float = 360.0
    pitch_z_um: float = 40.0

    cam_width: int = _ini(640, "camera", "width")
    cam_height: int = _ini(480, "camera", "height")
    origin_x: int = _ini(320, "camera")
    origin_y: int = _ini(240, "camera")
    fps: float = _ini(30.0, "camera")

    scan_speed_mm_s: float = _ini(960.0, "scan")
    hatch_um: float = _ini(110.0, "scan")
    stripe_width_mm: float = _ini(10.0, "scan")
    stripe_overlap_mm: float = _ini(0.08, "scan")
    rotation_per_layer_deg: float = _ini(66.7, "scan")

    ambient_c: float = _ini(80.0, "thermal")
    peak_c: float = _ini(1200.0, "thermal")
    footprint_px: float = _ini(1.5, "thermal")
    decay_s: float = _ini(0.033, "thermal")

    noise_percent: float = _ini(0.0, "simulation")  # % of each layer's count range
    prescan_frames: int = _ini(3, "simulation", at_least=0)
    tail_frames: int = _ini(35, "simulation", at_least=0)
    spatter_count: int = _ini(0, "simulation", at_least=0)
    spatter_peak_dt_c: float = _ini(400.0, "simulation")
    spatter_decay_s: float = _ini(0.15, "simulation")

    offset_frames: int = _ini(10, "features", at_least=0)
    cooling_window: int = _ini(30, "features", at_least=1)
    spatter_floor_sigmas: float = _ini(6.0, "features")

    profile_path: str = _ini("", "run", "profile")  # empty = built-in defaults
    config_dir: str = "."
    config_sha256: str = ""

    @cached_property
    def profile(self) -> radiometry.CalibrationProfile:
        if not self.profile_path:
            return radiometry.CalibrationProfile()
        path = self._resolve(self.profile_path)
        try:
            with open(path, encoding="utf-8") as fh:
                return radiometry.profile_from_text(fh.read())
        except (OSError, configparser.Error, ValueError) as exc:
            raise ConfigError(f"cannot read profile {path}: {exc}") from exc

    def _resolve(self, rel: str) -> str:
        return rel if os.path.isabs(rel) else os.path.join(self.config_dir, rel)

    def registration(self) -> geometry.PixelGridFrame:
        return geometry.PixelGridFrame(
            pitch_um=self.pitch_x_um,
            origin_px=(self.origin_x, self.origin_y),
            dims=(self.cam_width, self.cam_height),
        )

    def params(self, cls):
        """A parameter object built from the config fields of the same names."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def scan_params(self) -> simulator.ScanParameters:
        return self.params(simulator.ScanParameters)


def _schema() -> dict[str, dict[str, tuple[str, object]]]:
    """{section: {key: (field name, parser or None)}} from the RunConfig metadata."""
    table: dict[str, dict[str, tuple[str, object]]] = {}
    for f in fields(RunConfig):
        if "ini" in f.metadata:
            section, key, parse = f.metadata["ini"]
            table.setdefault(section, {})[key or f.name] = (f.name, parse)
    return table


_SCHEMA = _schema()


def _set(cfg: RunConfig, section: str, key: str, text: str) -> None:
    """Parse `text` as the value of [section] key and store it on cfg."""
    if key not in _SCHEMA[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    name, parse = _SCHEMA[section][key]
    try:
        values = parse(text) if parse else {name: type(getattr(RunConfig, name))(text)}
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {text!r} ({exc})") from exc
    for attr, value in values.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be a finite number, got {text!r}")
        setattr(cfg, attr, value)


def load_config(path: str, args=None) -> RunConfig:
    """Read a UTF-8 key-value config file, apply the command-line flags in
    `args` (an argparse namespace) over it, and validate the result. A
    ConfigError leaves the file's path out: `main` names it once."""
    if not os.path.exists(path):
        raise ConfigError("config file not found")
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        parser.read_string(text)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    cfg = RunConfig()
    cfg.config_dir = os.path.dirname(os.path.abspath(path))
    cfg.config_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            _set(cfg, section, key, raw)
    for key in _SCHEMA["run"]:  # a flag named like a [run] key overrides it
        flag = getattr(args, key, None)
        if flag is not None:
            _set(cfg, "run", key, flag)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Raise ConfigError unless every parameter object a run builds accepts cfg."""
    stl = cfg._resolve(cfg.stl)
    if not os.path.exists(stl):
        raise ConfigError(f"STL file not found: {stl}")
    for f in fields(RunConfig):
        low = f.metadata.get("at_least")
        if low is not None and getattr(cfg, f.name) < low:
            raise ConfigError(f"[{f.metadata['ini'][0]}] {f.name} must be at least {low}")
    if not (0.0 <= cfg.noise_percent <= 100.0):
        raise ConfigError("[simulation] noise_percent must be in [0, 100]")
    if not 0.0 < cfg.fps < np.inf:
        raise ConfigError("[camera] fps must be a positive number")
    if cfg.pitch_x_um != cfg.pitch_y_um:  # one voxel column per camera pixel
        raise ConfigError(
            f"[geometry] pitch_um x and y must be equal, got {cfg.pitch_x_um:g} and {cfg.pitch_y_um:g}"
        )
    for key in ("spatter_peak_dt_c", "spatter_decay_s"):
        if not getattr(cfg, key) > 0:
            raise ConfigError(f"[simulation] {key} must be positive, got {getattr(cfg, key):g}")
    for section, build in (
        ("camera", cfg.registration),
        ("scan", cfg.scan_params),
        ("thermal", lambda: cfg.params(simulator.ThermalParams)),
    ):
        try:
            build()
        except ParameterError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    cfg.profile  # read once per run; a bad profile file is a config error


@dataclass
class LayerResult:
    layer: int
    frame_count: int
    features: feat.LayerFeatures
    truth: simulator.GroundTruth | None
    mask: geometry.LayerMask
    seconds: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)  # by function name
    peak_rss_mb: float = 0.0  # of the process that ran the layer, when it ended


@dataclass
class PipelineResult:
    config: RunConfig
    store: store.FeatureStore
    store_bytes: bytes
    manifest_text: str
    reduction: store.ReductionReport
    layers: list[LayerResult] = field(default_factory=list)


def _simulate_layer(cfg: RunConfig, vox: geometry.VoxelMesh, layer: int):
    """Render one layer's raw frame stack, on its part window, plus its ground truth."""
    reg = cfg.registration()
    mask = geometry.layer_mask(vox, layer, reg)
    path = simulator.generate_scan_path(mask, cfg.scan_params(), layer)
    schedule = []
    if cfg.spatter_count > 0 and len(path):
        try:
            schedule = simulator.make_spatter_schedule(
                path,
                mask,
                cfg.spatter_count,
                peak_dt_c=cfg.spatter_peak_dt_c,
                decay_s=cfg.spatter_decay_s,
                fps=cfg.fps,
                prescan_frames=cfg.prescan_frames,
                seed=cfg.seed + 7919 * layer,
            )
        except ParameterError as exc:  # the layer has too few places for spatter_count
            raise ConfigError(f"[simulation] spatter_count = {cfg.spatter_count}: {exc}") from exc
    stack, truth = simulator.render_frames(
        path,
        (cfg.cam_width, cfg.cam_height),
        cfg.params(simulator.ThermalParams),
        cfg.profile,
        spatters=schedule,
        window=mask.window(feat.WINDOW_PAD),
        noise_percent=cfg.noise_percent,
        fps=cfg.fps,
        prescan_frames=cfg.prescan_frames,
        tail_frames=cfg.tail_frames,
        seed=cfg.seed + 9973 * layer,
        layer=layer,
    )
    return stack, truth, mask


def _stack_path(cfg: RunConfig, layer: int) -> str:
    return os.path.join(cfg._resolve(cfg.frames_dir), f"layer_{layer:04d}.irfs")


def _load_layer(cfg: RunConfig, vox: geometry.VoxelMesh, layer: int):
    """Read one layer's frame stack from a directory of stack files: a u16
    copy of the layer's part window."""
    reg = cfg.registration()
    mask = geometry.layer_mask(vox, layer, reg)
    path = _stack_path(cfg, layer)
    rows, cols = mask.window(feat.WINDOW_PAD)
    try:
        frames, fps = store.read_layer_stack(
            path, window=(rows, cols), frame_dims=(cfg.cam_width, cfg.cam_height)
        )
    except OSError as exc:
        raise ConfigError(f"layer {layer}: cannot read frame stack {path}: {exc.strerror}") from exc
    except StoreFormatError as exc:
        raise StoreFormatError(f"layer {layer}: {path}: {exc}") from exc
    stack = feat.LayerStack(frames, fps, layer, (rows.start, cols.start))
    return stack, None, mask


def process_layer(cfg: RunConfig, vox: geometry.VoxelMesh, layer: int) -> LayerResult:
    t0 = time.perf_counter()
    if cfg.frames_dir:
        source, (stack, truth, mask) = "cli._load_layer", _load_layer(cfg, vox, layer)
    else:
        source, (stack, truth, mask) = "cli._simulate_layer", _simulate_layer(cfg, vox, layer)
    t1 = time.perf_counter()
    try:
        result = feat.extract_layer(stack, cfg.profile, mask, cfg.params(feat.FeatureParams))
    except NoPrescanError as exc:
        if not cfg.frames_dir:
            raise
        raise NoPrescanError(f"{_stack_path(cfg, layer)}: {exc}") from exc
    t2 = time.perf_counter()
    return LayerResult(
        layer=layer,
        frame_count=len(stack),
        features=result,
        truth=truth,
        mask=mask,
        seconds=t2 - t0,
        stage_seconds={source: t1 - t0, "features.extract_layer": t2 - t1},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
    )


def _voxelize_stl(path: str, pitch) -> geometry.VoxelMesh:
    """The voxel grid of the mesh in STL file `path`; a malformed file's
    error, or one whose mesh spans no voxel at `pitch`, names it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return geometry.voxelize(geometry.parse_stl(data), pitch)
    except GridSizeError:
        raise  # the pitch's fault, not the file's: the caller names its pitch
    except (DataError, ParameterError) as exc:  # ParameterError: no, non-finite or flat triangles
        raise DataError(f"{path}: {exc}") from exc


def _voxelize_config(cfg: RunConfig) -> geometry.VoxelMesh:
    pitch = (cfg.pitch_x_um, cfg.pitch_y_um, cfg.pitch_z_um)
    try:
        return _voxelize_stl(cfg._resolve(cfg.stl), pitch)
    except GridSizeError as exc:
        raise ConfigError(f"[geometry] pitch_um = {','.join(f'{p:g}' for p in pitch)}: {exc}") from exc


def _layer_range(cfg: RunConfig, vox: geometry.VoxelMesh) -> range:
    hi = vox.layer_count() - 1 if cfg.layer_hi < 0 else cfg.layer_hi
    if not (0 <= cfg.layer_lo <= hi < vox.layer_count()):
        raise ConfigError(
            f"layer range {cfg.layer_lo}..{hi} outside grid with "
            f"{vox.layer_count()} layers"
        )
    return range(cfg.layer_lo, hi + 1)


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Simulate (or load) every layer, extract features, write store + manifest.

    One pass over the layer results in layer order, serial or as the worker
    pool's `map` yields them: each result adds its store blocks, its manifest
    section, its timings line and its frame count as it arrives.
    """
    t0 = time.perf_counter()
    vox = _voxelize_config(cfg)
    timing = [f"setup: geometry.voxelize: {time.perf_counter() - t0:.3f} s"]
    layers = _layer_range(cfg, vox)
    wanted = set(cfg.features) if cfg.features else {int(f) for f in feat.FeatureId}
    pitch = (cfg.pitch_x_um, cfg.pitch_y_um, cfg.pitch_z_um)
    fstore = store.FeatureStore(store.StoreMeta(pitch_um=pitch, dims=vox.dims, parts=[(1, "part")]))
    sections, results, frames = [], [], 0
    # the pool forks all its workers at the first submit: no more than the run can use
    workers = min(cfg.jobs, len(layers), os.cpu_count() or 1)
    pool = None
    if workers > 1:  # imported here: multiprocessing adds 2 MB to a serial run's peak RSS
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    with pool or contextlib.nullcontext():
        for r in (pool.map if pool else map)(process_layer, repeat(cfg), repeat(vox), layers):
            for fid, values in sorted(r.features.values.items()):
                if int(fid) in wanted:
                    sparse = geometry.SparseFeature(r.mask.voxel_indices, values.astype(np.float32))
                    fstore.add(r.layer, int(fid), sparse)
            sections += [
                "",
                f"[layer {r.layer}]",
                f"frames = {r.frame_count}",
                f"mask_pixels = {len(r.mask)}",
                f"spatter_records = {len(r.features.spatter_records)}",
            ]
            if r.truth is not None:
                sections.append(f"spatter_injected = {len(r.truth.spatter_events)}")
            timing.append(
                f"layer {r.layer}: {r.seconds:.3f} s"
                + "".join(f"; {name}: {s:.3f} s" for name, s in r.stage_seconds.items())
                + f"; peak_rss_mb: {r.peak_rss_mb:.1f}"
            )
            frames += r.frame_count
            results.append(r)

    blob = store.write_store(fstore)
    report = store.reduction_report((cfg.cam_width, cfg.cam_height), [frames], len(blob))
    with open(cfg._resolve(cfg.stl), "rb") as fh:
        stl_sha = hashlib.sha256(fh.read()).hexdigest()
    lines = [
        "# run manifest",
        "[run]",
        f"config_sha256 = {cfg.config_sha256}",
        f"stl_sha256 = {stl_sha}",
        f"store_sha256 = {hashlib.sha256(blob).hexdigest()}",
        f"raw_bytes = {report.raw_bytes}",
        f"stored_bytes = {report.stored_bytes}",
        f"reduction_ratio = {report.ratio!r}",
        f"meets_99_percent = {str(report.meets_99_percent).lower()}",
        "",
        "[parameters]",
    ]
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        if f.name not in ("config_dir", "config_sha256"):
            lines.append(f"{f.name} = {getattr(cfg, f.name)!r}")
    manifest = "\n".join(lines + sections + [""])
    out = cfg._resolve(cfg.out)
    with open(out, "wb") as fh:
        fh.write(blob)
    with open(out + ".manifest.txt", "w", encoding="utf-8") as fh:
        fh.write(manifest)
    with open(out + ".timings.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(timing) + "\n")
    return PipelineResult(
        config=cfg,
        store=fstore,
        store_bytes=blob,
        manifest_text=manifest,
        reduction=report,
        layers=results,
    )


DEMO_CONFIG = """\
[run]
out = demo.irvx
seed = 20260826
jobs = 1
layers = 0..19

[geometry]
stl = box.stl
pitch_um = 360,360,40

[camera]
width = 640
height = 480
origin_x = 320
origin_y = 240
fps = 30

[scan]
scan_speed_mm_s = 960
hatch_um = 110
stripe_width_mm = 10
stripe_overlap_mm = 0.08
rotation_per_layer_deg = 66.7

[thermal]
ambient_c = 80
peak_c = 1200
footprint_px = 1.5
decay_s = 0.033

[simulation]
noise_percent = 1.0
prescan_frames = 3
tail_frames = 35
spatter_count = 10
spatter_peak_dt_c = 400
spatter_decay_s = 0.15

[features]
offset_frames = 10
cooling_window = 30
"""


def write_demo(out_dir: str) -> str:
    """Write the bundled 20-layer demo build (config + geometry); returns config path."""
    os.makedirs(out_dir, exist_ok=True)
    mesh = geometry.box_mesh((19.44, 19.44, 0.8))
    with open(os.path.join(out_dir, "box.stl"), "wb") as fh:
        fh.write(geometry.mesh_to_binary_stl(mesh))
    cfg_path = os.path.join(out_dir, "demo.ini")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(DEMO_CONFIG)
    return cfg_path


def _cmd_calibrate_spatial(args) -> int:
    try:
        with open(args.points, encoding="utf-8") as fh:
            h = spatial.estimate_homography(spatial.parse_correspondences(fh.read()))
    except (ValueError, DegeneracyError, HorizonError) as exc:
        raise DataError(f"{args.points}: {exc}") from exc
    print("homography (row-major):")
    for row in h.matrix:
        print("  " + " ".join(f"{v: .10g}" for v in row))
    print(f"max reprojection residual: {h.max_residual:.6g} mm")
    if args.out:
        np.savetxt(args.out, h.matrix, fmt="%.17g")
    return EXIT_OK


def _read_samples(path: str) -> list[tuple[float, float]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                t, c = (float(v) for v in line.split(","))
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: expected temp_c,counts ({exc})") from exc
            out.append((c, t))  # fit consumes (counts, reference temp)
    return out


def _cmd_calibrate_thermal(args) -> int:
    profile = radiometry.CalibrationProfile()
    try:
        eps, resid = radiometry.fit_emissivity(_read_samples(args.samples), profile)
    except (ValueError, IllConditionedError, BelowFloorError) as exc:
        raise DataError(f"{args.samples}: {exc}") from exc
    print(f"fitted emissivity: {eps:.4f} (residual std {resid:.3f} degC)")
    if args.out:
        if args.surface == "powder":
            profile = radiometry.CalibrationProfile(emissivity_powder=eps)
        else:
            profile = radiometry.CalibrationProfile(emissivity_printed=eps)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(radiometry.profile_to_text(profile))
        print(f"profile written to {args.out}")
    return EXIT_OK


def _cmd_voxelize(args) -> int:
    try:
        pitch = tuple(_parse_pitch(args.pitch).values())
    except ValueError as exc:
        raise ConfigError(f"bad --pitch {args.pitch!r}: {exc}") from exc
    try:
        vox = _voxelize_stl(args.stl, pitch)
    except GridSizeError as exc:
        raise ConfigError(f"bad --pitch {args.pitch!r}: {exc}") from exc
    nx, ny, nz = vox.dims
    print(f"grid: {nx} x {ny} x {nz} voxels at {pitch} um")
    print(f"occupied: {vox.occupied_count()}")
    print(f"watertight: {vox.exact}")
    if args.out:
        ii, jj, kk = np.nonzero(vox.occupancy)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("i,j,k\n")
            for i, j, k in zip(ii, jj, kk):
                fh.write(f"{i},{j},{k}\n")
    return EXIT_OK


def _camera_frames(stack: feat.LayerStack, frame: np.ndarray):
    """Yield `frame` once per stack frame, with that frame's window pasted
    in: one camera frame is held at a time."""
    (y0, x0), (h, w) = stack.origin, stack.shape
    window = frame[y0 : y0 + h, x0 : x0 + w]
    for counts in stack.frames:
        window[...] = counts
        yield frame


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, args)
    vox = _voxelize_config(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    # pixels outside the part window, which no extractor reads, hold the
    # ambient powder count a whole-frame render gives them at noise 0
    powder = store.quantize_counts(
        radiometry.forward_counts(cfg.ambient_c, cfg.profile.emissivity_powder, cfg.profile)
    )
    for layer in _layer_range(cfg, vox):
        stack, truth, _mask = _simulate_layer(cfg, vox, layer)
        frame = np.full((cfg.cam_height, cfg.cam_width), powder, dtype="<u2")
        store.write_layer_stack(
            os.path.join(args.out_dir, f"layer_{layer:04d}.irfs"),
            _camera_frames(stack, frame),
            fps=cfg.fps,
        )
        with open(
            os.path.join(args.out_dir, f"layer_{layer:04d}.spatter.csv"),
            "w",
            encoding="utf-8",
        ) as fh:
            fh.write("emit_frame,landing_x,landing_y,peak_dt_c,decay_s\n")
            for ev in truth.spatter_events:
                fh.write(
                    f"{ev.emit_frame},{ev.landing_px[0]},{ev.landing_px[1]},"
                    f"{ev.peak_dt_c},{ev.decay_s}\n"
                )
        np.save(
            os.path.join(args.out_dir, f"layer_{layer:04d}.scan_order.npy"),
            truth.true_scan_order,
        )
        print(f"layer {layer}: {len(stack)} frames")
    return EXIT_OK


def _cmd_extract(args) -> int:
    cfg = load_config(args.config, args)
    result = run_pipeline(cfg)
    print(f"store written: {cfg._resolve(cfg.out)}")
    print(f"blocks: {len(result.store.blocks)}")
    print(f"reduction ratio: {result.reduction.ratio:.6f}")
    return EXIT_OK


def _read_store(path: str) -> store.FeatureStore:
    """The feature store in file `path`; a malformed store's error names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return store.read_store(data)
    except StoreFormatError as exc:
        raise StoreFormatError(f"{path}: {exc}") from exc


def _cmd_export(args) -> int:
    fstore = _read_store(args.store)
    key = args.feature.strip().upper()
    if key not in feat.FeatureId.__members__:
        raise ConfigError(f"unknown feature {args.feature!r}")
    try:
        blob = store.export_grid(fstore, args.layer, int(feat.FeatureId[key]), args.format)
    except FeatureNotFoundError as exc:
        raise FeatureNotFoundError(f"{args.store}: {exc}") from exc
    with open(args.out, "wb") as fh:
        fh.write(blob)
    print(f"wrote {len(blob)} bytes to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    fstore = _read_store(args.store)
    nx, ny, nz = fstore.meta.dims
    print(f"grid: {nx} x {ny} x {nz} at {fstore.meta.pitch_um} um")
    print(f"blocks: {len(fstore.blocks)}")
    layers = sorted({k[0] for k in fstore.blocks})
    print(f"layers: {layers[0]}..{layers[-1]}" if layers else "layers: none")
    total = sum(len(b.indices) for b in fstore.blocks.values())
    print(f"entries: {total}")
    manifest = args.store + ".manifest.txt"
    if os.path.exists(manifest):
        with open(manifest, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(("reduction_ratio", "raw_bytes", "stored_bytes")):
                    print(line.strip())
    return EXIT_OK


def _cmd_demo(args) -> int:
    cfg_path = write_demo(args.out_dir)
    print(f"demo config written: {cfg_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="irmap",
        description="Layer-wise infrared feature extraction for powder bed builds.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("calibrate-spatial", help="fit a homography from marker points")
    sp.add_argument("--points", required=True, help="world/image correspondence file")
    sp.add_argument("--out", help="write the 3x3 matrix to this file")
    sp.set_defaults(func=_cmd_calibrate_spatial)

    sp = sub.add_parser("calibrate-thermal", help="fit emissivity from temp,counts samples")
    sp.add_argument("--samples", required=True, help="CSV of temp_c,counts lines")
    sp.add_argument("--surface", choices=("powder", "printed"), default="powder")
    sp.add_argument("--out", help="write a calibration profile here")
    sp.set_defaults(func=_cmd_calibrate_thermal)

    sp = sub.add_parser("voxelize", help="voxelize an STL at camera pitch")
    sp.add_argument("--stl", required=True)
    sp.add_argument("--pitch", default="360,360,40", help="x,y,z pitch in um")
    sp.add_argument("--out", help="write occupied voxel indices as CSV")
    sp.set_defaults(func=_cmd_voxelize)

    sp = sub.add_parser("simulate", help="render synthetic frame stacks to disk")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--seed")
    sp.add_argument("--layers")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("extract", help="run the full pipeline and write a store")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out")
    sp.add_argument("--layers")
    sp.add_argument("--features", help="comma list, default all")
    sp.add_argument("--jobs")
    sp.add_argument("--seed")
    sp.set_defaults(func=_cmd_extract)

    sp = sub.add_parser("export", help="export one stored layer/feature grid")
    sp.add_argument("--store", required=True)
    sp.add_argument("--layer", type=int, required=True)
    sp.add_argument("--feature", required=True)
    sp.add_argument("--format", choices=("csv", "vtk", "pgm-heatmap"), default="csv")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_export)

    sp = sub.add_parser("report", help="summarize a store and its manifest")
    sp.add_argument("--store", required=True)
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("demo", help="write the bundled 20-layer demo build")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=_cmd_demo)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # from the config file, or a value only the run rejects
        where = f"{args.config}: " if getattr(args, "config", None) else ""
        print(f"config error: {where}{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # its message names the file
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (AssertionError, IrmapError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
