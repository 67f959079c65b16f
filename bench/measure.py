"""The measured part of one benchmark run, in a fresh process.

    python3 bench/measure.py <workload> <input dir> <seconds> <trace 0|1> <span file>

`run.py` prepares the inputs and starts this script once per run, so the
process's own peak RSS is the peak of that run alone. The last line of
standard output is one JSON object holding the raw measurements.

Each run is a closed loop with one caller: the next iteration starts when
the previous one returns. It runs for about `seconds`, and at least two
iterations, so every run also checks that a repeat on the same inputs gives
a byte-identical result. With tracing, every iteration after the first
(a cold warm-up) is traced, and the tracing overhead is the span count times
the cost of one span (`tracer.span_cost_s`).
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from irmap import cli, features, geometry, imageops, radiometry, simulator, store  # noqa: E402
from irmap.features import FeatureId  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer, current_rss_mb, peak_rss_mb, span_cost_s  # noqa: E402

SETUP_REPEATS = 5  # at least, before the first iteration
SETUP_SHARE = 0.2  # of the run's time, spread over it
EXPORT_FORMATS = ("csv", "vtk", "pgm-heatmap")

# every layer a per-layer metric names, as (module, attribute)
SPANS = [(cli, "run_pipeline"), (cli, "process_layer"), (cli, "_simulate_layer")]
SPANS += [(simulator, n) for n in ("render_frames", "generate_scan_path", "make_spatter_schedule")]
SPANS += [(store, n) for n in ("read_layer_stack", "write_store", "read_store", "export_grid")]
SPANS += [(geometry, n) for n in ("parse_stl", "voxelize", "layer_mask", "map_layer_feature")]
SPANS += [
    (features, n)
    for n in (
        "heat_intensity_and_scan_order",
        "interpass",
        "local_predeposition",
        "max_predeposition",
        "melt_pool_area",
        "cooling_rate",
        "interpass_laplacian",
        "asprinted_laplacian",
        "spatter_layer",
        "spatter_frame_filter",
    )
]
SPANS += [
    (imageops, n)
    for n in (
        "fold_max_argmax",
        "gaussian_laplace",
        "gaussian_gradient_magnitude",
        "otsu_thresholds",
        "label_components",
        "dilate_disk",
    )
]
SPANS += [(radiometry, "invert_counts_array")]


def _after(fn):
    """A probe that only looks at the call's result."""
    return lambda args, kwargs: fn


def _rss_growth(args, kwargs):
    before = current_rss_mb()
    return lambda result: {"rss_growth_mb": current_rss_mb() - before}


def _file_size(args, kwargs):
    size = os.path.getsize(args[0])
    return lambda result: {"bytes_in": size}


def _pixels(args, kwargs):
    pixels = np.size(args[0])
    return lambda result: {"pixels": pixels}


PROBES = {
    "cli.process_layer": _rss_growth,
    "simulator.render_frames": _after(
        lambda r: {"frames": len(r[0]), "bytes_out": r[0].frames.nbytes}
    ),
    "store.read_layer_stack": _file_size,
    "store.write_store": _after(lambda r: {"bytes_out": len(r)}),
    "features.spatter_frame_filter": _after(lambda r: {"clusters": r[1].count}),
    "features.spatter_layer": _after(lambda r: {"records": len(r[2])}),
    "radiometry.invert_counts_array": _pixels,
}


def _export_span(args, kwargs):
    fmt = args[3] if len(args) > 3 else kwargs["fmt"]
    return "store.export_grid." + fmt.split("-")[0]


def install_spans(tracer: Tracer) -> None:
    for module, attr in SPANS:
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        name = _export_span if key == "store.export_grid" else key
        tracer.install(module, attr, name=name, probe=PROBES.get(key))


class PipelineRun:
    """One `cli.run_pipeline` call over the workload's layers per iteration."""

    def __init__(self, w: wl.Workload, inputs: str):
        self.w = w
        self.ini = os.path.join(inputs, "demo.ini")
        self.frames_dir = os.path.join(inputs, "frames") if w.frames_on_disk else None
        self.rates: list[float] = []  # frames per second, per untraced iteration
        self.latencies: list[float] = []  # seconds per `cli.process_layer` call
        self.digests: set[str] = set()
        self.layers: list[dict] | None = None
        self.reduction = 0.0
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def setup_once(self) -> None:
        """Config load, STL parse and voxelize: the work before layer 0 starts."""
        cfg = cli.load_config(self.ini)
        with open(os.path.join(cfg.config_dir, cfg.stl), "rb") as fh:
            mesh = geometry.parse_stl(fh.read())
        geometry.voxelize(mesh, (cfg.pitch_x_um, cfg.pitch_y_um, cfg.pitch_z_um))

    def iteration(self, traced: bool) -> float:
        cfg = cli.load_config(self.ini)
        t0 = time.perf_counter()
        try:
            result = cli.run_pipeline(cfg)
        except Exception as exc:  # a raising layer fails the whole call; count it
            self.attempted += self.w.layers
            self.failed += self.w.layers
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        wall = time.perf_counter() - t0
        if not traced:
            self.rates.append(sum(lr.frame_count for lr in result.layers) / wall)
            self.latencies += [lr.seconds for lr in result.layers]
        digest = hashlib.sha256(result.store_bytes + result.manifest_text.encode("utf-8"))
        self.digests.add(digest.hexdigest())
        if self.layers is None:
            self.layers = [self._check(lr) for lr in result.layers]
            self.reduction = result.reduction.ratio
        self.attempted += len(result.layers)
        self.failed += sum(1 for q in self.layers if q["broken"])
        return wall

    def _check(self, lr) -> dict:
        if self.frames_dir:
            order, landings = wl.disk_truth(self.frames_dir, lr.layer)
        else:
            order, landings = lr.truth.true_scan_order, wl.landings_of(lr.truth)
        return wl.layer_quality(lr, order, landings)

    def report(self) -> dict:
        quality = wl.summarize(self.layers) if self.layers else {}
        broken = wl.run_rules(quality) if self.layers else []
        latency = _median(self.latencies)
        frames_per_s = _median(self.rates)
        return {
            "metrics": {
                "throughput_per_s": frames_per_s,
                "latency_p50_ms": 1000.0 * latency,
                "scan_order_fidelity": quality.get("scan_order_fidelity", 0.0),
                "spatter_recall": quality.get("spatter_recall", 0.0),
                "spatter_precision": quality.get("spatter_precision", 0.0),
                "reduction_ratio": self.reduction,
            },
            "extra": {
                "frames_per_s": (frames_per_s, "1/s"),
                "layer_latency_p50_s": (latency, "s"),
                "layer_latency_samples": (len(self.latencies), "count"),
                "spatter_false_pos_per_layer": (
                    quality.get("spatter_false_pos_per_layer", 0.0),
                    "count",
                ),
            },
            "broken": broken
            + [f"layer {q['layer']}: {b}" for q in self.layers or [] for b in q["broken"]],
            "digests": sorted(self.digests),
        }


class ReadbackRun:
    """Per iteration: read the store file, then export every block in every format."""

    def __init__(self, w: wl.Workload, inputs: str):
        self.path = os.path.join(inputs, "demo.irvx")
        with open(os.path.join(inputs, "quality.json"), encoding="utf-8") as fh:
            self.setup_quality = json.load(fh)
        with np.load(os.path.join(inputs, "truth_scan_order.npz")) as npz:
            self.truth = {int(k.split("_")[1]): npz[k] for k in npz.files}
        self.rates: list[float] = []  # exports per second, per untraced pass
        self.latencies: list[float] = []  # seconds per untraced pass
        self.export_latencies: list[float] = []  # seconds per export call
        self.digests: set[str] = set()
        self.bad: set[tuple] | None = None
        self.quality: dict | None = None
        self.read_back_matches_setup = True
        self.reduction = 0.0
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def setup_once(self) -> None:
        with open(self.path, "rb") as fh:
            store.read_store(fh.read())

    def iteration(self, traced: bool) -> float:
        t0 = time.perf_counter()
        with open(self.path, "rb") as fh:
            data = fh.read()
        fstore = store.read_store(data)
        busy = time.perf_counter() - t0
        first = self.bad is None
        if first:
            self.bad = set()
            self._check_store(fstore, len(data))
        digest = hashlib.sha256()
        for layer, fid in sorted(fstore.blocks):
            for fmt in EXPORT_FORMATS:
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    blob = store.export_grid(fstore, layer, fid, fmt)
                except Exception as exc:  # count the export as failed and go on
                    self.failed += 1
                    self.errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                dt = time.perf_counter() - t0
                busy += dt
                if not traced:
                    self.export_latencies.append(dt)
                if first and not export_matches(fstore, layer, fid, fmt, blob):
                    self.bad.add((layer, fid, fmt))
                self.failed += (layer, fid, fmt) in self.bad
                digest.update(blob)
        self.digests.add(digest.hexdigest())
        if not traced:
            self.latencies.append(busy)
            self.rates.append(len(fstore.blocks) * len(EXPORT_FORMATS) / busy)
        return busy

    def _check_store(self, fstore, size: int) -> None:
        """Scan-order fidelity of the blocks read back, and the store's reduction."""
        layers = []
        for layer, truth in self.truth.items():
            got = np.nan_to_num(fstore.get(layer, FeatureId.SCAN_ORDER).values, nan=-1.0)
            layers.append({"pixels": len(truth), "matched": int((got == truth).sum())})
        setup = self.setup_quality["layers"]
        self.quality = dict(wl.summarize(setup))
        self.quality["scan_order_fidelity"] = sum(q["matched"] for q in layers) / sum(
            q["pixels"] for q in layers
        )
        self.read_back_matches_setup = [q["matched"] for q in layers] == [
            q["matched"] for q in setup
        ]
        self.reduction = 1.0 - size / self.setup_quality["raw_bytes"]

    def report(self) -> dict:
        q = self.quality or {}
        broken = wl.run_rules(q) if q else []
        if q and not self.read_back_matches_setup:
            broken.append("scan order read back differs from the extracted one")
        broken += [f"export {k} does not match its block" for k in sorted(self.bad or ())]
        latency = _median(self.latencies)
        exports_per_s = _median(self.rates)
        per_export = self.export_latencies or [0.0]
        return {
            "metrics": {
                "throughput_per_s": exports_per_s,
                "latency_p50_ms": 1000.0 * latency,
                "scan_order_fidelity": q.get("scan_order_fidelity", 0.0),
                "spatter_recall": q.get("spatter_recall", 0.0),
                "spatter_precision": q.get("spatter_precision", 0.0),
                "reduction_ratio": self.reduction,
            },
            "extra": {
                "exports_per_s": (exports_per_s, "1/s"),
                "export_latency_p50_s": (float(np.percentile(per_export, 50)), "s"),
                "export_latency_p90_s": (float(np.percentile(per_export, 90)), "s"),
                "export_latency_samples": (len(self.export_latencies), "count"),
                "spatter_false_pos_per_layer": (
                    q.get("spatter_false_pos_per_layer", 0.0),
                    "count",
                ),
            },
            "broken": broken,
            "digests": sorted(self.digests),
        }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def export_matches(fstore, layer: int, fid: int, fmt: str, blob: bytes) -> bool:
    """Check one export against the block it was made from."""
    block = fstore.get(layer, fid)
    nx, ny, _ = fstore.meta.dims
    plane = block.indices.astype(np.int64) - nx * ny * layer
    i, j = plane % nx, plane // nx
    values = block.values.astype(np.float64)
    finite = ~np.isnan(values)
    if fmt == "csv":
        rows = blob.decode("utf-8").splitlines()
        if rows[0] != "i,j,layer,value":
            return False
        got = np.array([[float(v) for v in r.split(",")] for r in rows[1:]]).reshape(-1, 4)
        want = np.column_stack(
            [i[finite], j[finite], np.full(int(finite.sum()), layer), values[finite]]
        )
        return np.array_equal(got, want)
    if fmt == "vtk":
        dims, grid = store.parse_vtk(blob)
        return (
            dims == (nx, ny, 1)
            and np.array_equal(grid[j, i], values, equal_nan=True)
            and int(np.isfinite(grid).sum()) == int(finite.sum())
        )
    header = f"P5\n{nx} {ny}\n65535\n".encode("ascii")
    return blob.startswith(header) and len(blob) == len(header) + 2 * nx * ny


def measure(run, seconds: float, trace: bool, tracer: Tracer) -> tuple[list[float], list[float]]:
    """Iterate while the next iteration is expected to end within `seconds`.

    At least two iterations run; with tracing, all but the first (a cold
    warm-up) are traced. Set-up repeats are spread over the run:
    before each iteration and at the end they run until they have taken
    SETUP_SHARE of the time so far, so host load that comes and goes within
    a run weighs on their median as it does on the iterations'. Returns the
    seconds of each set-up repeat and the busy seconds of each traced
    iteration.
    """
    setup: list[float] = []
    traced_busy: list[float] = []
    start = time.perf_counter()

    def set_up():
        while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SHARE * (
            time.perf_counter() - start
        ):
            t0 = time.perf_counter()
            run.setup_once()
            setup.append(time.perf_counter() - t0)

    k = 0
    while k < 2 or (time.perf_counter() - start) * (k + 1) / k <= seconds:
        set_up()
        traced = trace and k > 0
        if traced:
            install_spans(tracer)
        try:
            busy = run.iteration(traced)
        finally:
            tracer.uninstall()
        if traced:
            traced_busy.append(busy)
        k += 1
    set_up()
    return setup, traced_busy


def main(argv: list[str]) -> int:
    name, inputs, seconds, trace, span_file = argv
    w = wl.WORKLOADS[name]
    trace = trace == "1"
    run = (PipelineRun if w.kind == "pipeline" else ReadbackRun)(w, inputs)
    tracer = Tracer()
    setup, traced_busy = measure(run, float(seconds), trace, tracer)
    out = run.report()
    out["metrics"]["setup_s"] = statistics.median(setup)
    out["metrics"]["peak_rss_mb"] = peak_rss_mb()
    out.update(attempted=run.attempted, failed=run.failed, errors=run.errors[:5])
    if trace:
        tracer.write(span_file)
        out["trace"] = {
            "traced_busy": traced_busy,
            "spans": len(tracer.spans),
            "span_cost_s": span_cost_s(),
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": tracer.counts,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
