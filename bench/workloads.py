"""Benchmark workloads: their configs, their cached inputs and the output check.

Every workload is the bundled demo build (`cli.write_demo`) with the run seed
set to the benchmark's `--seed`; the program only sees the generated config
and, for the disk workloads, the frames rendered from it.

- demo_sim: the demo as shipped (640x480 camera, 54x54 px part, 1% noise,
  10 spatters per layer), simulated in memory. Full-frame simulation and
  extraction dominate, as on the ROADMAP baseline path.
- replay_disk: the same build rendered once to `.irfs` files by
  `irmap simulate`, then extracted from `frames_dir`. No simulator work is
  timed, so stack reading and the extractors dominate (production path).
- part_fills_frame: the demo part in a 96x96 camera window, so the part
  covers 32% of the frame. Per-pixel savings from cropping to the part
  should not show here; per-call overhead dominates instead.
- store_readback: read a demo store written once in set-up and export every
  (layer, feature) block as CSV, VTK and PGM: the IRVX read path.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from irmap import cli, geometry
from irmap.features import FeatureId

GATE_PX = 2.0  # criterion 07 association gate
MAX_CENTROID_PX = 1.0
MIN_FIDELITY = 0.99
MIN_RECALL = 0.90
MAX_FALSE_POS_PER_LAYER = 1
KEEP_FRAME_SEEDS = 3  # rendered frame sets kept on disk (about 90 MB per layer)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline" or "readback"
    layers: int
    frames_on_disk: bool = False
    camera: tuple[int, int, int, int] | None = None  # width, height, origin x, y


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo_sim", "pipeline", layers=2),
        Workload("replay_disk", "pipeline", layers=2, frames_on_disk=True),
        Workload("part_fills_frame", "pipeline", layers=4, camera=(96, 96, 48, 48)),
        Workload("store_readback", "readback", layers=2),
    )
}


@cache
def program_sha256() -> str:
    """Digest of the measured program: every file under src/, in path order."""
    src = Path(cli.__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src.parent)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def write_config(directory: str, w: Workload, seed: int) -> str:
    """Write the demo build, edited for workload `w` and `seed`; returns the ini path."""
    path = cli.write_demo(directory)
    ini = configparser.ConfigParser()
    ini.read(path, encoding="utf-8")
    ini["run"]["seed"] = str(seed)
    ini["run"]["jobs"] = "1"
    ini["run"]["layers"] = f"0..{w.layers - 1}"
    if w.camera:
        cam = ini["camera"]
        cam["width"], cam["height"], cam["origin_x"], cam["origin_y"] = map(str, w.camera)
    if w.frames_on_disk:
        ini["run"]["frames_dir"] = "frames"
    with open(path, "w", encoding="utf-8") as fh:
        ini.write(fh)
    return path


def prepare(work_root: str, w: Workload, seed: int) -> str:
    """Create (once per seed) the workload's inputs; returns their directory.

    Rendering frames and writing the store happen here, outside every timed
    metric. Rendered frames are inputs of the program, so replay_disk's
    inputs are kept per seed. The other workloads' inputs (a config, or a
    store with its quality and truth) are written by the program itself, so
    they are also keyed by the program digest: a changed write path is
    always measured on its own output. A
    directory is built under a temporary name and renamed when complete, so
    an interrupted set-up is never mistaken for a finished one.
    """
    base = os.path.join(work_root, w.name)
    key = f"s{seed}" if w.frames_on_disk else f"s{seed}-{program_sha256()[:12]}"
    final = os.path.join(base, key)
    if os.path.isdir(final):
        os.utime(final)
        return final
    os.makedirs(base, exist_ok=True)
    for stale in os.listdir(base):
        if ".tmp" in stale:
            shutil.rmtree(os.path.join(base, stale))
    tmp = f"{final}.tmp{os.getpid()}"
    ini = write_config(tmp, w, seed)
    if w.frames_on_disk:
        _evict_old_frames(base)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", ini, "--out-dir", os.path.join(tmp, "frames")])
        if code != 0:
            raise RuntimeError(f"irmap simulate exited with {code}")
    if w.kind == "readback":
        _write_readback_inputs(ini, tmp)
    _flush(tmp)
    os.rename(tmp, final)
    return final


def _flush(directory: str) -> None:
    """Write the new inputs out now, so their writeback never overlaps a timed run."""
    for dirpath, _, names in os.walk(directory):
        for name in names:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def _evict_old_frames(base: str) -> None:
    seeds = sorted(
        (os.path.join(base, d) for d in os.listdir(base) if ".tmp" not in d),
        key=os.path.getmtime,
    )
    for old in seeds[: max(0, len(seeds) - (KEEP_FRAME_SEEDS - 1))]:
        shutil.rmtree(old)


def _write_readback_inputs(ini: str, directory: str) -> None:
    """Extract the demo once; keep the store, its detection quality and truth."""
    cfg = cli.load_config(ini)
    result = cli.run_pipeline(cfg)
    layers = [
        layer_quality(lr, lr.truth.true_scan_order, landings_of(lr.truth))
        for lr in result.layers
    ]
    truth = {
        f"layer_{lr.layer}": geometry.map_layer_feature(lr.truth.true_scan_order, lr.mask).values
        for lr in result.layers
    }
    np.savez(os.path.join(directory, "truth_scan_order.npz"), **truth)
    with open(os.path.join(directory, "quality.json"), "w", encoding="utf-8") as fh:
        json.dump({"raw_bytes": result.reduction.raw_bytes, "layers": layers}, fh)


def landings_of(truth) -> list[tuple[float, float]]:
    return [tuple(map(float, ev.landing_px)) for ev in truth.spatter_events]


def disk_truth(frames_dir: str, layer: int):
    """Scan order and spatter landings that `irmap simulate` wrote beside a stack."""
    stem = os.path.join(frames_dir, f"layer_{layer:04d}")
    order = np.load(stem + ".scan_order.npy")
    with open(stem + ".spatter.csv", encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:] if line]
    return order, [(float(r[1]), float(r[2])) for r in rows]


def layer_quality(lr, truth_order: np.ndarray, landings) -> dict:
    """Criterion 06/07 measurements and rule breaks for one extracted layer."""
    dense = lr.mask.pixel_mask()
    order = lr.features.maps[FeatureId.SCAN_ORDER]
    got = np.where(order.validity, order.grid, -1).astype(np.int64)
    matched = int((got[dense] == truth_order[dense]).sum())
    found: list[list[float]] = [[] for _ in landings]
    false_pos = 0
    for rec in lr.features.spatter_records:
        cx, cy = rec.centroid
        best, best_d = None, GATE_PX
        for i, (lx, ly) in enumerate(landings):
            d = math.hypot(cx - lx, cy - ly)
            if d < best_d:
                best, best_d = i, d
        if best is None:
            false_pos += 1
        else:
            found[best].append(best_d)
    q = {
        "layer": lr.layer,
        "pixels": int(dense.sum()),
        "matched": matched,
        "events": len(landings),
        "hits": sum(1 for f in found if f),
        "records": len(lr.features.spatter_records),
        "false_pos": false_pos,
    }
    # fidelity and recall are criteria over a whole run (see `run_rules`);
    # these rules hold for every layer
    broken = []
    if false_pos > MAX_FALSE_POS_PER_LAYER:
        broken.append(f"{false_pos} false positives")
    if any(len(f) > 1 for f in found):
        broken.append("spatter double-counted")
    if any(len(f) == 1 and f[0] > MAX_CENTROID_PX for f in found):
        broken.append("landing centroid error above 1 px")
    q["broken"] = broken
    return q


def summarize(layers: list[dict]) -> dict:
    """Run-level detection quality over per-layer measurements."""
    pixels = sum(q["pixels"] for q in layers)
    events = sum(q["events"] for q in layers)
    records = sum(q["records"] for q in layers)
    false_pos = sum(q["false_pos"] for q in layers)
    return {
        "scan_order_fidelity": sum(q["matched"] for q in layers) / pixels,
        "spatter_recall": sum(q["hits"] for q in layers) / events,
        "spatter_precision": (records - false_pos) / records if records else 0.0,
        "spatter_false_pos_per_layer": false_pos / len(layers),
    }


def run_rules(summary: dict) -> list[str]:
    """Criterion 06/07 rules that hold over all layers of a run."""
    broken = []
    if not summary["scan_order_fidelity"] >= MIN_FIDELITY:
        broken.append("scan-order fidelity below 0.99")
    if not summary["spatter_recall"] >= MIN_RECALL:
        broken.append("spatter recall below 0.90")
    return broken
