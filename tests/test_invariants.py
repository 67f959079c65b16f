"""Metamorphic invariants of the pipeline on the small test build.

The invariant tests run `irmap extract` on a changed input that must leave
the stored blocks as they were, and compare the blocks byte for byte; one
replays the frames `irmap simulate` wrote, which must give the in-memory
run's blocks. The
camera is 128x96 px here, so the 10x10 px part can move by tens of pixels and
stay in frame. The last test checks that a kept layer result holds no
camera-frame array.
"""

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from irmap.cli import load_config, main, run_pipeline
from irmap.geometry import box_mesh, mesh_to_binary_stl
from irmap.store import read_store
from test_cli import MINI_CONFIG

CONFIG = MINI_CONFIG.format(frames_dir="").replace(
    "width = 64\nheight = 64", "width = 128\nheight = 96"
)


@pytest.fixture(scope="module")
def build(tmp_path_factory):
    root = tmp_path_factory.mktemp("invariants")
    (root / "mini.stl").write_bytes(mesh_to_binary_stl(box_mesh((3.6, 3.6, 0.08))))
    return root


def extract(build, name: str, *flags: str, config: str = CONFIG) -> dict:
    """Run `irmap extract` and return its blocks as {(layer, feature): bytes}."""
    ini = build / f"{name}.ini"
    ini.write_text(config)
    out = build / f"{name}.irvx"
    assert main(["extract", "--config", str(ini), "--out", str(out), *flags]) == 0
    blocks = read_store(out.read_bytes()).blocks
    return {k: b.indices.tobytes() + b.values.tobytes() for k, b in blocks.items()}


@pytest.fixture(scope="module")
def full(build):
    blocks = extract(build, "full")
    assert {layer for layer, _ in blocks} == {0, 1} and len(blocks) == 22
    return blocks


def test_layer_subset_equals_full_run(build, full):
    subset = extract(build, "subset", "--layers", "1..1")
    assert subset == {k: v for k, v in full.items() if k[0] == 1}


def test_feature_subset_equals_full_run(build, full):
    subset = extract(build, "features", "--features", "scan_order,cooling_rate")
    assert subset == {k: v for k, v in full.items() if k[1] in (3, 9)}


@pytest.mark.parametrize("dx, dy", [(5, 0), (0, -7), (40, 30)])
def test_camera_origin_shift_keeps_blocks(build, full, dx, dy):
    moved = CONFIG.replace("origin_x = 32", f"origin_x = {32 + dx}").replace(
        "origin_y = 32", f"origin_y = {32 + dy}"
    )
    assert extract(build, f"shift_{dx}_{dy}", config=moved) == full


def test_replay_of_simulated_frames_equals_in_memory_run(build, full):
    (build / "simulate.ini").write_text(CONFIG)
    frames = build / "frames"
    assert main(["simulate", "--config", str(build / "simulate.ini"), "--out-dir", str(frames)]) == 0
    replay = CONFIG.replace("frames_dir = \n", f"frames_dir = {frames}\n")
    assert replay != CONFIG
    assert extract(build, "replay", config=replay) == full


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)


def test_layer_results_hold_no_camera_frame_array(build):
    (build / "kept.ini").write_text(CONFIG)
    cfg = load_config(str(build / "kept.ini"))
    camera = (cfg.cam_height, cfg.cam_width)
    for lr in run_pipeline(cfg).layers:  # writes mini.irvx beside kept.ini
        shapes = {a.shape for a in _arrays(lr)}
        assert shapes and not any(s[-2:] == camera for s in shapes if len(s) >= 2)
        assert all(v.shape == (len(lr.mask),) for v in lr.features.values.values())
