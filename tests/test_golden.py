"""Golden-output gate: every stored block and manifest of a few small builds
is pinned by its sha256.

The builds are the `test_cli.py` mini build at noise 0 and at 1%, each run in
memory and replayed from the frames `irmap simulate` writes, and layers 0..1
of the shipped demo config, whose layers hold spatter. A block's digest is
the sha256 of its u32 indices followed by its f32 values; the in-memory and
replayed runs of one build share its block pins. A block that differs is
named by layer and feature, with its largest absolute difference from the
reference values kept in `golden.npz` (each block's values, and each
layer's voxel indices once). The csv, vtk and pgm-heatmap exports of every
demo block are pinned by their sha256 too.

A change that alters the output on purpose regenerates `golden.json` and
`golden.npz` with `PYTHONPATH=src python tests/test_golden.py` and says so.
"""

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest

from irmap import cli, store
from irmap.features import FeatureId
from irmap.geometry import box_mesh, mesh_to_binary_stl
from test_cli import MINI_CONFIG

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "golden.json")
VALUES = os.path.join(HERE, "golden.npz")

# (case, build): a case is one run; its blocks are pinned per build
CASES = [
    ("mini-noise0-memory", "mini-noise0"),
    ("mini-noise0-replay", "mini-noise0"),
    ("mini-noise1-memory", "mini-noise1"),
    ("mini-noise1-replay", "mini-noise1"),
    ("demo-layers-0-1", "demo-layers-0-1"),
]
EXPORT_FORMATS = ("csv", "vtk", "pgm-heatmap")


def _run(case: str, work: str) -> str:
    """Run one case in directory `work`; returns the store path."""
    if case.startswith("demo"):
        cfg = cli.write_demo(work)
        assert cli.main(["extract", "--config", cfg, "--layers", "0..1"]) == 0
        return os.path.join(work, "demo.irvx")
    with open(os.path.join(work, "mini.stl"), "wb") as fh:
        fh.write(mesh_to_binary_stl(box_mesh((3.6, 3.6, 0.08))))
    noise = "1.0" if "noise1" in case else "0.0"
    text = MINI_CONFIG.replace("noise_percent = 1.0", f"noise_percent = {noise}")
    cfg = os.path.join(work, "mini.ini")
    if case.endswith("replay"):
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text.format(frames_dir=""))
        frames = os.path.join(work, "frames")
        assert cli.main(["simulate", "--config", cfg, "--out-dir", frames]) == 0
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text.format(frames_dir="frames" if case.endswith("replay") else ""))
    assert cli.main(["extract", "--config", cfg]) == 0
    return os.path.join(work, "mini.irvx")


def _read(path: str) -> store.FeatureStore:
    with open(path, "rb") as fh:
        return store.read_store(fh.read())


def _key(layer: int, fid: int) -> str:
    return f"{layer}/{FeatureId(fid).name.lower()}"


def _blocks(path: str) -> dict:
    """{"layer/feature": SparseFeature} of the store at `path`."""
    return {_key(*k): b for k, b in _read(path).blocks.items()}


def _export_digests(path: str) -> dict:
    """{"layer/feature/format": sha256} of every export of every block."""
    fstore = _read(path)
    return {
        f"{_key(*k)}/{fmt}": hashlib.sha256(store.export_grid(fstore, *k, fmt)).hexdigest()
        for k in sorted(fstore.blocks)
        for fmt in EXPORT_FORMATS
    }


def _digest(block) -> str:
    data = block.indices.astype("<u4").tobytes() + block.values.astype("<f4").tobytes()
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _difference(block, ref_indices, ref_values) -> str:
    """How a block differs from its reference: the largest absolute
    difference of the finite values, and the NaNs that moved."""
    if not np.array_equal(block.indices, ref_indices):
        return f"its voxel indices differ ({len(block.indices)} entries, reference {len(ref_indices)})"
    got, ref = block.values.astype(np.float64), ref_values.astype(np.float64)
    nan_moved = int((np.isnan(got) != np.isnan(ref)).sum())
    both = np.isfinite(got) & np.isfinite(ref)
    largest = float(np.abs(got[both] - ref[both]).max()) if both.any() else 0.0
    changed = int((got[both] != ref[both]).sum())
    return f"largest absolute difference {largest:.6g} ({changed} values changed, {nan_moved} NaNs moved)"


@pytest.fixture(scope="module")
def golden():
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    with np.load(VALUES) as ref:
        yield pins, dict(ref)


@pytest.mark.parametrize("case, build", CASES, ids=[c for c, _ in CASES])
def test_blocks_and_manifest_match_pins(golden, tmp_path, case, build):
    pins, ref = golden
    path = _run(case, str(tmp_path))
    blocks = _blocks(path)
    expected = pins["blocks"][build]
    assert sorted(blocks) == sorted(expected), f"{case}: stored (layer, feature) blocks differ"
    wrong = [
        f"{case}: layer {key.split('/')[0]} feature {key.split('/')[1]}: "
        + _difference(b, ref[f"{build}/{key.split('/')[0]}"], ref[f"{build}/{key}"])
        for key, b in sorted(blocks.items())
        if _digest(b) != expected[key]
    ]
    assert not wrong, "\n".join(wrong)
    assert _file_digest(path + ".manifest.txt") == pins["manifests"][case], f"{case}: manifest differs"


def test_demo_exports_match_pins(golden, tmp_path):
    pins, _ = golden
    got = _export_digests(_run("demo-layers-0-1", str(tmp_path)))
    expected = pins["exports"]["demo-layers-0-1"]
    assert sorted(got) == sorted(expected), "exported blocks or formats differ"
    wrong = [key for key in sorted(got) if got[key] != expected[key]]
    assert not wrong, "exports differ: " + ", ".join(wrong)


def regenerate() -> None:
    """Rewrite golden.json and golden.npz from the current program."""
    pins, values = {"blocks": {}, "exports": {}, "manifests": {}}, {}
    for case, build in CASES:
        with tempfile.TemporaryDirectory() as work:
            path = _run(case, work)
            pins["manifests"][case] = _file_digest(path + ".manifest.txt")
            blocks = _blocks(path)
            if case.startswith("demo"):
                pins["exports"][build] = _export_digests(path)
        digests = {key: _digest(b) for key, b in sorted(blocks.items())}
        if pins["blocks"].setdefault(build, digests) != digests:
            raise SystemExit(f"{case} stores other blocks than the first run of {build}")
        for key, b in blocks.items():
            values[f"{build}/{key}"] = b.values
            layer = values.setdefault(f"{build}/{key.split('/')[0]}", b.indices)
            assert np.array_equal(layer, b.indices), "the blocks of a layer share their voxels"
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez_compressed(VALUES, **values)


if __name__ == "__main__":
    regenerate()
